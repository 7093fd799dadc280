"""Bagged ensemble of per-target boosted regression trees + feasibility gate.

The execution-behavior function over (architecture, context) features is
piecewise: pairs in the known-infeasible set have no finite response at all,
everything else is regressed. The case split is reproduced with a learned
binary gate (boosted trees thresholded at 0.5) rather than a sentinel value;
exact hits on the infeasible registry short-circuit the gate.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import MetaDataset
from .design_space import row_signature
from .trees import BoostedRegressor, Forest

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is corrupt or from an incompatible format version."""


class SchemaMismatchError(ValueError):
    """Feature row does not match the model's training schema."""


@dataclass
class BobConfig:
    bag_size: int = 10
    rounds: int = 50
    max_depth: int = 4
    shrinkage: float = 0.1
    min_samples_leaf: int = 5
    min_samples: int = 20  # minimum feasible rows required to train

    def __post_init__(self):
        for name, least in (("bag_size", 1), ("rounds", 0), ("max_depth", 0),
                            ("min_samples_leaf", 0), ("min_samples", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be at least {least} and an "
                                 f"integer, got {value!r}")
        if not (isinstance(self.shrinkage, (int, float))
                and 0 < self.shrinkage < math.inf):  # NaN fails this too
            raise ValueError(f"shrinkage must be a finite number > 0, got "
                             f"{self.shrinkage!r}")


@dataclass(frozen=True)
class MetaPrediction:
    """Either a finite per-target response vector or the infeasible case."""

    feasible: bool
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.feasible != (self.values is not None):
            raise ValueError("values must be present iff feasible")


INFEASIBLE = MetaPrediction(feasible=False)


class BobModel:
    """Bootstrap bag of boosted regressors, one regressor per target.

    A model is read-only once built. Building it compiles every member's
    regressors, member after member and target after target, once into one
    ``Forest``, so that ``predict_matrix`` walks all their trees for all
    rows in one pass; the gate is compiled into a forest of its own. A
    malformed tree raises ValueError naming its member and target (or the
    gate). It caches no prediction; ``controller.PredictorSecondary``
    memoizes the layers a search predicts.
    """

    def __init__(self, columns, target_names, members, gate,
                 infeasible_registry):
        self.columns = list(columns)
        self.target_names = list(target_names)
        self.members = members  # list of {target: BoostedRegressor}
        self.gate = gate  # BoostedRegressor over 0/1 labels, or None
        self.infeasible_registry = set(infeasible_registry)
        regressors = [member[name] for member in self.members
                      for name in self.target_names]
        names = [f"member {i}, target {name!r}"
                 for i in range(len(self.members))
                 for name in self.target_names]
        self.forest = Forest(regressors, len(self.columns), names)
        self.gate_forest = (Forest([gate], len(self.columns), ["gate"])
                            if gate is not None else None)

    @property
    def schema_fingerprint(self) -> str:
        return "|".join(self.columns)

    def _check_schema(self, X: np.ndarray) -> None:
        if X.shape[-1] != len(self.columns):
            raise SchemaMismatchError(
                f"expected {len(self.columns)} features "
                f"({self.schema_fingerprint}), got {X.shape[-1]}")

    def gate_feasible(self, X: np.ndarray) -> np.ndarray:
        if self.gate_forest is None:
            return np.ones(len(np.atleast_2d(X)), dtype=bool)
        return self.gate_forest.predict(X)[0] >= 0.5

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-target ensemble means for feasible rows; no gate applied."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self._check_schema(X)
        n_targets = len(self.target_names)
        sums = self.forest.predict(X)
        out = np.zeros((len(X), n_targets))
        for member in sums.reshape(len(self.members), n_targets, len(X)):
            out += member.T  # members summed in order, as a loop sums them
        out /= len(self.members)
        return np.clip(out, 0.0, None)  # responses are physical, never < 0


def predict_layers(model: BobModel, X: np.ndarray) -> list[MetaPrediction]:
    """Per-row piecewise prediction: infeasible when the registry or the gate
    fires, otherwise the bag-mean regression values.

    All rows go through one registry pass, one gate call and one regression
    call together.
    """
    model._check_schema(X)
    ok = np.asarray([row_signature(r) not in model.infeasible_registry
                     for r in X], dtype=bool)
    if ok.any():
        ok[ok] = model.gate_feasible(X[ok])
    values = iter(model.predict_matrix(X[ok]) if ok.any() else ())
    return [MetaPrediction(True, tuple(float(v) for v in next(values)))
            if feasible else INFEASIBLE for feasible in ok]


def predict(model: BobModel, features: np.ndarray) -> MetaPrediction:
    """Piecewise prediction for one feature row (see predict_layers)."""
    row = np.asarray(features, dtype=float).ravel()
    return predict_layers(model, row[None, :])[0]


def network_prediction(per_layer, n_targets: int) -> MetaPrediction:
    """Whole-network behavior from its layers' predictions, additive over
    layers: infeasible if any layer is; an empty network is feasible with
    ``n_targets`` zero responses."""
    if not per_layer:
        return MetaPrediction(True, (0.0,) * n_targets)
    if any(not p.feasible for p in per_layer):
        return INFEASIBLE
    total = np.sum([p.values for p in per_layer], axis=0)
    return MetaPrediction(True, tuple(float(v) for v in total))


def predict_network(model: BobModel, feature_matrix: np.ndarray) -> MetaPrediction:
    """Whole-network behavior from its per-layer rows (see
    network_prediction); an empty matrix is the empty network."""
    X = np.atleast_2d(np.asarray(feature_matrix, dtype=float))
    per_layer = predict_layers(model, X) if X.size else []
    return network_prediction(per_layer, len(model.target_names))


def _stratified_bootstrap(rng, feasible: np.ndarray) -> np.ndarray:
    """Bootstrap indices preserving the feasible/infeasible ratio exactly."""
    idx_f = np.nonzero(feasible)[0]
    idx_i = np.nonzero(~feasible)[0]
    parts = [rng.choice(idx_f, size=len(idx_f), replace=True)]
    if len(idx_i):
        parts.append(rng.choice(idx_i, size=len(idx_i), replace=True))
    return np.concatenate(parts)


def learn_meta(data: MetaDataset, cfg: BobConfig, seed: int) -> BobModel:
    """Fit the bagged predictor; deterministic given (data, cfg, seed).

    Each bag member trains on its own bootstrap sample from its own RNG
    stream, seed+member_index, so a member does not depend on the members
    before it (the bag is fitted serially). Regressors see
    feasible rows only; the gate's bootstrap is stratified over both classes
    so the infeasible registry informs sample selection.
    """
    n_feasible = int(np.sum(data.feasible))
    if n_feasible == 0:
        raise ValueError("no regression targets: every row is infeasible")
    if n_feasible < cfg.min_samples:
        raise ValueError(
            f"need >= {cfg.min_samples} feasible rows, got {n_feasible}")

    feas_idx = np.nonzero(data.feasible)[0]
    X_feas, Y_feas = data.X[feas_idx], data.Y[feas_idx]
    need_gate = bool(np.any(~data.feasible))

    members, gates = [], []
    for m in range(cfg.bag_size):
        rng = np.random.default_rng(seed + m)
        boot = rng.choice(len(feas_idx), size=len(feas_idx), replace=True)
        member = {}
        for t, name in enumerate(data.target_names):
            reg = BoostedRegressor(cfg.rounds, cfg.shrinkage, cfg.max_depth,
                                   cfg.min_samples_leaf)
            member[name] = reg.fit(X_feas[boot], Y_feas[boot, t])
        members.append(member)
        if need_gate and m == 0:
            gate_boot = _stratified_bootstrap(rng, data.feasible)
            gate = BoostedRegressor(cfg.rounds, cfg.shrinkage, cfg.max_depth,
                                    cfg.min_samples_leaf)
            gates.append(gate.fit(data.X[gate_boot],
                                  data.feasible[gate_boot].astype(float)))

    return BobModel(data.columns, data.target_names, members,
                    gates[0] if gates else None, data.infeasible_registry)


def score(model: BobModel, holdout: MetaDataset) -> dict:
    """Per-target R^2 / RMSE on feasible rows plus gate accuracy on all rows."""
    if len(holdout) == 0:
        raise ValueError("holdout is empty")
    if holdout.columns != model.columns:
        raise SchemaMismatchError("holdout schema differs from model schema")
    feas = holdout.feasible
    report = {"targets": {}, "gate_accuracy": None}
    if feas.any():
        X, Y = holdout.X[feas], holdout.Y[feas]
        pred = model.predict_matrix(X)
        for t, name in enumerate(model.target_names):
            err = Y[:, t] - pred[:, t]
            rmse = float(np.sqrt(np.mean(err ** 2)))
            ss_tot = float(np.sum((Y[:, t] - Y[:, t].mean()) ** 2))
            if ss_tot == 0.0:
                r2 = None  # undefined on a zero-variance target
            else:
                r2 = float(1.0 - np.sum(err ** 2) / ss_tot)
            report["targets"][name] = {"r2": r2, "rmse": rmse}
    gate_pred = model.gate_feasible(holdout.X)
    report["gate_accuracy"] = float(np.mean(gate_pred == feas))
    return report


def save_model(model: BobModel, path) -> None:
    """Write the model as one JSON document, ``json.dumps``'s text of it,
    one member at a time, so that the text of only one member is held at
    once (``json.dump`` would write the same text, but never takes the C
    encoder)."""
    head = json.dumps({
        "format_version": MODEL_FORMAT_VERSION,
        "columns": model.columns,
        "target_names": model.target_names,
        "infeasible_registry": [[list(a), list(c)]
                                for a, c in sorted(model.infeasible_registry)],
        "gate": model.gate.to_dict() if model.gate is not None else None,
        "members": [],
    })
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-len("[]}")] + "[")
        for i, member in enumerate(model.members):
            if i:
                fh.write(", ")
            fh.write(json.dumps({name: reg.to_dict()
                                 for name, reg in member.items()}))
        fh.write("]}")


def _regressor(path, where: str, mapping, key):
    """``mapping[key]`` as a regressor; a malformed one raises
    ModelFormatError naming the file and ``where``."""
    try:
        return BoostedRegressor.from_dict(mapping[key])
    except KeyError as exc:
        raise ModelFormatError(f"{path}: {where}: no key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: {where}: {exc}") from exc


def load_model(path) -> BobModel:
    """The model ``save_model`` wrote; its trees compile once, into the
    model's forest. A malformed file raises ModelFormatError naming the
    file and, for a malformed regressor, its member and target (or the
    gate), and for a malformed tree the tree and node within it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version}, this build reads "
            f"{MODEL_FORMAT_VERSION}")
    try:
        if not doc["members"]:
            raise ModelFormatError(f"{path}: model file has no members")
        columns = doc["columns"]
        members = [{name: _regressor(path, f"member {i}, target {name!r}",
                                     member, name)
                    for name in doc["target_names"]}
                   for i, member in enumerate(doc["members"])]
        gate = (_regressor(path, "gate", doc, "gate")
                if doc["gate"] is not None else None)
        registry = {(tuple(a), tuple(c))
                    for a, c in doc["infeasible_registry"]}
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file lacks key {exc}") from exc
    try:
        return BobModel(columns, doc["target_names"], members, gate, registry)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
