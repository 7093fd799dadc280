"""Bagged ensemble of per-target boosted regression trees + feasibility gate.

The execution-behavior function over (architecture, context) features is
piecewise: pairs in the known-infeasible set have no finite response at all,
everything else is regressed. The case split is reproduced with a learned
binary gate (boosted trees thresholded at 0.5) rather than a sentinel value;
exact hits on the infeasible registry short-circuit the gate.

``load_model`` decodes ``model.json`` with orjson: ``json``'s decoder
spends ~145 ns on each of the file's numbers, which made decoding the
largest part of a short predictor search, and orjson takes about a quarter
of that. Writing stays on ``json.dumps``, whose separators and float
reprs keep the file's bytes as they were, and so do checkpoints, whose
PCG64 ``rng_state`` holds 128-bit integers, which orjson does not write
and reads back as floats.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .dataset import MetaDataset
from .design_space import row_signature
from .rules import Range, check_fields
from .trees import BoostedRegressor, Forest

MODEL_FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """Model file is corrupt or from an incompatible format version."""


class SchemaMismatchError(ValueError):
    """Feature row does not match the model's training schema."""


@dataclass
class BobConfig:
    bag_size: Annotated[int, Range(1)] = 10
    rounds: Annotated[int, Range(0)] = 50
    max_depth: Annotated[int, Range(0)] = 4
    shrinkage: Annotated[float, Range(0, ends="()")] = 0.1
    min_samples_leaf: Annotated[int, Range(0)] = 5
    min_samples: Annotated[int, Range(0)] = 20  # feasible rows to train

    __post_init__ = check_fields


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


def predict(model: BobModel, features: np.ndarray) -> MetaPrediction:
    """Piecewise prediction for one feature row, the one row rule: a row
    whose width is not the model's raises SchemaMismatchError; a row in the
    infeasible registry, or one the gate rejects, is infeasible; any other
    row gets the bag-mean regression values."""
    row = np.asarray(features, dtype=float).reshape(1, -1)
    model._check_schema(row)
    if (row_signature(row[0]) in model.infeasible_registry
            or not model.gate_feasible(row)[0]):
        return INFEASIBLE
    return MetaPrediction(True, tuple(float(v)
                                      for v in model.predict_matrix(row)[0]))


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
    """Whole-network behavior: ``network_prediction`` over ``predict`` of
    each per-layer row; an empty matrix is the empty network."""
    X = np.atleast_2d(np.asarray(feature_matrix, dtype=float))
    per_layer = [predict(model, row) for row in X] if X.size else []
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


def _names(path, doc, key) -> list:
    """``doc[key]`` if it is a list of strings; else ModelFormatError."""
    names = doc[key]
    if type(names) is not list or not all(type(n) is str for n in names):
        raise ModelFormatError(f"{path}: {key} must be a list of strings, "
                               f"got {names!r}")
    return names


def _registry(path, entries) -> set:
    """The infeasible registry from its ``[arch, context]`` number lists;
    anything else raises ModelFormatError naming the entry."""
    if type(entries) is not list:
        raise ModelFormatError(f"{path}: infeasible_registry must be a "
                               f"list, got {entries!r}")
    registry = set()
    for k, entry in enumerate(entries):
        if not (type(entry) is list and len(entry) == 2 and all(
                type(part) is list
                and all(type(v) in (int, float) for v in part)
                for part in entry)):
            raise ModelFormatError(
                f"{path}: infeasible_registry entry {k}: {entry!r} is not "
                f"a pair of number lists")
        registry.add((tuple(entry[0]), tuple(entry[1])))
    return registry


def load_model(path) -> BobModel:
    """The model ``save_model`` wrote; its trees compile once, into the
    model's forest. A malformed file raises ModelFormatError naming the
    file and the key, the registry entry, or, for a malformed regressor,
    its member and target (or the gate), and for a malformed tree the tree
    and node within it."""
    import orjson  # imported here: commands that load no model never pay
    try:
        with open(path, "rb") as fh:
            doc = orjson.loads(fh.read())
    except orjson.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not a valid model file: {exc}")
    if type(doc) is not dict:
        raise ModelFormatError(f"{path}: not a valid model file: the top "
                               f"level is {doc!r:.40}, not an object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format version {version!r}, this build reads "
            f"{MODEL_FORMAT_VERSION}")
    try:
        if type(doc["members"]) is not list or not doc["members"]:
            raise ModelFormatError(f"{path}: model file has no members")
        columns = _names(path, doc, "columns")
        target_names = _names(path, doc, "target_names")
        members = [{name: _regressor(path, f"member {i}, target {name!r}",
                                     member, name)
                    for name in target_names}
                   for i, member in enumerate(doc["members"])]
        gate = (_regressor(path, "gate", doc, "gate")
                if doc["gate"] is not None else None)
        registry = _registry(path, doc["infeasible_registry"])
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file lacks key {exc}") from exc
    try:
        return BobModel(columns, target_names, members, gate, registry)
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
