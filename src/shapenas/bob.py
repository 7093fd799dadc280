"""Bagged ensemble of per-target boosted regression trees + feasibility gate.

The execution-behavior function over (architecture, context) features is
piecewise: pairs in the known-infeasible set have no finite response at all,
everything else is regressed. The case split is reproduced with a learned
binary gate (boosted trees thresholded at 0.5) rather than a sentinel value;
exact hits on the infeasible registry short-circuit the gate.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dataset import MetaDataset
from .design_space import row_signature
from .trees import BoostedRegressor

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

    A model is read-only once built. ``predict`` and ``predict_network``
    memoize each layer row's prediction in ``row_cache`` (row bytes to
    MetaPrediction), since it depends on the row alone; the cache is never
    evicted, because one design space has finitely many distinct layer rows.
    ``cache_hits`` and ``cache_misses`` count the rows served from it and
    the rows predicted.
    """

    def __init__(self, columns, target_names, members, gate,
                 infeasible_registry):
        self.columns = list(columns)
        self.target_names = list(target_names)
        self.members = members  # list of {target: BoostedRegressor}
        self.gate = gate  # BoostedRegressor over 0/1 labels, or None
        self.infeasible_registry = set(infeasible_registry)
        self.row_cache: dict[bytes, MetaPrediction] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def schema_fingerprint(self) -> str:
        return "|".join(self.columns)

    def _check_schema(self, row: np.ndarray) -> None:
        if row.shape[-1] != len(self.columns):
            raise SchemaMismatchError(
                f"expected {len(self.columns)} features "
                f"({self.schema_fingerprint}), got {row.shape[-1]}")

    def gate_feasible(self, X: np.ndarray) -> np.ndarray:
        if self.gate is None:
            return np.ones(len(np.atleast_2d(X)), dtype=bool)
        return self.gate.predict(X) >= 0.5

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-target ensemble means for feasible rows; no gate applied."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        self._check_schema(X[0])
        out = np.zeros((len(X), len(self.target_names)))
        for member in self.members:
            for t, name in enumerate(self.target_names):
                out[:, t] += member[name].predict(X)
        out /= len(self.members)
        return np.clip(out, 0.0, None)  # responses are physical, never < 0


def predict_layers(model: BobModel, X: np.ndarray) -> list[MetaPrediction]:
    """Per-row piecewise prediction: infeasible when the registry or the gate
    fires, otherwise the bag-mean regression values.

    Rows not in the model's row cache go through one registry pass, one gate
    call and one regression call together, and are then cached.
    """
    model._check_schema(X)
    keys = [row.tobytes() for row in X]
    cache = model.row_cache
    new = {}
    for key, row in zip(keys, X):
        if key not in cache:
            new.setdefault(key, row)
    model.cache_misses += len(new)
    model.cache_hits += len(keys) - len(new)
    if new:
        rows = np.asarray(list(new.values()))
        ok = np.asarray([row_signature(r) not in model.infeasible_registry
                         for r in rows], dtype=bool)
        if ok.any():
            ok[ok] = model.gate_feasible(rows[ok])
        values = iter(model.predict_matrix(rows[ok]) if ok.any() else ())
        for key, feasible in zip(new, ok):
            cache[key] = INFEASIBLE if not feasible else MetaPrediction(
                True, tuple(float(v) for v in next(values)))
    return [cache[key] for key in keys]


def predict(model: BobModel, features: np.ndarray) -> MetaPrediction:
    """Piecewise prediction for one feature row (see predict_layers)."""
    row = np.asarray(features, dtype=float).ravel()
    return predict_layers(model, row[None, :])[0]


def predict_network(model: BobModel, feature_matrix: np.ndarray) -> MetaPrediction:
    """Whole-network behavior: additive over per-layer rows.

    Infeasible if any layer row is infeasible; an empty matrix (empty
    network) is feasible with all-zero responses.
    """
    X = np.atleast_2d(np.asarray(feature_matrix, dtype=float))
    if X.shape[0] == 0 or X.size == 0:
        return MetaPrediction(True, tuple(0.0 for _ in model.target_names))
    per_layer = predict_layers(model, X)
    if any(not p.feasible for p in per_layer):
        return INFEASIBLE
    total = np.sum([p.values for p in per_layer], axis=0)
    return MetaPrediction(True, tuple(float(v) for v in total))


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

    Each bag member trains on its own bootstrap sample (RNG stream
    seed+member_index, so serial and parallel fits agree). Regressors see
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
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "columns": model.columns,
        "target_names": model.target_names,
        "infeasible_registry": [[list(a), list(c)]
                                for a, c in sorted(model.infeasible_registry)],
        "gate": model.gate.to_dict() if model.gate is not None else None,
        "members": [{name: reg.to_dict() for name, reg in member.items()}
                    for member in model.members],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> BobModel:
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
        members = [{name: BoostedRegressor.from_dict(reg)
                    for name, reg in member.items()}
                   for member in doc["members"]]
        gate = (BoostedRegressor.from_dict(doc["gate"])
                if doc["gate"] is not None else None)
        registry = {(tuple(a), tuple(c))
                    for a, c in doc["infeasible_registry"]}
        return BobModel(doc["columns"], doc["target_names"], members, gate,
                        registry)
    except KeyError as exc:
        raise ModelFormatError(f"{path}: model file lacks key {exc}") from exc
