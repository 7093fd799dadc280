"""Layerwise execution-stats datasets: CSV ingestion, encoding, oversampling.

The on-disk format is comma-separated UTF-8 with a header. Required columns
(the layerwise stats schema) are ``Type``, the stats-CSV columns of
``design_space.ARCH_NUMERIC``, ``Execution time`` and those of
``design_space.CONTEXT_NUMERIC``, in that order (``REQUIRED_COLUMNS``, which
lead ``write_stats``'s header), and ``Processor Kind`` (categorical hardware
feature), so that every corpus encodes to ``feature_columns``, the columns
``parse_network`` gives a search.

Optional columns: ``Task 0`` to ``Task k-1`` (numeric task features, each
once), ``feasible`` (0/1, default 1) and any number of extra *target*
columns (e.g. ``Memory Usage``). ``Execution time`` and the extras are
response variables; everything else is a feature. Rows with feasible=0 must
leave all target cells empty: non-executable (architecture, context) pairs
carry no measurements. ``Type`` and ``Processor Kind`` take the levels of
``BLOCK_KINDS`` and ``PROCESSOR_KINDS``. No column name appears twice.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .design_space import (ARCH_NUMERIC, BLOCK_KINDS, CONTEXT_NUMERIC,
                           PROCESSOR_KINDS, feature_columns, layer_values,
                           one_hot)

REQUIRED_COLUMNS = ("Type", *ARCH_NUMERIC.values(), "Execution time",
                    *CONTEXT_NUMERIC.values())
_NUMERIC_COLUMNS = (*ARCH_NUMERIC.values(), *CONTEXT_NUMERIC.values())


class SchemaError(ValueError):
    """Header or column structure does not match the stats schema."""


class StatsParseError(ValueError):
    """A data cell could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


@dataclass
class MetaDataset:
    """Encoded stats corpus: features, targets and the feasibility flags.

    ``X``, ``Y`` and ``feasible`` may be given as nested lists.
    """

    columns: list[str]
    target_names: list[str]
    X: np.ndarray  # (n, d) encoded features
    Y: np.ndarray  # (n, w); NaN on infeasible rows
    feasible: np.ndarray  # (n,) bool

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float).reshape(
            -1, len(self.columns))
        self.Y = np.asarray(self.Y, dtype=float).reshape(
            -1, len(self.target_names))
        self.feasible = np.asarray(self.feasible, dtype=bool)

    def __len__(self) -> int:
        return len(self.X)


def ingest_stats(path) -> MetaDataset:
    """Load a layerwise stats CSV into an encoded, typed dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header")
        header = [h.strip() for h in header]
        for col in (*REQUIRED_COLUMNS, "Processor Kind"):
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        n_tasks = sum(h.startswith("Task ") for h in header)
        task_cols = [f"Task {i}" for i in range(n_tasks)]
        for col, h in enumerate(header, start=1):
            if h.startswith("Task ") and (h not in task_cols
                                          or header.count(h) > 1):
                raise SchemaError(
                    f"{path}:1: column {col} {h!r}: task columns must be "
                    f"'Task 0' to 'Task {n_tasks - 1}', each once")
        col_of = {}
        for col, h in enumerate(header):
            if h in col_of:
                raise SchemaError(
                    f"{path}:1: column {col + 1} {h!r} repeats column "
                    f"{col_of[h] + 1}")
            col_of[h] = col
        known = {*REQUIRED_COLUMNS, "Processor Kind", *task_cols, "feasible"}
        target_names = ["Execution time"] + [h for h in header
                                             if h not in known]

        def cell(row, name):
            return row[col_of[name]].strip()

        def bad(line, message):
            return StatsParseError(f"{path}:{line}: {message}", line=line)

        def numeric(row, name, line, finite=True):
            raw = cell(row, name)
            try:
                value = float(raw)
            except ValueError:
                raise bad(line, f"non-numeric value {raw!r} in column "
                                f"{name!r}")
            if finite and not math.isfinite(value):
                raise bad(line, f"non-finite value {raw!r} in column "
                                f"{name!r}")
            return value

        def category(row, name, levels, what, line):
            try:
                return one_hot(cell(row, name), levels, what)
            except ValueError as exc:
                raise bad(line, f"column {name!r}: {exc}") from None

        def target(row, name, line):
            value = numeric(row, name, line, finite=False)
            if not (np.isfinite(value) and value >= 0):
                raise bad(line, f"feasible row needs a finite, non-negative "
                                f"{name!r}, got {value!r}")
            return value

        X_rows, Y_rows, feas = [], [], []
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise bad(line, f"expected {len(header)} cells, "
                                f"got {len(row)}")
            vec = category(row, "Type", BLOCK_KINDS, "block", line)
            vec += [numeric(row, name, line) for name in _NUMERIC_COLUMNS]
            vec += category(row, "Processor Kind", PROCESSOR_KINDS,
                            "processor", line)
            for tc in task_cols:
                vec.append(numeric(row, tc, line))

            if "feasible" in col_of:
                raw = cell(row, "feasible")
                if raw not in ("0", "1"):
                    raise bad(line, f"feasible must be 0 or 1, got {raw!r}")
                ok = raw == "1"
            else:
                ok = True
            if ok:
                targets = [target(row, t, line) for t in target_names]
            else:
                for t in target_names:
                    if cell(row, t):
                        raise bad(line, f"infeasible row must leave target "
                                        f"{t!r} empty")
                targets = [np.nan] * len(target_names)
            X_rows.append(vec)
            Y_rows.append(targets)
            feas.append(ok)

    return MetaDataset(feature_columns(n_tasks), target_names, X_rows,
                       Y_rows, feas)


def stats_record(layer, in_shape, ctx) -> dict:
    """The feature cells of one stats-CSV row: ``layer``, whose input has
    shape ``in_shape``, run on the context ``ctx``."""
    record = {"Type": layer.block_kind}
    record.update(zip(ARCH_NUMERIC.values(), layer_values(layer, in_shape)))
    record.update((column, getattr(ctx, name))
                  for name, column in CONTEXT_NUMERIC.items())
    record["Processor Kind"] = ctx.processor_kind
    record.update((f"Task {i}", v) for i, v in enumerate(ctx.task))
    return record


def write_stats(rows: list[dict], target_names: list[str], path) -> None:
    """Write raw (un-encoded) stats rows in the ingestion CSV schema, with a
    ``Task i`` column for each such key of any row, in order of ``i``."""
    header = list(REQUIRED_COLUMNS)
    for extra in target_names:
        if extra not in header:
            header.append(extra)
    header.append("Processor Kind")
    header += sorted((key for key in set().union(*rows)
                      if key.startswith("Task ")), key=lambda k: int(k[5:]))
    header.append("feasible")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row.get(h, "") for h in header])


def _numeric_column_mask(columns: list[str]) -> np.ndarray:
    """True for plain numeric columns, False for one-hot indicator blocks."""
    return np.asarray([not (c.startswith("type=") or
                            c.startswith("processor=")) for c in columns])


def oversample(data: MetaDataset, factor: float, seed: int) -> MetaDataset:
    """Grow the corpus with convex combinations of same-feasibility neighbors.

    New rows interpolate numeric columns between two neighboring rows of the
    same feasibility class with weight u ~ Uniform(0,1); one-hot categorical
    blocks are copied from the nearer parent. Feasible rows interpolate their
    targets the same way. Deterministic given the seed.
    """
    if factor < 1:
        raise ValueError("oversample factor must be >= 1")
    if int(np.sum(data.feasible)) < 2:
        raise ValueError("need at least 2 feasible samples to oversample")
    n_new = int(round((factor - 1) * len(data)))
    if n_new == 0:
        return MetaDataset(list(data.columns), list(data.target_names),
                           data.X.copy(), data.Y.copy(),
                           data.feasible.copy())
    rng = np.random.default_rng(seed)
    numeric = _numeric_column_mask(data.columns)
    X_num = data.X[:, numeric]
    feas = np.nonzero(data.feasible)[0]
    infeas = np.nonzero(~data.feasible)[0]
    p_infeas = len(infeas) / len(data)
    k_neighbors = 5

    # the draws, in the order a row at a time takes them; a parent's
    # neighbors depend on the parent alone
    near_of, draws = {}, []
    for _ in range(n_new):
        # draw a parent among classes that have a same-class partner
        candidates = feas
        if len(infeas) >= 2 and rng.uniform() < p_infeas:
            candidates = infeas
        # rng.choice(a) draws a[rng.integers(len(a))], without its checks
        i = int(candidates[rng.integers(len(candidates))])
        near = near_of.get(i)
        if near is None:
            same = candidates[candidates != i]
            dist = np.linalg.norm(X_num[same] - X_num[i], axis=1)
            near = near_of[i] = same[np.argsort(dist, kind="stable")
                                     [:k_neighbors]]
        draws.append((i, int(near[rng.integers(len(near))]),
                      rng.uniform()))
    i, j, u = map(np.array, zip(*draws))
    u = u[:, None]
    # categorical blocks from the nearer parent, numeric ones interpolated
    X_new = np.where(u > 0.5, data.X[j], data.X[i])
    X_new[:, numeric] = (1 - u) * X_num[i] + u * X_num[j]
    feas_new = data.feasible[i]
    Y_new = np.where(feas_new[:, None], (1 - u) * data.Y[i] + u * data.Y[j],
                     np.nan)

    X = np.vstack([data.X, X_new])
    Y = np.vstack([data.Y, Y_new])
    feasible = np.concatenate([data.feasible, feas_new])
    return MetaDataset(list(data.columns), list(data.target_names), X, Y,
                       feasible)


def train_holdout_split(data: MetaDataset, test_fraction: float,
                        seed: int) -> tuple[MetaDataset, MetaDataset]:
    """Seeded shuffle split preserving the feasibility mix approximately."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(data))
    n_test = max(1, int(round(test_fraction * len(data))))
    test_idx, train_idx = order[:n_test], order[n_test:]

    def take(idx):
        return MetaDataset(list(data.columns), list(data.target_names),
                           data.X[idx], data.Y[idx], data.feasible[idx])

    return take(train_idx), take(test_idx)
