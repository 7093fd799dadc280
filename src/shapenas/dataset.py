"""Layerwise execution-stats datasets: CSV ingestion, encoding, oversampling.

The on-disk format is comma-separated UTF-8 with a header. Required columns
(the layerwise stats schema)::

    Type, Kernel Size, Stride, Padding, Expansion Ratio, Idskip, Channels,
    Height, Width, Input Volume, Output Volume, Execution time, Cores,
    Compute Units, Memory, Clock Freq., Memory B/w

Optional columns: ``Processor Kind`` (categorical hardware feature),
``Task 0..n`` (numeric task features), ``feasible`` (0/1, default 1) and any
number of extra *target* columns (e.g. ``Memory Usage``). ``Execution time``
and the extras are response variables; everything else is a feature. Rows
with feasible=0 must leave all target cells empty: non-executable
(architecture, context) pairs carry no measurements.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .design_space import (BLOCK_KINDS, PROCESSOR_KINDS, arch_columns,
                           context_columns, one_hot, row_signature)

REQUIRED_COLUMNS = (
    "Type", "Kernel Size", "Stride", "Padding", "Expansion Ratio", "Idskip",
    "Channels", "Height", "Width", "Input Volume", "Output Volume",
    "Execution time", "Cores", "Compute Units", "Memory", "Clock Freq.",
    "Memory B/w",
)
# CSV numeric feature header -> encoded column name
_CSV_TO_COLUMN = {
    "Kernel Size": "kernel_size",
    "Stride": "stride",
    "Padding": "padding",
    "Expansion Ratio": "expansion_ratio",
    "Idskip": "id_skip",
    "Channels": "channels",
    "Height": "height",
    "Width": "width",
    "Input Volume": "input_volume",
    "Output Volume": "output_volume",
    "Cores": "cores",
    "Compute Units": "compute_units",
    "Memory": "memory_mb",
    "Clock Freq.": "clock_freq_mhz",
    "Memory B/w": "memory_bandwidth",
}
_OPTIONAL_FEATURES = ("Processor Kind",)


class SchemaError(ValueError):
    """Header or column structure does not match the stats schema."""


class StatsParseError(ValueError):
    """A data cell could not be parsed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


@dataclass
class MetaDataset:
    """Encoded stats corpus plus the registry of known-infeasible rows.

    ``X``, ``Y`` and ``feasible`` may be given as nested lists; the registry
    is always derived from ``X`` and ``feasible``.
    """

    columns: list[str]
    target_names: list[str]
    X: np.ndarray  # (n, d) encoded features
    Y: np.ndarray  # (n, w); NaN on infeasible rows
    feasible: np.ndarray  # (n,) bool
    infeasible_registry: set = field(init=False)

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float).reshape(
            -1, len(self.columns))
        self.Y = np.asarray(self.Y, dtype=float).reshape(
            -1, len(self.target_names))
        self.feasible = np.asarray(self.feasible, dtype=bool)
        self.infeasible_registry = {row_signature(x)
                                    for x in self.X[~self.feasible]}

    def __len__(self) -> int:
        return len(self.X)


def dataset_columns(has_processor: bool, task_arity: int) -> list[str]:
    cols = arch_columns()
    cols += list(context_columns(task_arity)) if has_processor else [
        c for c in context_columns(task_arity) if not c.startswith("processor=")
    ]
    return cols


def ingest_stats(path) -> MetaDataset:
    """Load a layerwise stats CSV into an encoded, typed dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header")
        header = [h.strip() for h in header]
        for col in REQUIRED_COLUMNS:
            if col not in header:
                raise SchemaError(f"{path}: missing required column {col!r}")
        has_processor = "Processor Kind" in header
        task_cols = sorted((h for h in header if h.startswith("Task ")),
                           key=lambda h: int(h.split()[1]))
        known = set(REQUIRED_COLUMNS) | set(_OPTIONAL_FEATURES) | set(task_cols)
        extra_targets = [h for h in header
                         if h not in known and h != "feasible"]
        target_names = ["Execution time"] + extra_targets
        columns = dataset_columns(has_processor, len(task_cols))

        col_of = {h: i for i, h in enumerate(header)}

        def cell(row, name):
            return row[col_of[name]].strip()

        def numeric(row, name, line):
            raw = cell(row, name)
            try:
                return float(raw)
            except ValueError:
                raise StatsParseError(
                    f"{path}:{line}: non-numeric value {raw!r} in column "
                    f"{name!r}", line=line)

        def target(row, name, line):
            value = numeric(row, name, line)
            if not (np.isfinite(value) and value >= 0):
                raise StatsParseError(
                    f"{path}:{line}: feasible row needs a finite, "
                    f"non-negative {name!r}, got {value!r}", line=line)
            return value

        X_rows, Y_rows, feas = [], [], []
        for line, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise StatsParseError(
                    f"{path}:{line}: expected {len(header)} cells, "
                    f"got {len(row)}", line=line)
            vec = one_hot(cell(row, "Type"), BLOCK_KINDS, "block")
            for csv_name in ("Kernel Size", "Stride", "Padding",
                             "Expansion Ratio", "Idskip", "Channels",
                             "Height", "Width", "Input Volume",
                             "Output Volume"):
                vec.append(numeric(row, csv_name, line))
            for csv_name in ("Cores", "Compute Units", "Memory",
                             "Clock Freq.", "Memory B/w"):
                vec.append(numeric(row, csv_name, line))
            if has_processor:
                vec += one_hot(cell(row, "Processor Kind"), PROCESSOR_KINDS,
                               "processor")
            for tc in task_cols:
                vec.append(numeric(row, tc, line))

            if "feasible" in col_of:
                raw = cell(row, "feasible")
                if raw not in ("0", "1"):
                    raise StatsParseError(
                        f"{path}:{line}: feasible must be 0 or 1, got {raw!r}",
                        line=line)
                ok = raw == "1"
            else:
                ok = True
            if ok:
                targets = [target(row, t, line) for t in target_names]
            else:
                for t in target_names:
                    if cell(row, t):
                        raise StatsParseError(
                            f"{path}:{line}: infeasible row must leave target "
                            f"{t!r} empty", line=line)
                targets = [np.nan] * len(target_names)
            X_rows.append(vec)
            Y_rows.append(targets)
            feas.append(ok)

    return MetaDataset(columns, target_names, X_rows, Y_rows, feas)


def write_stats(rows: list[dict], target_names: list[str], path,
                has_processor=True, task_arity=0) -> None:
    """Write raw (un-encoded) stats rows in the ingestion CSV schema."""
    header = list(REQUIRED_COLUMNS)
    for extra in target_names:
        if extra not in header:
            header.append(extra)
    if has_processor:
        header.append("Processor Kind")
    header += [f"Task {i}" for i in range(task_arity)]
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
    k_neighbors = 5

    X_new, Y_new, feas_new = [], [], []
    for _ in range(n_new):
        # draw a parent among classes that have a same-class partner
        candidates = np.nonzero(data.feasible)[0]
        infeas = np.nonzero(~data.feasible)[0]
        if len(infeas) >= 2 and rng.uniform() < len(infeas) / len(data):
            candidates = infeas
        i = int(rng.choice(candidates))
        same = candidates[candidates != i]
        dist = np.linalg.norm(data.X[same][:, numeric] -
                              data.X[i, numeric], axis=1)
        near = same[np.argsort(dist, kind="stable")[:k_neighbors]]
        j = int(rng.choice(near))
        u = float(rng.uniform())
        row = data.X[j].copy() if u > 0.5 else data.X[i].copy()
        row[numeric] = (1 - u) * data.X[i, numeric] + u * data.X[j, numeric]
        X_new.append(row)
        if data.feasible[i]:
            Y_new.append((1 - u) * data.Y[i] + u * data.Y[j])
            feas_new.append(True)
        else:
            Y_new.append(np.full(len(data.target_names), np.nan))
            feas_new.append(False)

    X = np.vstack([data.X, np.asarray(X_new)])
    Y = np.vstack([data.Y, np.asarray(Y_new)])
    feasible = np.concatenate([data.feasible, np.asarray(feas_new)])
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
