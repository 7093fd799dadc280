import re

import numpy as np
import pytest

from shapenas import ActionCatalog, ContextSpec, LayerTemplate
from shapenas.dataset import (MetaDataset, SchemaError, StatsParseError,
                              _numeric_column_mask, ingest_stats, oversample,
                              write_stats)
from shapenas.oracle import SynthStatsModel

from corpus import drop_column, synth_corpus

ROW = {
    "Type": "conv", "Kernel Size": 3, "Stride": 1, "Padding": 1,
    "Expansion Ratio": 1.0, "Idskip": 0, "Channels": 8, "Height": 16,
    "Width": 16, "Input Volume": 768, "Output Volume": 2048,
    "Cores": 8, "Compute Units": 2, "Memory": 4096, "Clock Freq.": 2800,
    "Memory B/w": 25.6, "Processor Kind": "cpu",
    "Execution time": 1.5, "feasible": 1,
}


def make_csv(tmp_path, rows, name="stats.csv", targets=("Execution time",)):
    path = tmp_path / name
    write_stats(rows, list(targets), path)
    return path


def vary(**kw):
    row = dict(ROW)
    row.update(kw)
    return row


def test_ingest_three_rows(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(Channels=4), vary(Stride=2)])
    data = ingest_stats(path)
    assert len(data) == 3
    assert data.target_names == ["Execution time"]
    assert data.feasible.all()


def test_csv_without_feasible_column_reads_every_row_feasible(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(Channels=4)])
    drop_column(path, "feasible")
    assert "feasible" not in path.read_text()
    data = ingest_stats(path)
    assert data.feasible.tolist() == [True, True]
    assert data.Y.tolist() == [[1.5], [1.5]]


def test_infeasible_row_reads_without_targets(tmp_path):
    rows = [vary(), vary(Channels=4, feasible=0, **{"Execution time": ""})]
    data = ingest_stats(make_csv(tmp_path, rows))
    assert data.feasible.tolist() == [True, False]
    assert np.isnan(data.Y[1, 0])


def test_missing_column_named_in_error(tmp_path):
    # Processor Kind too: every corpus encodes to parse_network's columns
    for missing in ("Clock Freq.", "Processor Kind"):
        header = [c for c in ROW if c not in ("feasible", missing)]
        path = tmp_path / "broken.csv"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: missing required column {missing!r}")):
            ingest_stats(path)


def test_non_numeric_cell_reports_line(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(Channels="eight")])
    with pytest.raises(StatsParseError) as err:
        ingest_stats(path)
    assert err.value.line == 3
    assert "Channels" in str(err.value)


@pytest.mark.parametrize("column, value", [
    ("Kernel Size", "nan"), ("Cores", "inf"), ("Height", "-1e400"),
    ("Task 0", "nan")])
def test_non_finite_feature_cell_reports_line_and_column(tmp_path, column,
                                                         value):
    # a feature the trees cannot split on is an error of the file, not of
    # a later fit
    path = make_csv(tmp_path, [vary(**{"Task 0": 0.5}),
                               vary(**{"Task 0": 0.5, column: value})])
    with pytest.raises(StatsParseError) as err:
        ingest_stats(path)
    assert err.value.line == 3
    assert str(err.value) == \
        f"{path}:3: non-finite value {value!r} in column {column!r}"


def test_short_row_names_line_and_cell_count(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(), vary()])
    lines = path.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0]  # drop the feasible cell
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(StatsParseError) as err:
        ingest_stats(path)
    assert err.value.line == 4
    assert f"{path}:4: expected 19 cells, got 18" in str(err.value)


def test_feasible_cell_must_be_0_or_1(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(feasible=2)])
    with pytest.raises(StatsParseError) as err:
        ingest_stats(path)
    assert err.value.line == 3
    assert f"{path}:3: feasible must be 0 or 1, got '2'" in str(err.value)


def test_infeasible_row_with_targets_rejected(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(feasible=0)])
    with pytest.raises(StatsParseError, match="empty"):
        ingest_stats(path)


def test_extra_columns_become_targets(tmp_path):
    rows = [vary(**{"Memory Usage": 2.0}), vary(**{"Memory Usage": 3.0})]
    data = ingest_stats(make_csv(tmp_path, rows,
                                 targets=("Execution time", "Memory Usage")))
    assert data.target_names == ["Execution time", "Memory Usage"]
    assert data.Y.shape == (2, 2)


def test_feasible_row_with_bad_target_rejected(tmp_path):
    for i, bad in enumerate(("nan", "inf", -2.0, "")):
        path = make_csv(tmp_path, [vary(), vary(**{"Execution time": bad})],
                        name=f"bad{i}.csv")
        with pytest.raises(StatsParseError, match="Execution time") as err:
            ingest_stats(path)
        assert err.value.line == 3
        assert str(path) in str(err.value)


@pytest.mark.parametrize("column, value, message", [
    ("Type", "Conv", "column 'Type': unknown block 'Conv'; expected one of "
                     "conv, dense, dwconv, pool, skip"),
    ("Processor Kind", "GPU", "column 'Processor Kind': unknown processor "
                              "'GPU'; expected one of cpu, dsp, gpu, npu"),
], ids=["block_kind", "processor_kind"])
def test_unknown_level_names_line_and_column(tmp_path, column, value,
                                             message):
    path = make_csv(tmp_path, [vary(), vary(**{column: value})])
    with pytest.raises(StatsParseError) as err:
        ingest_stats(path)
    assert err.value.line == 3
    assert f"{path}:3: {message}" in str(err.value)


@pytest.mark.parametrize("column, value", [("Channels", 999),
                                           ("Memory Usage", 5.0)],
                         ids=["feature", "extra_target"])
def test_repeated_column_named_with_both_places(tmp_path, column, value):
    path = make_csv(tmp_path, [vary(**{"Memory Usage": 2.0})],
                    targets=("Execution time", "Memory Usage"))
    header, body = path.read_text().splitlines()
    names = header.split(",")
    path.write_text(f"{header},{column}\n{body},{value}\n")
    with pytest.raises(SchemaError) as err:
        ingest_stats(path)
    assert (f"{path}:1: column {len(names) + 1} {column!r} repeats column "
            f"{names.index(column) + 1}") in str(err.value)


def task_csv(tmp_path, tasks, values=(0.5, 0.25)):
    """A one-row stats CSV whose two task columns are headed ``tasks`` and
    hold ``values``."""
    path = tmp_path / "tasks.csv"
    write_stats([vary(**{"Task 0": values[0], "Task 1": values[1]})],
                ["Execution time"], path)
    header, body = path.read_text().split("\n", 1)
    path.write_text(header.replace("Task 0,Task 1", ",".join(tasks)) + "\n"
                    + body)
    return path


@pytest.mark.parametrize("tasks, bad", [
    (("Task 0", "Task x"), "column 20 'Task x'"),
    (("Task 0", "Task 2"), "column 20 'Task 2'"),
    (("Task 1", "Task 2"), "column 20 'Task 2'"),
    (("Task 1", "Task 1"), "column 19 'Task 1'"),
], ids=["not_a_number", "gap", "no_task_0", "repeated"])
def test_task_columns_must_count_from_zero(tmp_path, tasks, bad):
    path = task_csv(tmp_path, tasks)
    with pytest.raises(SchemaError) as err:
        ingest_stats(path)
    assert (f"{path}:1: {bad}: task columns must be 'Task 0' to 'Task 1', "
            f"each once") in str(err.value)


def test_task_columns_read_in_index_order(tmp_path):
    data = ingest_stats(task_csv(tmp_path, ("Task 1", "Task 0"), (0.25, 0.5)))
    assert data.columns[-2:] == ["task_0", "task_1"]
    assert data.X[0, -2:].tolist() == [0.5, 0.25]


def test_oversample_factor_one_is_identity(tmp_path):
    data = ingest_stats(make_csv(tmp_path, [vary(), vary(Channels=4)]))
    out = oversample(data, 1.0, seed=0)
    assert np.array_equal(out.X, data.X)
    assert len(out) == len(data)


def test_oversample_identical_rows_duplicates(tmp_path):
    data = ingest_stats(make_csv(tmp_path, [vary(), vary()]))
    out = oversample(data, 2.0, seed=0)
    assert len(out) == 4
    for i in range(2, 4):
        assert np.array_equal(out.X[i], data.X[0])
        assert np.array_equal(out.Y[i], data.Y[0])


def test_oversample_interpolates_between_parents(tmp_path):
    data = ingest_stats(make_csv(tmp_path, [vary(Channels=4),
                                            vary(Channels=12)]))
    out = oversample(data, 3.0, seed=1)
    col = out.columns.index("channels")
    for i in range(2, len(out)):
        assert 4.0 <= out.X[i, col] <= 12.0
    # convex hull strictly between when parents differ (u in (0,1))
    assert any(4.0 < out.X[i, col] < 12.0 for i in range(2, len(out)))


def test_oversample_rejects_bad_factor(tmp_path):
    data = ingest_stats(make_csv(tmp_path, [vary(), vary()]))
    with pytest.raises(ValueError):
        oversample(data, 0.5, seed=0)


def test_oversample_deterministic(tmp_path):
    data = ingest_stats(make_csv(tmp_path, [vary(), vary(Channels=4),
                                            vary(Stride=2)]))
    a = oversample(data, 2.0, seed=42)
    b = oversample(data, 2.0, seed=42)
    assert np.array_equal(a.X, b.X)


def reference_oversample(data, factor, seed):
    """The row-at-a-time loop that ``oversample`` replaces: each new row's
    draws, neighbors and interpolation in turn."""
    n_new = int(round((factor - 1) * len(data)))
    rng = np.random.default_rng(seed)
    numeric = _numeric_column_mask(data.columns)
    X_new, Y_new, feas_new = [], [], []
    for _ in range(n_new):
        candidates = np.nonzero(data.feasible)[0]
        infeas = np.nonzero(~data.feasible)[0]
        if len(infeas) >= 2 and rng.uniform() < len(infeas) / len(data):
            candidates = infeas
        i = int(rng.choice(candidates))
        same = candidates[candidates != i]
        dist = np.linalg.norm(data.X[same][:, numeric] -
                              data.X[i, numeric], axis=1)
        near = same[np.argsort(dist, kind="stable")[:5]]
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
    return MetaDataset(list(data.columns), list(data.target_names),
                       np.vstack([data.X, np.asarray(X_new)]),
                       np.vstack([data.Y, np.asarray(Y_new)]),
                       np.concatenate([data.feasible, np.asarray(feas_new)]))


OVERSAMPLE_CATALOG = ActionCatalog((
    LayerTemplate("conv", kernel_size=3, stride=1, padding=1, channels=8),
    LayerTemplate("conv", kernel_size=5, stride=1, padding=2, channels=16),
    LayerTemplate("pool", kernel_size=2, stride=2),
    LayerTemplate("dense", channels=32),
), max_depth=5)
# the memory-starved context marks the large layers infeasible
OVERSAMPLE_CONTEXTS = {
    "both": [ContextSpec(8, 2, 4096, 2800, 25.6, "cpu"),
             ContextSpec(2, 1, 15.0, 800, 6.4, "dsp")],
    "feasible": [ContextSpec(8, 2, 4096, 2800, 25.6, "cpu")],
}


@pytest.mark.parametrize("factor", [1.5, 3.0])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("contexts", ["both", "feasible", "one_infeasible"])
def test_oversample_equals_row_at_a_time_loop(tmp_path, contexts, seed,
                                              factor):
    name = "feasible" if contexts == "one_infeasible" else contexts
    ctxs = OVERSAMPLE_CONTEXTS[name]
    model = SynthStatsModel(context_multipliers=(1.0, 3.0)[:len(ctxs)])
    _, data = synth_corpus(tmp_path / "stats.csv", OVERSAMPLE_CATALOG, ctxs,
                           model, count=80, seed=seed)
    if contexts == "one_infeasible":
        # one infeasible row has no partner: parents are all feasible
        data.feasible[0] = False
        data.Y[0] = np.nan
    infeasible = int((~data.feasible).sum())
    assert (infeasible >= 2) == (contexts == "both")
    out = oversample(data, factor, seed)
    ref = reference_oversample(data, factor, seed)
    for name in ("X", "Y", "feasible"):
        assert getattr(out, name).tobytes() == getattr(ref, name).tobytes()
    assert len(out) == len(ref) > len(data)
    if contexts == "both":  # new rows of both classes
        assert 0 < int((~out.feasible[len(data):]).sum()) < len(out) - len(data)
