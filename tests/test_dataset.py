import numpy as np
import pytest

from shapenas.dataset import (SchemaError, StatsParseError, ingest_stats,
                              oversample, write_stats)

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
    write_stats(rows, list(targets), path, task_arity=0)
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


def test_infeasible_row_enters_registry(tmp_path):
    rows = [vary(), vary(Channels=4, feasible=0, **{"Execution time": ""})]
    data = ingest_stats(make_csv(tmp_path, rows))
    assert len(data.infeasible_registry) == 1
    assert not data.feasible[1]
    assert np.isnan(data.Y[1, 0])


def test_missing_column_named_in_error(tmp_path):
    header = [c for c in ROW if c != "feasible" and c != "Clock Freq."]
    path = tmp_path / "broken.csv"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
    with pytest.raises(SchemaError, match="Clock Freq."):
        ingest_stats(path)


def test_non_numeric_cell_reports_line(tmp_path):
    path = make_csv(tmp_path, [vary(), vary(Channels="eight")])
    with pytest.raises(StatsParseError) as err:
        ingest_stats(path)
    assert err.value.line == 3
    assert "Channels" in str(err.value)


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
