import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapenas.bob import (INFEASIBLE, MODEL_FORMAT_VERSION, BobConfig,
                          BobModel, MetaPrediction, ModelFormatError,
                          SchemaMismatchError, learn_meta, load_model,
                          predict, predict_network, save_model, score)
from shapenas.dataset import MetaDataset
from shapenas.design_space import row_signature

from test_dataset import make_csv, vary
from shapenas.dataset import ingest_stats

CFG = BobConfig(bag_size=3, rounds=15, min_samples=5)


def toy_dataset(tmp_path, n=40, infeasible_every=None, constant=None):
    rows = []
    rng = np.random.default_rng(0)
    for i in range(n):
        ch = int(rng.integers(2, 32))
        lat = constant if constant is not None else 0.5 + 0.1 * ch
        infeasible = infeasible_every and i % infeasible_every == 0
        rows.append(vary(Channels=ch,
                         feasible=0 if infeasible else 1,
                         **{"Execution time": "" if infeasible else lat}))
    return ingest_stats(make_csv(tmp_path, rows))


def test_constant_target_predicted_exactly(tmp_path):
    data = toy_dataset(tmp_path, constant=2.5)
    model = learn_meta(data, CFG, seed=0)
    for i in range(5):
        pred = predict(model, data.X[i])
        assert pred.feasible
        assert pred.values[0] == pytest.approx(2.5, abs=1e-12)


def test_learn_meta_deterministic(tmp_path):
    data = toy_dataset(tmp_path)
    a = learn_meta(data, CFG, seed=3)
    b = learn_meta(data, CFG, seed=3)
    X = data.X[:10]
    assert np.array_equal(a.predict_matrix(X), b.predict_matrix(X))


def test_all_infeasible_raises(tmp_path):
    data = toy_dataset(tmp_path, infeasible_every=1)
    with pytest.raises(ValueError, match="no regression targets"):
        learn_meta(data, CFG, seed=0)


def test_registry_hit_short_circuits_gate(tmp_path):
    data = toy_dataset(tmp_path, infeasible_every=4)
    model = learn_meta(data, CFG, seed=0)
    i = int(np.nonzero(~data.feasible)[0][0])
    assert not predict(model, data.X[i]).feasible


def test_gate_learns_separable_rule(tmp_path):
    # infeasible iff channels above a cutoff: perfectly separable
    rows = []
    for ch in range(2, 42):
        bad = ch > 30
        rows.append(vary(Channels=ch, feasible=0 if bad else 1,
                         **{"Execution time": "" if bad else 1.0 + ch}))
    data = ingest_stats(make_csv(tmp_path, rows))
    model = learn_meta(data, BobConfig(bag_size=2, rounds=30, min_samples=5),
                       seed=0)
    probe = data.X[-1].copy()
    col = data.columns.index("channels")
    probe[col] = 35.5  # unseen value, same side of the cutoff
    assert not predict(model, probe).feasible
    probe[col] = 10.5
    assert predict(model, probe).feasible


def test_bag_of_identical_members_equals_single(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, BobConfig(bag_size=1, rounds=10, min_samples=5),
                       seed=0)
    tripled = BobModel(model.columns, model.target_names,
                       model.members * 3, model.gate,
                       model.infeasible_registry)
    X = data.X[:8]
    assert np.allclose(model.predict_matrix(X), tripled.predict_matrix(X))


def test_predictions_clamped_non_negative(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, CFG, seed=0)
    rng = np.random.default_rng(1)
    X = rng.uniform(-100, 100, size=(50, data.X.shape[1]))
    assert (model.predict_matrix(X) >= 0).all()


def test_schema_mismatch_rejected(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, CFG, seed=0)
    with pytest.raises(SchemaMismatchError):
        predict(model, np.zeros(3))


def test_per_target_models_independent(tmp_path):
    rows = [vary(Channels=c, **{"Execution time": 1.0 + c,
                                "Memory Usage": 5.0 + 2 * c})
            for c in range(2, 30)]
    data = ingest_stats(make_csv(
        tmp_path, rows, targets=("Execution time", "Memory Usage")))
    model = learn_meta(data, CFG, seed=0)
    full = model.predict_matrix(data.X[:5])
    reduced = copy.deepcopy(model)
    reduced.target_names = ["Execution time"]
    for member in reduced.members:
        member.pop("Memory Usage")
    assert np.array_equal(reduced.predict_matrix(data.X[:5]), full[:, :1])


def test_score_mean_predictor_r2_zero(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, BobConfig(bag_size=1, rounds=0, min_samples=5),
                       seed=0)
    # pin the constant prediction to the holdout mean: R^2 = 0 by definition
    model.members[0]["Execution time"].base_prediction = float(
        data.Y[:, 0].mean())
    report = score(model, data)
    assert report["targets"]["Execution time"]["r2"] == pytest.approx(0.0)


def test_score_perfect_and_zero_variance(tmp_path):
    data = toy_dataset(tmp_path, constant=2.0)
    model = learn_meta(data, CFG, seed=0)
    report = score(model, data)
    # zero-variance holdout target: undefined marker, not NaN
    assert report["targets"]["Execution time"]["r2"] is None
    assert report["targets"]["Execution time"]["rmse"] == pytest.approx(0.0)
    assert report["gate_accuracy"] == 1.0


def test_score_empty_holdout_rejected(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, CFG, seed=0)
    empty = MetaDataset(data.columns, data.target_names,
                        data.X[:0], data.Y[:0], data.feasible[:0])
    with pytest.raises(ValueError):
        score(model, empty)


def test_save_load_roundtrip_identical(tmp_path):
    data = toy_dataset(tmp_path, infeasible_every=5)
    model = learn_meta(data, CFG, seed=0)
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 50, size=(100, data.X.shape[1]))
    assert np.array_equal(model.predict_matrix(X), clone.predict_matrix(X))
    assert np.array_equal(model.gate_feasible(X), clone.gate_feasible(X))
    assert clone.infeasible_registry == model.infeasible_registry


def test_load_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_load_missing_key_names_file_and_key(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(f'{{"format_version": {MODEL_FORMAT_VERSION}}}')
    with pytest.raises(ModelFormatError, match="partial.json.*'members'"):
        load_model(path)


def test_load_version_mismatch_names_versions(tmp_path):
    path = tmp_path / "old.json"
    path.write_text('{"format_version": 99}')
    with pytest.raises(ModelFormatError, match="99"):
        load_model(path)


def test_predict_network_sums_layers_and_empty_is_zero(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, CFG, seed=0)
    one = model.predict_matrix(data.X[:1])[0]
    both = predict_network(model, data.X[:1].repeat(2, axis=0))
    assert both.feasible
    assert both.values[0] == pytest.approx(2 * one[0])
    empty = predict_network(model, np.zeros((0, data.X.shape[1])))
    assert empty.feasible and empty.values == (0.0,)


# --- batched, cached layer prediction ---------------------------------------


def reference_predict(model, row):
    """The uncached one-row path that the batched layer prediction replaces."""
    if row_signature(row) in model.infeasible_registry \
            or not model.gate_feasible(row[None, :])[0]:
        return INFEASIBLE
    values = model.predict_matrix(row[None, :])[0]
    return MetaPrediction(True, tuple(float(v) for v in values))


def fresh(model):
    """The same predictor with an empty row cache."""
    return BobModel(model.columns, model.target_names, model.members,
                    model.gate, model.infeasible_registry)


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    """A model whose registry holds channels 31..41 and whose gate rejects
    channels above 30; its row pool adds unseen rows on both sides."""
    rows = [vary(Channels=ch, feasible=0 if ch > 30 else 1,
                 **{"Execution time": "" if ch > 30 else 1.0 + ch,
                    "Memory Usage": "" if ch > 30 else 0.5 * ch})
            for ch in range(2, 42)]
    data = ingest_stats(make_csv(tmp_path_factory.mktemp("gated"), rows,
                                 targets=("Execution time", "Memory Usage")))
    model = learn_meta(data, BobConfig(bag_size=2, rounds=30, min_samples=5),
                       seed=0)
    col = data.columns.index("channels")
    probes = np.repeat(data.X[:1], 2, axis=0)
    probes[:, col] = (10.5, 35.5)
    return model, np.vstack([data.X, probes])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_predict_network_is_sum_of_row_predictions(gated, data):
    model, pool = gated
    chain = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                               max_size=8))
    X = pool[chain]
    rows = [reference_predict(model, x) for x in X]
    if all(p.feasible for p in rows):
        total = np.sum([p.values for p in rows], axis=0)
        expected = MetaPrediction(True, tuple(float(v) for v in total))
    else:
        expected = INFEASIBLE
    assert [predict(fresh(model), x) for x in X] == rows
    cached = fresh(model)
    assert predict_network(cached, X) == expected
    distinct = len(set(map(bytes, X)))
    assert (cached.cache_misses, cached.cache_hits) == \
        (distinct, len(X) - distinct)
    # later calls are served from the cache and return the same results
    assert predict_network(cached, X) == expected
    assert [predict(cached, x) for x in X] == rows
    assert (cached.cache_misses, cached.cache_hits) == \
        (distinct, 3 * len(X) - distinct)


def test_registry_or_gate_row_makes_network_infeasible(gated):
    model, pool = gated
    registry_row, feasible_row = pool[35], pool[-2]
    gate_row = pool[-1]
    assert row_signature(registry_row) in model.infeasible_registry
    assert row_signature(gate_row) not in model.infeasible_registry
    assert not model.gate_feasible(gate_row[None, :])[0]
    assert predict_network(fresh(model), feasible_row[None, :]).feasible
    for bad in (registry_row, gate_row):
        chain = np.vstack([feasible_row, bad, feasible_row])
        assert predict_network(fresh(model), chain) == INFEASIBLE
