import json
import re

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
from test_trees import N_FEATURES, random_rows
from test_trees import reference_predict as reference_regressor
from shapenas.dataset import ingest_stats
from shapenas.trees import BoostedRegressor

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


def test_empty_bag_rejected(tmp_path):
    data = toy_dataset(tmp_path)
    with pytest.raises(ValueError, match=r"bag_size must be in \[1, inf\], "
                                         r"got 0"):
        learn_meta(data, BobConfig(bag_size=0, min_samples=5), seed=0)


def test_all_infeasible_raises(tmp_path):
    data = toy_dataset(tmp_path, infeasible_every=1)
    with pytest.raises(ValueError, match="no regression targets"):
        learn_meta(data, CFG, seed=0)


def test_too_few_feasible_rows_raises(tmp_path):
    data = toy_dataset(tmp_path, infeasible_every=4)  # 30 of 40 feasible
    with pytest.raises(ValueError, match="need >= 31 feasible rows, got 30"):
        learn_meta(data, BobConfig(bag_size=1, min_samples=31), seed=0)
    learn_meta(data, BobConfig(bag_size=1, rounds=1, min_samples=30), seed=0)


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


def reference_matrix(model, X):
    """The per-regressor loop that the model's forest replaces."""
    out = np.zeros((len(X), len(model.target_names)))
    for member in model.members:
        for t, name in enumerate(model.target_names):
            out[:, t] += reference_regressor(member[name], X)
    out /= len(model.members)
    return np.clip(out, 0.0, None)


@settings(max_examples=60, deadline=None)
@given(n_members=st.integers(1, 3), n_targets=st.integers(1, 2),
       gated=st.booleans(),
       shapes=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4),
                                 st.sampled_from([0.1, 0.3, 1.0])),
                       min_size=7, max_size=7),
       n_rows=st.sampled_from([0, 1, 300]), seed=st.integers(0, 2 ** 16))
def test_forest_equals_per_regressor_loop(n_members, n_targets, gated,
                                          shapes, n_rows, seed):
    # regressors of unequal tree counts and depths share one forest
    rng = np.random.default_rng(seed)
    X = random_rows(seed, 60)
    shapes = iter(shapes)

    def fitted(y):
        rounds, depth, rate = next(shapes)
        return BoostedRegressor(rounds, rate, depth, 2).fit(X, y)

    targets = [f"target {k}" for k in range(n_targets)]
    members = [{name: fitted(rng.normal(size=60) * 5.0) for name in targets}
               for _ in range(n_members)]
    gate = fitted(rng.integers(0, 2, 60).astype(float)) if gated else None
    model = BobModel([f"x{j}" for j in range(N_FEATURES)], targets, members,
                     gate, set())
    rows = random_rows(seed + 1, n_rows)
    got, expected = model.predict_matrix(rows), reference_matrix(model, rows)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    expected_gate = (reference_regressor(gate, rows) >= 0.5 if gated
                     else np.ones(n_rows, dtype=bool))
    assert np.array_equal(model.gate_feasible(rows), expected_gate)


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
    # a model is read-only once built: build a second one without the target
    reduced = BobModel(model.columns, ["Execution time"],
                       [{"Execution time": member["Execution time"]}
                        for member in model.members],
                       model.gate, model.infeasible_registry)
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


def test_saved_file_is_json_dumps_of_the_whole_model(tmp_path):
    # save_model writes one member at a time; the bytes are those of the
    # whole document in one json.dumps
    data = toy_dataset(tmp_path, infeasible_every=5)
    model = learn_meta(data, CFG, seed=0)
    assert model.gate is not None and model.infeasible_registry
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "columns": model.columns,
        "target_names": model.target_names,
        "infeasible_registry": [[list(a), list(c)] for a, c in
                                sorted(model.infeasible_registry)],
        "gate": model.gate.to_dict(),
        "members": [{name: reg.to_dict() for name, reg in member.items()}
                    for member in model.members],
    }
    assert path.read_bytes() == json.dumps(doc).encode("utf-8")


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


def corrupt_tree(doc):
    """Tree 2 of member 1's 'Memory Usage' regressor and its first split."""
    tree = doc["members"][1]["Memory Usage"]["trees"][2]
    return tree, next(j for j, f in enumerate(tree["feature"]) if f >= 0)


def left_into_next_tree(doc):
    tree, j = corrupt_tree(doc)
    tree["left"][j] = len(tree["feature"])
    return f"member 1, target 'Memory Usage': tree 2 node {j}:"


def feature_past_columns(doc):
    tree, j = corrupt_tree(doc)
    tree["feature"][j] = len(doc["columns"])
    return f"member 1, target 'Memory Usage': tree 2 node {j}:"


def short_threshold(doc):
    tree, _ = corrupt_tree(doc)
    tree["threshold"].pop()
    return "member 1, target 'Memory Usage': tree 2: node lists"


def child_before_parent(doc):  # a cycle: the walk would never end
    tree, j = corrupt_tree(doc)
    j = next(k for k, f in enumerate(tree["feature"]) if k > j and f >= 0)
    tree["left"][j] = 0
    return f"member 1, target 'Memory Usage': tree 2 node {j}:"


def null_threshold(doc):
    tree, j = corrupt_tree(doc)
    tree["threshold"][j] = None
    return f"member 1, target 'Memory Usage': tree 2 node {j}:"


def member_lacks_target(doc):
    del doc["members"][1]["Memory Usage"]
    return "member 1, target 'Memory Usage': no key 'Memory Usage'"


def no_members(doc):
    doc["members"] = []
    return "model file has no members"


def null_columns(doc):
    doc["columns"] = None
    return "columns must be a list of strings, got None"


def number_in_registry(doc):
    doc["infeasible_registry"][1] = 1
    return "infeasible_registry entry 1: 1 is not a pair of number lists"


def string_learning_rate(doc):
    doc["members"][1]["Memory Usage"]["learning_rate"] = "x"
    return ("member 1, target 'Memory Usage': learning_rate 'x' is not a "
            "finite number")


def index_entry(name, bad, kind="an index"):
    """Entry ``name`` of tree 2's first split set to ``bad``, which numpy
    would read as ``kind``."""
    def corrupt(doc):
        tree, j = corrupt_tree(doc)
        tree[name][j] = bad
        return (f"member 1, target 'Memory Usage': tree 2 node {j}: {name} "
                f"{bad!r} is not {kind}")
    corrupt.__name__ = f"{name}_{bad!r}"
    return corrupt


def threshold_past_double_range(doc):
    tree, j = corrupt_tree(doc)
    tree["threshold"][j] = 10 ** 400
    return "not a valid model file"


@pytest.mark.parametrize("corrupt", [
    left_into_next_tree, feature_past_columns, short_threshold,
    child_before_parent, null_threshold, member_lacks_target, no_members,
    null_columns, number_in_registry, string_learning_rate,
    index_entry("feature", 1.5), index_entry("feature", True),
    index_entry("left", 1.5), index_entry("right", True),
    index_entry("feature", 2 ** 63), threshold_past_double_range,
    index_entry("threshold", True, "a number"),
    index_entry("value", "1.5", "a number")],
    ids=lambda corrupt: corrupt.__name__)
def test_load_rejects_malformed_model(gated, tmp_path, corrupt):
    model, _ = gated
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    where = corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"{path}: {where}")):
        load_model(path)


@pytest.mark.parametrize("text", ["[1, 2]", "3"])
def test_load_rejects_top_level_that_is_not_an_object(tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    with pytest.raises(ModelFormatError, match=re.escape(
            f"{path}: not a valid model file: the top level is {text}, not "
            f"an object")):
        load_model(path)


def test_load_names_an_index_past_64_bits(gated, tmp_path):
    # orjson reads an integer past 64 bits as a float, or refuses the file
    model, _ = gated
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    tree, j = corrupt_tree(doc)
    tree["feature"][j] = 2 ** 64
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=re.escape(f"{path}: ") + (
            f"not a valid model file|member 1, target 'Memory Usage': "
            f"tree 2 node {j}: feature .* is not an index")):
        load_model(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_nan_and_infinity_tokens(gated, tmp_path, token):
    # json would read them; a model file never holds them
    model, _ = gated
    path = tmp_path / "model.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["members"][0]["Memory Usage"]["base_prediction"] = float(token)
    path.write_text(json.dumps(doc))
    assert token in path.read_text()
    with pytest.raises(ModelFormatError,
                       match=re.escape(f"{path}: not a valid model file")):
        load_model(path)


# -0.0, subnormals, the extremes and reprs such as 1e+16 and 1e-07
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e16, -1e16, 1e-7, 1e22, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(pool=st.lists(FLOATS, min_size=1, max_size=16),
       seed=st.integers(0, 2 ** 16))
def test_save_load_keeps_every_float_bit_for_bit(gated, tmp_path_factory,
                                                 pool, seed):
    model, rows = gated
    rng = np.random.default_rng(seed)

    def draw(n):
        return [pool[i] for i in rng.integers(0, len(pool), n)]

    def scrambled(reg):
        d = reg.to_dict()
        learning_rate, base = draw(2)
        trees = [dict(t, threshold=draw(len(t["threshold"])),
                      value=draw(len(t["value"]))) for t in d["trees"]]
        return BoostedRegressor.from_dict(dict(
            d, learning_rate=learning_rate, base_prediction=base,
            trees=trees))

    def hexes(m):
        return [(reg.learning_rate.hex(), reg.base_prediction.hex(),
                 [x.hex() for t in reg.trees
                  for x in t["threshold"] + t["value"]])
                for reg in [r for member in m.members
                            for r in member.values()] + [m.gate]]

    original = BobModel(
        model.columns, model.target_names,
        [{name: scrambled(reg) for name, reg in member.items()}
         for member in model.members],
        scrambled(model.gate), model.infeasible_registry)
    path = tmp_path_factory.mktemp("floats") / "model.json"
    save_model(original, path)
    loaded = load_model(path)
    assert hexes(loaded) == hexes(original)
    with np.errstate(all="ignore"):  # large values overflow alike
        assert (loaded.predict_matrix(rows).tobytes()
                == original.predict_matrix(rows).tobytes())
        assert (loaded.gate_forest.predict(rows).tobytes()
                == original.gate_forest.predict(rows).tobytes())


def test_predict_matrix_on_zero_rows(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, CFG, seed=0)
    out = model.predict_matrix(data.X[:0])
    assert out.shape == (0, 1)


def test_predict_network_sums_layers_and_empty_is_zero(tmp_path):
    data = toy_dataset(tmp_path)
    model = learn_meta(data, CFG, seed=0)
    one = model.predict_matrix(data.X[:1])[0]
    both = predict_network(model, data.X[:1].repeat(2, axis=0))
    assert both.feasible
    assert both.values[0] == pytest.approx(2 * one[0])
    empty = predict_network(model, np.zeros((0, data.X.shape[1])))
    assert empty.feasible and empty.values == (0.0,)


# --- layer prediction ------------------------------------------------------


def reference_predict(model, row):
    """The row rule spelled out from the model's registry, gate and
    regression, which ``predict`` must match."""
    if row_signature(row) in model.infeasible_registry \
            or not model.gate_feasible(row[None, :])[0]:
        return INFEASIBLE
    values = model.predict_matrix(row[None, :])[0]
    return MetaPrediction(True, tuple(float(v) for v in values))


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
    assert [predict(model, x) for x in X] == rows
    assert predict_network(model, X) == expected
    # later calls return the same results
    assert predict_network(model, X) == expected
    assert [predict(model, x) for x in X] == rows


def test_registry_or_gate_row_makes_network_infeasible(gated):
    model, pool = gated
    registry_row, feasible_row = pool[35], pool[-2]
    gate_row = pool[-1]
    assert row_signature(registry_row) in model.infeasible_registry
    assert row_signature(gate_row) not in model.infeasible_registry
    assert not model.gate_feasible(gate_row[None, :])[0]
    assert predict_network(model, feasible_row[None, :]).feasible
    for bad in (registry_row, gate_row):
        chain = np.vstack([feasible_row, bad, feasible_row])
        assert predict_network(model, chain) == INFEASIBLE
