import dataclasses
import math

import numpy as np
import pytest

from shapenas import (ActionCatalog, CandidateNetwork, ContextSpec,
                      LayerTemplate, grow, parse_network)
from shapenas.dataset import (StatsParseError, ingest_stats, stats_record,
                              write_stats)
from shapenas.design_space import (BLOCK_KINDS, PROCESSOR_KINDS,
                                   feature_columns)
from shapenas.oracle import (TARGET_NAMES, SyntheticOracle, SyntheticTaskSpec,
                             SynthStatsModel, TabularLookupError,
                             TabularOracle, encode_chain, gen_synth_stats)
from shapenas.rules import FieldError

from corpus import synth_corpus


def oracle(**kw):
    kw.setdefault("base_utility", (0.3, 0.1))
    return SyntheticOracle(SyntheticTaskSpec(**kw))


def test_empty_network_scores_zero():
    assert oracle().accuracy(CandidateNetwork((3, 8, 8)), []) == 0.0


def test_single_action_base_utility():
    assert oracle().accuracy(None, [0]) == pytest.approx(0.3)


def test_cap_saturates():
    o = oracle(base_utility=(0.9, 0.9), diminishing=1.0)
    assert o.accuracy(None, [0, 1, 0, 1]) == 1.0


def test_diminishing_returns():
    o = oracle(base_utility=(0.2,), diminishing=0.5)
    assert o.accuracy(None, [0, 0, 0]) == pytest.approx(0.2 + 0.1 + 0.05)


def test_interaction_bonus():
    o = oracle(interaction_bonus=((0, 1, 0.05),))
    assert o.accuracy(None, [0, 1]) == pytest.approx(0.3 + 0.1 + 0.05)


def test_min_depth_gates_primary():
    o = oracle(min_depth=3)
    assert o.accuracy(None, [0, 0]) == 0.0
    assert o.accuracy(None, [0, 0, 0]) > 0.0


def test_monotone_in_depth_without_noise():
    o = oracle(base_utility=(0.15, 0.05), diminishing=0.8)
    last = 0.0
    chain = []
    for a in [0, 1, 0, 1, 0, 0, 1]:
        chain.append(a)
        acc = o.accuracy(None, chain)
        assert acc >= last
        last = acc


def test_tabular_oracle_lookup(tmp_path):
    path = tmp_path / "bench.csv"
    path.write_text("chain,accuracy\n0-1,0.75\nempty,0.0\n")
    o = TabularOracle(path)
    assert o.accuracy(None, [0, 1]) == 0.75
    with pytest.raises(TabularLookupError, match="1-0"):
        o.accuracy(None, [1, 0])


@pytest.mark.parametrize("text, message", [
    ("chain,accuracy\n0,abc\n",
     ":2: column 'accuracy' must be a number, got 'abc'"),
    ("chain,accuracy\n0,0.5\n1\n",
     ":3: column 'accuracy' must be a number, got None"),
    ("chain,accuracy\n0,nan\n",
     ":2: column 'accuracy' must be in (-inf, inf), got nan"),
    ("chain,accuracy\n0,-inf\n",
     ":2: column 'accuracy' must be in (-inf, inf), got -inf"),
    ("chain,accuracy\n1,0.5\n1,0.7\n", ":3: chain '1' is listed twice"),
], ids=["not_a_number", "no_cell", "nan", "infinite", "chain_twice"])
def test_malformed_tabular_row_names_file_and_line(tmp_path, text, message):
    path = tmp_path / "bench.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        TabularOracle(path)
    assert str(exc.value) == f"{path}{message}"


@pytest.mark.parametrize("bonus, rule", [
    ((5,), "must be a list of lists of an integer, an integer and a number"),
    (((0, 1, "x"),), "must be a list of lists of an integer, an integer "
                     "and a number"),
    (((),), "must be a list of lists of an integer, an integer and a number"),
    (((0, 1, math.nan),), "entries must be in (-inf, inf)"),
], ids=["not_an_entry", "string_bonus", "empty_entry", "nan_bonus"])
def test_interaction_bonus_checked_from_python(bonus, rule):
    with pytest.raises(FieldError) as exc:
        SyntheticTaskSpec((0.3, 0.1), interaction_bonus=bonus)
    assert (exc.value.name, exc.value.rule) == ("interaction_bonus", rule)


def test_encode_chain():
    assert encode_chain([]) == "empty"
    assert encode_chain([2, 0, 1]) == "2-0-1"


CAT = ActionCatalog((LayerTemplate("conv", 3, 1, 1, channels=8),
                     LayerTemplate("pool", 2, 2)), max_depth=3)
CTX = ContextSpec(4, 2, 2048, 2000, 12.8, "gpu")


def test_gen_synth_latency_matches_hand_formula():
    model = SynthStatsModel(latency_coeffs=(1.0, 2.0, 3.0, 0.5),
                            context_multipliers=(1.0,),
                            infeasibility_rule=False)
    net = grow(CandidateNetwork((3, 16, 16)), CAT, 0)
    layer = net.layers[0]
    vol = 8 * 16 * 16
    expected = 1.0 + 2.0 * 9 + 3.0 * 8 + 0.5 * vol
    assert model.layer_latency(layer, 1.0) == pytest.approx(expected)
    rows = gen_synth_stats(CAT, [CTX], model, count=20, seed=0)
    for row in rows:
        if row["Type"] == "conv" and row["feasible"]:
            got = row["Execution time"]
            k, ch = row["Kernel Size"], row["Channels"]
            ov = row["Output Volume"]
            assert got == pytest.approx(1.0 + 2.0 * k * k + 3.0 * ch
                                        + 0.5 * ov)


def test_gen_synth_low_memory_context_all_infeasible(tmp_path):
    ctx = ContextSpec(4, 2, 0.0, 2000, 12.8, "gpu")
    model = SynthStatsModel(context_multipliers=(1.0,))
    _, data = synth_corpus(tmp_path / "stats.csv", CAT, [ctx], model,
                           count=30, seed=0)
    assert not data.feasible.any()


def test_gen_synth_deterministic(tmp_path):
    model = SynthStatsModel(context_multipliers=(1.0,))
    rows_a, a = synth_corpus(tmp_path / "a.csv", CAT, [CTX], model,
                             count=50, seed=9)
    rows_b, b = synth_corpus(tmp_path / "b.csv", CAT, [CTX], model,
                             count=50, seed=9)
    assert np.array_equal(a.X, b.X)
    assert rows_a == rows_b


def test_gen_synth_count_and_validation(tmp_path):
    model = SynthStatsModel(context_multipliers=(1.0,))
    rows, data = synth_corpus(tmp_path / "stats.csv", CAT, [CTX], model,
                              count=37, seed=1)
    assert len(data) == 37 and len(rows) == 37
    with pytest.raises(ValueError):
        gen_synth_stats(CAT, [CTX], model, count=0, seed=1)
    with pytest.raises(ValueError):
        gen_synth_stats(CAT, [CTX, CTX], model, count=5, seed=1)


ONE_TASK, TWO_TASKS = (dataclasses.replace(CTX, task=task)
                       for task in ((0.5,), (0.5, 0.25)))


def test_gen_synth_rejects_contexts_of_mixed_task_lengths():
    model = SynthStatsModel(context_multipliers=(1.0, 1.0))
    with pytest.raises(ValueError, match="context 1 has 2 task values, but "
                                         "context 0 has 1"):
        gen_synth_stats(CAT, [ONE_TASK, TWO_TASKS], model, count=20, seed=0)


def test_write_stats_takes_task_columns_from_records(tmp_path):
    # a record's task values all get a column, so mixed lengths leave an
    # empty cell that ingest names rather than a lost column
    net = grow(CandidateNetwork((3, 16, 16)), CAT, 0)
    (shape, layer), = net.layer_inputs()
    rows = [dict(stats_record(layer, shape, ctx), feasible=1,
                 **dict.fromkeys(TARGET_NAMES, 1.0))
            for ctx in (TWO_TASKS, ONE_TASK)]
    path = tmp_path / "stats.csv"
    write_stats(rows[:1], TARGET_NAMES, path)
    assert ingest_stats(path).columns[-2:] == ["task_0", "task_1"]
    write_stats(rows, TARGET_NAMES, path)
    with pytest.raises(StatsParseError, match="stats.csv:3: non-numeric "
                                              "value '' in column 'Task 1'"):
        ingest_stats(path)


def test_ingested_stats_row_equals_parse_network_row(tmp_path):
    """The predictor trains on the rows ``ingest_stats`` reads from a stats
    CSV and is asked about the rows ``parse_network`` builds: for a layer
    of every block kind on a context of every processor kind, both are the
    same row."""
    cat = ActionCatalog((LayerTemplate("conv", 3, 1, 1, 2.5, True, 8),
                         LayerTemplate("dwconv", 3, 2, 1, 1.5, True, 12),
                         LayerTemplate("pool", 2, 2),
                         LayerTemplate("skip"),
                         LayerTemplate("dense", channels=4)), max_depth=5)
    net = CandidateNetwork((3, 16, 16))
    for action in range(5):
        net = grow(net, cat, action)
    assert sorted(layer.block_kind for layer in net.layers) \
        == sorted(BLOCK_KINDS)
    contexts = [ContextSpec(2 + i, 1 + 3 * i, 15.5 * (i + 1), 800 + 300 * i,
                            6.4 * (i + 1), kind, task=(0.25 * i, 3 - i))
                for i, kind in enumerate(PROCESSOR_KINDS)]
    rows = [dict(stats_record(layer, shape, ctx), feasible=1,
                 **dict.fromkeys(TARGET_NAMES, 1.0))
            for ctx in contexts for shape, layer in net.layer_inputs()]
    path = tmp_path / "stats.csv"
    write_stats(rows, TARGET_NAMES, path)
    back = ingest_stats(path)
    assert back.columns == feature_columns(2)
    assert np.array_equal(back.X, np.vstack([parse_network(net, ctx)
                                             for ctx in contexts]))
