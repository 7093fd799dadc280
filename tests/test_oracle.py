import math

import numpy as np
import pytest

from shapenas import (ActionCatalog, CandidateNetwork, ContextSpec,
                      LayerTemplate, apply_action)
from shapenas.dataset import ingest_stats, write_stats
from shapenas.oracle import (TARGET_NAMES, SyntheticOracle, SyntheticTaskSpec,
                             SynthStatsModel, TabularLookupError,
                             TabularOracle, encode_chain, gen_synth_stats)


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
    net = apply_action(CandidateNetwork((3, 16, 16)), CAT.actions[0])
    layer = net.layers[0]
    vol = 8 * 16 * 16
    expected = 1.0 + 2.0 * 9 + 3.0 * 8 + 0.5 * vol
    assert model.layer_latency(layer, 1.0) == pytest.approx(expected)
    data, rows = gen_synth_stats(CAT, [CTX], model, count=20, seed=0)
    for row in rows:
        if row["Type"] == "conv" and row["feasible"]:
            got = row["Execution time"]
            k, ch = row["Kernel Size"], row["Channels"]
            ov = row["Output Volume"]
            assert got == pytest.approx(1.0 + 2.0 * k * k + 3.0 * ch
                                        + 0.5 * ov)


def test_gen_synth_low_memory_context_all_infeasible():
    ctx = ContextSpec(4, 2, 0.0, 2000, 12.8, "gpu")
    model = SynthStatsModel(context_multipliers=(1.0,))
    data, _ = gen_synth_stats(CAT, [ctx], model, count=30, seed=0)
    assert not data.feasible.any()
    assert len(data.infeasible_registry) > 0


def test_gen_synth_deterministic():
    model = SynthStatsModel(context_multipliers=(1.0,))
    a, rows_a = gen_synth_stats(CAT, [CTX], model, count=50, seed=9)
    b, rows_b = gen_synth_stats(CAT, [CTX], model, count=50, seed=9)
    assert np.array_equal(a.X, b.X)
    assert rows_a == rows_b


def test_gen_synth_count_and_validation():
    model = SynthStatsModel(context_multipliers=(1.0,))
    data, rows = gen_synth_stats(CAT, [CTX], model, count=37, seed=1)
    assert len(data) == 37 and len(rows) == 37
    with pytest.raises(ValueError):
        gen_synth_stats(CAT, [CTX], model, count=0, seed=1)
    with pytest.raises(ValueError):
        gen_synth_stats(CAT, [CTX, CTX], model, count=5, seed=1)


def test_gen_synth_dataset_matches_ingest_of_written_rows(tmp_path):
    ctxs = [ContextSpec(4, 2, 2048, 2000, 12.8, "gpu", task=(1, 0.5)),
            ContextSpec(2, 1, 15.5, 800, 6.4, "dsp", task=(0.25, 3))]
    cat = ActionCatalog((LayerTemplate("conv", 3, 1, 1, 2.5, True, 8),
                         LayerTemplate("dense", channels=4),
                         LayerTemplate("pool", 2, 2)), max_depth=4)
    model = SynthStatsModel(context_multipliers=(1.0, 3.0))
    data, rows = gen_synth_stats(cat, ctxs, model, count=200, seed=3)
    path = tmp_path / "stats.csv"
    write_stats(rows, TARGET_NAMES, path, has_processor=True, task_arity=2)
    back = ingest_stats(path)
    assert data.feasible.any() and not data.feasible.all()
    assert data.columns == back.columns
    assert data.target_names == back.target_names
    assert np.array_equal(data.X, back.X)
    assert np.array_equal(data.Y, back.Y, equal_nan=True)
    assert np.array_equal(data.feasible, back.feasible)
    assert data.infeasible_registry == back.infeasible_registry
