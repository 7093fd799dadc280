import pickle
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shapenas import (ActionCatalog, CandidateNetwork, ContextSpec,
                      LayerTemplate, SyntheticOracle, SyntheticTaskSpec,
                      brute_force_best_chain, design_space, greedy_rollout,
                      grow, legal_actions, parse_network, run_search)
from shapenas.design_space import (IllegalActionError, ShapeError,
                                   feature_columns, instantiate,
                                   validate_network)
from shapenas.controller import CallableSecondary, ShapingConfig
from shapenas.oracle import random_network
from shapenas.rules import FieldError


def empty_net():
    return CandidateNetwork((3, 16, 16))


def append(net, template):
    """``net`` with one free-standing template appended: ``grow`` on a
    one-template catalog."""
    return grow(net, ActionCatalog((template,), max_depth=1), 0)


def test_parse_empty_network_has_full_schema(toy_context):
    m = parse_network(empty_net(), toy_context)
    assert m.shape == (0, len(feature_columns(task_arity=1)))


def test_parse_single_conv_volumes(toy_context):
    net = append(empty_net(), LayerTemplate("conv", 3, 1, 1, channels=8))
    m = parse_network(net, toy_context)
    cols = feature_columns(task_arity=1)
    assert m.shape == (1, len(cols))
    assert m[0, cols.index("input_volume")] == 3 * 16 * 16
    assert m[0, cols.index("output_volume")] == 8 * 16 * 16


def test_parse_stacked_layers_volumes_chain(toy_context):
    net = append(empty_net(), LayerTemplate("conv", 3, 1, 1, channels=8))
    net = append(net, LayerTemplate("pool", 2, 2))
    m = parse_network(net, toy_context)
    cols = feature_columns(task_arity=1)
    assert m[1, cols.index("input_volume")] == m[0, cols.index("output_volume")]


def test_parse_rejects_inconsistent_network(toy_context):
    net = append(empty_net(), LayerTemplate("conv", 3, 1, 1, channels=8))
    bad = CandidateNetwork(net.input_shape,
                           (net.layers[0].__class__(
                               "conv", 3, 1, 1, 1.0, False, 8, 99, 16),))
    with pytest.raises(ShapeError) as err:
        parse_network(bad, toy_context)
    assert err.value.layer_index == 0


def test_legal_actions_at_max_depth_empty(toy_catalog):
    net = empty_net()
    for _ in range(toy_catalog.max_depth):
        net = append(net, toy_catalog.actions[0])
    assert legal_actions(net, toy_catalog) == []


def test_legal_actions_fresh_net_all_valid(toy_catalog):
    assert legal_actions(empty_net(), toy_catalog) == [0, 1, 2]


def test_legal_actions_excludes_oversized_kernel():
    catalog = ActionCatalog((
        LayerTemplate("conv", kernel_size=5, channels=4),
        LayerTemplate("conv", kernel_size=1, channels=4),
    ), max_depth=8)
    net = CandidateNetwork((4, 2, 2))
    assert legal_actions(net, catalog) == [1]


def test_grow_appends():
    net = append(empty_net(), LayerTemplate("conv", 3, 1, 1, channels=8))
    assert net.depth == 1


def test_grow_pool_halves_spatial_dims():
    net = append(empty_net(), LayerTemplate("pool", 2, 2))
    assert net.output_shape == (3, 8, 8)


def test_grow_illegal_action_leaves_input_unchanged():
    net = CandidateNetwork((4, 2, 2))
    with pytest.raises(IllegalActionError):
        append(net, LayerTemplate("conv", kernel_size=5, channels=4))
    assert net.layers == ()


def test_dense_flattens():
    net = append(empty_net(), LayerTemplate("dense", channels=16))
    assert net.output_shape == (16, 1, 1)


def test_skip_is_identity():
    net = append(empty_net(), LayerTemplate("skip"))
    assert net.output_shape == (3, 16, 16)


templates = st.builds(
    LayerTemplate,
    block_kind=st.sampled_from(("conv", "dwconv", "pool", "skip", "dense")),
    kernel_size=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    channels=st.integers(1, 16),
)


@settings(max_examples=60, deadline=None)
@given(actions=st.lists(templates, min_size=1, max_size=5),
       steps=st.lists(st.integers(0, 4), max_size=6), depth_cap=st.integers(1, 6))
def test_legal_then_grow_never_breaks_shapes(actions, steps, depth_cap):
    catalog = ActionCatalog(tuple(actions), max_depth=depth_cap)
    net = CandidateNetwork((3, 13, 13))
    taken = 0
    for pick in steps:
        legal = legal_actions(net, catalog)
        if not legal:
            break
        net = append(net, catalog.actions[legal[pick % len(legal)]])
        taken += 1
        validate_network(net)
    assert net.depth == taken
    assert net.depth <= depth_cap


def test_schema_constant_across_networks(toy_catalog, toy_context):
    nets = [empty_net()]
    for a in toy_catalog.actions:
        nets.append(append(empty_net(), a))
    widths = {parse_network(n, toy_context).shape[1] for n in nets}
    assert len(widths) == 1


def test_context_validation():
    with pytest.raises(ValueError):
        ContextSpec(cores=-1, compute_units=1, memory_mb=1, clock_freq_mhz=1,
                    memory_bandwidth=1)


def test_unknown_processor_kind_rejected():
    # mis-cased: the encoder would otherwise give all-zero processor columns
    with pytest.raises(ValueError, match="processor_kind must be one of "
                                         "'cpu', 'dsp', 'gpu', 'npu', got "
                                         "'GPU'"):
        ContextSpec(8, 2, 4096, 2800, 25.6, "GPU")


def test_float_sized_template_rejected():
    # a 2.5 kernel once built a legal action whose layer was 16.0 x 16.0
    with pytest.raises(FieldError, match=re.escape(
            "kernel_size must be an integer, got 2.5")) as exc:
        LayerTemplate("conv", kernel_size=2.5, padding=1, channels=4)
    assert (exc.value.name, exc.value.value) == ("kernel_size", 2.5)
    for size in ("stride", "padding", "channels"):
        with pytest.raises(FieldError, match=f"{size} must be an integer"):
            LayerTemplate("conv", **{size: 1.0})


def test_unknown_block_kind_rejected():
    with pytest.raises(ValueError):
        LayerTemplate("transformer")


def test_instantiate_kernel_bound_respects_padding():
    # 2x2 input, k=3 fails unpadded but fits with padding 1
    with pytest.raises(ShapeError):
        instantiate(LayerTemplate("conv", kernel_size=3, channels=2), (1, 2, 2))
    layer = instantiate(LayerTemplate("conv", kernel_size=3, padding=1,
                                      channels=2), (1, 2, 2))
    assert (layer.height, layer.width) == (2, 2)


# --- the catalog's memo of fitting actions ---------------------------------


def reference_legal(net, catalog):
    """Uncached legality: every template instantiated against the chain's
    output shape, as ``legal_actions`` did before the catalog memoized it."""
    if net.depth >= catalog.max_depth:
        return []
    out = []
    for i, template in enumerate(catalog.actions):
        try:
            instantiate(template, net.output_shape)
        except ShapeError:
            continue
        out.append(i)
    return out


# kernels up to 5 and strides up to 3 on inputs down to 1x1: some templates
# never fit, others stop fitting a few layers in; channels 0 keeps the input's
mixed_templates = st.builds(
    LayerTemplate,
    block_kind=st.sampled_from(("conv", "dwconv", "pool", "dense", "skip")),
    kernel_size=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 1),
    expansion_ratio=st.sampled_from((1.0, 2.5)),
    id_skip=st.booleans(),
    channels=st.integers(0, 16),
)


@settings(max_examples=150, deadline=None)
@given(actions=st.lists(mixed_templates, min_size=1, max_size=6),
       side=st.integers(1, 12), depth_cap=st.integers(1, 7),
       picks=st.lists(st.integers(0, 1000), max_size=8))
def test_memoized_legality_and_growth_match_uncached(actions, side,
                                                     depth_cap, picks):
    catalog = ActionCatalog(tuple(actions), max_depth=depth_cap)
    net = CandidateNetwork((3, side, side))
    for pick in picks + [0]:
        legal = legal_actions(net, catalog)
        assert legal == reference_legal(net, catalog)
        legal.append(-1)  # a fresh list: the memo is not touched
        assert legal_actions(net, catalog) == legal[:-1]
        legal.pop()
        if not legal:
            return
        for a in range(-1, len(actions) + 1):
            if a in legal:
                assert grow(net, catalog, a) == \
                    append(net, catalog.actions[a])
            else:
                with pytest.raises(IllegalActionError):
                    grow(net, catalog, a)
        net = grow(net, catalog, legal[pick % len(legal)])
        validate_network(net)


def test_instantiate_runs_once_per_shape_and_action(toy_space, monkeypatch):
    calls = Counter()
    index = {t: i for i, t in enumerate(toy_space.catalog.actions)}

    def counted(template, in_shape, _fn=design_space.instantiate):
        calls[in_shape, index[template]] += 1
        return _fn(template, in_shape)

    monkeypatch.setattr(design_space, "instantiate", counted)
    oracle = SyntheticOracle(SyntheticTaskSpec((0.25, 0.05, 0.02)))
    secondary = CallableSecondary(lambda net, actions: [len(actions)], 1)
    for backend in ("tabular", "mlp"):
        for weights in (None, (1.0, 0.1)):
            trace = run_search(toy_space, oracle, secondary,
                               ShapingConfig(episodes=10, max_steps=4,
                                             tau=-1e9, backend=backend,
                                             hidden=(4,)),
                               0, weights=weights)
            greedy_rollout(trace.state, toy_space)
    brute_force_best_chain(toy_space, oracle, 0.9)
    rng = np.random.default_rng(0)
    for _ in range(20):
        random_network(toy_space.catalog, toy_space.input_shape, rng)
    # 16x16 -> 8x8 -> 4x4 -> 2x2 by pool; 3, 8 or 4 channels at each size
    assert len(calls) > 3
    assert set(calls.values()) == {1}


def test_filled_memo_equal_hash_and_pickle(toy_catalog):
    fresh = ActionCatalog(toy_catalog.actions, toy_catalog.max_depth)
    net = CandidateNetwork((3, 16, 16))
    while legal := legal_actions(net, toy_catalog):
        net = grow(net, toy_catalog, legal[-1])
    assert len(toy_catalog._fitting) == 4 and not fresh._fitting
    assert toy_catalog == fresh
    assert hash(toy_catalog) == hash(fresh)
    assert repr(toy_catalog) == repr(fresh)
    copy = pickle.loads(pickle.dumps(toy_catalog))
    assert copy == toy_catalog and hash(copy) == hash(toy_catalog)
    assert copy._fitting == toy_catalog._fitting
    assert legal_actions(net, copy) == legal_actions(net, fresh)
    assert grow(CandidateNetwork((3, 4, 4)), copy, 2) == \
        grow(CandidateNetwork((3, 4, 4)), fresh, 2)
