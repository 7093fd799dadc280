"""Boundary table of every config value rule: NaN, the infinities, each
bound and the floats either side of it, accepted or rejected alike by a
Python constructor and by the config reader."""
import dataclasses
import math
import sys
import typing

import pytest

from shapenas import rules
from shapenas.bob import BobConfig
from shapenas.config import (ConfigError, build_catalog, build_input_shape,
                             build_predictor_cfg, build_section,
                             build_synth_corpus)
from shapenas.controller import ShapingConfig
from shapenas.design_space import (BLOCK_KINDS, PROCESSOR_KINDS,
                                   ActionCatalog, ContextSpec, LayerTemplate)
from shapenas.oracle import SynthStatsModel, SyntheticTaskSpec

NAN, INF = math.nan, math.inf
MAX = sys.float_info.max


def below(x):
    return math.nextafter(x, -INF)


def above(x):
    return math.nextafter(x, INF)


# each class build_section builds: its config section and the values of
# its required fields
SECTIONS = {
    ShapingConfig: ("shaping", {}),
    BobConfig: ("predictor", {}),
    LayerTemplate: ("catalog.actions[0]", {"block_kind": "conv"}),
    ContextSpec: ("context", {"cores": 1, "compute_units": 1,
                              "memory_mb": 1.0, "clock_freq_mhz": 1.0,
                              "memory_bandwidth": 1.0}),
    SyntheticTaskSpec: ("oracle", {"base_utility": (0.1,)}),
    SynthStatsModel: ("synth_stats_model", {}),
}
POSITIVE = ((above(0.0), INF), (0.0, below(0.0), NAN, -INF))
NON_NEGATIVE = ((0.0, INF), (below(0.0), NAN, -INF))
FINITE_POSITIVE = ((above(0.0), MAX), (0.0, below(0.0), NAN, INF, -INF))
FINITE_NON_NEGATIVE = ((0.0, MAX), (below(0.0), NAN, INF, -INF))
FINITE = ((0.0, MAX, -MAX), (NAN, INF, -INF))


def entries(values):
    """A single-entry tuple of each value, for a tuple field."""
    return tuple((v,) for v in values[0]), tuple((v,) for v in values[1])


def at_least(low):
    return (low,), (low - 1,)


# (class, field, values accepted, values rejected), as the checks in each
# class's constructor decide them
BOUNDARIES = [
    (ShapingConfig, "gamma", (above(0.0), below(1.0)),
     (0.0, below(0.0), 1.0, above(1.0), NAN, INF, -INF)),
    (ShapingConfig, "beta", *POSITIVE),
    (ShapingConfig, "softmax_temperature", *POSITIVE),
    # epsilon_threshold < epsilon0 (1.0) rules out 1.0 and +inf
    (ShapingConfig, "epsilon_threshold", (above(0.0), below(1.0)),
     (0.0, below(0.0), 1.0, NAN, INF, -INF)),
    (ShapingConfig, "tau", (INF, -INF, 0.0), (NAN,)),
    # an epsilon0 entry at or below epsilon_threshold (0.01) is legal when
    # it is not positive
    (ShapingConfig, "epsilon0", ((0.0,), (-MAX,), (MAX,)),
     ((NAN,), (INF,), (-INF,), (0.01,))),
    (ShapingConfig, "budgets", *entries(POSITIVE)),
    (ShapingConfig, "epsilon_cap", *NON_NEGATIVE),
    (ShapingConfig, "q_step_size", *FINITE_POSITIVE),
    (ShapingConfig, "max_steps", *at_least(1)),
    (ShapingConfig, "episodes", *at_least(1)),
    (ShapingConfig, "warmup", *at_least(0)),
    (ShapingConfig, "shaping_episodes", (0, None), (-1,)),
    (ShapingConfig, "delta_mode", ("primary", "per_secondary"),
     ("Primary", "")),
    (ShapingConfig, "backend", ("tabular", "mlp"), ("MLP", "")),
    (ShapingConfig, "hidden", ((1,), (1, 1), ()), ((0,), (1, 0))),
    (BobConfig, "bag_size", *at_least(1)),
    (BobConfig, "rounds", *at_least(0)),
    (BobConfig, "max_depth", *at_least(0)),
    (BobConfig, "min_samples_leaf", *at_least(0)),
    (BobConfig, "min_samples", *at_least(0)),
    (BobConfig, "shrinkage", *FINITE_POSITIVE),
    (LayerTemplate, "block_kind", BLOCK_KINDS, ("Conv", "transformer", "")),
    (LayerTemplate, "kernel_size", *at_least(1)),
    (LayerTemplate, "stride", *at_least(1)),
    (LayerTemplate, "padding", *at_least(0)),
    (LayerTemplate, "channels", *at_least(0)),
    (LayerTemplate, "expansion_ratio", *POSITIVE),
    (ContextSpec, "cores", *at_least(0)),
    (ContextSpec, "compute_units", *at_least(0)),
    (ContextSpec, "memory_mb", *NON_NEGATIVE),
    (ContextSpec, "clock_freq_mhz", *NON_NEGATIVE),
    (ContextSpec, "memory_bandwidth", *NON_NEGATIVE),
    (ContextSpec, "processor_kind", PROCESSOR_KINDS, ("GPU", "")),
    (ContextSpec, "task", *entries(FINITE)),
    (SyntheticTaskSpec, "base_utility", *entries(FINITE)),
    (SyntheticTaskSpec, "diminishing", *FINITE),
    (SyntheticTaskSpec, "noise_sigma", *FINITE_NON_NEGATIVE),
    (SyntheticTaskSpec, "accuracy_cap", *POSITIVE),
    (SyntheticTaskSpec, "min_depth", *at_least(0)),
    (SyntheticTaskSpec, "seed", *at_least(0)),
    (SyntheticTaskSpec, "interaction_bonus",
     (((0, 1, MAX),), ((0, 1, -MAX),)),
     (((0, 1, NAN),), ((0, 1, INF),), ((0, 1, -INF),))),
    *((SynthStatsModel, "latency_coeffs",
       *((tuple((0.5, 0.02, 0.05, 0.001)[:i] + (v,)
                + (0.5, 0.02, 0.05, 0.001)[i + 1:] for v in values))
         for values in FINITE_NON_NEGATIVE)) for i in range(4)),
    *((SynthStatsModel, "memory_coeffs",
       *((tuple((0.1, 0.004)[:i] + (v,) + (0.1, 0.004)[i + 1:]
                for v in values)) for values in FINITE_NON_NEGATIVE))
      for i in range(2)),
    (SynthStatsModel, "context_multipliers", *entries(FINITE_POSITIVE)),
]


def test_table_covers_every_field():
    # a field that is not a bool needs its rows in the table
    covered = {(cls, field) for cls, field, *_ in BOUNDARIES}
    for cls in SECTIONS:
        for field in dataclasses.fields(cls):
            if typing.get_type_hints(cls)[field.name] is not bool:
                assert (cls, field.name) in covered, (cls, field.name)


def as_yaml(value):
    """``value`` as the config reader gets it: tuples are lists."""
    return list(map(as_yaml, value)) if isinstance(value, tuple) else value


def constructor_accepts(cls, kwargs) -> bool:
    try:
        cls(**kwargs)
    except ValueError:
        return False
    return True


def config_accepts(build, *args) -> bool:
    try:
        build(*args)
    except ConfigError:
        return False
    return True


@pytest.mark.parametrize(
    "cls, field, accepted, rejected", BOUNDARIES,
    ids=[f"{cls.__name__}.{field}" for cls, field, *_ in BOUNDARIES])
def test_boundary_table(cls, field, accepted, rejected):
    section, required = SECTIONS[cls]
    for value in accepted + rejected:
        kwargs = dict(required, **{field: value})
        expected = value in accepted
        assert constructor_accepts(cls, kwargs) == expected, (field, value)
        mapping = {key: as_yaml(v) for key, v in kwargs.items()}
        assert config_accepts(build_section, cls, mapping, section) \
            == expected, (field, value)


def test_catalog_boundaries():
    actions = (LayerTemplate("conv", 3, 1, 1, channels=8),)
    assert ActionCatalog(actions, max_depth=1).max_depth == 1
    with pytest.raises(ValueError):
        ActionCatalog(actions, max_depth=0)
    for depth, expected in ((1, True), (0, False)):
        doc = {"catalog": {"max_depth": depth,
                           "actions": [{"block_kind": "conv"}]}}
        assert config_accepts(build_catalog, doc) == expected


CONTEXT = {"cores": 1, "compute_units": 1, "memory_mb": 1.0,
           "clock_freq_mhz": 1.0, "memory_bandwidth": 1.0}


@pytest.mark.parametrize("key, accepted, rejected", [
    ("test_fraction", (above(0.0), below(1.0)),
     (0.0, 1.0, below(0.0), above(1.0), NAN, INF, -INF)),
    ("oversample_factor", (1.0, MAX), (below(1.0), NAN, INF, -INF)),
])
def test_predictor_key_boundaries(key, accepted, rejected):
    for value in accepted + rejected:
        doc = {"predictor": {"stats_path": "never_read.csv", key: value}}
        assert config_accepts(build_predictor_cfg, doc) \
            == (value in accepted), value


def test_count_and_input_shape_boundaries():
    for count, expected in ((1, True), (0, False)):
        doc = {"contexts": [CONTEXT], "synth_stats": {"count": count}}
        assert config_accepts(build_synth_corpus, doc) == expected
    for shape, expected in (([1, 1, 1], True), ([0, 1, 1], False),
                            ([1, 0, 1], False), ([1, 1, 0], False)):
        doc = {"input_shape": shape}
        assert config_accepts(build_input_shape, doc) == expected


def test_build_section_checks_each_field_once(monkeypatch):
    # the class checks each value; the reader only names the key
    calls = []
    walk = rules.broken
    monkeypatch.setattr(rules, "broken",
                        lambda value, hint: calls.append(hint)
                        or walk(value, hint))
    for cls, (section, required) in SECTIONS.items():
        fields = dataclasses.fields(cls)
        obj = cls(**required)
        calls.clear()
        build_section(cls, {f.name: as_yaml(getattr(obj, f.name))
                            for f in fields}, section)
        assert len(calls) == len(fields), cls


@pytest.mark.parametrize("value, hint, rule", [
    ((1, 2), tuple[int, str], "must be a list of an integer and a string"),
    ((1,), tuple[int, int, int], "must be a list of 3 integers"),
    ([[1, "a"]], tuple[tuple[int, float], ...],
     "must be a list of lists of an integer and a number"),
    ([[1, 2, 3]], tuple[tuple[int, ...], ...], None),
    ([[1, NAN]], tuple[tuple[int, typing.Annotated[float, rules.FINITE]],
                       ...], "entries must be in (-inf, inf)"),
], ids=["mixed", "repeated", "nested_mixed", "nested_ok", "nested_rule"])
def test_fixed_and_nested_tuples_named_once(value, hint, rule):
    assert rules.broken(value, hint) == rule
