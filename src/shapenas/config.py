"""Declarative experiment configuration (YAML, versioned by schema_version)."""
from __future__ import annotations

import dataclasses
from typing import Annotated

import yaml

from . import rules
from .controller import SearchSpace, ShapingConfig
from .bob import BobConfig
from .design_space import (ActionCatalog, ContextSpec, LayerTemplate,
                           legal_actions)
from .oracle import SyntheticOracle, SyntheticTaskSpec, SynthStatsModel, TabularOracle

CONFIG_SCHEMA_VERSION = 1
TOP_LEVEL_KEYS = frozenset((
    "schema_version", "input_shape", "catalog", "context", "contexts",
    "oracle", "shaping", "secondary", "scalarized_weights", "predictor",
    "synth_stats", "synth_stats_model"))


class ConfigError(ValueError):
    pass


_COUNT = Annotated[int, rules.Range(1)]  # a row count or a tensor size


# libyaml's parser when PyYAML was built with it; both loaders share one
# constructor and resolver, so they build the same documents
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    version = doc.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"{path}: schema_version {version!r}, this build "
                          f"reads {CONFIG_SCHEMA_VERSION}")
    for key in doc:
        if key not in TOP_LEVEL_KEYS:
            raise ConfigError(f"{path}: unknown config key {key!r}")
    return doc


def require(doc: dict, key: str, section: str = ""):
    """``doc[key]``; a missing key raises a ConfigError naming
    ``section.key`` (or just ``key`` at the top level)."""
    if section and not isinstance(doc, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    if key not in doc:
        name = f"{section}.{key}" if section else key
        raise ConfigError(f"missing required config key {name!r}")
    return doc[key]


def check_keys(mapping, section: str, known) -> None:
    """Raise ConfigError unless ``mapping`` is a mapping whose keys are all
    in ``known``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown config key '{section}.{key}'")


def check(value, hint, key: str):
    """``value``, which must keep the rule of the annotation ``hint``; else
    a ConfigError naming ``key``. For the keys no dataclass field holds."""
    return _named(rules.check, {}, "", value, hint, key)


def path_key(section_doc, key: str, section: str) -> str:
    """The file path at ``section.key``, which must be a non-empty string:
    ``open`` would read an int as a file descriptor."""
    path = require(section_doc, key, section)
    if not isinstance(path, str) or not path:
        raise ConfigError(f"config key '{section}.{key}' must be a non-empty "
                          f"path string, got {path!r}")
    return path


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _named(make, mapping, prefix: str, *args, **kwargs):
    """``make(*args, **kwargs)``, whose FieldError becomes a ConfigError
    naming the key ``<prefix><field>`` and the value ``mapping`` holds
    there, or the field's own if the config leaves it at its default."""
    try:
        return make(*args, **kwargs)
    except rules.FieldError as exc:
        value = mapping.get(exc.name, exc.value)
        raise ConfigError(f"config key '{prefix}{exc.name}' {exc.rule}, "
                          f"got {value!r}") from exc


def build_section(cls, mapping, section: str, other_keys=()):
    """Build the dataclass ``cls`` from the config mapping at ``section``,
    lists as tuples, skipping the section's ``other_keys``. An unknown or
    missing required key raises a ConfigError naming it; ``cls`` checks
    each value and relates the fields, and ``_named`` names the key."""
    fields = dataclasses.fields(cls)
    check_keys(mapping, section, {f.name for f in fields} | set(other_keys))
    for f in fields:
        if f.name not in mapping and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required config key "
                              f"'{section}.{f.name}'")
    return _named(cls, mapping, f"{section}.", **{
        key: _tuples(value) for key, value in mapping.items()
        if key not in other_keys})


def build_catalog(doc: dict) -> ActionCatalog:
    cat = require(doc, "catalog")
    check_keys(cat, "catalog", ("actions", "max_depth"))
    actions = require(cat, "actions", "catalog")
    if not isinstance(actions, list) or not actions:
        raise ConfigError(f"config key 'catalog.actions' must be a non-empty "
                          f"list, got {actions!r}")
    max_depth = require(cat, "max_depth", "catalog")
    return _named(ActionCatalog, cat, "catalog.", tuple(
        build_section(LayerTemplate, a, f"catalog.actions[{i}]")
        for i, a in enumerate(actions)), max_depth=max_depth)


def build_context(doc: dict) -> ContextSpec:
    return build_section(ContextSpec, require(doc, "context"), "context")


def build_contexts(doc: dict) -> list[ContextSpec]:
    """The ``contexts`` list: at least one context, all with the same
    number of task values, since the rows of all contexts share columns."""
    specs = require(doc, "contexts")
    if not isinstance(specs, list) or not specs:
        raise ConfigError(f"config key 'contexts' must be a non-empty list, "
                          f"got {specs!r}")
    contexts = [build_section(ContextSpec, c, f"contexts[{i}]")
                for i, c in enumerate(specs)]
    for i, ctx in enumerate(contexts):
        if len(ctx.task) != len(contexts[0].task):
            raise ConfigError(
                f"config key 'contexts[{i}].task' has {len(ctx.task)} values, "
                f"but 'contexts[0].task' has {len(contexts[0].task)}: every "
                f"context needs the same number")
    return contexts


def build_input_shape(doc: dict) -> tuple[int, int, int]:
    """The network input's (channels, height, width)."""
    return tuple(check(doc.get("input_shape", [3, 16, 16]),
                       tuple[_COUNT, _COUNT, _COUNT], "input_shape"))


def build_space(doc: dict) -> SearchSpace:
    space = SearchSpace(build_catalog(doc), build_context(doc),
                        build_input_shape(doc))
    if not legal_actions(space.empty_network(), space.catalog):
        raise ConfigError(f"input_shape {list(space.input_shape)}: no "
                          f"catalog action fits the empty network")
    return space


def build_shaping(doc: dict) -> ShapingConfig:
    return build_section(ShapingConfig, require(doc, "shaping"), "shaping")


def build_predictor_cfg(doc: dict) -> tuple[BobConfig, str, float, float]:
    """The predictor section as ``(bob_cfg, stats_path, test_fraction,
    oversample_factor)``, with the defaults 0.25 and 1.0 (no
    oversampling)."""
    section = doc.get("predictor", {})
    cfg = build_section(BobConfig, section, "predictor",
                        other_keys=("stats_path", "test_fraction",
                                    "oversample_factor"))
    stats_path = path_key(section, "stats_path", "predictor")
    fraction = check(section.get("test_fraction", 0.25),
                     Annotated[float, rules.Range(0, 1, "()")],
                     "predictor.test_fraction")
    factor = check(section.get("oversample_factor", 1.0),
                   Annotated[float, rules.Range(1, ends="[)")],
                   "predictor.oversample_factor")
    return cfg, stats_path, fraction, factor


def build_oracle(doc: dict, catalog: ActionCatalog):
    """The configured accuracy oracle. A synthetic one must give one base
    utility per catalog action, and its interaction bonuses must name
    catalog actions."""
    spec = require(doc, "oracle")
    kinds = Annotated[str, rules.OneOf(("synthetic", "tabular"))]
    if check(require(spec, "kind", "oracle"), kinds,
             "oracle.kind") == "synthetic":
        n = len(catalog.actions)
        task = build_section(SyntheticTaskSpec, spec, "oracle",
                             other_keys=("kind",))
        # the spec has checked each entry's type; name an entry as the
        # config file wrote it
        for entry in spec.get("interaction_bonus", []):
            if not all(0 <= a < n for a in entry[:2]):
                raise ConfigError(
                    f"config key 'oracle.interaction_bonus': entry "
                    f"{entry!r} is not [previous action, action, bonus] "
                    f"with actions of the catalog's {n} (0 to {n - 1})")
        if len(task.base_utility) != n:
            raise ConfigError(f"config key 'oracle.base_utility' has "
                              f"{len(task.base_utility)} entries, but the "
                              f"catalog has {n} actions")
        return SyntheticOracle(task)
    # a tabular oracle ignores the synthetic oracle's keys
    check_keys(spec, "oracle", {"kind", "path"}
               | {f.name for f in dataclasses.fields(SyntheticTaskSpec)})
    return TabularOracle(path_key(spec, "path", "oracle"))


def build_synth_corpus(doc: dict
                       ) -> tuple[list[ContextSpec], SynthStatsModel, int]:
    """gen-synth's ``(contexts, ground-truth model, row count)``: one
    context multiplier per context, and ``synth_stats.count`` an integer of
    at least 1 (default 1000)."""
    contexts = build_contexts(doc)
    model = build_section(SynthStatsModel, doc.get("synth_stats_model", {}),
                          "synth_stats_model")
    key = "synth_stats_model.context_multipliers"
    multipliers = model.context_multipliers
    if len(multipliers) != len(contexts):
        raise ConfigError(f"config key '{key}' has {len(multipliers)} "
                          f"entries, but there are {len(contexts)} contexts")
    synth_stats = doc.get("synth_stats", {})
    check_keys(synth_stats, "synth_stats", ("count",))
    count = check(synth_stats.get("count", 1000), _COUNT, "synth_stats.count")
    return contexts, model, count
