"""Declarative experiment configuration (YAML, versioned by schema_version)."""
from __future__ import annotations

import dataclasses
import functools
import math
import re
import typing

import yaml

from .controller import SearchSpace, ShapingConfig
from .bob import BobConfig
from .design_space import (ActionCatalog, ContextSpec, LayerTemplate,
                           legal_actions)
from .oracle import SyntheticOracle, SyntheticTaskSpec, SynthStatsModel, TabularOracle

CONFIG_SCHEMA_VERSION = 1
_NUMBER_TYPES = (int, float, int | None)
TOP_LEVEL_KEYS = frozenset((
    "schema_version", "input_shape", "catalog", "context", "contexts",
    "oracle", "shaping", "secondary", "scalarized_weights", "reference_chain",
    "predictor", "synth_stats", "synth_stats_model"))


class ConfigError(ValueError):
    pass


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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number_list(value, key: str) -> tuple:
    """``value`` as a tuple of numbers; anything but a list of numbers
    raises a ConfigError naming ``key``."""
    if not isinstance(value, list) or not all(map(_is_number, value)):
        raise ConfigError(f"config key {key!r} must be a list of numbers, "
                          f"got {value!r}")
    return tuple(value)


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


@functools.cache
def _type_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def build_section(cls, mapping, section: str, other_keys=()):
    """Build the dataclass ``cls`` from the config mapping at ``section``.

    Lists become tuples. Keys in ``other_keys`` belong to the section but
    not to ``cls`` and are skipped. An unknown key, a missing required key
    and a string where ``cls`` takes a number (PyYAML reads ``1.0e9``, with
    no sign after the ``e``, as a string) raise ConfigError naming the key.
    So does a ValueError from ``cls``'s own checks, which names the first
    field its message mentions (or the section, if it mentions none).
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    check_keys(mapping, section, fields.keys() | set(other_keys))
    hints = _type_hints(cls)
    kwargs = {}
    for key, value in mapping.items():
        if key in other_keys:
            continue
        if isinstance(value, str) and hints[key] in _NUMBER_TYPES:
            raise ConfigError(f"config key '{section}.{key}' must be a "
                              f"number, got the string {value!r}")
        kwargs[key] = _tuples(value)
    for name, f in fields.items():
        if name not in kwargs and f.default is dataclasses.MISSING \
                and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required config key "
                              f"'{section}.{name}'")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        key = next((word for word in re.findall(r"\w+", str(exc))
                    if word in fields), None)
        where = f"key '{section}.{key}'" if key else f"section '{section}'"
        raise ConfigError(f"config {where}: {exc}") from exc


def build_catalog(doc: dict) -> ActionCatalog:
    cat = require(doc, "catalog")
    check_keys(cat, "catalog", ("actions", "max_depth"))
    actions = require(cat, "actions", "catalog")
    if not isinstance(actions, list) or not actions:
        raise ConfigError(f"config key 'catalog.actions' must be a non-empty "
                          f"list, got {actions!r}")
    max_depth = require(cat, "max_depth", "catalog")
    if type(max_depth) is not int or max_depth < 1:
        raise ConfigError(f"config key 'catalog.max_depth' must be an "
                          f"integer of at least 1, got {max_depth!r}")
    return ActionCatalog(
        tuple(build_section(LayerTemplate, a, f"catalog.actions[{i}]")
              for i, a in enumerate(actions)), max_depth=max_depth)


def build_context(doc: dict) -> ContextSpec:
    return build_section(ContextSpec, require(doc, "context"), "context")


def build_contexts(doc: dict) -> list[ContextSpec]:
    return [build_section(ContextSpec, c, f"contexts[{i}]")
            for i, c in enumerate(require(doc, "contexts"))]


def build_input_shape(doc: dict) -> tuple[int, int, int]:
    """The network input's (channels, height, width)."""
    shape = doc.get("input_shape", [3, 16, 16])
    if not (isinstance(shape, list) and len(shape) == 3
            and all(type(v) is int and v >= 1 for v in shape)):
        raise ConfigError(f"config key 'input_shape' must be three positive "
                          f"integers (channels, height, width), got {shape!r}")
    return tuple(shape)


def build_space(doc: dict) -> SearchSpace:
    space = SearchSpace(build_catalog(doc), build_context(doc),
                        build_input_shape(doc))
    if not legal_actions(space.empty_network(), space.catalog):
        raise ConfigError(f"input_shape {list(space.input_shape)}: no "
                          f"catalog action fits the empty network")
    return space


def build_shaping(doc: dict) -> ShapingConfig:
    return build_section(ShapingConfig, require(doc, "shaping"), "shaping")


def build_predictor_cfg(doc: dict) -> BobConfig:
    """The predictor section's ``BobConfig``; also checks the section's
    ``test_fraction`` and ``oversample_factor``, which the caller reads."""
    section = doc.get("predictor", {})
    cfg = build_section(BobConfig, section, "predictor",
                        other_keys=("stats_path", "test_fraction",
                                    "oversample_factor"))
    fraction = section.get("test_fraction", 0.25)
    if not _is_number(fraction) or not 0 < fraction < 1:
        raise ConfigError(f"config key 'predictor.test_fraction' must be "
                          f"between 0 and 1 (exclusive), got {fraction!r}")
    factor = section.get("oversample_factor", 1.0)
    if not (_is_number(factor) and math.isfinite(factor)):
        raise ConfigError(f"config key 'predictor.oversample_factor' must "
                          f"be a finite number, got {factor!r}")
    return cfg


def build_oracle(doc: dict, catalog: ActionCatalog):
    """The configured accuracy oracle. A synthetic one must give one base
    utility per catalog action, and its interaction bonuses must name
    catalog actions."""
    spec = require(doc, "oracle")
    kind = require(spec, "kind", "oracle")
    if kind == "synthetic":
        task = build_section(SyntheticTaskSpec, spec, "oracle",
                             other_keys=("kind",))
        _check_synthetic(spec, len(catalog.actions))
        return SyntheticOracle(task)
    if kind == "tabular":  # the synthetic oracle's keys are ignored
        check_keys(spec, "oracle", {"kind", "path"}
                   | {f.name for f in dataclasses.fields(SyntheticTaskSpec)})
        return TabularOracle(require(spec, "path", "oracle"))
    raise ConfigError(f"unknown oracle kind {kind!r}")


def _check_synthetic(spec: dict, n: int) -> None:
    utility = number_list(spec["base_utility"], "oracle.base_utility")
    if len(utility) != n:
        raise ConfigError(f"config key 'oracle.base_utility' has "
                          f"{len(utility)} entries, but the catalog has {n} "
                          f"actions")
    bonus = spec.get("interaction_bonus", [])
    if not isinstance(bonus, list):
        raise ConfigError(f"config key 'oracle.interaction_bonus' must be a "
                          f"list of [previous action, action, bonus], got "
                          f"{bonus!r}")
    for entry in bonus:
        if not (isinstance(entry, list) and len(entry) == 3
                and all(type(a) is int and 0 <= a < n for a in entry[:2])
                and _is_number(entry[2])):
            raise ConfigError(
                f"config key 'oracle.interaction_bonus': entry {entry!r} is "
                f"not [previous action, action, bonus] with actions of the "
                f"catalog's {n} (0 to {n - 1})")


def build_synth_stats_model(doc: dict) -> SynthStatsModel:
    return build_section(SynthStatsModel, doc.get("synth_stats_model", {}),
                         "synth_stats_model")
