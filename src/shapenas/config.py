"""Declarative experiment configuration (YAML, versioned by schema_version)."""
from __future__ import annotations

import dataclasses
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


def load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
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


def require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required config key {key!r}")
    return doc[key]


def check_keys(mapping, section: str, known) -> None:
    """Raise ConfigError unless ``mapping`` is a mapping whose keys are all
    in ``known``."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    for key in mapping:
        if key not in known:
            raise ConfigError(f"unknown config key '{section}.{key}'")


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def build_section(cls, mapping, section: str, other_keys=()):
    """Build the dataclass ``cls`` from the config mapping at ``section``.

    Lists become tuples. Keys in ``other_keys`` belong to the section but
    not to ``cls`` and are skipped. An unknown key, a missing required key
    and a string where ``cls`` takes a number (PyYAML reads ``1.0e9``, with
    no sign after the ``e``, as a string) raise ConfigError naming the key.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    check_keys(mapping, section, fields.keys() | set(other_keys))
    hints = typing.get_type_hints(cls)
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
    return cls(**kwargs)


def build_catalog(doc: dict) -> ActionCatalog:
    cat = require(doc, "catalog")
    check_keys(cat, "catalog", ("actions", "max_depth"))
    actions = tuple(build_section(LayerTemplate, a, f"catalog.actions[{i}]")
                    for i, a in enumerate(require(cat, "actions")))
    return ActionCatalog(actions, max_depth=require(cat, "max_depth"))


def build_context(doc: dict) -> ContextSpec:
    return build_section(ContextSpec, require(doc, "context"), "context")


def build_contexts(doc: dict) -> list[ContextSpec]:
    return [build_section(ContextSpec, c, f"contexts[{i}]")
            for i, c in enumerate(require(doc, "contexts"))]


def build_space(doc: dict) -> SearchSpace:
    space = SearchSpace(build_catalog(doc), build_context(doc),
                        tuple(doc.get("input_shape", (3, 16, 16))))
    if not legal_actions(space.empty_network(), space.catalog):
        raise ConfigError(f"input_shape {list(space.input_shape)}: no "
                          f"catalog action fits the empty network")
    return space


def build_shaping(doc: dict) -> ShapingConfig:
    return build_section(ShapingConfig, require(doc, "shaping"), "shaping")


def build_predictor_cfg(doc: dict) -> BobConfig:
    return build_section(BobConfig, doc.get("predictor", {}), "predictor",
                         other_keys=("stats_path", "test_fraction",
                                     "oversample_factor"))


def build_oracle(doc: dict):
    spec = require(doc, "oracle")
    kind = require(spec, "kind")
    if kind == "synthetic":
        return SyntheticOracle(build_section(SyntheticTaskSpec, spec,
                                             "oracle", other_keys=("kind",)))
    if kind == "tabular":  # the synthetic oracle's keys are ignored
        check_keys(spec, "oracle", {"kind", "path"}
                   | {f.name for f in dataclasses.fields(SyntheticTaskSpec)})
        return TabularOracle(require(spec, "path"))
    raise ConfigError(f"unknown oracle kind {kind!r}")


def build_synth_stats_model(doc: dict) -> SynthStatsModel:
    return build_section(SynthStatsModel, doc.get("synth_stats_model", {}),
                         "synth_stats_model")
