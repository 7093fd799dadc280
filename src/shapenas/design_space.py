"""Chain-structured architecture design space.

The search state is a growing sequence of parameterized neural blocks plus
a fixed hardware/task context. Networks are append-only chains; every layer
records its resolved output shape so that shape propagation can be checked
cheaply and feature rows derived without tensor math.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Annotated

import numpy as np

from .rules import FINITE, POSITIVE, OneOf, Range, check_fields

# Categorical levels, sorted lexicographically; one-hot columns follow this order.
BLOCK_KINDS = ("conv", "dense", "dwconv", "pool", "skip")
PROCESSOR_KINDS = ("cpu", "dsp", "gpu", "npu")

# The numeric feature columns of a layer row, in row order: feature name ->
# stats-CSV column. Every encoder, reader and writer of rows follows these.
ARCH_NUMERIC = {
    "kernel_size": "Kernel Size", "stride": "Stride", "padding": "Padding",
    "expansion_ratio": "Expansion Ratio", "id_skip": "Idskip",
    "channels": "Channels", "height": "Height", "width": "Width",
    "input_volume": "Input Volume", "output_volume": "Output Volume",
}
# named after the ContextSpec fields they read
CONTEXT_NUMERIC = {
    "cores": "Cores", "compute_units": "Compute Units", "memory_mb": "Memory",
    "clock_freq_mhz": "Clock Freq.", "memory_bandwidth": "Memory B/w",
}


class ShapeError(ValueError):
    """A network or layer violates shape propagation."""

    def __init__(self, message, layer_index=None):
        super().__init__(message)
        self.layer_index = layer_index


class IllegalActionError(ValueError):
    """An action was applied outside its legal set."""


@dataclass(frozen=True)
class LayerTemplate:
    """An unresolved block choice from the action catalog.

    ``channels`` is the output channel count; 0 means "keep input channels"
    (the only option for pool/skip blocks).
    """

    block_kind: Annotated[str, OneOf(BLOCK_KINDS)]
    kernel_size: Annotated[int, Range(1)] = 1
    stride: Annotated[int, Range(1)] = 1
    padding: Annotated[int, Range(0)] = 0
    expansion_ratio: Annotated[float, POSITIVE] = 1.0
    id_skip: bool = False
    channels: Annotated[int, Range(0)] = 0

    __post_init__ = check_fields


@dataclass(frozen=True)
class ArchLayerSpec:
    """A resolved layer: template parameters plus its output shape."""

    block_kind: str
    kernel_size: int
    stride: int
    padding: int
    expansion_ratio: float
    id_skip: bool
    channels: int  # output channels
    height: int  # output height
    width: int  # output width

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)


@dataclass(frozen=True)
class CandidateNetwork:
    """An append-only chain of resolved layers."""

    input_shape: tuple[int, int, int]  # (channels, height, width)
    layers: tuple[ArchLayerSpec, ...] = ()

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def output_shape(self) -> tuple[int, int, int]:
        return self.layers[-1].output_shape if self.layers else self.input_shape

    def layer_inputs(self):
        """(input shape, layer) pairs in chain order."""
        shape = self.input_shape
        for layer in self.layers:
            yield shape, layer
            shape = layer.output_shape


@dataclass(frozen=True)
class ActionCatalog:
    actions: tuple[LayerTemplate, ...]
    max_depth: Annotated[int, Range(1)]
    # output shape -> {action index: resolved layer} for the actions that
    # fit it; filled on first sight and never evicted, since a catalog
    # reaches finitely many shapes. Not part of ==, hash or repr.
    _fitting: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def __post_init__(self):
        if not self.actions:
            raise ValueError("catalog must contain at least one action")
        check_fields(self)

    def fitting(self, shape: tuple[int, int, int]) -> dict:
        """{action index: resolved layer}, in index order, of the actions
        whose template fits an input of ``shape``. The dict is the memo's
        own: read it, do not change it."""
        layers = self._fitting.get(shape)
        if layers is None:
            layers = self._fitting[shape] = {}
            for i, template in enumerate(self.actions):
                try:
                    layers[i] = instantiate(template, shape)
                except ShapeError:
                    pass
        return layers


@dataclass(frozen=True)
class ContextSpec:
    """Hardware + task feature tuple conditioning behavior predictions."""

    cores: Annotated[int, Range(0)]
    compute_units: Annotated[int, Range(0)]
    memory_mb: Annotated[float, Range(0, ends="[)")]
    clock_freq_mhz: Annotated[float, Range(0, ends="[)")]
    memory_bandwidth: Annotated[float, Range(0, ends="[)")]
    processor_kind: Annotated[str, OneOf(PROCESSOR_KINDS)] = "cpu"
    task: tuple[Annotated[float, FINITE], ...] = ()

    __post_init__ = check_fields


def one_hot(value: str, levels: tuple[str, ...], what: str) -> list[float]:
    """Indicator vector over ``levels``; any other value raises ValueError."""
    if value not in levels:
        raise ValueError(f"unknown {what} {value!r}; expected one of "
                         f"{', '.join(levels)}")
    vec = [0.0] * len(levels)
    vec[levels.index(value)] = 1.0
    return vec


def instantiate(template: LayerTemplate,
                in_shape: tuple[int, int, int]) -> ArchLayerSpec:
    """Resolve a template against an input shape, or raise ShapeError."""
    c, h, w = in_shape
    kind = template.block_kind
    if kind == "dense":
        channels = template.channels if template.channels > 0 else c
        return ArchLayerSpec(kind, 1, 1, 0, template.expansion_ratio,
                             template.id_skip, channels, 1, 1)
    if kind == "skip":
        return ArchLayerSpec(kind, 1, 1, 0, template.expansion_ratio,
                             template.id_skip, c, h, w)
    # conv / dwconv / pool share the spatial arithmetic
    k, s, p = template.kernel_size, template.stride, template.padding
    if k > min(h + 2 * p, w + 2 * p):
        raise ShapeError(
            f"kernel {k} exceeds padded input {h + 2 * p}x{w + 2 * p}")
    out_h = (h + 2 * p - k) // s + 1
    out_w = (w + 2 * p - k) // s + 1
    if kind == "pool":
        channels = c
    else:
        channels = template.channels if template.channels > 0 else c
    if channels < 1:
        raise ShapeError("output channels must be positive")
    return ArchLayerSpec(kind, k, s, p, template.expansion_ratio,
                         template.id_skip, channels, out_h, out_w)


def validate_network(net: CandidateNetwork) -> None:
    """Check shape propagation layer by layer; raise ShapeError on mismatch."""
    for i, (shape, layer) in enumerate(net.layer_inputs()):
        template = LayerTemplate(layer.block_kind, layer.kernel_size,
                                 layer.stride, layer.padding,
                                 layer.expansion_ratio, layer.id_skip,
                                 layer.channels)
        try:
            expected = instantiate(template, shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {i}: {exc}", layer_index=i) from exc
        got, want = layer.output_shape, expected.output_shape
        if got != want:
            raise ShapeError(
                f"layer {i}: recorded output shape {got} != propagated {want}",
                layer_index=i)


def legal_actions(net: CandidateNetwork, catalog: ActionCatalog) -> list[int]:
    """Indices of catalog templates that keep the chain shape-valid, in
    ascending order.

    Empty list signals a terminal state (depth cap or no fitting block).
    """
    if net.depth >= catalog.max_depth:
        return []
    return list(catalog.fitting(net.output_shape))


def grow(net: CandidateNetwork, catalog: ActionCatalog,
         action: int) -> CandidateNetwork:
    """Append catalog action ``action``, resolved once per output shape by
    the catalog; raises IllegalActionError if it does not fit."""
    layer = catalog.fitting(net.output_shape).get(action)
    if layer is None:
        raise IllegalActionError(f"catalog action {action} does not fit "
                                 f"the output shape {net.output_shape}")
    return CandidateNetwork(net.input_shape, net.layers + (layer,))


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------

def arch_columns() -> list[str]:
    return [f"type={k}" for k in BLOCK_KINDS] + list(ARCH_NUMERIC)


def feature_columns(task_arity: int) -> list[str]:
    """Column schema of parse_network; fixed given the context arity."""
    return (arch_columns() + list(CONTEXT_NUMERIC)
            + [f"processor={k}" for k in PROCESSOR_KINDS]
            + [f"task_{i}" for i in range(task_arity)])


_context_values = attrgetter(*CONTEXT_NUMERIC)


def encode_context(ctx: ContextSpec) -> list[float]:
    vec = list(map(float, _context_values(ctx)))
    vec += one_hot(ctx.processor_kind, PROCESSOR_KINDS, "processor")
    vec += [float(v) for v in ctx.task]
    return vec


def layer_values(layer: ArchLayerSpec, in_shape: tuple[int, int, int]) -> list:
    """The layer's ``ARCH_NUMERIC`` values, raw as the stats CSV holds them
    (``id_skip`` as 0/1)."""
    return [layer.kernel_size, layer.stride, layer.padding,
            layer.expansion_ratio, int(layer.id_skip), layer.channels,
            layer.height, layer.width, math.prod(in_shape),
            math.prod(layer.output_shape)]


def encode_layer(layer: ArchLayerSpec, in_shape: tuple[int, int, int]) -> list[float]:
    return one_hot(layer.block_kind, BLOCK_KINDS, "block") + list(
        map(float, layer_values(layer, in_shape)))


def parse_network(net: CandidateNetwork, ctx: ContextSpec) -> np.ndarray:
    """One feature row per layer: arch features ++ context features.

    The column order is ``feature_columns(len(ctx.task))`` for every network
    in an experiment; an empty network yields a zero-row matrix with the full
    column count.
    """
    validate_network(net)
    ctx_vec = encode_context(ctx)
    rows = [encode_layer(layer, shape) + ctx_vec
            for shape, layer in net.layer_inputs()]
    n_cols = len(feature_columns(len(ctx.task)))
    if not rows:
        return np.zeros((0, n_cols))
    return np.asarray(rows, dtype=float)


def embed_state(net: CandidateNetwork, ctx: ContextSpec) -> np.ndarray:
    """Fixed-length controller state: last-layer features ++ aggregates ++ context.

    The per-layer feature matrix is variable-length and unusable by a
    fixed-arity approximator, so the canonical state embedding summarizes the
    chain by its newest layer, its depth and its cumulative output volume.
    """
    ctx_vec = encode_context(ctx)
    if not net.layers:
        return np.asarray([0.0] * len(arch_columns()) + [0.0, 0.0] + ctx_vec)
    in_shape = net.layers[-2].output_shape if net.depth > 1 else net.input_shape
    cum_volume = float(sum(math.prod(l.output_shape) for l in net.layers))
    return np.asarray(encode_layer(net.layers[-1], in_shape)
                      + [float(net.depth), cum_volume] + ctx_vec)
