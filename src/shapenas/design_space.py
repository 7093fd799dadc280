"""Chain-structured architecture design space.

The search state is a growing sequence of parameterized neural blocks plus
a fixed hardware/task context. Networks are append-only chains; every layer
records its resolved output shape so that shape propagation can be checked
cheaply and feature rows derived without tensor math.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

log = logging.getLogger(__name__)

# Categorical levels, sorted lexicographically; one-hot columns follow this order.
BLOCK_KINDS = ("conv", "dense", "dwconv", "pool", "skip")
PROCESSOR_KINDS = ("cpu", "dsp", "gpu", "npu")


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

    block_kind: str
    kernel_size: int = 1
    stride: int = 1
    padding: int = 0
    expansion_ratio: float = 1.0
    id_skip: bool = False
    channels: int = 0

    def __post_init__(self):
        if self.block_kind not in BLOCK_KINDS:
            raise ValueError(f"unknown block kind {self.block_kind!r}")
        if self.kernel_size < 1 or self.stride < 1 or self.padding < 0:
            raise ValueError("kernel_size/stride must be >= 1, padding >= 0")
        if self.expansion_ratio <= 0:
            raise ValueError("expansion_ratio must be positive")
        if self.channels < 0:
            raise ValueError("channels must be non-negative")


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
        if not self.layers:
            return self.input_shape
        last = self.layers[-1]
        return (last.channels, last.height, last.width)


@dataclass(frozen=True)
class ActionCatalog:
    actions: tuple[LayerTemplate, ...]
    max_depth: int

    def __post_init__(self):
        if not self.actions:
            raise ValueError("catalog must contain at least one action")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class ContextSpec:
    """Hardware + task feature tuple conditioning behavior predictions."""

    cores: int
    compute_units: int
    memory_mb: float
    clock_freq_mhz: float
    memory_bandwidth: float
    processor_kind: str = "cpu"
    task: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("cores", "compute_units", "memory_mb", "clock_freq_mhz",
                     "memory_bandwidth"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def one_hot(value: str, levels: tuple[str, ...], what: str) -> list[float]:
    """Indicator vector over ``levels``; an unseen value encodes as zeros."""
    vec = [0.0] * len(levels)
    if value in levels:
        vec[levels.index(value)] = 1.0
    else:
        log.warning("unseen %s level %r encoded as all-zeros", what, value)
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
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"output spatial dims collapse to {out_h}x{out_w}")
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
    shape = net.input_shape
    for i, layer in enumerate(net.layers):
        template = LayerTemplate(layer.block_kind, layer.kernel_size,
                                 layer.stride, layer.padding,
                                 layer.expansion_ratio, layer.id_skip,
                                 layer.channels)
        try:
            expected = instantiate(template, shape)
        except ShapeError as exc:
            raise ShapeError(f"layer {i}: {exc}", layer_index=i) from exc
        got = (layer.channels, layer.height, layer.width)
        want = (expected.channels, expected.height, expected.width)
        if got != want:
            raise ShapeError(
                f"layer {i}: recorded output shape {got} != propagated {want}",
                layer_index=i)
        shape = got


def legal_actions(net: CandidateNetwork, catalog: ActionCatalog) -> list[int]:
    """Indices of catalog templates that keep the chain shape-valid.

    Empty list signals a terminal state (depth cap or no fitting block).
    """
    if net.depth >= catalog.max_depth:
        return []
    shape = net.output_shape
    out = []
    for i, template in enumerate(catalog.actions):
        try:
            instantiate(template, shape)
        except ShapeError:
            continue
        out.append(i)
    return out


def apply_action(net: CandidateNetwork,
                 action: LayerTemplate) -> CandidateNetwork:
    """Append one block; returns a new network, the input is untouched."""
    try:
        layer = instantiate(action, net.output_shape)
    except ShapeError as exc:
        raise IllegalActionError(str(exc)) from exc
    return replace(net, layers=net.layers + (layer,))


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------

ARCH_NUMERIC = ("kernel_size", "stride", "padding", "expansion_ratio",
                "id_skip", "channels", "height", "width", "input_volume",
                "output_volume")
CONTEXT_NUMERIC = ("cores", "compute_units", "memory_mb", "clock_freq_mhz",
                   "memory_bandwidth")


def arch_columns() -> list[str]:
    return [f"type={k}" for k in BLOCK_KINDS] + list(ARCH_NUMERIC)


def row_signature(row) -> tuple:
    """(arch features, context features) identity of one encoded row, the
    key of the infeasible registry."""
    n_arch = len(arch_columns())
    return (tuple(row[:n_arch]), tuple(row[n_arch:]))


def context_columns(task_arity: int) -> list[str]:
    cols = list(CONTEXT_NUMERIC)
    cols += [f"processor={k}" for k in PROCESSOR_KINDS]
    cols += [f"task_{i}" for i in range(task_arity)]
    return cols


def feature_columns(task_arity: int) -> list[str]:
    """Column schema of parse_network; fixed given the context arity."""
    return arch_columns() + context_columns(task_arity)


def encode_context(ctx: ContextSpec) -> list[float]:
    vec = [float(ctx.cores), float(ctx.compute_units), float(ctx.memory_mb),
           float(ctx.clock_freq_mhz), float(ctx.memory_bandwidth)]
    vec += one_hot(ctx.processor_kind, PROCESSOR_KINDS, "processor")
    vec += [float(v) for v in ctx.task]
    return vec


def encode_layer(layer: ArchLayerSpec, in_shape: tuple[int, int, int]) -> list[float]:
    in_c, in_h, in_w = in_shape
    vec = one_hot(layer.block_kind, BLOCK_KINDS, "block")
    vec += [float(layer.kernel_size), float(layer.stride),
            float(layer.padding), float(layer.expansion_ratio),
            float(layer.id_skip), float(layer.channels), float(layer.height),
            float(layer.width), float(in_c * in_h * in_w),
            float(layer.channels * layer.height * layer.width)]
    return vec


def parse_network(net: CandidateNetwork, ctx: ContextSpec) -> np.ndarray:
    """One feature row per layer: arch features ++ context features.

    The column order is ``feature_columns(len(ctx.task))`` for every network
    in an experiment; an empty network yields a zero-row matrix with the full
    column count.
    """
    validate_network(net)
    ctx_vec = encode_context(ctx)
    rows = []
    shape = net.input_shape
    for layer in net.layers:
        rows.append(encode_layer(layer, shape) + ctx_vec)
        shape = (layer.channels, layer.height, layer.width)
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
    if net.layers:
        shape = net.input_shape if net.depth == 1 else (
            net.layers[-2].channels, net.layers[-2].height,
            net.layers[-2].width)
        last = encode_layer(net.layers[-1], shape)
        cum_volume = float(sum(l.channels * l.height * l.width
                               for l in net.layers))
    else:
        last = [0.0] * len(arch_columns())
        cum_volume = 0.0
    return np.asarray(last + [float(net.depth), cum_volume] + ctx_vec)
