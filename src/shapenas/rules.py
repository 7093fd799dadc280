"""Value rules a field declares as ``Annotated`` metadata on its type or
its entries' (``budgets: tuple[Annotated[float, POSITIVE], ...]``), which
``check`` enforces in ``__post_init__`` and in the config reader alike."""
from __future__ import annotations

import functools
import itertools
import math
import typing
from dataclasses import dataclass


@dataclass(frozen=True)
class Range:
    """``low <= value <= high``, strict at an end that ``ends`` marks ``(``
    or ``)``. NaN lies in no range; a closed infinite end takes inf."""

    low: float = -math.inf
    high: float = math.inf
    ends: str = "[]"

    def holds(self, value) -> bool:
        above = value > self.low if self.ends[0] == "(" else value >= self.low
        below = value < self.high if self.ends[1] == ")" else value <= self.high
        return above and below

    def __str__(self) -> str:
        return f"in {self.ends[0]}{self.low}, {self.high}{self.ends[1]}"


@dataclass(frozen=True)
class OneOf:
    values: tuple

    def holds(self, value) -> bool:
        return value in self.values

    def __str__(self) -> str:
        return f"one of {', '.join(map(repr, self.values))}"


POSITIVE = Range(0, ends="(]")
FINITE = Range(ends="()")


def _broken(value, hint):
    """How ``value`` breaks a rule of ``hint`` (``must be <rule>``), or
    None."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        return None if args[1].holds(value) else f"must be {args[1]}"
    if origin is typing.Union:  # ``Annotated[X, rule] | None``
        return None if value is None else _broken(value, args[0])
    if origin is tuple:
        hints = itertools.repeat(args[0]) if args[1:] == (...,) else args
        broken = next(filter(None, map(_broken, value, hints)), None)
        return broken and f"entries {broken}"


def check(value, hint, name: str, error=ValueError):
    """``value`` if it keeps every rule of ``hint``, else ``error("<name>
    must be <rule>, got <value>")``, or ``<name> entries must be ...``."""
    broken = _broken(value, hint)
    if broken:
        raise error(f"{name} {broken}, got {value!r}")
    return value


@functools.cache
def type_hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def check_fields(obj) -> None:
    """``check`` each field of the dataclass ``obj``, named by its name."""
    for name, hint in type_hints(type(obj)).items():
        check(getattr(obj, name), hint, name)
