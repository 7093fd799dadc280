"""The one rule of a config field, read from its annotation: its type and
the value rules it declares as ``Annotated`` metadata on the type or its
entries' (``budgets: tuple[Annotated[float, POSITIVE], ...]``), which each
config dataclass's ``__post_init__`` enforces with ``check_fields``."""
from __future__ import annotations

import functools
import math
import types
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

# each scalar annotation a config field may carry: the types of the values
# it takes, and how a message names one such value and a list of them. A
# bool is not a number.
_SCALARS = {
    bool: ((bool,), "true or false", "true or false values"),
    int: ((int,), "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    str: ((str,), "a string", "strings"),
    type(None): ((type(None),), "null", "nulls"),
}


class FieldError(ValueError):
    """The field ``name`` holds ``value``, which breaks ``rule``."""

    def __init__(self, name: str, rule: str, value):
        super().__init__(f"{name} {rule}, got {value!r}")
        self.name, self.rule, self.value = name, rule, value


def _walk(value, hint):
    """False if ``value`` does not have the type ``hint``, else the rule of
    ``hint`` it breaks (``must be <rule>``), else None. A tuple annotation
    takes a list or a tuple, and one not named here takes any value."""
    if hint in _SCALARS:
        return None if type(value) in _SCALARS[hint][0] else False
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        found = _walk(value, args[0])
        return (f"must be {args[1]}" if found is None
                and not args[1].holds(value) else found)
    if origin in (types.UnionType, typing.Union):  # X | Y, Annotated[X] | Y
        found = [_walk(value, arg) for arg in args]
        return None if None in found else next(filter(None, found), False)
    if origin is not tuple:
        return None
    if not isinstance(value, (list, tuple)):
        return False
    hints = args[:1] * len(value) if args[1:] == (...,) else args
    if len(hints) != len(value):
        return False
    found = list(map(_walk, value, hints))
    rule = False if False in found else next(filter(None, found), None)
    return rule and "entries " + rule.removeprefix("entries ")


def _kind(hint, plural=False) -> str:
    """How a message names a value of the annotation ``hint``, or, with
    ``plural``, a list of them."""
    if hint in _SCALARS:
        return _SCALARS[hint][2 if plural else 1]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Annotated:
        return _kind(args[0], plural)
    if origin in (types.UnionType, typing.Union):
        return " or ".join(_kind(arg, plural) for arg in args)
    if origin is not tuple:  # an entry class: LayerTemplate
        return f"{hint.__name__} values"
    head = "lists of " if plural else "a list of "
    if args[1:] != (...,) and len(set(map(_kind, args))) > 1:
        *init, last = map(_kind, args)  # mixed types: each named
        return f"{head}{', '.join(init)} and {last}"
    count = "" if args[1:] == (...,) else f"{len(args)} "
    return f"{head}{count}{_kind(args[0], plural=True)}"


def broken(value, hint) -> str | None:
    """How ``value`` breaks the rule of the annotation ``hint``: ``must be
    <kind>`` or ``must be <rule>`` or ``entries must be <rule>``; or None."""
    found = _walk(value, hint)
    return f"must be {_kind(hint)}" if found is False else found


def check(value, hint, name: str):
    """``value`` if it keeps the rule of ``hint``, else a FieldError naming
    ``name``."""
    rule = broken(value, hint)
    if rule:
        raise FieldError(name, rule, value)
    return value


@functools.cache
def type_hints(cls) -> dict:
    return typing.get_type_hints(cls, include_extras=True)


def check_fields(obj) -> None:
    """``check`` each field of the dataclass ``obj``, named by its name."""
    for name, hint in type_hints(type(obj)).items():
        check(getattr(obj, name), hint, name)
