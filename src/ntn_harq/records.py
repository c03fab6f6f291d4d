"""Bases of the package's immutable records, built without ``dataclasses``.

Plain records are ``typing.NamedTuple`` classes.  A record that checks its
values subclasses ``Validated`` and its NamedTuple of fields, and states each
field's bound once, in ``RULES``, which the config schema reads too.  Records
that cache derived state, which a tuple cannot hold, subclass ``Frozen``.
Either way a record compares and hashes by value and refuses any assignment.
"""
from __future__ import annotations

from enum import Enum
from math import inf
from operator import attrgetter
from typing import Any, Callable

from .errors import InvalidInputError

Rule = tuple[str, Callable[[Any], bool]]  # the text after the bounded name, and a check that NaN fails
_AT_LEAST_0: Rule = ("must lie in [0, inf)", lambda v: 0 <= v < inf)
_AT_LEAST_1: Rule = ("must be >= 1", lambda v: v >= 1)
_FINITE: Rule = ("must be finite", lambda v: -inf < v < inf)
_POSITIVE: Rule = ("must lie in (0, inf)", lambda v: 0 < v < inf)


def _between(low: float, high: float) -> Rule:
    return (f"must lie in [{low:g}, {high:g}]", lambda v: low <= v <= high)


def _count(low: int, high: float = inf) -> Rule:
    """An integer in [low, high]; without ``high``, one >= low."""
    bound = f">= {low}" if high == inf else f"in [{low}, {high}]"
    return (f"must be an integer {bound}", lambda v: isinstance(v, int) and low <= v <= high)


def require(name: str, value: Any, rule: Rule) -> None:
    """Raise ``InvalidInputError("<name> <rule>, got <value>")`` unless ``value`` passes ``rule``."""
    if not rule[1](value):
        raise InvalidInputError(f"{name} {rule[0]}, got {value!r}")


class IdentityEnum(Enum):
    """Base of the package's enums.  Members are singletons, so hashing by
    identity agrees with equality, and it runs in C where ``Enum.__hash__``
    runs Python code on every set or dict lookup.  ``value`` reads the
    member's ``_value_`` in C too, where Enum's own getter makes two
    Python calls per read."""

    __hash__ = object.__hash__
    value = property(attrgetter("_value_"))


class Validated:
    """Mixin placed ahead of a NamedTuple of fields, as in
    ``class Checked(Validated, Fields)``: every new record, including those
    made by ``_make`` and so by ``_replace``, must pass the class's ``RULES``."""

    __slots__ = ()

    def __new__(cls, *args: Any, **kwargs: Any) -> Any:
        self = super().__new__(cls, *args, **kwargs)
        for field, rule in cls.RULES.items():
            if not rule[1](value := getattr(self, field)):  # inline: a call per field costs 5 % of a _replace
                require(field, value, rule)
        return self

    @classmethod
    def _make(cls, iterable: Any) -> Any:
        return cls(*iterable)


class Frozen:
    """Base of a slotted record whose ``__init__`` sets ``_fields`` once,
    through ``object.__setattr__``.  Records of one class are equal when
    their fields are; other slots hold state derived from the fields."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
