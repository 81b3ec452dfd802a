"""Shared plumbing: error type, records, index sets, verdicts, the fish
variant table, id ordering."""
from __future__ import annotations

import functools
import math
import operator
import re


class PlexusError(Exception):
    """Any validation or conformability failure. `code` is machine-readable."""

    def __init__(self, code: str, message: str, location: str | None = None):
        self.code = code
        self.location = location
        super().__init__(message)

    def __str__(self) -> str:
        base = super().__str__()
        if self.location:
            return f"[{self.code}] {base} (at {self.location})"
        return f"[{self.code}] {base}"


def int_in(x, lo, hi) -> bool:
    """The one rule for index set sizes, table entries, carrier sizes and
    table elements: an int with lo <= x <= hi, as for semiring elements
    never a bool or a float."""
    return isinstance(x, int) and not isinstance(x, bool) and lo <= x <= hi


def require_int(x, code: str, what: str) -> None:
    """Refuse x with `code` unless it is an int (never a bool or a float
    such as 1.0, by `int_in`); the message names `what` and x's repr."""
    if not int_in(x, -math.inf, math.inf):
        raise PlexusError(code, f"{what} must be an integer, got {x!r}")


class Record:
    """Base of the immutable records: a subclass names its fields in
    `__slots__` and sets them in `__init__` with `object.__setattr__`. As
    for a frozen dataclass, records are equal iff of one class with equal
    fields, hash as their field tuple, and list their fields in the repr."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        get = operator.attrgetter(*cls.__slots__)
        cls._astuple = staticmethod(get if len(cls.__slots__) > 1 else lambda r: (get(r),))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == other._astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class IndexSet(Record):
    """A named finite index set. Conformability compares both name and size."""

    __slots__ = ("id", "size")

    def __init__(self, id: str, size: int):
        if not int_in(size, 1, math.inf):
            raise PlexusError("BAD_INDEX_SET", f"index set {id!r} needs an integer size >= 1, got {size!r}")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "size", size)


class Verdict(Record):
    """Outcome of a law check; `witness` carries the first counterexample."""

    __slots__ = ("ok", "law", "witness")

    def __init__(self, ok: bool, law: str = "", witness: object = None):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "law", law)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.ok


# fish variant name -> (mouth axis position, reversed). The name XYZ reads:
# tips on axes X and Y, mouth on axis Z; reversed variants swap tail and head.
ETA_VARIANTS = {
    "IJK": (2, False),
    "JIK": (2, True),
    "KIJ": (1, False),
    "IKJ": (1, True),
    "JKI": (0, False),
    "KJI": (0, True),
}


_SPLIT_DIGITS = re.compile(r"(\d+)")


@functools.lru_cache(maxsize=4096)  # diagrams reuse a few ids, and every new diagram sorts them
def natural_key(s: str):
    """Sort key treating decimal digit runs numerically, so v2 < v10; the raw
    id breaks ties, so x01 < x1 and no two ids share a key."""
    return tuple(int(part) if part.isdecimal() else part for part in _SPLIT_DIGITS.split(s)), s


def trial_range(trials: int) -> range:
    """range(trials), refusing a count that is not an int of at least 1: a
    law check that draws no array would pass without testing anything."""
    if not int_in(trials, 1, math.inf):
        raise PlexusError("BAD_REFERENCE", f"trials must be at least 1, got {trials!r}")
    return range(trials)


def fresh_id(prefix: str, taken) -> str:
    """The first of prefix0, prefix1, ... not in `taken`."""
    n = 0
    while f"{prefix}{n}" in taken:
        n += 1
    return f"{prefix}{n}"
