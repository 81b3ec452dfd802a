"""Commutative semirings: the value sets all arrays are computed over.

Each kind is one `Row` of operations: boolean, nat64 (checked 64-bit
overflow), int_mod(m) (one row per modulus), min_plus (tropical) and float64
(inexact, demonstration only). A `Semiring` record binds its kind's row when
it is built, so no call branches on the kind; `Semiring.add` and `mul`,
the one definition of each, call the row's.
"""
from __future__ import annotations

import math
import operator
import sys
from collections import namedtuple

from .core import PlexusError, Record, Verdict, int_in, parse_count

NAT64_MAX = 2**64 - 1
INF = math.inf
FLOAT64_MAX = sys.float_info.max


# the fields a row may leave out, with their defaults
_DEFAULTS = {"zero": 0, "one": 1, "exact": True, "eq": operator.eq, "check_range": lambda entries: None,
             "reference": None, "top": None, "carrier": None, "inf_json": None}


class Row(namedtuple("Row", ["name", "add", "mul", "dot", "validate", "random_element", *_DEFAULTS],
                     defaults=_DEFAULTS.values())):
    """One kind's operations, as in the semiring tables of Aji & McEliece (2000)
    and Mohri (2002). `dot` is the sum over p of xs[p] * ys[p], the kernel's
    only per-kind step; `check_range` judges a result's final entries;
    `reference` is the (add, mul) the reference loops run, if not the checked
    pair; `top` is the largest int element `as_ints` reads; `inf_json` spells
    infinity in JSON. None says the kind has no such thing."""

    __slots__ = ()


def _ints(top, refusal):
    """validate for the ints 0..top (never a bool, nor a float such as 1.0), and
    INF if top is INF; `refusal` leads the message for an int out of range."""
    holds_inf = top == INF
    def validate(x):
        if holds_inf and x == INF:
            return
        if isinstance(x, bool) or not isinstance(x, int):
            raise PlexusError("BAD_ELEMENT", f"not an integer element: {x!r}")
        if not 0 <= x <= top:
            raise PlexusError("BAD_ELEMENT", f"{refusal}{x!r}")
    return validate


def _overflow(message):
    raise PlexusError("OVERFLOW", message)


def _nat64_range(entries):
    for x in entries:
        if x > NAT64_MAX:
            _overflow(f"nat64 result entry above 2^64 - 1: {x}")


def _finite(x):
    # the bound also refuses integers with no float64 value
    if not isinstance(x, (int, float)) or isinstance(x, bool) or x != x or abs(x) > FLOAT64_MAX:
        raise PlexusError("BAD_ELEMENT", f"float64 element must be a finite number, got {x!r}")


_ROWS = {
    "boolean": Row(
        name="boolean", add=operator.or_, mul=operator.and_,
        dot=lambda xs, ys: 1 if any(map(operator.and_, xs, ys)) else 0,
        validate=_ints(1, "boolean element must be 0 or 1, got "),
        random_element=lambda rng: rng.randint(0, 1),
        top=1, carrier=range(2)),
    # nat64 stays in exact ints in `dot` and in the reference loops: OVERFLOW iff a final entry
    # exceeds 2^64 - 1, whatever the order of summation
    "nat64": Row(
        name="nat64",
        add=lambda x, y: _overflow(f"nat64 addition overflow: {x} + {y}") if (r := x + y) > NAT64_MAX else r,
        mul=lambda x, y: _overflow(f"nat64 multiplication overflow: {x} * {y}") if (r := x * y) > NAT64_MAX else r,
        dot=lambda xs, ys: sum(map(operator.mul, xs, ys)),
        validate=_ints(NAT64_MAX, "nat64 element out of range: "),
        random_element=lambda rng: rng.randint(0, 3),
        check_range=_nat64_range, reference=(operator.add, operator.mul), top=NAT64_MAX),
    "min_plus": Row(
        name="min-plus", zero=INF, one=0,
        add=lambda x, y: x if x <= y else y,
        mul=lambda x, y: INF if x == INF or y == INF else x + y,
        dot=lambda xs, ys: min(map(operator.add, xs, ys)),  # inf + x is inf
        validate=_ints(INF, "min_plus element must be a natural or inf, got "),
        random_element=lambda rng: INF if rng.random() < 0.2 else rng.randint(0, 9),
        top=INF, inf_json="inf"),
    "float64": Row(
        name="float64", zero=0.0, one=1.0, add=operator.add, mul=operator.mul,
        dot=lambda xs, ys: sum(map(operator.mul, xs, ys), 0.0),
        validate=_finite,
        random_element=lambda rng: rng.random(),
        exact=False, eq=lambda x, y: math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12),
        # OVERFLOW iff a final entry is not finite (an overflow to inf, or NaN from it)
        check_range=lambda xs: None if all(map(math.isfinite, xs)) else _overflow(
            "float64 result entry is not finite")),
}


def _int_mod(m: int) -> Row:
    """The row of int_mod(m)."""
    return Row(
        name=f"int-mod:{m}",
        add=lambda x, y: (x + y) % m,
        mul=lambda x, y: (x * y) % m,
        dot=lambda xs, ys: sum(map(operator.mul, xs, ys)) % m,
        validate=_ints(m - 1, f"int_mod({m}) element out of range: "),
        random_element=lambda rng: rng.randrange(m),
        top=m - 1, carrier=range(m))


def _row(kind, modulus) -> Row:
    """The row of `kind`, refusing an unknown kind and a modulus it does not take."""
    if kind not in (*_ROWS, "int_mod"):
        raise PlexusError("UNKNOWN_KIND", f"unknown semiring kind {kind!r}")
    if kind == "int_mod":
        if not int_in(modulus, 2, math.inf):
            raise PlexusError("BAD_MODULUS", f"int_mod needs a modulus >= 2, got {modulus!r}")
        return _int_mod(modulus)
    if modulus not in (None, 0):
        raise PlexusError("BAD_MODULUS", f"{kind} takes no modulus")
    return _ROWS[kind]


class Semiring(Record):
    """The record (kind, modulus) of a known kind, 0 for no modulus, with its
    row's `_bound` fields bound: `s.dot(xs, ys)` calls the row's `dot`, and
    the methods `add` and `mul` call the row's."""

    __slots__ = ("kind", "modulus", "__dict__")
    _bound = ("name", "exact", "dot", "validate", "check_range", "eq", "random_element", "inf_json")

    def __init__(self, kind: str, modulus: int = 0):
        row = _row(kind, modulus)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus or 0)
        object.__setattr__(self, "_row", row)
        for f in self._bound:
            object.__setattr__(self, f, getattr(row, f))

    def add(self, x, y):
        return self._row.add(x, y)

    def mul(self, x, y):
        return self._row.mul(x, y)

    def zero(self):
        return self._row.zero

    def one(self):
        return self._row.one

    def as_ints(self, xs, inf=INF):
        """xs, with each entry equal to `inf` read as INF, if it is a
        nonempty sequence of elements this kind holds as ints, found in one
        pass of type, min and max: ints (never a bool) in the carrier of
        boolean, nat64 or int_mod, or for min_plus ints >= 0 and infinity as
        `xs` spells it (INF in an array, "inf" in JSON). None says nothing:
        check each x then."""
        top = self._row.top
        if top is None or len(xs) == 0:
            return None
        ints = list(map(type, xs)).count(int)
        if ints != len(xs):
            if top != INF or ints + operator.countOf(xs, inf) != len(xs):
                return None
            if inf != INF:  # every entry that is not an int spells infinity
                xs = [x if x.__class__ is int else INF for x in xs]
        return xs if 0 <= min(xs) and max(xs) <= top else None

    def elements(self):
        """Full carrier for the finite kinds; error otherwise."""
        if self._row.carrier is None:
            raise PlexusError("INFINITE_CARRIER", f"{self.kind} has no finite carrier to enumerate")
        return list(self._row.carrier)

    def reference_ops(self):
        """(add, mul) for the explicit reference loops: the row's unchecked pair, if it has one, else its own."""
        return self._row.reference or (self._row.add, self._row.mul)

    def element_to_json(self, x):
        return x if self.inf_json is None or x != INF else self.inf_json

    def element_from_json(self, v):
        if self.inf_json is not None:
            if v == self.inf_json:
                return INF
            if v == INF:  # a JSON number that overflows, such as 1e400
                raise PlexusError("BAD_ELEMENT", f"not an integer element: {v!r}")
        self.validate(v)
        return v if self.exact else float(v)

    def entries_from_json(self, values: list) -> list:
        """[element_from_json(v) for v in values]: a list this kind holds as
        ints, min-plus "inf" included, is taken in one pass."""
        entries = self.as_ints(values, "inf")
        return [self.element_from_json(v) for v in values] if entries is None else entries


def require_semiring(s) -> None:
    """Refuse `s` with UNKNOWN_KIND unless it is a `Semiring`."""
    if not isinstance(s, Semiring):
        raise PlexusError("UNKNOWN_KIND", f"semiring {s!r} is not a Semiring")


def make_semiring(kind: str, modulus: int | None = None) -> Semiring:
    """Semiring(kind, modulus), with the kind also spelled with hyphens."""
    return Semiring(kind.replace("-", "_") if isinstance(kind, str) else kind, modulus)


def parse_semiring(name: str) -> Semiring:
    """Parse the file/CLI spelling: boolean | nat64 | int-mod:<m> | min-plus | float64."""
    if not isinstance(name, str):
        raise PlexusError("PARSE_ERROR", f"semiring must be a string token, got {name!r}")
    if name.startswith(("int-mod:", "int_mod:")):
        if (m := parse_count(name[8:])) is None:
            raise PlexusError("BAD_MODULUS", f"bad modulus in {name!r}")
        return make_semiring("int_mod", m)
    return make_semiring(name)


def check_semiring_axioms(s: Semiring, samples=None) -> Verdict:
    """Exhaustive over the carrier of a kind whose row has one, over samples otherwise."""
    require_semiring(s)
    if s._row.carrier is not None:
        elems = s.elements()
    else:
        if not samples:
            raise PlexusError("BAD_SAMPLES", "samples required for infinite carriers")
        elems = list(samples)
    zero, one = s.zero(), s.one()
    for a in elems:
        if not s.eq(s.add(a, zero), a):
            return Verdict(False, "additive identity", (a,))
        if not s.eq(s.mul(a, one), a):
            return Verdict(False, "multiplicative identity", (a,))
        if not s.eq(s.mul(a, zero), zero):
            return Verdict(False, "zero absorbing", (a,))
        for b in elems:
            if not s.eq(s.add(a, b), s.add(b, a)):
                return Verdict(False, "additive commutativity", (a, b))
            if not s.eq(s.mul(a, b), s.mul(b, a)):
                return Verdict(False, "multiplicative commutativity", (a, b))
            for c in elems:
                if not s.eq(s.add(s.add(a, b), c), s.add(a, s.add(b, c))):
                    return Verdict(False, "additive associativity", (a, b, c))
                if not s.eq(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c))):
                    return Verdict(False, "multiplicative associativity", (a, b, c))
                if not s.eq(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c))):
                    return Verdict(False, "distributivity", (a, b, c))
    return Verdict(True)
