"""Commutative semirings: the value sets all arrays are computed over.

Supported kinds: boolean, nat64 (checked 64-bit overflow), int_mod(m),
min_plus (tropical), float64 (inexact, demonstration only).
"""
from __future__ import annotations

import math
import operator
import sys

from .core import PlexusError, Record, Verdict, int_in

NAT64_MAX = 2**64 - 1
INF = math.inf
FLOAT64_MAX = sys.float_info.max

KINDS = ("boolean", "nat64", "int_mod", "min_plus", "float64")


class Semiring(Record):
    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int = 0):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    # -- carrier ---------------------------------------------------------

    @property
    def exact(self) -> bool:
        return self.kind != "float64"

    def zero(self):
        if self.kind == "min_plus":
            return INF
        if self.kind == "float64":
            return 0.0
        return 0

    def one(self):
        if self.kind == "min_plus":
            return 0
        if self.kind == "float64":
            return 1.0
        return 1

    def validate(self, x) -> None:
        k = self.kind
        if k == "float64":
            # the bound also refuses integers with no float64 value
            if not isinstance(x, (int, float)) or isinstance(x, bool) or x != x or abs(x) > FLOAT64_MAX:
                raise PlexusError("BAD_ELEMENT", f"float64 element must be a finite number, got {x!r}")
            return
        if k == "min_plus" and x == INF:
            return
        # the other kinds hold ints only: never a bool, nor a float such as 1.0
        if isinstance(x, bool) or not isinstance(x, int):
            raise PlexusError("BAD_ELEMENT", f"not an integer element: {x!r}")
        if k == "boolean":
            if x not in (0, 1):
                raise PlexusError("BAD_ELEMENT", f"boolean element must be 0 or 1, got {x!r}")
        elif k == "nat64":
            if not 0 <= x <= NAT64_MAX:
                raise PlexusError("BAD_ELEMENT", f"nat64 element out of range: {x!r}")
        elif k == "int_mod":
            if not 0 <= x < self.modulus:
                raise PlexusError("BAD_ELEMENT", f"int_mod({self.modulus}) element out of range: {x!r}")
        elif x < 0:
            raise PlexusError("BAD_ELEMENT", f"min_plus element must be a natural or inf, got {x!r}")

    def as_ints(self, xs, inf=INF):
        """xs, with each entry equal to `inf` read as INF, if it is a
        nonempty sequence of elements this kind holds as ints, found in one
        pass of type, min and max: ints (never a bool) in the carrier of
        boolean, nat64 or int_mod, or for min_plus ints >= 0 and infinity as
        `xs` spells it (INF in an array, "inf" in JSON). None says nothing:
        check each x then."""
        top = {"boolean": 1, "nat64": NAT64_MAX, "int_mod": self.modulus - 1, "min_plus": INF}.get(self.kind)
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
        if self.kind == "boolean":
            return [0, 1]
        if self.kind == "int_mod":
            return list(range(self.modulus))
        raise PlexusError("INFINITE_CARRIER", f"{self.kind} has no finite carrier to enumerate")

    def random_element(self, rng):
        k = self.kind
        if k == "boolean":
            return rng.randint(0, 1)
        if k == "nat64":
            return rng.randint(0, 3)
        if k == "int_mod":
            return rng.randrange(self.modulus)
        if k == "min_plus":
            return INF if rng.random() < 0.2 else rng.randint(0, 9)
        return rng.random()

    # -- operations ------------------------------------------------------

    def add(self, x, y):
        k = self.kind
        if k == "boolean":
            return x | y
        if k == "nat64":
            r = x + y
            if r > NAT64_MAX:
                raise PlexusError("OVERFLOW", f"nat64 addition overflow: {x} + {y}")
            return r
        if k == "int_mod":
            return (x + y) % self.modulus
        if k == "min_plus":
            return x if x <= y else y
        return x + y

    def mul(self, x, y):
        k = self.kind
        if k == "boolean":
            return x & y
        if k == "nat64":
            r = x * y
            if r > NAT64_MAX:
                raise PlexusError("OVERFLOW", f"nat64 multiplication overflow: {x} * {y}")
            return r
        if k == "int_mod":
            return (x * y) % self.modulus
        if k == "min_plus":
            if x == INF or y == INF:
                return INF
            return x + y
        return x * y

    def dot(self, xs, ys):
        """Sum over p of xs[p] * ys[p]: the contraction kernel's only
        per-kind step. nat64 stays in exact ints here; `check_range` judges
        the final entries."""
        k = self.kind
        if k == "boolean":
            return 1 if any(map(operator.and_, xs, ys)) else 0
        if k == "min_plus":
            return min(map(operator.add, xs, ys))  # inf + x is inf
        if k == "int_mod":
            return sum(map(operator.mul, xs, ys)) % self.modulus
        return sum(map(operator.mul, xs, ys), self.zero())

    def reference_ops(self):
        """(add, mul) for the explicit reference loops: the checked pair,
        except that nat64 runs in exact ints, as the kernel does."""
        if self.kind == "nat64":
            return operator.add, operator.mul
        return self.add, self.mul

    def check_range(self, entries) -> None:
        """nat64 products are computed exactly; OVERFLOW iff a final entry
        exceeds 2^64 - 1, whatever the order of summation. float64: OVERFLOW
        iff a final entry is not finite (an overflow to inf, or NaN from it)."""
        if self.kind == "nat64":
            for x in entries:
                if x > NAT64_MAX:
                    raise PlexusError("OVERFLOW", f"nat64 result entry above 2^64 - 1: {x}")
        elif self.kind == "float64" and not all(map(math.isfinite, entries)):
            raise PlexusError("OVERFLOW", "float64 result entry is not finite")

    def eq(self, x, y) -> bool:
        if self.kind == "float64":
            return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
        return x == y

    # -- serialization ---------------------------------------------------

    @property
    def name(self) -> str:
        if self.kind == "int_mod":
            return f"int-mod:{self.modulus}"
        return self.kind.replace("_", "-")

    def element_to_json(self, x):
        if self.kind == "min_plus" and x == INF:
            return "inf"
        return x

    def element_from_json(self, v):
        if self.kind == "min_plus":
            if v == "inf":
                return INF
            if v == INF:  # a JSON number that overflows, such as 1e400
                raise PlexusError("BAD_ELEMENT", f"not an integer element: {v!r}")
        self.validate(v)
        return float(v) if self.kind == "float64" else v

    def entries_from_json(self, values: list) -> list:
        """[element_from_json(v) for v in values]: a list this kind holds as
        ints, min-plus "inf" included, is taken in one pass."""
        entries = self.as_ints(values, "inf")
        return [self.element_from_json(v) for v in values] if entries is None else entries


def make_semiring(kind: str, modulus: int | None = None) -> Semiring:
    kind = kind.replace("-", "_")
    if kind not in KINDS:
        raise PlexusError("UNKNOWN_KIND", f"unknown semiring kind {kind!r}")
    if kind == "int_mod":
        if not int_in(modulus, 2, math.inf):
            raise PlexusError("BAD_MODULUS", f"int_mod needs a modulus >= 2, got {modulus!r}")
        return Semiring("int_mod", modulus)
    if modulus is not None:
        raise PlexusError("BAD_MODULUS", f"{kind} takes no modulus")
    return Semiring(kind)


def parse_semiring(name: str) -> Semiring:
    """Parse the file/CLI spelling: boolean | nat64 | int-mod:<m> | min-plus | float64."""
    if not isinstance(name, str):
        raise PlexusError("PARSE_ERROR", f"semiring must be a string token, got {name!r}")
    if name.startswith("int-mod:") or name.startswith("int_mod:"):
        try:
            m = int(name.split(":", 1)[1])
        except ValueError:
            raise PlexusError("BAD_MODULUS", f"bad modulus in {name!r}") from None
        return make_semiring("int_mod", m)
    return make_semiring(name)


def check_semiring_axioms(s: Semiring, samples=None) -> Verdict:
    """Exhaustive over the carrier for boolean/int_mod, over samples otherwise."""
    if s.kind in ("boolean", "int_mod"):
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
