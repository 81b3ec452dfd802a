"""The semiring's rows against the class they replace, which branched on its
kind in every method; the old class is kept here verbatim as the reference.
Over every kind, and int-mod at three moduli, each operation gives the same
value or the same refusal, code and message included. The inputs are the
whole carrier of boolean, int-mod:2 and int-mod:7 (every pair of it where an
operation takes two), the whole carrier of int-mod:10007 where an operation
takes one element, and fixed samples for the rest: 0, 1, 2^64 - 1,
infinity, -0.0 and numbers near float64's largest, beside values no kind
holds."""
import json
import math
import operator
import random

import pytest

from plexus.core import PlexusError, Record
from plexus.semiring import FLOAT64_MAX, INF, NAT64_MAX, make_semiring


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


SAMPLES = [0, 1, 2, 3, 6, 10006, NAT64_MAX, NAT64_MAX - 1, 2**32, 2**33, math.inf, -0.0, 0.5, 1.0,
           FLOAT64_MAX, FLOAT64_MAX / 2, -FLOAT64_MAX]
FOREIGN = [-1, -3, 2**64, 10**400, True, False, 2.0, math.nan, -math.inf, "inf", "x", None, [1]]
KINDS = [("boolean", None), ("nat64", None), ("min_plus", None), ("float64", None),
         ("int_mod", 2), ("int_mod", 7), ("int_mod", 10007)]


def outcome(f, *args):
    """What a call gives: its value's repr (so 1, 1.0, True and -0.0 differ),
    its refusal's code and message, or any other exception's type and text."""
    try:
        value = f(*args)
    except PlexusError as err:
        return "refused", err.code, str(err)
    except Exception as err:  # noqa: BLE001 - a raw error must be the same raw error
        return type(err).__name__, str(err)
    return "value", repr(value)


def spell(s, xs):
    return json.dumps([s.element_to_json(x) for x in xs])


def round_trip(s, xs):
    return s.entries_from_json(json.loads(spell(s, xs)))


def table(s, pair_elements, one_elements):
    """Every outcome the differential compares, keyed by what was called."""
    ref_add, ref_mul = s.reference_ops()
    got = {"record": (repr(s), hash(s), s.name, s.exact, repr(s.zero()), repr(s.one())),
           "elements": outcome(s.elements),
           "random": outcome(lambda rng=random.Random(3): [s.random_element(rng) for _ in range(200)])}
    for x in pair_elements:
        for y in pair_elements:
            for name, f in (("add", s.add), ("mul", s.mul), ("eq", s.eq), ("ref_add", ref_add),
                            ("ref_mul", ref_mul)):
                got[name, repr(x), repr(y)] = outcome(f, x, y)
            got["dot", repr(x), repr(y)] = outcome(s.dot, [x, y], [y, x])
    for x in [*one_elements, *FOREIGN]:
        got["one", repr(x)] = [outcome(f, x) for f in (s.validate, s.element_to_json, s.element_from_json)] + [
            outcome(s.check_range, [x]), outcome(s.as_ints, [x]), outcome(s.as_ints, [x], "inf"),
            outcome(s.dot, [x], [s.one()]), outcome(s.eq, x, x), outcome(round_trip, s, [x])]
    for xs in (one_elements, [*one_elements, "inf"], [*one_elements, math.inf], [], FOREIGN):
        got["list", repr(xs)] = [outcome(spell, s, xs), outcome(round_trip, s, xs), outcome(s.entries_from_json, xs),
                                 outcome(s.as_ints, xs), outcome(s.as_ints, xs, "inf"),
                                 outcome(s.check_range, xs), outcome(s.dot, xs, xs)]
    return got


@pytest.mark.parametrize("kind, modulus", KINDS, ids=[f"{k}-{m}" if m else k for k, m in KINDS])
def test_rows_match_the_class_they_replace(kind, modulus):
    new, old = make_semiring(kind, modulus), Semiring(kind, modulus or 0)
    ones = pairs = SAMPLES
    if kind in ("boolean", "int_mod"):
        carrier = old.elements()
        ones = [*carrier, len(carrier), *SAMPLES]  # and the first int past the carrier
        pairs = [*(carrier if len(carrier) <= 7 else [0, 1, 2, modulus // 2, modulus - 2, modulus - 1]), *SAMPLES]
    assert table(new, pairs, ones) == table(old, pairs, ones)
