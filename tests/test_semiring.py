"""Semiring carriers, operations, tokens, and axiom checking."""
import itertools
import math

import pytest

from plexus import IndexSet, PlexusError, check_semiring_axioms, make_array, make_semiring, parse_semiring
from plexus.semiring import NAT64_MAX


def test_boolean_ops():
    s = make_semiring("boolean")
    assert s.add(1, 1) == 1
    assert s.mul(1, 0) == 0
    assert s.zero() == 0 and s.one() == 1
    assert s.elements() == [0, 1]


def test_int_mod_ops():
    s = make_semiring("int_mod", 5)
    assert s.add(3, 4) == 2
    assert s.mul(3, 4) == 2
    assert s.elements() == [0, 1, 2, 3, 4]


def test_min_plus_ops():
    s = make_semiring("min_plus")
    assert s.add(3, 7) == 3
    assert s.mul(3, 7) == 10
    assert s.zero() == math.inf
    assert s.one() == 0
    # zero is absorbing and the additive identity
    assert s.mul(5, s.zero()) == math.inf
    assert s.add(5, s.zero()) == 5


def test_min_plus_json_sentinel():
    s = make_semiring("min_plus")
    assert s.element_to_json(math.inf) == "inf"
    assert s.element_from_json("inf") == math.inf
    assert s.element_from_json(4) == 4


def test_nat64_checked_overflow():
    s = make_semiring("nat64")
    assert s.add(NAT64_MAX - 1, 1) == NAT64_MAX
    with pytest.raises(PlexusError) as err:
        s.add(NAT64_MAX, 1)
    assert err.value.code == "OVERFLOW"
    with pytest.raises(PlexusError) as err:
        s.mul(2**33, 2**33)
    assert err.value.code == "OVERFLOW"


def test_validate_rejects_foreign_elements():
    cases = [
        ("boolean", None, 2),
        ("nat64", None, -1),
        ("int_mod", 5, 5),
        ("min_plus", None, -3),
        ("float64", None, "x"),
        ("float64", None, math.nan),
        ("float64", None, math.inf),
        ("float64", None, -math.inf),
        ("float64", None, 10**400),
    ]
    for kind, modulus, bad in cases:
        s = make_semiring(kind, modulus)
        with pytest.raises(PlexusError) as err:
            s.validate(bad)
        assert err.value.code == "BAD_ELEMENT"


def test_integer_kinds_refuse_bool_and_float_elements():
    for s in (make_semiring("boolean"), make_semiring("nat64"), make_semiring("int_mod", 5),
              make_semiring("min_plus")):
        for bad in (True, False, 1.0, 0.0):
            with pytest.raises(PlexusError) as err:
                s.validate(bad)
            assert err.value.code == "BAD_ELEMENT", (s, bad)
    assert make_semiring("min_plus").validate(math.inf) is None
    # once accepted, this array made `reorder` raise a raw TypeError
    i2 = IndexSet("I", 2)
    with pytest.raises(PlexusError) as err:
        make_array((i2, i2), [1.0, 0, 0, True], make_semiring("boolean"))
    assert err.value.code == "BAD_ELEMENT"


def test_token_spellings():
    assert parse_semiring("boolean").kind == "boolean"
    assert parse_semiring("nat64").kind == "nat64"
    assert parse_semiring("min-plus").kind == "min_plus"
    assert parse_semiring("float64").kind == "float64"
    s = parse_semiring("int-mod:7")
    assert s.kind == "int_mod" and s.modulus == 7
    assert s.name == "int-mod:7"
    assert parse_semiring("min-plus").name == "min-plus"
    # parse(name) round trips for every kind
    for token in ("boolean", "nat64", "int-mod:5", "min-plus", "float64"):
        assert parse_semiring(token).name == token


def test_bad_tokens():
    with pytest.raises(PlexusError) as err:
        make_semiring("tropical")
    assert err.value.code == "UNKNOWN_KIND"
    with pytest.raises(PlexusError) as err:
        make_semiring("int_mod", 1)
    assert err.value.code == "BAD_MODULUS"
    with pytest.raises(PlexusError) as err:
        make_semiring("boolean", 3)
    assert err.value.code == "BAD_MODULUS"
    with pytest.raises(PlexusError) as err:
        parse_semiring("int-mod:x")
    assert err.value.code == "BAD_MODULUS"


@pytest.mark.parametrize("call, code, message", [
    # 7.0 made a semiring equal to int-mod:7 whose sums were floats; "7" raised a raw TypeError
    (lambda: make_semiring("int_mod", 7.0), "BAD_MODULUS", "int_mod needs a modulus >= 2, got 7.0"),
    (lambda: make_semiring("int_mod", "7"), "BAD_MODULUS", "int_mod needs a modulus >= 2, got '7'"),
    (lambda: make_semiring("nat64").elements(), "INFINITE_CARRIER", "nat64 has no finite carrier to enumerate"),
    (lambda: make_semiring("min_plus").elements(), "INFINITE_CARRIER",
     "min_plus has no finite carrier to enumerate"),
    (lambda: make_semiring("float64").elements(), "INFINITE_CARRIER",
     "float64 has no finite carrier to enumerate"),
], ids=["modulus-float", "modulus-str", "nat64-carrier", "min-plus-carrier", "float64-carrier"])
def test_refusals_name_their_code_and_reason(call, code, message):
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == f"[{code}] {message}"


def test_exactness_flags():
    for token in ("boolean", "nat64", "int-mod:5", "min-plus"):
        assert parse_semiring(token).exact
    assert not parse_semiring("float64").exact


def test_float64_tolerant_equality():
    s = make_semiring("float64")
    assert s.eq(0.1 + 0.2, 0.3)
    assert not s.eq(1.0, 1.001)


def test_axioms_exhaustive_finite():
    assert check_semiring_axioms(make_semiring("boolean"))
    for m in range(2, 8):
        assert check_semiring_axioms(make_semiring("int_mod", m))


def test_axioms_sampled_infinite():
    assert check_semiring_axioms(make_semiring("nat64"), samples=[0, 1, 2, 3, 7, 100])
    assert check_semiring_axioms(make_semiring("min_plus"), samples=[0, 1, 5, math.inf])
    assert check_semiring_axioms(make_semiring("float64"), samples=[0.0, 1.0, 0.5, 2.0])
    with pytest.raises(PlexusError):
        check_semiring_axioms(make_semiring("nat64"))


class _CorruptedNat:
    """nat64 with add(1,1) = 0: the axiom checker must catch it."""

    kind = "nat64"

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, x, y):
        if x == 1 and y == 1:
            return 0
        return x + y

    def mul(self, x, y):
        return x * y

    def eq(self, x, y):
        return x == y


def test_axioms_catch_corrupted_table():
    v = check_semiring_axioms(_CorruptedNat(), samples=[0, 1, 2])
    assert not v.ok
    assert v.witness is not None


def test_semiring_distributivity_spot_check():
    # exhaustive distributivity over the two finite kinds, stated directly
    for s in (make_semiring("boolean"), make_semiring("int_mod", 3)):
        for a, b, c in itertools.product(s.elements(), repeat=3):
            assert s.eq(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c)))
