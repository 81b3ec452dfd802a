"""Semiring carriers, operations, tokens, and axiom checking."""
import itertools
import math
import random

import pytest

from plexus import IndexSet, PlexusError, Semiring, check_semiring_axioms, make_array, make_semiring, parse_semiring
from plexus.arrays import full_array, kronecker, random_array, zero_array
from plexus.diagram import standard_diagram
from plexus.rewrite import random_binding, semantic_confluence, vee_motif
from plexus.semiring import NAT64_MAX
from plexus.ternary import fish_unit_arrays, indicator_array, semiheap_law_arrays


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
    # the record refuses what make_semiring refuses; each of these was built
    (lambda: Semiring("tropical"), "UNKNOWN_KIND", "unknown semiring kind 'tropical'"),
    (lambda: Semiring("int_mod"), "BAD_MODULUS", "int_mod needs a modulus >= 2, got 0"),
    (lambda: Semiring("int_mod", 7.0), "BAD_MODULUS", "int_mod needs a modulus >= 2, got 7.0"),
    (lambda: Semiring("min_plus", 3), "BAD_MODULUS", "min_plus takes no modulus"),
    # a raw AttributeError once
    (lambda: make_semiring(None), "UNKNOWN_KIND", "unknown semiring kind None"),
    (lambda: make_semiring(5), "UNKNOWN_KIND", "unknown semiring kind 5"),
    # int() reads each of these, and `name` respelled it
    (lambda: parse_semiring("int-mod:1_0"), "BAD_MODULUS", "bad modulus in 'int-mod:1_0'"),
    (lambda: parse_semiring("int-mod: 7"), "BAD_MODULUS", "bad modulus in 'int-mod: 7'"),
    (lambda: parse_semiring("int-mod:+7"), "BAD_MODULUS", "bad modulus in 'int-mod:+7'"),
    (lambda: parse_semiring("int-mod:07"), "BAD_MODULUS", "bad modulus in 'int-mod:07'"),
], ids=["modulus-float", "modulus-str", "nat64-carrier", "min-plus-carrier", "float64-carrier",
        "record-unknown-kind", "record-no-modulus", "record-modulus-float", "record-extra-modulus",
        "kind-none", "kind-int", "modulus-underscore", "modulus-space", "modulus-plus", "modulus-leading-zero"])
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


class _CorruptedNat(Semiring):
    """nat64 with add(1,1) = 0: the axiom checker must catch it."""

    def __init__(self):
        super().__init__("nat64")

    def add(self, x, y):
        if x == 1 and y == 1:
            return 0
        return x + y


def test_axioms_catch_corrupted_table():
    v = check_semiring_axioms(_CorruptedNat(), samples=[0, 1, 2])
    assert not v.ok
    assert v.witness is not None


def test_semiring_distributivity_spot_check():
    # exhaustive distributivity over the two finite kinds, stated directly
    for s in (make_semiring("boolean"), make_semiring("int_mod", 3)):
        for a, b, c in itertools.product(s.elements(), repeat=3):
            assert s.eq(s.mul(a, s.add(b, c)), s.add(s.mul(a, b), s.mul(a, c)))


I2 = IndexSet("I", 2)


@pytest.mark.parametrize("call", [
    lambda: zero_array((I2,), "boolean"),
    lambda: full_array((I2,), "boolean"),
    lambda: random_array((I2,), "boolean", random.Random(0)),
    lambda: kronecker(2, I2, "boolean"),
    lambda: fish_unit_arrays(I2, "boolean"),
    lambda: indicator_array((I2,), (0,), "boolean"),
    lambda: random_binding(standard_diagram("vee"), "boolean", random.Random(0)),
    lambda: semiheap_law_arrays("IJK", "boolean", (2, 2, 2), 1),
    lambda: semantic_confluence(standard_diagram("zee"), vee_motif(), "boolean", 1),
    lambda: check_semiring_axioms("boolean"),
], ids=["zero_array", "full_array", "random_array", "kronecker", "fish_unit_arrays", "indicator_array",
        "random_binding", "semiheap_law_arrays", "semantic_confluence", "check_semiring_axioms"])
def test_a_semiring_that_is_not_a_semiring_is_refused_before_it_is_read(call):
    # each raised a raw AttributeError: 'str' object has no attribute 'zero', 'one',
    # 'random_element', 'exact' or '_row'
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == "[UNKNOWN_KIND] semiring 'boolean' is not a Semiring"
