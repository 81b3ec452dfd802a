"""Dense semiring arrays: constructors, axis surgery, incidence and
contraction products, kronecker identities."""
import itertools
import random
from array import array
from enum import IntEnum

import pytest

from plexus import (
    IndexSet,
    PlexusError,
    additive_incidence,
    broaden,
    contract,
    diagonal_extension,
    entrywise_add,
    entrywise_mul,
    flatten,
    full_array,
    indicator_array,
    kronecker,
    make_array,
    make_semiring,
    multiplicative_incidence,
    random_array,
    reorder,
    self_contract,
    slice_axes,
    standard_diagram,
    tensor_product,
    unary_contract,
    zero_array,
)
from plexus import arrays
from plexus.arrays import einsum

BOOL = make_semiring("boolean")
NAT = make_semiring("nat64")
MOD5 = make_semiring("int_mod", 5)

I2 = IndexSet("I", 2)
J2 = IndexSet("J", 2)
J3 = IndexSet("J", 3)
K2 = IndexSet("K", 2)
K3 = IndexSet("K", 3)


def test_make_array_and_entry():
    a = make_array((I2, J2), [1, 1, 0, 0], BOOL)
    assert a.order == 2
    assert a.sizes == (2, 2)
    assert a.entry((0, 0)) == 1 and a.entry((0, 1)) == 1
    assert a.entry((1, 0)) == 0 and a.entry((1, 1)) == 0
    Bit = IntEnum("Bit", [("LOW", 0), ("HIGH", 1)])  # an int subclass is read as its int value
    assert a.offset((Bit.HIGH, Bit.LOW)) == 2 and a.entry([Bit.LOW, Bit.HIGH]) == 1


def test_zero_order_array_is_a_scalar():
    a = make_array((), [7], NAT)
    assert a.order == 0
    assert a.scalar() == 7
    with pytest.raises(PlexusError) as err:
        make_array((I2,), [7, 7], NAT).scalar()
    assert str(err.value) == "[BAD_INDEX] scalar() needs an order-0 array"


def test_an_array_equals_no_other_value_and_no_array_over_another_semiring():
    a = make_array((I2,), [0, 1], BOOL)
    assert a.__eq__([0, 1]) is NotImplemented and a != [0, 1]
    assert a != make_array((I2,), [0, 1], MOD5)


def test_make_array_size_mismatch():
    with pytest.raises(PlexusError) as err:
        make_array((IndexSet("I", 3),), [1, 0], BOOL)
    assert err.value.code == "SIZE_MISMATCH"


@pytest.mark.parametrize("count", [7, 9, 0])
def test_an_array_refuses_an_entry_count_that_does_not_match_its_axes(count):
    # unrefused, such an array reaches the kernel's unchecked reads: fish and contract raise IndexError
    with pytest.raises(PlexusError) as err:
        arrays.Array((I2, I2, I2), [1] * count, BOOL)
    assert str(err.value) == f"[SIZE_MISMATCH] expected 8 entries, got {count}"


@pytest.mark.parametrize("build", [
    lambda: arrays.Array((2, 2), [0] * 4, BOOL),
    lambda: make_array((I2, 2), [0] * 4, BOOL),
    lambda: zero_array((I2, 2), BOOL),
    lambda: full_array((2,), BOOL),
    lambda: random_array((2, I2), BOOL, random.Random(0)),
    lambda: kronecker(2, 2, BOOL),
], ids=["Array", "make_array", "zero_array", "full_array", "random_array", "kronecker"])
def test_an_axis_that_is_not_an_index_set_is_refused(build):
    # each raised a raw AttributeError: 'int' object has no attribute 'size'
    with pytest.raises(PlexusError) as err:
        build()
    assert str(err.value) == "[BAD_AXIS] axis 2 is not an index set"


@pytest.mark.parametrize("build", [
    lambda: arrays.Array((I2,), [0, 1], "boolean"),
    lambda: make_array((I2,), [0, 1], "boolean"),
], ids=["Array", "make_array"])
def test_a_semiring_that_is_not_a_semiring_is_refused(build):
    # fish on such arrays raised a raw AttributeError: 'str' object has no attribute 'dot'
    with pytest.raises(PlexusError) as err:
        build()
    assert str(err.value) == "[UNKNOWN_KIND] semiring 'boolean' is not a Semiring"


def test_make_array_validates_elements():
    with pytest.raises(PlexusError) as err:
        make_array((I2,), [0, 2], BOOL)
    assert err.value.code == "BAD_ELEMENT"


def test_row_major_offsets():
    a = make_array((I2, J3), list(range(6)), NAT)
    for i in range(2):
        for j in range(3):
            assert a.entry((i, j)) == i * 3 + j


def test_immutability():
    a = make_array((I2,), [0, 1], BOOL)
    with pytest.raises(AttributeError):
        a.entries = [1, 1]
    with pytest.raises(AttributeError):  # deleting an attribute succeeded
        del a.entries
    assert a.entries == (0, 1)


@pytest.mark.parametrize("size", [0, -1, "2", True, 2.5])
def test_index_set_size_must_be_a_positive_int(size):
    # "2" raised a raw TypeError, and True and 2.5 were accepted
    with pytest.raises(PlexusError) as err:
        IndexSet("I", size)
    assert err.value.code == "BAD_INDEX_SET"


def test_equality_is_axiswise_and_pointwise():
    a = make_array((I2,), [1, 0], BOOL)
    assert a == make_array((I2,), [1, 0], BOOL)
    assert a != make_array((J2,), [1, 0], BOOL)
    assert a != make_array((I2,), [1, 1], BOOL)
    f = make_semiring("float64")
    x = make_array((I2,), [0.3, 1.0], f)
    y = make_array((I2,), [0.1 + 0.2, 1.0], f)
    assert x == y


def test_reorder_transpose():
    a = make_array((I2, J3), list(range(6)), NAT)
    t = reorder(a, (1, 0))
    assert t.axes == (J3, I2)
    for i in range(2):
        for j in range(3):
            assert t.entry((j, i)) == a.entry((i, j))


def test_reorder_cycle_against_brute_force():
    # axis t of the input becomes axis sigma[t] of the result
    a = make_array((I2, J2, K2), list(range(8)), NAT)
    sigma = (2, 0, 1)
    r = reorder(a, sigma)
    assert r.axes == (J2, K2, I2)
    for idx in itertools.product(range(2), repeat=3):
        out = [0, 0, 0]
        for t in range(3):
            out[sigma[t]] = idx[t]
        assert r.entry(out) == a.entry(idx)


def test_reorder_round_trip_random():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 4)
        axes = tuple(IndexSet(f"A{t}", rng.randint(1, 3)) for t in range(n))
        a = random_array(axes, MOD5, rng)
        sigma = list(range(n))
        rng.shuffle(sigma)
        inverse = [0] * n
        for t, s in enumerate(sigma):
            inverse[s] = t
        assert reorder(reorder(a, sigma), inverse) == a


def test_reorder_bad_permutation():
    a = make_array((I2, J2), [0, 0, 0, 0], BOOL)
    with pytest.raises(PlexusError):
        reorder(a, (0, 0))
    with pytest.raises(PlexusError):
        reorder(a, (0,))


def test_flatten_pair_row_major():
    a = make_array((I2, J2, K3), list(range(12)), NAT)
    flat = flatten(a, (1, 2))
    assert flat.order == 2
    assert flat.axes[0] == I2
    assert flat.axes[1].id == "(JxK)"
    assert flat.axes[1].size == 6
    assert flat.entry((1, 0 * 3 + 2)) == a.entry((1, 0, 2))
    for i, j, k in itertools.product(range(2), range(2), range(3)):
        assert flat.entry((i, j * 3 + k)) == a.entry((i, j, k))


def test_flatten_respects_group_order():
    a = make_array((I2, J2, K3), list(range(12)), NAT)
    flat = flatten(a, (2, 1))
    assert flat.axes[1].id == "(KxJ)"
    for i, j, k in itertools.product(range(2), range(2), range(3)):
        assert flat.entry((i, k * 2 + j)) == a.entry((i, j, k))


def test_flatten_bad_group():
    a = make_array((I2, J2), [0] * 4, BOOL)
    with pytest.raises(PlexusError):
        flatten(a, (0, 0))
    with pytest.raises(PlexusError):
        flatten(a, (0, 2))
    with pytest.raises(PlexusError):
        flatten(a, ())


def test_broaden_copies_along_new_axis():
    v = make_array((I2,), [5, 9], NAT)
    b = broaden(v, J3, 1)
    assert b.axes == (I2, J3)
    for i in range(2):
        for j in range(3):
            assert b.entry((i, j)) == v.entry((i,))
    front = broaden(v, J3, 0)
    assert front.axes == (J3, I2)
    assert front.entries == (5, 9, 5, 9, 5, 9)


def test_broaden_then_slice_round_trip():
    rng = random.Random(3)
    v = random_array((I2, K3), MOD5, rng)
    for pos in range(3):
        b = broaden(v, J2, pos)
        for val in range(2):
            assert slice_axes(b, {pos: val}) == v


def test_broaden_then_unary_contract_boolean():
    # OR of identical copies gives back the original relation
    rng = random.Random(4)
    for _ in range(10):
        r = random_array((I2, J2), BOOL, rng)
        for pos in range(3):
            assert unary_contract(broaden(r, K3, pos), pos) == r


def test_slice_currying():
    a = make_array((I2, J2, K2), list(range(8)), NAT)
    s = slice_axes(a, {1: 1})
    assert s.axes == (I2, K2)
    assert s.entries == (2, 3, 6, 7)
    assert slice_axes(a, {0: 1, 1: 0, 2: 1}).scalar() == 5
    # slicing in two steps agrees with slicing jointly
    assert slice_axes(s, {0: 1}) == slice_axes(a, {0: 1, 1: 1})


def test_slice_bad_assignment():
    a = make_array((I2,), [0, 1], BOOL)
    with pytest.raises(PlexusError):
        slice_axes(a, {1: 0})
    with pytest.raises(PlexusError):
        slice_axes(a, {0: 2})


def test_entrywise_identities():
    rng = random.Random(5)
    a = random_array((I2, J3), MOD5, rng)
    assert entrywise_add(a, zero_array((I2, J3), MOD5)) == a
    assert entrywise_mul(a, full_array((I2, J3), MOD5)) == a
    x = make_array((I2,), [1, 0], BOOL)
    y = make_array((I2,), [0, 0], BOOL)
    assert entrywise_add(x, y).entries == (1, 0)


def test_entrywise_shape_checks():
    a = make_array((I2,), [1, 0], BOOL)
    b = make_array((J2,), [1, 0], BOOL)
    with pytest.raises(PlexusError):
        entrywise_add(a, b)
    c = make_array((I2,), [1, 0], MOD5)
    with pytest.raises(PlexusError) as err:
        entrywise_mul(a, c)
    assert err.value.code == "SEMIRING_MISMATCH"


def _rel_a():
    return make_array((I2, J2), [1, 1, 0, 0], BOOL)


def _rel_b():
    return make_array((J2, K2), [0, 1, 1, 0], BOOL)


def test_multiplicative_incidence_oracle():
    a, b = _rel_a(), _rel_b()
    inc = multiplicative_incidence([a, b], [1, 0])
    assert inc.axes == (I2, J2, K2)
    for x, y, z in itertools.product(range(2), repeat=3):
        assert inc.entry((x, y, z)) == (a.entry((x, y)) & b.entry((y, z)))


def test_additive_incidence_oracle():
    a, b = _rel_a(), _rel_b()
    inc = additive_incidence([a, b], [1, 0])
    for x, y, z in itertools.product(range(2), repeat=3):
        assert inc.entry((x, y, z)) == (a.entry((x, y)) | b.entry((y, z)))


def test_incidence_single_array_is_identity():
    a = _rel_a()
    assert multiplicative_incidence([a], [0]) == a
    assert additive_incidence([a], [1]) == a


def test_incidence_order_bookkeeping():
    rng = random.Random(6)
    shared = IndexSet("S", 2)
    arrays = [
        random_array((I2, shared), MOD5, rng),
        random_array((shared, K3), MOD5, rng),
        random_array((J2, shared, J3), MOD5, rng),
    ]
    inc = multiplicative_incidence(arrays, [1, 0, 1])
    total = sum(a.order for a in arrays)
    assert inc.order == total - 3 + 1
    # shared axis kept once, at its position in the first array
    assert inc.axes == (I2, shared, K3, J2, J3)


def test_contract_relation_composition():
    a, b = _rel_a(), _rel_b()
    c = contract([a, b], [1, 0])
    assert c.axes == (I2, K2)
    assert c.entries == (1, 1, 0, 0)


def test_contract_ternary_dot():
    s = IndexSet("S", 3)
    u = make_array((s,), [1, 2, 3], NAT)
    v = make_array((s,), [2, 0, 1], NAT)
    w = make_array((s,), [1, 1, 2], NAT)
    out = contract([u, v, w], [0, 0, 0])
    assert out.order == 0
    want = sum(x * y * z for x, y, z in zip([1, 2, 3], [2, 0, 1], [1, 1, 2]))
    assert out.scalar() == want


def test_contract_order_bookkeeping():
    rng = random.Random(7)
    shared = IndexSet("S", 2)
    arrays = [random_array((I2, shared), MOD5, rng), random_array((shared, K3, J2), MOD5, rng)]
    out = contract(arrays, [1, 0])
    assert out.order == sum(a.order for a in arrays) - 2


def test_contract_equals_incidence_then_unary():
    rng = random.Random(8)
    shared = IndexSet("S", 3)
    for _ in range(10):
        a = random_array((I2, shared), MOD5, rng)
        b = random_array((J2, shared, K2), MOD5, rng)
        via = contract([a, b], [1, 1])
        inc = multiplicative_incidence([a, b], [1, 1])
        assert via == unary_contract(inc, 1)


def test_contract_conformability_error():
    a = make_array((I2,), [1, 0], BOOL)
    b = make_array((K3,), [1, 0, 1], BOOL)
    with pytest.raises(PlexusError) as err:
        contract([a, b], [0, 0])
    assert err.value.code == "CONFORMABILITY"


def test_unary_contract_examples():
    r = make_array((I2, J2), [1, 1, 0, 0], BOOL)
    assert unary_contract(r, 1) == make_array((I2,), [1, 0], BOOL)
    m = make_array((I2, J2), [1, 2, 3, 4], NAT)
    assert unary_contract(m, 0) == make_array((J2,), [4, 6], NAT)


def test_self_contract_trace():
    d = kronecker(2, K3, NAT)
    assert self_contract(d, 0, 1).scalar() == 3
    m = make_array((I2, IndexSet("I", 2)), [1, 2, 3, 4], NAT)
    assert self_contract(m, 0, 1).scalar() == 5


def test_self_contract_needs_matching_axes():
    m = make_array((I2, J3), [0] * 6, NAT)
    with pytest.raises(PlexusError):
        self_contract(m, 0, 1)


def test_tensor_product():
    u = make_array((I2,), [2, 0], NAT)
    v = make_array((J2,), [3, 4], NAT)
    t = tensor_product([u, v])
    assert t.axes == (I2, J2)
    for i, j in itertools.product(range(2), repeat=2):
        assert t.entry((i, j)) == u.entry((i,)) * v.entry((j,))
    assert tensor_product([u]) == u
    one = make_array((), [1], NAT)
    assert tensor_product([one, u]) == u
    assert tensor_product([u, one]) == u


def test_kronecker_identity_matrix():
    d = kronecker(2, K3, NAT)
    for i, j in itertools.product(range(3), repeat=2):
        assert d.entry((i, j)) == (1 if i == j else 0)


def test_kronecker_incidence_merges():
    # two deltas sharing one leg meet in a delta of the joint order
    for size in (2, 3):
        iset = IndexSet("I", size)
        d2 = kronecker(2, iset, BOOL)
        assert multiplicative_incidence([d2, d2], [1, 0]) == kronecker(3, iset, BOOL)


def test_kronecker_contraction_merges():
    for size in (2, 3):
        iset = IndexSet("I", size)
        d3 = kronecker(3, iset, NAT)
        assert contract([d3, d3], [2, 0]) == kronecker(4, iset, NAT)


def test_kronecker_subalgebra_random_composites():
    # any connected composite of deltas is the delta on its free legs
    rng = random.Random(9)
    for size in (2, 3):
        iset = IndexSet("I", size)
        for n1, n2, n3 in itertools.product((2, 3), repeat=3):
            d1, d2, d3 = (kronecker(n, iset, BOOL) for n in (n1, n2, n3))
            inc = multiplicative_incidence([d1, d2], [rng.randrange(n1), rng.randrange(n2)])
            assert inc == kronecker(n1 + n2 - 1, iset, BOOL)
            cont = contract([inc, d3], [rng.randrange(inc.order), rng.randrange(n3)])
            assert cont == kronecker(n1 + n2 - 2 + n3 - 1, iset, BOOL)


def test_kronecker_neutral_under_contraction():
    rng = random.Random(10)
    for axes in ((I2, J3), (I2, J2, K2)):
        a = random_array(axes, MOD5, rng)
        d = {ax: kronecker(2, ax, MOD5) for ax in set(axes)}
        for t, ax in enumerate(axes):
            out = contract([a, d[ax]], [t, 0])
            # the surviving delta leg lands at the end; put it back
            sigma = list(range(t)) + list(range(t + 1, a.order)) + [t]
            assert reorder(out, sigma) == a


def test_diagonal_extension():
    v = make_array((I2,), [2, 5], NAT)
    ext = diagonal_extension(v, 0)
    assert ext.axes == (I2, I2)
    assert ext.entries == (2, 0, 0, 5)
    assert unary_contract(ext, 0) == v
    assert unary_contract(ext, 1) == v
    assert self_contract(ext, 0, 1).scalar() == 7


def test_random_array_is_seed_deterministic():
    a = random_array((I2, J3), MOD5, random.Random(42))
    b = random_array((I2, J3), MOD5, random.Random(42))
    assert a == b


A3 = zero_array((I2, I2, I2), MOD5)


@pytest.mark.parametrize("call, code, bad", [
    (lambda: diagonal_extension(A3, 1.5), "BAD_AXIS", "1.5"),
    (lambda: diagonal_extension(A3, "0"), "BAD_AXIS", "'0'"),
    (lambda: broaden(A3, I2, 1.5), "BAD_AXIS", "1.5"),
    (lambda: slice_axes(A3, {0.0: 1}), "BAD_AXIS", "0.0"),
    (lambda: slice_axes(A3, {0: 1.0}), "BAD_INDEX", "1.0"),
    (lambda: flatten(A3, (0.0, 1)), "BAD_AXIS", "0.0"),
    (lambda: reorder(A3, [0.0, 1, 2]), "BAD_AXIS", "0.0"),
    (lambda: unary_contract(A3, 0.0), "BAD_AXIS", "0.0"),
    (lambda: self_contract(A3, True, 2), "BAD_AXIS", "True"),
    (lambda: contract([A3, A3], [0.0, 0]), "BAD_AXIS", "0.0"),
    (lambda: additive_incidence([A3, A3], [0, False]), "BAD_AXIS", "False"),
    (lambda: multiplicative_incidence([A3, A3], [0, "1"]), "BAD_AXIS", "'1'"),
    (lambda: A3.entry((0.0, 1, 0)), "BAD_INDEX", "0.0"),
    (lambda: A3.entry((True, 1, 0)), "BAD_INDEX", "True"),
], ids=["diagonal-extension-float", "diagonal-extension-str", "broaden", "slice-axis", "slice-value",
        "flatten", "reorder", "unary-contract", "self-contract-bool", "contract", "additive-incidence-bool",
        "multiplicative-incidence-str", "entry-float", "entry-bool"])
def test_positions_that_are_not_ints_are_refused(call, code, bad):
    # each raised a raw TypeError, or took 0.0 as 0 and True as 1
    with pytest.raises(PlexusError) as err:
        call()
    assert err.value.code == code
    assert str(err.value).endswith(f"must be an integer, got {bad}")


@pytest.mark.parametrize("call, code, message", [
    (lambda: reorder(A3, [0, 1, 5]), "BAD_PERMUTATION", "[0, 1, 5] is not a permutation of 0..2"),
    (lambda: slice_axes(A3, {3: 0}), "BAD_AXIS", "slice axis 3 out of range"),
    (lambda: slice_axes(A3, {0: 2}), "BAD_INDEX", "slice value 2 out of range for axis 0"),
    (lambda: self_contract(A3, 1, 1), "BAD_AXIS", "bad self-contraction axes (1, 1)"),
    (lambda: contract([A3, A3], [0, 3]), "BAD_AXIS", "shared axis 3 out of range"),
    (lambda: A3.entry((0, 1)), "BAD_INDEX", "expected 3 indices, got 2"),
    (lambda: A3.entry([0, 1, 2]), "BAD_INDEX", "index 2 out of range for I:2"),
    # each read another position's indicator, or raised a raw IndexError
    (lambda: indicator_array((I2, I2), (1,), MOD5), "BAD_INDEX", "expected 2 indices, got 1"),
    (lambda: indicator_array((I2, I2), (0, 2), MOD5), "BAD_INDEX", "index 2 out of range for I:2"),
    (lambda: indicator_array((I2, I2), (0, 5), MOD5), "BAD_INDEX", "index 5 out of range for I:2"),
    (lambda: broaden(A3, I2, 4), "BAD_AXIS", "broaden position 4 out of range"),
    (lambda: broaden(A3, I2, -1), "BAD_AXIS", "broaden position -1 out of range"),
    (lambda: unary_contract(A3, 3), "BAD_AXIS", "axis 3 out of range"),
    (lambda: diagonal_extension(A3, 3), "BAD_AXIS", "axis 3 out of range"),
], ids=["reorder", "slice-axis", "slice-value", "self-contract", "contract", "entry-count", "entry-range",
        "indicator-count", "indicator-range", "indicator-far", "broaden-past-the-end", "broaden-negative",
        "unary-contract", "diagonal-extension"])
def test_int_positions_keep_their_refusals(call, code, message):
    with pytest.raises(PlexusError) as err:
        call()
    assert (err.value.code, str(err.value)) == (code, f"[{code}] {message}")


@pytest.mark.parametrize("call, code, message", [
    (lambda: A3.entry(5), "BAD_INDEX", "an index must be a sequence of integers, got 5"),
    (lambda: reorder(A3, 5), "BAD_PERMUTATION", "5 is not a permutation of 0..2"),
    (lambda: flatten(A3, 0), "BAD_AXIS", "invalid axis group 0"),
    (lambda: slice_axes(A3, [(0, 1)]), "BAD_AXIS",
     "a slice assignment maps axis positions to values, got [(0, 1)]"),
    (lambda: contract([A3, A3], 5), "BAD_AXIS", "the shared axes must be a sequence of integers, got 5"),
    (lambda: contract(A3, [0, 0]), "BAD_AXIS", f"the operands must be a sequence of arrays, got {A3!r}"),
    (lambda: additive_incidence([A3, A3], None), "BAD_AXIS",
     "the shared axes must be a sequence of integers, got None"),
    (lambda: tensor_product(5), "BAD_AXIS", "the operands must be a sequence of arrays, got 5"),
    (lambda: contract([A3, 5], [0, 0]), "BAD_AXIS", "operand 5 is not an array"),
    (lambda: tensor_product([A3, "x"]), "BAD_AXIS", "operand 'x' is not an array"),
], ids=["entry", "reorder", "flatten", "slice-axes", "contract-axes", "contract-arrays",
        "additive-incidence-axes", "tensor-product", "contract-element", "tensor-product-element"])
def test_arguments_that_are_not_sequences_are_refused(call, code, message):
    # each escaped as a raw TypeError or AttributeError
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == f"[{code}] {message}"


@pytest.mark.parametrize("call, message", [
    (lambda: contract([], []), "need one shared axis per array"),
    (lambda: tensor_product([]), "tensor product of nothing"),
    # the kernel read `.semiring` or `.order` of the int first
    (lambda: einsum([(5, [0])], [0]), "operand 5 is not an array"),
    (lambda: einsum([(A3, [0, 1, 2]), (None, [0])], [0]), "operand None is not an array"),
    (lambda: entrywise_add(A3, 5), "operand 5 is not an array"),
    (lambda: entrywise_mul(A3, 5), "operand 5 is not an array"),
    # both read `.order` of their first argument before the kernel's check
    (lambda: entrywise_add(5, A3), "operand 5 is not an array"),
    (lambda: entrywise_mul(None, A3), "operand None is not an array"),
    # each escaped raw (a TypeError, IndexError or KeyError) before the kernel refused it
    (lambda: einsum([(A3, 5)], []), "the labels of an operand must be a sequence, got 5"),
    (lambda: einsum([], []), "the operands must be a nonempty list of (array, labels) pairs, got []"),
    (lambda: einsum([(A3, "ijk")], 5), "the output labels must be a sequence of hashable labels, got 5"),
    (lambda: einsum([(A3, [[1], [2], [3]])], []), "label [1] is not hashable"),
    (lambda: einsum([A3], []), f"the operands must be (array, labels) pairs, got {[A3]!r}"),
    (lambda: einsum([(A3, "ijk")], [[1]]), "the output labels must be a sequence of hashable labels, got [[1]]"),
    (lambda: einsum([(A3, "ijk")], "ix"), "output label 'x' labels no operand axis"),
    (lambda: einsum([(A3, "ijk")], "ii"), "output labels ['i', 'i'] repeat a label"),
], ids=["contract-nothing", "tensor-product-nothing", "kernel-first", "kernel-second", "entrywise-add",
        "entrywise-mul", "entrywise-add-first", "entrywise-mul-first", "kernel-labels-not-a-sequence",
        "kernel-no-operands", "kernel-output-not-a-sequence", "kernel-unhashable-label", "kernel-bare-array",
        "kernel-unhashable-output-label", "kernel-unknown-output-label", "kernel-repeated-output-label"])
def test_operand_lists_that_are_empty_or_hold_a_non_array_are_refused(call, message):
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == f"[BAD_AXIS] {message}"


@pytest.mark.parametrize("call, code, message", [
    (lambda: kronecker(2.0, I2, MOD5), "BAD_AXIS", "kronecker order must be an integer, got 2.0"),
    (lambda: kronecker(0, I2, MOD5), "BAD_AXIS", "kronecker order must be >= 1"),
    (lambda: diagonal_extension(A3, 0, 1.5), "BAD_AXIS", "copies must be an integer, got 1.5"),
    (lambda: diagonal_extension(A3, 0, 0), "BAD_AXIS", "copies must be >= 1"),
    (lambda: standard_diagram("chain", n=2.5), "BAD_REFERENCE", "chain edge count must be an integer, got 2.5"),
    (lambda: standard_diagram("chain", n=0), "BAD_REFERENCE", "chain needs a positive edge count"),
    (lambda: standard_diagram("chain"), "BAD_REFERENCE", "chain needs a positive edge count"),
], ids=["kronecker-float", "kronecker-zero", "copies-float", "copies-zero", "chain-float", "chain-zero",
        "chain-missing"])
def test_count_refusals_name_a_value_that_is_not_an_int(call, code, message):
    # a non-int is named and asked to be an integer; an int below the
    # bound, or no chain count at all, keeps the documented message
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == f"[{code}] {message}"


def test_a_warm_plan_never_skips_the_operand_check():
    # the plan is keyed by labels and sizes alone, so each call checks its operands before the lookup
    a = random_array((I2, I2), MOD5, random.Random(1))
    other_id = random_array((J2, J2), MOD5, random.Random(2))
    other_semiring = random_array((I2, I2), make_semiring("int_mod", 7), random.Random(3))
    arrays._plan.cache_clear()
    einsum([(a, "ij"), (a, "jk")], "ik")
    for b, code in ((other_id, "CONFORMABILITY"), (other_semiring, "SEMIRING_MISMATCH"), (5, "BAD_AXIS")):
        with pytest.raises(PlexusError) as err:
            einsum([(a, "ij"), (b, "jk")], "ik")
        assert err.value.code == code
    assert arrays._plan.cache_info()[:2] == (0, 1)  # no hit: each refusal came before the lookup
    einsum([(a, "ij"), (a, "jk")], "ik")
    assert arrays._plan.cache_info()[:2] == (1, 1)


def test_a_plan_steps_only_through_pairs_that_share_a_label():
    # the outer product of the two vectors is smaller than any connected pair's result, but a
    # connected pair is left at each step until only the two disconnected parts remain
    x, y, m = (random_array(axes, MOD5, random.Random(4)) for axes in ((I2,), (K2,), (I2, J3, K2)))
    arrays._plan.cache_clear()
    got = einsum([(x, "i"), (y, "k"), (m, "ijk")], "j")
    labels = (("i",), ("k",), ("i", "j", "k"))
    assert [step.pair for step in arrays._plan(labels, (2, 2, 3), ("j",))] == [(0, 2), (0, 1)]
    want = [sum(x.entry((i,)) * y.entry((k,)) * m.entry((i, j, k)) for i in range(2) for k in range(2)) % 5
            for j in range(3)]
    assert list(got.entries) == want


def test_plans_are_bounded_and_keep_their_grids_compact():
    arrays._plan.cache_clear()
    a = random_array((I2, J3, K2), MOD5, random.Random(5))
    einsum([(a, "ijk")], "kji")
    assert arrays._plan.cache_info().maxsize == arrays.PLANS
    for step in arrays._plan((("i", "j", "k"),), (2, 3, 2), ("k", "j", "i")):
        assert all(isinstance(g, (range, array)) for g in step.grids)
