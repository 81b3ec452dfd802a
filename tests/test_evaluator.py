"""Diagram evaluation: contraction of bound arrays over marked vertices,
checked against an independent formula transcription."""
import itertools
import random
import time

import pytest

from plexus import (
    BoundEdge,
    IndexSet,
    PlexusError,
    build_diagram,
    default_binding,
    evaluate,
    evaluate_formula_oracle,
    insert_kronecker,
    kronecker,
    make_array,
    make_semiring,
    random_array,
    random_binding,
    reorder,
    standard_diagram,
)
from plexus import arrays

BOOL = make_semiring("boolean")
MOD5 = make_semiring("int_mod", 5)


def _uniform_binding(d, semiring, rng, size=2):
    iset = IndexSet("I", size)
    arrays = {}
    for eid in d.edge_ids():
        n = len(d.edges[eid].legs)
        arrays[eid] = random_array((iset,) * n, semiring, rng)
    return default_binding(d, arrays)


def test_vee_is_relation_composition():
    d = standard_diagram("vee")
    iset = IndexSet("I", 2)
    a = make_array((iset, iset), [1, 1, 0, 0], BOOL)
    b = make_array((iset, iset), [0, 1, 1, 0], BOOL)
    out = evaluate(d, default_binding(d, {"e0": a, "e1": b}))
    assert out.entries == (1, 1, 0, 0)


def test_fish_with_identity_body_and_head():
    d = standard_diagram("fish")
    iset = IndexSet("I", 2)
    rng = random.Random(2)
    a = random_array((iset,) * 3, MOD5, rng)
    delta = kronecker(3, iset, MOD5)
    out = evaluate(d, default_binding(d, {"e0": a, "e1": delta, "e2": delta}))
    assert out == a


def test_single_edge_no_marks_is_a_reordering():
    I2, J3 = IndexSet("I", 2), IndexSet("J", 3)
    d = build_diagram([("v0", I2, False), ("v1", J3, False)], [("e0", ("v0", "v1"))])
    m = make_array((I2, J3), list(range(6)), make_semiring("nat64"))
    binding = default_binding(d, {"e0": m})
    assert evaluate(d, binding) == m
    assert evaluate(d, binding, output_order=["v1", "v0"]) == reorder(m, (1, 0))


def test_zee_against_inline_formula():
    d = standard_diagram("zee")
    rng = random.Random(3)
    for _ in range(20):
        binding = _uniform_binding(d, BOOL, rng)
        a, b, c = (binding[e].array for e in ("e0", "e1", "e2"))
        out = evaluate(d, binding)
        for x, w in itertools.product(range(2), repeat=2):
            want = 0
            for y, z in itertools.product(range(2), repeat=2):
                want |= a.entry((x, y)) & b.entry((y, z)) & c.entry((z, w))
            assert out.entry((x, w)) == want


def test_bm_against_inline_formula():
    # out[i,j,k] = sum_p a[i,j,p] b[i,p,k] c[p,j,k]
    d = standard_diagram("bm")
    iset = IndexSet("I", 2)
    rng = random.Random(4)
    for _ in range(10):
        a, b, c = (random_array((iset,) * 3, MOD5, rng) for _ in range(3))
        binding = {
            "e0": BoundEdge(a, {"v0": 0, "v1": 1, "v3": 2}),
            "e1": BoundEdge(b, {"v0": 0, "v3": 1, "v2": 2}),
            "e2": BoundEdge(c, {"v3": 0, "v1": 1, "v2": 2}),
        }
        out = evaluate(d, binding, output_order=["v0", "v1", "v2"])
        for i, j, k in itertools.product(range(2), repeat=3):
            want = 0
            for p in range(2):
                want += a.entry((i, j, p)) * b.entry((i, p, k)) * c.entry((p, j, k))
            assert out.entry((i, j, k)) == want % 5


def test_evaluate_agrees_with_formula_oracle():
    names = ("vee", "zee", "fish", "long_fish", "bm", "trinity_mid", "trinity_right")
    rng = random.Random(5)
    runs = 0
    while runs < 200:
        name = names[runs % len(names)]
        size = 2 + (runs // len(names)) % 2
        semiring = BOOL if runs % 2 else MOD5
        d = standard_diagram(name, size=size)
        binding = _uniform_binding(d, semiring, rng, size)
        assert evaluate(d, binding) == evaluate_formula_oracle(d, binding)
        runs += 1


def test_output_order_is_a_reordering():
    d = standard_diagram("fish")
    rng = random.Random(6)
    binding = _uniform_binding(d, MOD5, rng)
    order1 = d.free_vertices()
    for order2 in itertools.permutations(order1):
        sigma = [order2.index(v) for v in order1]
        assert evaluate(d, binding, list(order2)) == reorder(evaluate(d, binding, order1), sigma)


def test_kronecker_insertion_is_neutral():
    rng = random.Random(7)
    for name in ("vee", "zee", "fish"):
        d = standard_diagram(name)
        for _ in range(5):
            binding = _uniform_binding(d, MOD5, rng)
            base = evaluate(d, binding)
            for v in d.marked_vertices():
                for e in d.incident_edges(v):
                    d2, b2 = insert_kronecker(d, binding, v, e)
                    assert evaluate(d2, b2) == base


def test_insert_kronecker_bad_references():
    d = standard_diagram("vee")
    rng = random.Random(8)
    binding = _uniform_binding(d, BOOL, rng)
    with pytest.raises(PlexusError):
        insert_kronecker(d, binding, "vx", "e0")
    with pytest.raises(PlexusError):
        insert_kronecker(d, binding, "v0", "ex")
    with pytest.raises(PlexusError):
        insert_kronecker(d, binding, "v0", "e1")


@pytest.mark.parametrize("call, message", [
    (lambda: evaluate(build_diagram([], []), {}), "nothing bound: diagram has no edges"),
    # these raised a raw KeyError and TypeError
    (lambda: insert_kronecker(standard_diagram("fish"), {}, "v3", "e1"), "no array bound to edge e0"),
    (lambda: insert_kronecker(standard_diagram("fish"), 5, "v3", "e1"),
     "a binding must be a dict of edge ids, got int"),
], ids=["nothing-bound", "kronecker-missing-edge", "kronecker-not-a-dict"])
def test_binding_refusals_name_their_reason(call, message):
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == f"[BAD_REFERENCE] {message}"


def test_twist_changes_the_value():
    # two 3-plexes contracted along two repeated-index legs: the leg-to-axis
    # assignment is genuinely ambiguous and the two readings differ
    iset = IndexSet("I", 2)
    d = build_diagram(
        [("v0", iset, False), ("v1", iset, True), ("v2", iset, True), ("v3", iset, False)],
        [("e0", ("v0", "v1", "v2")), ("e1", ("v1", "v2", "v3"))],
    )
    rng = random.Random(9)
    found = False
    for _ in range(200):
        a = random_array((iset,) * 3, BOOL, rng)
        b = random_array((iset,) * 3, BOOL, rng)
        straight = {
            "e0": BoundEdge(a, {"v0": 0, "v1": 1, "v2": 2}),
            "e1": BoundEdge(b, {"v1": 0, "v2": 1, "v3": 2}),
        }
        twisted = {
            "e0": BoundEdge(a, {"v0": 0, "v1": 1, "v2": 2}),
            "e1": BoundEdge(b, {"v1": 1, "v2": 0, "v3": 2}),
        }
        if evaluate(d, straight) != evaluate(d, twisted):
            found = True
            break
    assert found


def test_twist_vanishes_on_identity_body():
    iset = IndexSet("I", 2)
    d = build_diagram(
        [("v0", iset, False), ("v1", iset, True), ("v2", iset, True), ("v3", iset, False)],
        [("e0", ("v0", "v1", "v2")), ("e1", ("v1", "v2", "v3"))],
    )
    delta = kronecker(3, iset, BOOL)
    rng = random.Random(10)
    for _ in range(20):
        a = random_array((iset,) * 3, BOOL, rng)
        straight = {
            "e0": BoundEdge(a, {"v0": 0, "v1": 1, "v2": 2}),
            "e1": BoundEdge(delta, {"v1": 0, "v2": 1, "v3": 2}),
        }
        twisted = {
            "e0": BoundEdge(a, {"v0": 0, "v1": 1, "v2": 2}),
            "e1": BoundEdge(delta, {"v1": 1, "v2": 0, "v3": 2}),
        }
        assert evaluate(d, straight) == evaluate(d, twisted)


def test_binding_errors():
    d = standard_diagram("vee")
    iset = IndexSet("I", 2)
    a = make_array((iset, iset), [1, 0, 0, 1], BOOL)
    with pytest.raises(PlexusError) as err:
        default_binding(d, {"e0": a})
    assert err.value.code == "BAD_REFERENCE"
    with pytest.raises(PlexusError) as err:
        default_binding(d, {"e0": a, "e1": a, "e9": a})
    assert err.value.code == "BAD_REFERENCE"
    wrong_order = make_array((iset,), [1, 0], BOOL)
    with pytest.raises(PlexusError) as err:
        default_binding(d, {"e0": a, "e1": wrong_order})
    assert err.value.code == "CONFORMABILITY"
    wrong_size = make_array((IndexSet("I", 3), IndexSet("I", 3)), [0] * 9, BOOL)
    with pytest.raises(PlexusError) as err:
        default_binding(d, {"e0": a, "e1": wrong_size})
    assert err.value.code == "CONFORMABILITY"


@pytest.mark.parametrize("order", [1, 3])
def test_bound_array_order_must_match_the_edge(order):
    # an order-3 array on a 2-leg edge used to evaluate silently as a[0, :, :],
    # an order-1 array to fail with a bare IndexError
    d = standard_diagram("vee")
    iset = IndexSet("I", 2)
    a = make_array((iset, iset), [1, 0, 0, 1], MOD5)
    wrong = make_array((iset,) * order, [k % 5 for k in range(2 ** order)], MOD5)
    binding = {"e0": BoundEdge(a, {"v0": 0, "v1": 1}), "e1": BoundEdge(wrong, {"v1": 0, "v2": 1})}
    with pytest.raises(PlexusError) as err:
        evaluate(d, binding)
    assert err.value.code == "CONFORMABILITY"
    assert f"edge e1 has 2 legs but array order {order}" in str(err.value)


def test_mixed_semirings_rejected():
    d = standard_diagram("vee")
    iset = IndexSet("I", 2)
    a = make_array((iset, iset), [1, 0, 0, 1], BOOL)
    b = make_array((iset, iset), [1, 0, 0, 1], MOD5)
    with pytest.raises(PlexusError) as err:
        evaluate(d, default_binding(d, {"e0": a, "e1": b}))
    assert err.value.code == "SEMIRING_MISMATCH"


def test_nat64_overflow_depends_only_on_the_result():
    # OVERFLOW iff an output entry exceeds 2^64 - 1, whatever the edge order
    nat = make_semiring("nat64")
    d = standard_diagram("chain", n=3, size=1)
    iset = IndexSet("I", 1)

    def binding(values):
        arrays = {f"e{t}": make_array((iset, iset), [v], nat) for t, v in enumerate(values)}
        return default_binding(d, arrays)

    for values in ([2**40, 2**40, 0], [0, 2**40, 2**40]):
        assert evaluate(d, binding(values)).entries == (0,)
        assert evaluate_formula_oracle(d, binding(values)).entries == (0,)
    assert evaluate(d, binding([2**32 - 1, 2**32 + 1, 1])).entries == (2**64 - 1,)
    for values in ([2**32, 2**32, 1], [2**40, 2**40, 2**40]):
        for engine in (evaluate, evaluate_formula_oracle):
            with pytest.raises(PlexusError) as err:
                engine(d, binding(values))
            assert err.value.code == "OVERFLOW"


def test_a_long_chain_is_planned_cold_within_budget():
    # the planner scores only the pairs that share a label and counts each label's terms, so a
    # chain of 64 matrices is planned in a few milliseconds even on a cleared plan cache
    mod7 = make_semiring("int_mod", 7)
    d = standard_diagram("chain", n=64, size=3)
    binding = random_binding(d, mod7, random.Random(1))
    arrays._plan.cache_clear()
    t0 = time.perf_counter()
    got = evaluate(d, binding)
    elapsed = time.perf_counter() - t0
    product = [[int(i == k) for k in range(3)] for i in range(3)]
    for t in range(64):  # legs in natural order: axis 0 is v<t>, axis 1 is v<t+1>
        m = binding[f"e{t}"].array
        product = [[sum(product[i][j] * m.entry((j, k)) for j in range(3)) % 7 for k in range(3)]
                   for i in range(3)]
    assert list(got.entries) == [x for row in product for x in row]
    assert elapsed < 0.25, f"cold evaluate(chain(64)) took {elapsed:.3f}s"
