"""Differential tests: every product that runs on the contraction kernel
(`evaluate`, `fish`, `contract`, `self_contract`, `tensor_product`,
`multiplicative_incidence`, `diagonal_extension`) against the independent
formula oracle, on hypothesis-drawn shapes over the exact semirings, and
`entrywise_mul` against the per-entry `Semiring.mul` on seeded draws over
all five kinds. Every product runs twice, planned on a cleared plan cache
and then from the cached plan, and the two results must be equal repr for
repr. Examples are derandomized and bounded, so runs repeat exactly."""
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus import arrays as kernel  # noqa: E402
from plexus import (  # noqa: E402
    ETA_VARIANTS,
    Array,
    BoundEdge,
    Diagram,
    Hyperedge,
    IndexSet,
    PlexusError,
    Vertex,
    contract,
    diagonal_extension,
    entrywise_mul,
    evaluate,
    evaluate_formula_oracle,
    fish,
    fish_output_order,
    kronecker,
    make_fish_binding,
    multiplicative_incidence,
    parse_semiring,
    random_array,
    self_contract,
    tensor_product,
)

SEMIRINGS = [parse_semiring(t) for t in ("boolean", "nat64", "int-mod:5", "min-plus")]
BOUNDED = settings(max_examples=120, derandomize=True, deadline=None, database=None)

semirings = st.sampled_from(SEMIRINGS)
sizes = st.integers(1, 3)


def _same(got, want):
    """Exact equality, down to the entry types (0/1 ints stay ints)."""
    assert got.axes == want.axes
    assert list(got.entries) == list(want.entries)
    assert [type(x) for x in got.entries] == [type(x) for x in want.entries]


def _cold_and_warm(product):
    """The product planned on a cleared plan cache, checked equal repr for
    repr to a second run from the cached plan."""
    kernel._plan.cache_clear()
    cold = product()
    assert repr(product()) == repr(cold)
    return cold


def _oracle(edges, marked, output_order, semiring):
    """Evaluate with the formula oracle. `edges` are (array, legs) pairs,
    leg t naming the vertex of axis t; vertex ids carry their index sets."""
    vertices, emap, binding = {}, {}, {}
    for k, (array, legs) in enumerate(edges):
        for v, ax in zip(legs, array.axes):
            vertices[v] = Vertex(v, ax, v in marked)
        emap[f"e{k}"] = Hyperedge(f"e{k}", tuple(legs))
        binding[f"e{k}"] = BoundEdge(array, {v: t for t, v in enumerate(legs)})
    return evaluate_formula_oracle(Diagram(vertices, emap), binding, output_order)


@BOUNDED
@given(st.data())
def test_evaluate_matches_oracle_on_random_diagrams(data):
    s = data.draw(semirings)
    nverts = data.draw(st.integers(1, 5))
    isets = [IndexSet(f"S{n}", n) for n in data.draw(st.lists(sizes, min_size=nverts, max_size=nverts))]
    leg_sets = data.draw(st.lists(
        st.lists(st.integers(0, nverts - 1), min_size=1, max_size=3, unique=True),
        min_size=1, max_size=4, unique_by=frozenset))
    used = sorted({v for legs in leg_sets for v in legs})
    marks = data.draw(st.lists(st.booleans(), min_size=len(used), max_size=len(used)))
    vertices = {f"v{v}": Vertex(f"v{v}", isets[v], m) for v, m in zip(used, marks)}
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    edges, binding = {}, {}
    for k, legs in enumerate(leg_sets):
        ids = [f"v{v}" for v in legs]
        axes_of = data.draw(st.permutations(range(len(ids))))  # the leg -> axis twist
        axes = [None] * len(ids)
        for v, t in zip(ids, axes_of):
            axes[t] = vertices[v].index_set
        edges[f"e{k}"] = Hyperedge(f"e{k}", tuple(ids))
        binding[f"e{k}"] = BoundEdge(random_array(axes, s, rng), dict(zip(ids, axes_of)))
    d = Diagram(vertices, edges)
    order = data.draw(st.permutations(d.free_vertices()))
    _same(_cold_and_warm(lambda: evaluate(d, binding, list(order))),
          evaluate_formula_oracle(d, binding, list(order)))


@BOUNDED
@given(semirings, st.lists(sizes, min_size=6, max_size=6), st.integers(0, 2**16))
def test_fish_matches_oracle_on_every_variant_and_twist(s, dims, seed):
    rng = random.Random(seed)
    I, J, P, Q, R, K = (IndexSet(name, n) for name, n in zip("IJPQRK", dims))
    for variant, (z, rev) in ETA_VARIANTS.items():
        t1, t2 = [p for p in range(3) if p != z]
        for twist in (False, True):
            def axes(x, y, w):
                out = [None] * 3
                out[t1], out[t2], out[z] = x, y, w
                return out

            tail = random_array(axes(I, J, P), s, rng)
            body = random_array(axes(R, Q, P) if twist else axes(Q, R, P), s, rng)
            head = random_array(axes(Q, R, K), s, rng)
            a, b, c = (head, body, tail) if rev else (tail, body, head)
            d, binding = make_fish_binding(a, b, c, variant, twist)
            _same(_cold_and_warm(lambda: fish(a, b, c, variant, twist)),
                  evaluate_formula_oracle(d, binding, fish_output_order(variant)))


def _arrays(data, s, count):
    """`count` arrays that share one index set S at a drawn axis each."""
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    shared = IndexSet("S", data.draw(sizes))
    arrays, positions = [], []
    for k in range(count):
        order = data.draw(st.integers(1 if k == count - 1 else 2, 3))  # leg sets stay distinct
        pos = data.draw(st.integers(0, order - 1))
        axes = [IndexSet(f"A{k}{t}", data.draw(sizes)) for t in range(order)]
        axes[pos] = shared
        arrays.append(random_array(axes, s, rng))
        positions.append(pos)
    return arrays, positions


def _legs(arrays, positions, shared):
    return [[shared if t == pos else f"a{k}_{t}" for t in range(a.order)]
            for k, (a, pos) in enumerate(zip(arrays, positions))]


@BOUNDED
@given(st.data())
def test_contract_and_incidence_match_oracle(data):
    s = data.draw(semirings)
    arrays, positions = _arrays(data, s, data.draw(st.integers(2, 3)))
    legs = _legs(arrays, positions, "s")
    edges = list(zip(arrays, legs))
    free = [v for ls in legs for v in ls if v != "s"]
    _same(_cold_and_warm(lambda: contract(arrays, positions)), _oracle(edges, {"s"}, free, s))
    kept = legs[0] + [v for ls in legs[1:] for v in ls if v != "s"]
    _same(_cold_and_warm(lambda: multiplicative_incidence(arrays, positions)), _oracle(edges, set(), kept, s))


@BOUNDED
@given(st.data())
def test_tensor_product_matches_oracle(data):
    s = data.draw(semirings)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    arrays = [random_array([IndexSet(f"A{k}{t}", data.draw(sizes)) for t in range(data.draw(st.integers(1, 3)))],
                           s, rng) for k in range(data.draw(st.integers(1, 3)))]
    legs = [[f"a{k}_{t}" for t in range(a.order)] for k, a in enumerate(arrays)]
    _same(_cold_and_warm(lambda: tensor_product(arrays)),
          _oracle(list(zip(arrays, legs)), set(), [v for ls in legs for v in ls], s))


@BOUNDED
@given(st.data())
def test_self_contract_and_diagonal_extension_match_oracle(data):
    s = data.draw(semirings)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    shared = IndexSet("S", data.draw(sizes))
    order = data.draw(st.integers(2, 4))
    i, j = sorted(data.draw(st.lists(st.integers(0, order - 1), min_size=2, max_size=2, unique=True)))
    axes = [IndexSet(f"A{t}", data.draw(sizes)) for t in range(order)]
    axes[i] = axes[j] = shared
    a = random_array(axes, s, rng)
    legs = [f"a{t}" for t in range(order)]
    # trace of axes i, j = closing them through two order-2 identities
    rest = [v for t, v in enumerate(legs) if t not in (i, j)]
    delta = kronecker(2, shared, s)
    edges = [(a, legs), (delta, [legs[j], "w"]), (delta, ["w", legs[i]])]
    _same(_cold_and_warm(lambda: self_contract(a, i, j)), _oracle(edges, {legs[i], legs[j], "w"}, rest, s))
    copies = data.draw(st.integers(1, 2))
    added = [f"c{n}" for n in range(copies)]
    edges = [(a, legs), (kronecker(copies + 1, shared, s), [legs[i], *added])]
    out = legs[: i + 1] + added + legs[i + 1:]
    _same(_cold_and_warm(lambda: diagonal_extension(a, i, copies)), _oracle(edges, set(), out, s))


# per kind, entries that reach its edge cases: nat64 products past 2^64 - 1,
# min-plus inf, float64 signed zeros and products that overflow to inf
EDGE_ENTRIES = {
    "boolean": (0, 1),
    "nat64": (0, 1, 2, 7, 2**32 - 1, 2**32, 2**33, 2**64 - 1),
    "int-mod:5": (0, 1, 2, 3, 4),
    "min-plus": (0, 1, 2, 5, math.inf),
    "float64": (0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 3.0e-7, 1e154, -1e155, 1e200),
}


def _per_entry_mul(a, b):
    """The entries of a * b one `Semiring.mul` at a time, or the error code."""
    s = a.semiring
    try:
        entries = [s.mul(x, y) for x, y in zip(a.entries, b.entries)]
        s.check_range(entries)
    except PlexusError as err:
        return err.code
    return entries


def test_entrywise_mul_matches_the_per_entry_product():
    rng = random.Random(11)
    seen = set()
    for k in range(1000):
        name = list(EDGE_ENTRIES)[k % 5]
        s, pool = parse_semiring(name), EDGE_ENTRIES[name]
        axes = [IndexSet(f"S{t}", rng.randint(1, 3)) for t in range(rng.randint(0, 3))]
        count = math.prod(ax.size for ax in axes)
        a, b = (Array(axes, [rng.choice(pool) for _ in range(count)], s) for _ in range(2))
        want = _per_entry_mul(a, b)
        try:
            got = _cold_and_warm(lambda: entrywise_mul(a, b))
        except PlexusError as err:
            assert err.code == want, (name, a, b)
            seen.add((name, err.code))
            continue
        assert got.axes == a.axes and got.semiring == s
        assert [type(x) for x in got.entries] == [type(x) for x in want]
        assert all(map(s.eq, got.entries, want)), (name, a, b)
        if name != "float64":
            assert list(got.entries) == want
        seen.add((name, math.inf in want))
    # nat64 and float64 overflowed, and min-plus products reached inf
    assert {("nat64", "OVERFLOW"), ("float64", "OVERFLOW"), ("min-plus", True)} <= seen
