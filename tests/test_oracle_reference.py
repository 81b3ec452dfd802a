"""`evaluate_formula_oracle` against the loop it replaces, kept here as a
reference: one total vertex assignment at a time, each edge's offset summed
from its strides, `one` multiplied by the edges' entries in edge order, and
the term added into its output entry. The blocked oracle must give
repr-identical axes and entries, or the same error code, on derandomized
hypothesis diagrams over all five semirings (float64 included, where another
order of multiplication or addition shows), on diagrams whose assignments
span several blocks, whose last vertex alone outgrows a block, or whose
blocks hold a run of several values of one vertex, on a scalar
output, on diagrams with no marked vertex, on size-1 vertices, on nat64 sums
either side of 2^64 - 1, and on min-plus infinity."""
import itertools
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus import (  # noqa: E402
    Array,
    BoundEdge,
    Diagram,
    Hyperedge,
    IndexSet,
    PlexusError,
    Vertex,
    build_diagram,
    default_binding,
    evaluate_formula_oracle,
    make_array,
    parse_semiring,
    random_array,
    standard_diagram,
)
from plexus.arrays import _label_axes  # noqa: E402
from plexus.evaluator import BLOCK, _check_binding, _operands, _output_order  # noqa: E402
from plexus.semiring import NAT64_MAX  # noqa: E402

SEMIRINGS = [parse_semiring(t) for t in ("boolean", "nat64", "int-mod:5", "min-plus", "float64")]
BOUNDED = settings(max_examples=120, derandomize=True, deadline=None, database=None)
NAT64 = parse_semiring("nat64")
MIN_PLUS = parse_semiring("min-plus")


def loop_oracle(d, binding, output_order=None):
    """The formula oracle one total vertex assignment at a time, after the
    same binding, output-order and operand checks."""
    _check_binding(d, binding)
    free = _output_order(d, output_order)
    _label_axes(_operands(d, binding))
    vids = d.vertex_ids()
    slot = {v: n for n, v in enumerate(vids)}
    s = binding[d.edge_ids()[0]].array.semiring
    add, mul = s.reference_ops()

    def strides(legs):
        pairs, k = [], 1
        for v in reversed(legs):
            pairs.append((slot[v], k))
            k *= d.vertices[v].index_set.size
        return pairs, k

    edges = [(be.array.entries, strides(sorted(be.leg_to_axis, key=be.leg_to_axis.get))[0])
             for be in map(binding.get, d.edges)]
    out, count = strides(free)
    entries = [s.zero()] * count
    for total in itertools.product(*(range(d.vertices[v].index_set.size) for v in vids)):
        term = s.one()
        for values, pairs in edges:
            term = mul(term, values[sum(total[p] * k for p, k in pairs)])
        off = sum(total[p] * k for p, k in out)
        entries[off] = add(entries[off], term)
    s.check_range(entries)
    return Array(tuple(d.vertices[v].index_set for v in free), entries, s)


def outcome(engine, d, binding, order):
    """The repr of the axes and entries, or the code of the error raised."""
    try:
        got = engine(d, binding, order)
    except PlexusError as err:
        return err.code
    return repr(got.axes), repr(list(got.entries))


def same(d, binding, order=None):
    """The blocked oracle's outcome is the loop's; that outcome."""
    want = outcome(loop_oracle, d, binding, order)
    assert outcome(evaluate_formula_oracle, d, binding, order) == want
    return want


def random_binding(d, s, rng):
    """Random arrays on every edge of d, legs in natural order."""
    return default_binding(d, {eid: random_array([d.vertices[v].index_set for v in sorted(e.legs)], s, rng)
                               for eid, e in d.edges.items()})


@BOUNDED
@given(st.data())
def test_the_oracle_matches_the_loop_on_random_diagrams(data):
    s = data.draw(st.sampled_from(SEMIRINGS))
    nverts = data.draw(st.integers(1, 6))
    isets = [IndexSet(f"S{n}", n) for n in data.draw(st.lists(st.integers(1, 4), min_size=nverts,
                                                                max_size=nverts))]
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
    same(d, binding, list(data.draw(st.permutations(d.free_vertices()))))


def _sized(sizes, marked, legs):
    """A diagram on vertices v0, v1, ... of the given sizes (index sets S<n>)."""
    vertices = [(f"v{t}", IndexSet(f"S{n}", n), t in marked) for t, n in enumerate(sizes)]
    return build_diagram(vertices, [(f"e{k}", tuple(f"v{t}" for t in ls)) for k, ls in enumerate(legs)])


SPANNING = {
    "fish size 4, four full blocks": standard_diagram("fish", size=4),
    "long_fish size 3, 27 blocks of 729": standard_diagram("long_fish", size=3),
    "sizes 3 5 7 2 11, 3 blocks of 770": _sized((3, 5, 7, 2, 11), {1, 3, 4}, [(0, 1, 4), (1, 2, 3), (3, 4), (2,)]),
    "last vertex above a block": _sized((2, 3, BLOCK + 76), {1, 2}, [(0, 2), (1, 2), (0, 1)]),
    "runs of 3 then 2 of a lead of 5": _sized((2, 5, 300), {1}, [(0, 1), (1, 2), (0, 2)]),
}


@pytest.mark.parametrize("s", [SEMIRINGS[2], SEMIRINGS[4]], ids=lambda s: s.name)
@pytest.mark.parametrize("name", list(SPANNING))
def test_the_oracle_matches_the_loop_across_blocks(name, s):
    d = SPANNING[name]
    count = math.prod(v.index_set.size for v in d.vertices.values())
    assert count > BLOCK
    same(d, random_binding(d, s, random.Random(count)))


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_the_oracle_matches_the_loop_on_small_shapes(s):
    rng = random.Random(3)
    shapes = [
        _sized((2, 3, 2), {0, 1, 2}, [(0, 1), (1, 2), (2, 0)]),  # every vertex marked: a scalar
        _sized((2, 3), set(), [(0, 1)]),  # nothing marked: a reordering
        _sized((2, 3, 2), set(), [(0,), (1, 2), (2, 0)]),
        _sized((1, 1, 1, 1), {1, 2}, [(0, 1), (1, 2), (2, 3)]),  # size-1 vertices
        _sized((1, 3, 1, 2), {0, 1}, [(0, 1, 3), (1, 2), (0, 3)]),
    ]
    scalar = same(shapes[0], random_binding(shapes[0], s, rng))
    assert scalar[0] == "()"
    for d in shapes[1:]:
        for _ in range(4):
            same(d, random_binding(d, s, rng))
        order = d.free_vertices()[::-1]
        same(d, random_binding(d, s, rng), order)


@pytest.mark.parametrize("top, code", [(NAT64_MAX, None), (NAT64_MAX + 1, "OVERFLOW")])
def test_nat64_either_side_of_the_overflow_boundary(top, code):
    # vee at size 2: out[i, k] = a[i, 0] b[0, k] + a[i, 1] b[1, k], with one
    # entry summing to `top` from two terms; on chain(3) at size 1, one
    # product of three entries reaches 2^64 - 1, 2^64 or 2^80 times 0
    d = standard_diagram("vee")
    I2 = IndexSet("I", 2)
    half = top // 2
    a = make_array((I2, I2), [half, top - half, 1, 0], NAT64)
    b = make_array((I2, I2), [1, 0, 1, 0], NAT64)
    got = same(d, default_binding(d, {"e0": a, "e1": b}))
    assert got == code if code else got[1] == repr([top, 0, 1, 0])
    chain = standard_diagram("chain", n=3, size=1)
    I1 = IndexSet("I", 1)
    for values in ([2**32 - 1, 2**32 + 1, 1], [2**32, 2**32, 1], [2**40, 2**40, 0]):
        arrays = {f"e{t}": make_array((I1, I1), [v], NAT64) for t, v in enumerate(values)}
        same(chain, default_binding(chain, arrays))


def test_min_plus_infinity():
    d = standard_diagram("zee", size=3)
    I3 = IndexSet("I", 3)
    inf = math.inf
    full = make_array((I3, I3), [inf] * 9, MIN_PLUS)
    some = make_array((I3, I3), [0, inf, 4, inf, inf, inf, 2, inf, 7], MIN_PLUS)
    for arrays in ((full, some, some), (some, some, some), (some, full, some), (some, some, full)):
        got = same(d, default_binding(d, dict(zip(("e0", "e1", "e2"), arrays))))
        assert "inf" in got[1]


def test_the_oracle_refuses_what_the_loop_refuses():
    d = standard_diagram("vee")
    I2 = IndexSet("I", 2)
    a = make_array((I2, I2), [1, 0, 0, 1], SEMIRINGS[2])
    mixed = {"e0": BoundEdge(a, {"v0": 0, "v1": 1}),
             "e1": BoundEdge(make_array((I2, I2), [1, 0, 0, 1], NAT64), {"v1": 0, "v2": 1})}
    assert same(d, mixed) == "SEMIRING_MISMATCH"
    assert same(d, default_binding(d, {"e0": a, "e1": a}), ["v0"]) == "BAD_REFERENCE"
    big = make_array((I2, I2), [1e308, 1e308, 0.0, 1.0], SEMIRINGS[4])
    assert same(d, default_binding(d, {"e0": big, "e1": big})) == "OVERFLOW"
