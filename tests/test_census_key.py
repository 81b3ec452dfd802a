"""The census key against `canonical_form`: a marking's key is read off the
labelling search of its unmarked skeleton, and must be equal for two marked
hypergraphs exactly when their canonical forms are. Hypothesis examples are
derandomized and bounded, so runs repeat exactly."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus import IndexSet, build_diagram, canonical_form  # noqa: E402
from plexus.diagram import _labelling_search  # noqa: E402
from plexus.rewrite import _marking_key  # noqa: E402

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def census_key(d):
    skeleton = build_diagram(
        [(v, d.vertices[v].index_set, False) for v in d.vertex_ids()],
        [(e, d.edges[e].legs) for e in d.edge_ids()],
    )
    return _marking_key(_labelling_search(skeleton), d.free_vertices())


def random_hypergraph(rng):
    """2 to 7 vertices on index sets of size 2 or 3 (mostly 2), 1 to 4 random
    edges of order 1 to 3, a pair edge for each vertex left out, random marks."""
    n = rng.randint(2, 7)
    legs = {tuple(sorted(rng.sample(range(n), rng.randint(1, min(3, n))))) for _ in range(rng.randint(1, 4))}
    for v in range(n):
        if not any(v in e for e in legs):
            legs.add(tuple(sorted({v, rng.randrange(n)})))
    sizes = [rng.choice((2, 2, 2, 3)) for _ in range(n)]
    marks = [rng.random() < 0.5 for _ in range(n)]
    return n, sorted(legs), sizes, marks


def build(n, legs, sizes, marks, names):
    return build_diagram(
        [(names[v], IndexSet("I", sizes[v]), marks[v]) for v in range(n)],
        [(f"e{k}", tuple(names[v] for v in e)) for k, e in enumerate(legs)],
    )


@BOUNDED
@given(st.integers(0, 2**32))
def test_census_key_is_equal_iff_canonical_form_is(seed):
    rng = random.Random(seed)
    n, legs, sizes, marks = random_hypergraph(rng)
    d = build(n, legs, sizes, marks, [f"v{v}" for v in range(n)])
    # a relabelled copy, with its edges listed in another order
    perm = rng.sample(range(n), n)
    names = [f"w{perm[v]}" for v in range(n)]
    shuffled = rng.sample(legs, len(legs))
    same = build(n, shuffled, sizes, marks, names)
    assert census_key(same) == census_key(d)
    # the copy again with one, two or no marks flipped: some of these are
    # isomorphic to `d` (a symmetric flip), most are not
    for flips in (1, 2, 0):
        flipped = list(marks)
        for v in rng.sample(range(n), min(flips, n)):
            flipped[v] = not flipped[v]
        e = build(n, shuffled, sizes, flipped, names)
        assert (census_key(e) == census_key(d)) == (canonical_form(e) == canonical_form(d))
    # another random hypergraph
    other = random_hypergraph(rng)
    f = build(*other, [f"u{v}" for v in range(other[0])])
    assert (census_key(f) == census_key(d)) == (canonical_form(f) == canonical_form(d))
