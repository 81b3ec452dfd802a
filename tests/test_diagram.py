"""Marked hypergraphs: structure validation, the standard library,
canonical certificates, DOT export."""
import itertools
import random

import pytest

from plexus import (
    IndexSet,
    PlexusError,
    build_diagram,
    canonical_form,
    is_isomorphic,
    standard_diagram,
    to_dot,
)

I2 = IndexSet("I", 2)


def test_vee_shape():
    d = standard_diagram("vee")
    assert len(d.vertices) == 3
    assert d.marked_vertices() == ["v1"]
    assert d.free_vertices() == ["v0", "v2"]
    assert all(len(e.legs) == 2 for e in d.edges.values())


def test_zee_shape():
    d = standard_diagram("zee")
    assert len(d.vertices) == 4
    assert len(d.marked_vertices()) == 2
    assert len(d.edges) == 3
    assert all(len(e.legs) == 2 for e in d.edges.values())


def test_fish_shape():
    d = standard_diagram("fish")
    assert len(d.vertices) == 6
    assert len(d.marked_vertices()) == 3
    assert len(d.free_vertices()) == 3
    assert len(d.edges) == 3
    assert all(len(e.legs) == 3 for e in d.edges.values())


def test_long_fish_shape():
    d = standard_diagram("long_fish")
    assert len(d.edges) == 5
    assert all(len(e.legs) == 3 for e in d.edges.values())
    assert len(d.marked_vertices()) == 6
    assert len(d.free_vertices()) == 3


def test_bm_shape():
    d = standard_diagram("bm")
    assert len(d.vertices) == 4
    assert d.marked_vertices() == ["v3"]
    assert len(d.edges) == 3
    assert all(len(e.legs) == 3 for e in d.edges.values())
    # the center sits in every plex; each pair of plexes also shares a free vertex
    for e in d.edges.values():
        assert "v3" in e.legs
    for e1, e2 in itertools.combinations(d.edges.values(), 2):
        shared = set(e1.legs) & set(e2.legs)
        assert shared - {"v3"}


def test_free_vertex_counts():
    expected = {
        "vee": 2,
        "zee": 2,
        "fish": 3,
        "long_fish": 3,
        "bm": 3,
        "trinity_mid": 3,
        "trinity_right": 3,
    }
    for name, count in expected.items():
        assert len(standard_diagram(name).free_vertices()) == count
    assert len(standard_diagram("chain", n=5).free_vertices()) == 2


def test_chain_shapes():
    for n in (1, 2, 5):
        d = standard_diagram("chain", n=n)
        assert len(d.edges) == n
        assert len(d.vertices) == n + 1
        assert len(d.marked_vertices()) == n - 1
    assert is_isomorphic(standard_diagram("chain", n=2), standard_diagram("vee"))
    with pytest.raises(PlexusError):
        standard_diagram("chain")


def test_unknown_standard_name():
    with pytest.raises(PlexusError):
        standard_diagram("octopus")


@pytest.mark.parametrize("vertices, edges, message", [
    ([("v0", I2, False), ("v0", I2, True)], [], "duplicate vertex id v0"),
    ([("v0", I2, False), ("v1", I2, False)], [("e0", ("v0", "v1")), ("e0", ("v0", "v1"))],
     "duplicate edge id e0"),
], ids=["vertex", "edge"])
def test_duplicate_ids_are_refused(vertices, edges, message):
    with pytest.raises(PlexusError) as err:
        build_diagram(vertices, edges)
    assert str(err.value) == f"[INVALID_DIAGRAM] {message}"


def test_repeated_leg_rejected():
    with pytest.raises(PlexusError) as err:
        build_diagram([("v0", I2, False), ("v1", I2, True)], [("e0", ("v0", "v0"))])
    assert err.value.code == "INVALID_DIAGRAM"


def test_unknown_leg_rejected():
    with pytest.raises(PlexusError) as err:
        build_diagram([("v0", I2, False)], [("e0", ("v0", "vx"))])
    assert err.value.code == "INVALID_DIAGRAM"


def test_isolated_vertex_rejected():
    with pytest.raises(PlexusError) as err:
        build_diagram(
            [("v0", I2, False), ("v1", I2, False), ("v2", I2, False)],
            [("e0", ("v0", "v1"))],
        )
    assert err.value.code == "INVALID_DIAGRAM"


def test_parallel_edges_rejected():
    with pytest.raises(PlexusError) as err:
        build_diagram(
            [("v0", I2, False), ("v1", I2, False)],
            [("e0", ("v0", "v1")), ("e1", ("v1", "v0"))],
        )
    assert err.value.code == "INVALID_DIAGRAM"


def test_empty_edge_rejected():
    with pytest.raises(PlexusError):
        build_diagram([("v0", I2, False)], [("e0", ())])


def test_immutable():
    d = standard_diagram("vee")
    with pytest.raises(AttributeError):
        d.vertices = {}


def test_degree_and_incidence():
    d = standard_diagram("fish")
    assert d.degree("v2") == 2
    assert d.degree("v0") == 1
    assert d.incident_edges("v3") == ["e1", "e2"]


def _relabel(d, rng):
    vids = d.vertex_ids()
    new = [f"w{t}" for t in range(len(vids))]
    rng.shuffle(new)
    vmap = dict(zip(vids, new))
    verts = [(vmap[v], d.vertices[v].index_set, d.vertices[v].marked) for v in vids]
    eids = d.edge_ids()
    enew = [f"f{t}" for t in range(len(eids))]
    rng.shuffle(enew)
    edges = [(enew[k], tuple(vmap[v] for v in d.edges[e].legs)) for k, e in enumerate(eids)]
    return build_diagram(verts, edges)


def test_canonical_form_relabel_invariant():
    rng = random.Random(13)
    for name in ("vee", "zee", "fish", "long_fish", "bm", "trinity_mid", "trinity_right"):
        d = standard_diagram(name)
        cert = canonical_form(d)
        for _ in range(100):
            assert canonical_form(_relabel(d, rng)) == cert


def test_canonical_form_separates_standards():
    names = ("vee", "zee", "fish", "long_fish", "bm", "trinity_mid", "trinity_right")
    certs = [canonical_form(standard_diagram(name)) for name in names]
    assert len(set(certs)) == len(names)


def test_trinity_variants_differ():
    assert not is_isomorphic(
        standard_diagram("trinity_mid"), standard_diagram("trinity_right")
    )
    assert not is_isomorphic(standard_diagram("fish"), standard_diagram("bm"))


def test_isomorphism_respects_cardinality():
    d1 = standard_diagram("fish", size=2)
    d2 = standard_diagram("fish", size=3)
    assert is_isomorphic(d1, standard_diagram("fish", size=2))
    assert not is_isomorphic(d1, d2)
    # one resized vertex breaks it too
    base = standard_diagram("fish")
    verts = [
        (v, IndexSet("J", 3) if v == "v5" else base.vertices[v].index_set, base.vertices[v].marked)
        for v in base.vertex_ids()
    ]
    edges = [(e, base.edges[e].legs) for e in base.edge_ids()]
    assert not is_isomorphic(base, build_diagram(verts, edges))


def test_to_dot_points_and_cliques():
    d = standard_diagram("vee")
    text = to_dot(d)
    assert "shape=point" in text
    assert 'fillcolor=black xlabel="v1:I"' in text
    assert '"v0" -- "v1" [label="e0"];' in text
    assert text.count("--") == 2
    fish = to_dot(standard_diagram("fish"))
    # each 3-plex renders as a triangle
    assert fish.count("--") == 9


def test_to_dot_escapes_backslashes_and_quotes():
    # a quote or backslash in an id or label must not end its quoted string
    d = build_diagram([('a"b', IndexSet('J"', 2), True), ("w\\", I2, False)],
                      [("e0", ('a"b', "w\\"), 'x"];')])
    assert to_dot(d).splitlines() == [
        "graph plex {",
        r'  "a\"b" [shape=point style=filled fillcolor=black xlabel="a\"b:J\""];',
        r'  "w\\" [shape=point style=filled fillcolor=white xlabel="w\\:I"];',
        r'  "a\"b" -- "w\\" [label="x\"];"];',
        "}",
    ]


def test_edge_label_defaults_to_id():
    d = standard_diagram("zee")
    assert [d.edges[e].label for e in d.edge_ids()] == ["e0", "e1", "e2"]
