"""Motif matching, rewrite application, multiway exploration, concurrency
reports, and the composition census."""
import itertools
import random

import pytest

from plexus import (
    IndexSet,
    Motif,
    PlexusError,
    apply_rewrite,
    apply_rewrite_bound,
    build_diagram,
    canonical_form,
    check_concurrency,
    enumerate_compositions,
    evaluate,
    fish_motif,
    find_matches,
    make_semiring,
    multiway,
    random_binding,
    semantic_confluence,
    semantic_confluence_binding,
    standard_diagram,
    state_key,
    vee_motif,
)
from plexus import rewrite
from plexus.core import natural_key

MOD7 = make_semiring("int_mod", 7)


def test_vee_matches_on_zee():
    ms = find_matches(standard_diagram("zee"), vee_motif())
    assert len(ms) == 2
    pairs = sorted(tuple(sorted(m.edge_map.values())) for m in ms)
    assert pairs == [("e0", "e1"), ("e1", "e2")]


def test_match_images_are_injective_and_exact():
    host = standard_diagram("long_fish")
    for m in find_matches(host, fish_motif()):
        assert len(set(m.vertex_map.values())) == len(m.vertex_map)
        assert len(set(m.edge_map.values())) == len(m.edge_map)
        for pe, he in m.edge_map.items():
            motif_legs = fish_motif().pattern.edges[pe].legs
            host_legs = host.edges[he].legs
            assert {m.vertex_map[v] for v in motif_legs} == set(host_legs)


def test_motif_needs_free_vertices():
    iset = IndexSet("I", 2)
    with pytest.raises(PlexusError) as err:
        Motif(build_diagram([("v0", iset, True), ("v1", iset, True)], [("e0", ("v0", "v1"))]))
    assert err.value.code == "INVALID_MOTIF"


def test_motif_must_be_connected():
    iset = IndexSet("I", 2)
    pattern = build_diagram(
        [("v0", iset, False), ("v1", iset, False), ("v2", iset, False), ("v3", iset, False)],
        [("e0", ("v0", "v1")), ("e1", ("v2", "v3"))],
    )
    with pytest.raises(PlexusError) as err:
        Motif(pattern)
    assert err.value.code == "INVALID_MOTIF"


def test_apply_rewrite_structure():
    host = standard_diagram("zee")
    motif = vee_motif()
    m = [x for x in find_matches(host, motif) if set(x.edge_map.values()) == {"e0", "e1"}][0]
    out = apply_rewrite(host, m, motif)
    assert sorted(out.edges) == ["e2", "r0"]
    r0 = out.edges["r0"]
    assert r0.label == "(e0e1)"
    assert r0.legs == ("v0", "v2")
    assert sorted(out.vertices) == ["v0", "v2", "v3"]
    assert out.vertices["v2"].marked


def test_multiway_zee_reproduces_both_derivations():
    g = multiway(standard_diagram("zee"), vee_motif())
    assert len(g.states) == 4
    assert len(g.terminals) == 1
    final_labels = sorted(
        label for src, dst, label in g.transitions if dst in g.terminals
    )
    assert final_labels == ["((e0e1)e2)", "(e0(e1e2))"]


def test_multiway_long_fish():
    g = multiway(standard_diagram("long_fish"), fish_motif())
    assert len(g.states) == 5
    assert len(g.terminals) == 1


def test_state_key_ignores_labels_and_edge_ids():
    iset = IndexSet("I", 2)
    d1 = build_diagram(
        [("v0", iset, False), ("v1", iset, False)], [("e0", ("v0", "v1"), "left")]
    )
    d2 = build_diagram(
        [("v0", iset, False), ("v1", iset, False)], [("f9", ("v0", "v1"), "right")]
    )
    assert state_key(d1) == state_key(d2)


def test_check_concurrency_positive_cases():
    for host, motif in (
        (standard_diagram("zee"), vee_motif()),
        (standard_diagram("long_fish"), fish_motif()),
    ):
        report = check_concurrency(host, motif)
        assert report["confluent"]
        assert report["regular"]
        assert report["overlapping"]
        assert report["concurrent"]


def test_check_concurrency_counts():
    report = check_concurrency(standard_diagram("zee"), vee_motif())
    assert report["initial_matches"] == 2
    assert report["states"] == 4
    assert report["terminals"] == 1
    assert report["terminal_labels"] == [["((e0e1)e2)"]]
    report = check_concurrency(standard_diagram("long_fish"), fish_motif())
    assert report["initial_matches"] == 3
    assert report["states"] == 5
    assert report["terminals"] == 1
    assert report["terminal_labels"] == [["((e0e1e2)e3e4)"]]
    assert list(report)[-1] == "terminal_labels"


def test_check_concurrency_matches_each_state_once(monkeypatch):
    # the overlap test reads the initial matches off the walk; the host is searched
    # whole, and every later state once, only around its new edge
    calls = []
    raw = rewrite._find_raw
    monkeypatch.setattr(rewrite, "_find_raw", lambda d, p, through=None: calls.append((d, through)) or raw(d, p, through))
    host = standard_diagram("chain", n=8)
    report = check_concurrency(host, vee_motif())
    assert len(calls) == report["states"] == 128
    assert calls[0] == (host, None)
    assert all(through is not None for _, through in calls[1:])
    assert len({id(d) for d, _ in calls}) == 128
    assert report["initial_matches"] == 7 and not report["overlapping"]


def test_long_chains_are_confluent_but_not_overlapping():
    report = check_concurrency(standard_diagram("chain", n=4), vee_motif())
    assert report["confluent"]
    assert report["regular"]
    assert not report["overlapping"]
    assert not report["concurrent"]


def test_natural_key_is_injective():
    assert natural_key("v2") < natural_key("v10")
    assert natural_key("x1") != natural_key("x01")
    assert natural_key("x01") < natural_key("x1") < natural_key("x2")
    # a superscript is no digit run: it stays part of the text
    assert natural_key("v1\u00b2") == (("v", 1, "\u00b2"), "v1\u00b2")


def test_chain_with_colliding_end_ids_is_confluent():
    # the end ids differ only in a leading zero; each state must still get one key
    iset = IndexSet("I", 2)
    ids = ["x1", "m1", "m2", "m3", "x01"]
    host = build_diagram([(v, iset, v.startswith("m")) for v in ids],
                         [(f"e{t}", (ids[t], ids[t + 1])) for t in range(4)])
    report = check_concurrency(host, vee_motif())
    assert report["confluent"] is True
    assert (report["states"], report["terminals"]) == (8, 1)


def test_orbit_representative_ignores_input_order():
    # both ends of the vee are free: the representative maps v0 to x01
    # however the host lists its vertices, edges and legs
    iset = IndexSet("I", 2)
    legs = [("x1", "m"), ("m", "x01")]
    for vs in itertools.permutations(["x1", "m", "x01"]):
        for es in (legs, legs[::-1]):
            for flip in (False, True):
                host = build_diagram([(v, iset, v == "m") for v in vs],
                                     [(f"e{k}", e[::-1] if flip else e) for k, e in enumerate(es)])
                (m,) = find_matches(host, vee_motif())
                assert m.vertex_map == {"v0": "x01", "v1": "m", "v2": "x1"}


def test_apply_rewrite_bound_preserves_value():
    rng = random.Random(1)
    host = standard_diagram("zee")
    motif = vee_motif()
    binding = random_binding(host, MOD7, rng)
    direct = evaluate(host, binding)
    for m in find_matches(host, motif):
        d2, b2, new_eid = apply_rewrite_bound(host, binding, m, motif)
        assert new_eid in d2.edges
        assert evaluate(d2, b2) == direct


@pytest.mark.parametrize("missing", ["e0", "e2"], ids=["inside-the-match", "outside-the-match"])
def test_apply_rewrite_bound_refuses_a_binding_missing_an_edge(missing):
    # both raised a raw KeyError
    host = standard_diagram("zee")
    binding = random_binding(host, MOD7, random.Random(1))
    del binding[missing]
    m = next(m for m in find_matches(host, vee_motif()) if set(m.edge_map.values()) == {"e0", "e1"})
    with pytest.raises(PlexusError) as err:
        apply_rewrite_bound(host, binding, m, vee_motif())
    assert str(err.value) == f"[BAD_REFERENCE] no array bound to edge {missing}"


@pytest.mark.parametrize("apply", [
    lambda host, m: apply_rewrite(host, m, vee_motif()),
    lambda host, m: apply_rewrite_bound(host, random_binding(host, MOD7, random.Random(1)), m, vee_motif()),
], ids=["apply_rewrite", "apply_rewrite_bound"])
def test_a_match_that_is_not_in_the_host_is_refused(apply):
    # a vee match on chain(5)'s edges e3 and e4, applied to zee, raised a raw TypeError
    host = standard_diagram("zee")
    foreign = next(m for m in find_matches(standard_diagram("chain", n=5), vee_motif())
                   if set(m.edge_map.values()) == {"e3", "e4"})
    with pytest.raises(PlexusError) as err:
        apply(host, foreign)
    assert str(err.value) == "[BAD_REFERENCE] match edge e3 is not in the host"
    m = next(m for m in find_matches(host, vee_motif()) if set(m.edge_map.values()) == {"e0", "e1"})
    stray = rewrite.Match({**m.vertex_map, "v0": "v9"}, m.edge_map)
    with pytest.raises(PlexusError) as err:
        apply(host, stray)
    assert str(err.value) == "[BAD_REFERENCE] match vertex v9 is not in the host"


def test_semantic_confluence_binding_on_zee():
    rng = random.Random(2)
    host = standard_diagram("zee")
    binding = random_binding(host, MOD7, rng)
    res = semantic_confluence_binding(host, binding, vee_motif())
    assert res["ok"]
    assert res["sequences"] == 2
    assert all(f == res["direct"] for f in res["finals"])


def test_semantic_confluence_sampled():
    res = semantic_confluence(standard_diagram("chain", n=3), vee_motif(), MOD7, trials=10)
    assert res["ok"] and res["trials"] == 10
    res = semantic_confluence(standard_diagram("fish"), fish_motif(), MOD7, trials=5)
    assert res["ok"]


def test_semantic_confluence_refuses_a_self_rewriting_motif():
    # one edge, no marked vertex: each rewrite gives back the host, so the
    # multiway graph is one state with a loop and no rewrite sequence ends
    host, motif = standard_diagram("zee"), Motif(standard_diagram("chain", n=1))
    g = multiway(host, motif)
    assert (len(g.states), len(g.terminals)) == (1, 0)
    with pytest.raises(PlexusError) as err:
        semantic_confluence(host, motif, MOD7, trials=1)
    assert err.value.code == "INVALID_MOTIF"


def test_semantic_confluence_rejects_inexact():
    with pytest.raises(PlexusError) as err:
        semantic_confluence(standard_diagram("zee"), vee_motif(), make_semiring("float64"), 2)
    assert err.value.code == "INEXACT_SEMIRING"


def test_census_default_ten_classes_three_symmetric():
    reps, symmetric = enumerate_compositions(3, 3, 3)
    assert len(reps) == 10
    assert len(symmetric) == 3
    want = {canonical_form(standard_diagram(n)) for n in ("bm", "trinity_mid", "trinity_right")}
    assert {canonical_form(d) for d in symmetric} == want


def test_census_two_edges():
    reps, symmetric = enumerate_compositions(2, 2, 2)
    assert len(reps) == 1
    assert len(symmetric) == 1
    assert canonical_form(reps[0]) == canonical_form(standard_diagram("vee"))


def test_census_variants(monkeypatch):
    # one labelling search per edge group with a marking that passes the
    # degree rule; the classes' symmetry is read off those same searches
    calls = []
    search = rewrite._labelling_search
    monkeypatch.setattr(rewrite, "_labelling_search", lambda d: calls.append(d) or search(d))
    counts, searches = {}, {}
    for variant in ("default", "tips-only", "loose", "all"):
        calls.clear()
        reps, symmetric = enumerate_compositions(3, 3, 3, variant)
        counts[variant] = (len(reps), len(symmetric))
        searches[variant] = len(calls)
    assert counts["default"] == (10, 3)
    assert counts["tips-only"][0] == 3
    assert counts["loose"][0] == 10
    assert counts["all"][0] > 10
    assert searches == {"default": 78, "tips-only": 48, "loose": 138, "all": 168}


def test_census_four_edges():
    reps, symmetric = enumerate_compositions(4, 3, 3)
    assert (len(reps), len(symmetric)) == (84, 1)


def test_census_bad_parameters():
    with pytest.raises(PlexusError) as err:
        enumerate_compositions(0, 3, 3)
    assert err.value.code == "BAD_REFERENCE"
    assert "num_edges must be at least 1" in str(err.value)
    with pytest.raises(PlexusError) as err:
        enumerate_compositions(3, 0, 3)
    assert err.value.code == "BAD_REFERENCE"
    assert "edge_order must be at least 1" in str(err.value)
    with pytest.raises(PlexusError) as err:
        enumerate_compositions(3, 3, -1)
    assert err.value.code == "BAD_REFERENCE"
    assert "free_vertices must be at least 0" in str(err.value)
    with pytest.raises(PlexusError) as err:
        enumerate_compositions(3, 3, 3, "nonsense")
    assert err.value.code == "BAD_REFERENCE"


def test_multiway_explosion_guard():
    with pytest.raises(PlexusError) as err:
        multiway(standard_diagram("long_fish"), fish_motif(), max_states=1)
    assert err.value.code == "REWRITE_EXPLOSION"


def triangle_host():
    # a-b*, b*-c, a-c: the vee's rewrite adds an edge on a and c beside the one there
    iset = IndexSet("I", 2)
    return build_diagram([("a", iset, False), ("b", iset, True), ("c", iset, False)],
                         [("e0", ("a", "b")), ("e1", ("b", "c")), ("e2", ("a", "c"))])


@pytest.mark.parametrize("walk", [
    lambda h, m: multiway(h, m),
    lambda h, m: check_concurrency(h, m),
    lambda h, m: semantic_confluence_binding(h, random_binding(h, MOD7, random.Random(0)), m),
    lambda h, m: apply_rewrite(h, find_matches(h, m)[0], m),
])
def test_a_parallel_edge_is_refused(walk):
    with pytest.raises(PlexusError) as err:
        walk(triangle_host(), vee_motif())
    assert err.value.code == "INVALID_DIAGRAM"
    assert str(err.value) == "[INVALID_DIAGRAM] duplicate edge on legs ['a', 'c']"
