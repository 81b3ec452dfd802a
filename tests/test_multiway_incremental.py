"""`multiway` derives each state from the state that first reaches it: its
key, its diagram's orders and its matches, with their rewrites, and builds a
successor only when its key is new. Checked against a from-scratch walk kept
here inline, which matches every state and builds it through the `Diagram`
constructor: the carried matches must equal `find_matches` of each state,
same list and same order, and each carried rewrite must equal the one
computed at that state; each predicted key must equal `state_key` of the
built diagram; and the states (with their rank, incidence and edge order),
transitions and initial matches must be the same. Hypothesis examples are
derandomized and bounded, so runs repeat exactly."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus import (  # noqa: E402
    Diagram, PlexusError, apply_rewrite, find_matches, multiway, rewrite, standard_diagram, state_key,
)
from plexus.diagram import STANDARD_NAMES  # noqa: E402
from test_rewrite_reference import MOTIFS, random_host  # noqa: E402

BOUNDED = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def scratch_multiway(host, motif, max_states=1000):
    """Breadth-first over every rewrite order, matching and building each state."""
    k0 = state_key(host)
    states, transitions, frontier = {k0: host}, [], [k0]
    for k in frontier:
        for m in find_matches(states[k], motif):
            d2 = apply_rewrite(states[k], m, motif)
            d2 = Diagram(d2.vertices, d2.edges)  # orders from the constructor, not from the parent
            k2 = state_key(d2)
            (label,) = (e.label for eid, e in d2.edges.items() if eid not in states[k].edges)
            transitions.append((k, k2, label))
            if k2 not in states:
                states[k2] = d2
                if len(states) > max_states:
                    raise PlexusError("REWRITE_EXPLOSION", f"more than {max_states} states")
                frontier.append(k2)
    return states, transitions, find_matches(host, motif)


def shape(states, transitions, initial_matches):
    return ([(k, d.vertices, d.edges, list(d.rank.items()), list(d.incidence.items()), d.edge_ids())
             for k, d in states.items()],
            transitions, initial_matches)


def raw_maps(matches):
    return sorted(sorted(m.vertex_map.items()) for m in matches)


def rewrite_parts(rw):
    """A `_Rewrite` with its cut list, built from a set, in sorted order."""
    return rw.removed, rw.gone, rw.legs, rw.label, sorted(rw.cut)


def outcome(fn, host, motif):
    try:
        return fn(host, motif)
    except PlexusError as err:
        return err.code


def checked_multiway(host, motif):
    """`multiway`, checking every carried match list and every predicted key."""
    carried_matches, walk = rewrite._carried_matches, rewrite._walk

    def carried_and_checked(carried, rewritten, child, new_eid, m, rank):
        # the anchored search finds each raw match through the new edge once, and no other;
        # the host's own matches are carried from none, through no new edge
        anchored = [x for x in rewrite._find_raw(child, m.pattern) if new_eid in (None, *x.edge_map.values())]
        assert raw_maps(rewrite._find_raw(child, m.pattern, new_eid)) == raw_maps(anchored), (child, new_eid)
        got = carried_matches(carried, rewritten, child, new_eid, m, rank)
        assert [match for _, match, _ in got] == find_matches(child, m), (child, rewritten)
        assert all(rewrite_parts(rw) == rewrite_parts(rewrite._Rewrite.at(child, m, match))
                   for _, match, rw in got), (child, rewritten)
        return got

    def walk_and_check(start, key, successors, max_states=1000):
        def checked(k, state):
            for k2, label, build in successors(k, state):
                assert key(build()) == k2, (state, label)
                yield k2, label, build

        return walk(start, key, checked, max_states)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(rewrite, "_carried_matches", carried_and_checked)
        monkeypatch.setattr(rewrite, "_walk", walk_and_check)
        g = multiway(host, motif)
    return shape(g.states, g.transitions, g.initial_matches)


def assert_agrees(host, motif_name):
    motif = MOTIFS[motif_name]
    got = outcome(checked_multiway, host, motif)
    assert got == outcome(lambda h, m: shape(*scratch_multiway(h, m)), host, motif), (host, motif_name)


@pytest.mark.parametrize("name,n", [(name, None) for name in STANDARD_NAMES if name != "chain"]
                         + [("chain", n) for n in range(1, 9)])
def test_carried_matches_on_standard_hosts(name, n):
    host = standard_diagram(name, n=n)
    for motif_name in MOTIFS:
        assert_agrees(host, motif_name)


@BOUNDED
@given(st.integers(0, 2**32))
def test_carried_matches_on_random_hosts(seed):
    host = random_host(random.Random(seed))
    for motif_name in MOTIFS:
        assert_agrees(host, motif_name)
