"""`semantic_confluence_binding` against the search it replaces: a
recursion over every rewrite sequence, kept here inline as the reference.
The walk visits each distinct bound state once and counts the sequences;
`ok`, the sequence count, the set of distinct final values and any error
code must equal the recursion's. Hypothesis examples are derandomized and
bounded, so runs repeat exactly."""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from plexus import (  # noqa: E402
    IndexSet,
    Motif,
    PlexusError,
    apply_rewrite_bound,
    build_diagram,
    evaluate,
    find_matches,
    fish_motif,
    parse_semiring,
    random_binding,
    semantic_confluence_binding,
    standard_diagram,
    vee_motif,
)
from plexus.diagram import STANDARD_NAMES  # noqa: E402

SEMIRINGS = [parse_semiring(t) for t in ("boolean", "nat64", "int-mod:7", "min-plus")]
BOUNDED = settings(max_examples=120, derandomize=True, deadline=None, database=None)
I2 = IndexSet("I", 2)
MOTIFS = {
    "vee": vee_motif(),
    "fish": fish_motif(),
    "zee": Motif(standard_diagram("zee")),
    "chain3": Motif(standard_diagram("chain", n=3)),
    "trinity_mid": Motif(standard_diagram("trinity_mid")),
    # one edge with a marked vertex: each rewrite drops a vertex, no edge
    "tip": Motif(build_diagram([("v0", I2, True), ("v1", I2, False)], [("e0", ("v0", "v1"))])),
    # one edge with no marked vertex: each rewrite gives back its host
    "chain1": Motif(standard_diagram("chain", n=1)),
}


def ref_semantic_confluence_binding(host, binding, motif):
    """Every maximal rewrite sequence, one recursion step per rewrite."""
    direct = evaluate(host, binding)
    finals = []

    def rec(d, b):
        ms = find_matches(d, motif)
        if not ms:
            finals.append(evaluate(d, b))
            return
        for m in ms:
            d2, b2, _ = apply_rewrite_bound(d, b, m, motif)
            rec(d2, b2)

    rec(host, binding)
    ok = all(f == direct for f in finals)
    return {"ok": ok, "sequences": len(finals), "direct": direct, "finals": finals}


def distinct(arrays):
    return {(a.axes, a.entries) for a in arrays}


def outcome(fn, host, binding, motif):
    try:
        res = fn(host, binding, motif)
    except PlexusError as err:
        return err.code
    return res["ok"], res["sequences"], distinct(res["finals"])


def assert_agrees(host, binding, motif_name):
    motif = MOTIFS[motif_name]
    got = outcome(semantic_confluence_binding, host, binding, motif)
    if motif_name == "chain1" and find_matches(host, motif):
        # the recursion never ends here (RecursionError); the walk refuses it
        assert got == "INVALID_MOTIF"
        return
    assert got == outcome(ref_semantic_confluence_binding, host, binding, motif), (host, motif_name)


STANDARD_HOSTS = [(name, None) for name in STANDARD_NAMES if name != "chain"]
STANDARD_HOSTS += [("chain", n) for n in range(1, 8)]


@pytest.mark.parametrize("name,n", STANDARD_HOSTS)
def test_walk_agrees_with_the_recursion_on_standard_hosts(name, n):
    host = standard_diagram(name, n=n)
    rng = random.Random(f"{name}{n}")
    for motif_name in ("vee", "fish", "zee", "chain3"):
        assert_agrees(host, random_binding(host, SEMIRINGS[2], rng), motif_name)


IDS = ["v0", "x1", "v1", "x01", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10", "v11"]


def random_host(rng):
    """Mostly a standard diagram on ids drawn from IDS, a few marks
    flipped. Otherwise a connected simple hypergraph of 2 to 6 edges of
    order 2 or 3, grown edge by edge: each new edge shares one leg, or two,
    with earlier ones; marks are mixed and a few vertices have size 3."""
    if rng.random() < 0.6:
        name = rng.choice(STANDARD_NAMES)
        d = standard_diagram(name, n=rng.randint(2, 7) if name == "chain" else None)
        ids = dict(zip(d.vertex_ids(), rng.sample(IDS, len(d.vertices))))
        return build_diagram([(ids[v], x.index_set, x.marked != (rng.random() < 0.1)) for v, x in d.vertices.items()],
                             [(eid, tuple(ids[v] for v in e.legs)) for eid, e in d.edges.items()])
    nedges, used, legs = rng.randint(2, 6), ["v0"], []
    while len(legs) < nedges:
        order = rng.choice((2, 2, 3))
        k = min(len(used), order, rng.choice((1, 1, 1, 2)))
        e = rng.sample(used, k) + IDS[len(used):len(used) + order - k]
        if frozenset(e) not in map(frozenset, legs):
            used += e[k:]
            legs.append(rng.sample(e, order))
    return build_diagram([(v, IndexSet("I", 3 if rng.random() < 0.1 else 2), rng.random() < 0.6) for v in used],
                         [(f"e{k}", tuple(e)) for k, e in enumerate(legs)])


@BOUNDED
@given(st.integers(0, 2**32), st.sampled_from(SEMIRINGS))
def test_walk_agrees_with_the_recursion_on_random_hosts(seed, semiring):
    rng = random.Random(seed)
    host = random_host(rng)
    binding = random_binding(host, semiring, rng)
    for motif_name in MOTIFS:
        assert_agrees(host, binding, motif_name)


def test_walk_counts_without_replaying_sequences():
    # 10! rewrite orders at the old recursion; the walk stops past 1000 bound states
    host = standard_diagram("chain", n=11)
    with pytest.raises(PlexusError) as err:
        semantic_confluence_binding(host, random_binding(host, SEMIRINGS[2], random.Random(0)), vee_motif())
    assert err.value.code == "REWRITE_EXPLOSION"
