"""`motif_automorphisms`, `find_matches` and the labelling search against
the searches they replace: the automorphisms as a strict-mark run of the
host matcher without the locality test, the orbit representatives as a loop
over every (match, automorphism) pair, and the labelling search as a
minimisation of the whole (vertex, edge) signature of every labelling. The
old code is kept here as the reference."""
import itertools
import random

import pytest

from plexus import (
    IndexSet,
    Motif,
    PlexusError,
    build_diagram,
    canonical_form,
    enumerate_compositions,
    find_matches,
    fish_motif,
    motif_automorphisms,
    standard_diagram,
    vee_motif,
)
from plexus.core import natural_key
from plexus.diagram import STANDARD_NAMES, _labelling_search
from plexus.rewrite import ENUMERATION_VARIANTS, Match, _connected


def ref_find_raw(host, pattern, strict_marks, require_locality):
    """The matcher with both of its old modes."""

    def compatible(pv, hv):
        pvx, hvx = pattern.vertices[pv], host.vertices[hv]
        if pvx.index_set.size != hvx.index_set.size:
            return False
        if strict_marks:
            return pvx.marked == hvx.marked
        return hvx.marked or not pvx.marked

    pedges = pattern.edge_ids()
    results = []

    def backtrack(k, vmap, emap):
        if k == len(pedges):
            if require_locality:
                image = set(emap.values())
                for pv, hv in vmap.items():
                    if pattern.vertices[pv].marked:
                        for he, hedge in host.edges.items():
                            if hv in hedge.legs and he not in image:
                                return
            results.append(Match(dict(vmap), dict(emap)))
            return
        pe = pedges[k]
        plegs = pattern.edges[pe].legs
        taken = set(vmap.values())
        for he, hedge in host.edges.items():
            if he in emap.values() or len(hedge.legs) != len(plegs):
                continue
            if any(pv in vmap and vmap[pv] not in hedge.legs for pv in plegs):
                continue
            free_plegs = [pv for pv in plegs if pv not in vmap]
            avail = [hv for hv in hedge.legs if hv not in taken]
            if len(avail) != len(free_plegs):
                continue
            for perm in itertools.permutations(avail):
                if all(compatible(pv, hv) for pv, hv in zip(free_plegs, perm)):
                    vmap.update(zip(free_plegs, perm))
                    emap[pe] = he
                    backtrack(k + 1, vmap, emap)
                    del emap[pe]
                    for pv in free_plegs:
                        del vmap[pv]

    backtrack(0, {}, {})
    return results


def ref_automorphisms(pattern):
    return ref_find_raw(pattern, pattern, strict_marks=True, require_locality=False)


def ref_find_matches(host, motif):
    """Each raw match moved by every automorphism; the least image tuple
    names the orbit and is its representative."""
    raw = ref_find_raw(host, motif.pattern, strict_marks=False, require_locality=True)
    autos = ref_automorphisms(motif.pattern)
    vids = motif.pattern.vertex_ids()
    best_by_orbit = {}
    for m in raw:
        best_key, best_match = None, None
        for a in autos:
            vmap = {pv: m.vertex_map[a.vertex_map[pv]] for pv in m.vertex_map}
            emap = {pe: m.edge_map[a.edge_map[pe]] for pe in m.edge_map}
            key = tuple(natural_key(vmap[v]) for v in vids)
            if best_key is None or key < best_key:
                best_key, best_match = key, Match(vmap, emap)
        best_by_orbit[best_key] = best_match
    return [best_by_orbit[k] for k in sorted(best_by_orbit)]


def as_items(matches):
    return [(sorted(m.vertex_map.items()), sorted(m.edge_map.items())) for m in matches]


@pytest.fixture(scope="module")
def census_classes():
    """One diagram per isomorphism class of `enumerate_compositions(3, 3, 3,
    "all")`, with the variant each class satisfies; every other variant only
    adds degree conditions, so these are the classes of all four. The
    candidates are built as the census builds them, from the edge groups
    whose first edge is (0, 1, 2), but without the degree rule, which is
    recorded per class instead."""
    iset = IndexSet("I", 2)
    classes, seen = [], set()
    for rest in itertools.combinations(itertools.combinations(range(7), 3), 2):
        group = ((0, 1, 2), *rest)
        if (0, 1, 2) in rest or not _connected(group):
            continue
        used = sorted(set().union(*group))
        if used[-1] != len(used) - 1:
            continue
        deg = {v: sum(v in e for e in group) for v in used}
        for unmarked in itertools.combinations(used, 3):
            d = build_diagram(
                [(f"v{v}", iset, v not in unmarked) for v in used],
                [(f"e{k}", tuple(f"v{v}" for v in e)) for k, e in enumerate(group)],
            )
            cert = canonical_form(d)
            if cert in seen:
                continue
            seen.add(cert)
            classes.append((d, {name for name, rule in ENUMERATION_VARIANTS.items()
                                if _obeys(rule, deg, unmarked)}))
    return classes


def _obeys(rule, deg, unmarked):
    """The census's degree rule: marked vertices have at least the minimum
    degree, unmarked ones the exact degree (if the variant fixes one)."""
    marked_min, unmarked_exact = rule
    for v, n in deg.items():
        if v in unmarked:
            if unmarked_exact is not None and n != unmarked_exact:
                return False
        elif n < marked_min:
            return False
    return True


POOL = [f"v{t}" for t in range(8)] + ["x1", "x01", "w2", "w10"]


def random_diagram(rng, nverts, nedges, orders=(1, 2, 3), sizes=(2, 2, 3)):
    """A simple hypergraph on ids drawn from POOL (x1 and x01 among them),
    with mixed marks and cardinalities and legs in random order."""
    ids = rng.sample(POOL, nverts)
    legs = []
    for _ in range(4 * nedges):
        e = rng.sample(ids, min(rng.choice(orders), nverts))
        if len(legs) < nedges and all(set(e) != set(x) for x in legs):
            legs.append(e)
    used = [v for v in ids if any(v in e for e in legs)]
    vertices = [(v, IndexSet("I", rng.choice(sizes)), rng.random() < 0.5) for v in used]
    rng.shuffle(vertices)
    return build_diagram(vertices, [(f"e{k}", tuple(e)) for k, e in enumerate(legs)])


def relabelled(d, rng):
    """The diagram on fresh ids from POOL, vertices and legs in random order."""
    ids = dict(zip(d.vertex_ids(), rng.sample(POOL, len(d.vertices))))
    vertices = [(ids[v], x.index_set, x.marked) for v, x in d.vertices.items()]
    rng.shuffle(vertices)
    edges = [(eid, tuple(ids[v] for v in rng.sample(e.legs, len(e.legs)))) for eid, e in d.edges.items()]
    return build_diagram(vertices, edges)


def random_host(rng):
    if rng.random() < 0.5:
        return random_diagram(rng, rng.randint(4, 10), rng.randint(2, 8), (2, 3), (2, 2, 2, 3))
    name = rng.choice(STANDARD_NAMES)
    return relabelled(standard_diagram(name, n=rng.randint(2, 8) if name == "chain" else None), rng)


def test_census_classes_cover_every_variant(census_classes):
    counts = {name: 0 for name in ENUMERATION_VARIANTS}
    for _, variants in census_classes:
        for name in variants:
            counts[name] += 1
    assert counts == {"default": 10, "tips-only": 3, "loose": 10, "all": 56}


def test_automorphisms_match_the_strict_matcher(census_classes):
    rng = random.Random(11)
    diagrams = [d for d, _ in census_classes]
    diagrams += [standard_diagram(name) for name in STANDARD_NAMES if name != "chain"]
    diagrams += [standard_diagram("chain", n=n) for n in range(1, 8)]
    diagrams += [random_diagram(rng, rng.randint(2, 7), rng.randint(1, 5)) for _ in range(150)]
    for d in diagrams:
        got, want = motif_automorphisms(d), ref_automorphisms(d)
        assert len(got) == len(want), d
        assert sorted(as_items(got)) == sorted(as_items(want)), d


def test_find_matches_agrees_with_the_orbit_loop():
    rng = random.Random(5)
    motifs = [vee_motif(), fish_motif(), Motif(standard_diagram("zee")),
              Motif(standard_diagram("chain", n=3)), Motif(standard_diagram("trinity_mid"))]
    while len(motifs) < 16:
        try:
            motifs.append(Motif(random_diagram(rng, rng.randint(2, 5), rng.randint(1, 3), (2, 3))))
        except PlexusError:
            pass
    found = [0] * len(motifs)
    for _ in range(120):
        host = random_host(rng)
        for k, motif in enumerate(motifs):
            got = find_matches(host, motif)
            assert as_items(got) == as_items(ref_find_matches(host, motif)), (host, motif.pattern)
            found[k] += len(got)
    assert all(found[:5]) and sum(found) > 250


def ref_refine_colors(d):
    """Color refinement returning each vertex's color."""
    vids = d.vertex_ids()
    keys = {v: (d.vertices[v].marked, d.vertices[v].index_set.size) for v in vids}
    nclasses = 0
    while True:
        order = {k: t for t, k in enumerate(sorted(set(keys.values())))}
        color = {v: order[keys[v]] for v in vids}
        if len(order) == nclasses:
            return color
        nclasses = len(order)
        keys = {}
        for v in vids:
            sig = []
            for eid in d.incidence[v]:
                legs = d.edges[eid].legs
                sig.append((len(legs), tuple(sorted(color[w] for w in legs if w != v))))
            keys[v] = (color[v], tuple(sorted(sig)))


def ref_labelling_search(d):
    """The least (vertex, edge) signature, both rebuilt for every labelling
    inside the color classes, and the labellings attaining it."""
    color = ref_refine_colors(d)
    classes = {}
    for v, c in color.items():
        classes.setdefault(c, []).append(v)
    blocks = [classes[c] for c in sorted(classes)]
    best, optimal = None, []
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pos = {}
        t = 0
        for block in perms:
            for v in block:
                pos[v] = t
                t += 1
        vsig = tuple((d.vertices[v].marked, d.vertices[v].index_set.size) for block in perms for v in block)
        esig = tuple(sorted(tuple(sorted(pos[w] for w in e.legs)) for e in d.edges.values()))
        cand = (vsig, esig)
        if best is None or cand <= best:
            if cand != best:
                best, optimal = cand, []
            optimal.append(pos)
    return best, optimal


def test_labelling_search_matches_the_whole_signature_search(census_classes):
    rng = random.Random(23)
    diagrams = [d for d, _ in census_classes] + enumerate_compositions(3, 4, 4, "default")[0]
    diagrams += [standard_diagram(name) for name in STANDARD_NAMES if name != "chain"]
    diagrams += [standard_diagram("chain", n=n) for n in range(1, 8)]
    mixed = [relabelled(random_diagram(rng, rng.randint(2, 7), rng.randint(1, 5)), rng) for _ in range(150)]
    # the seeded diagrams mix marks and cardinalities inside one diagram
    assert sum(len({(x.marked, x.index_set.size) for x in d.vertices.values()}) >= 3 for d in mixed) > 30
    for d in diagrams + mixed:
        sig, optimal = _labelling_search(d)
        want_sig, want_optimal = ref_labelling_search(d)
        assert sig == want_sig, d
        assert [sorted(pos.items()) for pos in optimal] == [sorted(pos.items()) for pos in want_optimal], d
