"""Motif rewriting: find occurrences of a small marked hypergraph inside a
host diagram, collapse each occurrence to a single edge, and explore all
rewrite orders.

A match must (1) map edges injectively onto host edges of the same arity and
vertices injectively onto host vertices of the same cardinality, preserving
incidence exactly, and (2) be local: the image of a marked motif vertex is a
marked host vertex all of whose incident edges lie inside the match. Free
motif vertices may land on any host vertex; those images become the legs of
the replacement edge. Matches are reported up to motif automorphism.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from collections import deque, namedtuple

from .core import IndexSet, PlexusError, Record, fresh_id, int_in, natural_key, trial_range
from .arrays import einsum, random_array
from .diagram import Diagram, Hyperedge, _labelling_search, build_diagram, standard_diagram
from .evaluator import BoundEdge, _check_binding, default_binding, evaluate


class Motif(Record):
    """Pattern diagram; a replacement label lists its edges in natural id order."""

    __slots__ = ("pattern",)

    def __init__(self, pattern: Diagram):
        if not pattern.free_vertices():
            raise PlexusError("INVALID_MOTIF", "motif needs at least one free vertex")
        if len(pattern.edges) > 1 and not _connected([e.legs for e in pattern.edges.values()]):
            raise PlexusError("INVALID_MOTIF", "motif must be connected")
        object.__setattr__(self, "pattern", pattern)


def vee_motif(size: int = 2) -> Motif:
    return Motif(standard_diagram("vee", size=size))


def fish_motif(size: int = 2) -> Motif:
    return Motif(standard_diagram("fish", size=size))


class Match(Record):
    __slots__ = ("vertex_map", "edge_map")

    def __init__(self, vertex_map: dict, edge_map: dict):
        object.__setattr__(self, "vertex_map", vertex_map)
        object.__setattr__(self, "edge_map", edge_map)


def _compatible_vertex(pattern, host, pv, hv):
    """Same cardinality; a marked motif vertex only on a marked host vertex of its degree.
    That is locality, exactly: the match preserves incidence and is injective on edges,
    so the host edges at hv inside it are the images of the motif edges at pv."""
    pvx, hvx = pattern.vertices[pv], host.vertices[hv]
    return pvx.index_set.size == hvx.index_set.size and (
        not pvx.marked or (hvx.marked and len(host.incidence[hv]) == len(pattern.incidence[pv])))


def _find_raw(host: Diagram, pattern: Diagram, through=None):
    """Every raw match; given a host edge id `through`, those whose image holds it, each
    once, from the one motif edge it maps onto that edge."""
    first = list(host.edges) if through is None else [through]
    results = []

    def backtrack(plan, k, vmap, emap):
        if k == len(plan):
            results.append(Match(dict(vmap), dict(emap)))
            return
        pe, arity, anchor, others, free = plan[k]
        taken = set(vmap.values())
        for he in first if anchor is None else host.incidence[vmap[anchor]]:
            hlegs = host.edges[he].legs
            if len(hlegs) != arity or he in emap.values() or any(vmap[pv] not in hlegs for pv in others):
                continue
            avail = [hv for hv in hlegs if hv not in taken]
            if len(avail) != len(free):
                continue
            for perm in itertools.permutations(avail):
                if all(_compatible_vertex(pattern, host, pv, hv) for pv, hv in zip(free, perm)):
                    vmap.update(zip(free, perm))
                    emap[pe] = he
                    backtrack(plan, k + 1, vmap, emap)
                    del emap[pe]
                    for pv in free:
                        del vmap[pv]

    plans = _search_plans(pattern)
    for plan in plans if through is not None else plans[:1]:
        backtrack(plan, 0, {}, {})
    return results


@functools.lru_cache(maxsize=64)  # a walk matches each of its states with one motif
def _search_plans(pattern: Diagram):
    """From each motif edge, a search order in which each later edge meets an earlier one (a
    motif is connected), its candidates the host edges at a leg's image: steps of the edge,
    its arity, that leg (None first), the other legs mapped earlier, and the rest."""
    pedges, plans = pattern.edge_ids(), []
    for start in pedges:
        plan, seen, todo = [], set(), [start] + [pe for pe in pedges if pe != start]
        while todo:
            pe = next(pe for pe in todo if not plan or not seen.isdisjoint(pattern.edges[pe].legs))
            todo.remove(pe)
            plegs = pattern.edges[pe].legs
            mapped = [pv for pv in plegs if pv in seen] or [None]
            plan.append((pe, len(plegs), mapped[0], tuple(mapped[1:]), tuple(pv for pv in plegs if pv not in seen)))
            seen.update(plegs)
        plans.append(tuple(plan))
    return tuple(plans)


def motif_automorphisms(pattern: Diagram):
    """Mark- and cardinality-preserving self-isomorphisms: pos0^-1 . pos over
    the optimal labellings of the canonical search."""
    _, optimal = _labelling_search(pattern)
    at = {t: v for v, t in optimal[0].items()}
    by_legs = {frozenset(e.legs): eid for eid, e in pattern.edges.items()}
    vmaps = [{v: at[t] for v, t in pos.items()} for pos in optimal]
    return [Match(vm, {eid: by_legs[frozenset(map(vm.get, e.legs))] for eid, e in pattern.edges.items()})
            for vm in vmaps]


def find_matches(host: Diagram, motif: Motif):
    """Matches of the motif in the host, one representative per automorphism
    orbit: the one whose tuple of host images (motif vertices in natural-id
    order) is smallest. Two raw matches share an orbit iff they cover the
    same host edges and give each covered host vertex a preimage of the same
    mark."""
    return [m for _, m in _representatives(host.rank, motif.pattern, _find_raw(host, motif.pattern))]


def _representatives(rank: dict, pattern: Diagram, raw):
    """`find_matches`' orbit step: each orbit's least raw match, as sorted (key, match) pairs."""
    vids, marked = pattern.vertex_ids(), pattern.marked_vertices()
    best = {}
    for m in raw:  # the covered edges fix the covered vertices, so the marked images fix the marks
        key = tuple(rank[m.vertex_map[v]] for v in vids)
        orbit = frozenset(m.edge_map.values()), frozenset(m.vertex_map[v] for v in marked)
        if orbit not in best or key < best[orbit][0]:
            best[orbit] = (key, m)
    return sorted(best.values(), key=lambda km: km[0])


def _carried_matches(carried, rewrite, child: Diagram, new_eid, motif: Motif, rank: dict):
    """`find_matches(child, motif)` as (key in `rank`, match, its `_Rewrite`) triples, from
    `carried`, the parent's, where `child` is the parent after `rewrite` and `new_eid` is its
    new edge (from none, the host's); `rank`, the host's, orders every state's vertices. Exact:
    - a parent match sharing no edge with `rewrite` is a child match: its marked images keep
      their degrees, as all their edges lie inside it (locality) and none is a leg of the
      new edge, whose legs all lie on removed edges;
    - a child match avoiding the new edge is a parent match: a marked image on a removed
      edge would be a leg of the new edge, outside the match, or would be dropped;
    - so each kept orbit keeps its least representative, its key and its rewrite, in order,
      and the raw matches through the new edge form orbits of their own, merged in."""
    kept = [c for c in carried if rewrite.removed.isdisjoint(c[2].removed)]
    found = _representatives(rank, motif.pattern, _find_raw(child, motif.pattern, new_eid))
    return sorted(kept + [(key, m, _Rewrite.at(child, motif, m)) for key, m in found], key=lambda c: c[0])


def apply_rewrite(host: Diagram, match: Match, motif: Motif) -> Diagram:
    """Remove the matched edges, drop vertices left isolated, add one edge on
    the images of the motif's free vertices with the bracketed label."""
    _check_match(host, match)
    return _Rewrite.at(host, motif, match).applied(host)[0]


def _check_match(host: Diagram, match: Match):
    """BAD_REFERENCE naming the first edge, then the first vertex, that the
    match maps onto and the host does not hold."""
    for kind, images, held in (("edge", match.edge_map, host.edges), ("vertex", match.vertex_map, host.vertices)):
        for x in images.values():
            if x not in held:
                raise PlexusError("BAD_REFERENCE", f"match {kind} {x} is not in the host")


class _Rewrite(namedtuple("_Rewrite", "removed gone legs label cut")):
    """What `apply_rewrite` at a match changes: the matched edge ids, the vertices they leave
    isolated, the new edge's legs (in rank order) and label, and the matched edges' entries in
    the host's `state_key`. By locality, the same in every state holding the match."""

    __slots__ = ()

    @classmethod
    def at(cls, host: Diagram, motif: Motif, match: Match) -> _Rewrite:
        pattern = motif.pattern
        legs = tuple(sorted((match.vertex_map[pv] for pv in pattern.free_vertices()), key=host.rank.get))
        label = "(" + "".join(
            host.edges[match.edge_map[pe]].label for pe in pattern.edge_ids()
        ) + ")"
        matched = set(match.edge_map.values())
        gone = {v for eid in matched for v in host.edges[eid].legs
                if v not in legs and matched.issuperset(host.incidence[v])}
        return cls(matched, gone, legs, label, [tuple(sorted(host.edges[eid].legs, key=host.rank.get))
                                                for eid in matched])

    def applied(self, host: Diagram):
        """The host after this rewrite, and its new edge id."""
        edge = Hyperedge(fresh_id("r", host.edges), self.legs, self.label)
        return host._replaced(self.removed, self.gone, edge), edge.id

    def key(self, key):
        """`state_key` after this rewrite from `key`, the state's: the dropped entries are cut
        from the sorted parts where they lie (a vertex's first at `(v,)`), the new legs inserted."""
        vsig, esig = map(list, key)
        for v in self.gone:
            del vsig[bisect.bisect_left(vsig, (v,))]
        for legs in self.cut:
            del esig[bisect.bisect_left(esig, legs)]
        bisect.insort(esig, self.legs)
        return tuple(vsig), tuple(esig)


def apply_rewrite_bound(host: Diagram, binding: dict, match: Match, motif: Motif):
    """Rewrite and re-bind: the replacement edge carries the evaluation of the
    matched sub-diagram, where exactly the images of motif-marked vertices are
    summed and the replacement legs (natural order) are the output axes. The
    host binding is checked as `evaluate` checks it, and the match must lie in
    the host. Returns (diagram, binding, new_edge_id)."""
    _check_binding(host, binding)
    _check_match(host, match)
    return _bound_rewrite(host, binding, _Rewrite.at(host, motif, match))


def _bound_rewrite(host: Diagram, binding: dict, rewrite: _Rewrite):
    """`apply_rewrite_bound` given the match's `_Rewrite`, on a checked binding: one kernel call
    over the matched edges, labelled as `evaluate` labels them, onto the new legs, which are
    exactly the unsummed images, as the matched edges' legs are the motif vertices' images."""
    collapsed = einsum([(be.array, sorted(be.leg_to_axis, key=be.leg_to_axis.get))
                        for be in map(binding.get, sorted(rewrite.removed, key=natural_key))], rewrite.legs)
    new_d, new_eid = rewrite.applied(host)
    new_binding = {eid: binding[eid] for eid in new_d.edges if eid != new_eid}
    new_binding[new_eid] = BoundEdge(collapsed, {v: t for t, v in enumerate(rewrite.legs)})
    return new_d, new_binding, new_eid


def state_key(d: Diagram):
    """Concrete unlabeled state: vertex ids with marks and cardinalities plus
    the multiset of edge leg-sets. Edge ids and labels are ignored."""
    return _state_key(d.vertices, d.edges, d.rank)


def _state_key(vertices: dict, edges: dict, rank: dict):
    """`state_key`'s full sort; a rewrite's key is spliced from its parent's (`_Rewrite.key`)."""
    vsig = tuple(sorted((v, x.marked, x.index_set.size) for v, x in vertices.items()))
    esig = tuple(sorted(tuple(sorted(e.legs, key=rank.get)) for e in edges.values()))
    return (vsig, esig)


class RewriteGraph:
    """Multiway rewrite graph: states keyed by `state_key`, transitions
    labeled by the replacement-edge label; `multiway` keeps the initial state's matches."""

    def __init__(self, states: dict, transitions: list, initial):
        self.states = states
        self.transitions = transitions
        self.initial = initial
        self.initial_matches = []

    @property
    def terminals(self):
        sources = {t[0] for t in self.transitions}
        return [k for k in self.states if k not in sources]


def _walk(start, key, successors, max_states: int = 1000):
    """Breadth-first walk expanding each distinct `key` once; `successors(k, state)` yields
    (key, label, build) triples for the state of key `k`, and `build()` makes the state, once
    per new key. Returns the graph and each key's count of rewrite sequences from `start`."""
    k0 = key(start)
    states, paths, keys, transitions = {k0: start}, {k0: 1}, {k0: k0}, []
    frontier = deque([k0])
    while frontier:
        k = frontier.popleft()
        for k2, label, build in successors(k, states[k]):
            if k2 not in states:
                states[k2], paths[k2], keys[k2] = build(), 0, k2
                if len(states) > max_states:
                    raise PlexusError("REWRITE_EXPLOSION", f"more than {max_states} states")
                frontier.append(k2)
            k2 = keys[k2]  # one key object per state, however many transitions reach it
            transitions.append((k, k2, label))
            # exact: each rewrite by one motif removes k-1 edges and its marked vertices,
            # so all of a state's predecessors lie one level up and are expanded before it
            paths[k2] += paths[k]
    return RewriteGraph(states, transitions, k0), paths


def multiway(host: Diagram, motif: Motif, max_states: int = 1000) -> RewriteGraph:
    """Breadth-first exploration of every rewrite order. A state's key, diagram and matches
    are derived from the state that first reaches it, and it is built only when its key is new."""

    def successors(k, state):
        d, carried = state
        for _, _, rewrite in carried:

            def build(rewrite=rewrite):
                d2, new_eid = rewrite.applied(d)
                return d2, _carried_matches(carried, rewrite, d2, new_eid, motif, host.rank)

            yield rewrite.key(k), rewrite.label, build

    start = (host, _carried_matches([], None, host, None, motif, host.rank))
    g = _walk(start, lambda state: state_key(state[0]), successors, max_states)[0]
    g.initial_matches = [m for _, m, _ in g.states[g.initial][1]]
    g.states = {k: d for k, (d, _) in g.states.items()}
    return g


def check_concurrency(host: Diagram, motif: Motif) -> dict:
    """confluent: one terminal state. regular: every edge in every reachable
    state has the same arity. overlapping: every pair of initial matches
    shares a host edge. concurrent: all three. terminal_labels: the sorted
    edge labels of each terminal state, sorted."""
    g = multiway(host, motif)
    terminals = g.terminals
    arities = {len(e.legs) for d in g.states.values() for e in d.edges.values()}
    overlapping = all(
        set(m1.edge_map.values()) & set(m2.edge_map.values())
        for m1, m2 in itertools.combinations(g.initial_matches, 2)
    )
    confluent = len(terminals) == 1
    regular = len(arities) <= 1
    return {
        "confluent": confluent,
        "regular": regular,
        "overlapping": overlapping,
        "concurrent": confluent and regular and overlapping,
        "initial_matches": len(g.initial_matches),
        "states": len(g.states),
        "terminals": len(terminals),
        "terminal_labels": sorted(
            sorted(e.label for e in g.states[k].edges.values()) for k in terminals
        ),
    }


def semantic_confluence_binding(host: Diagram, binding: dict, motif: Motif) -> dict:
    """Walk every rewrite order of one bound host, collapsing matched sub-diagrams
    into bound arrays, and compare the evaluation of each distinct final bound
    state (`finals`) with evaluating the host directly."""
    direct = evaluate(host, binding)

    def successors(k, state):  # the key needs each collapsed array, so each transition is built
        d, b, carried = state
        for _, _, rewrite in carried:
            d2, b2, new_eid = _bound_rewrite(d, b, rewrite)
            yield (rewrite.key(k[0]), arrays(b2)), None, lambda d2=d2, b2=b2, rw=rewrite, e=new_eid: (
                d2, b2, _carried_matches(carried, rw, d2, e, motif, host.rank))

    def arrays(b):  # exact: vertex ids fix index sets; matching and evaluation ignore edge ids
        return frozenset((frozenset(be.leg_to_axis.items()), be.array.entries) for be in b.values())

    start = (host, binding, _carried_matches([], None, host, None, motif, host.rank))
    g, paths = _walk(start, lambda state: (state_key(state[0]), arrays(state[1])), successors)
    terminals = g.terminals
    if not terminals:
        raise PlexusError("INVALID_MOTIF", "no rewrite sequence ends: the motif rewrites a state into itself")
    finals = [evaluate(d, b) for d, b, _ in map(g.states.get, terminals)]
    ok = all(f == direct for f in finals)
    return {"ok": ok, "sequences": sum(paths[k] for k in terminals), "direct": direct, "finals": finals}


def random_binding(d: Diagram, semiring, rng) -> dict:
    """Bind every edge to a random array over the legs' index sets (legs in
    natural order, matching `default_binding`)."""
    arrays = {}
    for eid, e in d.edges.items():
        axes = [d.vertices[v].index_set for v in sorted(e.legs, key=d.rank.get)]
        arrays[eid] = random_array(axes, semiring, rng)
    return default_binding(d, arrays)


def semantic_confluence(host: Diagram, motif: Motif, semiring, trials: int = 50,
                        seed: int = 0) -> dict:
    """Sample random bindings and check that every maximal rewrite sequence
    evaluates to the direct host value on each. Needs an exact semiring."""
    draws = trial_range(trials)
    if not semiring.exact:
        raise PlexusError("INEXACT_SEMIRING", "semantic confluence needs an exact semiring")
    rng = random.Random(seed)
    for t in draws:
        binding = random_binding(host, semiring, rng)
        res = semantic_confluence_binding(host, binding, motif)
        if not res["ok"]:
            res["trial"] = t
            return res
    return {"ok": True, "trials": trials, "sequences": res["sequences"]}


ENUMERATION_VARIANTS = {
    "default": (2, None),
    "tips-only": (2, 1),
    "loose": (1, 1),
    "all": (1, None),
}


def _connected(edge_sets) -> bool:
    edge_sets = [set(e) for e in edge_sets]
    reached = set(edge_sets[0])
    pending = edge_sets[1:]
    while pending:
        for e in pending:
            if e & reached:
                reached |= e
                pending.remove(e)
                break
        else:
            return False
    return True


def _marking_key(skeleton, unmarked):
    """The class of a marking of a skeleton, from the skeleton's labelling search
    (signature, optimal labellings): the signature and the least image of the unmarked
    vertices. Exact: the optimal labellings of isomorphic skeletons differ by exactly their
    isomorphisms, so two markings get equal keys iff an isomorphism maps one onto the other."""
    sig, optimal = skeleton
    return sig, min(tuple(sorted(pos[v] for v in unmarked)) for pos in optimal)


def enumerate_compositions(num_edges: int = 3, edge_order: int = 3,
                           free_vertices: int = 3, variant: str = "default",
                           size: int = 2):
    """Isomorphism classes of connected simple hypergraphs with `num_edges`
    edges of order `edge_order` and exactly `free_vertices` unmarked
    vertices. Variant sets the degree constraints (marked minimum degree,
    exact unmarked degree or None). Returns (all_classes, symmetric_classes);
    symmetric means the automorphism group is transitive on edges."""
    if variant not in ENUMERATION_VARIANTS:
        raise PlexusError("BAD_REFERENCE", f"unknown enumeration variant {variant!r}")
    for name, value, least in (("num_edges", num_edges, 1), ("edge_order", edge_order, 1),
                               ("free_vertices", free_vertices, 0)):
        if not int_in(value, least, math.inf):
            raise PlexusError("BAD_REFERENCE", f"{name} must be at least {least}, got {value!r}")
    marked_min, unmarked_exact = ENUMERATION_VARIANTS[variant]
    iset = IndexSet("I", size)
    reps, symmetric, seen = [], [], set()
    edges = list(itertools.combinations(range(edge_order + (num_edges - 1) * (edge_order - 1)), edge_order))
    # every class has a gap-free labelling holding the least edge (0, ..., k-1), and the groups
    # holding it come first: they meet each class's first representative, in the same order
    for rest in itertools.combinations(edges[1:], num_edges - 1):
        group = (edges[0], *rest)
        used = sorted(set().union(*group))
        # a gap in the used vertices: relabelling by rank gives the same
        # diagrams as the gap-free group, which came earlier
        if used[-1] != len(used) - 1 or not _connected(group):
            continue
        deg = [sum(v in e for e in group) for v in used]
        # the degree rule: a vertex below the marked minimum stays unmarked, and
        # only a vertex of the exact unmarked degree, if one is set, may be unmarked
        low = {v for v in used if deg[v] < marked_min}
        may_be_free = [v for v in used if unmarked_exact in (None, deg[v])]
        names = [f"v{v}" for v in used]
        legs = [(f"e{k}", tuple(names[v] for v in e)) for k, e in enumerate(group)]
        skeleton = None
        for unmarked in itertools.combinations(may_be_free, free_vertices):
            if not low.issubset(unmarked):
                continue
            if skeleton is None:  # one labelling search per group, on its unmarked skeleton
                skeleton = _labelling_search(build_diagram([(n, iset, False) for n in names], legs))
            free = [names[v] for v in unmarked]
            key = _marking_key(skeleton, free)
            if key in seen:
                continue
            seen.add(key)
            d = build_diagram([(n, iset, v not in unmarked) for v, n in enumerate(names)], legs)
            reps.append(d)
            # the optimal labellings that attain the key differ by exactly the marked
            # diagram's automorphisms: symmetric iff they carry the first edge onto every edge
            images = {frozenset(pos[v] for v in legs[0][1]) for pos in skeleton[1]
                      if tuple(sorted(pos[v] for v in free)) == key[1]}
            if len(images) == num_edges:
                symmetric.append(d)
    return reps, symmetric
