"""Plex diagrams: marked hypergraphs whose vertices carry index sets.

A diagram is a simple hypergraph (no repeated leg in an edge, no two edges on
the same leg set) with no isolated vertices. Marked vertices are summed over
during evaluation; unmarked ("free") vertices become output axes.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable

from .core import IndexSet, PlexusError, Record, int_in, natural_key, require_int


class Vertex(Record):
    __slots__ = ("id", "index_set", "marked")

    def __init__(self, id: str, index_set: IndexSet, marked: bool = False):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "index_set", index_set)
        object.__setattr__(self, "marked", marked)


class Hyperedge(Record):
    """An edge; its label defaults to its id."""

    __slots__ = ("id", "legs", "label")

    def __init__(self, id: str, legs: tuple, label: str = ""):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "label", label or id)


class Diagram:
    """Immutable marked hypergraph. Its natural-id vertex and edge orders are
    computed once; `rank` maps each vertex id to its place in that order, and
    `incidence` maps each vertex id to its incident edge ids in natural order."""

    __slots__ = ("vertices", "edges", "rank", "incidence", "_eids")

    def __init__(self, vertices: dict, edges: dict):
        object.__setattr__(self, "vertices", dict(vertices))
        object.__setattr__(self, "edges", dict(edges))
        self._validate()
        self._order(sorted(self.vertices, key=natural_key), sorted(self.edges, key=natural_key))

    def _order(self, vids: list, eids: list):
        """Set `rank`, `_eids` and `incidence` from the vertex and edge ids in natural order."""
        object.__setattr__(self, "rank", {v: t for t, v in enumerate(vids)})
        object.__setattr__(self, "_eids", tuple(eids))
        incidence = {v: [] for v in vids}
        for eid in eids:
            for v in self.edges[eid].legs:
                incidence[v].append(eid)
        for v in self.vertices:
            if not incidence[v]:
                raise PlexusError("INVALID_DIAGRAM", f"isolated vertex {v}")
        object.__setattr__(self, "incidence", {v: tuple(es) for v, es in incidence.items()})

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    def _replaced(self, removed: set, gone: set, edge: Hyperedge) -> Diagram:
        """This diagram without the edges `removed` and the vertices `gone` they leave
        isolated, plus `edge` (a fresh id on kept vertices), in this one's orders; only the
        new edge's leg set is checked, as the rest passed when this diagram was built."""
        legs = set(edge.legs)
        if any(legs == set(self.edges[e].legs) for e in self.incidence[edge.legs[0]] if e not in removed):
            raise PlexusError("INVALID_DIAGRAM", f"duplicate edge on legs {sorted(edge.legs)}")
        d = object.__new__(Diagram)
        object.__setattr__(d, "vertices", {v: x for v, x in self.vertices.items() if v not in gone})
        object.__setattr__(d, "edges", {**{e: x for e, x in self.edges.items() if e not in removed}, edge.id: edge})
        d._order([v for v in self.rank if v not in gone],
                 sorted([e for e in self._eids if e not in removed] + [edge.id], key=natural_key))
        return d

    def _validate(self):
        seen_leg_sets = set()
        for e in self.edges.values():
            if len(e.legs) == 0:
                raise PlexusError("INVALID_DIAGRAM", f"edge {e.id} has no legs")
            if len(set(e.legs)) != len(e.legs):
                raise PlexusError("INVALID_DIAGRAM", f"edge {e.id} repeats a leg")
            for v in e.legs:
                if v not in self.vertices:
                    raise PlexusError("INVALID_DIAGRAM", f"edge {e.id} references unknown vertex {v}")
            key = frozenset(e.legs)
            if key in seen_leg_sets:
                raise PlexusError("INVALID_DIAGRAM", f"duplicate edge on legs {sorted(e.legs)}")
            seen_leg_sets.add(key)

    def vertex_ids(self):
        return list(self.rank)

    def edge_ids(self):
        return list(self._eids)

    def free_vertices(self):
        return [v for v in self.rank if not self.vertices[v].marked]

    def marked_vertices(self):
        return [v for v in self.rank if self.vertices[v].marked]

    def incident_edges(self, vertex_id: str):
        return list(self.incidence.get(vertex_id, ()))

    def degree(self, vertex_id: str) -> int:
        return len(self.incidence.get(vertex_id, ()))

    def __repr__(self):
        vs = ", ".join(
            v + ("*" if self.vertices[v].marked else "") for v in self.vertex_ids()
        )
        es = "; ".join(
            f"{e}({','.join(self.edges[e].legs)})" for e in self.edge_ids()
        )
        return f"Diagram[{vs} | {es}]"


def build_diagram(vertices: Iterable, edges: Iterable) -> Diagram:
    """vertices: (id, index_set, marked) triples; edges: (id, legs) pairs or
    (id, legs, label) triples."""
    vmap = {}
    for spec in vertices:
        vid, index_set, marked = spec
        if vid in vmap:
            raise PlexusError("INVALID_DIAGRAM", f"duplicate vertex id {vid}")
        vmap[vid] = Vertex(vid, index_set, bool(marked))
    emap = {}
    for spec in edges:
        if len(spec) == 2:
            eid, legs = spec
            label = ""
        else:
            eid, legs, label = spec
        if eid in emap:
            raise PlexusError("INVALID_DIAGRAM", f"duplicate edge id {eid}")
        emap[eid] = Hyperedge(eid, tuple(legs), label)
    return Diagram(vmap, emap)


_STANDARD = {
    "vee": (3, [1], [(0, 1), (1, 2)]),
    "zee": (4, [1, 2], [(0, 1), (1, 2), (2, 3)]),
    "fish": (6, [2, 3, 4], [(0, 1, 2), (3, 4, 2), (3, 4, 5)]),
    "long_fish": (
        9,
        [2, 3, 4, 5, 6, 7],
        [(0, 1, 2), (3, 4, 2), (3, 4, 5), (6, 7, 5), (6, 7, 8)],
    ),
    "bm": (4, [3], [(0, 1, 3), (0, 3, 2), (3, 1, 2)]),
    "trinity_mid": (5, [3, 4], [(0, 3, 4), (1, 3, 4), (2, 3, 4)]),
    "trinity_right": (6, [3, 4, 5], [(0, 3, 4), (1, 4, 5), (2, 3, 5)]),
}

# every name `standard_diagram` knows; chain also needs its edge count
STANDARD_NAMES = ("chain", *_STANDARD)


def standard_diagram(name: str, n: int | None = None, size: int = 2) -> Diagram:
    """Library of named diagrams, all on a single index set "I".

    chain(n): n edges in a path, inner vertices marked (chain(2) is the vee
    shape). fish / long_fish are the one- and two-body ternary motifs."""
    iset = IndexSet("I", size)
    if name == "chain":
        if n is not None:  # no count at all keeps the message below
            require_int(n, "BAD_REFERENCE", "chain edge count")
        if not int_in(n, 1, math.inf):
            raise PlexusError("BAD_REFERENCE", "chain needs a positive edge count")
        vertices = [(f"v{t}", iset, 0 < t < n) for t in range(n + 1)]
        edges = [(f"e{t}", (f"v{t}", f"v{t + 1}")) for t in range(n)]
        return build_diagram(vertices, edges)
    if name not in _STANDARD:
        raise PlexusError("BAD_REFERENCE", f"unknown standard diagram {name!r}")
    nverts, marked, edge_legs = _STANDARD[name]
    vertices = [(f"v{t}", iset, t in marked) for t in range(nverts)]
    edges = [
        (f"e{k}", tuple(f"v{t}" for t in legs)) for k, legs in enumerate(edge_legs)
    ]
    return build_diagram(vertices, edges)


def _refine_colors(d: Diagram):
    """Color refinement. Initial color: (marked, cardinality). Each round a
    vertex also sees, per incident edge, the arity and the co-leg colors.
    Returns the color classes in color order, each in natural order."""
    vids = d.vertex_ids()
    keys = {v: (d.vertices[v].marked, d.vertices[v].index_set.size) for v in vids}
    nclasses = 0
    while True:
        order = {k: t for t, k in enumerate(sorted(set(keys.values())))}
        color = {v: order[keys[v]] for v in vids}
        if len(order) == nclasses:
            return [[v for v in vids if color[v] == c] for c in range(nclasses)]
        nclasses = len(order)
        keys = {}
        for v in vids:
            sig = []
            for eid in d.incidence[v]:
                legs = d.edges[eid].legs
                sig.append((len(legs), tuple(sorted(color[w] for w in legs if w != v))))
            keys[v] = (color[v], tuple(sorted(sig)))


def _labelling_search(d: Diagram):
    """The least (vertex, edge) signature over all labellings inside the
    refined color classes (exhaustive, so for small diagrams), and every
    labelling (vertex -> position) attaining it; two differ by an automorphism.
    A labelling only permutes each class, whose vertices share the mark and
    cardinality that lead its color, so the vertex signature is fixed and
    only the edge signature is minimised."""
    blocks = _refine_colors(d)
    vsig = tuple((d.vertices[b[0]].marked, d.vertices[b[0]].index_set.size) for b in blocks for _ in b)
    legs = [e.legs for e in d.edges.values()]
    best, optimal = None, []
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        pos = {v: t for t, v in enumerate(itertools.chain.from_iterable(perms))}
        esig = tuple(sorted(tuple(sorted(pos[w] for w in ls)) for ls in legs))
        if best is None or esig <= best:
            if esig != best:
                best, optimal = esig, []
            optimal.append(pos)
    return (vsig, best), optimal


def canonical_form(d: Diagram) -> str:
    """Label-independent certificate. Equal certificates = isomorphic diagrams
    (marks and cardinalities respected)."""
    return repr(_labelling_search(d)[0])


def is_isomorphic(d1: Diagram, d2: Diagram) -> bool:
    return canonical_form(d1) == canonical_form(d2)


def to_dot(d: Diagram) -> str:
    """Graphviz rendering: vertices as points (filled black when marked,
    open when free), each hyperedge as a clique over its legs carrying the
    edge label on its first clique line."""

    def quoted(s):  # a DOT quoted string: backslashes and quotes escaped
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["graph plex {"]
    for v in d.vertex_ids():
        vx = d.vertices[v]
        fill = "black" if vx.marked else "white"
        lines.append(
            f'  {quoted(v)} [shape=point style=filled fillcolor={fill} xlabel={quoted(f"{v}:{vx.index_set.id}")}];'
        )
    for e in d.edge_ids():
        ed = d.edges[e]
        pairs = list(itertools.combinations(ed.legs, 2))
        if not pairs:
            pairs = [(ed.legs[0], ed.legs[0])]
        for k, (u, v) in enumerate(pairs):
            tag = f" [label={quoted(ed.label)}]" if k == 0 else ""
            lines.append(f"  {quoted(u)} -- {quoted(v)}{tag};")
    lines.append("}")
    return "\n".join(lines)
