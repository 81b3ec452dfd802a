"""Diagram evaluation: bind an array to every hyperedge, sum the product of
bound entries over all assignments to marked vertices.

`evaluate` is the engine; `evaluate_formula_oracle` is a deliberately separate
reference that visits every total vertex assignment and does its own offset
arithmetic, a block of assignments at a time, so the two can cross-check
each other. Like the kernel, the oracle plans each shape once, but with its
own planner, `_oracle_plan`, which reads none of the kernel's parts.
"""
from __future__ import annotations

import functools
import itertools
from array import array

from .arrays import Array, _label_axes, einsum, kronecker
from .core import PlexusError, Record, fresh_id, int_in, natural_key
from .diagram import Diagram, Hyperedge, Vertex

BLOCK = 1024  # the most vertex assignments the formula oracle holds in one block


class BoundEdge(Record):
    """One edge's array plus the leg -> axis bijection (twists live here)."""

    __slots__ = ("array", "leg_to_axis")

    def __init__(self, array: Array, leg_to_axis: dict):
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "leg_to_axis", leg_to_axis)


def _axis_legs(be: BoundEdge) -> list:
    """A bound edge's legs in the order of the axes they take."""
    return sorted(be.leg_to_axis, key=be.leg_to_axis.get)


def default_binding(d: Diagram, arrays: dict) -> dict:
    """Bind arrays by edge id; legs in natural vertex-id order take axes
    0..n-1."""
    unknown = set(arrays) - set(d.edges)
    if unknown:
        raise PlexusError("BAD_REFERENCE", f"arrays for unknown edges {sorted(unknown)}")
    binding = {}
    for eid in d.edge_ids():
        if eid not in arrays:
            raise PlexusError("BAD_REFERENCE", f"no array bound to edge {eid}")
        legs = sorted(d.edges[eid].legs, key=natural_key)
        binding[eid] = BoundEdge(arrays[eid], {v: t for t, v in enumerate(legs)})
    _check_binding(d, binding)
    return binding


def _check_binding(d: Diagram, binding: dict):
    """The diagram-side check: every edge is bound to a `BoundEdge` holding
    an `Array` (BAD_REFERENCE otherwise), its legs map one-to-one onto its
    array's axes, and each axis carries its vertex's index set
    (CONFORMABILITY otherwise). The kernel checks the arrays against each
    other."""
    if not d.edges:
        raise PlexusError("BAD_REFERENCE", "nothing bound: diagram has no edges")
    if not isinstance(binding, dict):
        raise PlexusError("BAD_REFERENCE", f"a binding must be a dict of edge ids, got {type(binding).__name__}")
    for eid in d.edge_ids():
        if eid not in binding:
            raise PlexusError("BAD_REFERENCE", f"no array bound to edge {eid}")
        be = binding[eid]
        if not (isinstance(be, BoundEdge) and isinstance(be.array, Array)):
            raise PlexusError("BAD_REFERENCE", f"edge {eid} must be bound to a BoundEdge of an Array")
        legs, lta = d.edges[eid].legs, be.leg_to_axis
        if be.array.order != len(legs):
            raise PlexusError(
                "CONFORMABILITY",
                f"edge {eid} has {len(legs)} legs but array order {be.array.order}",
            )
        if not isinstance(lta, dict) or len(lta) != len(legs) or set(lta) != set(legs):
            raise PlexusError("CONFORMABILITY", f"edge {eid}: binding legs disagree")
        if not all(int_in(t, 0, len(legs) - 1) for t in lta.values()) or len(set(lta.values())) != len(legs):
            raise PlexusError("CONFORMABILITY", f"edge {eid}: leg_to_axis not a bijection")
        for v, t in lta.items():
            ax, iset = be.array.axes[t], d.vertices[v].index_set
            if ax != iset:
                raise PlexusError(
                    "CONFORMABILITY",
                    f"edge {eid} axis {t}: array has {ax.id}:{ax.size}, "
                    f"vertex {v} has {iset.id}:{iset.size}",
                )


def evaluate(d: Diagram, binding: dict, output_order: list | None = None) -> Array:
    """Sum over marked-vertex assignments of the product of bound entries.
    Output axes follow `output_order` (default: free vertices by natural id).
    Vertex ids label the kernel's indices; marked ones are summed out."""
    _check_binding(d, binding)
    return einsum(_operands(binding, d.edge_ids()), _output_order(d, output_order))


def _output_order(d: Diagram, output_order: list | None) -> list:
    """The output axes: `output_order` if it lists every free vertex once,
    by default the free vertices by natural id."""
    free = d.free_vertices()
    if output_order is not None and not (
        isinstance(output_order, (list, tuple)) and all(isinstance(v, str) for v in output_order)
        and sorted(output_order, key=natural_key) == free
    ):
        raise PlexusError("BAD_REFERENCE", "output_order must list every free vertex once")
    return free if output_order is None else list(output_order)


def _operands(binding: dict, eids) -> list:
    """Each edge of `eids` as a kernel operand: its array, axes labelled by their vertex ids."""
    return [(binding[eid].array, _axis_legs(binding[eid])) for eid in eids]


def evaluate_formula_oracle(d: Diagram, binding: dict, output_order: list | None = None) -> Array:
    """Reference evaluation, kept independent of `evaluate` (it shares only
    the binding check, the output-order rule and the kernel's operand check,
    in `evaluate`'s order, so it refuses what `evaluate` refuses): visit
    every total vertex assignment in row-major order, look entries up by
    hand-rolled offsets, and add each term into the output entry of the free
    part of the assignment. The offsets come from `_oracle_plan`, once per
    shape; the checks run on every call, before the lookup. For each block
    of assignments, one column of entries per edge is gathered and
    multiplied term by term, `one` first and then the edges in order, and
    each term is added into its output entry in assignment order, so every
    entry meets the same operations in the same order as in a loop over
    single assignments."""
    _check_binding(d, binding)
    free = _output_order(d, output_order)
    _label_axes(_operands(binding, d.edge_ids()))
    slot = d.rank
    sizes = tuple(d.vertices[v].index_set.size for v in slot)
    bound = [binding[eid] for eid in d.edges]
    legs = tuple(tuple(slot[v] for v in _axis_legs(be)) for be in bound)
    lead, run, count, edges, out, blocks = _oracle_plan(sizes, legs, tuple(slot[v] for v in free))
    s = binding[d.edge_ids()[0]].array.semiring
    add, mul = s.reference_ops()
    values = [be.array.entries for be in bound]
    entries = [s.zero()] * count
    for outer in itertools.product(*map(range, sizes[:lead]), range(0, sizes[lead], run)):
        edge_offsets, out_offsets = blocks[min(run, sizes[lead] - outer[lead])]
        terms = [s.one()] * len(out_offsets)
        for pairs, offsets, column in zip(edges, edge_offsets, values):
            base = sum(outer[p] * k for p, k in pairs)
            terms = [mul(t, column[base + x]) for t, x in zip(terms, offsets)]
        base = sum(outer[p] * k for p, k in out)
        for off, t in zip(out_offsets, terms):
            off += base
            entries[off] = add(entries[off], t)
    s.check_range(entries)
    axes = tuple(d.vertices[v].index_set for v in free)
    return Array(axes, entries, s)


ORACLE_PLANS = 8  # the shapes `_oracle_plan` keeps, the least recently used dropped first


@functools.lru_cache(maxsize=ORACLE_PLANS)
def _oracle_plan(sizes: tuple, legs: tuple, out: tuple) -> tuple:
    """The offsets of `evaluate_formula_oracle` on vertices of these sizes,
    in natural order, with each edge's legs on these vertex slots, in axis
    order, onto the output slots `out`: (lead, run, count, edges, out,
    blocks). A block is a run of at most BLOCK consecutive assignments: a
    run of `run` values of one vertex, the lead, with every assignment of
    the vertices after it. `edges` holds each edge's (slot, stride) pairs
    of the axes on the lead or before it, `out` the output's, and `count`
    is the output's entry count. `blocks` maps each run length (the last
    may be shorter) to each edge's offsets and the output's over the
    block's assignments in order, as arrays of C ints: a plan holds at most
    two blocks' worth of offsets."""
    lead, width = len(sizes) - 1, 1  # width: the assignments of the vertices after the lead
    while lead and width * sizes[lead] <= BLOCK:
        width *= sizes[lead]
        lead -= 1
    run = min(sizes[lead], BLOCK // width)

    def strides(slots):
        """The outer (slot, stride) pairs of the axes on these slots, the
        offsets over a full block's assignments in order, and the entry
        count."""
        stride, k = {}, 1
        for p in reversed(slots):
            stride[p] = k
            k *= sizes[p]
        offsets = [0]
        for p in range(lead, len(sizes)):
            steps = [i * stride.get(p, 0) for i in range(run if p == lead else sizes[p])]
            offsets = [x + y for x in offsets for y in steps]
        return tuple((p, step) for p, step in stride.items() if p <= lead), offsets, k

    edges = [strides(slots) for slots in legs]
    out_pairs, out_offsets, count = strides(out)
    blocks = {}
    for length in {run, sizes[lead] % run} - {0}:
        n = length * width
        blocks[length] = tuple(array("i", offsets[:n]) for _, offsets, _ in edges), array("i", out_offsets[:n])
    return lead, run, count, tuple(pairs for pairs, _, _ in edges), out_pairs, blocks


def insert_kronecker(d: Diagram, binding: dict, vertex: str, edge: str):
    """Split `vertex` off the given incident edge through a fresh marked
    vertex joined back by an order-2 identity edge. Evaluation is unchanged.
    Returns (diagram, binding)."""
    _check_binding(d, binding)
    if vertex not in d.vertices:
        raise PlexusError("BAD_REFERENCE", f"unknown vertex {vertex}")
    if edge not in d.edges:
        raise PlexusError("BAD_REFERENCE", f"unknown edge {edge}")
    old_edge = d.edges[edge]
    if vertex not in old_edge.legs:
        raise PlexusError("BAD_REFERENCE", f"edge {edge} is not incident to {vertex}")
    iset = d.vertices[vertex].index_set
    fresh, fresh_edge = fresh_id("k", d.vertices), fresh_id("dk", d.edges)
    vertices = dict(d.vertices)
    vertices[fresh] = Vertex(fresh, iset, True)
    edges = dict(d.edges)
    edges[edge] = Hyperedge(
        edge,
        tuple(fresh if v == vertex else v for v in old_edge.legs),
        old_edge.label,
    )
    edges[fresh_edge] = Hyperedge(fresh_edge, (vertex, fresh))
    new_d = Diagram(vertices, edges)
    new_binding = dict(binding)
    old_be = binding[edge]
    relegged = {
        (fresh if v == vertex else v): t for v, t in old_be.leg_to_axis.items()
    }
    new_binding[edge] = BoundEdge(old_be.array, relegged)
    delta = kronecker(2, iset, old_be.array.semiring)
    new_binding[fresh_edge] = BoundEdge(delta, {vertex: 0, fresh: 1})
    return new_d, new_binding
