"""Dense multi-index arrays over a semiring, with the index-manipulation
operations (reorder/flatten/broaden/slice), entry-wise operations, incidence
and contraction products, tensor products, and the Kronecker arrays.

Entries are stored row-major: entry(a, (i1,...,in)) sits at
((i1*|I2| + i2)*|I3| + ...) + in. Every product, here and in the evaluator
and the fish product, is one call of the contraction kernel `einsum`.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections import Counter, namedtuple
from typing import Sequence

from .core import IndexSet, PlexusError, require_int
from .semiring import Semiring


class Array:
    """Immutable dense array: ordered axes (the constellation) + entries."""

    __slots__ = ("axes", "entries", "semiring")

    def __init__(self, axes: Sequence[IndexSet], entries: Sequence, semiring: Semiring):
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "semiring", semiring)

    def __setattr__(self, name, value):
        raise AttributeError("Array is immutable")

    @property
    def order(self) -> int:
        return len(self.axes)

    @property
    def sizes(self) -> tuple:
        return tuple(ax.size for ax in self.axes)

    def offset(self, idx: Sequence[int]) -> int:
        """The row-major position of a multi-index, BAD_INDEX unless it is a
        sequence of one int in range per axis; exact ints take one pass."""
        if type(idx) in (tuple, list) and len(idx) == len(self.axes):
            off = 0
            for ax, i in zip(self.axes, idx):
                if type(i) is not int or not 0 <= i < ax.size:
                    break
                off = off * ax.size + i
            else:
                return off
        given, idx = idx, _require_positions(idx, "BAD_INDEX", "index")
        if idx is None:
            raise PlexusError("BAD_INDEX", f"an index must be a sequence of integers, got {given!r}")
        if len(idx) != len(self.axes):
            raise PlexusError("BAD_INDEX", f"expected {len(self.axes)} indices, got {len(idx)}")
        for ax, i in zip(self.axes, idx):
            if not (0 <= i < ax.size):
                raise PlexusError("BAD_INDEX", f"index {i} out of range for {ax.id}:{ax.size}")
        return self.offset([int(i) for i in idx])  # an int subclass, such as IntEnum, as a plain int

    def entry(self, idx: Sequence[int]):
        return self.entries[self.offset(idx)]

    def scalar(self):
        if self.axes:
            raise PlexusError("BAD_INDEX", "scalar() needs an order-0 array")
        return self.entries[0]

    def __eq__(self, other):
        if not isinstance(other, Array):
            return NotImplemented
        if self.semiring.kind != other.semiring.kind or self.semiring.modulus != other.semiring.modulus:
            return False
        if self.axes != other.axes:
            return False
        eq = self.semiring.eq
        return all(eq(x, y) for x, y in zip(self.entries, other.entries))

    __hash__ = None

    def __repr__(self):
        shape = ",".join(f"{ax.id}:{ax.size}" for ax in self.axes)
        return f"Array(({shape}), {list(self.entries)!r})"


def _entry_count(axes) -> int:
    n = 1
    for ax in axes:
        n *= ax.size
    return n


def make_array(axes: Sequence[IndexSet], entries: Sequence, semiring: Semiring) -> Array:
    axes = tuple(axes)
    expected = _entry_count(axes)
    if len(entries) != expected:
        raise PlexusError("SIZE_MISMATCH", f"expected {expected} entries, got {len(entries)}")
    if semiring.as_ints(entries) is None:
        for x in entries:
            semiring.validate(x)
    return Array(axes, entries, semiring)


def reorder(a: Array, sigma: Sequence[int]) -> Array:
    """Axis t of `a` becomes axis sigma[t] of the result:
    entry(result, sigma applied to idx) = entry(a, idx)."""
    n = a.order
    perm = _require_positions(sigma)
    if perm is None or sorted(perm) != list(range(n)):
        raise PlexusError("BAD_PERMUTATION", f"{sigma!r} is not a permutation of 0..{n - 1}")
    out = [None] * n
    for t in range(n):
        out[perm[t]] = t
    return einsum([(a, range(n))], out)


def flatten(a: Array, group: Sequence[int]) -> Array:
    """Replace the grouped axes by one composite axis (row-major over the
    group order), placed where the first grouped axis was."""
    given, group = group, _require_positions(group)
    n = a.order
    if group is None:
        raise PlexusError("BAD_AXIS", f"invalid axis group {given!r}")
    if len(set(group)) != len(group) or any(not (0 <= g < n) for g in group):
        raise PlexusError("BAD_AXIS", f"invalid axis group {group!r}")
    if not group:
        raise PlexusError("BAD_AXIS", "empty axis group")
    card = _entry_count(a.axes[g] for g in group)
    composite = IndexSet("(" + "x".join(a.axes[g].id for g in group) + ")", card)
    rest = [p for p in range(n) if p not in group]
    head = [p for p in rest if p < group[0]]
    tail = [p for p in rest if p > group[0]]
    gathered = einsum([(a, range(n))], head + list(group) + tail)
    new_axes = [a.axes[p] for p in head] + [composite] + [a.axes[p] for p in tail]
    return Array(new_axes, gathered.entries, a.semiring)


def broaden(a: Array, new_axis: IndexSet, position: int) -> Array:
    """Insert a redundant axis: every section along it is a copy of `a`."""
    require_int(position, "BAD_AXIS", "axis position")
    if not (0 <= position <= a.order):
        raise PlexusError("BAD_AXIS", f"broaden position {position} out of range")
    n = a.order
    ones = full_array((new_axis,), a.semiring)
    return einsum([(a, range(n)), (ones, (n,))], [*range(position), n, *range(position, n)])


def slice_axes(a: Array, assignment: dict) -> Array:
    """Fix some axes to values (currying). Fixing all axes gives the 0-array
    holding that entry."""
    if not isinstance(assignment, dict):
        raise PlexusError("BAD_AXIS", f"a slice assignment maps axis positions to values, got {assignment!r}")
    for pos, val in assignment.items():
        require_int(pos, "BAD_AXIS", "axis position")
        if not (0 <= pos < a.order):
            raise PlexusError("BAD_AXIS", f"slice axis {pos} out of range")
        require_int(val, "BAD_INDEX", "slice value")
        if not (0 <= val < a.axes[pos].size):
            raise PlexusError("BAD_INDEX", f"slice value {val} out of range for axis {pos}")
    strides = _strides(range(a.order), a.sizes)
    base = sum(val * strides[pos] for pos, val in assignment.items())
    keep = [p for p in range(a.order) if p not in assignment]
    grid = _grid(strides, keep, dict(enumerate(a.sizes)))
    return Array([a.axes[p] for p in keep], [a.entries[base + o] for o in grid], a.semiring)


def entrywise_add(a: Array, b: Array) -> Array:
    """Add entries at equal positions; both arrays carry the same axes."""
    _require_arrays((a, b))
    labels = range(a.order)
    _label_axes([(a, labels), (b, labels)])
    entries = list(map(a.semiring.add, a.entries, b.entries))
    a.semiring.check_range(entries)
    return Array(a.axes, entries, a.semiring)


def entrywise_mul(a: Array, b: Array) -> Array:
    """Multiply entries at equal positions: the kernel product keeping every
    label. As from `contract`, a float64 -0.0 entry comes out as 0.0."""
    _require_arrays((a, b))
    labels = range(a.order)
    return einsum([(a, labels), (b, labels)], labels)


def _require_positions(positions, code="BAD_AXIS", what="axis position"):
    """`positions` as a tuple, refused with `code` naming `what` unless every
    one is an int: checked once per call, before any position is read. None
    if `positions` is not a sequence, for the caller to refuse."""
    try:
        positions = tuple(positions)
    except TypeError:
        return None
    for p in positions:
        require_int(p, code, what)
    return positions


def _require_arrays(arrays) -> tuple:
    """`arrays` as a tuple, BAD_AXIS unless it is a sequence of arrays."""
    try:
        operands = tuple(arrays)
    except TypeError:
        raise PlexusError("BAD_AXIS", f"the operands must be a sequence of arrays, got {arrays!r}") from None
    for x in operands:
        if not isinstance(x, Array):
            raise PlexusError("BAD_AXIS", f"operand {x!r} is not an array")
    return operands


def _check_shared(arrays: Sequence[Array], shared_axes: Sequence[int]):
    """The operands and shared axes of an incidence or contraction as
    tuples, BAD_AXIS unless they give one int position in range per array."""
    arrays, shared = _require_arrays(arrays), _require_positions(shared_axes)
    if shared is None:
        raise PlexusError("BAD_AXIS", f"the shared axes must be a sequence of integers, got {shared_axes!r}")
    if len(arrays) != len(shared) or not arrays:
        raise PlexusError("BAD_AXIS", "need one shared axis per array")
    for a, pos in zip(arrays, shared):
        if not (0 <= pos < a.order):
            raise PlexusError("BAD_AXIS", f"shared axis {pos} out of range")
    return arrays, shared


def _incidence_labels(arrays, shared_axes):
    """Kernel labels for an incidence: axis p of array k is (k, p), the
    shared axes are all "shared". Result: the first array's axes intact, then
    the rest minus their shared axis; the shared index set appears once."""
    labels = [
        ["shared" if p == pos else (k, p) for p in range(a.order)]
        for k, (a, pos) in enumerate(zip(arrays, shared_axes))
    ]
    out = list(labels[0]) + [lab for ls in labels[1:] for lab in ls if lab != "shared"]
    return labels, out


def additive_incidence(arrays: Sequence[Array], shared_axes: Sequence[int]) -> Array:
    arrays, shared_axes = _check_shared(arrays, shared_axes)
    s = arrays[0].semiring
    labels, out = _incidence_labels(arrays, shared_axes)
    axis = _label_axes(list(zip(arrays, labels)))
    sizes = {lab: ax.size for lab, ax in axis.items()}
    columns = [
        [a.entries[o] for o in _grid(_strides(ls, a.sizes), out, sizes)]
        for a, ls in zip(arrays, labels)
    ]
    entries = [functools.reduce(s.add, vals) for vals in zip(*columns)]
    s.check_range(entries)
    return Array([axis[lab] for lab in out], entries, s)


def multiplicative_incidence(arrays: Sequence[Array], shared_axes: Sequence[int]) -> Array:
    arrays, shared_axes = _check_shared(arrays, shared_axes)
    labels, out = _incidence_labels(arrays, shared_axes)
    return einsum(list(zip(arrays, labels)), out)


def contract(arrays: Sequence[Array], shared_axes: Sequence[int]) -> Array:
    """Multiply the arrays along one shared index and sum it out.
    Result order = sum of orders - arity."""
    arrays, shared_axes = _check_shared(arrays, shared_axes)
    labels, out = _incidence_labels(arrays, shared_axes)
    return einsum(list(zip(arrays, labels)), [lab for lab in out if lab != "shared"])


def unary_contract(a: Array, axis: int) -> Array:
    """Sum one axis out (boolean 2-arrays: relation projections)."""
    require_int(axis, "BAD_AXIS", "axis position")
    if not (0 <= axis < a.order):
        raise PlexusError("BAD_AXIS", f"axis {axis} out of range")
    return einsum([(a, range(a.order))], [p for p in range(a.order) if p != axis])


def self_contract(a: Array, axis_i: int, axis_j: int) -> Array:
    """Trace-style contraction of two axes of `a` over the same index set."""
    _require_positions((axis_i, axis_j))
    if axis_i == axis_j or not (0 <= axis_i < a.order) or not (0 <= axis_j < a.order):
        raise PlexusError("BAD_AXIS", f"bad self-contraction axes ({axis_i}, {axis_j})")
    labels = [axis_i if p == axis_j else p for p in range(a.order)]
    return einsum([(a, labels)], [p for p in range(a.order) if p not in (axis_i, axis_j)])


def tensor_product(arrays: Sequence[Array]) -> Array:
    arrays = _require_arrays(arrays)
    if not arrays:
        raise PlexusError("BAD_AXIS", "tensor product of nothing")
    labels = [[(k, p) for p in range(a.order)] for k, a in enumerate(arrays)]
    return einsum(list(zip(arrays, labels)), [lab for ls in labels for lab in ls])


def _strides(labels, sizes) -> dict:
    """Row-major stride of each label; a label on several axes walks their
    diagonal, so its strides add up."""
    strides, step = {}, 1
    for lab, n in zip(reversed(labels), reversed(sizes)):
        strides[lab] = strides.get(lab, 0) + step
        step *= n
    return strides


def _grid(strides: dict, labels, size: dict) -> list:
    """Flat offsets of every multi-index over `labels`, in row-major order,
    into entries with the given label strides; `size` gives each label's
    index-set size. A label without a stride repeats the entries along it."""
    offsets = [0]
    for lab in labels:
        stride = strides.get(lab, 0)
        offsets = [o + i * stride for o in offsets for i in range(size[lab])]
    return offsets


def _label_axes(operands, out_labels=()) -> dict:
    """The operand check of every product, run on every kernel call: the
    operands are a nonempty list or tuple of (array, labels) pairs, each
    holding an array and a sequence of hashable labels (BAD_AXIS), one label
    per axis (CONFORMABILITY); all share the first operand's semiring
    (SEMIRING_MISMATCH), and each label names one index set across all of
    them (CONFORMABILITY). `out_labels`, a kernel call's output, is a
    sequence of distinct operand labels (BAD_AXIS). Returns label -> index
    set."""
    if not isinstance(operands, (list, tuple)) or not operands:
        raise PlexusError("BAD_AXIS",
                          f"the operands must be a nonempty list of (array, labels) pairs, got {operands!r}")
    try:
        arrays = [a for a, _ in operands]
    except (TypeError, ValueError):
        raise PlexusError("BAD_AXIS", f"the operands must be (array, labels) pairs, got {operands!r}") from None
    for a in arrays:  # as `_require_arrays`, without building a tuple on the hot path
        if not isinstance(a, Array):
            raise PlexusError("BAD_AXIS", f"operand {a!r} is not an array")
    s = arrays[0].semiring
    axis = {}
    for a, labels in operands:
        try:
            count = len(labels)
        except TypeError:
            raise PlexusError("BAD_AXIS", f"the labels of an operand must be a sequence, got {labels!r}") from None
        if count != a.order:
            raise PlexusError("CONFORMABILITY", f"labels {list(labels)} for an order-{a.order} array")
        if a.semiring is not s and a.semiring != s:
            raise PlexusError("SEMIRING_MISMATCH", f"operands over {s.name} and {a.semiring.name}")
        for lab, ax in zip(labels, a.axes):
            try:
                known = axis.setdefault(lab, ax)
            except TypeError:
                raise PlexusError("BAD_AXIS", f"label {lab!r} is not hashable") from None
            if known is not ax and known != ax:
                raise PlexusError(
                    "CONFORMABILITY",
                    f"index {lab!r} carries {known.id}:{known.size} and {ax.id}:{ax.size}",
                )
    try:
        count, distinct = len(out_labels), set(out_labels)
    except TypeError:
        raise PlexusError("BAD_AXIS",
                          f"the output labels must be a sequence of hashable labels, got {out_labels!r}") from None
    if not distinct <= axis.keys():
        lab = next(lab for lab in out_labels if lab not in axis)
        raise PlexusError("BAD_AXIS", f"output label {lab!r} labels no operand axis")
    if len(distinct) != count:
        raise PlexusError("BAD_AXIS", f"output labels {list(out_labels)} repeat a label")
    return axis


def einsum(operands, out_labels) -> Array:
    """The contraction kernel: every array product goes through here.

    `operands` are (array, labels) pairs naming each axis. Axes with the
    same label are one index (within an array: its diagonal); labels not in
    `out_labels` are summed out. The result has one axis per output label,
    in that order. `_label_axes` checks the operands on every call; callers
    check only their own argument positions. There are no bounds checks
    inside.

    A call is planned by `_plan`, once per shape (the operand labels, their
    index-set sizes and the output labels), and run from the plan's offset
    grids. Any order of the pairwise steps gives the same array
    (generalized distributive law); nat64 is summed exactly and
    `Semiring.check_range` judges the result.
    """
    axis = _label_axes(operands, out_labels)
    out = tuple(out_labels)
    s = operands[0][0].semiring
    terms = [a.entries for a, _ in operands]
    if len(terms) == 1:  # pair a lone term with the scalar one: one path sums and reorders
        terms.append((s.one(),))
    plan = _plan(tuple(tuple(labels) for _, labels in operands), tuple(ax.size for ax in axis.values()), out)
    for step in plan:
        i, j = step.pair
        entries = _contract_pair(s, terms[i], terms[j], step.grids)
        terms = [t for k, t in enumerate(terms) if k != i and k != j] + [entries]
    s.check_range(entries)
    return Array([axis[lab] for lab in out], entries, s)


PLANS = 256  # the contraction shapes `_plan` keeps, the least recently used dropped first


class _Step(namedtuple("_Step", "pair keep summed grids")):
    """One pairwise step of a plan: the positions (i, j) of its two terms in
    the current term list, the labels it keeps, in the result's row-major
    order, the labels it sums, and its offset grids: the first entry of each
    kept multi-index in each term, then each summed multi-index's offset in
    each term. The result goes to the end of the term list."""

    __slots__ = ()


@functools.lru_cache(maxsize=PLANS)
def _plan(labels: tuple, sizes: tuple, out: tuple) -> tuple:
    """The steps of `einsum` on operands with these labels, whose labels in
    order of first appearance have these index-set sizes, onto `out`.

    Terms are contracted pairwise. Each step looks only at the pairs that
    share a label, or at every pair when no two terms share one, takes the
    one whose result has the fewest entries, the earliest pair on a tie,
    and keeps the labels that another term or the output needs, which a
    count of each label's terms tells. The last step contracts the last two
    terms onto `out`. A lone term is paired with the scalar one."""
    size = dict(zip(dict.fromkeys(lab for ls in labels for lab in ls), sizes))
    terms = [_strides(ls, [size[lab] for lab in ls]) for ls in labels]
    if len(terms) == 1:
        terms.append({})
    holders, wanted, steps = Counter(lab for t in terms for lab in t), set(out), []
    while len(terms) > 2:
        at = {}
        for k, t in enumerate(terms):
            for lab in t:
                at.setdefault(lab, []).append(k)
        pairs = sorted({p for ks in at.values() for p in itertools.combinations(ks, 2)})
        best = None
        for i, j in pairs or itertools.combinations(range(len(terms)), 2):
            x, y = terms[i], terms[j]
            keep = [lab for lab in {**x, **y} if lab in wanted or holders[lab] > (lab in x) + (lab in y)]
            count = math.prod(size[lab] for lab in keep)
            if best is None or count < best[0]:
                best = (count, i, j, keep)
        _, i, j, keep = best
        steps.append(_pair_step((i, j), terms[i], terms[j], keep, size))
        merged = _strides(keep, [size[lab] for lab in keep])
        holders.subtract([*terms[i], *terms[j]])  # lists of labels: a dict would count its strides
        holders.update(list(merged))
        terms = [t for k, t in enumerate(terms) if k != i and k != j] + [merged]
    steps.append(_pair_step((0, 1), terms[0], terms[1], out, size))
    return tuple(steps)


def _pair_step(pair, x, y, keep, size) -> _Step:
    """The step contracting terms with strides `x` and `y` onto `keep`."""
    summed = [lab for lab in {**x, **y} if lab not in keep]
    grids = [_compact(_grid(t, labels, size)) for labels in (keep, summed) for t in (x, y)]
    return _Step(pair, tuple(keep), tuple(summed), tuple(grids))


def _compact(offsets: list):
    """An offset grid as a `range` when its offsets step evenly, else as an
    array of C ints: a cached plan keeps no list of Python ints."""
    step = offsets[1] - offsets[0] if len(offsets) > 1 else 1
    if step > 0:
        run = range(offsets[0], offsets[0] + step * len(offsets), step)
        if all(map(operator.eq, offsets, run)):
            return run
    return array("i" if max(offsets) < 2**31 else "q", offsets)


def _contract_pair(s, x, y, grids):
    """Multiply the entries of two terms at a step's offset grids, summing
    the labels it does not keep."""
    kx, ky, dx, dy = grids
    dot = s.dot
    return [dot([x[i + d] for d in dx], [y[j + d] for d in dy]) for i, j in zip(kx, ky)]


def zero_array(axes: Sequence[IndexSet], semiring: Semiring) -> Array:
    return Array(tuple(axes), [semiring.zero()] * _entry_count(axes), semiring)


def full_array(axes: Sequence[IndexSet], semiring: Semiring) -> Array:
    return Array(tuple(axes), [semiring.one()] * _entry_count(axes), semiring)


def kronecker(n: int, index_set: IndexSet, semiring: Semiring) -> Array:
    """The order-n identity array: 1 where all n indices agree, else 0."""
    require_int(n, "BAD_AXIS", "kronecker order")
    if n < 1:
        raise PlexusError("BAD_AXIS", "kronecker order must be >= 1")
    axes = (index_set,) * n
    out = [semiring.zero()] * _entry_count(axes)
    diagonal_step = sum(index_set.size ** t for t in range(n))
    for i in range(index_set.size):
        out[i * diagonal_step] = semiring.one()
    return Array(axes, out, semiring)


def random_array(axes: Sequence[IndexSet], semiring: Semiring, rng) -> Array:
    return Array(
        tuple(axes),
        [semiring.random_element(rng) for _ in range(_entry_count(axes))],
        semiring,
    )


def diagonal_extension(a: Array, axis: int, copies: int = 1) -> Array:
    """Duplicate one axis into copies+1 adjacent axes, entries on the joint
    diagonal; unary contraction of any added axis recovers `a`."""
    require_int(axis, "BAD_AXIS", "axis position")
    if not (0 <= axis < a.order):
        raise PlexusError("BAD_AXIS", f"axis {axis} out of range")
    require_int(copies, "BAD_AXIS", "copies")
    if copies < 1:
        raise PlexusError("BAD_AXIS", "copies must be >= 1")
    n = a.order
    added = list(range(n, n + copies))
    delta = kronecker(copies + 1, a.axes[axis], a.semiring)
    out = [*range(axis + 1), *added, *range(axis + 1, n)]
    return einsum([(a, range(n)), (delta, [axis, *added])], out)
