"""The ternary fish product on order-3 arrays, its unit and biunit theory,
and finite ternary operation tables with semiheap/heap law checkers.

The product of arrays a, b, c contracts the tail against the body along the
mouth axis and the body against the head along the two tip axes:

    (a b c)[i, j, k] = sum over p, q, r of a[i,j,p] * b[q,r,p] * c[q,r,k]

for the default variant, where axis 2 is the mouth. The six variants pick
which axis is the mouth and whether the arguments read forward or reversed;
`twist=True` swaps the body's tip axes before contracting with the head.
"""
from __future__ import annotations

import itertools
import math
import random

from .arrays import (Array, _label_axes, broaden, contract, einsum, flatten, kronecker,
                     random_array, zero_array)
from .core import ETA_VARIANTS, IndexSet, PlexusError, Verdict, int_in, trial_range
from .diagram import Diagram, Vertex, standard_diagram
from .evaluator import BoundEdge, evaluate_formula_oracle
from .semiring import Semiring

_BOOLEAN = Semiring("boolean")  # the entries of relation and bijection matrices

# the fish diagram's vertex v<n> is index n of "ijpqrk"; its edges e0, e1,
# e2 are the tail, body and head, on the legs ijp, qrp and qrk
_FISH = standard_diagram("fish")
_FISH_VERTEX = {lab: f"v{n}" for n, lab in enumerate("ijpqrk")}


def _fish_labels(variant: str, twist: bool):
    """The fish geometry, stated once. Returns the kernel labels of the
    tail, body and head over i j p q r k, the output labels, and the
    positions in (a, b, c) of the tail, body and head. The tips sit on the
    two axes that are not the mouth, in order; the twist swaps the body's."""
    if variant not in ETA_VARIANTS:
        raise PlexusError("UNKNOWN_VARIANT", f"unknown fish variant {variant!r}")
    z, rev = ETA_VARIANTS[variant]

    def at(tips, mouth):
        return tips[:z] + mouth + tips[z:]

    roles = (at("ij", "p"), at("rq" if twist else "qr", "p"), at("qr", "k"))
    return roles, at("ij", "k"), ((2, 1, 0) if rev else (0, 1, 2))


def fish(a: Array, b: Array, c: Array, variant: str = "IJK", twist: bool = False) -> Array:
    """Ternary product of three order-3 arrays; the kernel refuses arrays of
    another order or that do not conform."""
    roles, out, order = _fish_labels(variant, twist)
    return einsum([((a, b, c)[n], labels) for n, labels in zip(order, roles)], out)


def make_fish_binding(a: Array, b: Array, c: Array, variant: str = "IJK", twist: bool = False):
    """Build the one-body ternary diagram with a, b, c bound to its edges so
    that evaluating it reproduces fish(a, b, c, variant, twist); evaluation
    refuses arrays that do not conform. Returns (diagram, binding)."""
    roles, _, order = _fish_labels(variant, twist)
    return _fish_diagram([((a, b, c)[n], labels) for n, labels in zip(order, roles)])


def _fish_diagram(terms):
    """The fish diagram with the tail, body and head of `terms`, (array,
    labels over i j p q r k) pairs, bound to its edges: an array's axis n
    sits on the vertex of its n-th label. Returns (diagram, binding)."""
    # each array on its own labels: one label per axis, else CONFORMABILITY
    tail, _, head = (_label_axes([term]) for term in terms)
    axis = {**tail, **head}  # i j p carry the tail's index sets, q r k the head's
    label = {vid: lab for lab, vid in _FISH_VERTEX.items()}
    verts = {vid: Vertex(vid, axis[label[vid]], v.marked) for vid, v in _FISH.vertices.items()}
    binding = {eid: BoundEdge(x, {vid: labels.index(label[vid]) for vid in _FISH.edges[eid].legs})
               for eid, (x, labels) in zip(("e0", "e1", "e2"), terms)}
    return Diagram(verts, _FISH.edges), binding


def fish_output_order(variant: str) -> list:
    """Free vertices of the diagram from make_fish_binding, ordered so the
    evaluated axes line up with fish(): tips at their positions, mouth at z."""
    _, out, _ = _fish_labels(variant, False)
    return [_FISH_VERTEX[lab] for lab in out]


def fish_unit_arrays(index_set: IndexSet, semiring: Semiring):
    """Right units for the default variant: t is the order-3 identity, u is
    the order-2 identity broadened on the left. (a t t) = (a u t) = (a t u) = a."""
    t = kronecker(3, index_set, semiring)
    u = broaden(kronecker(2, index_set, semiring), index_set, 0)
    return t, u


def fish_units_check(a: Array) -> Verdict:
    """Verify the three right-unit identities on a's mouth axis:
    (a t t) = (a u t) = (a t u) = a."""
    if a.order != 3:
        raise PlexusError("CONFORMABILITY", "right units need an order-3 array")
    t, u = fish_unit_arrays(a.axes[2], a.semiring)
    for name, mid, top in (("att", t, t), ("aut", u, t), ("atu", t, u)):
        got = fish(a, mid, top)
        if got != a:
            return Verdict(False, name, {"expected": a.entries, "got": got.entries})
    return Verdict(True, "right-units")


def fish_sequentializations_check(a: Array, b: Array, c: Array) -> Verdict:
    """Cross-check the four explicit sequential forms of the product, each
    evaluated once on regular arrays, against the variant engine: form 1 is
    straight IJK, form 2 its twist, form 4 straight JIK, form 3 its twist.
    Swapping tail and head exchanges 1 with 4 and 2 with 3, so the relabel
    laws test the engine's reversal: IJK on (c, b, a) is form 4, its twist 3."""
    if any(x.order != 3 for x in (a, b, c)) or len(set(a.axes + b.axes + c.axes)) != 1:
        raise PlexusError("CONFORMABILITY", "sequentializations need regular arrays on one index set")
    form1, form2, form3, form4 = (form(a, b, c) for form in (fish_form1, fish_form2, fish_form3, fish_form4))
    checks = (
        ("form1-engine", form1, fish(a, b, c, "IJK", twist=False)),
        ("form2-engine", form2, fish(a, b, c, "IJK", twist=True)),
        ("form3-engine", form3, fish(a, b, c, "JIK", twist=True)),
        ("form4-engine", form4, fish(a, b, c, "JIK", twist=False)),
        ("relabel-1-4", fish(c, b, a, "IJK", twist=False), form4),
        ("relabel-2-3", fish(c, b, a, "IJK", twist=True), form3),
    )
    for law, left, right in checks:
        if left != right:
            return Verdict(False, law, {"left": left.entries, "right": right.entries})
    return Verdict(True, "sequentializations")


def semiheap_law_arrays(variant: str, semiring: Semiring, sizes, trials: int,
                        seed: int = 0, twist: bool = False) -> Verdict:
    """Para-associativity ((abc)de) = (a(dcb)e) = (ab(cde)) on seeded random
    order-3 arrays with the given axis sizes."""
    return _semiheap_trials(variant, semiring, sizes, trials, random.Random(seed), twist)


def _semiheap_trials(variant, semiring, sizes, trials, rng, twist=False) -> Verdict:
    """The trial loop of the para-associativity law: five arrays on (I, J, K)
    drawn from `rng` per trial; a failure's witness names its trial."""
    if not isinstance(sizes, (tuple, list)) or len(sizes) != 3:
        raise PlexusError("BAD_REFERENCE", f"sizes must be three index set sizes, got {sizes!r}")
    axes = [IndexSet(n, s) for n, s in zip("IJK", sizes, strict=True)]
    if twist:  # the twist swaps the body's tips: draw both on the first tip's index set
        first, second = (_fish_labels(variant, False)[1].index(tip) for tip in "ij")
        if sizes[first] != sizes[second]:
            raise PlexusError("CONFORMABILITY", f"the twist of {variant} needs equal tip sizes, got "
                              f"{axes[first].id}:{sizes[first]} and {axes[second].id}:{sizes[second]}")
        axes[second] = axes[first]
    for t in trial_range(trials):
        arrays = [random_array(axes, semiring, rng) for _ in range(5)]
        v = semiheap_check_arrays(*arrays, variant, twist)
        if not v:
            return Verdict(False, v.law, {"trial": t, **v.witness})
    return Verdict(True, "sh")


def semiheap_check_arrays(a, b, c, d, e, variant: str = "IJK", twist: bool = False) -> Verdict:
    """Para-associativity on arrays:
    ((abc)de) = (a(dcb)e) = (ab(cde))."""
    def prod(x, y, z):
        return fish(x, y, z, variant, twist)

    left = prod(prod(a, b, c), d, e)
    mid = prod(a, prod(d, c, b), e)
    right = prod(a, b, prod(c, d, e))
    if left != mid:
        return Verdict(False, "sh-mid", {"left": left.entries, "mid": mid.entries})
    if left != right:
        return Verdict(False, "sh-right", {"left": left.entries, "right": right.entries})
    return Verdict(True, "sh")


def biunit_pair_check(e: Array, e_prime: Array) -> dict:
    """Check the two biunit equations for arrays on axes (I, J, K):
    Q1: sum over p of e[p,i,j]*e'[p,k,l] = [i=k][j=l]
    Q2: sum over q,r of e[i,q,r]*e'[j,q,r] = [i=j].
    They are the left and right unit law of JKI; a witness is a basis position."""
    if e.order != 3 or e_prime.order != 3 or e.axes != e_prime.axes:
        raise PlexusError("CONFORMABILITY", "biunit check needs two arrays on the same three axes")
    q1 = _unit_law(e, e_prime, "JKI", "left", False, "Q1")
    q2 = _unit_law(e, e_prime, "JKI", "right", False, "Q2")
    return {"Q1": q1, "Q2": q2, "ok": q1.ok and q2.ok}


def find_biunit_pairs(I: IndexSet, J: IndexSet, K: IndexSet, semiring: Semiring):
    """Exhaustive boolean search for biunit pairs on (I, J, K), capped at 16
    entries. A boolean two-sided inverse of flatten(e) transposed exists only
    when flatten(e) is a permutation matrix, and then e' = e, so the candidates
    are the graphs of the bijections sigma: I -> J x K, in ascending bitmask
    order (sorted by entries reversed); those that pass biunit_pair_check are
    the pairs (e, e)."""
    if semiring.kind != "boolean":
        raise PlexusError("UNSUPPORTED", "biunit search is implemented for the boolean semiring")
    total = I.size * J.size * K.size
    if total > 16:
        raise PlexusError("UNSUPPORTED", f"search capped at 16 entries, got {total}")
    graphs = sorted((e for _, e in _bijection_graphs((I, J, K))), key=lambda e: e.entries[::-1])
    return [(e, e) for e in graphs if biunit_pair_check(e, e)["ok"]]


def _bijection_graphs(axes):
    """The graphs of the bijections sigma: I -> J x K on axes (I, J, K), as
    (sigma, boolean array) pairs in sorted sigma order, [i, j, k] = [sigma(i)
    = j |K| + k]; there are none unless |I| = |J| |K|."""
    n = axes[1].size * axes[2].size
    sigmas = itertools.permutations(range(n)) if axes[0].size == n else ()
    return [(sigma, Array(axes, [int(sigma[p] == q) for p in range(n) for q in range(n)], _BOOLEAN))
            for sigma in sigmas]


def indicator_array(axes, position, semiring: Semiring) -> Array:
    """Basis array: 1 at one multi-index, 0 elsewhere."""
    a = zero_array(axes, semiring)
    entries = list(a.entries)
    entries[a.offset(position)] = semiring.one()
    return Array(tuple(axes), entries, semiring)


def unit_pair_via_basis(e: Array, e_prime: Array, variant: str = "JKI",
                        side: str = "right", twist: bool = False) -> Verdict:
    """Quantify a unit identity over every array: right means (a e e') = a,
    left means (e e' a) = a. The product is linear in each slot, so the
    basis indicators settle all arrays; a witness is the first that fails,
    in row-major order. A side other than right or left is BAD_REFERENCE."""
    if side not in ("right", "left"):
        raise PlexusError("BAD_REFERENCE", f"unknown unit side {side!r}: expected 'right' or 'left'")
    return _unit_law(e, e_prime, variant, side, twist, f"{side}-unit")


def _unit_law(e, e_prime, variant, side, twist, law) -> Verdict:
    """The one unit law, (a e e') = a (right) or (e e' a) = a (left) for
    every a on e's axes: a's moved axes, whose labels are not the output's,
    pass through the composite of e and e' in their roles, so the law holds
    iff each moved pair carries one index set and the composite is the
    identity. The witness is the first failing indicator: the first bad row."""
    roles, out, order = _fish_labels(variant, twist)
    own = order[0 if side == "right" else 2]  # a's role; the order is its own inverse
    args = (e, e, e_prime) if side == "right" else (e, e_prime, e)  # e stands in for a: same axes
    terms = [(args[n], labels) for n, labels in zip(order, roles)]
    axis = _label_axes(terms)
    moved = [t for t, (x, y) in enumerate(zip(roles[own], out)) if x != y]
    rows, cols = [roles[own][t] for t in moved], [out[t] for t in moved]
    got = einsum([term for n, term in enumerate(terms) if n != own], rows + cols).entries
    s, m, square = e.semiring, len(moved), all(axis[x] == axis[y] for x, y in zip(rows, cols))
    for idx, x in zip(itertools.product(*(range(axis[lab].size) for lab in rows + cols)), got):
        if not square or not s.eq(x, s.one() if idx[:m] == idx[m:] else s.zero()):
            first = dict(zip(moved, idx))  # the row's coordinates
            return Verdict(False, law, {"basis": tuple(first.get(t, 0) for t in range(len(out)))})
    return Verdict(True, law)


def flat_fish_equiv(a: Array, b: Array, c: Array) -> Verdict:
    """The mouth-first reversed product agrees with a three-factor matrix
    product after flattening the tip axes:
    flatten_12(fish(a,b,c,"KJI")) = flatten_12(a) . flatten_12(b)^T . flatten_12(c)."""
    lhs = flatten(fish(a, b, c, "KJI"), (1, 2))
    fa, fb, fc = flatten(a, (1, 2)), flatten(b, (1, 2)), flatten(c, (1, 2))
    ab = contract([fa, fb], [1, 1])
    rhs = contract([ab, fc], [1, 0])
    if lhs != rhs:
        return Verdict(False, "flat-fish", {"lhs": lhs.entries, "rhs": rhs.entries})
    return Verdict(True, "flat-fish")


def fish_form1(a: Array, b: Array, c: Array) -> Array:
    """out[i,j,k] = sum a[i,j,p] b[q,r,p] c[q,r,k]."""
    return _form((a, "ijp"), (b, "qrp"), (c, "qrk"))


def fish_form2(a: Array, b: Array, c: Array) -> Array:
    """out[i,j,k] = sum a[i,j,p] b[r,q,p] c[q,r,k]."""
    return _form((a, "ijp"), (b, "rqp"), (c, "qrk"))


def fish_form3(a: Array, b: Array, c: Array) -> Array:
    """out[i,j,k] = sum c[i,j,p] b[r,q,p] a[q,r,k]."""
    return _form((c, "ijp"), (b, "rqp"), (a, "qrk"))


def fish_form4(a: Array, b: Array, c: Array) -> Array:
    """out[i,j,k] = sum c[i,j,p] b[q,r,p] a[q,r,k]."""
    return _form((c, "ijp"), (b, "qrp"), (a, "qrk"))


def _form(*terms):
    """A form's sum of products, evaluated by the formula oracle: the free
    vertices i j k, in natural order, are the output axes."""
    return evaluate_formula_oracle(*_fish_diagram(terms))


class TernaryTable:
    """A ternary operation on {0..n-1} as a flat lookup table:
    table[(a*n + b)*n + c] = (a b c)."""

    __slots__ = ("n", "table", "labels", "kind")

    def __init__(self, n: int, table, labels=None, kind: str = "custom"):
        if not int_in(n, 1, math.inf):
            raise PlexusError("BAD_TABLE", f"carrier size must be a positive integer, got {n!r}")
        table = _sequence(table, "table")
        if len(table) != n ** 3:
            raise PlexusError("BAD_TABLE", f"expected {n ** 3} table entries, got {len(table)}")
        # one pass of type, min and max passes a good table; the loop names a bad table's first bad entry
        if set(map(type, table)) != {int} or min(table) < 0 or max(table) >= n:
            for x in table:
                if not int_in(x, 0, n - 1):
                    raise PlexusError("BAD_TABLE", f"table entry must be an integer in 0..{n - 1}, got {x!r}")
        self.n = n
        self.table = table
        self.labels = _sequence(labels, "labels") if labels else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise PlexusError("BAD_TABLE", "need one label per element")
        self.kind = kind

    def op(self, a: int, b: int, c: int) -> int:
        return self.table[(a * self.n + b) * self.n + c]

    def __repr__(self):
        return f"TernaryTable(n={self.n}, kind={self.kind!r})"


def _sequence(x, what) -> tuple:
    """tuple(x), or BAD_TABLE if x is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise PlexusError("BAD_TABLE", f"{what} must be a sequence, got {x!r}") from None


def _refuse_outside(t: TernaryTable, *elements):
    """BAD_TABLE unless every one of `elements` is an element of t's carrier."""
    for x in elements:
        if not int_in(x, 0, t.n - 1):
            raise PlexusError("BAD_TABLE", f"{x!r} is not an element of the {t.n}-element carrier")


def _tabulate(elements, op, kind: str, labels=None) -> TernaryTable:
    """The table of a ternary operation on a finite list of distinct,
    hashable elements: (a b c) is the position of op(a, b, c) in the list."""
    index = {x: n for n, x in enumerate(elements)}
    table = [index[op(x, y, z)] for x in elements for y in elements for z in elements]
    return TernaryTable(len(index), table, labels, kind)


def _monoid_heap(elements, mul, inv, kind: str, labels=None) -> TernaryTable:
    """Wagner's correspondence from an involuted monoid, given by its
    elements, product and involution, to its heap: (a b c) = a.b~.c."""
    return _tabulate(elements, lambda a, b, c: mul(mul(a, inv(b)), c), kind, labels)


def group_heap(mult) -> TernaryTable:
    """Heap of a finite group given by its multiplication table:
    (a b c) = a * inverse(b) * c."""
    rows = [_sequence(r, "multiplication table row") for r in _sequence(mult, "multiplication table")]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise PlexusError("BAD_TABLE", "multiplication table must be square")
    if not all(int_in(x, 0, n - 1) for r in rows for x in r):
        raise PlexusError("BAD_TABLE", f"multiplication table entries must be integers in 0..{n - 1}")
    identity = next((e for e in range(n) if all(rows[e][x] == x == rows[x][e] for x in range(n))), None)
    if identity is None:
        raise PlexusError("BAD_TABLE", "no identity element")
    inv = []
    for a in range(n):
        try:
            ia = rows[a].index(identity)
        except ValueError:
            raise PlexusError("BAD_TABLE", f"element {a} has no inverse")
        if rows[ia][a] != identity:
            raise PlexusError("BAD_TABLE", f"element {a} has no two-sided inverse")
        inv.append(ia)
    for a, b, c in itertools.product(range(n), repeat=3):
        if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
            raise PlexusError("BAD_TABLE", f"multiplication not associative at {(a, b, c)}")
    return _monoid_heap(range(n), lambda a, b: rows[a][b], inv.__getitem__, "group-heap")


def relation_semiheap(p: int, q: int) -> TernaryTable:
    """Semiheap of all relations between a p-set and a q-set, encoded as
    bitmasks (bit x*q+y is the pair (x, y)):
    (R1 R2 R3) = {(x, w) : exists y, z with (x,y) in R3, (z,y) in R2, (z,w) in R1},
    the JKI fish product c . b^T . a of their matrices on (P, Q, U:1)."""
    if not (int_in(p, 1, 4) and int_in(q, 1, 4)) or p * q > 4:
        raise PlexusError("BAD_TABLE", f"relation carrier supported for integers p, q >= 1 with p*q <= 4, "
                          f"got {p!r} and {q!r}")
    n, axes = 1 << (p * q), (IndexSet("P", p), IndexSet("Q", q), IndexSet("U", 1))
    carrier = [Array(axes, [(r >> k) & 1 for k in range(p * q)], _BOOLEAN) for r in range(n)]
    labels = [format(r, f"0{p * q}b") for r in range(n)]
    return TernaryTable(n, _closure(carrier, "JKI"), labels, "relation-semiheap")


def bijection_heap(n: int) -> TernaryTable:
    """Heap of bijections on an n-set: (f g h)(x) = f(g_inverse(h(x))), the
    JKI fish product of their graphs on (N, N, U:1), [x, y] = [y = f(x)]."""
    if not int_in(n, 1, 3):
        raise PlexusError("BAD_TABLE", f"bijection carrier supported for 1 to 3 points, got {n!r}")
    graphs = _bijection_graphs((IndexSet("N", n), IndexSet("N", n), IndexSet("U", 1)))
    labels = ["".join(map(str, f)) for f, _ in graphs]
    return TernaryTable(len(graphs), _closure([g for _, g in graphs], "JKI"), labels, "bijection-heap")


def vector_heap(m: int, dim: int) -> TernaryTable:
    """Heap of (Z_m)^dim: (u v w) = u - v + w componentwise mod m. The
    carrier may hold at most 64 elements (262,144 table entries), and dim
    be at most 6; a larger one is refused before anything is built."""
    if not (int_in(m, 1, 64) and int_in(dim, 1, 6)) or m ** dim > 64:
        raise PlexusError("BAD_TABLE", f"vector carrier supported for integers m >= 1 and 1 <= dim <= 6 "
                          f"with m**dim <= 64, got {m!r} and {dim!r}")
    elems = list(itertools.product(range(m), repeat=dim))
    labels = ["".join(map(str, v)) for v in elems]
    return _monoid_heap(elems, lambda u, v: tuple((a + b) % m for a, b in zip(u, v)),
                        lambda u: tuple(-a % m for a in u), "vector-heap", labels)


def make_ternary_table(kind: str, *args) -> TernaryTable:
    """Dispatcher for the example tables: group_heap(mult_table),
    relation_semiheap(p, q), bijection_heap(n), vector_heap(m, dim),
    custom(n, table)."""
    builders = {  # kind -> (builder, least and most argument counts)
        "group_heap": (group_heap, 1, 1),
        "relation_semiheap": (relation_semiheap, 2, 2),
        "bijection_heap": (bijection_heap, 1, 1),
        "vector_heap": (vector_heap, 2, 2),
        "custom": (TernaryTable, 2, 4),
    }
    if kind not in builders:
        raise PlexusError("UNKNOWN_KIND", f"unknown ternary table kind {kind!r}")
    build, least, most = builders[kind]
    if not least <= len(args) <= most:
        counts = str(least) if least == most else f"{least} to {most}"
        raise PlexusError("BAD_REFERENCE", f"{kind} takes {counts} arguments, got {len(args)}")
    return build(*args)


def check_semiheap(t: TernaryTable) -> Verdict:
    """Para-associativity over all quintuples:
    ((abc)de) = (a(dcb)e) = (ab(cde)). Row (x,y) is the map e -> (x y e),
    and rows get interned ids. As maps of (d, e), the sides of sh-right are
    row ((abc),d) and row (a,b) after row (c,d): both read (a,b) only
    through row (a,b), so sh-right is tested once per distinct row, over c
    and d, after composing it with every row once. For sh-mid, R[x] is the
    map d -> id of row (x,d) and k(c,b) the column d -> (d c b): the sides
    are R[(abc)] and R[a] read through k(c,b). Both maps get interned ids,
    and each map R[a] is read through every column once. The pairs (a,b)
    are walked in order; the first that fails a test is scanned over c, d
    and e with the two laws in turn, as the quintuple loop would, for the
    witness."""
    n, T = t.n, t.table
    rng = range(n)
    ids, maps, columns = {}, {}, {}
    row = [ids.setdefault(T[k:k + n], len(ids)) for k in range(0, n ** 3, n)]  # row[x*n+y]: id of row (x,y)
    R = [tuple(row[x * n:(x + 1) * n]) for x in rng]  # R[x][d]: id of row (x,d)
    rid = [maps.setdefault(m, len(maps)) for m in R]  # rid[x]: id of the map R[x]
    # kappa[b][c]: id of the column k(c,b), d -> T[(d*n + c)*n + b]
    kappa = [[columns.setdefault(T[c * n + b::n * n], len(columns)) for c in rng] for b in rng]
    rows, rmaps = list(ids), list(maps)
    right, through = {}, {}
    for a, b in itertools.product(rng, repeat=2):
        ab, m = row[a * n + b], rid[a]
        if ab not in right:  # -1: a composite that is no row equals no left side
            after = [ids.get(tuple(map(rows[ab].__getitem__, r)), -1) for r in rows]
            right[ab] = all(R[x] == tuple(map(after.__getitem__, R[c])) for c, x in enumerate(rows[ab]))
        if m not in through:  # -1: a composite that is no map R[x] equals no left side
            through[m] = [maps.get(tuple(map(rmaps[m].__getitem__, col)), -1) for col in columns]
        if right[ab] and list(map(rid.__getitem__, rows[ab])) == list(map(through[m].__getitem__, kappa[b])):
            continue
        for c, d, e in itertools.product(rng, repeat=3):
            x = T[(T[(a * n + b) * n + c] * n + d) * n + e]
            if x != T[(a * n + T[(d * n + c) * n + b]) * n + e]:
                return Verdict(False, "sh-mid", (a, b, c, d, e))
            if x != T[(a * n + b) * n + T[(c * n + d) * n + e]]:
                return Verdict(False, "sh-right", (a, b, c, d, e))
    return Verdict(True, "sh")


def check_heap(t: TernaryTable) -> dict:
    """Heap laws on top of the semiheap law: (h): (a b b) = a,
    (m): (b b a) = a. Returns each verdict separately."""
    n = t.n
    h = Verdict(True, "h")
    m = Verdict(True, "m")
    for a in range(n):
        for b in range(n):
            if h.ok and t.op(a, b, b) != a:
                h = Verdict(False, "h", (a, b))
            if m.ok and t.op(b, b, a) != a:
                m = Verdict(False, "m", (a, b))
    sh = check_semiheap(t)
    return {"sh": sh, "h": h, "m": m, "ok": sh.ok and h.ok and m.ok}


def _unit_pairs(t: TernaryTable):
    """The pairs (i, j) with (a i j) = a for every a, and the pairs with
    (i j a) = a for every a, each in (i, j) order. Over a, (a i j) is the
    table's column i*n+j, of stride n*n, and (i j a) its row i*n+j."""
    n, T, ids = t.n, t.table, tuple(range(t.n))
    pairs = list(itertools.product(range(n), repeat=2))
    return ([(i, j) for i, j in pairs if T[i * n + j::n * n] == ids],
            [(i, j) for i, j in pairs if T[(i * n + j) * n:(i * n + j + 1) * n] == ids])


def find_biunits(t: TernaryTable) -> list:
    """Elements e with (e e a) = a = (a e e) for every a."""
    unit, co_unit = _unit_pairs(t)
    return [e for e, f in unit if e == f and (e, e) in co_unit]


def involuted_monoid(t: TernaryTable, e: int):
    """From a semiheap with biunit e: a*b = (a e b), a~ = (e a e). Verifies
    the monoid laws and the involution laws. Returns (mult, inv, verdict).
    An e outside the carrier is refused with BAD_TABLE."""
    _refuse_outside(t, e)
    n = t.n
    mult = [[t.op(a, e, b) for b in range(n)] for a in range(n)]
    inv = [t.op(e, a, e) for a in range(n)]
    verdict = Verdict(True, "involuted-monoid")
    for a in range(n):
        if mult[a][e] != a or mult[e][a] != a:
            return mult, inv, Verdict(False, "identity", a)
        if inv[inv[a]] != a:
            return mult, inv, Verdict(False, "involution-squared", a)
    for a, b in itertools.product(range(n), repeat=2):
        if inv[mult[a][b]] != mult[inv[b]][inv[a]]:
            return mult, inv, Verdict(False, "antihomomorphism", (a, b))
    for a, b, c in itertools.product(range(n), repeat=3):
        if mult[mult[a][b]][c] != mult[a][mult[b][c]]:
            return mult, inv, Verdict(False, "associativity", (a, b, c))
    return mult, inv, verdict


def biunit_transport(t: TernaryTable, e: int, e2: int):
    """phi(a) = (a e e2) maps the monoid at e isomorphically onto the monoid
    at e2, with phi(e) = e2. Returns (phi, verdict). An e or e2 outside
    the carrier is refused with BAD_TABLE."""
    _refuse_outside(t, e, e2)
    n = t.n
    phi = [t.op(a, e, e2) for a in range(n)]
    if sorted(phi) != list(range(n)):
        return phi, Verdict(False, "bijection", phi)
    if phi[e] != e2:
        return phi, Verdict(False, "unit-image", phi[e])
    for a, b in itertools.product(range(n), repeat=2):
        if phi[t.op(a, e, b)] != t.op(phi[a], e2, phi[b]):
            return phi, Verdict(False, "multiplication", (a, b))
    for a in range(n):
        if phi[t.op(e, a, e)] != t.op(e2, phi[a], e2):
            return phi, Verdict(False, "involution", a)
    return phi, Verdict(True, "biunit-transport")


def reverse_table(t: TernaryTable) -> TernaryTable:
    """(a b c) of the reverse is (c b a) of the original."""
    return _tabulate(range(t.n), lambda a, b, c: t.op(c, b, a), t.kind + "-reversed", t.labels)


def check_reverse_semiheap(t: TernaryTable) -> Verdict:
    """The reversed operation (a b c) -> (c b a) also satisfies (sh)."""
    return check_semiheap(reverse_table(t))


def check_homomorphism(t1: TernaryTable, t2: TernaryTable, phi) -> Verdict:
    """phi carries the first operation onto the second."""
    phi = _sequence(phi, "phi")
    # images are elements of carrier 2, as table entries are: never a bool or a float
    if t1.n != len(phi) or not all(int_in(x, 0, t2.n - 1) for x in phi):
        raise PlexusError("BAD_TABLE", "phi must map carrier 1 into carrier 2")
    for a, b, c in itertools.product(range(t1.n), repeat=3):
        if phi[t1.op(a, b, c)] != t2.op(phi[a], phi[b], phi[c]):
            return Verdict(False, "homomorphism", (a, b, c))
    return Verdict(True, "homomorphism")


def check_isotropy_biinvariance(A_size: int, B_size: int) -> Verdict:
    """For bijections f, g, h from a source set to a target set and
    relabelings a (source) and b (target): (f.a, b.g.a, b.h) = (f, g, h),
    and inversion is an isomorphism onto the reversed heap of backward
    bijections. Composition and inverse are read from bijection_heap(n)'s
    involuted monoid at its identity, index 0, and (f g h) = f.(g^-1.h) is
    tabulated once from them; a witness names the bijections as tuples."""
    if A_size != B_size:
        raise PlexusError("BAD_TABLE", "bijections need equal source and target sizes")
    t = bijection_heap(A_size)
    comp, inv, _ = involuted_monoid(t, 0)
    perms = [tuple(map(int, f)) for f in t.labels]  # a label spells its bijection's images
    ids = range(t.n)
    prod = [[[comp[f][comp[inv[g]][h]] for h in ids] for g in ids] for f in ids]
    for f, g, h in itertools.product(ids, repeat=3):
        base = prod[f][g][h]
        for a in ids:
            fa, ga = comp[f][a], comp[g][a]
            for b in ids:
                if prod[fa][comp[b][ga]][comp[b][h]] != base:
                    return Verdict(False, "biinvariance", tuple(perms[x] for x in (f, g, h, a, b)))
        if inv[base] != prod[inv[h]][inv[g]][inv[f]]:
            return Verdict(False, "reverse-iso", (perms[f], perms[g], perms[h]))
    return Verdict(True, "isotropy-biinvariance")


def _closure(carrier, variant: str, twist: bool = False) -> list:
    """The fish table of a list of arrays on one constellation and semiring:
    entry (a*n + b)*n + c is the position of (a b c) in the list, looked up
    by its entries (the first of equal arrays wins), or None if missing.
    A product reads its body and head only through their composite, the
    body contracted with the head over the tips, so the closure is two
    kernel steps: every composite in one call, interned by its entries, then
    each tail against the stack of distinct composites. Every product is
    computed before the first lookup, so a nat64 or float64 OVERFLOW
    anywhere is raised even where an earlier product is missing."""
    n = len(carrier)
    axes, s, m = carrier[0].axes, carrier[0].semiring, len(carrier[0].entries)
    stacked = Array((IndexSet("carrier", n), *axes), [v for x in carrier for v in x.entries], s)
    if s.exact:
        first = {}
        for k, x in enumerate(carrier):
            first.setdefault(x.entries, k)
        find = first.get
    else:  # float64 equality is approximate: scan for the first match
        def find(r):
            return next((k for k, x in enumerate(carrier) if all(map(s.eq, x.entries, r))), None)
    (tail, body, head), out, order = _fish_labels(variant, twist)
    # The kernel's range check needs no exception here: each body array is
    # also a tail, and a composite entry above 2^64 - 1, or not finite, makes
    # the product with its body array as the tail overflow too.
    pairs = einsum([(stacked, ["B", *body]), (stacked, ["H", *head])], ["B", "H", "p", "k"])
    w = len(pairs.entries) // (n * n)
    ids = {}
    which = [ids.setdefault(pairs.entries[o:o + w], len(ids)) for o in range(0, n * n * w, w)]
    composites = Array((IndexSet("composite", len(ids)), *pairs.axes[2:]), [v for c in ids for v in c], s)
    found = []  # found[x][d]: index of the product of tail x and composite d, None if missing
    for x in carrier:  # one tail at a time: one block of products in memory
        block = einsum([(x, tail), (composites, ["D", "p", "k"])], ["D", *out])
        found.append([find(block.entries[o:o + m]) for o in range(0, len(block.entries), m)])
    return [found[abc[order[0]]][which[abc[1] * n + abc[order[2]]]]
            for abc in itertools.product(range(n), repeat=3)]


def heapoid_check(carrier, variant: str = "IJK", twist: bool = False) -> dict:
    """Close a finite list of arrays under the fish product and report:
    semiheapoid (closure plus the semiheap law on the closure table), biunit
    pairs quantified over every array on the constellation (checked on basis
    indicators; the product is linear in each slot, so the basis suffices),
    heapoid (every element in some biunit pair), Malcev (every element pairs
    with itself), and whether the tridentity and extended partial identity
    are present and neutral (fish category units).

    A carrier that is not a nonempty sequence of arrays is BAD_TABLE. It
    shares one constellation and one semiring, else it is refused up front
    with the kernel's CONFORMABILITY or SEMIRING_MISMATCH. The table comes
    from `_closure`; an open carrier's witness is its first missing product
    in (a, b, c) order, as `fish` gives it."""
    carrier = _sequence(carrier, "carrier")
    if not carrier:
        raise PlexusError("BAD_TABLE", "empty carrier")
    if not all(isinstance(x, Array) for x in carrier):
        raise PlexusError("BAD_TABLE", "carrier elements must be arrays")
    # one constellation and semiring for all, else the kernel's own error
    _label_axes([(x, "ijk") for x in carrier])
    n, table = len(carrier), _closure(carrier, variant, twist)
    report = {"closed": None, "table": None, "sh": None, "semiheapoid": False, "unit_pairs": [],
              "co_unit_pairs": [], "biunit_pairs": [], "heapoid": False, "malcev": False, "fish_category": False}
    if None in table:
        k = table.index(None)
        a, b, c = carrier[k // (n * n)], carrier[k // n % n], carrier[k % n]
        return {**report, "closed": Verdict(False, "closure", fish(a, b, c, variant, twist))}
    tt = TernaryTable(n, table, kind="fish-carrier")
    sh = check_semiheap(tt)
    unit_pairs, co_unit_pairs = _unit_pairs(tt)
    # neutrality on the carrier is necessary for neutrality on every array,
    # so only those candidates need the basis-level verification
    biunit_pairs = []
    for i, j in unit_pairs:
        if (i, j) not in co_unit_pairs:
            continue
        right = unit_pair_via_basis(carrier[i], carrier[j], variant, "right", twist)
        left = unit_pair_via_basis(carrier[i], carrier[j], variant, "left", twist)
        if right.ok and left.ok:
            biunit_pairs.append((i, j))
    heapoid = all(any(p[0] == i for p in biunit_pairs) for i in range(n))
    malcev = all((i, i) in biunit_pairs for i in range(n))
    fish_category = False
    if len(set(carrier[0].axes)) == 1:
        t, u = fish_unit_arrays(carrier[0].axes[2], carrier[0].semiring)
        if t in carrier and u in carrier:
            fish_category = all(
                unit_pair_via_basis(mid, top, variant, "right", twist).ok
                for mid, top in ((t, t), (u, t), (t, u))
            )
    return {**report, "closed": Verdict(True, "closure"), "table": tt, "sh": sh, "semiheapoid": sh.ok,
            "unit_pairs": unit_pairs, "co_unit_pairs": co_unit_pairs, "biunit_pairs": biunit_pairs,
            "heapoid": heapoid, "malcev": malcev, "fish_category": fish_category}
