"""`heapoid_check`, `unit_pair_via_basis`, `check_semiheap` and the
relation, bijection, group and vector heaps against the plain loops they
replace: the closure as one `fish` call and one linear scan per triple, the
basis check as one `fish` call per indicator, para-associativity as a
five-deep loop over quintuples, the four heap tables as the relational
product, the composite of bijections, a.b^-1.c and u - v + w, one triple at
a time, the isotropy check as a five-deep loop composing permutation tuples,
under each composition injected through the bijection heap's involuted
monoid, and the biunit search as a loop placing each bijection's ones by
hand. The loops are kept here as references. `check_semiheap` meets the
quintuple loop also on one-entry changes of the bijection and relation
heaps and of the 24-element permutation closure, on a table that fails only
at its last first argument, and on tables that fail sh-right alone."""
import itertools
import random

import pytest

from plexus import ternary
from plexus import (
    ETA_VARIANTS,
    Array,
    IndexSet,
    PlexusError,
    TernaryTable,
    bijection_heap,
    biunit_pair_check,
    check_semiheap,
    find_biunit_pairs,
    find_biunits,
    fish,
    fish_unit_arrays,
    group_heap,
    heapoid_check,
    indicator_array,
    kronecker,
    parse_semiring,
    random_array,
    relation_semiheap,
    reorder,
    reverse_table,
    unit_pair_via_basis,
    vector_heap,
)
from plexus.core import Verdict

SEMIRINGS = [parse_semiring(name) for name in ("boolean", "int-mod:3", "nat64", "min-plus", "float64")]
PAIRS = [(variant, twist) for variant in ETA_VARIANTS for twist in (False, True)]
I2 = IndexSet("I", 2)


def loop_semiheap(t):
    """Para-associativity, one quintuple at a time."""
    for a, b, c, d, e in itertools.product(range(t.n), repeat=5):
        x = t.op(t.op(a, b, c), d, e)
        if x != t.op(a, t.op(d, c, b), e):
            return Verdict(False, "sh-mid", (a, b, c, d, e))
        if x != t.op(a, b, t.op(c, d, e)):
            return Verdict(False, "sh-right", (a, b, c, d, e))
    return Verdict(True, "sh")


def loop_unit(e, e_prime, variant, side, twist):
    """The unit identity on each basis indicator, one `fish` call each."""
    for pos in itertools.product(*(range(ax.size) for ax in e.axes)):
        a = indicator_array(e.axes, pos, e.semiring)
        got = fish(a, e, e_prime, variant, twist) if side == "right" else fish(e, e_prime, a, variant, twist)
        if got != a:
            return Verdict(False, f"{side}-unit", {"basis": pos})
    return Verdict(True, f"{side}-unit")


def loop_heapoid(carrier, variant, twist):
    """The closure report, one `fish` call and one linear scan per triple."""
    n = len(carrier)
    table = []
    for a, b, c in itertools.product(carrier, repeat=3):
        r = fish(a, b, c, variant, twist)
        idx = next((i for i, x in enumerate(carrier) if x == r), None)
        if idx is None:
            return {"closed": Verdict(False, "closure", r), "table": None, "sh": None, "semiheapoid": False,
                    "unit_pairs": [], "co_unit_pairs": [], "biunit_pairs": [],
                    "heapoid": False, "malcev": False, "fish_category": False}
        table.append(idx)
    tt = TernaryTable(n, table)
    unit = [(i, j) for i in range(n) for j in range(n) if all(tt.op(k, i, j) == k for k in range(n))]
    co_unit = [(i, j) for i in range(n) for j in range(n) if all(tt.op(i, j, k) == k for k in range(n))]
    biunit = [(i, j) for i, j in unit if (i, j) in co_unit
              and loop_unit(carrier[i], carrier[j], variant, "right", twist).ok
              and loop_unit(carrier[i], carrier[j], variant, "left", twist).ok]
    category = False
    if len(set(carrier[0].axes)) == 1:
        t, u = fish_unit_arrays(carrier[0].axes[2], carrier[0].semiring)
        if any(x == t for x in carrier) and any(x == u for x in carrier):
            category = all(loop_unit(mid, top, variant, "right", twist).ok
                           for mid, top in ((t, t), (u, t), (t, u)))
    sh = loop_semiheap(tt)
    return {"closed": Verdict(True, "closure"), "table": tt.table, "sh": sh, "semiheapoid": sh.ok,
            "unit_pairs": unit, "co_unit_pairs": co_unit, "biunit_pairs": biunit,
            "heapoid": all(any(p[0] == i for p in biunit) for i in range(n)),
            "malcev": all((i, i) in biunit for i in range(n)), "fish_category": category}


def outcome(check):
    """A report with its table as a tuple, or the code of the error raised."""
    try:
        report = check()
    except PlexusError as err:
        return err.code
    if isinstance(report["table"], TernaryTable):
        report["table"] = report["table"].table
    return report


def permutation_carrier(axes, s):
    """The arrays with one `one` in each mouth fibre, placed by a
    permutation: closed under the product in every semiring."""
    p, q, r = (ax.size for ax in axes)
    return [Array(axes, [s.one() if sigma[i] == j * r + k else s.zero()
                         for i in range(p) for j in range(q) for k in range(r)], s)
            for sigma in itertools.permutations(range(p))]


def carriers(s, rng):
    t, u = fish_unit_arrays(I2, s)
    delta = kronecker(3, I2, s)
    yield [delta]
    yield [t, u]
    yield [u, t, u]  # a duplicate: products resolve to its first copy
    yield permutation_carrier((IndexSet("I", 2), IndexSet("J", 2), IndexSet("K", 1)), s)
    yield permutation_carrier((IndexSet("I", 2), IndexSet("J", 1), IndexSet("K", 2)), s)
    yield permutation_carrier((I2, I2, IndexSet("K", 1)), s)
    # five of the six permutations of three points: at most six distinct
    # body-head composites among 25 pairs, so lookups go through interning,
    # and the missing sixth makes the carrier open
    yield permutation_carrier((IndexSet("I", 3), IndexSet("J", 3), IndexSet("K", 1)), s)[:-1]
    for n in (1, 2, 3):
        x = [random_array((I2,) * 3, s, rng) for _ in range(n)]
        yield x
        yield x + [delta, x[0]]


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_heapoid_check_matches_the_loop_closure(s):
    rng = random.Random(5)
    seen = set()
    for carrier in carriers(s, rng):
        for variant, twist in PAIRS:
            want = outcome(lambda: loop_heapoid(carrier, variant, twist))
            got = outcome(lambda: heapoid_check(carrier, variant, twist))
            assert got == want, (variant, twist, carrier)
            seen.add(want if isinstance(want, str) else want["closed"].ok)
    assert seen == {True, False, "CONFORMABILITY"}  # closed, open and refused carriers


def unit_candidates(s, rng):
    """(e, e') pairs for the unit law: the fish units, permutation arrays
    with the size-4 axis at each position, random arrays, and pairs whose
    constellations differ."""
    t, u = fish_unit_arrays(I2, s)
    yield from itertools.product((t, u, kronecker(3, I2, s)), repeat=2)
    perms = permutation_carrier((IndexSet("I", 4), I2, IndexSet("K", 2)), s)[::7]
    for sigma in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):  # axis 0 of each permutation array goes to sigma[0]
        moved = [reorder(x, sigma) for x in perms]
        yield from itertools.product(moved[:2], moved[1:3])
        yield moved[0], random_array(moved[0].axes, s, rng)
    for axes in ((I2,) * 3, (I2, IndexSet("J", 3), I2)):
        for _ in range(3):
            yield random_array(axes, s, rng), random_array(axes, s, rng)
    J2 = IndexSet("J", 2)
    yield random_array((I2,) * 3, s, rng), random_array((J2, I2, I2), s, rng)
    yield random_array((I2, J2, I2), s, rng), random_array((I2, I2, J2), s, rng)
    yield t, perms[0]
    # the mouth of e' on another index set: the composite reads as the
    # identity matrix, but the product leaves a's constellation
    yield t, Array((I2, I2, J2), t.entries, s)
    yield u, Array((J2, I2, I2), t.entries, s)


@pytest.mark.parametrize("s", SEMIRINGS, ids=lambda s: s.name)
def test_unit_pair_via_basis_matches_the_indicator_loop(s):
    def outcome(check):
        try:
            v = check()
        except PlexusError as err:
            return err.code
        return v.ok, v.law, v.witness

    seen = set()
    for e, e_prime in unit_candidates(s, random.Random(3)):
        for (variant, twist), side in itertools.product(PAIRS, ("right", "left")):
            want = outcome(lambda: loop_unit(e, e_prime, variant, side, twist))
            got = outcome(lambda: unit_pair_via_basis(e, e_prime, variant, side, twist))
            assert got == want, (variant, twist, side, e, e_prime)
            seen.add(want if isinstance(want, str) else want[0])
    assert seen == {True, False, "CONFORMABILITY"}  # units, failures and refused pairs


def test_each_unit_check_is_one_composite(monkeypatch):
    # Under JKI the 24 permutation arrays are 24 biunit pairs; each of the 48
    # checks contracts e with e' alone, a 4 x 4 composite (16 entries) on
    # either side, and no operand stacks basis indicators.
    carrier = permutation_carrier((IndexSet("I", 4), I2, IndexSet("K", 2)), parse_semiring("boolean"))
    calls, units, kernel, check = [], [], ternary.einsum, ternary.unit_pair_via_basis

    def counting(operands, out):
        calls.append((operands, kernel(operands, out)))
        return calls[-1][1]

    def unit(*args):
        start = len(calls)
        verdict = check(*args)
        units.append(calls[start:])
        return verdict

    monkeypatch.setattr(ternary, "einsum", counting)
    monkeypatch.setattr(ternary, "unit_pair_via_basis", unit)
    assert len(heapoid_check(carrier, "JKI")["biunit_pairs"]) == 24
    assert len(units) == 48
    for (operands, out), in units:
        assert len(operands) == 2 and len(out.entries) == 16
        assert {ax.id for x, _ in operands for ax in x.axes} <= {"I", "J", "K"}


def random_tables(rng):
    for k in range(400):
        n = 1 + k % 5
        kind = rng.random()
        if kind < 0.1:  # the projections onto a and onto c are semiheaps
            triples = itertools.product(range(n), repeat=3)
            yield TernaryTable(n, [x if kind < 0.05 else z for x, _, z in triples])
        else:
            yield TernaryTable(n, [rng.randrange(n) for _ in range(n ** 3)])


def test_check_semiheap_matches_the_quintuple_loop_on_random_tables():
    laws = set()
    for t in random_tables(random.Random(7)):
        want = loop_semiheap(t)
        assert check_semiheap(t) == want, t.table
        laws.add(want.law)
    assert laws == {"sh", "sh-mid", "sh-right"}


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


SHIPPED = {f"group_heap Z{n}": lambda n=n: group_heap(cyclic(n)) for n in (2, 3, 4, 5)}
SHIPPED.update({
    "vector_heap 3,1": lambda: vector_heap(3, 1),
    "vector_heap 2,2": lambda: vector_heap(2, 2),
    "bijection_heap 2": lambda: bijection_heap(2),
    "bijection_heap 3": lambda: bijection_heap(3),
    "relation_semiheap 2,2": lambda: relation_semiheap(2, 2),
})


@pytest.mark.parametrize("name", list(SHIPPED))
def test_check_semiheap_matches_the_quintuple_loop_on_shipped_tables(name):
    t = SHIPPED[name]()
    for table in (t, reverse_table(t)):
        assert check_semiheap(table) == loop_semiheap(table)


def changed(t, k, v):
    """t with entry k set to v."""
    return TernaryTable(t.n, t.table[:k] + (v,) + t.table[k + 1:])


def one_entry_changes(t, positions=None):
    """The tables that differ from t in one entry, at each of `positions`
    (default every position), each changed to every other element."""
    for k in range(len(t.table)) if positions is None else positions:
        yield from (changed(t, k, v) for v in range(t.n) if v != t.table[k])


def sampled_changes(t, count, seed):
    """`count` seeded one-entry changes of t, each to another element."""
    rng = random.Random(seed)
    for _ in range(count):
        k, v = rng.randrange(len(t.table)), rng.randrange(t.n - 1)
        yield changed(t, k, v + (v >= t.table[k]))


def check_against_the_loop(tables):
    """check_semiheap's verdict on each table is the quintuple loop's; the
    witnesses the loop gives, as a set."""
    witnesses = set()
    for t in tables:
        want = loop_semiheap(t)
        assert check_semiheap(t) == want, t.table
        witnesses.add((want.law, want.witness))
    return witnesses


EXHAUSTED = {
    "bijection_heap 3": lambda: bijection_heap(3),
    "relation_semiheap 1,2": lambda: relation_semiheap(1, 2),
    "relation_semiheap 2,1": lambda: relation_semiheap(2, 1),
}


@pytest.mark.parametrize("name", list(EXHAUSTED))
def test_check_semiheap_matches_the_loop_on_every_one_entry_change(name):
    witnesses = check_against_the_loop(one_entry_changes(EXHAUSTED[name]()))
    assert {law for law, _ in witnesses} == {"sh-mid", "sh-right"}


def test_check_semiheap_matches_the_loop_on_one_entry_changes_of_the_relations_on_2_by_2():
    # 61,440 changes, most failing past the 65,536 quintuples of a = 0; the
    # loop runs on a seeded sample
    witnesses = check_against_the_loop(sampled_changes(relation_semiheap(2, 2), 8, 22))
    assert {law for law, _ in witnesses} == {"sh-mid", "sh-right"}


def test_check_semiheap_matches_the_loop_on_one_entry_changes_of_the_permutation_closure():
    # every entry (x y z) of a heap is read at the quintuple (0, 0, x, y, z),
    # since (0 0 x) = x, so each change fails at (a, b) = (0, 0)
    t = heapoid_check(permutation_carrier((IndexSet("I", 4), I2, IndexSet("K", 2)),
                                          parse_semiring("boolean")), "JKI")["table"]
    assert t.n == 24 and check_semiheap(t).ok
    witnesses = check_against_the_loop(sampled_changes(t, 24, 24))
    assert {w[:2] for _, w in witnesses} == {(0, 0)}


def test_check_semiheap_matches_the_loop_where_only_the_last_rows_fail():
    # (a b c) = a is a semiheap whose rows (a, b) read no other first
    # argument, so a change among the rows of a = 4 fails there alone, after
    # 20 pairs (a, b) that hold
    n = 5
    t = TernaryTable(n, [a for a in range(n) for _ in range(n * n)])
    witnesses = check_against_the_loop(one_entry_changes(t, range(4 * n * n, n ** 3)))
    assert {w[0] for _, w in witnesses} == {4} and {law for law, _ in witnesses} == {"sh-mid", "sh-right"}


@pytest.mark.parametrize("n", [2, 4])
def test_check_semiheap_matches_the_loop_where_only_sh_right_fails(n):
    # (a b c) = c + 1 mod n: both ((abc)de) and (a(dcb)e) are e + 1, while
    # (ab(cde)) is e + 2
    t = TernaryTable(n, [(c + 1) % n for _, _, c in itertools.product(range(n), repeat=3)])
    assert check_against_the_loop([t]) == {("sh-right", (0, 0, 0, 0, 0))}
    assert not any(t.op(t.op(a, b, c), d, e) != t.op(a, t.op(d, c, b), e)
                   for a, b, c, d, e in itertools.product(range(n), repeat=5))


def test_find_biunits_matches_the_diagonal_loop():
    found = set()
    for t in [*random_tables(random.Random(9)), *(build() for build in SHIPPED.values())]:
        want = [e for e in range(t.n) if all(t.op(e, e, a) == a == t.op(a, e, e) for a in range(t.n))]
        assert find_biunits(t) == want, t.table
        found.add(len(want))
    assert {0, 1, 2} < found  # tables with none, one and several biunits


def test_heapoid_refuses_a_mixed_carrier_up_front():
    # the loop returned "not closed" at the first triple, (x x x) = 8x; the
    # stacked carrier is refused before any product
    s = parse_semiring("int-mod:11")
    x = Array((I2,) * 3, [1] * 8, s)
    other = Array((IndexSet("J", 2),) * 3, [0] * 8, s)
    assert not loop_heapoid([x, other], "IJK", False)["closed"].ok
    with pytest.raises(PlexusError) as err:
        heapoid_check([x, other])
    assert err.value.code == "CONFORMABILITY"
    with pytest.raises(PlexusError) as err:
        heapoid_check([x, Array(x.axes, x.entries, parse_semiring("int-mod:13"))])
    assert err.value.code == "SEMIRING_MISMATCH"


@pytest.mark.parametrize("name,big", [("nat64", 2 ** 40), ("float64", 1e200)])
def test_heapoid_raises_an_overflow_anywhere_in_the_block(name, big):
    # (x x x) is missing and comes first; (x y y) overflows in the same block
    s = parse_semiring(name)
    x, y = Array((I2,) * 3, [s.one()] * 8, s), Array((I2,) * 3, [big] * 8, s)
    assert not loop_heapoid([x, y], "IJK", False)["closed"].ok
    with pytest.raises(PlexusError) as err:
        heapoid_check([x, y])
    assert err.value.code == "OVERFLOW"


@pytest.mark.parametrize("name,big", [("nat64", 2 ** 27), ("float64", 1e110)])
@pytest.mark.parametrize("variant", ["IJK", "JIK"])  # forward, and reversed (c is the tail)
def test_heapoid_raises_an_overflow_after_the_first_missing_product(name, big, variant):
    # (x x x) = 8x is missing and comes first; (y y y) = 8 big^3 is the only
    # product that overflows, and it lies in a later block whichever of a or
    # c is the tail. Every product is computed before the first lookup.
    s = parse_semiring(name)
    x, y = Array((I2,) * 3, [s.one()] * 8, s), Array((I2,) * 3, [big] * 8, s)
    assert not loop_heapoid([x, y], variant, False)["closed"].ok
    with pytest.raises(PlexusError) as err:
        heapoid_check([x, y], variant)
    assert err.value.code == "OVERFLOW"


def test_heapoid_closure_multiplies_each_distinct_composite_once(monkeypatch):
    # Under JKI the body-head composites of the 24 permutation arrays are
    # the 24 permutation matrices b^-1 c. The closure is one call for all
    # 576 (b, c) composites and one call per tail against the 24 distinct
    # ones; one call per first argument made 24 blocks of 9,216 entries.
    carrier = permutation_carrier((IndexSet("I", 4), I2, IndexSet("K", 2)), parse_semiring("boolean"))
    calls, kernel = [], ternary.einsum

    def counting(operands, out):
        calls.append((operands, kernel(operands, out)))
        return calls[-1][1]

    class Closed(Exception):
        pass

    def closed(t):  # the closure ends where its table reaches the semiheap check
        raise Closed

    monkeypatch.setattr(ternary, "einsum", counting)
    monkeypatch.setattr(ternary, "check_semiheap", closed)
    with pytest.raises(Closed):
        heapoid_check(carrier, "JKI")
    (_, composites), *products = calls
    assert composites.sizes == (24, 24, 4, 4)
    assert len(products) == 24
    assert all(operands[1][0].sizes == (24, 4, 4) for operands, _ in products)
    assert sum(len(out.entries) for _, out in calls) == 9216 + 9216


def loop_table(elements, op):
    """The table of op on a list of distinct elements, one triple at a time."""
    index = {x: k for k, x in enumerate(elements)}
    return [index[op(x, y, z)] for x in elements for y in elements for z in elements]


def loop_relation_semiheap(p, q):
    """(R1 R2 R3) = {(x, w) : (x,y) in R3, (z,y) in R2, (z,w) in R1 for some y, z}
    on bitmasks, bit x*q+y being the pair (x, y)."""
    def op(r1, r2, r3):
        out = 0
        for x in range(p):
            for w in range(q):
                hit = False
                for y in range(q):
                    if not (r3 >> (x * q + y)) & 1:
                        continue
                    for z in range(p):
                        if (r2 >> (z * q + y)) & 1 and (r1 >> (z * q + w)) & 1:
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    out |= 1 << (x * q + w)
        return out

    n = 1 << (p * q)
    return n, loop_table(range(n), op), [format(r, f"0{p * q}b") for r in range(n)], "relation-semiheap"


def loop_bijection_heap(n):
    """(f g h)(x) = f(g_inverse(h(x))) on the sorted permutations."""
    def op(f, g, h):
        inverse = {y: x for x, y in enumerate(g)}
        return tuple(f[inverse[h[x]]] for x in range(n))

    perms = sorted(itertools.permutations(range(n)))
    return len(perms), loop_table(perms, op), ["".join(map(str, f)) for f in perms], "bijection-heap"


def loop_group_heap(mult):
    """(a b c) = a.b^-1.c, the identity and each inverse found by scanning
    the multiplication table."""
    n = len(mult)
    identity = next(e for e in range(n) if all(mult[e][x] == x == mult[x][e] for x in range(n)))
    inverse = [mult[b].index(identity) for b in range(n)]

    def op(a, b, c):
        return mult[mult[a][inverse[b]]][c]

    return n, loop_table(range(n), op), [str(x) for x in range(n)], "group-heap"


def loop_vector_heap(m, dim):
    """(u v w) = u - v + w componentwise mod m on (Z_m)^dim, in
    lexicographic order."""
    def op(u, v, w):
        return tuple((a - b + c) % m for a, b, c in zip(u, v, w))

    elems = list(itertools.product(range(m), repeat=dim))
    return len(elems), loop_table(elems, op), ["".join(map(str, v)) for v in elems], "vector-heap"


def as_tuple(t):
    return t.n, list(t.table), list(t.labels), t.kind


def relabelled_cyclic(perm):
    """Z_n with element k renamed perm[k]: the identity is perm[0]."""
    n = len(perm)
    table = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        table[perm[a]][perm[b]] = perm[(a + b) % n]
    return table


GROUPS = {f"Z{n}": cyclic(n) for n in (2, 3, 4, 5)}
GROUPS["Z5 relabelled"] = relabelled_cyclic((3, 0, 4, 1, 2))


@pytest.mark.parametrize("name", list(GROUPS))
def test_group_heap_matches_the_hand_loop(name):
    assert as_tuple(group_heap(GROUPS[name])) == loop_group_heap(GROUPS[name])


@pytest.mark.parametrize("m,dim", [(3, 1), (2, 2), (5, 1), (4, 3)])
def test_vector_heap_matches_the_hand_loop(m, dim):
    assert as_tuple(vector_heap(m, dim)) == loop_vector_heap(m, dim)


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 5) for q in range(1, 5) if p * q <= 4])
def test_relation_semiheap_matches_the_relational_loop(p, q):
    assert as_tuple(relation_semiheap(p, q)) == loop_relation_semiheap(p, q)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bijection_heap_matches_the_composite_of_bijections(n):
    assert as_tuple(bijection_heap(n)) == loop_bijection_heap(n)


def compose(f, g):
    return tuple(f[g[x]] for x in range(len(f)))


def inverse(f):
    out = [0] * len(f)
    for x, y in enumerate(f):
        out[y] = x
    return tuple(out)


def loop_isotropy(n, compose=compose, inverse=inverse):
    """The isotropy check as a five-deep loop over permutation tuples,
    composing each product afresh through the given composition and
    inverse, as `(f g h) = f.(g^-1.h)`."""
    def product(f, g, h):
        return compose(f, compose(inverse(g), h))

    perms = sorted(itertools.permutations(range(n)))
    for f, g, h in itertools.product(perms, repeat=3):
        base = product(f, g, h)
        for a in perms:
            fa = compose(f, a)
            ga = compose(g, a)
            for b in perms:
                if product(fa, compose(b, ga), compose(b, h)) != base:
                    return False, "biinvariance", (f, g, h, a, b)
        if inverse(base) != product(inverse(h), inverse(g), inverse(f)):
            return False, "reverse-iso", (f, g, h)
    return True, "isotropy-biinvariance", None


def monoid_tables(n, compose, inverse):
    """The composition and inverse tables over the sorted permutations."""
    perms = sorted(itertools.permutations(range(n)))
    index = {f: k for k, f in enumerate(perms)}
    return [[index[compose(f, g)] for g in perms] for f in perms], [index[inverse(f)] for f in perms]


def isotropy_outcome(n):
    v = ternary.check_isotropy_biinvariance(n, n)
    return v.ok, v.law, v.witness


COMPOSITIONS = {  # (composition, inverse), each returning a permutation tuple
    "exact": (compose, inverse),
    "reversed-composition": (lambda f, g: compose(g, f), inverse),
    "left-argument": (lambda f, g: f, inverse),
    "right-argument": (lambda f, g: g, inverse),
    "identity-inverse": (compose, lambda f: f),
    "one-wrong-pair": (lambda f, g: compose(g, f) if f == (1, 2, 0) and g == (0, 2, 1) else compose(f, g),
                       inverse),
    "reversed-result": (lambda f, g: compose(f, g)[::-1], inverse),
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_bijection_heaps_monoid_is_composition_and_inverse(n):
    mult, inv, verdict = ternary.involuted_monoid(bijection_heap(n), 0)
    assert verdict.ok
    assert (mult, inv) == monoid_tables(n, compose, inverse)


@pytest.mark.parametrize("name", COMPOSITIONS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_isotropy_matches_the_permutation_loop(monkeypatch, name, n):
    # the check reads composition and inverse from the bijection heap's
    # involuted monoid at its identity: inject each composition there
    def monoid(t, e):
        assert (t.kind, e) == ("bijection-heap", 0)
        return (*monoid_tables(n, *COMPOSITIONS[name]), Verdict(True, "involuted-monoid"))

    monkeypatch.setattr(ternary, "involuted_monoid", monoid)
    assert isotropy_outcome(n) == loop_isotropy(n, *COMPOSITIONS[name])


def test_the_compositions_reach_every_isotropy_verdict():
    laws = {loop_isotropy(3, *pair)[1] for pair in COMPOSITIONS.values()}
    assert laws == {"isotropy-biinvariance", "biinvariance", "reverse-iso"}


def loop_biunit_pairs(I, J, K, semiring):
    """Each bijection sigma: I -> J x K in ascending bitmask order, its
    ones placed by hand, kept if it passes the biunit equations."""
    cols = J.size * K.size
    if I.size != cols:
        return []
    pairs = []
    for sigma in sorted(itertools.permutations(range(cols)), key=lambda sg: sg[::-1]):
        entries = [0] * (I.size * cols)
        for p, col in enumerate(sigma):
            entries[p * cols + col] = 1
        e = Array((I, J, K), entries, semiring)
        if biunit_pair_check(e, e)["ok"]:
            pairs.append((e, e))
    return pairs


def test_find_biunit_pairs_matches_the_bijection_loop():
    boolean, found = parse_semiring("boolean"), 0
    for i, j, k in itertools.product(range(1, 17), repeat=3):
        if i * j * k > 16:
            continue
        axes = (IndexSet("I", i), IndexSet("J", j), IndexSet("K", k))
        got, want = find_biunit_pairs(*axes, boolean), loop_biunit_pairs(*axes, boolean)
        assert [(e.axes, e.entries, f.entries) for e, f in got] == \
            [(e.axes, e.entries, f.entries) for e, f in want], (i, j, k)
        found += len(got)
    assert found == 1 + 2 * 2 + 2 * 6 + 3 * 24  # |I|! pairs for each |I| = |J| |K| <= 4
