"""The law-check registry: every law driver of the package, defined once.

A check is called as check(semiring, sizes, trials, rng), draws its random
arrays from `rng`, ignores the arguments it does not need, and returns
(verdict, note): a failed verdict's `law` and `witness` are the counterexample
`plexus laws` prints, and `note` is the line it prints on success. SUITES
(`plexus laws`) and SELFTEST (`plexus selftest`) are the two views. The SUITES
checks also take the keywords `variant` and `twist`, which only the semiheap
suite reads.
"""
from __future__ import annotations

import itertools
import json
import math
import random

from .arrays import diagonal_extension, kronecker, random_array, unary_contract
from .core import IndexSet, Verdict, trial_range
from .diagram import canonical_form, standard_diagram
from .evaluator import evaluate, evaluate_formula_oracle, insert_kronecker
from .rewrite import (
    check_concurrency,
    enumerate_compositions,
    fish_motif,
    random_binding,
    semantic_confluence_binding,
    vee_motif,
)
from .semiring import parse_semiring
from .ternary import (
    _FISH_LABEL,
    _fish_labels,
    _law_axes,
    _monoid_heap,
    _semiheap_trials,
    bijection_heap,
    biunit_pair_check,
    check_heap,
    check_isotropy_biinvariance,
    find_biunit_pairs,
    find_biunits,
    fish,
    fish_form3,
    fish_form4,
    fish_output_order,
    fish_sequentializations_check,
    fish_units_check,
    flat_fish_equiv,
    group_heap,
    heapoid_check,
    indicator_array,
    involuted_monoid,
    make_fish_binding,
    relation_semiheap,
    vector_heap,
)


def _ok(law, note=""):
    return Verdict(True, law), note


def _fail(law, witness=None):
    return Verdict(False, law, witness), ""


def _trials_note(suite, semiring, sizes, trials):
    return f"{suite} ok: {trials} trials, sizes {sizes}, semiring {semiring.name}"


def _conforming_triple(variant, twist, rng, semiring, sizes):
    """Random (a, b, c) accepted by the given fish variant: indices i j p
    q r k carry X Y P W V M, sized by sizes * 2. The tail, body and head are
    drawn in that order; an order that reverses is its own inverse."""
    roles, _, order = _fish_labels(variant, twist)
    iset = {lab: IndexSet(n, x.size) for lab, n, x in zip(_FISH_LABEL.values(), "XYPWVM", _law_axes(sizes) * 2)}
    drawn = [random_array([iset[lab] for lab in labels], semiring, rng) for labels in roles]
    return tuple(drawn[n] for n in order)


# -- the laws suites -------------------------------------------------------


def semiheap(semiring, sizes, trials, rng, variant="IJK", twist=False):
    """Para-associativity (sh) of the fish product on random arrays, drawn
    as semiheap_law_arrays draws them."""
    v = _semiheap_trials(variant, semiring, sizes, trials, rng, twist)
    if not v:
        return v, ""
    return _ok("sh", _trials_note("semiheap", semiring, sizes, trials))


def _shipped_tables():
    """The example tables by name: the heaps of groups, vectors and
    bijections, then relation semiheaps, which are not heaps."""
    z3 = [[(r + c) % 3 for c in range(3)] for r in range(3)]
    return [
        ("group_heap(Z2)", group_heap([[0, 1], [1, 0]])),
        ("group_heap(Z3)", group_heap(z3)),
        ("vector_heap(3,1)", vector_heap(3, 1)),
        ("vector_heap(5,1)", vector_heap(5, 1)),
        ("bijection_heap(2)", bijection_heap(2)),
        ("bijection_heap(3)", bijection_heap(3)),
        ("relation_semiheap(2,2)", relation_semiheap(2, 2)),
        ("relation_semiheap(1,1)", relation_semiheap(1, 1)),
    ]


def heap(semiring, sizes, trials, rng, **_):
    """(sh), (h) and (m) on the heaps of groups, vectors and bijections;
    relations satisfy (sh) but not the heap laws."""
    for name, t in _shipped_tables():
        r = check_heap(t)
        if t.kind != "relation-semiheap" and not r["ok"]:
            return _fail(f"heap:{name}", {"sh": r["sh"].law, "h": r["h"].law, "m": r["m"].law})
        if t.kind == "relation-semiheap" and (not r["sh"] or r["ok"]):
            return _fail(f"semiheap-only:{name}")
    return _ok("heap", "heap ok: group Z2, group Z3, vectors, bijections; relations are semiheap only")


def units(semiring, sizes, trials, rng, **_):
    """The right units: (a t t) = (a u t) = (a t u) = a."""
    axes = _law_axes(sizes)
    for t in trial_range(trials):
        a = random_array(axes, semiring, rng)
        v = fish_units_check(a)
        if not v:
            return _fail(v.law, {"trial": t, "array": list(a.entries)})
    return _ok("right-units", _trials_note("units", semiring, sizes, trials))


def biunit(semiring, sizes, trials, rng, **_):
    """The boolean biunit pairs on (I, J, K): the permutation arrays, one
    for each bijection I -> J x K, each a two-sided unit of the JKI product;
    the order-3 identity is not one."""
    axes = _law_axes(sizes)
    pairs = find_biunit_pairs(*axes, semiring)
    expected = math.factorial(sizes[0]) if sizes[0] == sizes[1] * sizes[2] else 0
    if len(pairs) != expected:
        return _fail("biunit-count", {"expected": expected, "got": len(pairs)})
    for e, e2 in pairs:
        a = random_array(axes, semiring, rng)
        if fish(a, e, e2, "JKI") != a or fish(e, e2, a, "JKI") != a:
            return _fail("biunit-two-sided", {"entries": list(e.entries), "array": list(a.entries)})
    delta = kronecker(3, IndexSet("I", 2), semiring)
    if biunit_pair_check(delta, delta)["ok"]:
        return _fail("delta must fail the first biunit equation")
    return _ok("biunit", f"biunit ok: {len(pairs)} pairs at sizes {sizes}")


def flatfish(semiring, sizes, trials, rng, **_):
    """The mouth-first product is a flattened three-factor matrix product,
    on triples drawn as the KJI product accepts them: the product's tips
    are c's, on index sets other than a's."""
    for t in trial_range(trials):
        a, b, c = _conforming_triple("KJI", False, rng, semiring, sizes)
        verdict = flat_fish_equiv(a, b, c)
        if not verdict:
            return _fail(verdict.law, {"trial": t})
    return _ok("flat-fish", _trials_note("flatfish", semiring, sizes, trials))


def isotropy(semiring, sizes, trials, rng, **_):
    """Relabelings leave the bijection heap invariant, exhaustively."""
    for n in (2, 3):
        v = check_isotropy_biinvariance(n, n)
        if not v:
            return v, ""
    return _ok(v.law, "isotropy ok: sizes 2 and 3, exhaustive")


def heapoid(semiring, sizes, trials, rng, **_):
    """The order-3 identity is a semiheapoid but not a heapoid; the 24
    permutation arrays on (I:4, J:2, K:2) are a Malcev heapoid. They are
    searched first, so the search refuses another semiring before any work."""
    graphs = [e for e, _ in find_biunit_pairs(*_law_axes((4, 2, 2)), semiring)]
    r = heapoid_check([kronecker(3, IndexSet("I", 2), semiring)])
    if not (r["semiheapoid"] and not r["heapoid"]):
        return _fail("delta carrier must be a semiheapoid but not a heapoid")
    r = heapoid_check(graphs, "JKI")
    if not (r["semiheapoid"] and r["heapoid"] and r["malcev"]):
        return _fail("permutation carrier must be a Malcev heapoid")
    return _ok("heapoid", "heapoid ok: delta carrier semiheapoid only; "
                          "permutation carrier Malcev heapoid")


# -- checks that only the selftest runs --------------------------------------


def fish_vs_evaluation(semiring, sizes, trials, rng):
    """fish agrees with evaluating its diagram, by the evaluator and by the
    formula oracle; then each trial checks the engine against the four
    sequential forms on regular arrays, whose legs are not read from the
    engine's label table as the diagram's are."""
    regular = (_law_axes(sizes)[0],) * 3
    for variant, twist in itertools.product(("IJK", "JKI", "KJI"), (False, True)):
        for _ in trial_range(trials):
            a, b, c = _conforming_triple(variant, twist, rng, semiring, sizes)
            direct = fish(a, b, c, variant, twist)
            d, binding = make_fish_binding(a, b, c, variant, twist)
            order = fish_output_order(variant)
            if evaluate(d, binding, order) != direct:
                return _fail("fish-vs-evaluate", {"variant": variant, "twist": twist})
            if evaluate_formula_oracle(d, binding, order) != direct:
                return _fail("fish-vs-oracle", {"variant": variant, "twist": twist})
    for _ in trial_range(trials):
        v = fish_sequentializations_check(*(random_array(regular, semiring, rng) for _ in range(3)))
        if not v:
            return _fail(v.law, v.witness)
    return _ok("fish-vs-evaluation")


def multiway_concurrency(semiring, sizes, trials, rng):
    """Pinned multiway counts of zee under vee and long_fish under fish."""
    for name, motif, want in (("zee", vee_motif(), (2, 4, 1)),
                              ("long_fish", fish_motif(), (3, 5, 1))):
        rep = check_concurrency(standard_diagram(name), motif)
        if (rep["initial_matches"], rep["states"], rep["terminals"]) != want or not rep["concurrent"]:
            return _fail(f"concurrency:{name}", rep)
    return _ok("concurrency")


def rewrite_orders(semiring, sizes, trials, rng):
    """Every rewrite order of a bound host evaluates like the host."""
    for d, motif in ((standard_diagram("chain", 4), vee_motif()),
                     (standard_diagram("long_fish"), fish_motif())):
        for _ in trial_range(trials):
            if not semantic_confluence_binding(d, random_binding(d, semiring, rng), motif)["ok"]:
                return _fail("semantic-confluence", {"edges": len(d.edges)})
    return _ok("semantic-confluence")


def kronecker_identities(semiring, sizes, trials, rng):
    """Diagonal extension undoes unary contraction, and inserting an
    identity edge leaves a diagram's value unchanged."""
    iset = IndexSet("I", 3)
    a = random_array((iset, iset), semiring, rng)
    if unary_contract(diagonal_extension(a, 0), 0) != a:
        return _fail("diagonal-extension")
    d = standard_diagram("fish", size=2)
    for _ in trial_range(trials):
        binding = random_binding(d, semiring, rng)
        if evaluate(*insert_kronecker(d, binding, "v3", "e1")) != evaluate(d, binding):
            return _fail("identity-edge")
    return _ok("kronecker")


def involuted_monoids(semiring, sizes, trials, rng):
    """Wagner's correspondence both ways: each biunit e of each example
    table gives an involuted monoid, a.b = (a e b) and a~ = (e a e), whose
    heap a.b~.c is the table again."""
    for name, t in _shipped_tables():
        biunits = find_biunits(t)
        if not biunits:
            return _fail("biunits", name)
        for e in biunits:
            mult, inv, v = involuted_monoid(t, e)
            if not v:
                return v, ""
            if _monoid_heap(range(t.n), lambda a, b: mult[a][b], inv.__getitem__, t.kind).table != t.table:
                return _fail("round-trip", {"table": name, "biunit": e})
    return _ok("involuted-monoid")


def census(semiring, sizes, trials, rng):
    """Ten composition classes of three ternary edges, three symmetric."""
    reps, symmetric = enumerate_compositions()
    if (len(reps), len(symmetric)) != (10, 3):
        return _fail("census-count", {"classes": len(reps), "symmetric": len(symmetric)})
    want = {canonical_form(standard_diagram(n)) for n in ("bm", "trinity_mid", "trinity_right")}
    if {canonical_form(d) for d in symmetric} != want:
        return _fail("census-symmetric")
    return _ok("census")


def reversal(semiring, sizes, trials, rng):
    """Each variant is the reverse of its partner: (a b c) = (c b a)'."""
    for fwd, rev in (("IJK", "JIK"), ("KIJ", "IKJ"), ("JKI", "KJI")):
        for _ in trial_range(trials):
            a, b, c = _conforming_triple(fwd, False, rng, semiring, sizes)
            if fish(a, b, c, fwd) != fish(c, b, a, rev):
                return _fail("reversal", {"variants": [fwd, rev]})
    return _ok("reversal")


def twist_witness(semiring, sizes, trials, rng):
    """The twist changes some product (explicit forms 3 and 4 differ for
    some random body), but not through the order-3 identity."""
    axes = (_law_axes(sizes)[0],) * 3
    basis = [indicator_array(axes, pos, semiring) for pos in itertools.product(range(axes[0].size), repeat=3)]

    def differs(b):
        return any(fish_form3(a, b, c) != fish_form4(a, b, c) for a in basis for c in basis)

    if differs(kronecker(3, axes[0], semiring)):
        return _fail("twist visible through the order-3 identity")
    if not any(differs(random_array(axes, semiring, rng)) for _ in trial_range(trials)):
        return _fail("no twist witness found")
    return _ok("twist-witness")


# -- the views -------------------------------------------------------------

SUITES = {
    "semiheap": semiheap,
    "heap": heap,
    "units": units,
    "biunit": biunit,
    "flatfish": flatfish,
    "isotropy": isotropy,
    "heapoid": heapoid,
}


def _on(semirings, *sizes):
    """The runs of a selftest row: each semiring at each size triple."""
    return [(s, z) for s in semirings.split() for z in sizes or [(2, 2, 2)]]


# (name, check, runs, trials, pass text); the checks run with "boolean"
# alone read none of their arguments.
SELFTEST = (
    ("fish-matches-diagram-evaluation", fish_vs_evaluation, _on("boolean int-mod:5", (2, 3, 2)), 3,
     "engine, evaluator and formula oracle agree"),
    ("fish-para-associativity", semiheap, _on("boolean int-mod:5"), 6,
     "((abc)de) = (a(dcb)e) = (ab(cde)) on random arrays"),
    ("multiway-concurrency", multiway_concurrency, _on("boolean"), 1,
     "zee 2/4/1 and long_fish 3/5/1, both concurrent"),
    ("semantic-confluence", rewrite_orders, _on("int-mod:7"), 3,
     "all rewrite orders evaluate like the host"),
    ("kronecker-identities", kronecker_identities, _on("int-mod:7"), 3,
     "identity edges are neutral"),
    ("fish-right-units", units, _on("boolean int-mod:5", (2, 3, 2)), 5,
     "(att) = (aut) = (atu) = a"),
    ("flat-fish", flatfish, _on("int-mod:5", (2, 2, 3)), 5,
     "mouth-first product = flattened matrix product"),
    ("biunit-pairs", biunit, _on("boolean", (4, 2, 2), (3, 2, 2)), 1,
     "24 boolean pairs at sizes (4,2,2), none at (3,2,2)"),
    ("finite-semiheaps", heap, _on("boolean"), 1,
     "group, vector, bijection heaps and relation semiheap pass"),
    ("involuted-monoids", involuted_monoids, _on("boolean"), 1,
     "biunits induce involuted monoids"),
    ("isotropy-biinvariance", isotropy, _on("boolean"), 1,
     "relabelings leave the bijection heap invariant"),
    ("composition-census", census, _on("boolean"), 1,
     "10 composition classes, 3 symmetric"),
    ("reversal-relations", reversal, _on("int-mod:5", (2, 3, 2)), 3,
     "each variant is the reverse of its partner"),
    ("twist-witness", twist_witness, _on("boolean"), 40,
     "twist changes values, except through the order-3 identity"),
)


def run_selftest(seed: int = 0):
    """Run every SELFTEST row, each from a fresh Random(seed); a row stops
    at its first failing run. A FAIL line names the law, the failing run
    when the row has several, and the counterexample. Returns (all_ok, lines)."""
    lines = []
    all_ok = True
    for name, check, runs, trials, text in SELFTEST:
        rng = random.Random(seed)
        for token, sizes in runs:
            semiring = parse_semiring(token)
            verdict, _ = check(semiring, sizes, trials, rng)
            if not verdict:
                break
        all_ok = all_ok and verdict.ok
        detail = text
        if not verdict:
            detail = verdict.law + (f" on {semiring.name} at sizes {sizes}" if len(runs) > 1 else "")
            if verdict.witness is not None:
                detail += f": {json.dumps(verdict.witness, default=str)}"
        lines.append(f"{'PASS' if verdict else 'FAIL'} {name}: {detail}")
    return all_ok, lines
