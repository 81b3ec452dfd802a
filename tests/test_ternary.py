"""The ternary fish product, its law suite, biunit machinery, finite
ternary tables, and carrier closure reports."""
import itertools
import random
import time

import pytest

from plexus import checks, ternary
from plexus import (
    ETA_VARIANTS,
    Array,
    IndexSet,
    PlexusError,
    TernaryTable,
    Verdict,
    bijection_heap,
    biunit_pair_check,
    biunit_transport,
    check_heap,
    check_homomorphism,
    check_isotropy_biinvariance,
    check_reverse_semiheap,
    check_semiheap,
    diagonal_extension,
    enumerate_compositions,
    evaluate,
    find_biunit_pairs,
    find_biunits,
    fish,
    fish_form1,
    fish_form2,
    fish_form3,
    fish_form4,
    fish_output_order,
    fish_sequentializations_check,
    fish_unit_arrays,
    fish_units_check,
    flat_fish_equiv,
    group_heap,
    heapoid_check,
    involuted_monoid,
    kronecker,
    make_array,
    make_fish_binding,
    make_semiring,
    make_ternary_table,
    parse_semiring,
    random_array,
    relation_semiheap,
    reverse_table,
    semiheap_check_arrays,
    semiheap_law_arrays,
    semantic_confluence,
    standard_diagram,
    unit_pair_via_basis,
    vector_heap,
    vee_motif,
    zero_array,
)
from plexus.core import trial_range

BOOL = make_semiring("boolean")
MOD5 = make_semiring("int_mod", 5)
I2, J3, K2 = IndexSet("I", 2), IndexSet("J", 3), IndexSet("K", 2)


def eta_ijk(a, b, c):
    """Independent straight-reading oracle:
    out[i,j,k] = sum_pqr a[i,j,p] b[q,r,p] c[q,r,k]."""
    s = a.semiring
    I, J, P = a.axes
    Q, R, K = c.axes
    out = []
    for i in range(I.size):
        for j in range(J.size):
            for k in range(K.size):
                acc = s.zero()
                for p in range(P.size):
                    for q in range(Q.size):
                        for r in range(R.size):
                            term = s.mul(s.mul(a.entry((i, j, p)), b.entry((q, r, p))), c.entry((q, r, k)))
                            acc = s.add(acc, term)
                out.append(acc)
    return make_array((I, J, K), out, s)


def test_fish_matches_inline_oracle():
    rng = random.Random(11)
    for s in (BOOL, MOD5):
        for _ in range(20):
            a = random_array((I2, J3, K2), s, rng)
            b = random_array((I2, J3, K2), s, rng)
            c = random_array((I2, J3, K2), s, rng)
            assert fish(a, b, c) == eta_ijk(a, b, c)


def test_fish_output_axes():
    rng = random.Random(12)
    a = random_array((I2, J3, K2), MOD5, rng)
    out = fish(a, a, a)
    assert out.axes == (I2, J3, K2)


def test_fish_mixed_heads_conform():
    rng = random.Random(13)
    K5 = IndexSet("K2", 5)
    a = random_array((I2, J3, K2), MOD5, rng)
    b = random_array((I2, J3, K2), MOD5, rng)
    c = random_array((I2, J3, K5), MOD5, rng)
    out = fish(a, b, c)
    assert out.axes == (I2, J3, K5)
    assert out == eta_ijk(a, b, c)


def test_variant_reversal_pairs():
    rng = random.Random(14)
    axes = (I2, I2, I2)
    for _ in range(10):
        a, b, c = (random_array(axes, MOD5, rng) for _ in range(3))
        assert fish(a, b, c, "JIK") == fish(c, b, a, "IJK")
        assert fish(a, b, c, "IKJ") == fish(c, b, a, "KIJ")
        assert fish(a, b, c, "KJI") == fish(c, b, a, "JKI")


def test_all_variants_conform_on_uniform_axes():
    rng = random.Random(15)
    axes = (I2, J3, K2)
    a, b, c = (random_array(axes, MOD5, rng) for _ in range(3))
    for variant in ETA_VARIANTS:
        out = fish(a, b, c, variant)
        assert out.axes == axes


def test_twist_matches_swapped_body_form():
    rng = random.Random(16)
    axes = (I2, I2, I2)
    for _ in range(10):
        a, b, c = (random_array(axes, MOD5, rng) for _ in range(3))
        assert fish(a, b, c, "IJK", twist=True) == fish_form2(a, b, c)
        assert fish(a, b, c, "JIK") == fish_form4(a, b, c)


@pytest.mark.parametrize("semiring", ["boolean", "int-mod:7", "nat64", "min-plus"])
def test_forms_equal_the_engine_on_unequal_index_sets(semiring):
    # six index sets of unequal sizes: a form that read an axis off the wrong
    # argument, or swapped the body's tips, would refuse or disagree
    s = parse_semiring(semiring)
    I, J, P, Q, R, K = (IndexSet(n, k) for n, k in zip("IJPQRK", (2, 3, 2, 3, 1, 2)))
    rng = random.Random(18)
    forms = ((fish_form1, "IJK", False), (fish_form2, "IJK", True),
             (fish_form3, "JIK", True), (fish_form4, "JIK", False))
    for form, variant, twist in forms:
        for _ in range(3):
            tail, head = random_array((I, J, P), s, rng), random_array((Q, R, K), s, rng)
            body = random_array((R, Q, P) if twist else (Q, R, P), s, rng)
            args = (head, body, tail) if variant == "JIK" else (tail, body, head)
            got = form(*args)
            assert got.axes == (I, J, K)
            assert got == fish(*args, variant, twist)


@pytest.mark.parametrize("body_axes", [(IndexSet("I", 3),) * 3, (I2, J3, I2)])
def test_forms_refuse_a_body_on_other_index_sets(body_axes):
    rng = random.Random(19)
    a, c = (random_array((I2, I2, I2), MOD5, rng) for _ in range(2))
    b = random_array(body_axes, MOD5, rng)
    for product in (fish_form1, fish_form2, fish_form3, fish_form4, fish):
        with pytest.raises(PlexusError) as err:
            product(a, b, c)
        assert err.value.code == "CONFORMABILITY"


def test_sequentializations_check():
    rng = random.Random(17)
    axes = (I2, I2, I2)
    for s in (BOOL, MOD5):
        for _ in range(10):
            a, b, c = (random_array(axes, s, rng) for _ in range(3))
            assert fish_sequentializations_check(a, b, c).ok


def test_relabel_laws_test_the_engine_on_swapped_arguments(monkeypatch):
    # an engine wrong only on (c, b, a) passes the four form laws; the
    # relabel law 1-4 reads the engine there and must catch it
    rng = random.Random(17)
    a, b, c = (random_array((I2, I2, I2), MOD5, rng) for _ in range(3))
    engine = ternary.fish

    def wrong_on_swapped(x, y, z, variant="IJK", twist=False):
        out = engine(x, y, z, variant, twist)
        if x is c and y is b and z is a:
            return Array(out.axes, [(out.entries[0] + 1) % 5, *out.entries[1:]], MOD5)
        return out

    monkeypatch.setattr(ternary, "fish", wrong_on_swapped)
    v = fish_sequentializations_check(a, b, c)
    assert (v.ok, v.law) == (False, "relabel-1-4")


def test_the_selftest_row_checks_the_engine_against_the_sequential_forms(monkeypatch):
    # a label table that transposes IJK's output misleads the engine and the
    # diagram binding alike, so only the sequential forms, whose legs are
    # written out, can see it
    labels = ternary._fish_labels

    def transposed(variant, twist):
        roles, out, order = labels(variant, twist)
        return roles, (out[1] + out[0] + out[2] if variant == "IJK" else out), order

    monkeypatch.setattr(ternary, "_fish_labels", transposed)
    laws = {"form1-engine", "form2-engine", "form3-engine", "form4-engine", "relabel-1-4", "relabel-2-3"}
    for s in (BOOL, MOD5):
        v, _ = checks.fish_vs_evaluation(s, (2, 3, 2), 3, random.Random(0))
        assert not v.ok and v.law in laws, s


def test_sequentializations_evaluate_each_form_once(monkeypatch):
    rng = random.Random(17)
    a, b, c = (random_array((I2, I2, I2), MOD5, rng) for _ in range(3))
    oracle, calls = ternary.evaluate_formula_oracle, []

    def counting(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(ternary, "evaluate_formula_oracle", counting)
    assert fish_sequentializations_check(a, b, c).ok
    assert len(calls) == 4


def test_sequentializations_need_regular_arrays():
    rng = random.Random(18)
    a = random_array((I2, J3, K2), MOD5, rng)
    with pytest.raises(PlexusError) as err:
        fish_sequentializations_check(a, a, a)
    assert err.value.code == "CONFORMABILITY"


# Each (variant, twist) product written out by hand, without ETA_VARIANTS:
# the index letters of a, b and c and of the result, read as
# result[out] = sum over p, q, r of a[.] * b[.] * c[.].
FISH_FORMULAS = {
    ("IJK", False): ("ijp", "qrp", "qrk", "ijk"),
    ("IJK", True): ("ijp", "rqp", "qrk", "ijk"),
    ("JIK", False): ("qrk", "qrp", "ijp", "ijk"),
    ("JIK", True): ("qrk", "rqp", "ijp", "ijk"),
    ("KIJ", False): ("ipj", "qpr", "qkr", "ikj"),
    ("KIJ", True): ("ipj", "rpq", "qkr", "ikj"),
    ("IKJ", False): ("qkr", "qpr", "ipj", "ikj"),
    ("IKJ", True): ("qkr", "rpq", "ipj", "ikj"),
    ("JKI", False): ("pij", "pqr", "kqr", "kij"),
    ("JKI", True): ("pij", "prq", "kqr", "kij"),
    ("KJI", False): ("kqr", "pqr", "pij", "kij"),
    ("KJI", True): ("kqr", "prq", "pij", "kij"),
}
MOD7 = make_semiring("int_mod", 7)
# one index set per letter, sized so that no array has two axes of one size
PER_LETTER = {lab: IndexSet(lab.upper(), n) for lab, n in zip("ijpqrk", (2, 3, 4, 3, 2, 4))}


def _by_formula(arrays, letters, out):
    """The product of `arrays` read off their index letters by plain loops,
    with result axes in the order of `out`."""
    s = arrays[0].semiring
    axis = {lab: ax for x, word in zip(arrays, letters) for lab, ax in zip(word, x.axes)}
    entries = []
    for free in itertools.product(*(range(axis[lab].size) for lab in out)):
        acc = s.zero()
        for summed in itertools.product(*(range(axis[lab].size) for lab in "pqr")):
            value = {**dict(zip(out, free)), **dict(zip("pqr", summed))}
            term = s.one()
            for x, word in zip(arrays, letters):
                term = s.mul(term, x.entry(tuple(value[lab] for lab in word)))
            acc = s.add(acc, term)
        entries.append(acc)
    return Array([axis[lab] for lab in out], entries, s)


@pytest.mark.parametrize("regular", [False, True], ids=["per-letter-sets", "one-set"])
@pytest.mark.parametrize("variant,twist", list(FISH_FORMULAS))
def test_fish_and_its_diagram_match_the_hand_written_formula(variant, twist, regular):
    # per-letter index sets catch a wrong geometry as a refusal or a wrong
    # shape, one shared index set as wrong entries
    *letters, out = FISH_FORMULAS[variant, twist]
    rng = random.Random(31)
    for _ in range(3):
        arrays = [random_array([I2 if regular else PER_LETTER[lab] for lab in word], MOD7, rng)
                  for word in letters]
        assert fish(*arrays, variant, twist) == _by_formula(arrays, letters, out)
        d, binding = make_fish_binding(*arrays, variant, twist)
        assert evaluate(d, binding) == _by_formula(arrays, letters, "ijk")


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("position", [0, 1, 2], ids=["a", "b", "c"])
def test_fish_refuses_an_argument_not_of_order_3(position, order):
    for (variant, twist), (*letters, _) in FISH_FORMULAS.items():
        arrays = [zero_array([PER_LETTER[lab] for lab in word], MOD7) for word in letters]
        arrays[position] = zero_array((I2,) * order, MOD7)
        for product in (fish, make_fish_binding):
            with pytest.raises(PlexusError) as err:
                product(*arrays, variant, twist)
            assert err.value.code == "CONFORMABILITY"
            # the message names the argument's labels in the formula
            assert str(err.value) == (f"[CONFORMABILITY] labels {list(letters[position])} "
                                      f"for an order-{order} array")


def test_fish_through_diagram_evaluator():
    rng = random.Random(19)
    axes = (I2, I2, I2)
    for variant in ETA_VARIANTS:
        for twist in (False, True):
            a, b, c = (random_array(axes, MOD5, rng) for _ in range(3))
            d, binding = make_fish_binding(a, b, c, variant, twist)
            got = evaluate(d, binding, fish_output_order(variant))
            want = fish(a, b, c, variant, twist)
            assert got.entries == want.entries


def test_unknown_variant():
    rng = random.Random(20)
    a = random_array((I2, I2, I2), MOD5, rng)
    with pytest.raises(PlexusError) as err:
        fish(a, a, a, "XYZ")
    assert err.value.code == "UNKNOWN_VARIANT"


def test_right_units():
    rng = random.Random(21)
    for s in (BOOL, MOD5):
        for _ in range(10):
            a = random_array((I2, J3, K2), s, rng)
            assert fish_units_check(a).ok
    t, u = fish_unit_arrays(K2, MOD5)
    assert t == kronecker(3, K2, MOD5)
    assert t.axes == (K2, K2, K2) and u.axes == (K2, K2, K2)


def test_semiheap_law_on_arrays():
    for s in (BOOL, MOD5):
        v = semiheap_law_arrays("IJK", s, (2, 3, 2), trials=15, seed=3)
        assert v.ok and v.law == "sh"
    rng = random.Random(22)
    arrays = [random_array((I2, J3, K2), MOD5, rng) for _ in range(5)]
    assert semiheap_check_arrays(*arrays).ok


def test_twisted_semiheap_law_draws_both_tips_on_one_index_set():
    # the tips are the variant's two non-mouth axes; the mouth may differ
    for variant, (z, _) in ETA_VARIANTS.items():
        sizes = [2, 2, 2]
        sizes[z] = 3
        for s in (BOOL, MOD5):
            v = semiheap_law_arrays(variant, s, sizes, trials=4, seed=5, twist=True)
            assert v.ok and v.law == "sh", variant
    with pytest.raises(PlexusError) as err:
        semiheap_law_arrays("JKI", MOD5, (3, 2, 3), trials=4, twist=True)
    assert err.value.code == "CONFORMABILITY"
    assert "got J:2 and K:3" in str(err.value)


@pytest.mark.parametrize("trials", [0, -5])
def test_semiheap_law_refuses_fewer_than_one_trial(trials):
    with pytest.raises(PlexusError) as err:
        semiheap_law_arrays("IJK", BOOL, (2, 2, 2), trials)
    assert err.value.code == "BAD_REFERENCE"
    assert f"trials must be at least 1, got {trials}" in str(err.value)


@pytest.mark.parametrize("check", [
    checks.semiheap, checks.units, checks.flatfish, checks.fish_vs_evaluation,
    checks.rewrite_orders, checks.kronecker_identities, checks.reversal, checks.twist_witness,
], ids=lambda check: check.__name__)
@pytest.mark.parametrize("trials", [0, -5])
def test_registry_trial_loops_refuse_fewer_than_one_trial(check, trials):
    # without the refusal these would report their law as holding, having drawn nothing
    with pytest.raises(PlexusError) as err:
        check(MOD5, (2, 2, 2), trials, random.Random(0))
    assert err.value.code == "BAD_REFERENCE"
    assert f"trials must be at least 1, got {trials}" in str(err.value)


A222 = Array((I2,) * 3, [0] * 8, MOD5)


@pytest.mark.parametrize("call, code", [
    (lambda: trial_range(2.0), "BAD_REFERENCE"),
    (lambda: trial_range("3"), "BAD_REFERENCE"),
    (lambda: trial_range(True), "BAD_REFERENCE"),  # ran one trial
    (lambda: semiheap_law_arrays("IJK", MOD5, (2, 2, 2), 2.0), "BAD_REFERENCE"),
    (lambda: checks.units(MOD5, (2, 2, 2), "3", random.Random(0)), "BAD_REFERENCE"),
    (lambda: semantic_confluence(standard_diagram("chain", n=3), vee_motif(), MOD5, 2.0), "BAD_REFERENCE"),
    (lambda: enumerate_compositions("3"), "BAD_REFERENCE"),
    (lambda: enumerate_compositions(2.5), "BAD_REFERENCE"),
    (lambda: enumerate_compositions(3, True), "BAD_REFERENCE"),  # returned ([], [])
    (lambda: standard_diagram("chain", n=2.5), "BAD_REFERENCE"),
    (lambda: standard_diagram("chain", n=True), "BAD_REFERENCE"),  # returned chain(1)
    (lambda: kronecker(2.0, I2, MOD5), "BAD_AXIS"),
    (lambda: kronecker("2", I2, MOD5), "BAD_AXIS"),
    (lambda: diagonal_extension(A222, 0, 1.5), "BAD_AXIS"),
    (lambda: semiheap_law_arrays("IJK", MOD5, (2, 2), 2), "BAD_REFERENCE"),
    (lambda: semiheap_law_arrays("IJK", MOD5, 2, 2), "BAD_REFERENCE"),
], ids=["trials-float", "trials-str", "trials-bool", "law-trials-float", "registry-trials-str",
        "confluence-trials-float", "census-str", "census-float", "census-bool", "chain-float", "chain-bool",
        "kronecker-float", "kronecker-str", "copies-float", "sizes-two", "sizes-not-a-sequence"])
def test_counts_that_are_not_ints_are_refused(call, code):
    # each raised a raw TypeError or ValueError, or took a bool as a count
    with pytest.raises(PlexusError) as err:
        call()
    assert err.value.code == code


def test_semiheap_law_rejects_broken_product(monkeypatch):
    monkeypatch.setattr(ternary, "fish", lambda x, y, z, variant, twist: fish(x, y, x, variant, twist))
    v = semiheap_law_arrays("IJK", MOD5, (2, 2, 2), trials=15, seed=4)
    assert not v.ok


def test_flat_fish_equivalence():
    rng = random.Random(23)
    M, W, V, S, Y, Z = (IndexSet(n, k) for n, k in zip("MWVSYZ", (2, 2, 3, 2, 3, 2)))
    # one index set triple for all three arrays, then one per role, where
    # the product's tips (Y, Z) differ from a's (W, V) in name and size
    for roles in (((I2, J3, K2),) * 3, ((M, W, V), (S, W, V), (S, Y, Z))):
        for s in (BOOL, MOD5):
            for _ in range(10):
                a, b, c = (random_array(axes, s, rng) for axes in roles)
                assert flat_fish_equiv(a, b, c).ok


def test_biunit_pairs_four_two_two():
    I4 = IndexSet("I", 4)
    pairs = find_biunit_pairs(I4, I2, K2, BOOL)
    assert len(pairs) == 24
    for e, e2 in pairs:
        res = biunit_pair_check(e, e2)
        assert res["Q1"].ok and res["Q2"].ok and res["ok"]
        assert e == e2


def test_biunit_pairs_three_two_two_empty():
    I3 = IndexSet("I", 3)
    assert find_biunit_pairs(I3, I2, K2, BOOL) == []


def loop_biunit_pairs(I, J, K, semiring):
    """The search over every boolean array on (I, J, K), one bitmask each,
    keeping the row-permutation matrices that pass the biunit check."""
    total, cols = I.size * J.size * K.size, J.size * K.size
    full = (1 << cols) - 1
    pairs = []
    for mask in range(1 << total):
        rows = [(mask >> (p * cols)) & full for p in range(I.size)]
        if any(bin(r).count("1") != 1 for r in rows):
            continue
        cover = 0
        for r in rows:
            cover |= r
        if I.size != cols or cover != full:
            continue
        e = Array((I, J, K), [(mask >> off) & 1 for off in range(total)], semiring)
        if biunit_pair_check(e, e)["ok"]:
            pairs.append((e, e))
    return pairs


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2), (3, 1, 3),
                                   (3, 3, 1), (4, 2, 2), (4, 4, 1), (4, 1, 4), (1, 2, 3),
                                   (3, 2, 2), (2, 4, 2)])
def test_biunit_pairs_match_the_bitmask_loop(sizes):
    I, J, K = (IndexSet(name, n) for name, n in zip("IJK", sizes))
    assert find_biunit_pairs(I, J, K, BOOL) == loop_biunit_pairs(I, J, K, BOOL)


def test_delta_three_is_not_a_biunit():
    t = kronecker(3, I2, BOOL)
    res = biunit_pair_check(t, t)
    assert not res["Q1"].ok
    assert not res["ok"]
    # Q1 is the left unit law of JKI: (delta delta a) keeps only a's
    # diagonal tips, so the first failing indicator is (0, 0, 1); Q2 holds
    assert res["Q1"] == Verdict(False, "Q1", {"basis": (0, 0, 1)})
    assert res["Q2"] == Verdict(True, "Q2")


def loop_q1_q2(e, e2):
    """The two biunit equations spelled out, one sum per entry:
    Q1: sum over p of e[p,i,j]*e'[p,k,l] = [i=k][j=l],
    Q2: sum over q,r of e[i,q,r]*e'[j,q,r] = [i=j]."""
    s = e.semiring
    I, J, K = (range(ax.size) for ax in e.axes)

    def total(terms):
        acc = s.zero()
        for x in terms:
            acc = s.add(acc, x)
        return acc

    def holds(got, same):
        return s.eq(got, s.one() if same else s.zero())

    q1 = all(holds(total(s.mul(e.entry((p, i, j)), e2.entry((p, k, l))) for p in I), (i, j) == (k, l))
             for i, j, k, l in itertools.product(J, K, J, K))
    q2 = all(holds(total(s.mul(e.entry((i, q, r)), e2.entry((j, q, r))) for q in J for r in K), i == j)
             for i, j in itertools.product(I, I))
    return q1, q2


@pytest.mark.parametrize("name", ["boolean", "int-mod:3", "nat64", "min-plus", "float64"])
def test_biunit_pair_check_matches_the_literal_equations(name):
    # the check reads Q1 and Q2 as the left and right unit law of JKI; a
    # failing equation's witness is a basis position
    s = parse_semiring(name)
    rng = random.Random(17)
    I4 = IndexSet("I", 4)
    perms = [Array((I4, I2, K2), [s.one() if sigma[p] == q * 2 + r else s.zero()
                                  for p in range(4) for q in range(2) for r in range(2)], s)
             for sigma in itertools.permutations(range(4))][::5]
    pairs = [(x, y) for x in perms for y in perms[:2]]
    pairs += [(kronecker(3, I2, s),) * 2] + [(x, x) for x in fish_unit_arrays(I2, s)]
    for axes in ((I2,) * 3, (I2, J3, K2), (I4, I2, K2)):
        pairs += [(random_array(axes, s, rng), random_array(axes, s, rng)) for _ in range(4)]
        x = Array(axes, [rng.choice((s.zero(), s.one())) for _ in zero_array(axes, s).entries], s)
        pairs.append((x, x))

    def matching(axes, hits):  # one `one` per (p, q, r) in hits
        return Array(axes, [s.one() if idx in hits else s.zero()
                            for idx in itertools.product(*(range(ax.size) for ax in axes))], s)

    wide = matching((I2, I2, K2), {(0, 0, 0), (1, 1, 1)})  # orthonormal rows only: Q2 holds
    tall = matching((I4, IndexSet("J", 1), K2), {(0, 0, 0), (3, 0, 1)})  # orthonormal columns only: Q1 holds
    pairs += [(wide, wide), (tall, tall)]
    seen = set()
    for e, e2 in pairs:
        res = biunit_pair_check(e, e2)
        want = loop_q1_q2(e, e2)
        assert (res["Q1"].ok, res["Q2"].ok) == want and res["ok"] == all(want)
        for law in ("Q1", "Q2"):
            v = res[law]
            assert v.law == law and (v.ok or len(v.witness["basis"]) == 3)
        seen.add(want)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_biunit_search_requires_boolean():
    with pytest.raises(PlexusError) as err:
        find_biunit_pairs(IndexSet("I", 4), I2, K2, MOD5)
    assert err.value.code == "UNSUPPORTED"


Z2 = [[0, 1], [1, 0]]
Z3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_example_tables_are_heaps():
    for t in (
        group_heap(Z2),
        group_heap(Z3),
        vector_heap(3, 1),
        bijection_heap(2),
        bijection_heap(3),
    ):
        res = check_heap(t)
        assert res["ok"], t.kind
        assert find_biunits(t) == list(range(t.n))


def test_relation_table_is_semiheap_not_heap():
    t = relation_semiheap(2, 2)
    assert t.n == 16
    assert check_semiheap(t).ok
    res = check_heap(t)
    assert not res["ok"]
    assert find_biunits(t) == [6, 9]


def test_group_heap_recovers_group_at_identity():
    t = group_heap(Z3)
    mult, inv, verdict = involuted_monoid(t, 0)
    assert verdict.ok
    assert mult == Z3
    assert inv == [0, 2, 1]


def test_involuted_monoid_at_every_biunit():
    for t in (group_heap(Z3), bijection_heap(3), relation_semiheap(2, 2)):
        for e in find_biunits(t):
            _, _, verdict = involuted_monoid(t, e)
            assert verdict.ok, (t.kind, e)


@pytest.mark.parametrize("build", [lambda: group_heap(Z3), lambda: bijection_heap(3), lambda: vector_heap(2, 2)],
                         ids=["group-Z3", "bijection-3", "vector-2-2"])
def test_every_one_entry_change_fails_the_monoid_round_trip(monkeypatch, build):
    # the involuted-monoids row passes on the shipped table; each change of
    # one entry breaks a monoid law at every biunit or gives another table back
    t = build()

    def row(table):
        monkeypatch.setattr(checks, "_shipped_tables", lambda: [("table", table)])
        return checks.involuted_monoids(None, None, 1, None)[0]

    assert row(t).ok
    laws = set()
    for k, x in itertools.product(range(t.n ** 3), range(1, t.n)):
        table = list(t.table)
        table[k] = (table[k] + x) % t.n
        verdict = row(TernaryTable(t.n, table))
        assert not verdict.ok, (k, table[k])
        laws.add(verdict.law)
    assert "round-trip" in laws


def test_biunit_transport():
    t = relation_semiheap(2, 2)
    phi, verdict = biunit_transport(t, 6, 9)
    assert verdict.ok
    assert phi[6] == 9
    t2 = bijection_heap(3)
    for e, e2 in itertools.product(find_biunits(t2), repeat=2):
        _, verdict = biunit_transport(t2, e, e2)
        assert verdict.ok


def test_reverse_table():
    t = relation_semiheap(2, 2)
    r = reverse_table(t)
    for a, b, c in itertools.product(range(t.n), repeat=3):
        assert r.op(a, b, c) == t.op(c, b, a)
    assert check_reverse_semiheap(t).ok
    rr = reverse_table(r)
    assert rr.table == t.table


def test_homomorphism_between_two_element_heaps():
    assert check_homomorphism(group_heap(Z2), bijection_heap(2), [0, 1]).ok
    broken = TernaryTable(2, [0] * 8)
    assert not check_homomorphism(group_heap(Z2), broken, [0, 1]).ok
    with pytest.raises(PlexusError) as err:
        check_homomorphism(group_heap(Z2), bijection_heap(2), [0, 1, 0])
    assert err.value.code == "BAD_TABLE"


@pytest.mark.parametrize("image", [-1, 2, 0.5, True], ids=["negative", "past-the-end", "float", "bool"])
def test_homomorphism_refuses_an_image_outside_the_carrier(image):
    # -1 would wrap through negative indexing, 0.5 index nothing, True pass as 1
    constant = TernaryTable(2, [0] * 8)
    with pytest.raises(PlexusError) as err:
        check_homomorphism(constant, constant, [0, image])
    assert err.value.code == "BAD_TABLE"


@pytest.mark.parametrize("call", [
    lambda t: involuted_monoid(t, -1),
    lambda t: involuted_monoid(t, 3),
    lambda t: involuted_monoid(t, True),
    lambda t: involuted_monoid(t, 1.0),
    lambda t: biunit_transport(t, 0, 5),
    lambda t: biunit_transport(t, -1, 0),
    lambda t: biunit_transport(t, 0, 2.0),
], ids=["monoid-negative", "monoid-past-the-end", "monoid-bool", "monoid-float",
        "transport-past-the-end", "transport-negative", "transport-float"])
def test_biunit_constructions_refuse_an_element_outside_the_carrier(call):
    # -1 read wrapped table entries, 3 raised IndexError, and 5 gave a
    # made-up unit-image verdict
    t = vector_heap(3, 1)
    assert involuted_monoid(t, 2)[2].ok and biunit_transport(t, 0, 2)[1].ok
    with pytest.raises(PlexusError) as err:
        call(t)
    assert err.value.code == "BAD_TABLE"


@pytest.mark.parametrize("build", [
    lambda: group_heap([[0, 1, 2], [1, 2, 0], [2, 0, 7]]),
    lambda: group_heap([[0, 1], [1, 0.0]]),
    lambda: group_heap([[0, 1], [1, False]]),
    lambda: relation_semiheap(2.0, 2),
    lambda: relation_semiheap(1, True),
    lambda: bijection_heap(2.0),
    lambda: bijection_heap(True),
    lambda: vector_heap(2.5, 1),
    lambda: vector_heap(True, True),
    lambda: check_isotropy_biinvariance(2.0, 2.0),
    lambda: check_isotropy_biinvariance(True, True),
], ids=["group-out-of-range", "group-float", "group-bool", "relation-float", "relation-bool",
        "bijection-float", "bijection-bool", "vector-float", "vector-bool", "isotropy-float",
        "isotropy-bool"])
def test_table_builders_refuse_sizes_and_entries_that_are_not_integers(build):
    # as table entries: an int in range, never a bool or a float; these
    # raised IndexError or TypeError, or were accepted as 1 and 0
    with pytest.raises(PlexusError) as err:
        build()
    assert err.value.code == "BAD_TABLE"


@pytest.mark.parametrize("build, code", [
    (lambda: group_heap(5), "BAD_TABLE"),
    (lambda: group_heap([1, 2]), "BAD_TABLE"),
    (lambda: TernaryTable(1, 5), "BAD_TABLE"),
    (lambda: TernaryTable(2, [0] * 8, labels=5), "BAD_TABLE"),
    (lambda: make_ternary_table("vector_heap", 2), "BAD_REFERENCE"),
    (lambda: heapoid_check(5), "BAD_TABLE"),
    (lambda: heapoid_check([1]), "BAD_TABLE"),
    (lambda: check_homomorphism(group_heap([[0]]), group_heap([[0]]), 5), "BAD_TABLE"),
], ids=["group-not-a-table", "group-rows-not-sequences", "table-not-a-sequence", "labels-not-a-sequence",
        "dispatch-missing-argument", "carrier-not-a-sequence", "carrier-not-arrays", "phi-not-a-sequence"])
def test_table_constructors_refuse_arguments_of_the_wrong_shape(build, code):
    # these raised a raw TypeError
    with pytest.raises(PlexusError) as err:
        build()
    assert err.value.code == code


# the smallest loops that are not groups have order 5; in this one every
# element is its own two-sided inverse, so only associativity fails
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


@pytest.mark.parametrize("call, code, message", [
    (lambda: group_heap([[0, 1], [1]]), "BAD_TABLE", "multiplication table must be square"),
    (lambda: group_heap([[0, 0], [0, 0]]), "BAD_TABLE", "no identity element"),
    (lambda: group_heap([[0, 1], [1, 1]]), "BAD_TABLE", "element 1 has no inverse"),
    (lambda: group_heap([[0, 1, 2], [1, 2, 0], [2, 2, 1]]), "BAD_TABLE", "element 1 has no two-sided inverse"),
    (lambda: group_heap(LOOP5), "BAD_TABLE", "multiplication not associative at (1, 1, 2)"),
    (lambda: find_biunit_pairs(IndexSet("I", 3), J3, K2, BOOL), "UNSUPPORTED", "search capped at 16 entries, got 18"),
    (lambda: fish_units_check(Array((I2, I2), [0] * 4, BOOL)), "CONFORMABILITY", "right units need an order-3 array"),
    # the kernel read `.order` or `.semiring` of the int first
    (lambda: fish(A222, A222, 5), "BAD_AXIS", "operand 5 is not an array"),
    (lambda: fish(A222, 5, A222), "BAD_AXIS", "operand 5 is not an array"),
    (lambda: fish(5, A222, A222), "BAD_AXIS", "operand 5 is not an array"),
    (lambda: make_fish_binding(A222, 5, A222), "BAD_AXIS", "operand 5 is not an array"),
    (lambda: semiheap_check_arrays(A222, A222, A222, A222, 5), "BAD_AXIS", "operand 5 is not an array"),
    (lambda: flat_fish_equiv(5, A222, A222), "BAD_AXIS", "operand 5 is not an array"),
], ids=["group-not-square", "group-no-identity", "group-no-inverse", "group-one-sided-inverse",
        "group-not-associative", "biunit-search-cap", "units-order", "fish-c", "fish-b", "fish-a",
        "fish-binding", "semiheap-arrays", "flat-fish"])
def test_refusals_name_their_code_and_reason(call, code, message):
    with pytest.raises(PlexusError) as err:
        call()
    assert str(err.value) == f"[{code}] {message}"


def test_vector_heap_refuses_a_large_carrier_before_building_it():
    assert vector_heap(4, 3).n == 64  # the cap itself is allowed
    for m, dim in ((6, 3), (65, 1), (2, 7), (1, 10**9)):
        start = time.perf_counter()
        with pytest.raises(PlexusError) as err:
            vector_heap(m, dim)
        assert err.value.code == "BAD_TABLE"
        assert time.perf_counter() - start < 0.1


def test_isotropy_biinvariance():
    assert check_isotropy_biinvariance(2, 2).ok
    assert check_isotropy_biinvariance(3, 3).ok
    with pytest.raises(PlexusError):
        check_isotropy_biinvariance(2, 3)
    with pytest.raises(PlexusError):
        check_isotropy_biinvariance(4, 4)


def test_make_ternary_table_dispatch():
    t = make_ternary_table("vector_heap", 2, 2)
    assert t.n == 4
    assert check_heap(t)["ok"]
    with pytest.raises(PlexusError) as err:
        make_ternary_table("nonsense", 1)
    assert err.value.code == "UNKNOWN_KIND"


def test_ternary_table_validation():
    with pytest.raises(PlexusError):
        TernaryTable(0, [])
    with pytest.raises(PlexusError):
        TernaryTable(2, [0] * 7)
    with pytest.raises(PlexusError):
        TernaryTable(2, [0] * 7 + [5])
    with pytest.raises(PlexusError):
        TernaryTable(2, [0] * 8, labels=["only-one"])


@pytest.mark.parametrize("n, table", [
    (2, [0.5] * 8),  # was accepted, and check_semiheap then raised a raw TypeError
    (2, ["0"] * 8),  # raised a raw TypeError at construction
    (2, [True] + [0] * 7),  # passed as 1
    (2.0, [0] * 8),
])
def test_ternary_table_refuses_entries_that_are_not_integers(n, table):
    with pytest.raises(PlexusError) as err:
        TernaryTable(n, table)
    assert err.value.code == "BAD_TABLE"


def test_heapoid_delta_alone():
    t, _ = fish_unit_arrays(I2, BOOL)
    rep = heapoid_check([t])
    assert rep["semiheapoid"]
    assert rep["biunit_pairs"] == []
    assert not rep["heapoid"]


def test_heapoid_delta_with_unit_is_fish_category():
    t, u = fish_unit_arrays(I2, BOOL)
    rep = heapoid_check([t, u])
    assert rep["semiheapoid"]
    assert rep["fish_category"]
    assert not rep["heapoid"]


def test_heapoid_permutation_carrier_is_malcev():
    I4 = IndexSet("I", 4)
    carrier = []
    for sigma in itertools.permutations(range(4)):
        entries = [
            1 if sigma[p] == q * 2 + r else 0
            for p in range(4)
            for q in range(2)
            for r in range(2)
        ]
        carrier.append(make_array((I4, I2, K2), entries, BOOL))
    rep = heapoid_check(carrier, "JKI")
    assert rep["closed"].ok
    assert rep["semiheapoid"]
    assert rep["heapoid"]
    assert rep["malcev"]
    assert len(rep["biunit_pairs"]) == 24


def test_heapoid_rejects_empty_carrier():
    with pytest.raises(PlexusError) as err:
        heapoid_check([])
    assert err.value.code == "BAD_TABLE"


@pytest.mark.parametrize("side", ["rihgt", "Right", "", "both"])
def test_unit_pair_via_basis_refuses_an_unknown_side(side):
    # a misspelt side used to run the left check under the law "<side>-unit"
    t, _ = fish_unit_arrays(I2, BOOL)
    assert unit_pair_via_basis(t, t, "IJK", "right") == Verdict(True, "right-unit")
    assert unit_pair_via_basis(t, t, "IJK", "left").law == "left-unit"
    with pytest.raises(PlexusError) as err:
        unit_pair_via_basis(t, t, "IJK", side)
    assert err.value.code == "BAD_REFERENCE"
