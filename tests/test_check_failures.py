"""Every law check driven to its failing verdict. A check of the registry in
`plexus.checks` is run with the function it calls replaced by one that
reports (or computes) a failure, and its verdict's law and witness are
pinned; the ternary and semiring checks fail on a patched product, a
crafted table or a corrupted `Semiring` subclass. So a failure path that
returns the wrong law, loses its witness or passes anyway is seen, not only
the passing paths the shipped examples take."""
import random
from types import SimpleNamespace

import pytest

from plexus import checks, rewrite, ternary
from plexus.arrays import Array, random_array
from plexus.core import IndexSet, Verdict
from plexus.diagram import standard_diagram
from plexus.rewrite import semantic_confluence, vee_motif
from plexus.semiring import Semiring, check_semiring_axioms, make_semiring
from plexus.ternary import TernaryTable, biunit_transport, involuted_monoid

BOOL = make_semiring("boolean")
MOD7 = make_semiring("int_mod", 7)
I2 = IndexSet("I", 2)


def _shifted(x: Array) -> Array:
    """x with every int-mod:7 entry moved by one: equal to nothing x equals."""
    return Array(x.axes, [(v + 1) % 7 for v in x.entries], x.semiring)


def _run(check, semiring=MOD7, sizes=(2, 2, 2), trials=2):
    return check(semiring, sizes, trials, random.Random(0))


def _semiheap_fails(monkeypatch):
    monkeypatch.setattr(checks, "_semiheap_trials", lambda *a: Verdict(False, "sh-mid", {"trial": 0}))
    return _run(checks.semiheap)


def _heap_fails(monkeypatch):
    monkeypatch.setattr(checks, "check_heap", lambda t: {
        "ok": False, "sh": Verdict(True, "sh"), "h": Verdict(False, "h", (0, 1)), "m": Verdict(True, "m")})
    return _run(checks.heap, BOOL)


def _relations_pass_the_heap_laws(monkeypatch):
    monkeypatch.setattr(checks, "check_heap", lambda t: {"ok": True, "sh": Verdict(True, "sh")})
    return _run(checks.heap, BOOL)


def _units_fail(monkeypatch):
    monkeypatch.setattr(checks, "fish_units_check", lambda a: Verdict(False, "aut"))
    return _run(checks.units, sizes=(1, 1, 1))


def _no_biunit_pairs(monkeypatch):
    monkeypatch.setattr(checks, "find_biunit_pairs", lambda *a: [])
    return _run(checks.biunit, BOOL, (2, 2, 1))


def _a_pair_is_not_two_sided(monkeypatch):
    monkeypatch.setattr(checks, "fish", lambda a, b, c, variant: b)  # (a e e') is e
    return _run(checks.biunit, BOOL, (2, 2, 1))


def _delta_passes_the_biunit_equations(monkeypatch):
    monkeypatch.setattr(checks, "biunit_pair_check", lambda e, e2: {"ok": True})
    return _run(checks.biunit, BOOL, (3, 2, 2))


def _flat_fish_fails(monkeypatch):
    monkeypatch.setattr(checks, "flat_fish_equiv", lambda a, b, c: Verdict(False, "flat-fish"))
    return _run(checks.flatfish)


def _isotropy_fails(monkeypatch):
    monkeypatch.setattr(checks, "check_isotropy_biinvariance", lambda n, m: Verdict(False, "biinvariance", n))
    return _run(checks.isotropy, BOOL)


def _delta_is_a_heapoid(monkeypatch):
    monkeypatch.setattr(checks, "heapoid_check", lambda *a: {"semiheapoid": True, "heapoid": True, "malcev": True})
    return _run(checks.heapoid, BOOL)


def _no_carrier_is_a_heapoid(monkeypatch):
    monkeypatch.setattr(checks, "heapoid_check", lambda *a: {"semiheapoid": True, "heapoid": False, "malcev": False})
    return _run(checks.heapoid, BOOL)


def _evaluation_disagrees(monkeypatch):
    monkeypatch.setattr(checks, "evaluate", lambda d, binding, order: None)
    return _run(checks.fish_vs_evaluation)


def _oracle_disagrees(monkeypatch):
    monkeypatch.setattr(checks, "evaluate_formula_oracle", lambda d, binding, order: None)
    return _run(checks.fish_vs_evaluation)


def _a_sequential_form_disagrees(monkeypatch):
    monkeypatch.setattr(checks, "fish_sequentializations_check",
                        lambda a, b, c: Verdict(False, "form2-engine", {"left": 0, "right": 1}))
    return _run(checks.fish_vs_evaluation)


def _multiway_counts_change(monkeypatch):
    report = {"initial_matches": 2, "states": 5, "terminals": 1, "concurrent": True}
    monkeypatch.setattr(checks, "check_concurrency", lambda host, motif: report)
    return _run(checks.multiway_concurrency, BOOL)


def _a_rewrite_order_disagrees(monkeypatch):
    monkeypatch.setattr(checks, "semantic_confluence_binding", lambda d, binding, motif: {"ok": False})
    return _run(checks.rewrite_orders)


def _diagonal_extension_is_not_undone(monkeypatch):
    monkeypatch.setattr(checks, "unary_contract", lambda a, axis: _shifted(a))
    return _run(checks.kronecker_identities)


def _an_identity_edge_changes_the_value(monkeypatch):
    monkeypatch.setattr(checks, "insert_kronecker", lambda d, binding, v, e: (
        d, {eid: be.__class__(_shifted(be.array), be.leg_to_axis) for eid, be in binding.items()}))
    return _run(checks.kronecker_identities)


def _a_table_has_no_biunit(monkeypatch):
    monkeypatch.setattr(checks, "find_biunits", lambda t: [])
    return _run(checks.involuted_monoids, BOOL)


def _a_monoid_law_fails(monkeypatch):
    monkeypatch.setattr(checks, "involuted_monoid", lambda t, e: ([], [], Verdict(False, "identity", 1)))
    return _run(checks.involuted_monoids, BOOL)


def _the_monoid_heap_is_another_table(monkeypatch):
    monkeypatch.setattr(checks, "_monoid_heap", lambda *a: SimpleNamespace(table=None))
    return _run(checks.involuted_monoids, BOOL)


def _the_census_counts_change(monkeypatch):
    monkeypatch.setattr(checks, "enumerate_compositions", lambda: ([], []))
    return _run(checks.census, BOOL)


def _the_symmetric_classes_change(monkeypatch):
    fish = standard_diagram("fish")
    monkeypatch.setattr(checks, "enumerate_compositions", lambda: ([fish] * 10, [fish] * 3))
    return _run(checks.census, BOOL)


def _a_variant_is_not_its_partners_reverse(monkeypatch):
    monkeypatch.setattr(checks, "fish", lambda a, b, c, variant: a)  # (a b c) = a, but (c b a)' = c
    return _run(checks.reversal)


def _the_identity_body_shows_the_twist(monkeypatch):
    monkeypatch.setattr(checks, "fish_form3", lambda a, b, c: None)
    return _run(checks.twist_witness, BOOL)


def _no_body_shows_the_twist(monkeypatch):
    monkeypatch.setattr(checks, "fish_form3", checks.fish_form4)
    return _run(checks.twist_witness, BOOL)


# (the failure, the law, the witness, or a callable that tests it)
FAILURES = [
    (_semiheap_fails, "sh-mid", {"trial": 0}),
    (_heap_fails, "heap:group_heap(Z2)", {"sh": "sh", "h": "h", "m": "m"}),
    (_relations_pass_the_heap_laws, "semiheap-only:relation_semiheap(2,2)", None),
    (_units_fail, "aut", {"trial": 0, "array": [6]}),
    (_no_biunit_pairs, "biunit-count", {"expected": 2, "got": 0}),
    (_a_pair_is_not_two_sided, "biunit-two-sided", lambda w: sorted(w) == ["array", "entries"]),
    (_delta_passes_the_biunit_equations, "delta must fail the first biunit equation", None),
    (_flat_fish_fails, "flat-fish", {"trial": 0}),
    (_isotropy_fails, "biinvariance", 2),
    (_delta_is_a_heapoid, "delta carrier must be a semiheapoid but not a heapoid", None),
    (_no_carrier_is_a_heapoid, "permutation carrier must be a Malcev heapoid", None),
    (_evaluation_disagrees, "fish-vs-evaluate", {"variant": "IJK", "twist": False}),
    (_oracle_disagrees, "fish-vs-oracle", {"variant": "IJK", "twist": False}),
    (_a_sequential_form_disagrees, "form2-engine", {"left": 0, "right": 1}),
    (_multiway_counts_change, "concurrency:zee",
     {"initial_matches": 2, "states": 5, "terminals": 1, "concurrent": True}),
    (_a_rewrite_order_disagrees, "semantic-confluence", {"edges": 4}),
    (_diagonal_extension_is_not_undone, "diagonal-extension", None),
    (_an_identity_edge_changes_the_value, "identity-edge", None),
    (_a_table_has_no_biunit, "biunits", "group_heap(Z2)"),
    (_a_monoid_law_fails, "identity", 1),
    (_the_monoid_heap_is_another_table, "round-trip", {"table": "group_heap(Z2)", "biunit": 0}),
    (_the_census_counts_change, "census-count", {"classes": 0, "symmetric": 0}),
    (_the_symmetric_classes_change, "census-symmetric", None),
    (_a_variant_is_not_its_partners_reverse, "reversal", {"variants": ["IJK", "JIK"]}),
    (_the_identity_body_shows_the_twist, "twist visible through the order-3 identity", None),
    (_no_body_shows_the_twist, "no twist witness found", None),
]


@pytest.mark.parametrize("fail, law, witness", FAILURES, ids=[f.__name__.strip("_") for f, _, _ in FAILURES])
def test_a_law_check_reports_its_failure(monkeypatch, fail, law, witness):
    verdict, note = fail(monkeypatch)
    assert (verdict.ok, verdict.law, note) == (False, law, "")
    assert witness(verdict.witness) if callable(witness) else verdict.witness == witness


def test_a_wrong_product_fails_the_right_units(monkeypatch):
    a = random_array((I2,) * 3, MOD7, random.Random(1))
    monkeypatch.setattr(ternary, "fish", lambda x, y, z: _shifted(x))
    v = ternary.fish_units_check(a)
    assert (v.ok, v.law, v.witness) == (False, "att", {"expected": a.entries, "got": _shifted(a).entries})


def test_a_product_that_reads_its_body_fails_only_the_right_bracketing(monkeypatch):
    # (x y z) = y: ((abc)de) = d and (a(dcb)e) = c agree when c = d, (ab(cde)) = b does not
    a, b, c = (random_array((I2,) * 3, MOD7, random.Random(k)) for k in range(3))
    monkeypatch.setattr(ternary, "fish", lambda x, y, z, variant, twist: y)
    v = ternary.semiheap_check_arrays(a, b, c, c, a)
    assert (v.ok, v.law, v.witness) == (False, "sh-right", {"left": c.entries, "right": b.entries})


def test_a_wrong_product_fails_the_flat_fish(monkeypatch):
    real = ternary.fish
    monkeypatch.setattr(ternary, "fish", lambda *args: _shifted(real(*args)))
    a, b, c = (random_array((I2,) * 3, MOD7, random.Random(k)) for k in range(3))
    v = ternary.flat_fish_equiv(a, b, c)
    assert (v.ok, v.law, sorted(v.witness)) == (False, "flat-fish", ["lhs", "rhs"])


def test_a_constant_table_has_no_identity():
    _, _, v = involuted_monoid(TernaryTable(2, [0] * 8), 0)
    assert (v.ok, v.law, v.witness) == (False, "identity", 1)


@pytest.mark.parametrize("n, table, e, e2, law, witness", [
    (2, [1, 1, 0, 1, 1, 1, 1, 1], 0, 0, "bijection", [1, 1]),
    (2, [1, 1, 0, 1, 1, 1, 1, 1], 1, 0, "unit-image", 1),
    (2, [1, 0, 1, 1, 1, 0, 0, 0], 1, 0, "multiplication", (0, 1)),
    (3, [0, 1, 2, 0, 0, 1, 2, 2, 2, 2, 1, 2, 0, 2, 2, 1, 1, 2, 1, 1, 2, 2, 1, 2, 2, 1, 0], 0, 0, "involution", 1),
])
def test_a_transport_between_non_biunits_names_the_law_it_breaks(n, table, e, e2, law, witness):
    _, v = biunit_transport(TernaryTable(n, table), e, e2)
    assert (v.ok, v.law, v.witness) == (False, law, witness)


class _Patched(Semiring):
    """nat64 with some sums and products changed."""

    sums, products = {}, {}

    def __init__(self):
        super().__init__("nat64")

    def add(self, x, y):
        return self.sums.get((x, y), x + y)

    def mul(self, x, y):
        return self.products.get((x, y), x * y)


def _patched(sums=None, products=None):
    return type("_Corrupted", (_Patched,), {"sums": sums or {}, "products": products or {}})()


@pytest.mark.parametrize("s, samples, law, witness", [
    (_patched(sums={(0, 0): 1}), [0], "additive identity", (0,)),
    (_patched(products={(0, 1): 1}), [0], "multiplicative identity", (0,)),
    (_patched(products={(1, 0): 1}), [1], "zero absorbing", (1,)),
    (_patched(sums={(1, 0): 5}), [0, 1], "additive commutativity", (0, 1)),
    (_patched(products={(1, 0): 5}), [0, 1], "multiplicative commutativity", (0, 1)),
    (_patched(sums={(1, 1): 0}), [0, 1, 2], "additive associativity", (1, 1, 2)),
    # 25 = 5 * 5 is no sample, so only the product (5 5) 5 reads the changed entry
    (_patched(products={(25, 5): 0}), [0, 1, 5], "multiplicative associativity", (5, 5, 5)),
    (_patched(products={(2, 2): 5}), [1, 2], "distributivity", (2, 1, 1)),
], ids=lambda x: x if isinstance(x, str) else None)
def test_the_axiom_check_names_the_first_law_a_corrupted_semiring_breaks(s, samples, law, witness):
    assert check_semiring_axioms(s, samples) == Verdict(False, law, witness)


def test_semantic_confluence_names_its_first_failing_trial(monkeypatch):
    real, calls = rewrite.semantic_confluence_binding, []

    def fails_second(host, binding, motif):
        calls.append(binding)
        res = real(host, binding, motif)
        return {**res, "ok": len(calls) != 2}

    monkeypatch.setattr(rewrite, "semantic_confluence_binding", fails_second)
    res = semantic_confluence(standard_diagram("zee"), vee_motif(), MOD7, trials=3)
    assert (res["ok"], res["trial"], len(calls)) == (False, 1, 2)
