"""Structural guard on the source tree: one contraction kernel, one
explicit reference evaluator, one rewrite walk and one unit law. The
semiring's per-kind `dot` step is read only by the kernel's pair
contraction, and the unchecked `reference_ops` pair only by the formula
oracle, so no second sum-of-products loop can grow elsewhere unnoticed; the
oracle in turn reads none of the kernel's parts (`einsum`, its offset grid
`_grid` and `_strides`, its planner `_plan`, `_pair_step` and `_compact`,
or `_contract_pair`), so it stays independent of what it checks. A
`deque` frontier lives only in the rewrite walk, and only the full and the
carried match searches call the raw matcher, so no second multiway loop can
grow either; a rewrite's state key is spliced from its parent's, and only
the public `state_key` sorts a whole state. The unit law (a pair is a unit
iff its composite is the identity) is read only by the basis check and the
biunit equations, and no batched fish kernel is left to stack basis
indicators again. `Semiring.mul`
is read only by the semiring itself and its axiom check, so no product
multiplies one entry at a time beside the kernel; and the one fish closure
is read only by `heapoid_check` and the relation and bijection heaps, so
no second closure loop or hand-written relational product can grow. The
isotropy check composes bijections through the bijection heap's own
involuted monoid, with no per-tuple product and no private composition or
inverse left to read, and the four sequential forms are read only by the
sequentialization check, which evaluates each once, and by the twist
witness, so no repeated form evaluation can grow back. The graphs of
bijections are built once, for the biunit search and the bijection heap,
and are the only permutations the ternary module enumerates; the law
checks enumerate none of their own. One builder turns an involuted monoid
into its heap, a.b~.c, read by the group and vector heaps and by the
selftest's round trip, so no heap of a monoid is written by hand again.
A bound rewrite is one kernel call onto its new legs: in the rewrite module
only semantic confluence evaluates a diagram, and no rewrite builds a
sub-diagram's vertices. A binding is checked once, where it enters through a
public entry, never again on arrays a walk made itself."""
import ast
import functools
from pathlib import Path

import pytest

import plexus

SOURCE = Path(plexus.__file__).parent


@functools.cache
def owned_nodes():
    """Every node of every module of the package, paired with the top-level
    definition that holds it, as `module.name` (a node outside any
    definition counts as the module's). The modules are parsed once."""
    pairs = []
    for path in sorted(SOURCE.glob("*.py")):

        def visit(node, owner):
            for child in ast.iter_child_nodes(node):
                pairs.append((child, owner))
                top = owner == path.stem and isinstance(child, (ast.FunctionDef, ast.ClassDef))
                visit(child, f"{owner}.{child.name}" if top else owner)

        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return pairs


def readers(found):
    """The top-level definitions whose bodies hold a node for which `found`
    is true."""
    return {owner for node, owner in owned_nodes() if found(node)}


def attribute_readers(attr):
    """The definitions that read the attribute `attr`."""
    return readers(lambda n: isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load))


def name_readers(name):
    """The definitions that read `name`, bare or as an attribute."""
    return readers(lambda n: isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)) | attribute_readers(name)


def test_reference_ops_are_read_only_by_the_formula_oracle():
    assert attribute_readers("reference_ops") == {"evaluator.evaluate_formula_oracle"}


@pytest.mark.parametrize("name", ["einsum", "_grid", "_strides", "_contract_pair", "_plan", "_pair_step",
                                  "_compact"])
def test_the_formula_oracle_reads_no_part_of_the_kernel(name):
    assert "evaluator.evaluate_formula_oracle" not in name_readers(name)


def test_the_dot_step_is_read_only_by_the_kernel():
    assert attribute_readers("dot") == {"arrays._contract_pair"}


def test_the_rewrite_walk_is_the_only_breadth_first_loop():
    assert name_readers("deque") == {"rewrite._walk"}


def test_only_the_public_state_key_sorts_a_whole_state():
    assert name_readers("_state_key") == {"rewrite.state_key"}


def test_only_the_match_searches_call_the_raw_matcher():
    assert name_readers("_find_raw") == {"rewrite.find_matches", "rewrite._carried_matches"}


def test_the_unit_law_is_read_only_by_the_two_unit_checks():
    assert name_readers("_unit_law") == {"ternary.unit_pair_via_basis", "ternary.biunit_pair_check"}


def test_no_definition_reads_a_batched_fish_kernel():
    assert name_readers("_fish_kernel") == set()


def test_the_per_entry_product_is_read_only_by_the_semiring():
    assert attribute_readers("mul") == {"semiring.Semiring", "semiring.check_semiring_axioms"}


def test_the_fish_closure_is_read_only_by_the_heapoid_check_and_the_dagger_heaps():
    assert name_readers("_closure") == {"ternary.heapoid_check", "ternary.relation_semiheap",
                                        "ternary.bijection_heap"}


def test_no_definition_reads_a_per_tuple_bijection_product():
    assert name_readers("_bijection_product") == set()


@pytest.mark.parametrize("form, owners", [
    ("fish_form1", {"ternary.fish_sequentializations_check"}),
    ("fish_form2", {"ternary.fish_sequentializations_check"}),
    ("fish_form3", {"ternary.fish_sequentializations_check", "checks.twist_witness"}),
    ("fish_form4", {"ternary.fish_sequentializations_check", "checks.twist_witness"}),
])
def test_the_sequential_forms_are_read_only_by_their_two_checks(form, owners):
    assert name_readers(form) == owners


def test_the_bijection_graphs_are_read_only_by_the_biunit_search_and_the_bijection_heap():
    assert name_readers("_bijection_graphs") == {"ternary.find_biunit_pairs", "ternary.bijection_heap"}


def test_the_law_checks_enumerate_no_permutations():
    assert {owner for owner in name_readers("permutations") if owner.split(".")[0] == "checks"} == set()


def test_only_the_bijection_graphs_enumerate_permutations_in_the_ternary_module():
    assert {owner for owner in name_readers("permutations") if owner.split(".")[0] == "ternary"} == \
        {"ternary._bijection_graphs"}


@pytest.mark.parametrize("name", ["_perm_compose", "_perm_inverse"])
def test_no_definition_reads_a_private_permutation_product(name):
    assert name_readers(name) == set()


def test_the_heap_of_a_monoid_is_read_only_by_the_two_builders_and_the_round_trip():
    assert name_readers("_monoid_heap") == {"ternary.group_heap", "ternary.vector_heap",
                                            "checks.involuted_monoids"}


def test_in_the_rewrite_module_only_semantic_confluence_evaluates_a_diagram():
    assert {owner for owner in name_readers("evaluate") if owner.split(".")[0] == "rewrite"} == \
        {"rewrite.semantic_confluence_binding"}


def test_no_rewrite_definition_builds_a_vertex():
    assert {owner for owner in name_readers("Vertex") if owner.split(".")[0] == "rewrite"} == set()


def test_a_binding_is_checked_only_where_it_enters():
    assert name_readers("_check_binding") == {
        "evaluator.default_binding", "evaluator.evaluate", "evaluator.evaluate_formula_oracle",
        "evaluator.insert_kronecker", "rewrite.apply_rewrite_bound"}
