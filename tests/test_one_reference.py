"""Structural guard on the source tree: one contraction kernel, one
explicit reference evaluator, one rewrite walk and one unit law. The
semiring's per-kind `dot` step is read only by the kernel's pair
contraction, and the unchecked `reference_ops` pair only by the formula
oracle, so no second sum-of-products loop can grow elsewhere unnoticed; the
oracle and its own planner in turn read none of the kernel's parts
(`einsum`, its offset grid `_grid` and `_strides`, its planner `_plan`,
`_pair_step` and `_compact`, or `_contract_pair`), and nothing of the
arrays module but the `Array` record and the operand check `_label_axes`,
so the oracle stays independent of what it checks. A
`deque` frontier lives only in the rewrite walk, and only the full and the
carried match searches call the raw matcher, so no second multiway loop can
grow either; a rewrite's state key is spliced from its parent's, and only
the public `state_key` sorts a whole state, once per walk. The unit law (a pair is a unit
iff its composite is the identity) is read only by the basis check and the
biunit equations, and no batched fish kernel is left to stack basis
indicators again. No definition but the row lookup branches on a semiring
kind: a record binds its kind's row, and only the biunit search refuses a
semiring it does not run in. `Semiring.mul` is read only by the semiring's rows,
its record and its axiom check, so no product
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
public entry, never again on arrays a walk made itself. A count inside a
CLI token, and every number the CLI reads from argv, is read by one rule,
`core.parse_count`: no definition in `cli` reads `int` (`type=int` is a read,
not a call), none in `semiring` calls it, and only `core.natural_key` calls
`isdigit` or `isdecimal`. Four facts have one owner each: the immutability
refusal (`core.Immutable`, the only definition of `__setattr__` and
`__delattr__`), an array's entry count (`Array`, the only reader of the
`SIZE_MISMATCH` code), a semiring's `add` and `mul` (the `Semiring` methods,
never shadowed by a record, with `reference_ops` handing out the row's own
pair), and a bound edge's legs in axis order (`evaluator._axis_legs`, the
only reader of `leg_to_axis.get`, read by the kernel operands and the oracle).
One reader builds a law check's I, J, K and checks them against
`core.LAW_SIZE_LIMIT`, one scan tests a binary table for associativity,
and one reader loads a JSON file's arrays section. A record's fields are
set only by `core.Record`, from its parent's and its own slots; one reader
refuses a loaded file that is not an object or names no semiring, and
parses the one it names; and the semiring kinds are the keys of the rows,
with no second list of their names. The fish's legs are read off the fish
diagram, so the label table and the law checks' triple draw spell no leg
out; one reader refuses a file's section that is not an object; and one
definition refuses a semiring that is not a `Semiring`."""
import ast
import functools
from pathlib import Path

import pytest

import plexus
from plexus.semiring import make_semiring

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


# the formula oracle: its run and its planner
ORACLE = {"evaluator.evaluate_formula_oracle", "evaluator._oracle_plan"}


def test_reference_ops_are_read_only_by_the_formula_oracle():
    assert attribute_readers("reference_ops") == {"evaluator.evaluate_formula_oracle"}


@pytest.mark.parametrize("name", ["einsum", "_grid", "_strides", "_contract_pair", "_plan", "_pair_step",
                                  "_compact"])
def test_the_formula_oracle_reads_no_part_of_the_kernel(name):
    assert ORACLE & name_readers(name) == set()


def test_the_formula_oracle_reads_only_the_array_record_and_the_operand_check_of_the_arrays_module():
    tree = ast.parse((SOURCE / "arrays.py").read_text())
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name)}
    read = {n.id if isinstance(n, ast.Name) else n.attr for n, owner in owned_nodes()
            if owner in ORACLE and isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    assert read & defined == {"Array", "_label_axes"}


def test_the_dot_step_is_read_only_by_the_kernel():
    assert attribute_readers("dot") == {"arrays._contract_pair"}


def test_the_rewrite_walk_is_the_only_breadth_first_loop():
    assert name_readers("deque") == {"rewrite._walk"}


def test_only_the_public_state_key_sorts_a_whole_state():
    """A rewrite's key is spliced from its parent's (`_Rewrite.key`), so the
    full sort of a state's vertices lives in `state_key` alone, and in the
    rewrite module each walk reads it once, for its start."""
    def sorts_vertices(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "sorted"
                and any(isinstance(m, ast.Attribute) and m.attr == "marked" for a in n.args for m in ast.walk(a)))
    assert readers(sorts_vertices) == {"rewrite.state_key"}
    reads = [owner for node, owner in owned_nodes() if owner.split(".")[0] == "rewrite"
             and isinstance(node, ast.Name) and node.id == "state_key" and isinstance(node.ctx, ast.Load)]
    assert sorted(reads) == ["rewrite.multiway", "rewrite.semantic_confluence_binding"]


def test_only_the_match_searches_call_the_raw_matcher():
    assert name_readers("_find_raw") == {"rewrite.find_matches", "rewrite._carried_matches"}


def test_the_unit_law_is_read_only_by_the_two_unit_checks():
    assert name_readers("_unit_law") == {"ternary.unit_pair_via_basis", "ternary.biunit_pair_check"}


def test_no_definition_reads_a_batched_fish_kernel():
    assert name_readers("_fish_kernel") == set()


def test_the_per_entry_product_is_read_only_by_the_semiring():
    # "semiring" is the module's table of rows, and `_int_mod` makes the int-mod rows
    assert attribute_readers("mul") == {"semiring", "semiring._int_mod", "semiring.Semiring",
                                        "semiring.check_semiring_axioms"}


def test_only_the_row_lookup_branches_on_a_semiring_kind():
    """A record binds its kind's row when it is built, so no definition but
    the lookup `semiring._row` compares a `kind` or looks a table up by it:
    finiteness is the row's carrier, and the boolean semiring the biunit
    search needs is a record it compares with. The other three read a
    ternary table's kind, not a semiring's."""
    def reads_kind(node):
        return any(isinstance(n, ast.Name) and n.id == "kind" or isinstance(n, ast.Attribute) and n.attr == "kind"
                   for n in ast.walk(node))

    branches = readers(lambda n: isinstance(n, ast.Compare) and reads_kind(n)
                       or isinstance(n, ast.Subscript) and reads_kind(n.slice)
                       or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "get"
                       and any(map(reads_kind, n.args)))
    assert branches == {"semiring._row", "ternary.make_ternary_table", "checks.heap", "checks.involuted_monoids"}


def test_only_the_biunit_search_refuses_a_semiring_it_does_not_run_in():
    # the biunit and heapoid suites let the search refuse, before any work
    assert readers(lambda n: isinstance(n, ast.Constant) and n.value == "UNSUPPORTED") == \
        {"ternary.find_biunit_pairs"}


def test_one_reader_builds_the_law_axes_and_checks_their_budget():
    def builds(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "zip" and n.args
                and isinstance(n.args[0], ast.Constant) and n.args[0].value == "IJK")
    assert readers(builds) == {"ternary._law_axes"}
    # the parser refuses a --sizes size before any law module loads, naming the option
    assert name_readers("LAW_SIZE_LIMIT") == {"ternary._law_axes", "cli._parse_sizes"}
    assert readers(lambda n: isinstance(n, ast.Name) and n.id == "LAW_SIZE_LIMIT" and isinstance(n.ctx, ast.Store)) \
        == {"core"}


def test_one_scan_tests_a_binary_table_for_associativity():
    def composes(n):  # rows[rows[a][b]]: a product read back as a row of its own table
        inner = n.slice.value if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Subscript) else None
        return (isinstance(inner, ast.Subscript) and isinstance(n.value, ast.Name)
                and isinstance(inner.value, ast.Name) and inner.value.id == n.value.id)
    assert readers(composes) == {"ternary._nonassociative"}


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


def test_the_count_rule_is_read_by_the_three_token_parsers():
    assert name_readers("parse_count") == {
        "semiring.parse_semiring", "cli._parse_sizes", "cli._load_host", "cli._number"}


def test_no_cli_or_semiring_definition_calls_int():
    # in `cli` any read of `int` counts, as `type=int` hands argparse the builtin without calling it
    reads = readers(lambda n: isinstance(n, ast.Name) and n.id == "int")
    calls = readers(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "int")
    assert {owner for owner in reads if owner.split(".")[0] == "cli"} == set()
    assert {owner for owner in calls if owner.split(".")[0] == "semiring"} == set()


def test_only_the_natural_sort_key_reads_isdigit_or_isdecimal():
    assert attribute_readers("isdigit") | attribute_readers("isdecimal") == {"core.natural_key"}


def test_only_the_immutable_base_refuses_assignment_and_deletion():
    def defines(n):
        if isinstance(n, ast.FunctionDef):
            names = {n.name}
        elif isinstance(n, ast.Assign):
            names = {t.id for t in n.targets if isinstance(t, ast.Name)}
        else:
            return False
        return bool(names & {"__setattr__", "__delattr__"})
    assert readers(defines) == {"core.Immutable"}


def test_only_the_array_checks_an_entry_count():
    assert readers(lambda n: isinstance(n, ast.Constant) and n.value == "SIZE_MISMATCH") == {"arrays.Array"}


@pytest.mark.parametrize("kind, modulus", [("boolean", None), ("nat64", None), ("int_mod", 7), ("min_plus", None),
                                           ("float64", None)])
def test_a_semiring_record_holds_no_add_or_mul_and_hands_out_its_rows_own_pair(kind, modulus):
    s = make_semiring(kind, modulus)
    row = s._row
    assert {"add", "mul"} & vars(s).keys() == set()
    assert [f is g for f, g in zip(s.reference_ops(), row.reference or (row.add, row.mul))] == [True, True]


def test_only_the_kernel_operands_and_the_oracle_pair_an_edge_with_its_legs():
    assert name_readers("_axis_legs") == {"evaluator._operands", "evaluator.evaluate_formula_oracle"}


def test_only_the_arrays_section_reader_loads_an_array():
    assert name_readers("_load_array") == {"workspace._parse_arrays"}


def test_only_the_helper_reads_the_legs_in_axis_order():
    def reads(n):
        return (isinstance(n, ast.Attribute) and n.attr == "get" and isinstance(n.value, ast.Attribute)
                and n.value.attr == "leg_to_axis")
    assert readers(reads) == {"evaluator._axis_legs"}


def test_only_the_record_base_sets_a_records_fields():
    def sets(n):
        named = isinstance(n, ast.Name) and n.id == "_fields" or isinstance(n, ast.Attribute) and n.attr == "_fields"
        return named and isinstance(n.ctx, ast.Store)
    assert readers(sets) == {"core.Record"}


def test_one_definition_reads_a_loaded_files_semiring_key():
    def reads(n):
        def is_key(x):
            return isinstance(x, ast.Constant) and x.value == "semiring"
        return (isinstance(n, ast.Subscript) and is_key(n.slice)
                or isinstance(n, ast.Compare) and is_key(n.left) and isinstance(n.ops[0], (ast.In, ast.NotIn))
                or isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "get"
                and n.args and is_key(n.args[0]))
    assert readers(reads) == {"workspace._parse_header"}


def test_no_definition_reads_a_list_of_the_semiring_kinds():
    assert name_readers("KINDS") == set()


@pytest.mark.parametrize("owner", ["ternary._placed", "ternary._fish_labels", "checks._conforming_triple"])
def test_the_fish_labels_and_the_triple_draw_spell_out_no_leg(owner):
    # the vertex labels i j p q r k are named once, where `ternary` reads the fish diagram
    def fish_letters(n):
        return isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value and set(n.value) <= set("ijpqrk")
    assert owner not in readers(fish_letters)


def test_one_reader_refuses_a_section_that_is_not_an_object():
    def refuses(n):  # the message "'<section>' must be an object", literal or formatted
        return isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.endswith("' must be an object")
    assert readers(refuses) == {"workspace._section"}


def test_one_definition_refuses_a_semiring_that_is_not_a_semiring():
    def tests_the_type(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "isinstance"
                and len(n.args) == 2 and isinstance(n.args[1], ast.Name) and n.args[1].id == "Semiring")
    assert readers(tests_the_type) == {"semiring.require_semiring"}
    assert readers(lambda n: isinstance(n, ast.Constant) and isinstance(n.value, str)
                   and "is not a Semiring" in n.value) == {"semiring.require_semiring"}
