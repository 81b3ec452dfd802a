"""plexus: semiring-valued multi-index arrays, marked-hypergraph diagrams
with an evaluator, motif rewriting with concurrency analysis, and the ternary
fish product with its unit, biunit, and semiheap theory.

The first public name asked of the package imports every module and binds
all their names here (PEP 562); `from plexus.cli import main` alone does not."""

__version__ = "0.1.0"

# module -> the public names the package takes from it
_API = {
    "arrays": """Array additive_incidence broaden contract diagonal_extension entrywise_add entrywise_mul
        flatten full_array kronecker make_array multiplicative_incidence random_array reorder self_contract
        slice_axes tensor_product unary_contract zero_array""",
    "core": "ETA_VARIANTS IndexSet PlexusError Verdict natural_key",
    "diagram": "Diagram Hyperedge Vertex build_diagram canonical_form is_isomorphic standard_diagram to_dot",
    "evaluator": "BoundEdge default_binding evaluate evaluate_formula_oracle insert_kronecker",
    "rewrite": """ENUMERATION_VARIANTS Match Motif RewriteGraph apply_rewrite apply_rewrite_bound
        check_concurrency enumerate_compositions find_matches fish_motif motif_automorphisms multiway
        random_binding semantic_confluence semantic_confluence_binding state_key vee_motif""",
    "checks": "run_selftest",
    "cli": "run_command",
    "semiring": "Semiring check_semiring_axioms make_semiring parse_semiring",
    "ternary": """TernaryTable bijection_heap biunit_pair_check biunit_transport check_heap check_homomorphism
        check_isotropy_biinvariance check_reverse_semiheap check_semiheap find_biunit_pairs find_biunits
        fish fish_form1 fish_form2 fish_form3 fish_form4 fish_output_order fish_sequentializations_check
        fish_unit_arrays fish_units_check flat_fish_equiv group_heap heapoid_check indicator_array
        involuted_monoid make_fish_binding make_ternary_table relation_semiheap reverse_table
        semiheap_check_arrays semiheap_law_arrays unit_pair_via_basis vector_heap""",
    "workspace": """Workspace array_to_json diagram_to_json load_bindings load_diagram load_workspace
        parse_diagram parse_workspace""",
}
__all__ = [name for names in _API.values() for name in names.split()]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _API.items():
        m = import_module(f"{__name__}.{module}")
        globals().update((n, getattr(m, n)) for n in names.split())
    return globals()[name]
