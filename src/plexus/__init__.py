"""plexus: semiring-valued multi-index arrays, marked-hypergraph diagrams
with an evaluator, motif rewriting with concurrency analysis, and the ternary
fish product with its unit, biunit, and semiheap theory."""

from .arrays import (
    Array,
    additive_incidence,
    broaden,
    contract,
    diagonal_extension,
    entrywise_add,
    entrywise_mul,
    flatten,
    full_array,
    kronecker,
    make_array,
    multiplicative_incidence,
    random_array,
    reorder,
    self_contract,
    slice_axes,
    tensor_product,
    unary_contract,
    zero_array,
)
from .core import IndexSet, PlexusError, Verdict, natural_key
from .diagram import (
    Diagram,
    Hyperedge,
    Vertex,
    build_diagram,
    canonical_form,
    is_isomorphic,
    standard_diagram,
    to_dot,
)
from .evaluator import (
    BoundEdge,
    default_binding,
    evaluate,
    evaluate_formula_oracle,
    insert_kronecker,
)
from .rewrite import (
    ENUMERATION_VARIANTS,
    Match,
    Motif,
    RewriteGraph,
    apply_rewrite,
    apply_rewrite_bound,
    check_concurrency,
    enumerate_compositions,
    find_matches,
    fish_motif,
    motif_automorphisms,
    multiway,
    random_binding,
    semantic_confluence,
    semantic_confluence_binding,
    state_key,
    vee_motif,
)
from .checks import run_selftest
from .cli import run_command
from .semiring import Semiring, check_semiring_axioms, make_semiring, parse_semiring
from .ternary import (
    ETA_VARIANTS,
    TernaryTable,
    bijection_heap,
    biunit_pair_check,
    biunit_transport,
    check_heap,
    check_homomorphism,
    check_isotropy_biinvariance,
    check_reverse_semiheap,
    check_semiheap,
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
    indicator_array,
    involuted_monoid,
    make_fish_binding,
    make_ternary_table,
    relation_semiheap,
    reverse_table,
    semiheap_check_arrays,
    semiheap_law_arrays,
    unit_pair_via_basis,
    vector_heap,
)
from .workspace import (
    Workspace,
    array_to_json,
    diagram_to_json,
    load_bindings,
    load_diagram,
    load_workspace,
    parse_diagram,
    parse_workspace,
)

__version__ = "0.1.0"
