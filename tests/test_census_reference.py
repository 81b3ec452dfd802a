"""`enumerate_compositions` against the search it replaces: a loop over
every group of edges on the vertex pool, kept here inline as the reference.
The census walks only the groups that hold the least edge (0, ..., k-1);
its classes, their representatives and their order must equal the loop's."""
import itertools

import pytest

from plexus import IndexSet, build_diagram, canonical_form, enumerate_compositions, motif_automorphisms
from plexus.rewrite import ENUMERATION_VARIANTS, _connected


def edge_transitive(d):
    """The automorphism group moves the first edge onto every edge."""
    eids = d.edge_ids()
    return {a.edge_map[eids[0]] for a in motif_automorphisms(d)} == set(eids)


def ref_enumerate_compositions(num_edges, edge_order, free_vertices, variant="default", size=2):
    """Every group of `num_edges` edges, each candidate relabelled by rank
    and kept if its certificate is new."""
    marked_min, unmarked_exact = ENUMERATION_VARIANTS[variant]
    iset = IndexSet("I", size)
    reps, symmetric, seen = [], [], set()
    pool = tuple(range(edge_order + (num_edges - 1) * (edge_order - 1)))
    for group in itertools.combinations(itertools.combinations(pool, edge_order), num_edges):
        used = sorted(set().union(*group))
        if used[-1] != len(used) - 1 or not _connected(group):
            continue
        deg = {v: sum(v in e for e in group) for v in used}
        for unmarked in itertools.combinations(used, free_vertices):
            ok = True
            for v in used:
                if v in unmarked:
                    if unmarked_exact is not None and deg[v] != unmarked_exact:
                        ok = False
                        break
                elif deg[v] < marked_min:
                    ok = False
                    break
            if not ok:
                continue
            relabel = {v: f"v{i}" for i, v in enumerate(used)}
            d = build_diagram(
                [(relabel[v], iset, v not in unmarked) for v in used],
                [(f"e{k}", tuple(relabel[v] for v in sorted(e))) for k, e in enumerate(group)],
            )
            cert = canonical_form(d)
            if cert in seen:
                continue
            seen.add(cert)
            reps.append(d)
            if edge_transitive(d):
                symmetric.append(d)
    return reps, symmetric


CASES = [
    (3, 3, 3, "default"),
    (3, 3, 3, "tips-only"),
    (2, 3, 2, "all"),
    (3, 2, 2, "all"),
    (2, 2, 1, "all"),
    (4, 2, 2, "all"),
    (2, 4, 3, "all"),
    (3, 3, 4, "default"),
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: ",".join(map(str, c)))
def test_census_equals_the_loop_over_every_edge_group(case):
    reps, symmetric = enumerate_compositions(*case)
    want_reps, want_symmetric = ref_enumerate_compositions(*case)
    assert reps, case
    assert repr(reps) == repr(want_reps)
    assert repr(symmetric) == repr(want_symmetric)
    edge_order = case[1]
    least = tuple(f"v{v}" for v in range(edge_order))
    assert all(d.edges["e0"].legs == least for d in reps)
