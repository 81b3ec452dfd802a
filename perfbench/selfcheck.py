"""Check the tracer against counts measured by hand on plexus 0.1.0.

    python3 perfbench/selfcheck.py

Runs four ops under a fresh `Tracer` each and compares the traced counts
with the pinned ones. A shortfall means some call site bound a public name
that the tracer did not rebind. Exits 1 on any difference. A change to the
algorithms (fewer canonical forms, a cached closure lookup) moves these
counts legitimately; the pins then describe the code they were taken on.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import plexus as P  # noqa: E402

import tracing  # noqa: E402
from workloads import permutation_carrier  # noqa: E402

PINNED = (
    ("enumerate_compositions(3,3,3,'default')",
     lambda: P.enumerate_compositions(3, 3, 3, "default"),
     {"diagram.canonical_form_calls": 10430}),
    ("enumerate_compositions(3,3,3,'all')",
     lambda: P.enumerate_compositions(3, 3, 3, "all"),
     {"diagram.canonical_form_calls": 114485}),
    ("heapoid_check(permutation carrier, 'JKI')",
     lambda carrier=permutation_carrier(P): P.heapoid_check(carrier, "JKI"),
     {"ternary.fish_calls": 14592, "arrays.eq_calls": 173568}),
    ("multiway(chain(8), vee)",
     lambda: P.multiway(P.standard_diagram("chain", n=8), P.vee_motif()),
     {"rewrite.multiway_states": 128, "rewrite.multiway_transitions": 448, "rewrite.find_matches_calls": 128}),
)


def main():
    ok = True
    for label, call, want in PINNED:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            call()
        finally:
            tracer.uninstall()
        got = tracer.layer_metrics()
        for metric, value in want.items():
            same = got[metric] == value
            ok &= same
            print(f"{'ok  ' if same else 'DIFF'} {label}: {metric} = {got[metric]:g} (pinned {value})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
