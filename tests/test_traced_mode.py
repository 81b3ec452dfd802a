"""The benchmark's traced mode (`perfbench/tracing.py`) wraps the package from
outside: it rebinds every public function of the layer modules at every
plexus module that holds it, and counts the hottest methods,
`Semiring.add`/`mul`, `Array.entry` and `Array.__eq__`, by replacing them on
their classes. This guards the package's side of that contract: those
methods stay defined on their classes and are what a call reaches, so the
counters read the work done, and uninstalling restores every name."""
import importlib.util
import random
import sys
from pathlib import Path

import plexus
from plexus import IndexSet, make_semiring

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("plexus_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every name of every plexus module and every traced method, as (holder, name) -> value."""
    held = {(m, name): value for key, m in sys.modules.items() if key == "plexus" or key.startswith("plexus.")
            for name, value in vars(m).items()}
    return {**held, **{(cls, name): value for cls in (plexus.Semiring, plexus.Array)
                       for name, value in vars(cls).items()}}


def test_the_traced_mode_counts_each_layer_and_restores_every_name():
    tracing = load_tracing()
    before = bindings()
    s, i2, rng = make_semiring("int_mod", 7), IndexSet("I", 2), random.Random(0)
    tracer = tracing.Tracer()
    tracer.install()
    try:  # through the package's names, which the tracer rebinds
        a, b, c = (plexus.random_array((i2,) * 3, s, rng) for _ in range(3))
        plexus.fish(a, b, c)
        vee = plexus.standard_diagram("vee")
        plexus.evaluate(vee, plexus.default_binding(vee, {e: plexus.random_array((i2, i2), s, rng)
                                                          for e in vee.edges}))
        plexus.multiway(plexus.standard_diagram("chain", n=4), plexus.vee_motif())
        plexus.heapoid_check([plexus.kronecker(3, i2, make_semiring("boolean"))])
        plexus.entrywise_add(a, b)
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    after = bindings()
    assert min(metrics["ternary.fish_calls"], metrics["evaluator.evaluate_calls"],
               metrics["semiring.add_calls"]) >= 1
    assert metrics["rewrite.multiway_states"] == 8
    assert [key for key, value in before.items() if after.get(key) is not value] == []
