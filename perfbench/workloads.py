"""The four benchmark workloads: seeded inputs, the ops run on them, and the
independent reference each op's output is checked against.

A workload function takes the freshly imported `plexus` package, a seeded
`random.Random` and a scratch directory, and returns one round: a list of
`Op`. Every round runs the same ops on the same inputs, so an op's cost
depends on its fixed sizes, never on the seed; the seed picks entries,
relabelings and orders. References are computed lazily, once per op, from
code the timed op does not run: `evaluate_formula_oracle`, the explicit
`fish_formN` loops, the benchmark's own row-major arithmetic, closed-form
counts and pinned census counts, and known law verdicts.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys


class Op:
    """One call into plexus. `check(outcome)` returns None when the outcome
    (the return value, or the exception raised) is right, else a reason.
    `refuse` marks an input the program must reject with a structured error;
    `klass` groups ops for the failure listing; `once` marks an op of many
    seconds, run in the first round only because a run cannot hold more."""

    __slots__ = ("label", "klass", "call", "check", "refuse", "once")

    def __init__(self, label, call, check, klass=None, refuse=False, once=False):
        self.label = label
        self.klass = klass or label.split(" ")[0]
        self.call = call
        self.check = check
        self.refuse = refuse
        self.once = once


def _raised(err):
    return f"raised {type(err).__name__}: {err}"


def _array_diff(got, want):
    got_sizes = tuple(ax.size for ax in got.axes)
    want_sizes = tuple(ax.size for ax in want.axes)
    if got_sizes != want_sizes:
        return f"sizes {got_sizes} != reference {want_sizes}"
    if tuple(got.entries) != tuple(want.entries):
        return "entries differ from the reference"
    return None


def against(reference, diff=_array_diff):
    """Check a result with `diff(result, reference())`, the reference
    computed on first use."""
    cache = []

    def check(got):
        if isinstance(got, BaseException):
            return _raised(got)
        if not cache:
            cache.append(reference())
        return diff(got, cache[0])

    return check


def expect(predicate, what):
    """Check a non-array result with a predicate stating its known truth."""

    def check(got):
        if isinstance(got, BaseException):
            return _raised(got)
        return None if predicate(got) else f"expected {what}"

    return check


SEMIRINGS = ("boolean", "int-mod:7", "nat64", "min-plus")


def _relabel(P, edges, marked, rng, size=2):
    """Build a diagram isomorphic to (edges, marked) under seeded vertex
    names, edge ids and leg orders."""
    verts = sorted({v for e in edges for v in e})
    names = rng.sample(range(10, 100), len(verts))
    rename = {v: f"x{n}" for v, n in zip(verts, names)}
    iset = P.IndexSet("I", size)
    vspecs = [(rename[v], iset, v in marked) for v in verts]
    rng.shuffle(vspecs)
    espec = []
    for k, e in enumerate(rng.sample(list(edges), len(edges))):
        legs = [rename[v] for v in e]
        rng.shuffle(legs)
        espec.append((f"e{k}", tuple(legs)))
    return P.build_diagram(vspecs, espec)


def _shape(d):
    return [tuple(d.edges[e].legs) for e in d.edge_ids()], set(d.marked_vertices())


# ---------------------------------------------------------------- dense


def build_dense(P, rng, **_):
    """fish on n x n x n arrays over all twelve (variant, twist) pairs,
    evaluate on chains and the standard diagrams, and a few array
    products, over four exact semirings."""
    ops = []
    semirings = [P.parse_semiring(name) for name in SEMIRINGS]
    pairs = [(v, tw) for v in P.ETA_VARIANTS for tw in (False, True)]
    explicit = {
        ("IJK", False): P.fish_form1,
        ("IJK", True): P.fish_form2,
        ("JIK", True): P.fish_form3,
        ("JIK", False): P.fish_form4,
    }

    def fish_ref(a, b, c, variant, twist):
        if (variant, twist) in explicit:
            return lambda: explicit[variant, twist](a, b, c)

        def oracle():
            d, binding = P.make_fish_binding(a, b, c, variant, twist)
            return P.evaluate_formula_oracle(d, binding, P.fish_output_order(variant))

        return oracle

    # Every pair at n=4 over two semirings, at n=5 over three and at n=6
    # over one; n=7 and n=8 once each. The counts put the median op inside
    # the n=5 group and the 90th percentile inside the n=6 group, so that
    # neither percentile sits on a gap between groups of different cost.
    sizes = [(n, k, (k + j) % 4) for n, js in ((4, (0, 2)), (5, (0, 1, 2)), (6, (0,)))
             for k in range(12) for j in js]
    sizes += [(7, 3, 1), (8, 8, 2)]
    for n, k, sk in sizes:
        (variant, twist), s = pairs[k], semirings[sk]
        axes = (P.IndexSet("I", n),) * 3
        a, b, c = (P.random_array(axes, s, rng) for _ in range(3))
        ops.append(Op(
            f"fish n={n} {variant}{' twist' if twist else ''} {s.name}",
            lambda a=a, b=b, c=c, v=variant, t=twist: P.fish(a, b, c, v, t),
            against(fish_ref(a, b, c, variant, twist)),
        ))

    diagrams = [("chain", 5, 4), ("chain", 6, 4), ("chain", 7, 4),
                ("long_fish", None, 3), ("trinity_right", None, 4), ("bm", None, 4)]
    for k, (name, n, size) in enumerate(diagrams):
        s = semirings[(k + 1) % 4]
        d = P.standard_diagram(name, n=n, size=size)
        binding = P.random_binding(d, s, rng)
        ops.append(Op(
            f"evaluate {name}{n or ''} size={size} {s.name}",
            lambda d=d, b=binding: P.evaluate(d, b),
            against(lambda d=d, b=binding: P.evaluate_formula_oracle(d, b)),
        ))

    for k, s in enumerate(semirings[:2]):
        I, J, K = P.IndexSet("I", 24), P.IndexSet("J", 20), P.IndexSet("K", 24)
        x = P.random_array((I, J), s, rng)
        y = P.random_array((J, K), s, rng)
        ops.append(Op(f"contract 24x20x24 {s.name}",
                      lambda x=x, y=y: P.contract([x, y], [1, 0]),
                      against(lambda x=x, y=y: _product_oracle(P, [x, y], [[0, 1], [1, 2]], {1}))))
        u = P.random_array((P.IndexSet("A", 12), P.IndexSet("B", 10)), s, rng)
        w = P.random_array((P.IndexSet("C", 10), P.IndexSet("D", 12)), s, rng)
        ops.append(Op(f"tensor_product 12x10*10x12 {s.name}",
                      lambda u=u, w=w: P.tensor_product([u, w]),
                      against(lambda u=u, w=w: _product_oracle(P, [u, w], [[0, 1], [2, 3]]))))
        t = P.random_array((P.IndexSet("A", 16), P.IndexSet("B", 12), P.IndexSet("C", 14)), s, rng)
        ops.append(Op(f"flatten 16x12x14 (0,2) {s.name}",
                      lambda t=t: P.flatten(t, (0, 2)),
                      against(lambda t=t: _flatten_02(P, t))))
        sigma = (2, 0, 1) if k else (1, 2, 0)
        ops.append(Op(f"reorder 16x12x14 {sigma} {s.name}",
                      lambda t=t, sg=sigma: P.reorder(t, sg),
                      against(lambda t=t, sg=sigma: _reorder_oracle(P, t, sg))))
    rng.shuffle(ops)
    return ops


def _product_oracle(P, arrays, legs, summed=()):
    """Evaluate arrays bound to edges on the numbered vertex legs through the
    formula oracle, summing the `summed` vertices: a matrix product when
    they share a summed vertex, a tensor product when they share none."""
    sets = {}
    for a, vs in zip(arrays, legs):
        for ax, v in zip(a.axes, vs):
            sets[v] = ax
    vertices = [(f"v{v}", sets[v], v in summed) for v in sorted(sets)]
    edges = [(f"e{k}", tuple(f"v{v}" for v in vs)) for k, vs in enumerate(legs)]
    d = P.build_diagram(vertices, edges)
    binding = {f"e{k}": P.BoundEdge(a, {f"v{v}": t for t, v in enumerate(vs)})
               for k, (a, vs) in enumerate(zip(arrays, legs))}
    return P.evaluate_formula_oracle(d, binding)


def _reorder_oracle(P, a, sigma):
    vertices = [(f"v{t}", ax, False) for t, ax in enumerate(a.axes)]
    d = P.build_diagram(vertices, [("e0", tuple(f"v{t}" for t in range(a.order)))])
    binding = {"e0": P.BoundEdge(a, {f"v{t}": t for t in range(a.order)})}
    order = [None] * a.order
    for t, s in enumerate(sigma):
        order[s] = f"v{t}"
    return P.evaluate_formula_oracle(d, binding, order)


def _flatten_02(P, a):
    """Row-major arithmetic: axes (A, B, C) grouped as (A, C) give entry
    [a*|C| + c, b] = a[a, b, c]."""
    A, B, C = (ax.size for ax in a.axes)
    entries = [a.entries[(i * B + j) * C + k] for i in range(A) for k in range(C) for j in range(B)]
    return P.Array((P.IndexSet("AC", A * C), a.axes[1]), entries, a.semiring)


# ---------------------------------------------------------------- census

# The ten classes of enumerate_compositions(3, 3, 3, "default"):
# (edges, marked vertices).
CENSUS_REPS = (
    ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], {0, 1}),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3)], {3}),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 3)], {0}),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 4)], {1, 2}),
    ([(0, 1, 2), (0, 1, 3), (0, 2, 4)], {0, 2}),
    ([(0, 1, 2), (0, 1, 3), (2, 3, 4)], {2, 3}),
    ([(0, 1, 2), (0, 1, 3), (2, 3, 4)], {1, 3}),
    ([(0, 1, 2), (0, 1, 3), (2, 3, 4)], {0, 1}),
    ([(0, 1, 2), (0, 1, 3), (2, 4, 5)], {0, 1, 2}),
    ([(0, 1, 2), (0, 3, 4), (1, 3, 5)], {0, 1, 3}),
)

# Pinned (classes, symmetric classes) per variant at (3, 3, 3).
CENSUS_COUNTS = {"all": (56, 5), "loose": (10, 3), "default": (10, 3), "tips-only": (3, 2)}


def _multiway_truth(name, n):
    """Closed forms. On chain(n) with the vee motif a state is the set of
    already-eliminated inner vertices: 2**(n-1) states, (n-1)*2**(n-2)
    transitions, n-1 initial matches. long_fish with the fish motif: 3
    initial matches, 5 states, 6 transitions, one terminal."""
    if name == "chain":
        return n - 1, 2 ** (n - 1), (n - 1) * 2 ** (n - 2), n <= 3
    return 3, 5, 6, True


def build_census(P, rng, **_):
    """The composition census, canonical forms of relabeled census
    representatives, and multiway exploration with concurrency reports."""
    ops = []
    for variant, (classes, symmetric) in CENSUS_COUNTS.items():
        ops.append(Op(
            f"enumerate_compositions 3,3,3 {variant}",
            lambda v=variant: P.enumerate_compositions(3, 3, 3, v),
            expect(lambda r, c=classes, s=symmetric: (len(r[0]), len(r[1])) == (c, s),
                   f"{classes} classes, {symmetric} symmetric"),
            once=True,
        ))

    reps = [_relabel(P, edges, marked, rng) for edges, marked in CENSUS_REPS]
    certs = []

    def certificate_check(k):
        """The certificate of class k's own relabeling; the ten class
        certificates, computed once, must be pairwise distinct."""

        def check(got):
            if isinstance(got, BaseException):
                return _raised(got)
            if not certs:
                certs.extend(P.canonical_form(r) for r in reps)
            if len(set(certs)) != len(certs):
                return "the ten class certificates are not pairwise distinct"
            return None if got == certs[k] else "expected the certificate of the unrelabeled class"

        return check

    for k, (edges, marked) in enumerate(CENSUS_REPS):
        for copy in range(13):
            d = _relabel(P, edges, marked, rng)
            ops.append(Op(f"canonical_form class={k} copy={copy}", lambda d=d: P.canonical_form(d),
                          certificate_check(k)))
            # odd copies pair class k with each of the next six classes, so
            # that same-skeleton classes with different markings (1 and 2,
            # 3 and 4, 5 to 7) are compared; even copies with itself
            other = (k + 1 + copy // 2) % len(CENSUS_REPS) if copy % 2 else k
            e = _relabel(P, *CENSUS_REPS[other], rng)
            ops.append(Op(
                f"is_isomorphic class={k} other={other}",
                lambda d=d, e=e: P.is_isomorphic(d, e),
                expect(lambda r, same=other == k: r is same, "isomorphic iff same class"),
            ))

    vee, fishm = P.vee_motif(), P.fish_motif()
    hosts = [("chain", 6, vee), ("chain", 7, vee), ("chain", 8, vee), ("long_fish", None, fishm)]
    # With 260 relabeling ops, ten copies put the median op inside the
    # is_isomorphic group and the 90th percentile op in the middle of the
    # chain7 group, away from the gaps between groups of different cost.
    for copy in range(10):
        for name, n, motif in hosts:
            host = _relabel(P, *_shape(P.standard_diagram(name, n=n)), rng)
            matches, states, transitions, concurrent = _multiway_truth(name, n)
            ops.append(Op(
                f"multiway {name}{n or ''}",
                lambda h=host, m=motif: P.multiway(h, m),
                expect(lambda g, s=states, t=transitions:
                       (len(g.states), len(g.transitions), len(g.terminals)) == (s, t, 1),
                       f"{states} states, {transitions} transitions, 1 terminal"),
            ))
            ops.append(Op(
                f"check_concurrency {name}{n or ''}",
                lambda h=host, m=motif: P.check_concurrency(h, m),
                expect(lambda r, m=matches, s=states, c=concurrent:
                       (r["initial_matches"], r["states"], r["terminals"], r["confluent"], r["concurrent"])
                       == (m, s, 1, True, c),
                       f"{matches} matches, {states} states, confluent"),
            ))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- laws


def permutation_carrier(P):
    """The 24 permutation arrays on (I:4, J:2, K:2): a Malcev heapoid
    under the JKI product."""
    s = P.parse_semiring("boolean")
    I4, J2, K2 = P.IndexSet("I", 4), P.IndexSet("J", 2), P.IndexSet("K", 2)
    carrier = []
    for sigma in itertools.permutations(range(4)):
        entries = [1 if sigma[p] == q * 2 + r else 0 for p in range(4) for q in range(2) for r in range(2)]
        carrier.append(P.Array((I4, J2, K2), entries, s))
    return carrier


def _cyclic(n, rng):
    """Multiplication table of Z_n under a seeded relabeling of elements."""
    perm = rng.sample(range(n), n)
    inv = {v: k for k, v in enumerate(perm)}
    return [[perm[(inv[a] + inv[b]) % n] for b in range(n)] for a in range(n)]


def build_laws(P, rng, **_):
    """Heapoid closure, para-associativity, unit, flattening and
    sequentialization laws on many small arrays, and finite-table law
    scans. Every verdict below is a known truth."""
    ops = []
    boolean, mod7 = P.parse_semiring("boolean"), P.parse_semiring("int-mod:7")
    carrier = permutation_carrier(P)
    ops.append(Op("heapoid_check permutations JKI",
                  lambda: P.heapoid_check(carrier, "JKI"),
                  expect(lambda r: r["semiheapoid"] and r["heapoid"] and r["malcev"], "a Malcev heapoid"),
                  once=True))
    delta = P.kronecker(3, P.IndexSet("I", 2), boolean)
    ops.append(Op("heapoid_check delta",
                  lambda: P.heapoid_check([delta]),
                  expect(lambda r: r["semiheapoid"] and not r["heapoid"], "a semiheapoid, not a heapoid")))

    for sizes in ((2, 2, 2), (3, 3, 3), (2, 3, 2)):
        for variant in P.ETA_VARIANTS:
            seed = rng.randrange(1 << 30)
            ops.append(Op(f"semiheap_law_arrays {variant} {sizes}",
                          lambda v=variant, sz=sizes, sd=seed: P.semiheap_law_arrays(v, mod7, sz, 2, sd),
                          expect(bool, "para-associativity to hold")))

    for k in range(16):
        s = P.parse_semiring(SEMIRINGS[k % 4])
        n = 2 + k % 2
        regular = (P.IndexSet("I", n),) * 3
        a, b, c = (P.random_array(regular, s, rng) for _ in range(3))
        mixed = (P.IndexSet("I", n), P.IndexSet("J", 2), P.IndexSet("K", 3))
        m = P.random_array(mixed, s, rng)
        ops.append(Op(f"fish_units_check {n},2,3 {s.name}", lambda m=m: P.fish_units_check(m),
                      expect(bool, "the right units to hold")))
        ops.append(Op(f"flat_fish_equiv n={n} {s.name}", lambda a=a, b=b, c=c: P.flat_fish_equiv(a, b, c),
                      expect(bool, "the flat product to agree")))
        ops.append(Op(f"fish_sequentializations_check n={n} {s.name}",
                      lambda a=a, b=b, c=c: P.fish_sequentializations_check(a, b, c),
                      expect(bool, "all four forms to agree")))

    heaps = [(f"group_heap Z{n}", P.group_heap(_cyclic(n, rng))) for n in (2, 3, 4, 5)]
    heaps += [("vector_heap 3,1", P.vector_heap(3, 1)), ("vector_heap 2,2", P.vector_heap(2, 2)),
              ("bijection_heap 2", P.bijection_heap(2)), ("bijection_heap 3", P.bijection_heap(3))]
    for name, t in heaps:
        ops.append(Op(f"check_heap {name}", lambda t=t: P.check_heap(t),
                      expect(lambda r: r["ok"], "a heap")))
        ops.append(Op(f"check_semiheap {name}", lambda t=t: P.check_semiheap(t),
                      expect(bool, "a semiheap")))
        e, e2 = rng.sample(range(t.n), 2)
        # in a heap every element is a biunit: each gives an involuted
        # monoid (the group with inversion), and any two are transported
        ops.append(Op(f"involuted_monoid {name}", lambda t=t, e=e: P.involuted_monoid(t, e),
                      expect(lambda r: r[2].ok, "an involuted monoid")))
        ops.append(Op(f"biunit_transport {name}", lambda t=t, e=e, e2=e2: P.biunit_transport(t, e, e2),
                      expect(lambda r: r[1].ok, "a monoid isomorphism")))
    rel = P.relation_semiheap(2, 2)
    ops.append(Op("check_semiheap relation 2,2", lambda: P.check_semiheap(rel), expect(bool, "a semiheap")))
    ops.append(Op("check_heap relation 2,2", lambda: P.check_heap(rel),
                  expect(lambda r: r["sh"].ok and not r["ok"], "a semiheap that is not a heap")))
    for n in (2, 3, 3):
        ops.append(Op(f"check_isotropy_biinvariance {n},{n}",
                      lambda n=n: P.check_isotropy_biinvariance(n, n), expect(bool, "bi-invariance")))
    for name, n, motif, trials in (("long_fish", None, P.fish_motif(), 3), ("chain", 6, P.vee_motif(), 1)):
        host = P.standard_diagram(name, n=n)
        seed = rng.randrange(1 << 30)
        ops.append(Op(f"semantic_confluence {name}{n or ''} int-mod:7",
                      lambda h=host, m=motif, tr=trials, sd=seed: P.semantic_confluence(h, m, mod7, tr, sd),
                      expect(lambda r: r["ok"], "every rewrite order to agree")))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli

CLI_START = "import sys; from plexus.cli import main; sys.exit(main())"

# Classes of malformed workspace: (label, class, expected PlexusError codes).
MALFORMED = (
    ("semiring-not-a-string", "wrong-typed field", {"PARSE_ERROR", "UNKNOWN_KIND"}),
    ("size-not-an-integer", "wrong-typed field", {"PARSE_ERROR"}),
    ("axis-not-declared", "unknown index set", {"UNKNOWN_INDEX_SET"}),
    ("entry-out-of-range", "bad entry", {"BAD_ELEMENT"}),
    ("entry-nan", "bad entry", {"BAD_ELEMENT"}),
    ("axes-entry-is-a-list", "unhashable axes", {"PARSE_ERROR", "UNKNOWN_INDEX_SET"}),
)


def _child_runner(src):
    env = dict(os.environ, PYTHONPATH=src)

    def run(argv):
        proc = subprocess.run([sys.executable, "-c", CLI_START, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _inproc_runner(P):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = P.run_command(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _write(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _entries(s, n, rng):
    return [s.element_to_json(s.random_element(rng)) for _ in range(n)]


def _from_json(s, values):
    return [math.inf if v == "inf" else v for v in values] if s.kind == "min_plus" else list(values)


def _arrays(P, s, sets, arrays, names):
    """The named arrays of a generated workspace, built without its loader."""
    isets = {n: P.IndexSet(n, v) for n, v in sets.items()}
    return [P.make_array([isets[x] for x in arrays[n]["axes"]], _from_json(s, arrays[n]["entries"]), s)
            for n in names]


def _cli_array_diff(got, want):
    """Compare `plexus eval/fish` stdout JSON with a reference Array."""
    code, out, err = got
    if code != 0:
        return f"exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
    obj = json.loads(out)
    sizes = tuple(ax["size"] for ax in obj["axes"])
    if sizes != want.sizes:
        return f"sizes {sizes} != reference {want.sizes}"
    if _from_json(want.semiring, obj["entries"]) != list(want.entries):
        return "entries differ from the reference"
    return None


def _refused(codes):
    def check(got):
        if isinstance(got, BaseException):
            return _raised(got)
        code, out, err = got
        if code != 2:
            return f"exit {code}, expected 2"
        try:
            obj = json.loads(err)
        except ValueError:
            return "stderr is not structured JSON"
        if obj.get("error") not in codes:
            return f"error {obj.get('error')!r}, expected one of {sorted(codes)}"
        return None

    return check


def build_cli(P, rng, workdir, inproc=False, src=None):
    """Separate `plexus` processes (or, traced, run_command in-process) on
    generated workspace files of 10^4 to 10^5 entries with light
    contraction, plus malformed workspaces that must exit 2."""
    run = _inproc_runner(P) if inproc else _child_runner(src)
    ops = []
    for k, name in enumerate(("int-mod:7", "boolean", "min-plus", "nat64")):
        s = P.parse_semiring(name)
        sets = {"I": 50, "J": 40, "K": 5, "L": 5}
        raw = {"a": ("I", "J"), "b": ("J", "K"), "pad": ("I", "J", "L")}
        arrays = {n: {"axes": list(ax), "entries": _entries(s, math.prod(sets[x] for x in ax), rng)}
                  for n, ax in raw.items()}
        diagram = {"vertices": [{"id": "v0", "index_set": "I"},
                                {"id": "v1", "index_set": "J", "contracted": True},
                                {"id": "v2", "index_set": "K"}],
                   "edges": [{"id": "e0", "legs": ["v0", "v1"], "label": "a"},
                             {"id": "e1", "legs": ["v1", "v2"], "label": "b"}]}
        path = _write(os.path.join(workdir, f"eval{k}.json"),
                      {"semiring": name, "index_sets": sets, "arrays": arrays, "diagrams": {"d": diagram}})

        def reference(s=s, sets=sets, arrays=arrays):
            a, b = _arrays(P, s, sets, arrays, ("a", "b"))
            d = P.build_diagram([("v0", a.axes[0], False), ("v1", a.axes[1], True), ("v2", b.axes[1], False)],
                                [("e0", ("v0", "v1")), ("e1", ("v1", "v2"))])
            return P.evaluate_formula_oracle(d, P.default_binding(d, {"e0": a, "e1": b}))

        ops.append(Op(f"eval vee 50x40x5 {name}", lambda p=path: run(["eval", p]),
                      against(reference, _cli_array_diff)))

    for k, (name, variant, twist) in enumerate((("int-mod:7", "IJK", False), ("nat64", "IJK", True),
                                                ("boolean", "JIK", False), ("min-plus", "JIK", True))):
        s = P.parse_semiring(name)
        sets = {"I": 24, "J": 24, "P": 3, "Q": 2, "K": 3, "L": 16}
        raw = {"tail": ("I", "J", "P"), "body": ("Q", "Q", "P"), "head": ("Q", "Q", "K"), "pad": ("I", "J", "L")}
        arrays = {n: {"axes": list(ax), "entries": _entries(s, math.prod(sets[x] for x in ax), rng)}
                  for n, ax in raw.items()}
        path = _write(os.path.join(workdir, f"fish{k}.json"),
                      {"semiring": name, "index_sets": sets, "arrays": arrays})
        # reversed variants read their arguments head first
        names = ("head", "body", "tail") if P.ETA_VARIANTS[variant][1] else ("tail", "body", "head")
        argv = ["fish", *(f"{path}:{n}" for n in names), "--variant", variant] + (["--twist"] if twist else [])

        def reference(s=s, sets=sets, arrays=arrays, names=names, variant=variant, twist=twist):
            d, binding = P.make_fish_binding(*_arrays(P, s, sets, arrays, names), variant, twist)
            return P.evaluate_formula_oracle(d, binding, P.fish_output_order(variant))

        ops.append(Op(f"fish 24x24x3 {variant}{' twist' if twist else ''} {name}",
                      lambda a=argv: run(a), against(reference, _cli_array_diff)))

    for k, (name, n, motif) in enumerate((("chain", 6, "vee"), ("chain", 7, "vee"), ("long_fish", None, "fish"))):
        edges, marked = _shape(P.standard_diagram(name, n=n))
        host = _relabel(P, edges, marked, rng)
        diagram = {"vertices": [{"id": v, "index_set": "I", "contracted": host.vertices[v].marked}
                                for v in host.vertex_ids()],
                   "edges": [{"id": e, "legs": list(host.edges[e].legs)} for e in host.edge_ids()]}
        pad = {"axes": ["I", "M", "M"], "entries": _entries(P.parse_semiring("int-mod:7"), 2 * 75 * 75, rng)}
        path = _write(os.path.join(workdir, f"rewrite{k}.json"),
                      {"semiring": "int-mod:7", "index_sets": {"I": 2, "M": 75},
                       "arrays": {"pad": pad}, "diagrams": {"host": diagram}})
        matches, states, _, concurrent = _multiway_truth(name, n)
        want = {"initial_matches": matches, "states": states, "terminals": 1,
                "confluent": True, "concurrent": concurrent}

        def check(got, want=want):
            if isinstance(got, BaseException):
                return _raised(got)
            code, out, err = got
            if code != 0:
                return f"exit {code}"
            report = json.loads(out)
            bad = {key: report.get(key) for key, v in want.items() if report.get(key) != v}
            return f"report differs: {bad}" if bad else None

        ops.append(Op(f"rewrite {name}{n or ''} --motif {motif}",
                      lambda p=path, m=motif: run(["rewrite", p, "--diagram", "host", "--motif", m, "--json"]),
                      check))

    for name in ("int-mod:7", "boolean", "nat64"):
        seed = rng.randrange(1 << 30)
        argv = ["laws", "--suite", "semiheap", "--semiring", name, "--sizes", "2,2,2",
                "--trials", "4", "--seed", str(seed), "--json"]

        def check(got):
            if isinstance(got, BaseException):
                return _raised(got)
            code, out, err = got
            return None if code == 0 and json.loads(out) == {"ok": True, "suites": ["semiheap"]} else f"exit {code}"

        ops.append(Op(f"laws semiheap {name}", lambda a=argv: run(a), check))

    for label, klass, codes in MALFORMED:
        path = _write(os.path.join(workdir, f"bad-{label}.json"), _malformed(P, label, rng))
        ops.append(Op(f"eval malformed/{label}", lambda p=path: run(["eval", p]), _refused(codes),
                      klass=f"malformed: {klass}", refuse=True))
    rng.shuffle(ops)
    return ops


def _malformed(P, label, rng):
    """A valid eval workspace of about 10^4 entries, then one defect,
    placed last so that the loader has parsed the rest before it."""
    semiring = "float64" if label == "entry-nan" else "int-mod:7"
    s = P.parse_semiring(semiring)
    sets = {"I": 20, "J": 25, "K": 20}
    big = _entries(s, 20 * 25 * 20, rng) if semiring != "float64" else [rng.random() for _ in range(10000)]
    small = _entries(s, 25 * 20, rng) if semiring != "float64" else [rng.random() for _ in range(500)]
    ws = {"semiring": semiring, "index_sets": sets,
          "arrays": {"a": {"axes": ["I", "J", "K"], "entries": big},
                     "b": {"axes": ["J", "K"], "entries": small}},
          "diagrams": {"d": {"vertices": [{"id": "v0", "index_set": "I"},
                                          {"id": "v1", "index_set": "J", "contracted": True},
                                          {"id": "v2", "index_set": "K"}],
                             "edges": [{"id": "e0", "legs": ["v0", "v1", "v2"], "label": "a"},
                                       {"id": "e1", "legs": ["v1", "v2"], "label": "b"}]}}}
    if label == "semiring-not-a-string":
        ws["semiring"] = 7
    elif label == "size-not-an-integer":
        ws["index_sets"]["K"] = "20"
    elif label == "axis-not-declared":
        ws["arrays"]["b"]["axes"] = ["J", "Z"]
    elif label == "entry-out-of-range":
        ws["arrays"]["b"]["entries"][-1] = 7
    elif label == "entry-nan":
        ws["arrays"]["b"]["entries"][-1] = math.nan
    elif label == "axes-entry-is-a-list":
        ws["arrays"]["b"]["axes"] = [["J"], "K"]
    return ws


WORKLOADS = {"dense": build_dense, "census": build_census, "laws": build_laws, "cli": build_cli}
