"""plexus benchmark runner.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: it imports plexus from `src/` and nothing
else. One caller runs a closed loop, one op at a time, with no threads; the
`cli` workload starts one child process at a time. The first round runs
every op of the workload; later rounds run the ops not marked `once`, and
another starts only while the last one's time still fits in `--seconds`.
Each round's outputs are checked against their references after it, outside
the measured time. The tail latency is always p90; a run whose time is up
before 10 samples lie beyond it goes on, up to MAX_STRETCH times
`--seconds`, and fails if it still has too few.

Times are reported at a reference interpreter speed (see `speed.py`), which
removes the machine's drift between runs; the raw figures are in the
`record` line. Per-layer times are raw and include the speed sampler's
kernel runs, about 2%. `--trace 0` prints the end-to-end metrics; `--trace 1`
ignores `--seconds`, runs one untraced round and one traced round, and
prints the per-layer metrics of the traced round. The last line of stdout
is the result object; the lines above it are for people.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
TAIL_PERCENTILE = 90
TAIL_MIN_BEYOND = 10
MAX_STRETCH = 3


class Round:
    """One pass over the ops: the indices of the ops run, each op's (start,
    end) from perf_counter, and each op's return value or exception."""

    __slots__ = ("indices", "intervals", "outcomes")

    def __init__(self, indices, intervals, outcomes):
        self.indices = indices
        self.intervals = intervals
        self.outcomes = outcomes


def setup(workload, seed, workdir, inproc):
    """Import plexus afresh and build the workload's inputs, SETUP_REPEATS
    times; the last build is the one used. Returns (ops, [(start, end)])."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "plexus" or n.startswith("plexus.")]:
            del sys.modules[name]
        t0 = perf_counter()
        P = importlib.import_module("plexus")
        ops = WORKLOADS[workload](P, random.Random(seed), workdir=workdir, inproc=inproc, src=SRC)
        intervals.append((t0, perf_counter()))
    if not os.path.abspath(P.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported plexus from {P.__file__}, not from {SRC}")
    return ops, intervals


def run_rounds(ops, seconds, tracer=None, after_round=None, min_beyond=0):
    """Run every op, then rounds of the ops not marked `once`, while the
    last such round's raw time still fits in `seconds`, or, up to
    MAX_STRETCH times `seconds`, while fewer than `min_beyond` samples lie
    beyond the tail percentile. `after_round(round)` runs outside the
    measured time."""
    rounds = []
    measured = 0.0
    todo = list(range(len(ops)))
    while True:
        intervals, outcomes = [], []
        start = perf_counter()
        for i in todo:
            if tracer:
                tracer.begin_op(i)
            t0 = perf_counter()
            try:
                out = ops[i].call()
            except Exception as err:
                out = err
            intervals.append((t0, perf_counter()))
            outcomes.append(out)
        measured += perf_counter() - start
        rounds.append(Round(todo, intervals, outcomes))
        if after_round:
            after_round(rounds[-1])
        todo = [i for i in todo if not ops[i].once]
        following = sum(t1 - t0 for i, (t0, t1) in zip(rounds[-1].indices, intervals) if not ops[i].once)
        if not todo or measured + following > MAX_STRETCH * seconds:
            return rounds
        if measured + following > seconds:
            samples = latency_samples(ops, rounds, lambda t0, t1: t1 - t0)
            if percentile(samples, TAIL_PERCENTILE)[1] >= min_beyond:
                return rounds


class Checker:
    """Checks outcomes against their ops' references and drops them, so that
    memory does not grow with the number of rounds. Collects (class, label,
    reason) failures and counts those on inputs the program should accept."""

    def __init__(self, ops):
        self.ops = ops
        self.failures = Counter()
        self.wrong = 0

    def __call__(self, r):
        for i, out in zip(r.indices, r.outcomes):
            op = self.ops[i]
            try:
                reason = op.check(out)
            except Exception as err:
                reason = f"unreadable output ({type(err).__name__}: {err})"
            if reason:
                self.failures[op.klass, op.label, reason] += 1
                self.wrong += not op.refuse
        r.outcomes = None


def latency_samples(ops, rounds, duration):
    """Each op's latencies, every time given by `duration(start, end)`."""
    samples = [[] for _ in ops]
    for r in rounds:
        for i, iv in zip(r.indices, r.intervals):
            samples[i].append(duration(*iv))
    return samples


def percentile(samples, p):
    """Nearest-rank percentile of the latencies, every op weighted equally
    whatever its number of samples, and the number of samples beyond it."""
    weighted = sorted((x, 1 / len(xs)) for xs in samples for x in xs)
    target, cum = p / 100 * len(samples), 0.0
    for k, (x, w) in enumerate(weighted):
        cum += w
        if cum >= target * (1 - 1e-12):
            return x, len(weighted) - k - 1


def end_to_end(ops, rounds, setup_intervals, children, duration):
    """The end-to-end metrics, with every time given by `duration(start,
    end)`: reference-speed time for the reported metrics, raw time for the
    record. An op's typical latency is the median of its samples."""
    samples = latency_samples(ops, rounds, duration)
    tail, beyond = percentile(samples, TAIL_PERCENTILE)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": (statistics.median(duration(*iv) for iv in setup_intervals), "s"),
        "ops_per_s": (len(ops) / sum(statistics.median(xs) for xs in samples), "1/s"),
        "op_latency_p50_ms": (percentile(samples, 50)[0] * 1e3, "ms"),
        "op_latency_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }
    return metrics, {"tail_percentile": TAIL_PERCENTILE, "tail_samples_beyond": beyond,
                     "latency_samples": sum(map(len, samples))}


def start_time(repeats=5):
    """Median wall time of a fresh interpreter importing plexus."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import plexus"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    loadavg = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "plexus", "__init__.py")):
        print(f"perfbench: no plexus package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    traced = bool(args.trace)
    children = args.workload == "cli" and not traced
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with speed.Sampler() as sampler:
            ops, setup_intervals = setup(args.workload, args.seed, workdir, inproc=traced)
            checker = Checker(ops)
            if traced:
                untraced = run_rounds(ops, 0, after_round=checker)
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    rounds = run_rounds(ops, 0, tracer)
                finally:
                    tracer.uninstall()
                checker(rounds[0])
                all_rounds = untraced + rounds
            else:
                rounds = all_rounds = run_rounds(ops, args.seconds, after_round=checker,
                                                 min_beyond=TAIL_MIN_BEYOND)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.indices) for r in all_rounds)
    failures = checker.failures
    failed = sum(failures.values())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "loadavg_start": loadavg,
        "rounds": len(all_rounds), "ops_per_round": len(ops),
        "op_mix": dict(sorted(Counter(op.label for op in ops).items())),
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(all_rounds)} round(s), {attempted} op runs, {len(ops)} distinct ops")
    if traced:
        metrics = {k: (v, None) for k, v in tracer.layer_metrics().items()}
        metrics["trace.overhead_ratio"] = (sum(sampler.normalize(*iv) for iv in rounds[0].intervals)
                                           / sum(sampler.normalize(*iv) for iv in untraced[0].intervals), None)
        metrics["cli.start_s"] = (start_time(), None)
        classes, attempts = metrics["rewrite.census_classes"][0], metrics["rewrite.census_canonical_form_calls"][0]
        if attempts:
            record["rewrite.census_yield"] = classes / attempts
        record["error_codes"] = tracer.error_codes()
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        metrics = {k: (v, tracing.unit_of(k)) for k, (v, _) in sorted(metrics.items())}
    else:
        metrics, extra = end_to_end(ops, rounds, setup_intervals, children, sampler.normalize)
        raw, raw_extra = end_to_end(ops, rounds, setup_intervals, children, lambda t0, t1: t1 - t0)
        record.update(extra, speed=sampler.speed(), raw={k: v for k, (v, _) in raw.items()})
        # the same raw count that ended the loop
        if raw_extra["tail_samples_beyond"] < TAIL_MIN_BEYOND:
            print("record " + json.dumps(record))
            print(f"perfbench: only {raw_extra['tail_samples_beyond']} samples beyond p{TAIL_PERCENTILE} after "
                  f"{MAX_STRETCH}x --seconds; the tail is not comparable", file=sys.stderr)
            return 3
    print("record " + json.dumps(record))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / attempted:>14.6g} ratio ({failed} of {attempted} ops)")
    by_class = Counter()
    for (klass, label, reason), n in sorted(failures.items()):
        by_class[klass] += n
        print(f"  failed x{n}: [{klass}] {label}: {reason}")
    for klass, n in sorted(by_class.items()):
        print(f"  failures in class {klass!r}: {n}")
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
