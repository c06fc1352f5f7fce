"""Benchmark runner for ncglab.

    python3 bench/run.py --workload enum_n6 --seed 0 --seconds 28 --trace 0

Builds the workload's inputs from the seed, then repeats its fixed list
of calls in whole rounds while the next round, predicted by the last,
would end within ``--seconds``; the first two rounds always run. Every
call's result is checked after its round, outside the timed region.

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (the
median of several fresh processes that start, import ncglab and build
the inputs), ``wall_s`` (the list's time, from each call's median),
``call_p50_s``, ``call_tail_s`` and ``peak_rss_mb``. Times are seconds
at a nominal host speed: a fixed reference task, timed between calls,
measures the shared host's speed, which swung by up to a factor of
three within minutes. With ``--trace 1`` it makes each call once plain
and once traced, in turn, and reports the per-layer metrics of the
traced calls, scaled the same way; the spans go to ``bench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
not 0 when ncglab cannot be imported from ``src/`` next to this
directory.
"""

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from heapq import heappop, heappush
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUP_REPEATS = 7
MIN_ROUNDS = 2  # rounds that always run, so each call has more than one sample
REFERENCE_NOMINAL_S = 0.055  # the reference task's time at nominal host speed
REFERENCE_EVERY_S = 0.5  # time the reference task about this often in a run
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_s": "s",
    "call_tail_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # builds the inputs and exits; the runner times it for setup_s
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import ncglab
    except ImportError as exc:
        sys.exit(f"cannot import ncglab from {SRC}: {exc}")
    if Path(ncglab.__file__).resolve().parent != SRC / "ncglab":
        sys.exit(f"ncglab was imported from {ncglab.__file__}, not from {SRC}")


def environment():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"nproc={nproc} python={platform.python_version()} cpu={cpu!r}"


def measure_setup(workload, seed):
    """Median time of fresh processes that import ncglab and build inputs,
    scaled by the reference task timed before and after them."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    reference_seconds()  # warm-up, not counted
    before = reference_seconds()
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    after = reference_seconds()
    return statistics.median(times) * REFERENCE_NOMINAL_S / ((before + after) / 2)


def reference_seconds():
    """Time a fixed pure-Python task shaped like the cost engine's work.

    Shortest paths with a binary heap over a fixed graph, results kept in
    a tuple-keyed dict. It does not use ncglab, so no change to the
    library moves it; it moves only with the speed of the host. Timed
    next to a call on a shared host, it tracked the call's time with a
    correlation of 0.7 to 0.9.
    """
    rng = random.Random(0)
    n = 60
    adj = [[(v, rng.randint(1, 100)) for v in rng.sample(range(n), 8)] for _ in range(n)]
    memo = {}
    start = perf_counter()
    for rep in range(12):
        for source in range(n):
            dist = [float("inf")] * n
            dist[source] = 0
            heap = [(0, source)]
            while heap:
                d, u = heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adj[u]:
                    if d + w < dist[v]:
                        dist[v] = d + w
                        heappush(heap, (d + w, v))
            memo[(rep, source, tuple(dist[:4]))] = sum(dist)
    return perf_counter() - start


def run_call(call, tracer=None):
    """(seconds, result, error) of one call."""
    result, error = None, None
    start = perf_counter()
    try:
        if tracer is None:
            result = call.run()
        else:
            with tracer.root(call.kind):
                result = call.run()
    except Exception as exc:  # a raising call is a failed call, not a crash
        error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, result, error


def run_round(calls, tracer=None):
    """Make every call once, in order."""
    return [run_call(call, tracer) for call in calls]


def check_round(calls, outcomes, golden):
    """Failure messages of one round, one per failed call."""
    from workloads import CheckFailed, digest

    failures = []
    prior = {}
    for call, (_, result, error) in zip(calls, outcomes):
        prior[call.label] = result
        if error is not None:
            failures.append(f"{call.label}: raised {error}")
            continue
        try:
            text = call.check(result, prior)
        except CheckFailed as exc:
            failures.append(f"{call.label}: {exc}")
            continue
        except Exception as exc:  # a malformed result must not stop the run
            failures.append(f"{call.label}: check raised {type(exc).__name__}: {exc}")
            continue
        want = golden.get(call.label)
        if want is not None and digest(text) != want:
            failures.append(f"{call.label}: digest {digest(text)} != golden {want}")
    return failures


def tail(times, percentile):
    """(description, seconds) of the tail call time.

    With a percentile, that percentile of every call. Without one (a
    workload with too few calls for ten to lie beyond any percentile),
    the median time of the slowest call in the list.
    """
    n = sum(len(ts) for ts in times.values())
    if percentile is None:
        return f"median of the slowest call, {n} calls", max(map(statistics.median, times.values()))
    every = [t for ts in times.values() for t in ts]
    beyond = n * (100 - percentile) // 100
    cut = statistics.quantiles(every, n=100, method="inclusive")[percentile - 1]
    return f"p{percentile} of {n} calls, {beyond} beyond it", cut


class HostScale:
    """Scales call times to a nominal host speed.

    The reference task runs about every REFERENCE_EVERY_S between calls.
    Each call's seconds are scaled by REFERENCE_NOMINAL_S over the mean
    of the reference samples just before and just after it, which
    removes most of the host's speed swings.
    """

    def __init__(self):
        reference_seconds()  # warm-up, not counted
        self.refs = [reference_seconds()]
        self.last_ref = perf_counter()
        self.pending = []  # (key, seconds) of calls since the last reference sample
        self.scaled = []  # (key, seconds, scaled seconds) of every call added

    def add(self, key, seconds):
        self.pending.append((key, seconds))
        if perf_counter() - self.last_ref >= REFERENCE_EVERY_S:
            self.sample()

    def sample(self):
        self.refs.append(reference_seconds())
        self.last_ref = perf_counter()
        scale = REFERENCE_NOMINAL_S / ((self.refs[-2] + self.refs[-1]) / 2)
        self.scaled += [(key, t, t * scale) for key, t in self.pending]
        self.pending.clear()

    def finish(self):
        """Every call added, scaled: (key, seconds, scaled seconds)."""
        if self.pending:
            self.sample()
        return self.scaled

    def note(self):
        return f"reference task: median {statistics.median(self.refs):.4f} s over {len(self.refs)} samples"


def timed_run(calls, seconds, check, tail_percentile):
    """Repeat the call list in whole rounds while the next round, predicted
    by the previous one, would end within ``seconds``; the first
    MIN_ROUNDS rounds always run. wall_s sums the median scaled time of
    each call in the list.
    """
    host = HostScale()
    rounds, attempted, failures = 0, 0, []
    start = perf_counter()
    round_s = 0.0
    while rounds < MIN_ROUNDS or perf_counter() - start + round_s <= seconds:
        round_start = perf_counter()
        outcomes = []
        for call in calls:
            outcomes.append(run_call(call))
            host.add(call.label, outcomes[-1][0])
        round_s = perf_counter() - round_start
        rounds += 1
        attempted += len(outcomes)
        failures += check(calls, outcomes)
    times = {call.label: [] for call in calls}
    for label, _, t in host.finish():
        times[label].append(t)
    tail_of, tail_s = tail(times, tail_percentile)
    metrics = {
        "wall_s": sum(statistics.median(ts) for ts in times.values()),
        "call_p50_s": statistics.median([t for ts in times.values() for t in ts]),
        "call_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"call_tail_s is the {tail_of}", host.note()]
    return metrics, attempted, failures, notes


def traced_run(calls, check, spans_path):
    """Each call once plain and once traced, in turn; per-layer metrics of
    the traced calls.

    Times are scaled as in timed_run. The per-layer seconds are scaled by
    the traced calls' overall scale, and ``trace.overhead_ratio`` is the
    traced calls' scaled time over the plain calls'.
    """
    from tracing import LAYER_METRICS, Tracer

    host = HostScale()
    tracer = Tracer()
    plain, traced = [], []
    for call in calls:
        plain.append(run_call(call))
        host.add("plain", plain[-1][0])
        with tracer.installed():
            traced.append(run_call(call, tracer))
        host.add("traced", traced[-1][0])
    failures = check(calls, plain) + check(calls, traced)
    totals = {"plain": [0.0, 0.0], "traced": [0.0, 0.0]}
    for key, t, scaled in host.finish():
        totals[key][0] += t
        totals[key][1] += scaled
    traced_scale = totals["traced"][1] / totals["traced"][0]
    metrics = tracer.metrics()
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            metrics[name] *= traced_scale
    metrics["trace.overhead_ratio"] = totals["traced"][1] / totals["plain"][1]
    tracer.write_spans(spans_path)
    notes = [f"spans {len(tracer.spans)} written to {spans_path}", host.note()]
    return metrics, 2 * len(calls), failures, notes


def main(argv=None):
    args = parse_args(argv)
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}")
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    print(f"env {environment()} seed={args.seed} workload={args.workload} trace={args.trace}")
    golden = json.loads((BENCH / "golden.json").read_text())

    def check(made, outcomes):
        return check_round(made, outcomes, golden)

    if args.trace:
        calls = workloads.build(args.workload, args.seed)
        spans_path = BENCH / "traces" / f"{args.workload}-seed{args.seed}.tsv"
        metrics, attempted, failures, notes = traced_run(calls, check, spans_path)
        from tracing import LAYER_METRICS as units
    else:
        setup_s = measure_setup(args.workload, args.seed)
        calls = workloads.build(args.workload, args.seed)
        tail_percentile = workloads.TAIL_PERCENTILE.get(args.workload)
        metrics, attempted, failures, notes = timed_run(calls, args.seconds, check, tail_percentile)
        metrics["setup_s"] = setup_s
        units = END_TO_END_UNITS
    for line in notes:
        print(line)
    for line in failures:
        print(f"FAIL {line}")
    ratio = len(failures) / attempted
    print(f"metric failed_ratio {ratio} ratio ({len(failures)} of {attempted} calls)")
    for name, unit in units.items():
        if unit == "s":
            metrics[name] = float(metrics[name])
        print(f"metric {name} {metrics[name]} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
