#!/usr/bin/env python3
"""The ultraseq benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A set-up is a fresh import of ``ultraseq`` plus building the
seeded inputs.  The run sets up once before its passes and again after
each of them, at least five times in all, and reports the median as
``setup_s``.  One unmeasured pass then fills the oracle's expectations.
After it the op list runs in whole passes, closed loop and single client,
until ``--seconds`` have gone by; every op's output is checked against the
oracle in this directory.

Times are read on a reference clock.  On a shared host the same op can
take up to twice as long for tens of seconds at a time, and even the
fastest speed a run reaches drifts from run to run; the ops and a fixed
computation slow down largely together.  So every op and every set-up is
bracketed by a probe, a fixed computation in the benchmark itself, and each
time sample is divided by the faster of its two probes and multiplied by
``PROBE_REFERENCE_S``: a reference second is the time in which the probe
runs 1 / PROBE_REFERENCE_S times.  On an idle 2-vCPU VM (Xeon 2.1 GHz,
Python 3.11) the probe takes about 0.17 ms, so there the two clocks agree
within about 10%.  An op's latency
is the median of its samples over the passes; ``op_p50_ms``, ``op_p90_ms``
and ``work_per_s`` are taken over those latencies and ``setup_s`` is the
median set-up, all on the reference clock.  The report gives the same
figures on the wall clock, and the probe times.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate, the per-layer
metrics come from the traced passes, spans go to
``.perfbench_out/trace-<workload>.jsonl`` and ``trace.overhead_frac`` is the
summed median traced op time over the summed median untraced op time, less
one.
The lines before the last one hold the run's context record and a report
with sample counts, failures and which per-layer counts are computed rather
than measured.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import COMPUTED, LAYERS, METRICS, MOVES, Tracer
from workloads import WORKLOADS, LADDERS, WORK_UNITS, Mismatch

SETUP_REPEATS = 5
#: what a check raises on output it cannot parse or that disagrees with
#: the oracle
CHECK_ERRORS = (Mismatch, ValueError, KeyError, IndexError, TypeError,
                AttributeError)
SPANS_WRITTEN = 100_000
OUT_DIR = ".perfbench_out"
#: the probe's time on the reference clock
PROBE_REFERENCE_S = 170e-6
PROBE_VALUES = [3 ** (100 + 7 * i) for i in range(60)]


def probe() -> int:
    """The fixed computation the host's speed is read from: big integers
    built by addition, printed and parsed back, and sent through JSON as
    strings, as in the program's ops and their checks."""
    a, b, row = 7, 11, []
    for _ in range(400):
        a, b = b, a + b
        row.append(a)
    total = sum(int(t) for t in ",".join(map(str, row[::4])).split(","))
    doc = json.loads(json.dumps({"values": [str(v) for v in PROBE_VALUES]}))
    return total + sum(int(v) for v in doc["values"])


def timed_probe() -> float:
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_package(src: Path):
    """Import ultraseq afresh from ``src`` and return its layer modules."""
    for name in [n for n in sys.modules
                 if n == "ultraseq" or n.startswith("ultraseq.")]:
        del sys.modules[name]
    pkg = importlib.import_module("ultraseq")
    mods = {name: importlib.import_module(f"ultraseq.{name}")
            for name in LAYERS}
    if Path(pkg.__file__).resolve().parent != (src / "ultraseq").resolve():
        raise ImportError(f"ultraseq was imported from {pkg.__file__}, "
                          f"not from {src}")
    return SimpleNamespace(**mods)


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all the order
    statistics, weighted by the Beta(q(n+1), (1-q)(n+1)) mass over each
    one's share of [0, 1].  Unlike the nearest rank it does not jump when
    two ops near the quantile trade places."""
    xs = sorted(values)
    n, steps = len(xs), 16
    a, b = q * (n + 1), (1 - q) * (n + 1)
    mode = math.log(q) * (a - 1) + math.log(1 - q) * (b - 1)
    weights = []
    for i in range(n):
        # midpoint rule over [i/n, (i+1)/n]; the density is never needed
        # at 0 or 1, where it may be infinite
        ts = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t)
                                    + (b - 1) * math.log(1 - t) - mode)
                           for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def run_pass(ops, pkg, record, probes, tracer=None, op_base=0):
    """Run every op once, with a probe before the first op and after each;
    probe times go to ``probes``.  ``record`` gets each op's wall time and
    its time on the reference clock.  Returns the summed op time."""
    clock = time.perf_counter
    busy = 0.0
    before = timed_probe()
    probes.append(before)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = op_base + i
        t0 = clock()
        try:
            outcome = op.call(pkg)
        except Exception as exc:  # a crashing op is a failed op; go on
            outcome = exc
        seconds = clock() - t0
        if tracer is not None:
            tracer.end_op()
        busy += seconds
        after = timed_probe()
        probes.append(after)
        record(i, op, outcome, seconds,
               seconds * PROBE_REFERENCE_S / min(before, after),
               tracer is not None)
        before = after
    return busy


def _check_quietly(i, op, outcome, seconds, ref_seconds, traced):
    if not isinstance(outcome, Exception):
        try:
            op.check(outcome)
        except CHECK_ERRORS:
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "ultraseq" / "__init__.py").is_file():
        print(f"error: no ultraseq package under {src}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    out_dir = root / OUT_DIR
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    context = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "git_commit": git_commit(root),
        "ladders": LADDERS[args.workload],
        "work_unit": WORK_UNITS[args.workload],
        "setup_repeats_min": SETUP_REPEATS,
    }
    try:
        return measure(args, src, out_dir, work_dir, context)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def set_up(args, src, work_dir, setup_times, import_times, probes):
    """A fresh import of the package plus the workload's inputs, timed on
    the wall clock and on the reference clock."""
    clock = time.perf_counter
    shutil.rmtree(work_dir, ignore_errors=True)
    before = timed_probe()
    t0 = clock()
    pkg = load_package(src)
    t1 = clock()
    work_dir.mkdir(parents=True)
    ops = WORKLOADS[args.workload](random.Random(args.seed), pkg, work_dir)
    seconds = clock() - t0
    after = timed_probe()
    probes += (before, after)
    setup_times.append((seconds,
                        seconds * PROBE_REFERENCE_S / min(before, after)))
    import_times.append(t1 - t0)
    return pkg, ops


def measure(args, src, out_dir, work_dir, context) -> int:
    clock = time.perf_counter
    setup_times, import_times, probes = [], [], []
    try:
        pkg, ops = set_up(args, src, work_dir, setup_times, import_times,
                          probes)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # per op, one (wall, reference) time per untraced (traced) pass
    latencies = [[] for _ in ops]
    traced_latencies = [[] for _ in ops]
    work = [0] * len(ops)
    failures = {}
    totals = {"attempted": 0, "failed": 0, "wrong": 0}

    def record(i, op, outcome, seconds, ref_seconds, traced):
        totals["attempted"] += 1
        (traced_latencies if traced else latencies)[i].append(
            (seconds, ref_seconds))
        if isinstance(outcome, Exception):
            reason, wrong = f"{type(outcome).__name__}: {outcome}", False
        else:
            try:
                work[i] = op.check(outcome)
                return
            except CHECK_ERRORS as exc:
                reason, wrong = f"{type(exc).__name__}: {exc}", True
        totals["failed"] += 1
        totals["wrong"] += wrong
        failures.setdefault(op.kind, {"count": 0, "first": reason[:300]})
        failures[op.kind]["count"] += 1

    # one pass to fill the oracle's expectations and finish lazy set-up,
    # then freeze the benchmark's own objects out of the collector's way
    run_pass(ops, pkg, _check_quietly, [])
    gc.collect()
    gc.freeze()

    tracer = Tracer(pkg) if args.trace else None
    busy = {False: [], True: []}
    start = clock()
    deadline = start + args.seconds
    passes = 0
    while True:
        traced = bool(args.trace) and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            t = run_pass(ops, pkg, record, probes,
                         tracer if traced else None, passes * len(ops))
        finally:
            if traced:
                tracer.remove()
        busy[traced].append(t)
        passes += 1
        # set up again between passes and keep only the timing, so that
        # setup_s samples the whole run rather than its first second
        set_up(args, src, work_dir, setup_times, import_times, probes)
        if clock() >= deadline and (not args.trace or busy[True]):
            break
    wall = clock() - start
    while len(setup_times) < SETUP_REPEATS:
        set_up(args, src, work_dir, setup_times, import_times, probes)

    attempted = totals["attempted"]

    def medians(samples, clock):
        """Each op's median time over the passes on one clock."""
        return [statistics.median(t[clock] for t in v) for v in samples]

    def timings(clock):
        lat = medians(latencies, clock)
        return {"setup_s": statistics.median(t[clock] for t in setup_times),
                "work_per_s": sum(work) / sum(lat),
                "op_p50_ms": 1000 * percentile(lat, 0.5),
                "op_p90_ms": 1000 * percentile(lat, 0.9)}

    ref = timings(1)
    report = {
        "passes": passes, "ops_per_pass": len(ops), "wall_s": wall,
        "pass_busy_s": busy[False] + busy[True],
        "wall_clock": timings(0),
        "probe_ms": {"reference": 1000 * PROBE_REFERENCE_S,
                     "fastest": 1000 * min(probes),
                     "median": 1000 * statistics.median(probes),
                     "count": len(probes)},
        "samples": {"setup_s": len(setup_times), "ops": len(latencies),
                    "latencies_per_op": len(latencies[0]),
                    "beyond_p90": sum(
                        1 for x in medians(latencies, 1)
                        if 1000 * x > ref["op_p90_ms"])},
        "work_per_pass": sum(work), "work_unit": WORK_UNITS[args.workload],
        "wrong": totals["wrong"], "failures": failures,
    }
    if args.trace:
        tr = busy[True]
        overhead = (sum(medians(traced_latencies, 1))
                    / sum(medians(latencies, 1)) - 1)
        layer = tracer.metrics(len(tr), overhead,
                               statistics.median(import_times))
        out_dir.mkdir(parents=True, exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}.jsonl"
        written = tracer.write(trace_file, context, start, SPANS_WRITTEN)
        report.update({"traced_passes": len(tr), "spans": len(tracer.spans),
                       "spans_written": written, "trace_file": str(trace_file),
                       "computed": list(COMPUTED), "moves": MOVES})
        metrics = {k: {"value": v, "unit": METRICS[k]} for k, v in layer.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": (ref["setup_s"], "s"),
            "work_per_s": (ref["work_per_s"], "1/s"),
            "op_p50_ms": (ref["op_p50_ms"], "ms"),
            "op_p90_ms": (ref["op_p90_ms"], "ms"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "ops_ok_frac": (1 - totals["failed"] / attempted, "1"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"context": context}))
    print(json.dumps({"report": report}))
    for kind, f in sorted(failures.items()):
        print(f"failed {f['count']}x {kind}: {f['first']}", file=sys.stderr)
    print(json.dumps({"correct": totals["wrong"] == 0, "attempted": attempted,
                      "failed": totals["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
