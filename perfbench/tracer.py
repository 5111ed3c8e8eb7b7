"""Traced run: spans around calls into each layer's public functions.

The tracer wraps functions from outside the package.  A function is
replaced in every ``ultraseq`` module that holds it, so calls between
modules (``from .seqcore import extend_right_by_O``) are traced too; calls a
module makes to itself through the same global name are traced as well.
Each span records its name, start, end, parent span and op id; spans stay in
memory and are written as JSON lines when the run ends.  Counts (values,
bits, summands, subsets) are taken at the same boundaries after the op, so
counting costs no span time.
"""
from __future__ import annotations

import json
import math
import time
from collections import defaultdict

from oracle import bit_total

LAYERS = ("exactmath", "seqcore", "transform", "families", "reference", "cli")

#: traced functions, by module
TARGETS = {
    "exactmath": ("fib", "quad_pow"),
    "seqcore": ("extend_right_by_O", "verify_O_range", "range_sum",
                "difference", "to_csv", "to_json", "from_json", "to_document"),
    "transform": ("apply_O", "apply_H", "iterate"),
    "families": ("pi_window", "pi_closed", "composite_row", "approx_report",
                 "tau_enumerate", "build_family"),
    "reference": ("hofstadter_q_table", "conway_table"),
    "cli": ("dispatch",),
}

#: per-layer metrics that the benchmark computes from arguments and results
#: rather than measures; reported as such
COMPUTED = (
    "exactmath.max_bits",
    "seqcore.extend_right_by_O.values", "seqcore.extend_right_by_O.bits",
    "seqcore.verify_O_range.positions", "seqcore.verify_O_range.violations",
    "seqcore.to_csv.bytes", "seqcore.to_json.bytes", "seqcore.from_json.bytes",
    "transform.apply_O.out_values", "transform.apply_O.summands",
    "families.tau_enumerate.configs",
    "families.tau_enumerate.subsets_visited",
    "families.tau_enumerate.kept_ratio",
    "families.tau_enumerate_canonical.classes",
)

#: every per-layer metric with its unit, in report order
METRICS = {
    "exactmath.quad_pow.s": "s", "exactmath.quad_pow.calls": "count",
    "exactmath.fib.s": "s", "exactmath.fib.calls": "count",
    "exactmath.max_bits": "bit",
    "exactmath.self_s": "s",
    "seqcore.extend_right_by_O.s": "s",
    "seqcore.extend_right_by_O.values": "count",
    "seqcore.extend_right_by_O.bits": "bit",
    "seqcore.extend_right_by_O.exp": "1",
    "seqcore.verify_O_range.s": "s",
    "seqcore.verify_O_range.positions": "count",
    "seqcore.verify_O_range.violations": "count",
    "seqcore.verify_O_range.exp": "1",
    "seqcore.range_sum.s": "s", "seqcore.range_sum.calls": "count",
    "seqcore.difference.s": "s",
    "seqcore.to_csv.s": "s", "seqcore.to_csv.bytes": "byte",
    "seqcore.to_json.s": "s", "seqcore.to_json.bytes": "byte",
    "seqcore.from_json.s": "s", "seqcore.from_json.bytes": "byte",
    "seqcore.self_s": "s",
    "transform.apply_O.s": "s", "transform.apply_O.out_values": "count",
    "transform.apply_O.summands": "count", "transform.apply_O.exp": "1",
    "transform.apply_H.s": "s", "transform.iterate.s": "s",
    "transform.self_s": "s",
    "families.pi_window.s": "s", "families.pi_window.check_s": "s",
    "families.composite_row.s": "s", "families.approx_report.s": "s",
    "families.pi_closed.fib_s": "s", "families.pi_closed.quad_s": "s",
    "families.tau_enumerate.s": "s", "families.tau_enumerate.configs": "count",
    "families.tau_enumerate.subsets_visited": "count",
    "families.tau_enumerate.kept_ratio": "1",
    "families.tau_enumerate_canonical.s": "s",
    "families.tau_enumerate_canonical.classes": "count",
    "families.self_s": "s",
    "reference.hofstadter_q_table.s": "s", "reference.conway_table.s": "s",
    "reference.self_s": "s",
    "cli.dispatch.s": "s", "cli.self_s": "s", "cli.import_s": "s",
    "trace.overhead_frac": "1", "trace.spans": "count",
}

#: which end-to-end metric, on which workload, each per-layer metric should
#: move ("*" is every workload), and where it should not; keyed by name
#: prefix
MOVES = {
    "exactmath.": {"moves": ["grow.work_per_s"]},
    "seqcore.extend_right_by_O.": {"moves": ["grow.work_per_s",
                                             "grow.op_p90_ms"],
                                   "not": ["check"]},
    "seqcore.verify_O_range.": {"moves": ["check.work_per_s"]},
    "seqcore.range_sum.": {"moves": ["check.work_per_s"]},
    "seqcore.difference.": {"moves": ["grow.op_p50_ms", "grow.peak_rss_mb"]},
    "seqcore.to_csv.": {"moves": ["grow.op_p50_ms", "grow.peak_rss_mb"]},
    "seqcore.to_json.": {"moves": ["grow.op_p50_ms", "grow.peak_rss_mb"]},
    "seqcore.from_json.": {"moves": ["check.op_p50_ms"]},
    "seqcore.self_s": {"moves": ["grow.work_per_s", "check.work_per_s"]},
    "transform.": {"moves": ["check.op_p90_ms"]},
    "families.pi_window.": {"moves": ["grow.work_per_s"]},
    "families.composite_row.": {"moves": ["grow.work_per_s"]},
    "families.approx_report.": {"moves": ["check.work_per_s"]},
    "families.pi_closed.": {"moves": ["grow.op_p90_ms"]},
    "families.tau_enumerate": {"moves": ["enumerate.work_per_s"],
                               "not": ["grow", "check"]},
    "families.self_s": {"moves": ["grow.work_per_s",
                                  "enumerate.work_per_s"]},
    "reference.": {"moves": ["grow.op_p50_ms"]},
    "cli.dispatch.": {"moves": ["*.op_p50_ms"]},
    "cli.self_s": {"moves": ["*.op_p50_ms"]},
    "cli.import_s": {"moves": ["*.setup_s"]},
    "trace.": {"moves": []},
}

#: functions whose arguments and result are kept until the op ends, to count
COUNTED = {"exactmath.fib", "exactmath.quad_pow", "seqcore.extend_right_by_O",
           "seqcore.verify_O_range", "seqcore.to_csv", "seqcore.to_json",
           "seqcore.from_json", "transform.apply_O", "families.pi_closed",
           "families.tau_enumerate"}

#: functions with a log-log scaling fit of time against bits
SCALED = ("seqcore.extend_right_by_O", "seqcore.verify_O_range",
          "transform.apply_O")


class Tracer:
    def __init__(self, pkg):
        self.pkg = pkg
        self.spans: list = []       # (name, start, end, parent, op)
        self.op = None
        self._stack: list[int] = []
        self._kept: dict[int, tuple] = {}
        self._saved: list = []
        self.counts = defaultdict(int)
        self.points = defaultdict(list)   # name -> [(bits, seconds)]

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.pkg, name) for name in LAYERS]
        for layer, names in TARGETS.items():
            home = getattr(self.pkg, layer)
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._saved.append((mod, attr, val))
                            setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack, kept = self.spans, self._stack, self._kept
        keep = name in COUNTED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
                if keep:
                    kept[sid] = (args, kwargs, result)
        traced.__wrapped__ = fn
        return traced

    # -- per-op counting ---------------------------------------------------------

    def end_op(self) -> None:
        """Count the kept calls of the op that just ended, then drop them."""
        for sid, (args, kwargs, result) in self._kept.items():
            name, start, end, _, _ = self.spans[sid]
            if result is not None:
                self._count(name, args, kwargs, result, end - start)
        self._kept.clear()

    def _count(self, name, args, kwargs, result, seconds):
        c = self.counts
        if name == "exactmath.fib":
            c["exactmath.max_bits"] = max(c["exactmath.max_bits"],
                                          abs(result).bit_length())
        elif name == "exactmath.quad_pow":
            bits = max(abs(x).bit_length() for x in (
                result.a.numerator, result.a.denominator,
                result.b.numerator, result.b.denominator))
            c["exactmath.max_bits"] = max(c["exactmath.max_bits"], bits)
        elif name == "seqcore.extend_right_by_O":
            steps = args[1] if len(args) > 1 else kwargs["steps"]
            bits = bit_total(result.values[-steps:])
            c[name + ".values"] += steps
            c[name + ".bits"] += bits
            self.points[name].append((bits, seconds))
        elif name == "seqcore.verify_O_range":
            w, a, b = args[:3]
            c[name + ".positions"] += b - a + 1
            c[name + ".violations"] += result.violation_count
            bits = bit_total(w.value_at(k) for k in range(a, b + 2)
                             if w.defined(k))
            self.points[name].append((bits, seconds))
        elif name in ("seqcore.to_csv", "seqcore.to_json"):
            c[name + ".bytes"] += len(result)
        elif name == "seqcore.from_json":
            c[name + ".bytes"] += len(args[0])
        elif name == "transform.apply_O":
            w = args[0]
            c[name + ".out_values"] += len(result.values)
            c[name + ".summands"] += sum(
                abs(w.value_at(k - 1)) for k in
                range(result.lo, result.lo + len(result.values)))
            self.points[name].append((bit_total(result.values), seconds))
        elif name == "families.pi_closed":
            method = args[2] if len(args) > 2 else kwargs.get("method", "fib")
            c[f"families.pi_closed.{method}_s"] += seconds
        elif name == "families.tau_enumerate":
            m = args[0]
            canonical = args[1] if len(args) > 1 else kwargs.get(
                "canonical", False)
            # the seed enumerator walks every 2m-subset of the period and
            # keeps the cyclically non-adjacent ones: counts by formula
            c["families.tau_enumerate.subsets_visited"] += math.comb(
                4 * m + 2, 2 * m)
            c["families.tau_enumerate.kept"] += (2 * m + 1) ** 2
            if canonical:
                c["families.tau_enumerate_canonical.classes"] += len(result)
                c["families.tau_enumerate_canonical.s"] += seconds
            else:
                c["families.tau_enumerate.configs"] += len(result)
                c["families.tau_enumerate.plain_s"] += seconds

    # -- derived metrics -----------------------------------------------------------

    def metrics(self, passes: int, overhead: float, import_s: float) -> dict:
        """Per-pass layer metrics from the spans of ``passes`` traced passes."""
        spans = self.spans
        child_time = defaultdict(float)
        ere_child = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
                if name == "seqcore.extend_right_by_O":
                    ere_child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(int)
        layer_self = defaultdict(float)
        check_s = dispatch_self = 0.0
        for sid, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = dur - child_time[sid]
            total[name] += dur
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += own
            if name == "families.pi_window":
                check_s += dur - ere_child[sid]
            elif name == "cli.dispatch":
                dispatch_self += own
        c = self.counts
        visited = c["families.tau_enumerate.subsets_visited"]
        out = {
            "exactmath.quad_pow.calls": calls["exactmath.quad_pow"],
            "exactmath.fib.calls": calls["exactmath.fib"],
            "seqcore.range_sum.calls": calls["seqcore.range_sum"],
            "families.pi_window.check_s": check_s,
            "families.tau_enumerate.s": c["families.tau_enumerate.plain_s"],
            "families.tau_enumerate.kept_ratio":
                c["families.tau_enumerate.kept"] / visited if visited else 0.0,
            "cli.self_s": dispatch_self,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        for key in METRICS:
            if key.endswith(".s") and key not in out and key[:-2] in total:
                out[key] = total[key[:-2]]
            elif key in c and key not in out:
                out[key] = c[key]
        for name in SCALED:
            out[name + ".exp"] = loglog_slope(self.points[name])
        out["trace.spans"] = len(spans)
        result = {}
        for key, unit in METRICS.items():
            value = out.get(key, 0)
            if key.endswith((".exp", ".kept_ratio", "max_bits")):
                result[key] = value
            else:
                result[key] = value / passes
        result["cli.import_s"] = import_s
        result["trace.overhead_frac"] = overhead
        return result

    def write(self, path, context: dict, origin: float, limit: int) -> int:
        """Write the context record, then up to ``limit`` spans, as JSON
        lines; times are seconds since ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"context": context}) + "\n")
            for sid, (name, start, end, parent, op) in enumerate(
                    self.spans[:limit]):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent,
                    "op": op}) + "\n")
        return min(limit, len(self.spans))


def loglog_slope(points) -> float:
    """Least-squares slope of log(seconds) against log(bits)."""
    pts = [(math.log(b), math.log(s)) for b, s in points if b > 0 and s > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx
