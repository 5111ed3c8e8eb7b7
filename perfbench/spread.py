#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --workload grow --seeds 1-10 --seconds 30

Runs ``perfbench/run.py`` once per seed, one after another, from the
current directory (the root of a source checkout), and prints one JSON
object: per metric the median, the quartiles as ``statistics.quantiles(n=4)``
gives them, and the spread (q3 - q1) / median.  With ``--label`` the object
also carries the label, date and commit, as one line of
``perfbench/trajectory.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import git_commit

RUN = Path(__file__).resolve().parent / "run.py"


def seeds_of(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        a, _, b = part.partition("-")
        out += list(range(int(a), int(b or a) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default=None)
    args = parser.parse_args()
    seeds = seeds_of(args.seeds)
    results = [run_once(args.workload, s, args.seconds, args.trace)
               for s in seeds]
    summary = {
        "workload": args.workload, "seeds": seeds, "seconds": args.seconds,
        "correct": all(r["correct"] for r in results),
        "attempted": [r["attempted"] for r in results],
        "failed": [r["failed"] for r in results],
        "metrics": summarize(results),
    }
    if args.label:
        summary = {"label": args.label, "date": time.strftime("%Y-%m-%d"),
                   "commit": git_commit(Path.cwd()), **summary}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
