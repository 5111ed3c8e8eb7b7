#!/usr/bin/env python3
"""Run the mutant catalogue of the kernel and of the integer text writer
against the tests that must kill it.

    python3 scripts/mutants.py

Each mutant is one exact edit of a file under ``src/`` (old text, new
text) plus the ids of the tests that must fail on it.  For each mutant,
``src/`` is copied to a temporary directory and the edit is made there.
The named tests then run in one ``python -m pytest -x -q`` child that
imports the package from the copy.  Mutants run one at a time, and one
JSON line per mutant goes to stdout: its id, its status and its seconds.
The status is ``killed`` when a named test fails and ``survived`` when all
of them pass.  It is ``stale`` when the old text does not occur exactly
once, so a change that rewrites a kernel must update its mutants too.  The
exit code is 1 on a survivor or a stale mutant, else 0.

The method is mutation testing: R. DeMillo, R. Lipton and F. Sayward,
"Hints on Test Data Selection" (IEEE Computer 1978); Y. Jia and M. Harman,
"An Analysis and Survey of the Development of Mutation Testing" (IEEE TSE
2011).
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: one exact edit of ``src/<file>`` and the test ids that must kill it
Mutant = namedtuple("Mutant", "id file old new tests")

SEQCORE = "ultraseq/seqcore.py"
KERNEL = "tests/test_kernel.py::"
TEXT = "tests/test_text_layer.py::"
CLI = "tests/test_cli.py::"

MUTANTS = (
    # _successors: the one branch point left among the head forms
    Mutant("successors-flat-without-period", SEQCORE,
           "P, pre, T = sides[0]\n        PT = P + T\n"
           "        flat = P == 1 and PT == -1",
           "P, pre, T = sides[0]\n        PT = P + T\n"
           "        flat = PT == -1",
           (KERNEL + "TestHeadForm::test_o_successors",)),
    Mutant("successors-flat-sign-of-iT", SEQCORE,
           "append(prefix[i - 1] - i * T)", "append(prefix[i - 1] + i * T)",
           (KERNEL + "TestOneTailReader",)),
    Mutant("successors-flat-for-a-head-in-the-tail", SEQCORE,
           "elif flat and p >= lo:", "elif flat:",
           (KERNEL + "TestHeadForm::test_o_successors",)),
    Mutant("successors-no-flat-form", SEQCORE,
           "elif flat and p >= lo:", "elif False:",
           (KERNEL + "TestDivisions::test_verify_O_range",)),
    Mutant("successors-head-form-sign-of-pre", SEQCORE,
           "append(Q * PT + prefix[i] + (R - q * T - pre[r]))",
           "append(Q * PT + prefix[i] + (R - q * T + pre[r]))",
           (KERNEL + "TestHeadForm::test_both_forms_at_every_residue",)),
    # _successors: the one wholly-in-a-tail form, shared by both sides
    Mutant("successors-tail-wrap-without-total", SEQCORE,
           "spre[r - R + SP] - ST))", "spre[r - R + SP]))",
           (KERNEL + "TestTailForm::test_o_successors",)),
    Mutant("successors-right-offset-off-by-one", SEQCORE,
           "(sides[1], i - n)", "(sides[1], i - n - 1)",
           (KERNEL + "TestTailForm::test_o_successors",)),
    # extend_right_by_O: the two run loops
    Mutant("extend-flat-without-period", SEQCORE,
           "left._prefix[-1]\n        PT = P + T\n"
           "        flat = P == 1 and PT == -1",
           "left._prefix[-1]\n        PT = P + T\n"
           "        flat = PT == -1",
           (KERNEL + "TestHeadForm::test_extend_right_by_O",)),
    Mutant("extend-periodic-run-qP", SEQCORE,
           "head = Q * PT + total + (R - q * T - pre[r])",
           "head = Q * PT + total + (R - q * P - pre[r])",
           (KERNEL + "TestHeadForm::test_both_forms_at_every_residue",)),
    Mutant("extend-flat-run-prefix-at-i", SEQCORE,
           "head = prefix[i - 1] - i * T", "head = prefix[i] - i * T",
           (KERNEL + "TestExtendKernel::test_pi_and_composite_seeds",)),
    Mutant("extend-no-flat-run", SEQCORE,
           "if flat:  # from the sum before the head",
           "if False:  # from the sum before the head",
           (KERNEL + "TestDivisions::test_extend_right_by_O",)),
    # _one_period: the period in phase with the range's start
    Mutant("one-period-phase", SEQCORE,
           "a = w.lo + (a - w.lo) % q", "a = w.lo + a % q",
           (KERNEL + "TestSuccessor::"
            "test_range_on_rows_and_periodic_windows",)),
    # int_rows: the one writer of integer text
    Mutant("int-rows-columns-in-reversed-slots", SEQCORE,
           "cells[k::width] = column", "cells[width - 1 - k::width] = column",
           (TEXT + "test_int_rows_is_each_old_writer",)),
    Mutant("int-rows-columns-not-truncated", SEQCORE,
           "column if len(column) == n else column[:n]", "column",
           (TEXT + "test_int_rows_is_the_zipped_writer",)),
    Mutant("int-rows-head-percent-undoubled", SEQCORE,
           'head.replace("%", "%%")', "head",
           (TEXT + "test_int_rows_is_the_zipped_writer",)),
    Mutant("int-rows-tail-percent-undoubled", SEQCORE,
           'tail.replace("%", "%%")', "tail",
           (TEXT + "test_int_rows_is_the_zipped_writer",)),
    Mutant("int-rows-call-per-row", SEQCORE,
           "= column if len(column) == n",
           "= list(map(lambda c: c, column)) if len(column) == n",
           (CLI + "TestCommandFlatCalls::"
            "test_calls_do_not_grow_with_the_rows",)),
    Mutant("int-rows-no-rows-without-a-shortcut", SEQCORE,
           "if not n:\n        return head + tail",
           "if False:\n        return head + tail",
           (TEXT + "test_no_rows_are_head_and_tail_in_one_call",)),
)


def run(mutant: Mutant) -> dict:
    """The mutant's JSON record: ``src/`` copied, the edit made in the
    copy, and its tests run against it in one pytest child, which also
    works in the copy's directory, so its caches stay there."""
    start = time.perf_counter()
    text = (ROOT / "src" / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        status = "stale"
    else:
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", copy,
                            ignore=shutil.ignore_patterns("__pycache__"))
            (copy / mutant.file).write_text(
                text.replace(mutant.old, mutant.new), encoding="utf-8")
            env = {**os.environ, "PYTHONPATH": str(copy),
                   "PYTHONDONTWRITEBYTECODE": "1"}
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q",
                 "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                 *(str(ROOT / t) for t in mutant.tests)],
                cwd=tmp, env=env, capture_output=True, timeout=600)
            # 1: a test failed; any other code (a collection error, no
            # tests named) counts as survived, so a typo shows
            status = "killed" if proc.returncode == 1 else "survived"
    return {"id": mutant.id, "status": status,
            "seconds": round(time.perf_counter() - start, 2)}


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        record = run(mutant)
        print(json.dumps(record), flush=True)
        bad += record["status"] != "killed"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
