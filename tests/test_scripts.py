"""The scripts under ``scripts/`` run against the library as it stands."""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("growth_report.py", []),
    # values past float range, printed exactly
    ("growth_report.py", ["--base", "1500", "--rmax", "2"]),
    ("reproduce_tables.py", []),
], ids=["growth_report.py", "growth_report.py --base 1500",
        "reproduce_tables.py"])
def test_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def mutants_module():
    """``scripts/mutants.py``, imported as a module."""
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_mutant_is_killed():
    # one fast mutant of the wholly-in-a-tail form, run by the script's own
    # function: its test fails on the first example
    mutants = mutants_module()
    (mutant,) = [m for m in mutants.MUTANTS
                 if m.id == "successors-tail-wrap-without-total"]
    assert mutants.run(mutant)["status"] == "killed"


def test_old_text_that_does_not_occur_once_is_stale():
    mutants = mutants_module()
    for old in ("no such text", "return"):
        mutant = mutants.Mutant("stale", "ultraseq/seqcore.py", old, "",
                                ("tests/test_scripts.py",))
        assert mutants.run(mutant)["status"] == "stale"
