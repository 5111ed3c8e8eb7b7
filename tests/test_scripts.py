"""The scripts under ``scripts/`` run against the library as it stands."""
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
