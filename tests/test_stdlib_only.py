"""The package imports nothing outside the standard library and itself,
and starts without the standard library's code-generating modules."""
import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ultraseq"


def absolute_imports(source: str) -> list[str]:
    """The modules ``source`` imports, other than relative ones."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def outside_imports(source: str) -> list[str]:
    """The modules ``source`` imports that are neither in the standard
    library nor relative to its own package."""
    return [n for n in absolute_imports(source)
            if n.partition(".")[0] not in sys.stdlib_module_names]


def test_every_module_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 9
    for path in sources:
        assert outside_imports(path.read_text(encoding="utf-8")) == [], path


def test_the_check_sees_every_kind_of_import():
    source = ("import os, numpy.linalg\nfrom . import seqcore\n"
              "from .errors import OutOfDomain\nfrom ultraseq import cli\n"
              "def f():\n    import hypothesis\n")
    assert outside_imports(source) == ["numpy.linalg", "ultraseq",
                                       "hypothesis"]


#: modules that generate code or pull in the compiler's own tooling; none
#: of them is imported when the package starts
SLOW_TO_IMPORT = ("dataclasses", "typing", "inspect", "ast", "dis")


def slow_imports(source: str) -> list[str]:
    """The imports of ``dataclasses`` or ``typing`` in ``source``."""
    return [n for n in absolute_imports(source)
            if n.partition(".")[0] in ("dataclasses", "typing")]


def test_no_module_imports_dataclasses_or_typing():
    for path in sorted(PACKAGE.glob("*.py")):
        assert slow_imports(path.read_text(encoding="utf-8")) == [], path


def test_the_scan_sees_both_modules():
    source = ("import os, typing\nfrom dataclasses import dataclass\n"
              "from .typing import x\ndef f():\n    import dataclasses\n")
    assert slow_imports(source) == ["typing", "dataclasses", "dataclasses"]


def test_the_command_line_starts_without_them():
    # -S: no site packages, whose start-up hooks may import them
    code = ("import sys, ultraseq.cli\n"
            f"print([m for m in {SLOW_TO_IMPORT!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def collector_imports(source: str) -> list[str]:
    """The imports of ``gc`` in ``source``."""
    return [n for n in absolute_imports(source) if n == "gc"]


def test_no_module_drives_the_collector():
    # the benchmark's peak memory follows how often the collector runs: a
    # package that collected or moved the thresholds would read better
    # without using less
    for path in sorted(PACKAGE.glob("*.py")):
        assert collector_imports(path.read_text(encoding="utf-8")) == [], path


def test_the_collector_scan_sees_an_import_in_a_function():
    source = ("import os\nfrom .gc import x\n"
              "def f():\n    import gc\n    gc.collect()\n")
    assert collector_imports(source) == ["gc"]
