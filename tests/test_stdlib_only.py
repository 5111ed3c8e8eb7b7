"""The package imports nothing outside the standard library and itself."""
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ultraseq"


def outside_imports(source: str) -> list[str]:
    """The modules ``source`` imports that are neither in the standard
    library nor relative to its own package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names
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
