"""The package holds no dead code: each module uses every name it imports,
every module-level private function, class or constant is read by some
module of the package, and every public one by some module of the
project.  ``from __future__`` imports and the re-exports of ``__init__.py``
are exempt."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ultraseq"
#: the directories whose modules may read a public name of the package
READERS = ("src", "tests", "scripts", "perfbench")


def read_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unused_imports(source: str) -> list[str]:
    """The names the imports of ``source`` bind that it never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = read_names(tree)
    return [name for name in bound if name not in read]


def target_names(target: ast.expr) -> list[str]:
    """The names an assignment target binds, unpacked ones included."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return [n for t in target.elts for n in target_names(t)]
    if isinstance(target, ast.Starred):
        return target_names(target.value)
    return [target.id] if isinstance(target, ast.Name) else []


def definitions(source: str) -> list[str]:
    """The module-level functions, classes and constants of ``source``,
    dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [n for t in node.targets for n in target_names(t)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("__")]


def private_definitions(source: str) -> list[str]:
    """The definitions of ``source`` whose names start with one
    underscore."""
    return [n for n in definitions(source) if n.startswith("_")]


def dead_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each private definition that no module of
    ``sources`` reads."""
    read = set().union(*(read_names(ast.parse(s)) for s in sources.values()))
    return [(module, name) for module, source in sources.items()
            for name in private_definitions(source) if name not in read]


def project_reads(tree: ast.AST, reexport: bool = False) -> set[str]:
    """The names a module of the project reads: those ``read_names`` sees,
    the names it imports ``from`` a module, unless it only re-exports them,
    and the strings of a ``TARGETS`` table, which name the functions the
    benchmark's tracer wraps."""
    names = read_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not reexport:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets)):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str))
    return names


def dead_public_definitions(sources: dict[str, str],
                            reads: set[str]) -> list[tuple[str, str]]:
    """(module, name) for each public definition of ``sources`` that is not
    in ``reads``."""
    return [(module, name) for module, source in sources.items()
            for name in definitions(source)
            if not name.startswith("_") and name not in reads]


def package_sources() -> dict[str, str]:
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= 9
    return sources


def test_every_module_uses_what_it_imports():
    for module, source in package_sources().items():
        if module != "__init__.py":
            assert unused_imports(source) == [], module


def test_every_private_definition_is_read_by_some_module():
    assert dead_definitions(package_sources()) == []


def test_every_public_definition_is_read_by_some_module_of_the_project():
    reads = set()
    for directory in READERS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            reads |= project_reads(ast.parse(path.read_text(encoding="utf-8")),
                                   reexport=path == PACKAGE / "__init__.py")
    assert dead_public_definitions(package_sources(), reads) == []


def test_the_checks_see_dead_imports_and_helpers():
    source = ("from __future__ import annotations\n"
              "import os, os.path, json as js\nfrom .x import a, b as c\n"
              "_LIMIT = 3\n_ANNOTATED: int = 4\n__version__ = '1'\n"
              "def _used(): return a\ndef _dead(): return _LIMIT\n"
              "class _Dead: pass\n"
              "def public(): return _used() + os.getcwd()\n")
    assert unused_imports(source) == ["js", "c"]
    assert dead_definitions({"m.py": source}) == [
        ("m.py", "_ANNOTATED"), ("m.py", "_dead"), ("m.py", "_Dead")]
    other = "from .m import _dead\ndef f(m): return _dead() + m._Dead\n"
    assert dead_definitions({"m.py": source, "o.py": other}) == [
        ("m.py", "_ANNOTATED")]


def test_the_checks_see_unread_templates():
    """A ``%`` template is a private constant like any other, however it is
    bound: alone, unpacked, or as a table of them."""
    source = ('_ROW = "%d,%d\\n"\n_HEAD, (_SEP, *_TAIL) = "[", (",", "]")\n'
              '_ROWS = {"ok": "%d,ok\\n"}\n_USED = "%d"\n'
              'def write(cells): return _USED % cells + _SEP\n')
    assert dead_definitions({"m.py": source}) == [
        ("m.py", "_ROW"), ("m.py", "_HEAD"), ("m.py", "_TAIL"),
        ("m.py", "_ROWS")]


def test_the_checks_see_unread_public_names():
    """A public name counts as read by a load, an attribute, a ``from``
    import outside the re-exports, or a ``TARGETS`` string."""
    source = ("LIMIT = 3\nTOTAL: int = 4\nA, (B, C) = 1, (2, 3)\n"
              "__all__ = ['LIMIT']\ndef used(): return LIMIT\n"
              "def traced(): pass\ndef imported(): pass\n"
              "def reexported(): pass\nclass Dead: pass\n"
              "def _private(): pass\n")
    other = ("from .m import imported\nTARGETS = {'m': ('traced',)}\n"
             "def f(m): return m.B + used()\n")
    init = "from .m import reexported, C\n"
    reads = (project_reads(ast.parse(source)) | project_reads(ast.parse(other))
             | project_reads(ast.parse(init), reexport=True))
    assert dead_public_definitions({"m.py": source}, reads) == [
        ("m.py", "TOTAL"), ("m.py", "A"), ("m.py", "C"),
        ("m.py", "reexported"), ("m.py", "Dead")]
