"""The package holds no dead code: each module uses every name it imports,
and every module-level private function, class or constant is read by some
module of the package.  ``from __future__`` imports and the re-exports of
``__init__.py`` are exempt."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ultraseq"


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


def private_definitions(source: str) -> list[str]:
    """The module-level functions, classes and constants of ``source`` whose
    names start with one underscore."""
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
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def dead_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) for each private definition that no module of
    ``sources`` reads."""
    read = set().union(*(read_names(ast.parse(s)) for s in sources.values()))
    return [(module, name) for module, source in sources.items()
            for name in private_definitions(source) if name not in read]


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
