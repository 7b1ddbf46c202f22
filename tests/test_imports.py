"""Every top-level import of a package module is used in that module, and
every module-level private name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "isoflex"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_unused_name():
    assert unused_imports("import os\nimport sys\nprint(sys.argv)\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def unused_private_names(sources: dict) -> list[str]:
    """Module-level `_name` definitions that no module of `sources` reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [f"{module} line {line}: {name}"
            for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in read]


def test_private_checker_flags_unused_name():
    src = "def _a(): pass\nclass _B: pass\n_C = 1\n_D: int = 2\nprint(_C)\n"
    assert unused_private_names({"m.py": src}) == [
        "m.py line 1: _a", "m.py line 2: _B", "m.py line 4: _D"]
    # a read in another module, by name or as an attribute, counts
    assert unused_private_names({"a.py": "def _f(): pass\n_G = 0\n",
                                 "b.py": "from .a import _f\n_f()\nimport a\na._G\n"}) == []


def test_no_unused_private_name():
    assert unused_private_names(PACKAGE) == []
