"""Every top-level import of a package module is used in that module, every
module-level private name is used somewhere in the package, every public
function or method is read somewhere in the package or named, with its
reader, in READ_OUTSIDE_SRC, every target of the benchmark tracer
resolves, importing the package leaves out the heavy scipy subpackages
it never needs, and a periodic run loads no scipy at all."""

import ast
import importlib.util
import os
import subprocess
import sys
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


def _read_names(trees) -> set:
    """Names loaded, or read as attributes, anywhere in the parsed modules."""
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def unused_private_names(sources: dict) -> list[str]:
    """Module-level `_name` definitions that no module of `sources` reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = _read_names(trees.values())
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


# public functions and methods that no module of the package reads, each
# with the reader outside src/ that keeps it
READ_OUTSIDE_SRC = {
    "corrugation.CorrugationTable.identity_residual": "acceptance criterion 1",
    "decomposition.PrimitiveFrame.reconstruct": "acceptance criterion 3",
    "decomposition.build_frame": "acceptance criterion 3 and bench/tracer.py TARGETS",
    "induction.rho_recursion_audit": "acceptance criteria 8 and 10, bench clamped_skeleton",
    "io.import_mesh": "the mesh read-back of tests/test_io.py",
    "io.weld_vertices": "the mesh read-back of tests/test_io.py",
    "io.edge_face_counts": "the mesh read-back of tests/test_io.py",
    "grid.ImmersionField.displaced": "the tests",
    "grid.check_short": "bench/tracer.py TARGETS and tests/test_grid.py",
    "grid.ImmersionField.min_singular_value": "bench/tracer.py TARGETS",
}


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def unread_public_names(sources: dict) -> list[str]:
    """`module.name` of public functions and methods that no module of
    `sources` reads (by name or as an attribute)."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    read = _read_names(trees.values())
    return [f"{module.removesuffix('.py')}.{qual}"
            for module, tree in trees.items()
            for qual, name in _public_definitions(tree) if name not in read]


def test_public_checker_flags_unread_name():
    src = "def f(): pass\ndef g(): pass\nclass C:\n    def m(self): pass\n" \
          "    def n(self): pass\n    def _p(self): pass\ng()\nC().n()\n"
    assert unread_public_names({"m.py": src}) == ["m.f", "m.C.m"]


def test_every_public_name_has_a_reader():
    assert sorted(unread_public_names(PACKAGE)) == sorted(READ_OUTSIDE_SRC)


TRACER = SRC.parents[1] / "bench" / "tracer.py"


def _bound(module, qual):
    """What module.qual names in the namespace that defines it, or None."""
    *path, attr = qual.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part, None)
    return getattr(owner, "__dict__", {}).get(attr)


def test_every_tracer_target_resolves():
    # the benchmark tracer wraps its TARGETS by name where each is defined
    # (Tracer.install reads owner.__dict__), so a renamed or removed
    # function breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    unresolved = [
        f"{layer}.{qual}" for layer, qual, _ in tracer.TARGETS
        if not callable(_bound(importlib.import_module(f"{tracer.PACKAGE}.{layer}"), qual))]
    assert unresolved == []


# imported by no module of the package: scipy.signal, which pulls in
# scipy.stats, costs about 1 s of import and 48 MB of resident memory in
# every process that loads it (2-core x86-64, scipy 1.17)
UNLOADED = ("scipy.signal", "scipy.stats")


def _fresh_modules(code: str) -> list[str]:
    """The modules loaded by code, run after importing every module of the
    package in a fresh interpreter: the test run itself has imported scipy."""
    names = ", ".join(f"isoflex.{p.stem}" for p in MODULES)
    code = f"import sys\nimport {names}\n{code}\nprint(' '.join(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_package_import_leaves_out_heavy_scipy():
    assert [m for m in _fresh_modules("") if m in UNLOADED] == []


# one add_metric_2d on a 64^2 flat torus, with rho nonzero on the whole
# chart, so the support check needs no distance transform
PERIODIC_RUN = """\
import numpy as np
from isoflex.corrugation import build_corrugation
from isoflex.grid import PERIODIC, GridChart, ImmersionField, MetricField, ScalarField
from isoflex.nash_step import add_metric_2d
c = GridChart((1.0, 1.0), (64, 64), PERIODIC)
out = add_metric_2d(ImmersionField.flat(c, scale=0.9), ScalarField.constant(c, 0.2),
                    MetricField.constant(c, np.eye(2)), MetricField.constant(c, np.zeros((2, 2))),
                    delta=0.05, lam=4.0, kappa=1.5, table=build_corrugation())
assert out.support_ok and len(out.meta["steps"]) == 2
"""

CLAMPED_MOLLIFY = """\
from isoflex.grid import CLAMPED, GridChart, ScalarField, mollify
mollify(ScalarField.constant(GridChart((1.0, 1.0), (64, 64), CLAMPED), 1.0), 0.1)
"""


def test_periodic_run_loads_no_scipy():
    # FFTs on the torus are numpy's and the corrugation's J0 is its own
    # series; scipy enters only through the clamped mollifier and the
    # support inflation of a step whose support leaves part of the chart
    loaded = _fresh_modules(PERIODIC_RUN)
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_clamped_mollify_loads_scipy_fft():
    assert "scipy.fft" in _fresh_modules(CLAMPED_MOLLIFY)
