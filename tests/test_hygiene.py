"""Source hygiene: no unused imports, no library code that only tests call,
and a light import of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "projlog"
TESTS = Path(__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by import statements anywhere in the module, with their line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                names.setdefault(name, node.lineno)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items() if name not in used]


def test_scanner_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os\nimport sys\nfrom math import pi, tau\n\n"
                     "def f(x: 'Path') -> float:\n    return sys.maxsize * pi\n")
    assert unused_imports(probe) == ["probe.py:1 os", "probe.py:3 tau"]


def test_no_unused_imports_in_package():
    # __init__.py imports only to re-export
    found = [hit for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
             for hit in unused_imports(path)]
    assert found == []


def test_no_unused_imports_in_tests():
    assert [hit for path in sorted(TESTS.glob("*.py")) for hit in unused_imports(path)] == []


def _references(node: ast.AST) -> set[str]:
    """Names read and attributes accessed anywhere under node; strings do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreferenced_definitions(package: Path, users: list[Path]) -> list[str]:
    """Top-level functions and classes of the package that nothing else uses.

    A definition counts as used when a top-level statement of a package
    module other than its own definition, or one of the user files, refers
    to its name.  __init__.py only re-exports, so it does not count.
    """
    defined, used = [], set()
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, own))
            used |= _references(stmt) - {own}
    for path in users:
        used |= _references(ast.parse(path.read_text()))
    return [f"{module}:{name}" for module, name in defined if name not in used]


def test_scanner_flags_an_unreferenced_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import helper, orphan, loop, Used\n")
    (pkg / "a.py").write_text(
        "def helper():\n    return 1\n\n"
        "def orphan():\n    return 'helper'\n\n"
        "def loop(k):\n    return loop(k - 1) if k else 0\n\n"
        "class Used:\n    pass\n")
    (pkg / "b.py").write_text("from . import a\n\nVALUE = a.helper()\nNOTE = 'orphan'\n")
    user = tmp_path / "user.py"
    user.write_text("from pkg.a import Used\n\nprint(Used())\n")
    assert unreferenced_definitions(pkg, [user]) == ["a.py:orphan", "a.py:loop"]


def test_no_test_only_code_in_package():
    assert unreferenced_definitions(SRC, sorted(PERFBENCH.glob("*.py"))) == []


def test_package_import_does_not_load_scipy_submodules():
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial"]
    code = ("import sys\nimport projlog, projlog.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
