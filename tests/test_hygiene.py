"""Source hygiene: no unused imports, and a light import of the package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "projlog"


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


def test_package_import_does_not_load_scipy_submodules():
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial"]
    code = ("import sys\nimport projlog, projlog.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
