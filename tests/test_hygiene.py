"""Source hygiene: no unused imports, no library code that only tests call,
no class member that only tests use, no defaulted parameter that no call
sets, no row reduction outside geometry, no sampler stream that no draw
uses, no chart field built outside psh_lift, no det H_phi taken outside
_cell_dets, no kernel quad form evaluated outside analytic, no scalar
argument check outside geometry's validators, no import of scipy's
integrators or solvers, and a light import of the package."""

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


def _trees(paths: list[Path]):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def unused_members(package: Path, users: list[Path]) -> list[str]:
    """Methods and properties of the package's top-level classes that no
    package module and no user file accesses as an attribute.  Dunder
    methods are called implicitly, so they do not count."""
    members, accessed = [], set()
    for path, tree in _trees(sorted(package.glob("*.py")) + users):
        accessed |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if path.parent != package:
            continue
        members += [(path.name, cls.name, item.name) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for item in cls.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    return [f"{module}:{cls}.{name}" for module, cls, name in members if name not in accessed]


def test_scanner_flags_a_test_only_member(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "class Thing:\n"
        "    def __eq__(self, other):\n        return True\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def used(self):\n        return self.size\n\n"
        "    def orphan(self):\n        return 'used'\n")
    user = tmp_path / "user.py"
    user.write_text("from pkg.a import Thing\n\nprint(Thing().used())\n")
    assert unused_members(pkg, [user]) == ["a.py:Thing.orphan"]


def test_no_test_only_members_in_package():
    assert unused_members(SRC, sorted(PERFBENCH.glob("*.py"))) == []


def _defaulted(fn: ast.FunctionDef, method: bool) -> list[tuple[int | None, str]]:
    """(position a bound call passes it at, or None if keyword-only, name) of
    each parameter of fn that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if method and "staticmethod" not in {getattr(d, "id", None)
                                                  for d in fn.decorator_list} else 0
    first = len(positional) - len(fn.args.defaults)
    out = [(i - skip, arg.arg) for i, arg in enumerate(positional) if i >= first]
    return out + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs,
                                                          fn.args.kw_defaults) if default]


def unset_defaults(package: Path, callers: list[Path]) -> list[str]:
    """Defaulted parameters of the package's functions and methods that no
    call in the callers passes, by keyword or by position.

    Calls are matched to definitions by name.  A function that appears as a
    value (a table entry, a chunk worker handed to the executor) rather than
    as the callee of a call counts as passing every parameter, and so does a
    call with *args (positional) or **kwargs (all).
    """
    defaults = []
    for path, tree in _trees(sorted(package.glob("*.py"))):
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body}
        defaults += [(path.name, fn.name, pos, name) for fn in ast.walk(tree)
                     if isinstance(fn, ast.FunctionDef)
                     for pos, name in _defaulted(fn, id(fn) in methods)]
    passed, values = set(), set()
    for _, tree in _trees(callers):
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        callees = {id(call.func) for call in calls}
        values |= {getattr(node, "id", None) or node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees}
        for call in calls:
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed |= {(callee, kw.arg or "**") for kw in call.keywords}
            passed |= {(callee, "*" if isinstance(arg, ast.Starred) else pos)
                       for pos, arg in enumerate(call.args)}

    def is_set(fn, pos, name):
        keys = {(fn, "**"), (fn, name)} | ({(fn, "*"), (fn, pos)} if pos is not None else set())
        return fn in values or bool(keys & passed)

    return [f"{module}:{fn}({name})" for module, fn, pos, name in defaults
            if not is_set(fn, pos, name)]


def test_scanner_flags_an_unset_default(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def f(x, tol=1.0, cap=2, *, mode='a', seed=0):\n    return x\n\n"
        "def worker(payload, rng=None):\n    return payload\n\n"
        "def spread(x, y=0):\n    return x\n\n"
        "class K:\n"
        "    def m(self, x, scale=1.0, shift=0.0):\n        return x\n\n"
        "    @staticmethod\n    def s(x, scale=1.0):\n        return x\n")
    user = tmp_path / "user.py"
    user.write_text("from pkg.a import K, f, spread, worker\n\n"
                    "f(1, 2, seed=3)\nTABLE = [worker]\nspread(*[1, 2])\n"
                    "K().m(1, 2)\nK.s(1)\n")
    assert unset_defaults(pkg, [user]) == ["a.py:f(cap)", "a.py:f(mode)", "a.py:m(shift)",
                                           "a.py:s(scale)"]


def test_every_default_is_set_by_some_call():
    callers = sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")) \
        + sorted(TESTS.glob("*.py"))
    assert unset_defaults(SRC, callers) == []


def _is_int(node: ast.AST) -> bool:
    try:
        return type(ast.literal_eval(node)) is int
    except ValueError:
        return False


def _squares(node: ast.AST) -> bool:
    return any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
               and ast.unparse(n.right) == "2" for n in ast.walk(node))


def row_reductions(path: Path) -> list[str]:
    """np.linalg.norm calls with an integer axis, and np.sum calls whose
    first argument squares (** 2): sums over the coordinates of a row, which
    belong to geometry's row_sum, abs_sq_sum and row_norm."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = ast.unparse(node.func)
        axes = node.args[2:3] + [kw.value for kw in node.keywords if kw.arg == "axis"]
        if name == "np.linalg.norm" and any(map(_is_int, axes)) \
                or name == "np.sum" and node.args and _squares(node.args[0]):
            hits.append(f"{path.name}:{node.lineno} {name}")
    return hits


def test_scanner_flags_a_row_reduction(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\n\n"
                     "a = np.linalg.norm(x, axis=1)\n"
                     "b = np.linalg.norm(x, None, -1)\n"
                     "c = np.sum(x.real ** 2 + x.imag ** 2, axis=1)\n"
                     "d = np.linalg.norm(h, axis=(1, 2)) + np.linalg.norm(x)\n"
                     "e = np.sum(w * x ** (-alpha), axis=1) + np.sum(x ** 3) + np.sum(x)\n")
    assert row_reductions(probe) == ["probe.py:3 np.linalg.norm", "probe.py:4 np.linalg.norm",
                                     "probe.py:5 np.sum"]


def test_no_row_reductions_outside_geometry():
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "geometry.py"
            for hit in row_reductions(path)] == []


def calls_outside(path: Path, callee: str, owner: str | None = None) -> list[str]:
    """Lines of the module at path that call `callee`, by name or as an
    attribute, outside the function `owner` (anywhere, for no owner)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == owner
              for node in ast.walk(fn)}
    return [f"{path.name}:{line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in inside
        and ast.unparse(node.func).split(".")[-1] == callee)]


def field_constructions(path: Path) -> list[str]:
    """PotentialField(...) calls outside psh_lift: psh_lift(mu, chart, eps)
    is the one route from a measure to its chart field."""
    return calls_outside(path, "PotentialField", "psh_lift")


def test_scanner_flags_a_field_built_outside_psh_lift(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from pkg import potentials\n\n"
                     "def psh_lift(mu, chart):\n    return PotentialField(chart, mu)\n\n"
                     "def affine_field(atoms):\n"
                     "    return potentials.PotentialField(atoms.chart, atoms)\n\n"
                     "ORIGIN = PotentialField(0, None)\nKIND = PotentialField\n")
    assert field_constructions(probe) == ["probe.py:7", "probe.py:9"]


def test_no_field_built_outside_psh_lift():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in field_constructions(path)] == []


def test_scanner_flags_a_det_outside_cell_dets(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from pkg import monge_ampere\n\n"
                     "def _cell_dets(lift, Z):\n    return _ma_det(lift, Z)[0]\n\n"
                     "def density(lift, Z):\n    return _ma_det(lift, Z)[0]\n\n"
                     "DET = monge_ampere._ma_det(None, None)\nKIND = _ma_det\n")
    assert calls_outside(probe, "_ma_det", "_cell_dets") == ["probe.py:7", "probe.py:9"]


def test_det_h_phi_is_taken_only_in_cell_dets():
    # _cell_dets owns the tiles and the guards of every det H_phi
    assert [hit for path in sorted(SRC.glob("*.py"))
            for hit in calls_outside(path, "_ma_det", "_cell_dets")] == []


def test_scanner_flags_a_quad_form_outside_analytic(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from pkg import analytic\n\n"
                     "def hessians(Z, atoms):\n"
                     "    return analytic.quad_form_batch(Z, atoms, 0, 0.0, 0.0)\n\n"
                     "FORM = analytic.quad_form_batch\n")
    assert calls_outside(probe, "quad_form_batch") == ["probe.py:4"]


def test_quad_forms_are_evaluated_only_in_analytic():
    # every kernel derivative outside analytic goes through its field functions
    assert [hit for path in sorted(SRC.glob("*.py")) if path.name != "analytic.py"
            for hit in calls_outside(path, "quad_form_batch")] == []


def unused_streams(package: Path) -> list[str]:
    """Members of geometry's Stream enum that no module of the package names
    as Stream.<member>: a sampler stream that no draw reads."""
    trees = _trees(sorted(package.glob("*.py")))
    members = [target.id for path, tree in trees if path.name == "geometry.py"
               for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Stream"
               for item in cls.body if isinstance(item, ast.Assign) for target in item.targets]
    named = {node.attr for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "Stream"}
    return [member for member in members if member not in named]


def test_scanner_flags_an_unused_stream(tmp_path):
    (tmp_path / "geometry.py").write_text(
        "from enum import IntEnum\n\n\nclass Stream(IntEnum):\n"
        "    \"\"\"Streams.\"\"\"\n\n    A = 0\n    B = 1\n\n\n"
        "def draw(stream=Stream.A):\n    return stream\n")
    assert unused_streams(tmp_path) == ["B"]
    (tmp_path / "user.py").write_text("from geometry import Stream, draw\n\ndraw(Stream.B)\n")
    assert unused_streams(tmp_path) == []


def test_every_sampler_stream_is_drawn():
    assert unused_streams(SRC) == []


def validator_bypasses(package: Path) -> list[str]:
    """Functions named _check_* anywhere in the package, and the name _is_int
    (read, imported or defined) outside geometry: every scalar argument goes
    through geometry's check_int and check_real."""
    hits = []
    for path, tree in _trees(sorted(package.glob("*.py"))):
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_check_"):
                hits.append((path.name, node.lineno, node.name))
            elif path.name != "geometry.py" and "_is_int" in {
                    getattr(node, key, None) for key in ("id", "attr", "name")}:
                hits.append((path.name, node.lineno, "_is_int"))
    return [f"{module}:{line} {name}" for module, line, name in sorted(hits)]


def test_scanner_flags_a_private_argument_check(tmp_path):
    (tmp_path / "geometry.py").write_text(
        "def _is_int(x):\n    return type(x) is int\n\n"
        "def check_int(x):\n    return _is_int(x)\n\n"
        "def _check_chart(k):\n    return check_int(k)\n")
    (tmp_path / "a.py").write_text(
        "from .geometry import _is_int, check_int\n\n"
        "def _check_eps(eps):\n    return _is_int(eps)\n\n"
        "def scan(samples):\n    return check_int(samples)\n")
    (tmp_path / "b.py").write_text("from . import geometry\n\nOK = geometry._is_int(1)\n")
    assert validator_bypasses(tmp_path) == ["a.py:1 _is_int", "a.py:3 _check_eps",
                                            "a.py:4 _is_int", "b.py:3 _is_int",
                                            "geometry.py:7 _check_chart"]


def test_scalar_arguments_are_checked_only_by_geometry_validators():
    assert validator_bypasses(SRC) == []


def test_package_import_does_not_load_scipy_submodules(tmp_path):
    # the radial constants, the Sobolev bound and the constants table neither
    # integrate nor solve with scipy: scipy.integrate pulls in scipy.optimize,
    # and the two cost a fresh interpreter a few tenths of a second to load
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.spatial"]
    code = ("import sys\nimport projlog, projlog.cli\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
            "projlog.mean_log_kernel(2), projlog.sobolev_bound(2, 3.0)\n"
            f"args = ['constants', '--n', '3', '--output', {str(tmp_path)!r}]\n"
            "assert projlog.cli.main(args) == 0\n"
            f"print([m for m in {heavy[:2]!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split() == ["[]", "[]"]


def scipy_solver_imports(path: Path) -> list[str]:
    """Imports of scipy.integrate or scipy.optimize, or of a name from
    either, in any import form."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.startswith(("scipy.integrate", "scipy.optimize")) for name in names):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_scanner_flags_a_scipy_solver_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import scipy.integrate\nfrom scipy import optimize, special\n"
                     "from scipy.integrate import quad\nimport numpy, scipy.optimize as opt\n"
                     "from scipy.special import ndtr\nimport scipy\nfrom . import integrate\n"
                     "from .optimize import fit\n")
    assert scipy_solver_imports(probe) == ["probe.py:1", "probe.py:2", "probe.py:3",
                                           "probe.py:4"]


def test_package_imports_neither_scipy_integrate_nor_optimize():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in scipy_solver_imports(path)] == []
