"""Import hygiene: every name a package module imports is used in that
module or listed in its ``__all__``, and every private module-level name is
used in its module or imported by another (no linter is needed to check
this); no package module imports scipy at module level, so importing the
package or the CLI loads no scipy module; and importing starts no thread.
The tape keeps its core and the array kernels, and the generic operations
live in the tests' reference module, which keeps only what a test uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import vrbound

PACKAGE = Path(vrbound.__file__).parent
REFERENCE = Path(__file__).with_name("reference.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each module-level ``_name`` (a def, a class or an
    assignment target, dunders aside) of the modules in ``sources`` (module
    name -> source) that its module never loads and no other module
    imports."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imported = {
        alias.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    dead = []
    for module, tree in trees.items():
        defined = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    defined += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
        loaded = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        dead += [
            f"{module}: {name}"
            for name in defined
            if name.startswith("_") and not name.startswith("__")
            and name not in loaded and name not in imported
        ]
    return dead


def _module_level_scipy_imports(source: str) -> list[int]:
    """Lines of the imports of scipy or a scipy package outside any function."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return lines


def test_every_import_is_used_or_exported():
    unused = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_every_private_module_level_name_is_used():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert _dead_private_names(sources) == []


def test_no_module_imports_scipy_at_module_level():
    # scipy's packages take most of a second to import; each function that
    # needs one imports it, so a command loads only what it runs
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _module_level_scipy_imports(path.read_text())
    ]
    assert found == []


def test_the_check_sees_unused_and_exported_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n__all__ = ['tau']\nnp.e\n"
    assert _unused_imports(source) == ["os", "pi"]


def test_the_check_sees_dead_private_names():
    sources = {
        "a.py": (
            "_USED = 1\n_DEAD, (_PAIR, _OTHER) = 2, (3, 4)\n_ANNOTATED: int = 5\n"
            "__dunder__ = 6\n_SHARED = 7\n"
            "def _helper(): return _USED + _OTHER\n"
            "def _unused(): pass\n"
            "class _Kept: pass\n"
            "def public():\n    _local = _helper()\n    return _Kept, _local\n"
        ),
        "b.py": "from .a import _SHARED\n_COPY = _SHARED\n",
    }
    assert _dead_private_names(sources) == [
        "a.py: _DEAD", "a.py: _PAIR", "a.py: _ANNOTATED", "a.py: _unused", "b.py: _COPY"
    ]


def test_the_check_sees_module_level_scipy_imports():
    source = (
        "import scipy\n"
        "from scipy.linalg import eigh\n"
        "import scipyish, numpy.linalg\n"
        "from .scipy import x\n"
        "if eigh:\n"
        "    import scipy.special as sp\n"
        "class Fit:\n"
        "    from scipy.optimize import minimize\n"
        "    def solve(self):\n"
        "        from scipy.linalg import eigh\n"
        "def kl():\n"
        "    from scipy.linalg import eigh\n"
        "    return lambda: eigh\n"
    )
    assert _module_level_scipy_imports(source) == [1, 2, 6, 8]


def test_importing_loads_no_scipy_module():
    # scipy.stats, scipy.special, scipy.linalg and scipy.optimize are what a
    # command loads when it needs them; the version recorded in manifests
    # imports bare scipy only when a manifest is written
    code = (
        "import sys, vrbound, vrbound.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    env = os.environ | {"PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "[]"


def test_importing_starts_no_thread():
    # log_weight_matrix's workers live for one call; none exists before it
    code = "import threading, vrbound, vrbound.cli; print(threading.active_count())"
    env = os.environ | {"PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "1"


def test_the_tape_keeps_its_core_and_the_array_kernels_only():
    # the generic operations, and the operators of Node, build the reference
    # graphs of the tests (reference.py), not the library's log weights
    from vrbound import autodiff

    kept = {"Node", "fused", "backward", "gradients", "value"}
    kernels = {
        "dense",
        "normal_logpdf_rows",
        "normal_rows_vjp",
        "std_normal_logpdf_rows",
        "bernoulli_rows_forward",
        "bernoulli_rows_at_logits",
    }
    assert set(autodiff.__all__) == kept | kernels
    public = {
        name
        for name, value in vars(autodiff).items()
        if callable(value) and not name.startswith("_") and value.__module__ == autodiff.__name__
    }
    assert public == kept | kernels
    arithmetic = {"add", "sub", "mul", "truediv", "matmul"}
    operators = {f"__{r}{op}__" for op in arithmetic for r in ("", "r")} | {"__neg__"}
    assert operators.isdisjoint(vars(autodiff.Node))


def test_every_public_reference_function_is_used_by_a_test():
    tree = ast.parse(REFERENCE.read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    used = set()
    for path in REFERENCE.parent.glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in ("ref", "reference"):
                    used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "reference":
                used.update(alias.name for alias in node.names)
    assert sorted(public - used) == []
