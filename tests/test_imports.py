"""Import hygiene: every name a package module imports is used in that
module or listed in its ``__all__`` (no linter is needed to check this); no
package module imports scipy at module level, so importing the package or
the CLI loads no scipy module; and importing starts no thread."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import vrbound

PACKAGE = Path(vrbound.__file__).parent


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
