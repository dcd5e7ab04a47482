"""Import hygiene: every name a package module imports is used in that
module or listed in its ``__all__`` (no linter is needed to check this), and
the CLI imports nothing that only the reference implementations use, and
importing starts no thread."""

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


def test_every_import_is_used_or_exported():
    unused = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _unused_imports(path.read_text())
    ]
    assert unused == []


def test_the_check_sees_unused_and_exported_names():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\n__all__ = ['tau']\nnp.e\n"
    assert _unused_imports(source) == ["os", "pi"]


def test_the_cli_does_not_import_scipy_stats():
    # scipy.stats takes most of a second to import; only the quadrature
    # oracle, a reference for tests, uses it
    code = "import sys, vrbound.cli; print('scipy.stats' in sys.modules)"
    env = os.environ | {"PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "False"


def test_importing_starts_no_thread():
    # log_weight_matrix's workers live for one call; none exists before it
    code = "import threading, vrbound, vrbound.cli; print(threading.active_count())"
    env = os.environ | {"PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert proc.stdout.strip() == "1"
