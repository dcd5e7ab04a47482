"""Import hygiene: every name a package module imports is used in that
module or listed in its ``__all__``, and every private module-level name is
used in its module or imported by another (no linter is needed to check
this); no package module imports scipy at module level, so importing the
package or the CLI loads no scipy module, and none imports scipy.linalg or
scipy.optimize at all, so the analytic commands run on numpy alone; no
module but the array kernels computes log(2 pi), and some caller in the
package passes every optional parameter of a kernel; the divergence runs
one eigensolver, in its generalized eigenproblem; and importing starts no
thread.
The tape keeps its core and the array kernels, each of which a module of
the package runs, and the generic operations live in the tests' reference
module, which keeps only what a test uses."""

import ast
import json
import math
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


def _uncalled_exports(module: str, sources: dict[str, str]) -> list[str]:
    """The names in the ``__all__`` of ``module``, a path of ``sources``
    (path -> source), that no other module there uses: by ``from ..module
    import name``, or as an attribute of the name that ``from .. import
    module as alias`` binds."""
    stem = Path(module).stem
    exported = []
    for node in ast.parse(sources[module]).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported += ast.literal_eval(node.value)
    used = set()
    for path, source in sources.items():
        if path == module:
            continue
        tree = ast.parse(source)
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == stem:
                    used.update(alias.name for alias in node.names)
                aliases.update(alias.asname or stem for alias in node.names if alias.name == stem)
        used.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        )
    return [name for name in exported if name not in used]


def _unpassed_options(module: str, sources: dict[str, str]) -> list[str]:
    """``name: parameter`` for each parameter with a default of each function
    in the ``__all__`` of ``module``, a path of ``sources`` (path -> source),
    that no call there passes, by position, by keyword or through ``*`` or
    ``**``. A call is ``name(...)`` in ``module`` or after ``from ..module
    import name``, or ``alias.name(...)`` after ``from .. import module as
    alias``."""
    stem = Path(module).stem
    tree = ast.parse(sources[module])
    exported = [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for name in ast.literal_eval(node.value)
    ]
    options = {}  # name -> [(position or None, parameter)]
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            args = node.args
            positional = args.posonlyargs + args.args
            options[node.name] = [
                (i, arg.arg) for i, arg in enumerate(positional)
                if i >= len(positional) - len(args.defaults)
            ] + [
                (None, arg.arg)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
    passed = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        names = {name: name for name in options} if path == module else {}
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").split(".")[-1] == stem:
                    names.update({alias.asname or alias.name: alias.name for alias in node.names})
                aliases.update(alias.asname or stem for alias in node.names if alias.name == stem)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = names.get(func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                name = func.attr if func.value.id in aliases else None
            else:
                name = None
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {keyword.arg for keyword in node.keywords}
            for position, parameter in options.get(name, []):
                if (
                    starred or None in keywords or parameter in keywords
                    or (position is not None and position < len(node.args))
                ):
                    passed.add((name, parameter))
    return [
        f"{name}: {parameter}"
        for name, found in options.items()
        for _, parameter in found
        if (name, parameter) not in passed
    ]


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


def _scipy_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) of each import of scipy or a scipy module, at any
    level; ``from scipy import linalg`` imports scipy.linalg."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "scipy":
            names = [f"scipy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        found += [
            (node.lineno, name) for name in names if name == "scipy" or name.startswith("scipy.")
        ]
    return found


# log(2 pi) and half of it, as float literals
_LOG_2PI_LITERALS = (math.log(2.0 * math.pi), 0.5 * math.log(2.0 * math.pi))


def _log_2pi_lines(source: str) -> list[int]:
    """Lines that compute log(2 pi): a call of a function named ``log``
    (``math.log``, ``np.log``, a bare ``log``) whose arguments name ``pi``,
    or a float literal within 1e-9 of log(2 pi) or of half of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            names = {
                n.attr if isinstance(n, ast.Attribute) else n.id
                for arg in node.args
                for n in ast.walk(arg)
                if isinstance(n, (ast.Attribute, ast.Name))
            }
            if name == "log" and "pi" in names:
                lines.append(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            if any(math.isclose(node.value, c, rel_tol=1e-9) for c in _LOG_2PI_LITERALS):
                lines.append(node.lineno)
    return sorted(lines)


def _eigensolves_outside(source: str, owner: str) -> list[int]:
    """Lines of the calls of an eigensolver (a function named ``eig``,
    ``eigh``, ``eigvals`` or ``eigvalsh``, bare or as an attribute such as
    ``np.linalg.eigh``) outside the function named ``owner``."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name == owner
        for node in ast.walk(func)
    }
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("eig", "eigh", "eigvals", "eigvalsh"):
                lines.append(node.lineno)
    return sorted(lines)


def _under(module: str, packages: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in packages)


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


def test_every_array_kernel_has_a_caller_in_the_package():
    # a kernel that no model or trainer runs is dead code, whatever the
    # tests run it for
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert _uncalled_exports("autodiff.py", sources) == []


def test_every_kernel_option_is_passed_in_the_package():
    # an optional parameter of a kernel that no caller in the package passes
    # is a path that only the tests run
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text() for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert _unpassed_options("autodiff.py", sources) == []


def test_log_2pi_is_written_in_the_array_kernels_alone():
    # every Gaussian log density of the package is the standard normal's of
    # its whitened residuals, ``autodiff.std_normal_logpdf_rows``
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "autodiff.py"
        for line in _log_2pi_lines(path.read_text())
    ]
    assert found == []


def test_the_divergence_solves_one_eigenproblem():
    # every order of renyi_gaussian, +-inf included, takes its eigenpairs
    # from the generalized eigenproblem of the two covariances
    source = (PACKAGE / "divergence.py").read_text()
    assert _eigensolves_outside(source, "_generalized_eigh") == []


def test_no_module_imports_scipy_at_module_level():
    # scipy's packages take most of a second to import; each function that
    # needs one imports it, so a command loads only what it runs
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _module_level_scipy_imports(path.read_text())
    ]
    assert found == []


def test_no_module_imports_scipy_linalg_or_optimize():
    # the generalized eigenproblem and the mean-field fits run on numpy.linalg
    found = [
        f"{path.relative_to(PACKAGE)}:{line} {module}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, module in _scipy_imports(path.read_text())
        if _under(module, ("scipy.linalg", "scipy.optimize"))
    ]
    assert found == []


def test_the_analytic_commands_load_no_scipy_package(tmp_path):
    # each command in a fresh interpreter; bare scipy is loaded for the
    # version that the manifest records
    configs = {
        "divergence": {
            "p": {"mean": [0.0, 0.0], "variances": [1.0, 1.5]},
            "q": {"mean": [0.5, -0.3], "cov": [[1.0, 0.3], [0.3, 1.2]]},
            "alphas": ["-inf", 0.5, 1, 2, "inf"],
        },
        "bias-sim": {
            "p": {"mean": [0.0], "variances": [1.0]},
            "q": {"mean": [1.0], "variances": [2.0]},
            "alphas": [0.5, 1, 2],
            "ks": [1, 5],
            "repeats": 4,
        },
        "blr-demo": {
            "fit_alphas": [1, 0.5, 0, 2, "inf"],
            "sigma_grid": {"lo": 0.5, "hi": 1.0, "points": 2},
        },
    }
    packages = ("scipy.linalg", "scipy.optimize", "scipy.special", "scipy.sparse")
    env = os.environ | {"PYTHONPATH": str(PACKAGE.parent)}
    for kind, section in configs.items():
        config = tmp_path / f"{kind}.json"
        config.write_text(json.dumps({kind.replace("-", "_"): section}))
        code = (
            "import sys\n"
            "from vrbound.cli import main\n"
            f"code = main([{kind!r}, '--config', {str(config)!r}, "
            f"'--output-dir', {str(tmp_path / kind)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        exit_code, loaded = proc.stdout.split(" ", 1)
        assert exit_code == "0", (kind, proc.stderr)
        assert "'scipy'" in loaded, kind
        assert [m for m in ast.literal_eval(loaded) if _under(m, packages)] == [], kind


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


def test_the_check_sees_uncalled_exports():
    sources = {
        "kernels.py": (
            "__all__ = ['imported', 'called', 'aliased', 'dead', 'self_only']\n"
            "def self_only(): return dead()\n"
        ),
        "models/a.py": "from ..kernels import imported\nfrom .. import kernels as k\nk.called()\n",
        "models/b.py": "from .. import kernels\nkernels.aliased\nother.dead()\n",
    }
    assert _uncalled_exports("kernels.py", sources) == ["dead", "self_only"]


def test_the_check_sees_unpassed_options():
    sources = {
        "kernels.py": (
            "__all__ = ['rows', 'both', 'starred', 'kw', 'spread']\n"
            "def rows(x, out=None, work=None): return x\n"
            "def both(x, out=None): return x\n"
            "def starred(x, out=None): return x\n"
            "def kw(x, *, out=None, scale=1.0, need): return rows(x, None)\n"
            "def spread(x, out=None): return x\n"
            "def _private(x, out=None): return x\n"
        ),
        "models/a.py": (
            "from .. import kernels as k\nk.both(1, out=2)\nk.starred(*args)\n"
            "k.spread(1, **options)\n"
        ),
        "models/b.py": "from ..kernels import kw as f\nf(1, scale=2.0)\nother.rows(1, 2, 3)\n",
    }
    assert _unpassed_options("kernels.py", sources) == ["rows: work", "kw: out"]


def test_the_check_sees_log_2pi():
    source = (
        "import math\nimport numpy as np\nfrom math import log, pi\n"
        "A = math.log(2.0 * math.pi)\n"
        "B = -0.5 * d * np.log(2 * np.pi * s2)\n"
        "C = log(pi + pi)\n"
        "D = 1.8378770664093453\n"
        "E = 0.9189385332046727\n"
        "theta = np.linspace(0.0, 2.0 * math.pi, 5)\n"
        "F = math.log(2.0) + math.exp(pi)\n"
        "G = 1.8378\n"
    )
    assert _log_2pi_lines(source) == [4, 5, 6, 7, 8]


def test_the_check_sees_eigensolves_outside_their_owner():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "def _generalized_eigh(a, b):\n"
        "    def inner(c):\n"
        "        return np.linalg.eigh(c)\n"
        "    return np.linalg.eigh(a), inner(b)\n"
        "def sup_ratio(a):\n"
        "    return np.linalg.eigh(a)\n"
        "SPECTRUM = eigvalsh(np.eye(2))\n"
        "solver = np.linalg.eig\n"
        "class Fit:\n"
        "    def spread(self, a):\n"
        "        return numpy.linalg.eigvals(a), self.eigenvalues(a)\n"
    )
    assert _eigensolves_outside(source, "_generalized_eigh") == [8, 9, 13]


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


def test_the_check_sees_scipy_imports_at_any_level():
    source = (
        "import scipy, numpy.linalg\n"
        "from scipy import linalg, stats\n"
        "from .scipy import optimize\n"
        "class Fit:\n"
        "    def solve(self):\n"
        "        from scipy.optimize import minimize\n"
        "        import scipy.linalg as sl\n"
    )
    assert _scipy_imports(source) == [
        (1, "scipy"),
        (2, "scipy.linalg"),
        (2, "scipy.stats"),
        (6, "scipy.optimize"),
        (7, "scipy.linalg"),
    ]


def test_importing_loads_no_scipy_module():
    # only the quadrature oracle, a reference, loads a scipy package
    # (scipy.stats); the version recorded in manifests imports bare scipy
    # only when a manifest is written
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
    # the tape, its generic operations and the operators of Node build the
    # reference graphs of the tests (reference.py); the library keeps the
    # array kernels and the layout of a written-out VJP's gradients
    from vrbound import autodiff

    kept = {"gradients"}
    kernels = {
        "layer",
        "layer_grad",
        "normal_logpdf_rows",
        "normal_rows_vjp",
        "std_normal_logpdf_rows",
        "bernoulli_layer",
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
    assert {"Node", "fused", "backward", "value"}.isdisjoint(vars(autodiff))


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
