"""Lint gate: the package layer map of ``docs/architecture.md`` holds.

``repro.serve`` (inference) and ``repro.distrib`` (training) are sibling
layers: both build on the engine and both report through ``repro.obs``, but
neither may import the other.  ``repro.obs`` is a leaf: it imports no other
``repro`` package, so either plane can use it without dragging the other in.

The check walks the AST of every module under those three packages --
imports inside functions (lazy imports) and ``importlib.import_module`` /
``__import__`` calls with a literal name included -- resolves relative
imports against the module's own package, and fails on any import that
crosses the map.  Fresh-process checks confirm the runtime agrees: the
package root loads its subpackages lazily, so importing one plane leaves the
other (and ``multiprocessing``) unloaded.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The ``repro`` subpackages (directories with an ``__init__.py``).
SUBPACKAGES = frozenset(
    path.parent.name for path in SRC_ROOT.glob("*/__init__.py")
)

#: package -> the ``repro`` packages it may not import (``"repro"`` is the
#: root package itself, which reaches every subpackage).
FORBIDDEN = {
    "serve": {"distrib"},
    "distrib": {"serve"},
    "obs": (SUBPACKAGES | {"repro"}) - {"obs"},
}


def _package_of(path: Path) -> list[str]:
    """Dotted package of a module file, e.g. ``["repro", "serve"]``."""
    parts = ["repro", *path.relative_to(SRC_ROOT).with_suffix("").parts]
    return parts[:-1]  # drop the module name (``__init__`` included)


def _top_of(dotted: str) -> str | None:
    """The ``repro`` package a dotted name lands in (``None``: not repro)."""
    parts = dotted.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) > 1 and parts[1] in SUBPACKAGES:
        return parts[1]
    return "repro"


def imported_packages(path: Path, tree: ast.AST) -> list[tuple[int, str]]:
    """Every ``(line, repro package)`` the module at ``path`` imports."""
    package = _package_of(path)
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        targets: list[str] = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            # `from .. import distrib` names a package, not an attribute
            targets = [
                f"{module}.{alias.name}" if alias.name in SUBPACKAGES else module
                for alias in node.names
            ]
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if (
                name in ("import_module", "__import__")
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                targets = [node.args[0].value]
        for target in dict.fromkeys(targets):
            top = _top_of(target)
            if top is not None:
                found.append((node.lineno, top))
    return found


def _violations(package: str) -> list[str]:
    forbidden = FORBIDDEN[package]
    found = []
    modules = sorted((SRC_ROOT / package).rglob("*.py"))
    assert modules, f"no modules found under repro.{package}"
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, top in imported_packages(path, tree):
            if top in forbidden:
                rel = path.relative_to(SRC_ROOT.parent)
                found.append(f"{rel}:{line}: repro.{package} imports {top}")
    return found


@pytest.mark.parametrize("package", sorted(FORBIDDEN))
def test_package_respects_the_layer_map(package):
    violations = _violations(package)
    assert not violations, "layer-map violations:\n" + "\n".join(violations)


@pytest.mark.parametrize(
    "source",
    [
        "from ..distrib.respawn import RespawnPolicy",
        "from .. import distrib",
        "import repro.distrib.coordinator",
        "def lazy():\n    from repro.distrib import DistributedBackend",
        "import importlib\nimportlib.import_module('repro.distrib')",
        "__import__('repro.distrib.worker')",
    ],
    ids=[
        "relative-module",
        "relative-package",
        "absolute",
        "lazy",
        "import_module",
        "dunder-import",
    ],
)
def test_resolver_sees_every_spelling_of_a_cross_import(source):
    """Each spelling of serve -> distrib is resolved (the lint is not vacuous)."""
    path = SRC_ROOT / "serve" / "server.py"
    tops = [top for _, top in imported_packages(path, ast.parse(source))]
    assert tops == ["distrib"]


def test_resolver_keeps_relative_imports_inside_their_package():
    path = SRC_ROOT / "serve" / "__init__.py"
    tree = ast.parse("from .server import PredictionServer\nfrom ..obs import trace")
    assert [top for _, top in imported_packages(path, tree)] == ["serve", "obs"]


@pytest.mark.parametrize(
    "source",
    [
        "from ..serve.server import PredictionServer",
        "from .. import serve",
        "def lazy():\n    import repro.serve.gateway",
    ],
    ids=["relative-module", "relative-package", "lazy"],
)
def test_lint_flags_distrib_importing_serve(source):
    """The map is checked in both directions, not only serve -> distrib."""
    path = SRC_ROOT / "distrib" / "coordinator.py"
    tops = [top for _, top in imported_packages(path, ast.parse(source))]
    assert tops == ["serve"]
    assert set(tops) <= FORBIDDEN["distrib"]


@pytest.mark.parametrize(
    "source, top",
    [
        ("from ..core import backend", "core"),
        ("from .. import serve", "serve"),
        ("import repro", "repro"),
        ("from repro.bnn import mc_predict", "bnn"),
    ],
    ids=["relative-core", "relative-serve", "root-package", "absolute-bnn"],
)
def test_lint_flags_obs_importing_any_repro_package(source, top):
    """obs is a leaf: every other repro package, the root included, is out."""
    path = SRC_ROOT / "obs" / "trace.py"
    tops = [found for _, found in imported_packages(path, ast.parse(source))]
    assert tops == [top]
    assert top in FORBIDDEN["obs"]


def _run_fresh(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_ROOT.parent), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize(
    "package, absent",
    [
        ("repro.serve", ["repro.distrib", "multiprocessing"]),
        ("repro.distrib", ["repro.serve"]),
    ],
)
def test_importing_one_plane_leaves_the_other_unloaded(package, absent):
    probe = f"import sys, {package}; print([m for m in {absent!r} if m in sys.modules])"
    result = _run_fresh("-c", probe)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_client_cli_runs_without_a_runpy_warning():
    """``repro.serve`` must not import ``.client`` before ``-m`` executes it."""
    result = _run_fresh("-W", "error::RuntimeWarning", "-m", "repro.serve.client", "--help")
    assert result.returncode == 0, result.stderr
