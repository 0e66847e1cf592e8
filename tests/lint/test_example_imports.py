"""Lint gate: every name an example imports from ``repro`` exists.

The example scripts are run end to end only by CI's ``examples`` job, so a
deleted or renamed public name would otherwise break them unnoticed by the
tier-1 suite.  This gate parses each ``examples/*.py`` with :mod:`ast` --
executing none of them -- and resolves every ``import repro...`` and
``from repro... import name`` it finds, imports inside functions included:
the module must import, and each name must be an attribute of it or a
submodule under it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))


def _repro_imports(path: Path) -> list[tuple[int, str, str | None]]:
    """``(line, module, name)`` per imported ``repro`` name (``name`` None
    for a plain ``import repro.x``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [
                (node.lineno, alias.name, None)
                for alias in node.names
                if alias.name.split(".")[0] == "repro"
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                found += [(node.lineno, node.module, alias.name) for alias in node.names]
    return found


def _resolves(module: str, name: str | None) -> bool:
    try:
        loaded = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(loaded, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_the_examples_import_from_repro():
    assert EXAMPLES and all(_repro_imports(path) for path in EXAMPLES)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_every_imported_name_resolves(path):
    missing = [
        f"{path.name}:{line} {module}" + (f".{name}" if name else "")
        for line, module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not missing, "examples import names the package no longer has:\n" + "\n".join(missing)
