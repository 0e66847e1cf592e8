"""Lint gate: one module reads and writes archives.

Every ``.npz`` archive the package writes or reads -- parameter archives,
replica archives, training checkpoints -- goes through the one writer and
the one reader in :mod:`repro.bnn.serialization`, which check the manifest's
kind and version and replace files atomically.  This test walks the AST of
every module under ``src/repro`` and fails when any other module reaches
``numpy.savez*`` or ``numpy.load`` (as an attribute of ``np`` / ``numpy`` or
imported from ``numpy``).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one module allowed to touch the archive functions of NumPy.
ARCHIVE_MODULE = SRC_ROOT / "bnn" / "serialization.py"


def _is_archive_call(name: str) -> bool:
    return name == "load" or name.startswith("savez")


def archive_io(tree: ast.AST) -> list[int]:
    """Line numbers that reach ``numpy.savez*`` / ``numpy.load``."""
    lines = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
            and _is_archive_call(node.attr)
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(_is_archive_call(alias.name) for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_serialization_reads_and_writes_archives():
    hits = [
        f"{path.relative_to(SRC_ROOT)}:{lineno}"
        for path in sorted(SRC_ROOT.rglob("*.py"))
        if path != ARCHIVE_MODULE
        for lineno in archive_io(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not hits, "\n".join(hits)


def test_the_gate_sees_every_spelling():
    for source in (
        "np.savez(path, **arrays)",
        "numpy.savez_compressed(path, a=a)",
        "with np.load(path) as archive: pass",
        "from numpy import load",
        "from numpy import savez as write",
    ):
        assert archive_io(ast.parse(source)), source
    assert not archive_io(ast.parse("json.load(file); np.loadtxt(path); np.save"))
    assert archive_io(ast.parse(ARCHIVE_MODULE.read_text()))
