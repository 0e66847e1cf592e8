"""Lint gate: the test oracle stays independent of the code it checks.

``tests/oracle`` models the GRNG from scratch so that a bug shared by the
packed kernels and their NumPy reference cannot cancel out.  That only holds
while no oracle module imports ``repro`` -- not at module level, not inside a
function, not through ``importlib`` -- and while the suites use the oracle
rather than keeping private copies of it.  A fresh-process import confirms
the runtime agrees: loading the oracle loads no ``repro`` module.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import oracle

TESTS_ROOT = Path(__file__).resolve().parents[1]
ORACLE_ROOT = TESTS_ROOT / "oracle"


def _imported_names(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, dotted module)`` of every import in ``tree``, relative ones
    as ``"."``-prefixed names."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
        elif (
            isinstance(node, ast.Call)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
            and (
                (isinstance(node.func, ast.Attribute) and node.func.attr == "import_module")
                or (isinstance(node.func, ast.Name) and node.func.id == "__import__")
            )
        ):
            found.append((node.lineno, node.args[0].value))
    return found


def test_the_oracle_has_modules():
    assert sorted(path.name for path in ORACLE_ROOT.glob("*.py")) == [
        "__init__.py", "grng.py", "lfsr.py",
    ]


def test_no_oracle_module_imports_repro():
    offenders = []
    for path in sorted(ORACLE_ROOT.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, name in _imported_names(tree):
            # relative imports may only reach sibling oracle modules
            if name.split(".")[0] == "repro" or name.startswith(".."):
                offenders.append(f"{path.name}:{line} imports {name}")
    assert not offenders, "the oracle must not import the product:\n" + "\n".join(offenders)


def test_importing_the_oracle_loads_no_repro_module():
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import oracle; "
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'repro'); "
        "print(loaded); sys.exit(1 if loaded else 0)"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(TESTS_ROOT)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_no_suite_keeps_a_copy_of_the_oracle():
    names = set(oracle.__all__)
    copies = []
    for path in sorted(TESTS_ROOT.rglob("*.py")):
        if ORACLE_ROOT in path.parents:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names:
                copies.append(f"{path.relative_to(TESTS_ROOT)}:{node.lineno} {node.name}")
    assert not copies, "import these from tests/oracle instead:\n" + "\n".join(copies)
