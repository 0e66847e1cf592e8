"""Lint gate: engine code must reach hot kernels through the dispatch layer.

Every hot kernel with a choice of implementation (window popcounts, the
fused GRNG block, im2col, col2im, the max-pool forward/backward, the
posterior's GC stage and the wire's float codec) sits behind the backend
registry in :mod:`repro.core.backend`; the kernels with one implementation
(LFSR block stepping, CLT standardisation, per-sample matmul) are plain
functions there that count their calls under the same names.  That only
stays true if nothing quietly re-imports the raw implementations, so this
test walks the AST of every module under ``src/repro`` and fails the build
when engine code:

* imports or references the raw LFSR block kernels
  (``fill_lfsr_sequence`` / ``run_lfsr_block_packed``)
  from :mod:`repro.core.bitops` -- those are the reference oracle's home and
  may only be touched by ``core/bitops.py`` itself and ``core/backend.py``;
* imports private (``_``-prefixed) names from :mod:`repro.core.backend` --
  backends are selected through the registry, never by grabbing an
  implementation function directly;
* imports :mod:`repro.core.native` (the compiled-kernel loader) from anywhere
  but ``core/backend.py`` -- the C kernels are backends behind the
  conformance gate, not a library engine code may call.

A text ratchet keeps retired state out of ``src/``: the generator's register
is its whole state (no bit-sum register beside it, no last popcount out of
the kernel, no snapshot record around it) and a forward pass announces no
block schedule, so no source file may name ``sum_register(s)``, ``_sums``,
``last_pc``, ``prefetch_forward`` or ``LfsrSnapshot`` again.

A final runtime check asserts that the public wrappers really do route
through the registry or the counted functions (the per-kernel call counters
move when they run), so a future refactor cannot silently reintroduce an
inline implementation while keeping the imports clean.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import repro.core.backend as backend
from repro.core import GrngBank
from repro.nn import functional as F

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only modules allowed to touch the raw bitops kernels: the module that
#: defines them and the registry that wraps them as the reference oracle.
ALLOWED_RAW_CALLERS = {
    SRC_ROOT / "core" / "bitops.py",
    SRC_ROOT / "core" / "backend.py",
}

#: Raw kernel entry points in repro.core.bitops.  ``window_popcounts``,
#: ``clt_standardise``, ``sample_matmul``, the conv data-movement kernels
#: (``im2col``, ``col2im``, ``maxpool2d_*``), ``posterior_gc`` and the
#: ``json_*_f64`` codec have no raw bitops spelling -- their implementations
#: live inside core/backend.py -- so forbidding these two names (plus private
#: backend imports) covers every hot kernel.
FORBIDDEN_BITOPS_NAMES = {
    "fill_lfsr_sequence",
    "run_lfsr_block_packed",
}

#: The only module allowed to import the compiled-kernel loader.
ALLOWED_NATIVE_IMPORTERS = {SRC_ROOT / "core" / "backend.py"}

#: The dispatch points, each with its ``reference`` oracle.
EXPECTED_KERNELS = {
    "window_popcounts",
    "grng_block",
    "im2col",
    "col2im",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "posterior_gc",
    "json_dumps_f64",
    "json_loads_f64",
    "fused_sample_matmul",
}

#: The plain functions of the kernels with one implementation, counted under
#: their names like a dispatched call.
COUNTED_FUNCTIONS = {"lfsr_step_block", "clt_standardise", "sample_matmul"}


def _module_is(module: str | None, suffix: str) -> bool:
    """True when an import's module path names ``repro.core.<suffix>``.

    Handles both absolute (``repro.core.bitops``) and relative
    (``from .bitops import ...`` / ``from ..core.bitops import ...``)
    spellings; relative imports arrive with ``node.module`` already stripped
    of the leading dots.
    """
    if module is None:
        return False
    return module == suffix or module.endswith("." + suffix)


def _imports_native(node: ast.AST) -> bool:
    """``import repro.core.native`` / ``from .native import x`` / ``from . import native``."""
    if isinstance(node, ast.Import):
        return any(_module_is(alias.name, "native") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return _module_is(node.module, "native") or (
            (node.module is None or _module_is(node.module, "core"))
            and any(alias.name == "native" for alias in node.names)
        )
    return False


def _violations_in(path: Path, tree: ast.Module) -> list[str]:
    found: list[str] = []
    rel = path.relative_to(SRC_ROOT.parent)
    native_allowed = path in ALLOWED_NATIVE_IMPORTERS
    for node in ast.walk(tree):
        if not native_allowed and _imports_native(node):
            found.append(
                f"{rel}:{node.lineno}: imports repro.core.native -- the "
                "compiled kernels are reachable only through their dispatch "
                "points"
            )
        if isinstance(node, ast.ImportFrom):
            if _module_is(node.module, "bitops"):
                for alias in node.names:
                    if alias.name in FORBIDDEN_BITOPS_NAMES or alias.name == "*":
                        found.append(
                            f"{rel}:{node.lineno}: imports raw kernel "
                            f"{alias.name!r} from bitops -- call it through "
                            "repro.core.backend.dispatch instead"
                        )
            if _module_is(node.module, "backend"):
                for alias in node.names:
                    if alias.name.startswith("_") or alias.name == "*":
                        found.append(
                            f"{rel}:{node.lineno}: imports private name "
                            f"{alias.name!r} from repro.core.backend -- use "
                            "the registry API, not implementation functions"
                        )
        elif isinstance(node, ast.Attribute):
            # catches `bitops.run_lfsr_block_packed(...)` via a module alias; the
            # kernel names are unique to bitops so attr matching is exact
            if node.attr in FORBIDDEN_BITOPS_NAMES:
                found.append(
                    f"{rel}:{node.lineno}: references raw kernel "
                    f"{node.attr!r} -- call it through "
                    "repro.core.backend.dispatch instead"
                )
    return found


def test_no_direct_raw_kernel_calls_in_engine_code():
    violations: list[str] = []
    checked = 0
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path in ALLOWED_RAW_CALLERS:
            continue
        checked += 1
        tree = ast.parse(path.read_text(), filename=str(path))
        violations.extend(_violations_in(path, tree))
    assert checked > 20, "lint walked suspiciously few modules -- wrong root?"
    assert not violations, "\n".join(violations)


RETIRED_NAMES = re.compile(
    r"\b(sum_registers?|_sums|last_pc|prefetch_forward|LfsrSnapshot)\b"
)


def test_src_names_no_retired_generator_state():
    hits = [
        f"{path.relative_to(SRC_ROOT)}:{lineno}: {line.strip()}"
        for path in sorted(SRC_ROOT.rglob("*"))
        if path.suffix in (".py", ".c")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if RETIRED_NAMES.search(line)
    ]
    assert not hits, "\n".join(hits)



@pytest.mark.parametrize(
    "name",
    ["sum_register", "sum_registers", "_sums", "last_pc", "prefetch_forward", "LfsrSnapshot"],
)
def test_the_ratchet_flags_each_retired_name(name):
    assert RETIRED_NAMES.search(f"bank.{name}(rows)")  # a Python use
    assert RETIRED_NAMES.search(f"    uint32_t *{name},")  # a C parameter
    assert not RETIRED_NAMES.search(f"{name}_total = {name}x")  # longer names pass

def test_registry_covers_all_hot_kernels():
    assert set(backend.kernel_names()) == EXPECTED_KERNELS
    for kernel in EXPECTED_KERNELS:
        names = backend.registry.backend_names(kernel)
        assert "reference" in names, f"{kernel} lost its reference oracle"


def _total_calls(kernel: str) -> int:
    return sum(
        counters["calls"]
        for counters in backend.counters_snapshot().get(kernel, {}).values()
    )


def test_public_wrappers_route_through_dispatch():
    """The wrappers engine code calls must move the registry's counters."""
    routed = (EXPECTED_KERNELS - {"fused_sample_matmul"}) | COUNTED_FUNCTIONS
    before = {kernel: _total_calls(kernel) for kernel in routed}

    # grng_block: at 16 bits on its NumPy chain, lfsr_step_block >
    # window_popcounts > clt_standardise, a retrieval after a jump back
    bank = GrngBank(2, n_bits=16)
    bank.epsilon_blocks(8)
    bank.epsilon_blocks_reverse(8)

    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 6, 6))
    cols, _, _ = F.im2col(x, kernel=3, stride=1, padding=0)
    F.col2im(cols, x.shape, kernel=3, stride=1, padding=0)
    pooled, argmax = F.maxpool2d_forward(x, pool=2, stride=2)
    F.maxpool2d_backward(pooled, argmax, x.shape, pool=2, stride=2)
    a = rng.standard_normal((2, 4, 5))
    b = rng.standard_normal((2, 5, 3))
    F.sample_matmul(a, b)

    from repro.bnn.posteriors import GaussianPosterior

    posterior = GaussianPosterior((3, 2), lambda s, r: np.zeros(s), 0.1, "w", rng)
    stack = rng.standard_normal((2, 3, 2))
    posterior.accumulate_sample_gradients(  # posterior_gc
        stack, stack, 0.1, stack, posterior.sigma
    )

    from repro.serve import wire

    text = wire.dumps({"x": rng.standard_normal((2, 3))})  # json_dumps_f64
    wire.loads(text, ("x",))  # json_loads_f64

    for kernel in routed:
        assert _total_calls(kernel) > before[kernel], (
            f"{kernel}: public wrapper did not route through the dispatch "
            "layer (registry counters unchanged)"
        )
