"""Lint gate: engine code must reach hot kernels through the dispatch layer.

PR 6 moved every hot kernel (LFSR block stepping, window popcounts, CLT
standardisation, per-sample matmul, im2col -- since joined by col2im, the
max-pool forward/backward and the posterior's GC stage) behind the backend
registry in
:mod:`repro.core.backend`.  The refactor only stays done if nothing quietly
re-imports the raw implementations, so this test walks the AST of every
module under ``src/repro`` and fails the build when engine code:

* imports or references the raw LFSR block kernels
  (``fill_lfsr_sequence`` / ``run_lfsr_block`` / ``run_lfsr_block_packed``)
  from :mod:`repro.core.bitops` -- those are the reference oracle's home and
  may only be touched by ``core/bitops.py`` itself and ``core/backend.py``;
* imports private (``_``-prefixed) names from :mod:`repro.core.backend` --
  backends are selected through the registry, never by grabbing an
  implementation function directly;
* imports :mod:`repro.core.native` (the compiled-kernel loader) from anywhere
  but ``core/backend.py`` -- the C kernels are backends behind the
  conformance gate, not a library engine code may call.

A final runtime check asserts that the public wrappers really do route
through the registry (the per-kernel call counters move when they run), so a
future refactor cannot silently reintroduce an inline implementation while
keeping the imports clean.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

import repro.core.backend as backend
from repro.core import GrngBank, LfsrArray
from repro.nn import functional as F

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

#: The only modules allowed to touch the raw bitops kernels: the module that
#: defines them and the registry that wraps them as the reference oracle.
ALLOWED_RAW_CALLERS = {
    SRC_ROOT / "core" / "bitops.py",
    SRC_ROOT / "core" / "backend.py",
}

#: Raw kernel entry points in repro.core.bitops.  ``window_popcounts`` /
#: ``sample_matmul``, the conv data-movement kernels (``im2col``,
#: ``col2im``, ``maxpool2d_*``) and ``posterior_gc`` have no raw bitops
#: spelling -- their only non-dispatch implementations live inside
#: core/backend.py -- so forbidding
#: these three names (plus private backend imports) covers every hot kernel.
FORBIDDEN_BITOPS_NAMES = {
    "fill_lfsr_sequence",
    "run_lfsr_block",
    "run_lfsr_block_packed",
}

#: The only module allowed to import the compiled-kernel loader.
ALLOWED_NATIVE_IMPORTERS = {SRC_ROOT / "core" / "backend.py"}

EXPECTED_KERNELS = {
    "lfsr_step_block",
    "window_popcounts",
    "clt_standardise",
    "grng_block",
    "sample_matmul",
    "im2col",
    "col2im",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "posterior_gc",
}


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
            # catches `bitops.run_lfsr_block(...)` via a module alias; the
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


def test_registry_covers_all_hot_kernels():
    assert EXPECTED_KERNELS <= set(backend.kernel_names())
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
    before = {kernel: _total_calls(kernel) for kernel in EXPECTED_KERNELS}

    array = LfsrArray.from_seed_indices(16, [0, 1])
    array.window_popcounts(32, stride=1)  # drives lfsr_step_block too
    GrngBank(2, n_bits=16).epsilon_blocks(8)  # grng_block

    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3, 6, 6))
    cols, _, _ = F.im2col(x, kernel=3, stride=1, padding=0)
    F.col2im(cols, x.shape, kernel=3, stride=1, padding=0)
    pooled, argmax = F.maxpool2d_forward(x, pool=2, stride=2)
    F.maxpool2d_backward(pooled, argmax, x.shape, pool=2, stride=2)
    a = rng.standard_normal((2, 4, 5))
    b = rng.standard_normal((2, 5, 3))
    F.sample_matmul(a, b)

    from repro.core import LfsrGaussianRNG

    LfsrGaussianRNG(16, seed_index=3).epsilon_block(8)  # clt_standardise

    from repro.bnn.posteriors import GaussianPosterior

    posterior = GaussianPosterior((3, 2), lambda s, r: np.zeros(s), 0.1, "w", rng)
    stack = rng.standard_normal((2, 3, 2))
    posterior.accumulate_sample_gradients(  # posterior_gc
        stack, stack, 0.1, stack, posterior.sigma
    )

    for kernel in EXPECTED_KERNELS:
        assert _total_calls(kernel) > before[kernel], (
            f"{kernel}: public wrapper did not route through the dispatch "
            "layer (registry counters unchanged)"
        )
