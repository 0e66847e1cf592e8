"""Per-kernel microbenchmarks of the backend dispatch layer (PR 6).

Every hot kernel behind :mod:`repro.core.backend` is timed once per
registered backend on one representative hot-path workload, plus an ``auto``
case that exercises the default selection chain.  All backends of a kernel
are bit-identical by the conformance gate, so these cases measure *only*
wall-clock -- the acceptance criterion (evaluated by
``benchmarks/emit_results.py --tag kernels``) is that the auto-selected
backend is at least as fast as the reference oracle within noise.

Backends that are unavailable in this environment (e.g. the compiled
``native`` kernels without a C compiler) self-skip; workloads
are chosen inside every remaining backend's support domain so a forced
selection can never silently fall back to the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.backend as backend
from repro.core import MAXIMAL_TAPS, normalise_taps

ROWS = 16
N_BITS = 256
STEP_COUNT = 1 << 14
POPCOUNT_COUNT = 1 << 16  # bits per row; stride 256 -> 256 variables/row
CLT_SIZE = 1 << 20
MATMUL_SHAPE = (8, 192, 192)
IM2COL_SHAPE = (8, 16, 28, 28)

_OFFSETS = normalise_taps(N_BITS, MAXIMAL_TAPS[N_BITS])


def _state_words() -> np.ndarray:
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 64, size=(ROWS, N_BITS // 64), dtype=np.uint64)
    words[:, 0] |= np.uint64(1)  # never the all-zero register
    return words


def _workload(kernel: str):
    """Build ``(args, kwargs)`` for one representative hot-path call."""
    rng = np.random.default_rng(11)
    if kernel == "lfsr_step_block":
        return (_state_words(), N_BITS, STEP_COUNT, _OFFSETS, False), {}
    if kernel == "window_popcounts":
        seq_words, _ = backend.registry.call(
            "lfsr_step_block", _state_words(), N_BITS, POPCOUNT_COUNT, _OFFSETS, False
        )
        # stride 256 keeps the workload inside packed_bitcount's domain
        return (seq_words, N_BITS, POPCOUNT_COUNT, N_BITS), {}
    if kernel == "clt_standardise":
        popcounts = rng.integers(96, 161, size=CLT_SIZE, dtype=np.int64)
        return (popcounts, 128.0, 8.0), {}
    if kernel == "grng_block":
        # the paper's GRNG (256 shifts per value), inside native's domain
        count = POPCOUNT_COUNT // N_BITS
        out = np.empty((ROWS, count), dtype=np.float64)
        return (
            _state_words(), N_BITS, _OFFSETS, N_BITS, count, False, 128.0, 8.0, out
        ), {}
    if kernel == "sample_matmul":
        s, m, k = MATMUL_SHAPE
        a = rng.standard_normal((s, m, k))
        b = rng.standard_normal((s, k, m))
        out = np.empty((s, m, m), dtype=np.float64)
        return (a, b, out), {}
    if kernel == "im2col":
        x = rng.standard_normal(IM2COL_SHAPE)
        return (x, 3, 1, 0), {}
    if kernel in ("col2im", "maxpool2d_forward", "maxpool2d_backward"):
        # channels-last storage, as the training step carries it
        x = np.ascontiguousarray(
            np.maximum(rng.standard_normal(IM2COL_SHAPE), 0.0).transpose(0, 2, 3, 1)
        ).transpose(0, 3, 1, 2)
        if kernel == "col2im":
            cols, _, _ = backend.registry.call("im2col", x, 3, 1, 1)
            return (cols, IM2COL_SHAPE, 3, 1, 1), {}
        if kernel == "maxpool2d_forward":
            return (x, 2, 2), {}
        pooled, argmax = backend.registry.call("maxpool2d_forward", x, 2, 2)
        return (pooled, argmax, IM2COL_SHAPE, 2, 2), {}
    if kernel == "fused_sample_matmul":
        # a pooled serving tile: 4 requests of 16 rows each, MLP-sized layer
        s, k, n = 8, 196, 128
        splits = (16, 16, 16, 16)
        a = rng.standard_normal((s, sum(splits), k))
        b = rng.standard_normal((s, k, n))
        out = np.empty((s, sum(splits), n), dtype=np.float64)
        return (a, b, out, splits), {}
    if kernel == "fused_im2col":
        x = rng.standard_normal(IM2COL_SHAPE)
        return (x, 3, 1, 0, (2, 2, 2, 2)), {}
    if kernel == "posterior_gc":
        # the reduced B-MLP's first layer at S = 8; accumulates in place
        shape = (196, 64)
        stacks = [rng.standard_normal((8, *shape)) for _ in range(3)]
        sigma = np.logaddexp(0.0, rng.standard_normal(shape))
        sigmoid_rho = rng.random(shape)
        grads = np.zeros(shape), np.zeros(shape)
        return (*stacks[:2], stacks[2], 1e-3, sigma, sigmoid_rho, True, *grads), {}
    # serve_http_closed's wire: the (S, rows, classes) response tensor out,
    # the 16-row B-MLP request batch in
    if kernel == "json_dumps_f64":
        return (rng.random((8, 16, 10)),), {}
    if kernel == "json_loads_f64":
        text = backend.registry.call("json_dumps_f64", rng.standard_normal((16, 196)))
        return (b'{"x": ' + text + b"}", 6), {}
    raise AssertionError(f"no benchmark workload defined for kernel {kernel!r}")


def _cases() -> list:
    cases = []
    for kernel in sorted(backend.kernel_names()):
        for name in ("auto", *backend.registry.backend_names(kernel)):
            cases.append(pytest.param(kernel, name, id=f"{kernel}-{name}"))
    return cases


@pytest.mark.parametrize(("kernel", "which"), _cases())
def test_bench_kernel(benchmark, kernel: str, which: str):
    if which != "auto":
        info = next(
            entry
            for entry in backend.list_backends()
            if entry["kernel"] == kernel
        )
        impl = next(b for b in info["backends"] if b["name"] == which)
        if not impl["available"]:
            pytest.skip(f"backend {kernel}/{which} unavailable here")
        # force the gate now so its one-off cost never lands inside a round
        backend.verify_backend(kernel, which)
    args, kwargs = _workload(kernel)
    benchmark.extra_info["kernel"] = kernel
    benchmark.extra_info["backend"] = which

    if which == "auto":
        result = benchmark(lambda: backend.registry.call(kernel, *args, **kwargs))
    else:
        with backend.using(kernel, which):
            result = benchmark(lambda: backend.registry.call(kernel, *args, **kwargs))
    assert result is not None
