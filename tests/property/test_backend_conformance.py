"""Backend-conformance properties: every backend == the NumPy oracle, always.

The dispatch layer's contract (PR 6) is that backend selection may change
wall-clock time but never bits.  Two layers of evidence:

* ``test_registered_conformance_gate`` runs every registered backend of every
  kernel through the registry's own conformance gate (the fixed case set
  covering dtypes, strides 1 and 256, the leapfrog's level-6 word-alignment
  boundary and degenerate shapes).  Optional backends whose toolchain is
  absent (the ``native`` ones without a C compiler) self-skip -- the
  parametrisation still names them, so a CI log shows exactly which backends
  were exercised where.
* the hypothesis tests below drive each kernel with *randomised* workloads
  (random shapes, dtypes, strides 1 / 64 / 256, random register states) and
  assert the forced backend's output is bit-identical to the reference
  oracle's on the same inputs.  ``sample_matmul`` and ``clt_standardise``
  have only their reference backends, so they have no randomised test;
  ``lfsr_step_block`` has no second
  backend either, so its randomised proof is the independent bit-serial oracle in
  ``test_lfsr_bitserial_oracle.py`` instead; ``im2col``'s reference gather is
  checked against a sliding-window formulation here, and both backends of the
  four conv data-movement kernels against pasted-in oracles in
  ``test_conv_fast_paths.py``.

``window_popcounts`` backends may legitimately return different *integer
dtypes* (int16 / int32 / int64 -- popcounts are exact in all of them), so
that kernel compares int64-promoted values; every float-producing kernel is
compared byte-for-byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backend as backend
from repro.core import MAXIMAL_TAPS, normalise_taps
from repro.core.bitops import pack_int_rows

ALL_BACKENDS = [
    pytest.param(kernel, name, id=f"{kernel}-{name}")
    for kernel in sorted(backend.kernel_names())
    for name in backend.registry.backend_names(kernel)
]


def _skip_unless_available(kernel: str, name: str) -> None:
    info = next(e for e in backend.list_backends() if e["kernel"] == kernel)
    impl = next(b for b in info["backends"] if b["name"] == name)
    if not impl["available"]:
        pytest.skip(f"backend {kernel}/{name} unavailable in this environment")


def _forced(kernel: str, name: str, *args):
    with backend.using(kernel, name):
        return backend.registry.call(kernel, *args)


def _oracle(kernel: str, *args):
    return _forced(kernel, "reference", *args)


@pytest.mark.parametrize(("kernel", "name"), ALL_BACKENDS)
def test_registered_conformance_gate(kernel: str, name: str):
    """The registry's own gate passes for every available backend."""
    _skip_unless_available(kernel, name)
    assert backend.verify_backend(kernel, name)


# ----------------------------------------------------------------------
# randomised cross-backend equality, one test per kernel family
# ----------------------------------------------------------------------
def _backends_for(kernel: str) -> list:
    return [
        pytest.param(name, id=name)
        for name in backend.registry.backend_names(kernel)
        if name != "reference"
    ]


@pytest.mark.parametrize("name", _backends_for("window_popcounts"))
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    width=st.sampled_from([64, 256]),
    rows=st.integers(min_value=1, max_value=3),
    stride=st.sampled_from([1, 64, 256]),
    windows=st.integers(min_value=1, max_value=24),
)
@settings(max_examples=20, deadline=None)
def test_window_popcounts_matches_oracle(name, seed, width, rows, stride, windows):
    _skip_unless_available("window_popcounts", name)
    rng = np.random.default_rng(seed)
    count = stride * windows
    states = [int(rng.integers(1, 1 << 63)) for _ in range(rows)]
    words = pack_int_rows(states, width)
    taps = normalise_taps(width, MAXIMAL_TAPS[width])
    seq_words, _ = _oracle("lfsr_step_block", words, width, count, taps, False)
    got = _forced("window_popcounts", name, seq_words, width, count, stride)
    want = _oracle("window_popcounts", seq_words, width, count, stride)
    # dtype may differ between backends; the counted values may not
    assert np.asarray(got).dtype.kind in "iu"
    assert np.array_equal(
        np.asarray(got, dtype=np.int64), np.asarray(want, dtype=np.int64)
    )


def _im2col_sliding_window(x, kernel, stride, padding):
    """Independent im2col: a zero-copy window view, reshaped once.

    (The retired ``strided_view`` backend: it won on no shape the stack runs,
    so it serves as the reference gather's randomised oracle instead.)
    """
    batch, channels, height, width = x.shape
    out_h = (height + 2 * padding - kernel) // stride + 1
    out_w = (width + 2 * padding - kernel) // stride + 1
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch * out_h * out_w, channels * kernel * kernel
    )
    return cols, out_h, out_w


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batch=st.integers(min_value=0, max_value=3),
    channels=st.integers(min_value=1, max_value=3),
    size=st.integers(min_value=4, max_value=10),
    kernel=st.sampled_from([1, 2, 3]),
    stride=st.sampled_from([1, 2]),
    padding=st.sampled_from([0, 1]),
    dtype=st.sampled_from([np.float64, np.float32]),
)
@settings(max_examples=20, deadline=None)
def test_im2col_matches_sliding_window_oracle(
    seed, batch, channels, size, kernel, stride, padding, dtype
):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, channels, size, size)).astype(dtype)
    got_cols, got_h, got_w = _oracle("im2col", x, kernel, stride, padding)
    want_cols, want_h, want_w = _im2col_sliding_window(x, kernel, stride, padding)
    assert got_cols.flags.c_contiguous  # the layout pin the stability proof needs
    assert (got_h, got_w) == (want_h, want_w)
    assert got_cols.dtype == want_cols.dtype and got_cols.shape == want_cols.shape
    assert np.ascontiguousarray(got_cols).tobytes() == (
        np.ascontiguousarray(want_cols).tobytes()
    )
