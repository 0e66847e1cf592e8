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
* ``test_gate_rejects_the_smallest_change_to_any_result`` proves those gates
  strict: each returned value of every available non-reference backend,
  changed by one float bit, one integer step, one byte or a dtype under
  unchanged bytes, fails its point's gate.
* ``test_hot_path_call_matches_oracle_and_spares_inputs`` makes one call
  per backend (and one through the default selection) at the size the
  training and serving steps run, and also checks that no backend writes
  into an argument other than its declared outputs.
* ``test_counted_function_matches_direct_oracle_and_spares_inputs`` makes
  the same full-size call of each plain function with one implementation
  (``lfsr_step_block``, ``clt_standardise``, ``sample_matmul``) and checks
  it against a direct NumPy spelling of its arithmetic.
* the hypothesis tests below drive each kernel with *randomised* workloads
  (random shapes, dtypes, strides 1 / 64 / 256, random register states) and
  assert the forced backend's output is bit-identical to the reference
  oracle's on the same inputs.  ``lfsr_step_block``'s randomised proof is
  the independent bit-serial oracle in ``test_lfsr_bitserial_oracle.py``;
  ``im2col``'s reference gather is checked against a sliding-window
  formulation here, and both backends of the four conv data-movement
  kernels against pasted-in oracles in ``test_conv_fast_paths.py``.

``window_popcounts`` backends may legitimately return different *integer
dtypes* (int16 / int32 / int64 -- popcounts are exact in all of them), so
that kernel compares int64-promoted values; every float-producing kernel is
compared byte-for-byte.
"""

from __future__ import annotations

from dataclasses import replace

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
# gate strictness: the smallest change to a result fails the gate
# ----------------------------------------------------------------------
def _flip_float_lsb(value):
    """The lowest bit of the first finite element of a float array."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind == "f"):
        return None
    finite = np.flatnonzero(np.isfinite(value))
    if not finite.size:
        return None
    changed = value.copy()
    changed.reshape(-1).view(f"u{changed.itemsize}")[finite[0]] ^= 1
    return changed


def _step_integer(value):
    """One more in a returned integer, or in one element of an integer array."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return value + 1
    if isinstance(value, np.ndarray) and value.dtype.kind in "iu" and value.size:
        changed = value.copy()
        changed.reshape(-1)[0] += 1
        return changed
    return None


def _change_byte(value):
    """The first byte of a ``bytes`` result, its lowest bit flipped."""
    if isinstance(value, bytes) and value:
        return bytes([value[0] ^ 1]) + value[1:]
    return None


def _retype(value):
    """The same bytes and shape under a dtype of another kind."""
    other = {"f": "i", "i": "f", "u": "f"}
    if isinstance(value, np.ndarray) and value.dtype.kind in other:
        return value.view(f"{other[value.dtype.kind]}{value.itemsize}")
    return None


MUTATIONS = (_flip_float_lsb, _step_integer, _change_byte, _retype)


def _mutant(fn, mutate, position, seen):
    """``fn`` with result ``position`` changed by ``mutate`` where it applies;
    ``seen`` records the result width and how many calls were changed."""

    def run(**kwargs):
        result = fn(**kwargs)
        values = list(result) if isinstance(result, tuple) else [result]
        seen["width"] = len(values)
        changed = mutate(values[position])
        if changed is None:
            return result
        seen["changes"] = seen.get("changes", 0) + 1
        values[position] = changed
        return tuple(values) if isinstance(result, tuple) else changed

    return run


NON_REFERENCE_BACKENDS = [
    pytest.param(kernel, name, id=f"{kernel}-{name}")
    for kernel in sorted(backend.kernel_names())
    for name in backend.registry.backend_names(kernel)
    if name != "reference"
]


@pytest.mark.parametrize(("kernel", "name"), NON_REFERENCE_BACKENDS)
def test_gate_rejects_the_smallest_change_to_any_result(kernel: str, name: str):
    """Each returned value of a backend, changed by the smallest step its
    kind allows (one float's lowest bit, an integer by one, one byte, the
    dtype under unchanged bytes), fails the point's gate on the first case
    where it is changed, and every returned value meets such a change.

    The gates run on a fresh registry built by the built-in registrations,
    so the shared registry's eligibility cache is left alone.
    """
    _skip_unless_available(kernel, name)
    reg = backend.KernelRegistry()
    backend._register_builtin(reg)
    backends = reg._kernels[kernel].backends
    impl = backends[name]
    seen: dict = {}
    backends[name] = replace(impl, fn=_mutant(impl.fn, lambda value: None, 0, seen))
    assert reg.verify_backend(kernel, name)  # the wrapper alone changes nothing
    width, covered = seen["width"], set()
    for position in range(width):
        for mutate in MUTATIONS:
            seen = {}
            backends[name] = replace(impl, fn=_mutant(impl.fn, mutate, position, seen))
            label = f"{kernel}/{name}: {mutate.__name__} on result {position}"
            try:
                reg.verify_backend(kernel, name)
            except backend.BackendConformanceError:
                # the gate stops at its first failing case: that must be
                # the first case the mutant changed
                assert seen.get("changes") == 1, label
                covered.add(position)
            else:
                assert not seen.get("changes"), f"{label} passed the gate"
    assert covered == set(range(width)), f"{kernel}/{name}: a result is never checked"


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
    seq_words, _ = backend.lfsr_step_block(words, width, count, taps)
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


# ----------------------------------------------------------------------
# one hot-path-sized call per kernel, per backend and through ``auto``
# ----------------------------------------------------------------------
HOT_ROWS = 16
HOT_BITS = 256
HOT_STEPS = 1 << 14
HOT_POPCOUNT_BITS = 1 << 16  # stride 256 -> 256 variables per row
HOT_IM2COL_SHAPE = (8, 16, 28, 28)
_HOT_OFFSETS = normalise_taps(HOT_BITS, MAXIMAL_TAPS[HOT_BITS])

#: argument positions a kernel writes into; every other array argument is
#: input and must come back unchanged
OUTPUT_ARGS = {
    "grng_block": (7,),
    "fused_sample_matmul": (2,),
    "posterior_gc": (7, 8),
}


def _hot_state_words() -> np.ndarray:
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 64, size=(HOT_ROWS, HOT_BITS // 64), dtype=np.uint64)
    words[:, 0] |= np.uint64(1)  # never the all-zero register
    return words


def _hot_workload(kernel: str) -> tuple:
    """Fresh arguments for one call at the size the training and serving steps run."""
    rng = np.random.default_rng(11)
    if kernel == "lfsr_step_block":
        return _hot_state_words(), HOT_BITS, HOT_STEPS, _HOT_OFFSETS
    if kernel == "window_popcounts":
        seq_words, _ = backend.lfsr_step_block(
            _hot_state_words(), HOT_BITS, HOT_POPCOUNT_BITS, _HOT_OFFSETS
        )
        return seq_words, HOT_BITS, HOT_POPCOUNT_BITS, HOT_BITS
    if kernel == "clt_standardise":
        return rng.integers(96, 161, size=1 << 20, dtype=np.int64), 128.0, 8.0
    if kernel == "grng_block":
        count = HOT_POPCOUNT_BITS // HOT_BITS
        out = np.empty((HOT_ROWS, count), dtype=np.float64)
        return (
            _hot_state_words(), HOT_BITS, _HOT_OFFSETS, HOT_BITS, count,
            128.0, 8.0, out,
        )
    if kernel == "sample_matmul":
        a = rng.standard_normal((8, 192, 192))
        b = rng.standard_normal((8, 192, 192))
        return a, b, np.empty((8, 192, 192))
    if kernel == "im2col":
        return rng.standard_normal(HOT_IM2COL_SHAPE), 3, 1, 0
    if kernel in ("col2im", "maxpool2d_forward", "maxpool2d_backward"):
        # channels-last storage, as the training step carries it
        x = np.ascontiguousarray(
            np.maximum(rng.standard_normal(HOT_IM2COL_SHAPE), 0.0).transpose(0, 2, 3, 1)
        ).transpose(0, 3, 1, 2)
        if kernel == "col2im":
            cols, _, _ = _oracle("im2col", x, 3, 1, 1)
            return cols, HOT_IM2COL_SHAPE, 3, 1, 1
        if kernel == "maxpool2d_forward":
            return x, 2, 2
        pooled, argmax = _oracle("maxpool2d_forward", x, 2, 2)
        return pooled, argmax, HOT_IM2COL_SHAPE, 2, 2
    if kernel == "fused_sample_matmul":
        # a pooled serving tile: 4 requests of 16 rows each, B-MLP-sized layer
        splits = (16, 16, 16, 16)
        a = rng.standard_normal((8, sum(splits), 196))
        b = rng.standard_normal((8, 196, 128))
        return a, b, np.empty((8, sum(splits), 128)), splits
    if kernel == "posterior_gc":
        # the reduced B-MLP's first layer at S = 8; accumulates in place
        shape = (196, 64)
        stacks = [rng.standard_normal((8, *shape)) for _ in range(3)]
        sigma = np.logaddexp(0.0, rng.standard_normal(shape))
        sigmoid_rho = rng.random(shape)
        return (
            *stacks, 1e-3, sigma, sigmoid_rho, True, np.zeros(shape), np.zeros(shape)
        )
    # serve_http_closed's wire: the (S, rows, classes) response tensor out,
    # the 16-row B-MLP request batch in
    if kernel == "json_dumps_f64":
        return (rng.random((8, 16, 10)),)
    if kernel == "json_loads_f64":
        text = _oracle("json_dumps_f64", rng.standard_normal((16, 196)))
        return b'{"x": ' + text + b"}", 6
    raise AssertionError(f"no hot-path workload defined for kernel {kernel!r}")


#: integer dtype kinds whose arrays are popcounts: exact in any width, so a
#: backend picks its own and the values compare as int64
POPCOUNT_KINDS = {"window_popcounts": "iu"}


def _canonical(kernel: str, value):
    """Bytes-level identity of a kernel result (popcounts compare as int64)."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in POPCOUNT_KINDS.get(kernel, ""):
            value = value.astype(np.int64)
        return str(value.dtype), value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(kernel, item) for item in value)
    return value


def _hot_call(kernel: str, which: str) -> tuple:
    args = _hot_workload(kernel)
    inputs = {
        index: arg.copy()
        for index, arg in enumerate(args)
        if isinstance(arg, np.ndarray) and index not in OUTPUT_ARGS.get(kernel, ())
    }
    if which == "auto":
        result = backend.registry.call(kernel, *args)
    else:
        result = _forced(kernel, which, *args)
    for index, before in inputs.items():
        assert args[index].tobytes() == before.tobytes(), f"argument {index} written"
    written = tuple(args[index] for index in OUTPUT_ARGS.get(kernel, ()))
    return _canonical(kernel, (result, written))


HOT_CASES = [
    pytest.param(kernel, name, id=f"{kernel}-{name}")
    for kernel in sorted(backend.kernel_names())
    for name in ("auto", *backend.registry.backend_names(kernel))
]


@pytest.mark.parametrize(("kernel", "which"), HOT_CASES)
def test_hot_path_call_matches_oracle_and_spares_inputs(kernel: str, which: str):
    """Every backend, and the default selection, on one full-size workload."""
    if which != "auto":
        _skip_unless_available(kernel, which)
    got = _hot_call(kernel, which)
    assert got == _hot_call(kernel, "reference")


# ----------------------------------------------------------------------
# the plain functions of the kernels with one implementation
# ----------------------------------------------------------------------
def _bits(words: np.ndarray) -> np.ndarray:
    """Bit ``k`` of row ``r`` is bit ``k % 64`` of word ``k // 64``."""
    return np.unpackbits(words.astype("<u8").view(np.uint8), axis=1, bitorder="little")


def _lfsr_oracle(state_words, n_bits, count, offsets):
    # the sequence starts with the register oldest bit first (Rn .. R1); each
    # later bit is the XOR of the bits `p` back, `min(offsets)` bits at a time
    seq = np.zeros((state_words.shape[0], n_bits + count), dtype=np.uint8)
    seq[:, :n_bits] = _bits(state_words)[:, n_bits - 1 :: -1]
    step = min(offsets)
    for t in range(n_bits, n_bits + count, step):
        end = min(t + step, n_bits + count)
        for p in offsets:
            seq[:, t:end] ^= seq[:, t - p : end - p]
    state = np.packbits(seq[:, count:][:, ::-1], axis=1, bitorder="little")
    return seq, state.view("<u8")


def _clt_oracle(popcounts, mean, std):
    return (popcounts.astype(np.float64) - mean) / std


def _sample_matmul_oracle(a, b, out):
    return np.stack([a[s] @ b[s] for s in range(b.shape[0])])


@pytest.mark.parametrize("name", sorted(backend._COUNTED_FUNCTIONS))
def test_counted_function_matches_direct_oracle_and_spares_inputs(name: str):
    """Each plain function, at the hot-path size, equals its arithmetic
    spelled out directly and writes no argument but its output."""
    args = _hot_workload(name)
    outputs = (2,) if name == "sample_matmul" else ()
    inputs = {
        index: arg.copy()
        for index, arg in enumerate(args)
        if isinstance(arg, np.ndarray) and index not in outputs
    }
    got = getattr(backend, name)(*args)
    for index, before in inputs.items():
        assert args[index].tobytes() == before.tobytes(), f"argument {index} written"
    want = {
        "clt_standardise": _clt_oracle,
        "lfsr_step_block": _lfsr_oracle,
        "sample_matmul": _sample_matmul_oracle,
    }[name](*(inputs.get(index, arg) for index, arg in enumerate(args)))
    if name == "lfsr_step_block":
        (seq_words, state_words), (seq, state) = got, want
        produced = _bits(seq_words)
        total = seq.shape[1]
        assert np.array_equal(produced[:, :total], seq)
        assert not produced[:, total:].any(), "bits past n_bits + count must be 0"
        assert state_words.dtype == np.uint64
        assert np.array_equal(state_words, state)
        return
    if name == "sample_matmul":
        assert got is args[2]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
