"""Byte-for-byte oracles for the conv training path's fast paths.

Each fast path is checked against the formulation it replaced, pasted here as
the oracle: the ``np.add.at`` max-pool scatter, the NCHW ``col2im``
accumulation, the gathered-window ``argmax`` max-pool forward, the
slice-gather ``im2col`` and the per-sample (folded) first-layer lowering.
The same oracles judge both backends of the four data-movement dispatch
points -- the NumPy ``reference`` and the compiled ``native`` kernels -- over
random geometries, layouts and ``out=`` buffers.  The network-level tests pin
what the layer-0 specialisations must not change (the trajectory) and what
they must (the kernel call counts, the return value).
"""

from __future__ import annotations

import gc
import weakref
from contextlib import ExitStack, contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import BayesConv2D, BNNTrainer, TrainerConfig
from repro.core import StreamBank, backend, stability
from repro.datasets import BatchLoader, synthetic_cifar10
from repro.distrib import distributed_trainer
from repro.models import get_model
from repro.nn import functional as F
from repro.nn.tensor_utils import conv_output_size


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


def _channels_last(x: np.ndarray) -> np.ndarray:
    """The same NCHW tensor backed by channels-last storage."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _is_channels_last(x: np.ndarray) -> bool:
    return x.transpose(0, 2, 3, 1).flags.c_contiguous


# ----------------------------------------------------------------------
# oracles: the code the fast paths replaced
# ----------------------------------------------------------------------
def _maxpool2d_forward_windows(x, pool, stride):
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, pool, stride, 0)
    out_w = conv_output_size(width, pool, stride, 0)
    windows = np.empty((batch, channels, out_h, out_w, pool * pool), dtype=x.dtype)
    for row in range(pool):
        for col in range(pool):
            windows[..., row * pool + col] = x[
                :, :, row : row + stride * out_h : stride, col : col + stride * out_w : stride
            ]
    argmax = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
    return out, argmax


def _maxpool2d_backward_add_at(grad_out, argmax, x_shape, pool, stride):
    batch, channels, _, _ = x_shape
    grad_input = np.zeros(x_shape, dtype=grad_out.dtype)
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    abs_r = np.arange(out_h)[None, None, :, None] * stride + argmax // pool
    abs_c = np.arange(out_w)[None, None, None, :] * stride + argmax % pool
    batch_idx = np.arange(batch)[:, None, None, None]
    chan_idx = np.arange(channels)[None, :, None, None]
    np.add.at(grad_input, (batch_idx, chan_idx, abs_r, abs_c), grad_out)
    return grad_input


def _col2im_nchw(cols, x_shape, kernel, stride, padding):
    batch, channels, height, width = x_shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    padded = np.zeros(
        (batch, channels, height + 2 * padding, width + 2 * padding), dtype=cols.dtype
    )
    for row in range(kernel):
        row_end = row + stride * out_h
        for col in range(kernel):
            col_end = col + stride * out_w
            padded[:, :, row:row_end:stride, col:col_end:stride] += cols[:, :, row, col, :, :]
    if padding:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _im2col_slices(x, kernel, stride, padding):
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for row in range(kernel):
        row_end = row + stride * out_h
        for col in range(kernel):
            col_end = col + stride * out_w
            cols[:, :, row, col, :, :] = x[:, :, row:row_end:stride, col:col_end:stride]
    return np.ascontiguousarray(
        cols.transpose(0, 4, 5, 1, 2, 3).reshape(
            batch * out_h * out_w, channels * kernel * kernel
        )
    )


# ----------------------------------------------------------------------
# max pooling
# ----------------------------------------------------------------------
POOL_GEOMETRIES = [
    # (x_shape, pool, stride)
    ((3, 4, 8, 8), 2, 2),
    ((2, 3, 9, 7), 2, 2),  # H, W not divisible by the pool
    ((2, 3, 9, 10), 2, 3),  # stride > pool: uncovered gaps stay +0.0
    ((2, 2, 9, 9), 3, 3),
    ((2, 3, 7, 7), 3, 2),  # overlapping windows
    ((2, 2, 5, 5), 1, 1),  # degenerate 1x1 window
]


def _post_relu(rng, shape, dtype=np.float64):
    """Tie-heavy data shaped like a ReLU output, signed zeros included."""
    x = np.maximum(rng.standard_normal(shape), 0.0).astype(dtype)
    x[rng.random(shape) < 0.15] = -0.0
    return x


@pytest.mark.parametrize("layout", [np.ascontiguousarray, _channels_last], ids=["nchw", "nhwc"])
@pytest.mark.parametrize("x_shape,pool,stride", POOL_GEOMETRIES)
def test_maxpool_forward_matches_window_argmax(x_shape, pool, stride, layout):
    rng = np.random.default_rng(1)
    for dtype in (np.float64, np.float32):
        x = layout(_post_relu(rng, x_shape, dtype))
        out, argmax = F.maxpool2d_forward(x, pool, stride)
        want_out, want_argmax = _maxpool2d_forward_windows(x, pool, stride)
        assert _same_bytes(out, want_out)
        assert _same_bytes(argmax, want_argmax)
        assert not np.shares_memory(out, x)


def test_maxpool_forward_keeps_argmax_nan_rule():
    rng = np.random.default_rng(2)
    x = _post_relu(rng, (2, 3, 8, 8))
    x[0, 1, 2, 3] = np.nan  # np.argmax picks a NaN as the window maximum
    x[1, 2, 5, 4] = np.nan
    out, argmax = F.maxpool2d_forward(_channels_last(x), 2, 2)
    want_out, want_argmax = _maxpool2d_forward_windows(x, 2, 2)
    assert _same_bytes(out, want_out) and np.isnan(out).sum() == 2
    assert _same_bytes(argmax, want_argmax)


def test_maxpool_forward_keeps_the_input_layout():
    x = _channels_last(_post_relu(np.random.default_rng(3), (4, 6, 8, 8)))
    out, argmax = F.maxpool2d_forward(x, 2, 2)
    assert _is_channels_last(out) and _is_channels_last(argmax)


@pytest.mark.parametrize("layout", [np.ascontiguousarray, _channels_last], ids=["nchw", "nhwc"])
@pytest.mark.parametrize("x_shape,pool,stride", POOL_GEOMETRIES)
def test_maxpool_backward_matches_add_at(x_shape, pool, stride, layout):
    rng = np.random.default_rng(4)
    x = _post_relu(rng, x_shape)
    _, argmax = _maxpool2d_forward_windows(x, pool, stride)
    for dtype in (np.float64, np.float32):
        grad_out = rng.standard_normal(argmax.shape).astype(dtype)
        # what relu_grad hands over: exact zeros of both signs
        grad_out[rng.random(argmax.shape) < 0.3] = -0.0
        grad_out[rng.random(argmax.shape) < 0.2] = 0.0
        grad_out = layout(grad_out)
        got = F.maxpool2d_backward(grad_out, argmax, x_shape, pool, stride)
        want = _maxpool2d_backward_add_at(grad_out, argmax, x_shape, pool, stride)
        assert _same_bytes(got, want)
        assert not np.signbit(got[got == 0.0]).any()
        assert _is_channels_last(got)


def test_maxpool_backward_overlapping_windows_still_accumulate():
    # a single peak every 3x3/stride-1 window containing it selects: an
    # overwriting scatter would leave 1.0 there, accumulation leaves the count
    x = np.zeros((1, 1, 5, 5))
    x[0, 0, 2, 2] = 1.0
    out, argmax = F.maxpool2d_forward(x, 3, 1)
    grad = F.maxpool2d_backward(np.ones_like(out), argmax, x.shape, 3, 1)
    assert grad[0, 0, 2, 2] == 9.0
    assert _same_bytes(
        grad, _maxpool2d_backward_add_at(np.ones_like(out), argmax, x.shape, 3, 1)
    )


# ----------------------------------------------------------------------
# col2im
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("padding", [0, 1])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_col2im_matches_nchw_accumulation(kernel, stride, padding, dtype):
    rng = np.random.default_rng(5)
    x_shape = (3, 4, 9, 8)
    out_h = conv_output_size(x_shape[2], kernel, stride, padding)
    out_w = conv_output_size(x_shape[3], kernel, stride, padding)
    cols = rng.standard_normal(
        (x_shape[0] * out_h * out_w, x_shape[1] * kernel * kernel)
    ).astype(dtype)
    got = F.col2im(cols, x_shape, kernel, stride, padding)
    assert _same_bytes(got, _col2im_nchw(cols, x_shape, kernel, stride, padding))
    # channels-last storage under the NCHW view (padding crops rows/columns,
    # so judge the stride order rather than contiguity)
    assert got.strides[1] == got.itemsize


# ----------------------------------------------------------------------
# both backends of the four dispatch points: random geometries, out= buffers
# ----------------------------------------------------------------------
CONV_KERNELS = ("im2col", "col2im", "maxpool2d_forward", "maxpool2d_backward")


@contextmanager
def _forced(name):
    """The four data-movement dispatch points forced onto backend ``name``."""
    if name == "native" and not all(
        impl["available"]
        for entry in backend.list_backends()
        if entry["kernel"] in CONV_KERNELS
        for impl in entry["backends"]
    ):
        pytest.skip("no C compiler: the native backends are unavailable")
    with ExitStack() as stack:
        for kernel in CONV_KERNELS:
            stack.enter_context(backend.using(kernel, name))
        yield


def _ran_on(name):
    """Calls per conv dispatch point answered by backend ``name`` so far."""
    counters = backend.counters_snapshot()
    return {k: counters.get(k, {}).get(name, {}).get("calls", 0) for k in CONV_KERNELS}


def _sliced(x):
    """The same tensor as every other batch item of channels-last storage."""
    wide = np.empty((2 * x.shape[0] + 1,) + x.shape[1:]).transpose(0, 2, 3, 1)
    wide = np.ascontiguousarray(wide).transpose(0, 3, 1, 2)
    view = wide[1::2]
    view[...] = x
    assert x.shape[0] < 2 or not view.transpose(0, 2, 3, 1).flags.c_contiguous
    return view


LAYOUTS = {"nchw": np.ascontiguousarray, "nhwc": _channels_last, "sliced": _sliced}
BACKENDS = pytest.mark.parametrize("name", ["reference", "native"])

window_geometry = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "batch": st.integers(0, 5),
        "channels": st.integers(1, 13),
        "kernel": st.integers(1, 5),
        "stride": st.integers(1, 3),
        "padding": st.integers(0, 2),
        "extra": st.tuples(st.integers(0, 6), st.integers(0, 6)),
        "layout": st.sampled_from(sorted(LAYOUTS)),
    }
)


def _draw(geometry, padded=True):
    """(rng, x_shape, kernel, stride, padding, layout fn) of one drawn geometry."""
    kernel, padding = geometry["kernel"], geometry["padding"] if padded else 0
    size = max(kernel - 2 * padding, 1)
    x_shape = (
        geometry["batch"], geometry["channels"],
        size + geometry["extra"][0], size + geometry["extra"][1],
    )
    rng = np.random.default_rng(geometry["seed"])
    return rng, x_shape, kernel, geometry["stride"], padding, LAYOUTS[geometry["layout"]]


def _garbage(rng, shape, dtype=np.float64, layout=_channels_last):
    return layout(rng.standard_normal(shape)).astype(dtype, order="K")


@BACKENDS
@given(geometry=window_geometry)
@settings(max_examples=60, deadline=None)
def test_im2col_random_geometries(name, geometry):
    rng, x_shape, kernel, stride, padding, layout = _draw(geometry)
    x = layout(rng.standard_normal(x_shape))
    want = _im2col_slices(x, kernel, stride, padding)
    with _forced(name):
        before = _ran_on(name)
        cols, out_h, out_w = F.im2col(x, kernel, stride, padding)
        buffer = rng.standard_normal(want.shape)
        filled, _, _ = F.im2col(x, kernel, stride, padding, out=buffer)
        assert _ran_on(name)["im2col"] == before["im2col"] + 2  # no silent fallback
    assert (out_h, out_w) == tuple(
        conv_output_size(size, kernel, stride, padding) for size in x_shape[2:]
    )
    assert cols.flags.c_contiguous and _same_bytes(cols, want)
    assert filled is buffer and _same_bytes(buffer, want)


@BACKENDS
@given(geometry=window_geometry)
@settings(max_examples=60, deadline=None)
def test_col2im_random_geometries(name, geometry):
    rng, x_shape, kernel, stride, padding, layout = _draw(geometry)
    rows = x_shape[0] * np.prod(
        [conv_output_size(size, kernel, stride, padding) for size in x_shape[2:]]
    )
    cols = rng.standard_normal((int(rows), x_shape[1] * kernel * kernel))
    cols[rng.random(cols.shape) < 0.3] = -0.0  # what relu_grad hands over
    cols[rng.random(cols.shape) < 0.2] = 0.0
    want = _col2im_nchw(cols, x_shape, kernel, stride, padding)
    with _forced(name):
        before = _ran_on(name)
        got = F.col2im(cols, x_shape, kernel, stride, padding)
        buffer = layout(rng.standard_normal(x_shape))
        filled = F.col2im(cols, x_shape, kernel, stride, padding, out=buffer)
        assert _ran_on(name)["col2im"] == before["col2im"] + 2
    assert _same_bytes(got, want)
    assert got.size == 0 or got.strides[1] == got.itemsize  # channels-last storage
    assert filled is buffer and _same_bytes(buffer, want)
    assert not np.signbit(got[got == 0.0]).any()  # -0.0 summed into +0.0


@BACKENDS
@given(geometry=window_geometry)
@settings(max_examples=60, deadline=None)
def test_maxpool_random_geometries(name, geometry):
    rng, x_shape, pool, stride, _, layout = _draw(geometry, padded=False)
    x = layout(_post_relu(rng, x_shape))
    want_out, want_argmax = _maxpool2d_forward_windows(x, pool, stride)
    grad_out = rng.standard_normal(want_out.shape)
    grad_out[rng.random(grad_out.shape) < 0.3] = -0.0
    grad_out[rng.random(grad_out.shape) < 0.2] = 0.0
    grad_out = layout(grad_out)
    want_grad = _maxpool2d_backward_add_at(grad_out, want_argmax, x_shape, pool, stride)
    with _forced(name):
        before = _ran_on(name)
        out, argmax = F.maxpool2d_forward(x, pool, stride)
        buffers = (
            _garbage(rng, want_out.shape),
            _garbage(rng, want_out.shape, np.intp),
        )
        filled = F.maxpool2d_forward(x, pool, stride, out=buffers)
        grad = F.maxpool2d_backward(grad_out, argmax, x_shape, pool, stride)
        buffer = _garbage(rng, x_shape, layout=layout)
        scattered = F.maxpool2d_backward(
            grad_out, argmax, x_shape, pool, stride, out=buffer
        )
        after = _ran_on(name)
    assert after["maxpool2d_forward"] == before["maxpool2d_forward"] + 2
    assert after["maxpool2d_backward"] == before["maxpool2d_backward"] + 2
    assert _same_bytes(out, want_out) and _same_bytes(argmax, want_argmax)
    assert not np.shares_memory(out, x)
    assert filled[0] is buffers[0] and filled[1] is buffers[1]
    assert _same_bytes(buffers[0], want_out) and _same_bytes(buffers[1], want_argmax)
    assert _same_bytes(grad, want_grad) and _is_channels_last(grad)
    assert scattered is buffer and _same_bytes(buffer, want_grad)
    assert not np.signbit(grad[grad == 0.0]).any()


@BACKENDS
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("pool,stride", [(2, 2), (3, 3), (3, 2)])
def test_maxpool_nan_and_ties_follow_argmax(name, layout, pool, stride):
    rng = np.random.default_rng(8)
    x = _post_relu(rng, (2, 3, 9, 9))
    last = pool - 1
    x[0, 0, 0, 0] = np.nan  # first position of its window
    x[0, 1, pool // 2, last] = np.nan  # a middle position
    x[0, 2, last, last] = np.nan  # the last position
    x[1, 0, 0:pool, 0:pool] = np.nan  # an all-NaN window
    x[1, 1, 0, 0] = x[1, 1, 0, 1] = np.nan  # two NaN: the first wins
    x[1, 2, 0:pool, 0:pool] = 7.0  # an exact tie across the whole window
    x[1, 2, stride : stride + pool, stride : stride + pool] = [
        [0.0, -0.0, 0.0][:pool]
    ] * pool  # signed zeros compare equal: the first position wins
    x = LAYOUTS[layout](x)
    want_out, want_argmax = _maxpool2d_forward_windows(x, pool, stride)
    with _forced(name):
        out, argmax = F.maxpool2d_forward(x, pool, stride)
    assert _same_bytes(out, want_out) and _same_bytes(argmax, want_argmax)
    assert np.isnan(out[0, :, 0, 0]).all() and np.isnan(out[1, :2, 0, 0]).all()
    assert argmax[1, 0, 0, 0] == 0 and argmax[1, 1, 0, 0] == 0
    assert argmax[1, 2, 0, 0] == 0 and argmax[1, 2, 1, 1] == 0


@BACKENDS
def test_out_buffers_of_the_wrong_shape_or_dtype_are_refused(name):
    x = np.zeros((2, 3, 6, 6))
    with _forced(name):
        with pytest.raises(ValueError, match="out is"):
            F.im2col(x, 3, 1, 1, out=np.empty((2 * 36, 26)))
        with pytest.raises(ValueError, match="out is"):
            F.col2im(np.zeros((72, 27)), x.shape, 3, 1, 1, out=np.empty(x.shape, np.float32))
        with pytest.raises(ValueError, match="out is"):
            F.maxpool2d_forward(x, 2, 2, out=(np.empty((2, 3, 3, 3)), np.empty((2, 3, 3, 3))))
        with pytest.raises(ValueError, match="out is"):
            F.maxpool2d_backward(
                np.zeros((2, 3, 3, 3)), np.zeros((2, 3, 3, 3), np.intp), x.shape, 2, 2,
                out=np.empty((2, 3, 6, 5)),
            )
        # an argmax outside the window selects nothing, on either backend
        stray = F.maxpool2d_backward(
            np.ones((2, 3, 3, 3)), np.full((2, 3, 3, 3), 4), x.shape, 2, 2
        )
        assert not stray.any()


# ----------------------------------------------------------------------
# shared first-layer lowering
# ----------------------------------------------------------------------
def _shared_and_folded(x, weights, bias, stride, padding):
    n_samples = weights.shape[0]
    folded = np.concatenate([x] * n_samples, axis=0)
    shared = F.conv2d_forward_samples(
        x, weights, bias, stride, padding, n_samples, shared_input=True
    )
    per_sample = F.conv2d_forward_samples(folded, weights, bias, stride, padding, n_samples)
    return shared, per_sample


@pytest.mark.parametrize("n_samples", [1, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_shared_lowering_matches_folded_lowering(n_samples, dtype):
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5, 3, 8, 8)).astype(dtype)
    weights = rng.standard_normal((n_samples, 6, 3, 3, 3)).astype(dtype)
    bias = rng.standard_normal(6).astype(dtype)
    (out, cols), (want_out, want_cols) = _shared_and_folded(x, weights, bias, 1, 1)
    assert _same_bytes(out, want_out)
    assert len(cols) == n_samples
    assert all(c is cols[0] for c in cols)  # one array, S aliases
    for got, want in zip(cols, want_cols):
        assert _same_bytes(got, want)


def test_shared_lowering_inside_a_fused_tile():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((7, 3, 8, 8))
    weights = rng.standard_normal((3, 6, 3, 3, 3))
    plain, _ = _shared_and_folded(x, weights, None, 1, 1)
    before = backend.counters_snapshot().get("im2col", {})
    with stability.folded_splits((1, 2, 4)):
        shared, per_sample = _shared_and_folded(x, weights, None, 1, 1)
    after = backend.counters_snapshot().get("im2col", {})
    calls = sum(v["calls"] for v in after.values()) - sum(
        v["calls"] for v in before.values()
    )
    assert calls == 1 + 3  # one whole-tile shared lowering, three folded ones
    assert _same_bytes(shared[0], per_sample[0])
    assert _same_bytes(shared[0], plain[0])  # tiles never change bytes


# ----------------------------------------------------------------------
# network level: B-LeNet
# ----------------------------------------------------------------------
N_SAMPLES = 3


@pytest.fixture(scope="module")
def lenet():
    spec = get_model("B-LeNet", reduced=True)
    train, _ = synthetic_cifar10(n_train=16, n_test=16, image_size=16, seed=5)
    return spec, BatchLoader(train, batch_size=8).batches()


def _config(**overrides):
    return TrainerConfig(n_samples=N_SAMPLES, learning_rate=5e-3, seed=11, **overrides)


def _parameter_bytes(trainer):
    return [(p.name, p.value.tobytes()) for p in trainer.model.parameters()]


@pytest.fixture(scope="module")
def sequential_bytes(lenet):
    spec, batches = lenet
    trainer = BNNTrainer(spec.build_bayesian(seed=9), _config(batched=False), policy="stored")
    for x, y in batches:
        trainer.train_step(x, y, kl_weight=0.05)
    return _parameter_bytes(trainer)


def test_batched_step_stays_on_the_sequential_trajectory(lenet, sequential_bytes):
    spec, batches = lenet
    trainer = BNNTrainer(spec.build_bayesian(seed=9), _config(), policy="stored")
    for x, y in batches:
        trainer.train_step(x, y, kl_weight=0.05)
    assert _parameter_bytes(trainer) == sequential_bytes


def test_taped_step_stays_on_the_sequential_trajectory(lenet, sequential_bytes):
    # the inline distributed backend runs every shard under a SampleGradientTape
    spec, batches = lenet
    with distributed_trainer(
        spec, _config(), n_workers=0, n_shards=1, policy="stored", build_seed=9
    ) as trainer:
        for x, y in batches:
            trainer.train_step(x, y, kl_weight=0.05)
        assert _parameter_bytes(trainer) == sequential_bytes


def _batched_pass(model, x, seed=3):
    """One FW + BW through the batched pipeline; returns backward's result."""
    bank = StreamBank(n_samples=N_SAMPLES, seed=seed, policy="stored")
    sampler = bank.batched_sampler()
    model.train()
    model.zero_grad()
    logits = model.forward_samples(x, sampler)
    result = model.backward_samples(np.ones_like(logits), sampler, kl_weight=0.0)
    bank.finish_iteration()
    return result


def test_backward_samples_returns_none_and_lowers_the_minibatch_once(lenet):
    spec, batches = lenet
    model = spec.build_bayesian(seed=9)
    n_conv = sum(isinstance(layer, BayesConv2D) for layer in model.layers)
    assert n_conv == 2

    def im2col_calls():
        counters = backend.counters_snapshot().get("im2col", {})
        return sum(v["calls"] for v in counters.values())

    before = im2col_calls()
    assert _batched_pass(model, batches[0][0]) is None
    assert im2col_calls() - before == 1 + N_SAMPLES * (n_conv - 1)


def test_dense_first_layer_skips_its_input_gradient():
    model = get_model("B-MLP", reduced=True).build_bayesian(seed=9)
    n_dense = len(model.bayesian_layers())

    def matmul_calls():
        counters = backend.counters_snapshot().get("sample_matmul", {})
        return sum(v["calls"] for v in counters.values())

    before = matmul_calls()
    assert _batched_pass(model, np.random.default_rng(0).standard_normal((4, 196))) is None
    # forward + weight gradient per layer, input gradient for all but layer 0
    assert matmul_calls() - before == 3 * n_dense - 1


# ----------------------------------------------------------------------
# cache bookkeeping the sharing exposes
# ----------------------------------------------------------------------
def test_conv_cache_keeps_the_folded_shape_and_releases_the_shared_cols(lenet):
    spec, batches = lenet
    x = batches[0][0]
    model = spec.build_bayesian(seed=9)
    assert model._det_layer_inputs == {}  # a real attribute from __init__
    bank = StreamBank(n_samples=N_SAMPLES, seed=3, policy="stored")
    sampler = bank.batched_sampler()
    model.forward_samples(x, sampler)
    conv1 = model.layers[0]
    assert conv1._cache["x_shape"] == (N_SAMPLES * x.shape[0],) + x.shape[1:]
    cols = conv1._cache["cols"]
    assert len(cols) == N_SAMPLES and all(c is cols[0] for c in cols)
    shared = weakref.ref(cols[0])
    del cols
    sampler.discard_pending()
    model.release_sample_caches()
    gc.collect()
    assert shared() is None


def test_folded_input_of_the_wrong_size_still_raises_past_layer_zero(lenet):
    spec, _ = lenet
    model = spec.build_bayesian(seed=9)
    conv2 = model.layers[3]
    bank = StreamBank(n_samples=N_SAMPLES, seed=3, policy="stored")
    x = np.zeros((N_SAMPLES * 2 + 1, conv2.in_channels, 8, 8))
    with pytest.raises(ValueError, match="does not divide into"):
        conv2.forward_samples(x, bank.batched_sampler(), N_SAMPLES)
