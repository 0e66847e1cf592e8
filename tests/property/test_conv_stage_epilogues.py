"""The conv stage's epilogues: GEMMs written in place and the bias gradient
summed by the fused max-pool backward.

``conv2d_forward_samples`` / ``conv2d_backward_samples`` must equal ``S``
per-sample ``conv2d_forward`` / ``conv2d_backward`` calls byte for byte on
both backends, whether the bias gradient is summed there or handed in as
the ``channel_sums`` of ``maxpool2d_backward``.  The batched network loop
lets the pool after each conv's ReLU sum that conv's bias gradient and must
stay on the per-sample trajectory.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import BayesConv2D, BayesDense, BayesianNetwork, BNNTrainer, TrainerConfig
from repro.core import backend
from repro.datasets import BatchLoader, synthetic_cifar10
from repro.distrib import distributed_trainer
from repro.models import get_model
from repro.nn import functional as F
from repro.nn.layers import Flatten, MaxPool2D, ReLU
from repro.nn.tensor_utils import conv_output_size

CONV_KERNELS = ("im2col", "col2im", "maxpool2d_forward", "maxpool2d_backward")
#: NaN payloads: quiet, negative with a payload, signalling
NAN_BITS = np.array(
    [0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000005], np.uint64
)


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return (
        got.shape == want.shape
        and got.dtype == want.dtype
        and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    )


def _channels_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


@contextmanager
def _forced(name):
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


def _summing_calls(name):
    return backend.counters_snapshot().get("maxpool2d_backward", {}).get(name, {}).get(
        "calls", 0
    )


def _gradient(rng, shape, nan_share):
    """A conv output gradient as the pool hands it over, channels-last: a
    channel of -0.0 only, exact zeros of both signs, NaN of several payloads."""
    grad = rng.standard_normal(shape)
    grad[rng.random(shape) < 0.2] = -0.0
    grad[rng.random(shape) < 0.1] = 0.0
    nan = rng.random(shape) < nan_share
    grad[nan] = NAN_BITS[rng.integers(0, len(NAN_BITS), int(nan.sum()))].view(np.float64)
    grad[:, rng.integers(shape[1])] = -0.0
    return _channels_last(grad)


conv_geometry = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "n_samples": st.integers(1, 5),
        "batch": st.integers(1, 3),
        "in_channels": st.integers(1, 3),
        "out_channels": st.integers(1, 7),
        "kernel": st.integers(1, 3),
        "stride": st.integers(1, 2),
        "padding": st.integers(0, 1),
        "size": st.integers(3, 7),
        "shared_input": st.booleans(),
        "bias": st.booleans(),
        "nan_share": st.sampled_from([0.0, 0.05]),
    }
)


@pytest.mark.parametrize("name", ["reference", "native"])
@given(geometry=conv_geometry)
@settings(max_examples=60, deadline=None)
def test_batched_conv_equals_per_sample_calls(name, geometry):
    rng = np.random.default_rng(geometry["seed"])
    S, batch, shared = geometry["n_samples"], geometry["batch"], geometry["shared_input"]
    C, M, k = geometry["in_channels"], geometry["out_channels"], geometry["kernel"]
    stride, padding, size = geometry["stride"], geometry["padding"], geometry["size"]
    x = rng.standard_normal(((1 if shared else S) * batch, C, size, size))
    weights = rng.standard_normal((S, M, C, k, k))
    bias = rng.standard_normal(M) if geometry["bias"] else None
    out_size = conv_output_size(size, k, stride, padding)
    grad = _gradient(rng, (S * batch, M, out_size, out_size), geometry["nan_share"])
    folded = np.concatenate([x] * S) if shared else x
    with _forced(name), np.errstate(invalid="ignore"):
        out, cols = F.conv2d_forward_samples(x, weights, bias, stride, padding, S, shared)
        grad_input, grad_weights, grad_bias = F.conv2d_backward_samples(
            grad, cols, folded.shape, weights, stride, padding, S
        )
        handed = np.empty((S, M))
        summed = F.conv2d_backward_samples(
            grad, cols, folded.shape, weights, stride, padding, S, grad_bias=handed
        )
        for s in range(S):
            rows = slice(s * batch, (s + 1) * batch)
            want_out, want_cols = F.conv2d_forward(
                folded[rows], weights[s], bias, stride, padding
            )
            want = F.conv2d_backward(
                grad[rows], want_cols, folded[rows].shape, weights[s], stride, padding
            )
            assert _same_bytes(out[rows], want_out)
            assert _same_bytes(cols[s], want_cols)
            assert _same_bytes(grad_input[rows], want[0])
            assert _same_bytes(grad_weights[s], want[1])
            assert _same_bytes(grad_bias[s], want[2])
            assert _same_bytes(summed[1][s], want[1])
    assert summed[2] is handed


@pytest.mark.parametrize("name", ["reference", "native"])
@given(geometry=conv_geometry, pool=st.integers(1, 3), pool_stride=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_pool_channel_sums_are_the_conv_bias_gradient(name, geometry, pool, pool_stride):
    rng = np.random.default_rng(geometry["seed"])
    S, batch, M = geometry["n_samples"], geometry["batch"], geometry["out_channels"]
    size = max(geometry["size"], pool)
    conv_out = rng.standard_normal((S * batch, M, size, size)).round(1)
    conv_out[:, rng.integers(M)] *= -1.0  # a channel the ReLU mostly zeroes
    conv_out = _channels_last(conv_out)
    pooled_size = conv_output_size(size, pool, pool_stride, 0)
    pooled_grad = _gradient(
        rng, (S * batch, M, pooled_size, pooled_size), geometry["nan_share"]
    )
    weights = rng.standard_normal((S, M, 2, 1, 1))
    cols = [rng.standard_normal((batch * size * size, 2)) for _ in range(S)]
    x_shape = (S * batch, 2, size, size)
    with _forced(name), np.errstate(invalid="ignore"):
        _, argmax = F.maxpool2d_forward(conv_out, pool, pool_stride, rectify=True)
        before = _summing_calls(name)
        sums = rng.standard_normal((S, M))  # whatever the buffer held goes
        grad = F.maxpool2d_backward(
            pooled_grad, argmax, conv_out.shape, pool, pool_stride, mask=conv_out,
            channel_sums=sums,
        )
        # native declines only a lone channel, which NumPy sums pairwise
        assert _summing_calls(name) == before + (name == "reference" or M != 1)
        _, _, grad_bias = F.conv2d_backward_samples(
            grad, cols, x_shape, weights, 1, 0, S, need_input_grad=False, grad_bias=sums
        )
        for s in range(S):
            rows = slice(s * batch, (s + 1) * batch)
            want = F.conv2d_backward(grad[rows], cols[s], (batch, 2, size, size),
                                     weights[s], 1, 0)
            assert _same_bytes(grad_bias[s], want[2])


@pytest.mark.parametrize("features", [1, 2, 7])
def test_dense_bias_fold_is_the_per_sample_sums(features):
    rng = np.random.default_rng(features)
    grad3 = rng.standard_normal((4, 33, features))
    grad3[:, :, 0] = -0.0
    grad3[1, 5, -1] = np.nan
    per_sample = np.stack([grad3[s].sum(axis=0) for s in range(4)])
    assert _same_bytes(grad3.sum(axis=1), per_sample)


# ----------------------------------------------------------------------
# network level
# ----------------------------------------------------------------------
N_SAMPLES = 3


class _SumSpy:
    """Counts maxpool2d_backward calls that sum a conv bias gradient."""

    def __init__(self, monkeypatch):
        self.summing = self.plain = 0
        backward = F.maxpool2d_backward

        def spy(*args, channel_sums=None, **kwargs):
            self.summing += channel_sums is not None
            self.plain += channel_sums is None
            return backward(*args, channel_sums=channel_sums, **kwargs)

        monkeypatch.setattr(F, "maxpool2d_backward", spy)


@pytest.fixture(scope="module")
def cifar_batches():
    train, _ = synthetic_cifar10(n_train=16, n_test=16, image_size=16, seed=5)
    return BatchLoader(train, batch_size=8).batches()


def _config(**overrides):
    return TrainerConfig(n_samples=N_SAMPLES, learning_rate=5e-3, seed=11, **overrides)


def _trajectory(trainer, batches):
    for x, y in batches:
        trainer.train_step(x, y, kl_weight=0.05)
    return [(p.name, p.value.tobytes()) for p in trainer.model.parameters()]


@pytest.mark.parametrize("name", ["reference", "native"])
def test_lenet_step_sums_both_biases_in_the_pools(name, cifar_batches, monkeypatch):
    spec = get_model("B-LeNet", reduced=True)
    with _forced(name):
        sequential = BNNTrainer(
            spec.build_bayesian(seed=9), _config(batched=False), policy="stored"
        )
        want = _trajectory(sequential, cifar_batches)
        spy = _SumSpy(monkeypatch)
        trainer = BNNTrainer(spec.build_bayesian(seed=9), _config(), policy="stored")
        assert _trajectory(trainer, cifar_batches) == want
    assert (spy.summing, spy.plain) == (2 * len(cifar_batches), 0)


def test_lenet_taped_step_takes_the_pool_sums(cifar_batches, monkeypatch):
    spec = get_model("B-LeNet", reduced=True)
    sequential = BNNTrainer(
        spec.build_bayesian(seed=9), _config(batched=False), policy="stored"
    )
    want = _trajectory(sequential, cifar_batches)
    spy = _SumSpy(monkeypatch)
    with distributed_trainer(
        spec, _config(), n_workers=0, n_shards=2, policy="stored", build_seed=9
    ) as trainer:
        assert _trajectory(trainer, cifar_batches) == want
    assert spy.summing > 0 and spy.plain == 0


def _biasless_net():
    rng = np.random.default_rng(4)
    return BayesianNetwork(
        [
            BayesConv2D(3, 4, 3, padding=1, bias=False, rng=rng),
            ReLU(),
            MaxPool2D(2),
            Flatten(),
            BayesDense(4 * 8 * 8, 10, rng=rng),
        ]
    )


def test_a_conv_without_bias_gets_no_sums(cifar_batches, monkeypatch):
    sequential = BNNTrainer(_biasless_net(), _config(batched=False), policy="stored")
    want = _trajectory(sequential, cifar_batches)
    spy = _SumSpy(monkeypatch)
    trainer = BNNTrainer(_biasless_net(), _config(), policy="stored")
    assert _trajectory(trainer, cifar_batches) == want
    assert (spy.summing, spy.plain) == (0, len(cifar_batches))
