"""The fused ReLU -> max-pool stage.

``maxpool2d_forward(x, ..., rectify=True)`` must equal pooling ``relu(x)``,
and ``maxpool2d_backward(..., mask=x)`` must equal ``relu_grad(x, ...)`` of
the plain scatter, byte for byte on both backends: NaN payloads, signed
zeros and ties included.  The batched network loops run every adjacent
``ReLU`` -> ``MaxPool2D`` pair through one such call each way and must stay
on the per-sample (unfused) trajectory; any other arrangement keeps the
unfused path.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import BNNTrainer, TrainerConfig, mc_predict
from repro.core import backend
from repro.datasets import BatchLoader, synthetic_cifar10
from repro.distrib import distributed_trainer
from repro.models import (
    ActivationSpec, ConvSpec, DenseSpec, FlattenSpec, ModelSpec, PoolSpec, get_model,
)
from repro.nn import functional as F
from repro.nn import layers
from repro.nn.tensor_utils import conv_output_size

from conftest import sequential_mc_predict

POOL_KERNELS = ("maxpool2d_forward", "maxpool2d_backward")
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


def _sliced(x: np.ndarray) -> np.ndarray:
    """The same tensor as every other batch item of channels-last storage."""
    wide = _channels_last(np.empty((2 * x.shape[0] + 1,) + x.shape[1:]))
    view = wide[1::2]
    view[...] = x
    return view


LAYOUTS = {"nchw": np.ascontiguousarray, "nhwc": _channels_last, "sliced": _sliced}


def _signed(rng, shape, nan_share) -> np.ndarray:
    """Conv-output-like data: ties, zeros of both signs, infinities, NaN."""
    x = rng.standard_normal(shape).round(1)  # ties, and -0.0 from rounding
    x[rng.random(shape) < 0.1] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.02] = np.inf
    x[rng.random(shape) < 0.02] = -np.inf
    nan = rng.random(shape) < nan_share
    x[nan] = NAN_BITS[rng.integers(0, len(NAN_BITS), int(nan.sum()))].view(np.float64)
    return x


@contextmanager
def _forced(name):
    if name == "native" and not all(
        impl["available"]
        for entry in backend.list_backends()
        if entry["kernel"] in POOL_KERNELS
        for impl in entry["backends"]
    ):
        pytest.skip("no C compiler: the native backends are unavailable")
    with ExitStack() as stack:
        for kernel in POOL_KERNELS:
            stack.enter_context(backend.using(kernel, name))
        yield


def _calls(name):
    counters = backend.counters_snapshot()
    return [counters.get(k, {}).get(name, {}).get("calls", 0) for k in POOL_KERNELS]


stage_geometry = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32 - 1),
        "batch": st.integers(0, 4),
        "channels": st.integers(1, 7),
        "pool": st.integers(1, 3),
        "stride": st.integers(1, 4),  # < pool overlaps, > pool leaves gaps
        "extra": st.tuples(st.integers(0, 5), st.integers(0, 5)),
        "layout": st.sampled_from(sorted(LAYOUTS)),
        "nan_share": st.sampled_from([0.0, 0.02, 0.3]),
    }
)


@pytest.mark.parametrize("name", ["reference", "native"])
@given(geometry=stage_geometry)
@settings(max_examples=80, deadline=None)
def test_fused_stage_equals_the_composition(name, geometry):
    rng = np.random.default_rng(geometry["seed"])
    pool, stride, layout = geometry["pool"], geometry["stride"], LAYOUTS[geometry["layout"]]
    x_shape = (geometry["batch"], geometry["channels"]) + tuple(
        pool + extra for extra in geometry["extra"]
    )
    x = layout(_signed(rng, x_shape, geometry["nan_share"]))
    pooled_shape = x_shape[:2] + tuple(
        conv_output_size(size, pool, stride, 0) for size in x_shape[2:]
    )
    grad_out = layout(_signed(rng, pooled_shape, geometry["nan_share"]))
    with _forced(name), np.errstate(invalid="ignore"):
        want_pooled, want_argmax = F.maxpool2d_forward(F.relu(x), pool, stride)
        want_grad = F.relu_grad(
            x, F.maxpool2d_backward(grad_out, want_argmax, x_shape, pool, stride)
        )
        before = _calls(name)
        pooled, argmax = F.maxpool2d_forward(x, pool, stride, rectify=True)
        buffers = (
            layout(rng.standard_normal(pooled_shape)),
            layout(rng.integers(-9, 9, pooled_shape)).astype(np.intp, order="K"),
        )
        filled = F.maxpool2d_forward(x, pool, stride, out=buffers, rectify=True)
        grad = F.maxpool2d_backward(grad_out, argmax, x_shape, pool, stride, mask=x)
        buffer = layout(rng.standard_normal(x_shape))
        scattered = F.maxpool2d_backward(
            grad_out, argmax, x_shape, pool, stride, out=buffer, mask=x
        )
        assert _calls(name) == [before[0] + 2, before[1] + 2]  # no silent fallback
    assert _same_bytes(pooled, want_pooled) and _same_bytes(argmax, want_argmax)
    assert filled[0] is buffers[0] and filled[1] is buffers[1]
    assert _same_bytes(buffers[0], want_pooled) and _same_bytes(buffers[1], want_argmax)
    assert _same_bytes(grad, want_grad)
    assert scattered is buffer and _same_bytes(buffer, want_grad)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("name", ["reference", "native"])
def test_the_rectified_pool_is_np_maximum_on_signed_zeros_and_nan(name, layout):
    # one 2x2 window per channel
    x = np.array(
        [
            [-0.0, -1.0, -1.0, -2.0],  # nothing above zero: +0.0 at 0
            [-1.0, np.nan, -np.inf, 3.0],  # the NaN wins
            [-np.inf, -0.0, -0.0, -np.inf],  # +0.0 at 0
            [0.0, -0.0, 5.0, 5.0],  # a tie: the first 5.0
        ]
    ).reshape(1, 4, 2, 2)
    x = LAYOUTS[layout](x)
    with _forced(name):
        relu_alone, _ = F.maxpool2d_forward(x, 1, 1, rectify=True)
        pooled, argmax = F.maxpool2d_forward(x, 2, 2, rectify=True)
    assert _same_bytes(relu_alone, np.maximum(x, 0.0))
    got = pooled.ravel()
    assert np.isnan(got[1]) and got[[0, 2, 3]].tolist() == [0.0, 0.0, 5.0]
    assert not np.signbit(got[[0, 2]]).any()
    assert argmax.ravel().tolist() == [0, 1, 0, 2]


# ----------------------------------------------------------------------
# network level
# ----------------------------------------------------------------------
N_SAMPLES = 3


class _Spy:
    """Counts the fused calls of the two max-pool points and ReLU.forward."""

    def __init__(self, monkeypatch):
        self.rectified = self.masked = self.pooled = self.relu = 0
        forward, backward = F.maxpool2d_forward, F.maxpool2d_backward
        relu_forward = layers.ReLU.forward

        def spy_forward(*args, rectify=False, **kwargs):
            self.rectified += rectify
            self.pooled += not rectify
            return forward(*args, rectify=rectify, **kwargs)

        def spy_backward(*args, mask=None, **kwargs):
            self.masked += mask is not None
            return backward(*args, mask=mask, **kwargs)

        def spy_relu(layer, x):
            self.relu += 1
            return relu_forward(layer, x)

        monkeypatch.setattr(F, "maxpool2d_forward", spy_forward)
        monkeypatch.setattr(F, "maxpool2d_backward", spy_backward)
        monkeypatch.setattr(layers.ReLU, "forward", spy_relu)


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


def _sequential(spec, batches):
    trainer = BNNTrainer(spec.build_bayesian(seed=9), _config(batched=False), policy="stored")
    return _trajectory(trainer, batches)


def test_lenet_step_fuses_both_stages_and_stays_on_the_per_sample_trajectory(
    cifar_batches, monkeypatch
):
    spec = get_model("B-LeNet", reduced=True)
    want = _sequential(spec, cifar_batches)
    spy = _Spy(monkeypatch)
    trainer = BNNTrainer(spec.build_bayesian(seed=9), _config(), policy="stored")
    assert _trajectory(trainer, cifar_batches) == want
    steps = len(cifar_batches)
    # relu1 -> pool1 and relu2 -> pool2 fused; relu3 (before fc2) is not
    assert (spy.rectified, spy.masked, spy.pooled) == (2 * steps, 2 * steps, 0)
    assert spy.relu == steps


def test_lenet_taped_step_stays_on_the_per_sample_trajectory(cifar_batches, monkeypatch):
    spec = get_model("B-LeNet", reduced=True)
    want = _sequential(spec, cifar_batches)
    spy = _Spy(monkeypatch)
    with distributed_trainer(
        spec, _config(), n_workers=0, n_shards=2, policy="stored", build_seed=9
    ) as trainer:
        assert _trajectory(trainer, cifar_batches) == want
    assert spy.rectified > 0 and spy.masked == spy.rectified and spy.pooled == 0


def test_lenet_mc_predict_equals_the_per_sample_prediction(cifar_batches, monkeypatch):
    model = get_model("B-LeNet", reduced=True).build_bayesian(seed=9)
    x = cifar_batches[0][0]
    want = sequential_mc_predict(model, x, n_samples=4, seed=2)
    spy = _Spy(monkeypatch)
    got = mc_predict(model, x, n_samples=4, seed=2)
    assert _same_bytes(got.sample_probabilities, want.sample_probabilities)
    assert (spy.rectified, spy.pooled) == (2, 0)


def _conv_net(*middle):
    return ModelSpec(
        name="unfused",
        input_shape=(3, 16, 16),
        num_classes=10,
        dataset="unit-test",
        layers=(ConvSpec("conv1", out_channels=4, kernel_size=3, padding=1), *middle,
                FlattenSpec("flatten"), DenseSpec("fc", 10)),
    )


@pytest.mark.parametrize(
    "spec",
    [
        _conv_net(ActivationSpec("relu")),  # ReLU -> Flatten
        _conv_net(PoolSpec("pool", "max", 2), ActivationSpec("relu")),  # pool first
        _conv_net(ActivationSpec("relu"), PoolSpec("pool", "avg", 2)),  # average pool
    ],
    ids=["relu-flatten", "pool-then-relu", "relu-avgpool"],
)
def test_other_arrangements_keep_the_unfused_path(spec, cifar_batches, monkeypatch):
    want = _sequential(spec, cifar_batches)
    spy = _Spy(monkeypatch)
    trainer = BNNTrainer(spec.build_bayesian(seed=9), _config(), policy="stored")
    assert _trajectory(trainer, cifar_batches) == want
    assert spy.rectified == spy.masked == 0
    assert spy.relu == len(cifar_batches)
