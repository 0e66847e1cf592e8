"""Benchmarks for the functional training experiments (Fig. 9 and Table 1)
and for the batched Monte-Carlo execution engine.

These actually train the reduced Bayesian models on synthetic data, so they
run once per benchmark (``pedantic`` mode) and use CPU-scale settings.  The
regenerated tables are printed alongside the timing.

The ``mc_predict`` / ``train_step`` cases time the two execution modes of
the S-sample FW/BW/GC pipeline at the hardware-faithful ``grng_stride=1``:

* ``sequential`` -- one Monte-Carlo sample at a time, each sample generating
  its epsilons through its own per-row GRNG view (the plain S-times Python
  loop);
* ``batched`` -- the whole ``(S, batch, ...)`` pipeline in one pass.

Both produce bit-identical results (enforced by the equivalence tests);
``benchmarks/emit_results.py`` converts a ``--benchmark-json`` dump of this
module into ``BENCH_engine.json`` with the derived speedups.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.bnn import BNNTrainer, TrainerConfig, mc_predict
from repro.datasets import synthetic_cifar10, synthetic_mnist
from repro.experiments import run_fig9, run_table1
from repro.models import get_model

#: Execution-mode knobs shared by the mc_predict and train_step cases.
EXECUTION_MODES = {
    "sequential": dict(batched=False),
    "batched": dict(batched=True),
}

#: Hardware-faithful sliding-window GRNG mode by default; the nightly CI run
#: overrides this (``BENCH_GRNG_STRIDE=256``) to also track the
#: library-default strided configuration.
_BENCH_STRIDE = int(os.environ.get("BENCH_GRNG_STRIDE", "1"))


def _dense_setup(batch_size: int = 64):
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=42)
    train, _ = synthetic_mnist(n_train=max(batch_size, 40), n_test=40, image_size=14, seed=7)
    x = train.flatten_images()[:batch_size]
    y = train.labels[:batch_size]
    return spec, model, x, y


def _conv_setup(batch_size: int = 32):
    spec = get_model("B-LeNet", reduced=True)
    model = spec.build_bayesian(seed=42)
    train, _ = synthetic_cifar10(n_train=max(batch_size, 40), n_test=40, image_size=16, seed=7)
    x = train.images[:batch_size]
    y = train.labels[:batch_size]
    return spec, model, x, y


@pytest.mark.parametrize("mode", list(EXECUTION_MODES))
@pytest.mark.parametrize("n_samples", [4, 8, 16])
@pytest.mark.parametrize("arch", ["dense", "conv"])
def test_bench_mc_predict(benchmark, arch, n_samples, mode):
    _, model, x, _ = _dense_setup() if arch == "dense" else _conv_setup()
    knobs = EXECUTION_MODES[mode]

    def run():
        return mc_predict(
            model,
            x,
            n_samples=n_samples,
            grng_stride=_BENCH_STRIDE,
            **knobs,
        )

    result = benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=3)
    assert result.sample_probabilities.shape[0] == n_samples
    assert np.all(np.isfinite(result.mean_probabilities))


@pytest.mark.parametrize("mode", list(EXECUTION_MODES))
@pytest.mark.parametrize("n_samples", [4, 8, 16])
@pytest.mark.parametrize("arch", ["dense", "conv"])
def test_bench_train_step(benchmark, arch, n_samples, mode):
    spec, _, x, y = _dense_setup() if arch == "dense" else _conv_setup()
    knobs = EXECUTION_MODES[mode]
    config = TrainerConfig(
        n_samples=n_samples,
        learning_rate=1e-3,
        seed=1,
        grng_stride=_BENCH_STRIDE,
        **knobs,
    )
    trainer = BNNTrainer(spec.build_bayesian(seed=9), config, policy="reversible")

    def run():
        return trainer.train_step(x, y, kl_weight=1e-3)

    report = benchmark.pedantic(run, rounds=15, iterations=1, warmup_rounds=3)
    assert np.isfinite(report.total)


def test_bench_fig9_training_equivalence(benchmark):
    def run():
        outcome = run_fig9(
            epochs=3, n_train=128, n_test=64, n_samples=2, batch_size=32, grng_stride=64
        )
        print()
        print(outcome.result.to_table())
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    # the reproduction's equivalence is bit-exact
    assert outcome.max_loss_difference == 0.0
    assert outcome.max_parameter_difference == 0.0


def test_bench_table1_precision_study(benchmark):
    def run():
        result = run_table1(
            model_names=("B-MLP", "B-LeNet"),
            bit_widths=(8, 16, 32),
            epochs=4,
            n_train=160,
            n_test=64,
            n_samples=2,
            grng_stride=64,
        )
        print()
        print(result.to_table())
        return result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(result.rows) == 2
    for row in result.rows:
        values = dict(zip(result.headers, row))
        assert values["val_acc_32b"] >= values["val_acc_8b"] - 1e-9
