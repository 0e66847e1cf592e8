"""Micro-benchmarks of the core primitives behind the headline results.

These quantify the software cost of the mechanisms the paper implements in
hardware: LFSR pattern generation, Gaussian conversion, reversed retrieval,
weight sampling, and a full training step under both epsilon policies (the
Shift-BNN step must not be slower than the stored-epsilon step, mirroring the
claim that retrieval replaces storage at no algorithmic cost).
"""

from __future__ import annotations

import numpy as np

from repro.bnn import BaselineBNNTrainer, ShiftBNNTrainer, TrainerConfig
from repro.core import FibonacciLFSR, GrngBank, LfsrGaussianRNG, StreamBank
from repro.datasets import BatchLoader, synthetic_mnist
from repro.models import get_model
from repro.nn import functional as F

BLOCK = 50_000
BANK_ROWS = 16


def test_bench_lfsr_bit_generation(benchmark):
    lfsr = FibonacciLFSR(256, seed=0xDEADBEEF)
    bits = benchmark(lambda: lfsr.generate_bits(BLOCK))
    assert bits.size == BLOCK


def test_bench_lfsr_reverse_generation(benchmark):
    lfsr = FibonacciLFSR(256, seed=0xDEADBEEF)
    lfsr.generate_bits(BLOCK)

    def roundtrip():
        lfsr.generate_bits_reverse(BLOCK)
        return lfsr.generate_bits(BLOCK)

    bits = benchmark(roundtrip)
    assert bits.size == BLOCK


def test_bench_grng_epsilon_block(benchmark):
    grng = LfsrGaussianRNG(256, seed_index=1, stride=1)
    values = benchmark(lambda: grng.epsilon_block(BLOCK))
    assert values.size == BLOCK


def test_bench_grng_epsilon_block_decorrelated(benchmark):
    grng = LfsrGaussianRNG(256, seed_index=1, stride=256)
    values = benchmark(lambda: grng.epsilon_block(4096))
    assert values.size == 4096


def test_bench_grng_bank_epsilon_blocks(benchmark):
    # The batched multi-stream epsilon path: one call generates BLOCK
    # variables for each of BANK_ROWS Monte-Carlo sample streams.  Per-stream
    # cost must beat the scalar epsilon_block benchmark above by a wide
    # margin (the acceptance bar for this engine was >= 5x).
    bank = GrngBank(n_rows=BANK_ROWS, n_bits=256, stride=1)
    values = benchmark(lambda: bank.epsilon_blocks(BLOCK))
    assert values.shape == (BANK_ROWS, BLOCK)


def test_bench_grng_bank_reverse_retrieval(benchmark):
    bank = GrngBank(n_rows=BANK_ROWS, n_bits=256, stride=1)
    bank.epsilon_blocks(BLOCK)

    def roundtrip():
        bank.epsilon_blocks_reverse(BLOCK)
        return bank.epsilon_blocks(BLOCK)

    values = benchmark(roundtrip)
    assert values.shape == (BANK_ROWS, BLOCK)


def test_bench_stream_bank_per_row_iteration(benchmark):
    # A full generate + checkpoint-replay iteration over 8 reversible sample
    # streams, each sampler driven one at a time: every request is a one-row
    # kernel call (the per-sample oracle path of the trainers).
    bank = StreamBank(8, policy="reversible", seed=0, grng_stride=16)
    shape = (64, 64)

    def iteration():
        for sampler in bank:
            block = sampler.stream.forward_block(shape)
            sampler.stream.retrieve_block(shape)
        bank.finish_iteration()
        return block

    block = benchmark(iteration)
    assert block.shape == shape


def test_bench_weight_sampling_and_retrieval(benchmark):
    bank = StreamBank(1, policy="reversible", seed=0, grng_stride=16)
    sampler = bank.sampler(0)
    mu = np.zeros((256, 64))
    sigma = np.full((256, 64), 0.05)

    def sample_and_retrieve():
        sampler.sample(mu, sigma)
        return sampler.resample(mu, sigma)

    result = benchmark(sample_and_retrieve)
    assert result.weights.shape == (256, 64)


def test_bench_conv2d_forward(benchmark):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, 16, 16, 16))
    weights = rng.normal(size=(32, 16, 3, 3))
    out, _ = benchmark(lambda: F.conv2d_forward(x, weights, None, 1, 1))
    assert out.shape == (8, 32, 16, 16)


def _training_step_time(policy_cls, batches, spec):
    trainer = policy_cls(
        spec.build_bayesian(seed=1),
        TrainerConfig(n_samples=2, learning_rate=5e-3, seed=3, grng_stride=32),
    )
    x, y = batches[0]

    def step():
        return trainer.train_step(x, y, kl_weight=0.01)

    return trainer, step


def test_bench_training_step_stored_epsilons(benchmark):
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(64, 32, image_size=14, seed=1)
    batches = BatchLoader(train, batch_size=32, flatten=True).batches()
    _, step = _training_step_time(BaselineBNNTrainer, batches, spec)
    report = benchmark(step)
    assert np.isfinite(report.total)


def test_bench_training_step_shift_bnn(benchmark):
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(64, 32, image_size=14, seed=1)
    batches = BatchLoader(train, batch_size=32, flatten=True).batches()
    _, step = _training_step_time(ShiftBNNTrainer, batches, spec)
    report = benchmark(step)
    assert np.isfinite(report.total)


def test_bench_accelerator_simulation_sweep(benchmark):
    from repro.accel import simulate_training_iteration, standard_comparison_set
    from repro.models import paper_models

    models = paper_models()

    def sweep():
        return [
            simulate_training_iteration(accel, spec, 16).energy_joules
            for accel in standard_comparison_set()
            for spec in models.values()
        ]

    energies = benchmark(sweep)
    assert len(energies) == 20
    assert all(value > 0 for value in energies)
