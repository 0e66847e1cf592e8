"""Integration tests: Shift-BNN training is bit-identical to the stored baseline.

This is the functional core of the paper's "no accuracy loss" claim (Fig. 9):
because reversed LFSR shifting regenerates exactly the epsilons the forward
pass used, the Shift-BNN trainer follows the same parameter trajectory as a
trainer that stores every epsilon.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.traffic import TrafficConfig, compute_memory_footprint
from repro.bnn import BaselineBNNTrainer, BNNTrainer, ShiftBNNTrainer, TrainerConfig
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.models import get_model


def train_pair(spec, batches, config, policies=("stored", "reversible")):
    trainers = []
    for policy in policies:
        model = spec.build_bayesian(seed=99)
        trainer = BNNTrainer(model, config, policy=policy)
        trainer.fit(batches, epochs=2)
        trainers.append(trainer)
    return trainers


@pytest.fixture(scope="module")
def mlp_setup():
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(n_train=96, n_test=32, image_size=14, seed=3)
    batches = BatchLoader(train, batch_size=32, flatten=True).batches()
    return spec, batches


@pytest.fixture(scope="module")
def lenet_setup():
    spec = get_model("B-LeNet", reduced=True)
    train, _ = synthetic_cifar10(n_train=64, n_test=32, image_size=16, seed=5)
    batches = BatchLoader(train, batch_size=32).batches()
    return spec, batches


class TestBitExactEquivalence:
    def test_mlp_losses_and_parameters_identical(self, mlp_setup):
        spec, batches = mlp_setup
        config = TrainerConfig(n_samples=2, learning_rate=5e-3, seed=11, grng_stride=32)
        baseline, shift = train_pair(spec, batches, config)
        assert np.allclose(baseline.history.losses, shift.history.losses, rtol=0, atol=0)
        for a, b in zip(baseline.model.parameters(), shift.model.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_convnet_losses_identical(self, lenet_setup):
        spec, batches = lenet_setup
        config = TrainerConfig(n_samples=2, learning_rate=5e-3, seed=13, grng_stride=32)
        baseline, shift = train_pair(spec, batches, config)
        assert np.allclose(baseline.history.losses, shift.history.losses, rtol=0, atol=0)

    def test_hardware_faithful_reverse_shifting_also_identical(self, mlp_setup):
        spec, batches = mlp_setup
        config = TrainerConfig(n_samples=1, learning_rate=5e-3, seed=17, grng_stride=8)
        baseline, hardware = train_pair(
            spec, batches, config, policies=("stored", "reversible")
        )
        assert np.allclose(baseline.history.losses, hardware.history.losses, rtol=0, atol=0)
        for a, b in zip(baseline.model.parameters(), hardware.model.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_equivalence_holds_under_quantised_training(self, mlp_setup):
        spec, batches = mlp_setup
        config = TrainerConfig(
            n_samples=2, learning_rate=5e-3, seed=19, grng_stride=32, quantization_bits=16
        )
        baseline, shift = train_pair(spec, batches, config)
        assert np.allclose(baseline.history.losses, shift.history.losses, rtol=0, atol=0)

    def test_different_seeds_do_differ(self, mlp_setup):
        """Sanity check that the equivalence is not an artefact of a constant path."""
        spec, batches = mlp_setup
        a = BNNTrainer(
            spec.build_bayesian(seed=99),
            TrainerConfig(n_samples=2, learning_rate=5e-3, seed=1, grng_stride=32),
            policy="reversible",
        )
        b = BNNTrainer(
            spec.build_bayesian(seed=99),
            TrainerConfig(n_samples=2, learning_rate=5e-3, seed=2, grng_stride=32),
            policy="reversible",
        )
        a.fit(batches, epochs=1)
        b.fit(batches, epochs=1)
        assert not np.allclose(a.history.losses, b.history.losses)


class TestTrafficSideOfEquivalence:
    def test_shift_bnn_eliminates_epsilon_traffic_during_real_training(self, mlp_setup):
        spec, batches = mlp_setup
        config = TrainerConfig(n_samples=2, learning_rate=5e-3, seed=11, grng_stride=32)
        baseline = BaselineBNNTrainer(spec.build_bayesian(seed=0), config)
        shift = ShiftBNNTrainer(spec.build_bayesian(seed=0), config)
        baseline.fit(batches, epochs=1)
        shift.fit(batches, epochs=1)
        assert shift.epsilon_offchip_bytes() == 0
        assert baseline.epsilon_offchip_bytes() > 0
        # the baseline stores one epsilon (2 bytes) per weight per sample per step
        weights = spec.weight_count
        expected_write = weights * 2 * config.n_samples
        assert baseline.epsilon_footprint_bytes() >= expected_write

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    @pytest.mark.parametrize("setup", ["mlp_setup", "lenet_setup"])
    def test_epsilon_footprint_equals_the_analytic_model(self, request, setup, policy):
        """The engine's counted footprint is the Fig. 14 model's epsilon bytes:
        every weight of every sample under ``stored``, nothing under LFSR
        reversal (no epsilon and no register checkpoint is kept)."""
        spec, batches = request.getfixturevalue(setup)
        config = TrainerConfig(n_samples=4, learning_rate=5e-3, seed=7, grng_stride=32)
        trainer = BNNTrainer(spec.build_bayesian(seed=0), config, policy=policy)
        trainer.train_step(*batches[0], kl_weight=1 / 64)
        model = compute_memory_footprint(
            spec, 4, TrafficConfig(lfsr_reversal=policy == "reversible")
        )
        assert trainer.epsilon_footprint_bytes() == model.epsilon_bytes
