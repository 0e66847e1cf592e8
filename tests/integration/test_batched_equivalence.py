"""Batched vs. sequential execution: bit-identical training and prediction.

PR 2's batched Monte-Carlo engine executes the whole ``(S, batch, ...)``
FW/BW/GC pipeline in one pass.  These tests pin its defining property: for
both stream policies and at both ends of the stride range (the
hardware-faithful sliding window and the default non-overlapping patterns),
the batched path follows *exactly* the same parameter trajectory and produces
*exactly* the same probabilities as the per-sample loop -- the same
bit-equivalence contract Fig. 9 establishes between the stored and reversible
policies.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import BNNTrainer, TrainerConfig, mc_predict
from repro.bnn.serialization import state_fingerprint, tensor_fingerprint
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.models import get_model


@pytest.fixture(scope="module")
def mlp_setup():
    spec = get_model("B-MLP", reduced=True)
    train, test = synthetic_mnist(n_train=64, n_test=32, image_size=14, seed=3)
    batches = BatchLoader(train, batch_size=32, flatten=True).batches()
    return spec, batches, test


@pytest.fixture(scope="module")
def lenet_setup():
    spec = get_model("B-LeNet", reduced=True)
    train, test = synthetic_cifar10(n_train=64, n_test=32, image_size=16, seed=5)
    batches = BatchLoader(train, batch_size=32).batches()
    return spec, batches, test


def _train_pair(spec, batches, policy, stride, epochs=2):
    trainers = []
    for batched in (False, True):
        config = TrainerConfig(
            n_samples=3,
            learning_rate=5e-3,
            seed=11,
            grng_stride=stride,
            batched=batched,
        )
        trainer = BNNTrainer(spec.build_bayesian(seed=99), config, policy=policy)
        trainer.fit(batches, epochs=epochs)
        trainers.append(trainer)
    return trainers


class TestTrainStepEquivalence:
    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    @pytest.mark.parametrize("stride", [1, 256])
    def test_mlp_parameter_trajectories_bit_identical(
        self, mlp_setup, policy, stride
    ):
        spec, batches, _ = mlp_setup
        sequential, batched = _train_pair(spec, batches, policy, stride)
        assert sequential.history.losses == batched.history.losses
        assert (
            sequential.history.train_accuracies == batched.history.train_accuracies
        )
        for seq_param, bat_param in zip(
            sequential.model.parameters(), batched.model.parameters()
        ):
            assert np.array_equal(seq_param.value, bat_param.value), seq_param.name

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    def test_conv_parameter_trajectories_bit_identical(self, lenet_setup, policy):
        spec, batches, _ = lenet_setup
        sequential, batched = _train_pair(spec, batches, policy, stride=32, epochs=1)
        assert sequential.history.losses == batched.history.losses
        for seq_param, bat_param in zip(
            sequential.model.parameters(), batched.model.parameters()
        ):
            assert np.array_equal(seq_param.value, bat_param.value), seq_param.name

    def test_hardware_faithful_policy_also_bit_identical(self, mlp_setup):
        spec, batches, _ = mlp_setup
        sequential, batched = _train_pair(
            spec, batches, "reversible-hw", stride=8, epochs=1
        )
        assert sequential.history.losses == batched.history.losses

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    def test_traffic_accounting_matches(self, mlp_setup, policy):
        spec, batches, _ = mlp_setup
        sequential, batched = _train_pair(spec, batches, policy, stride=32, epochs=1)
        assert (
            sequential.epsilon_offchip_bytes() == batched.epsilon_offchip_bytes()
        )
        assert (
            sequential.epsilon_footprint_bytes()
            == batched.epsilon_footprint_bytes()
        )

    def test_mixed_deterministic_layers_bit_identical(self, mlp_setup):
        """Trainable deterministic layers must also accumulate per sample."""
        from repro.bnn import BayesianNetwork, BayesDense
        from repro.nn.layers import Dense, ReLU

        _, batches, _ = mlp_setup
        x, y = batches[0]

        def build():
            rng_seed = 13
            return BayesianNetwork(
                [
                    BayesDense(196, 24, rng=np.random.default_rng(rng_seed)),
                    ReLU(),
                    Dense(24, 10, rng=np.random.default_rng(rng_seed + 1)),
                ]
            )

        config = TrainerConfig(n_samples=3, seed=21, grng_stride=32)
        sequential = BNNTrainer(build(), config, policy="reversible")
        batched = BNNTrainer(build(), config, policy="reversible")
        for _ in range(3):
            sequential.train_step(x, y, kl_weight=0.01, batched=False)
            batched.train_step(x, y, kl_weight=0.01, batched=True)
        assert sequential.history.losses == batched.history.losses
        for seq_param, bat_param in zip(
            sequential.model.parameters(), batched.model.parameters()
        ):
            assert np.array_equal(seq_param.value, bat_param.value), seq_param.name

    def test_modes_interleave_within_one_run(self, mlp_setup):
        """Steps may switch modes mid-run without changing the trajectory."""
        spec, batches, _ = mlp_setup
        x, y = batches[0]
        config = TrainerConfig(n_samples=2, seed=7, grng_stride=32)
        reference = BNNTrainer(spec.build_bayesian(seed=4), config, policy="reversible")
        mixed = BNNTrainer(spec.build_bayesian(seed=4), config, policy="reversible")
        for step in range(4):
            reference.train_step(x, y, kl_weight=0.01, batched=False)
            mixed.train_step(x, y, kl_weight=0.01, batched=bool(step % 2))
        assert reference.history.losses == mixed.history.losses
        for seq_param, bat_param in zip(
            reference.model.parameters(), mixed.model.parameters()
        ):
            assert np.array_equal(seq_param.value, bat_param.value)


class TestPredictEquivalence:
    @pytest.mark.parametrize("stride", [1, 256])
    def test_mlp_probabilities_bit_identical(self, mlp_setup, stride):
        spec, _, test = mlp_setup
        model = spec.build_bayesian(seed=42)
        x = test.flatten_images()
        sequential = mc_predict(
            model, x, n_samples=5, grng_stride=stride, batched=False
        )
        batched = mc_predict(model, x, n_samples=5, grng_stride=stride, batched=True)
        assert np.array_equal(
            sequential.sample_probabilities, batched.sample_probabilities
        )
        assert np.array_equal(sequential.entropy, batched.entropy)
        assert np.array_equal(
            sequential.aleatoric_entropy, batched.aleatoric_entropy
        )
        assert np.array_equal(
            sequential.epistemic_entropy, batched.epistemic_entropy
        )

    def test_conv_probabilities_bit_identical(self, lenet_setup):
        spec, _, test = lenet_setup
        model = spec.build_bayesian(seed=42)
        sequential = mc_predict(
            model, test.images, n_samples=4, grng_stride=32, batched=False
        )
        batched = mc_predict(
            model, test.images, n_samples=4, grng_stride=32, batched=True
        )
        assert np.array_equal(
            sequential.sample_probabilities, batched.sample_probabilities
        )

    def test_per_row_sequential_matches_lockstep_sequential(self, mlp_setup):
        """The benchmark baselines themselves agree bit for bit."""
        spec, _, test = mlp_setup
        model = spec.build_bayesian(seed=42)
        x = test.flatten_images()
        lockstep = mc_predict(model, x, n_samples=4, grng_stride=32, batched=False)
        per_row = mc_predict(
            model, x, n_samples=4, grng_stride=32, batched=False, lockstep=False
        )
        assert np.array_equal(
            lockstep.sample_probabilities, per_row.sample_probabilities
        )

    def test_eval_mode_restored_after_batched_predict(self, mlp_setup):
        spec, _, test = mlp_setup
        model = spec.build_bayesian(seed=42)
        model.train()
        mc_predict(model, test.flatten_images()[:4], n_samples=2, batched=True)
        assert model.training
        model.eval()
        mc_predict(model, test.flatten_images()[:4], n_samples=2, batched=True)
        assert not model.training


# ----------------------------------------------------------------------
# the batched training pass's step workspace
# ----------------------------------------------------------------------
def _fingerprint(trainer) -> str:
    return state_fingerprint(
        (param.name, tensor_fingerprint(param.value))
        for param in trainer.model.parameters()
    )


def _lenet_trainer(spec, batched, build_seed=99):
    config = TrainerConfig(
        n_samples=3, learning_rate=5e-3, seed=11, grng_stride=32, batched=batched
    )
    return BNNTrainer(spec.build_bayesian(seed=build_seed), config, policy="stored")


def _held(model) -> dict:
    """The workspace's buffers by key (empty without a workspace)."""
    return {} if model._workspace is None else dict(model._workspace._held)


class TestStepWorkspace:
    def test_fit_with_a_smaller_last_minibatch(self, lenet_setup):
        spec, batches, _ = lenet_setup
        x, y = batches[0]
        ragged = [*batches, (x[:8], y[:8])]  # every epoch ends on a short batch
        sequential, batched = (_lenet_trainer(spec, flag) for flag in (False, True))
        for trainer in (sequential, batched):
            trainer.fit(ragged, epochs=2)
        assert _fingerprint(batched) == _fingerprint(sequential)
        assert batched.history.losses == sequential.history.losses

    def test_buffers_are_reused_while_the_shapes_match(self, lenet_setup):
        spec, batches, _ = lenet_setup
        trainer = _lenet_trainer(spec, batched=True)
        (x, y), (x2, y2) = batches[:2]
        trainer.train_step(x, y, kl_weight=0.05)
        first = _held(trainer.model)
        # column matrices (1 shared + S), pooled/argmax/scatter target per
        # pool, one col2im target: layer 0 computes no input gradient
        assert len(first) == (1 + 3) + 2 * 3 + 1
        trainer.train_step(x2, y2, kl_weight=0.05)
        second = _held(trainer.model)
        assert second.keys() == first.keys()
        assert all(second[key] is first[key] for key in first)
        trainer.train_step(x[:8], y[:8], kl_weight=0.05)  # a new batch size
        third = _held(trainer.model)
        assert third.keys() == first.keys()
        assert not any(third[key] is first[key] for key in first)
        # between steps nothing is on loan
        assert all(layer._workspace is None for layer in trainer.model.layers)

    def test_mc_predict_between_two_train_steps(self, lenet_setup):
        spec, batches, test = lenet_setup
        (x, y), (x2, y2) = batches[:2]
        trainers = [_lenet_trainer(spec, flag) for flag in (False, True)]
        predictions = []
        for trainer in trainers:
            trainer.train_step(x, y, kl_weight=0.05)
            predictions.append(
                mc_predict(trainer.model, test.images, n_samples=3, grng_stride=32)
            )
            # forward-only: the pass ran in evaluation mode on fresh arrays and
            # its release dropped the workspace the training step had kept
            assert trainer.model._workspace is None
            assert all(layer._workspace is None for layer in trainer.model.layers)
            assert trainer.model.training
            trainer.train_step(x2, y2, kl_weight=0.05)
        sequential, batched = trainers
        assert _fingerprint(batched) == _fingerprint(sequential)
        assert np.array_equal(
            predictions[0].sample_probabilities, predictions[1].sample_probabilities
        )

    def test_forward_only_predict_never_creates_a_workspace(self, lenet_setup):
        spec, _, test = lenet_setup
        model = spec.build_bayesian(seed=42)
        first = mc_predict(model, test.images, n_samples=3, grng_stride=32)
        kept = first.sample_probabilities.copy()
        mc_predict(model, test.images[:5], n_samples=3, grng_stride=32)
        assert model._workspace is None
        assert all(layer._workspace is None for layer in model.layers)
        assert np.array_equal(first.sample_probabilities, kept)

    def test_two_trainers_of_identical_shape_in_one_process(self, lenet_setup):
        spec, batches, _ = lenet_setup
        order_a, order_b = batches, batches[::-1]
        references = []
        for order, seed in ((order_a, 1), (order_b, 2)):
            reference = _lenet_trainer(spec, batched=False, build_seed=seed)
            for x, y in order:
                reference.train_step(x, y, kl_weight=0.05)
            references.append(_fingerprint(reference))
        first = _lenet_trainer(spec, batched=True, build_seed=1)
        second = _lenet_trainer(spec, batched=True, build_seed=2)
        for (xa, ya), (xb, yb) in zip(order_a, order_b):  # interleaved steps
            first.train_step(xa, ya, kl_weight=0.05)
            second.train_step(xb, yb, kl_weight=0.05)
        assert [_fingerprint(first), _fingerprint(second)] == references
        shared = set(map(id, _held(first.model).values())) & set(
            map(id, _held(second.model).values())
        )
        assert not shared

    def test_two_conv_layers_sharing_every_buffer_shape(self):
        from repro.bnn import BayesConv2D, BayesDense, BayesianNetwork
        from repro.nn.layers import Flatten, MaxPool2D, ReLU

        def build():
            rng = np.random.default_rng(17)
            # unnamed on purpose: both convs are called "BayesConv2D", both
            # pools "MaxPool2D", and each pair asks for identical shapes
            return BayesianNetwork(
                [
                    BayesConv2D(4, 4, 3, padding=1, rng=rng),
                    ReLU(),
                    MaxPool2D(3, stride=1),
                    BayesConv2D(4, 4, 3, padding=1, rng=rng),
                    ReLU(),
                    MaxPool2D(3, stride=1),
                    BayesConv2D(4, 4, 3, padding=1, rng=rng),
                    Flatten(),
                    BayesDense(4 * 4 * 4, 5, rng=rng),
                ]
            )

        rng = np.random.default_rng(5)
        data = [
            (rng.standard_normal((6, 4, 8, 8)), rng.integers(0, 5, size=6))
            for _ in range(3)
        ]
        trainers = []
        for batched in (False, True):
            config = TrainerConfig(n_samples=3, seed=21, grng_stride=32, batched=batched)
            trainer = BNNTrainer(build(), config, policy="reversible")
            for x, y in data:
                trainer.train_step(x, y, kl_weight=0.01)
            trainers.append(trainer)
        sequential, batched = trainers
        assert _fingerprint(batched) == _fingerprint(sequential)
        assert batched.history.losses == sequential.history.losses
        shapes = [held.shape for held in _held(batched.model).values()]
        assert len(shapes) > len(set(shapes))  # equal shapes, separate buffers

    def test_dense_model_holds_no_buffers(self, mlp_setup):
        spec, batches, _ = mlp_setup
        config = TrainerConfig(n_samples=3, seed=11, grng_stride=32)
        trainer = BNNTrainer(spec.build_bayesian(seed=99), config, policy="reversible")
        trainer.train_step(*batches[0])
        assert _held(trainer.model) == {}

    @pytest.mark.parametrize("ends_in_pool", [False, True])
    def test_nothing_step_n_returned_changes_during_step_n_plus_1(
        self, lenet_setup, ends_in_pool
    ):
        from repro.bnn import BayesConv2D, BayesianNetwork
        from repro.core import StreamBank
        from repro.nn.layers import MaxPool2D, ReLU

        spec, batches, _ = lenet_setup
        if ends_in_pool:  # the returned array comes straight out of a pooling layer
            model = BayesianNetwork(
                [BayesConv2D(3, 4, 3, padding=1), ReLU(), MaxPool2D(2)]
            )
        else:
            model = spec.build_bayesian(seed=9)
        bank = StreamBank(n_samples=3, seed=3, policy="stored")
        model.train()
        returned = []
        for x, _ in batches[:2]:
            model.zero_grad()
            sampler = bank.batched_sampler()
            logits = model.forward_samples(x, sampler)
            assert not model._workspace.owns(logits)
            returned.append((logits, logits.tobytes()))
            model.backward_samples(np.ones_like(logits), sampler, kl_weight=0.0)
            bank.finish_iteration()
            for logits, frozen in returned:
                assert logits.tobytes() == frozen
        # and what a trainer hands back: the report and the history
        trainer = _lenet_trainer(spec, batched=True)
        first = trainer.train_step(*batches[0], kl_weight=0.05)
        snapshot = (first.nll, first.complexity, list(trainer.history.losses))
        trainer.train_step(*batches[1], kl_weight=0.05)
        assert (first.nll, first.complexity) == snapshot[:2]
        assert trainer.history.losses[:1] == snapshot[2]

    def test_direct_release_gives_the_workspace_up(self, lenet_setup):
        spec, batches, _ = lenet_setup
        trainer = _lenet_trainer(spec, batched=True)
        trainer.train_step(*batches[0], kl_weight=0.05)
        assert _held(trainer.model)
        trainer.model.release_sample_caches()
        assert trainer.model._workspace is None
        assert all(layer._workspace is None for layer in trainer.model.layers)
