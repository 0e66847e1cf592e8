"""Unit tests for the Bayesian network container, trainers and prediction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import (
    BaselineBNNTrainer,
    BNNTrainer,
    BayesDense,
    BayesianNetwork,
    GaussianPrior,
    ShiftBNNTrainer,
    TrainerConfig,
    mc_predict,
)
from repro.core import StreamBank
from repro.datasets import BatchLoader, synthetic_mnist
from repro.models import get_model
from repro.nn import Dense, QuantizationConfig, ReLU
from conftest import build_tiny_bayes_network


def make_mlp(seed: int = 0, in_features: int = 6, classes: int = 3) -> BayesianNetwork:
    rng = np.random.default_rng(seed)
    return BayesianNetwork(
        [
            BayesDense(in_features, 8, rng=rng, name="fc1"),
            ReLU(),
            BayesDense(8, classes, rng=rng, name="fc2"),
        ],
        name="test-mlp",
    )


def toy_batches(rng, n=96, in_features=6, classes=3, batch_size=32):
    prototypes = rng.normal(size=(classes, in_features))
    labels = rng.integers(0, classes, size=n)
    x = prototypes[labels] * 2.0 + rng.normal(size=(n, in_features))
    return [
        (x[i : i + batch_size], labels[i : i + batch_size])
        for i in range(0, n, batch_size)
    ]


class ThreeCallSampler:
    """A sampler with nothing but ``n_samples``, ``sample`` and ``resample``
    (the whole protocol model code may use), logging each call."""

    __slots__ = ("_sampler", "n_samples", "calls")

    def __init__(self, sampler) -> None:
        self._sampler = sampler
        self.n_samples = sampler.n_samples
        self.calls: list[tuple[str, tuple[int, ...]]] = []

    def sample(self, mu, sigma):
        self.calls.append(("sample", mu.shape))
        return self._sampler.sample(mu, sigma)

    def resample(self, mu, sigma):
        self.calls.append(("resample", mu.shape))
        return self._sampler.resample(mu, sigma)


class TestBayesianNetwork:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            BayesianNetwork([])

    def test_requires_at_least_one_bayesian_layer(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BayesianNetwork([Dense(4, 2, rng=rng), ReLU()])

    def test_structure_queries(self):
        model = make_mlp()
        assert len(model.bayesian_layers()) == 2
        assert model.n_bayesian_weights == 6 * 8 + 8 * 3
        assert model.parameter_count == 2 * (6 * 8) + 8 + 2 * (8 * 3) + 3
        assert len(model) == 3
        assert len(list(model)) == 3

    def test_forward_backward_sample_roundtrip(self, rng):
        model = make_mlp()
        bank = StreamBank(1, seed=1, grng_stride=8)
        x = rng.normal(size=(4, 6))
        out = model.forward_sample(x, bank.sampler(0))
        assert out.shape == (4, 3)
        grad = model.backward_sample(np.ones_like(out), bank.sampler(0), kl_weight=0.1)
        assert grad.shape == x.shape
        bank.finish_iteration()

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    def test_a_training_pass_needs_only_sample_and_resample(self, rng, policy):
        x = rng.normal(size=(3, 1, 4, 4))
        passes = []
        for wrap in (False, True):
            model = build_tiny_bayes_network()
            model.train()
            bank = StreamBank(2, policy=policy, seed=1, grng_stride=8)
            sampler = bank.batched_sampler()
            if wrap:
                sampler = ThreeCallSampler(sampler)
            logits = model.forward_samples(x, sampler)
            model.backward_samples(np.ones_like(logits), sampler, kl_weight=0.1)
            bank.finish_iteration()
            grads = [param.grad.tobytes() for param in model.parameters()]
            passes.append((logits.tobytes(), grads, bank.grng_bank.states()))
        assert passes[0] == passes[1]
        layers = model.bayesian_layers()
        shapes = [layer.weight_posterior.mu.value.shape for layer in layers]
        assert sampler.calls == [("sample", shape) for shape in shapes] + [
            ("resample", shape) for shape in reversed(shapes)
        ]

    def test_zero_grad(self, rng):
        model = make_mlp()
        bank = StreamBank(1, seed=1, grng_stride=8)
        x = rng.normal(size=(2, 6))
        out = model.forward_sample(x, bank.sampler(0))
        model.backward_sample(np.ones_like(out), bank.sampler(0), kl_weight=0.1)
        model.zero_grad()
        assert all(np.all(p.grad == 0) for p in model.parameters())

    def test_complexity_zero_when_posterior_matches_prior(self):
        rng = np.random.default_rng(0)
        from repro.nn.initializers import Zeros

        model = BayesianNetwork(
            [BayesDense(4, 2, rng=rng, mu_init=Zeros(), initial_sigma=0.5)],
            prior=GaussianPrior(0.5),
        )
        assert model.complexity() == pytest.approx(0.0, abs=1e-9)

    def test_complexity_positive_generally(self):
        assert make_mlp().complexity() > 0

    def test_quantization_propagates_to_layers(self):
        model = make_mlp()
        config = QuantizationConfig.from_word_length(8)
        model.quantization = config
        assert all(layer.quantization is config for layer in model.bayesian_layers())

    def test_summary(self):
        text = make_mlp().summary()
        assert "fc1" in text and "bayes" in text

    def test_mixed_deterministic_and_bayesian(self, rng):
        model = build_tiny_bayes_network()
        bank = StreamBank(1, seed=3, grng_stride=8)
        x = rng.normal(size=(2, 1, 4, 4))
        out = model.forward_sample(x, bank.sampler(0))
        assert out.shape == (2, 3)
        grad = model.backward_sample(np.ones_like(out), bank.sampler(0), kl_weight=0.0)
        assert grad.shape == x.shape


class TestTrainerConfig:
    def test_defaults_valid(self):
        TrainerConfig()

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            TrainerConfig(n_samples=0)

    def test_invalid_optimizer(self):
        with pytest.raises(ValueError):
            TrainerConfig(optimizer="rmsprop")

    def test_invalid_quantization(self):
        with pytest.raises(ValueError):
            TrainerConfig(quantization_bits=12)

    def test_invalid_lfsr_bits(self):
        # Must fail at configuration time, not deep inside the LFSR core.
        with pytest.raises(ValueError, match="lfsr_bits"):
            TrainerConfig(lfsr_bits=-1)
        with pytest.raises(ValueError, match="lfsr_bits"):
            TrainerConfig(lfsr_bits=100)

    def test_invalid_grng_stride(self):
        with pytest.raises(ValueError, match="grng_stride"):
            TrainerConfig(grng_stride=0)
        with pytest.raises(ValueError, match="grng_stride"):
            TrainerConfig(grng_stride=-3)

    def test_all_tabulated_widths_accepted(self):
        for width in (8, 16, 64, 256):
            TrainerConfig(lfsr_bits=width)


class TestTrainers:
    def test_policy_selection(self):
        base = BaselineBNNTrainer(make_mlp(), TrainerConfig(n_samples=1, grng_stride=8))
        shift = ShiftBNNTrainer(make_mlp(), TrainerConfig(n_samples=1, grng_stride=8))
        assert base.bank.policy == "stored"
        assert shift.bank.policy == "reversible"

    def test_train_step_returns_report_and_updates_history(self, rng):
        trainer = ShiftBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=2, grng_stride=8, learning_rate=1e-2)
        )
        batches = toy_batches(rng)
        report = trainer.train_step(*batches[0], kl_weight=0.01)
        assert report.total == pytest.approx(report.nll + 0.01 * report.complexity)
        assert trainer.history.steps == 1

    def test_fit_reduces_loss(self, rng):
        trainer = ShiftBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=2, grng_stride=8, learning_rate=1e-2)
        )
        batches = toy_batches(rng)
        history = trainer.fit(batches, epochs=8)
        assert history.epoch_losses[-1] < history.epoch_losses[0]
        assert history.epoch_accuracies[-1] > 0.5

    def test_fit_requires_batches(self):
        trainer = ShiftBNNTrainer(make_mlp(), TrainerConfig(n_samples=1, grng_stride=8))
        with pytest.raises(ValueError):
            trainer.fit([], epochs=1)

    def test_fit_with_validation_records_accuracy(self, rng):
        trainer = ShiftBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=2, grng_stride=8, learning_rate=1e-2)
        )
        batches = toy_batches(rng)
        x_val, y_val = batches[-1]
        history = trainer.fit(batches[:-1], epochs=2, validation=(x_val, y_val))
        assert len(history.validation_accuracies) == 2

    def test_sgd_optimizer_option(self, rng):
        trainer = ShiftBNNTrainer(
            make_mlp(),
            TrainerConfig(n_samples=1, grng_stride=8, optimizer="sgd", learning_rate=1e-2),
        )
        batches = toy_batches(rng)
        trainer.fit(batches, epochs=1)

    def test_quantized_trainer_sets_model_quantization(self):
        trainer = ShiftBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=1, grng_stride=8, quantization_bits=16)
        )
        assert trainer.model.quantization.weight_format is not None

    def test_epsilon_traffic_accounting_differs_by_policy(self, rng):
        batches = toy_batches(rng)
        base = BaselineBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=2, grng_stride=8, learning_rate=1e-2)
        )
        shift = ShiftBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=2, grng_stride=8, learning_rate=1e-2)
        )
        base.fit(batches, epochs=1)
        shift.fit(batches, epochs=1)
        assert base.epsilon_offchip_bytes() > 0
        assert shift.epsilon_offchip_bytes() == 0
        assert shift.epsilon_footprint_bytes() < base.epsilon_footprint_bytes()

    def test_evaluate_returns_probability_of_correct_range(self, rng):
        trainer = ShiftBNNTrainer(
            make_mlp(), TrainerConfig(n_samples=2, grng_stride=8, learning_rate=1e-2)
        )
        batches = toy_batches(rng)
        trainer.fit(batches, epochs=2)
        accuracy = trainer.evaluate(*batches[0])
        assert 0.0 <= accuracy <= 1.0


    @pytest.mark.parametrize(
        ("trainer_cls", "policy"),
        [(BaselineBNNTrainer, "stored"), (ShiftBNNTrainer, "reversible")],
        ids=["stored", "reversible"],
    )
    def test_named_trainer_steps_like_its_policy(self, trainer_cls, policy):
        spec = get_model("B-MLP", reduced=True)
        train, _ = synthetic_mnist(64, 32, image_size=14, seed=1)
        batches = BatchLoader(train, batch_size=32, flatten=True).batches()
        config = TrainerConfig(n_samples=2, learning_rate=5e-3, seed=3, grng_stride=32)
        named = trainer_cls(spec.build_bayesian(seed=1), config)
        plain = BNNTrainer(spec.build_bayesian(seed=1), config, policy=policy)
        for x, y in batches:
            report = named.train_step(x, y, kl_weight=0.01)
            assert np.isfinite(report.total)
            assert report.total == plain.train_step(x, y, kl_weight=0.01).total
        for mine, theirs in zip(named.model.parameters(), plain.model.parameters()):
            assert mine.value.tobytes() == theirs.value.tobytes()


class TestMCPredict:
    def test_shapes_and_probabilities(self, rng):
        model = make_mlp()
        x = rng.normal(size=(5, 6))
        result = mc_predict(model, x, n_samples=4, grng_stride=8)
        assert result.sample_probabilities.shape == (4, 5, 3)
        assert np.allclose(result.mean_probabilities.sum(axis=1), 1.0)
        assert result.predictions.shape == (5,)

    def test_uncertainty_decomposition(self, rng):
        model = make_mlp()
        x = rng.normal(size=(5, 6))
        result = mc_predict(model, x, n_samples=4, grng_stride=8)
        assert np.all(result.entropy >= -1e-9)
        assert np.all(result.epistemic_entropy >= -1e-6)
        assert np.allclose(
            result.entropy, result.aleatoric_entropy + result.epistemic_entropy, atol=1e-9
        )

    def test_requires_positive_samples(self, rng):
        with pytest.raises(ValueError):
            mc_predict(make_mlp(), rng.normal(size=(2, 6)), n_samples=0)

    def test_deterministic_given_seed(self, rng):
        model = make_mlp()
        x = rng.normal(size=(3, 6))
        a = mc_predict(model, x, n_samples=3, seed=5, grng_stride=8)
        b = mc_predict(model, x, n_samples=3, seed=5, grng_stride=8)
        assert np.allclose(a.mean_probabilities, b.mean_probabilities)

    def test_restores_training_mode(self, rng):
        model = make_mlp()
        model.train()
        mc_predict(model, rng.normal(size=(2, 6)), n_samples=2, grng_stride=8)
        assert model.training

    def test_does_not_clobber_eval_mode(self, rng):
        # Regression: mc_predict unconditionally called model.train() on
        # exit, flipping a caller's eval-mode model back into training mode.
        model = make_mlp()
        model.eval()
        mc_predict(model, rng.normal(size=(2, 6)), n_samples=2, grng_stride=8)
        assert not model.training

    def test_restores_mixed_per_layer_modes(self, rng):
        # Per-layer restore: a deliberately frozen (eval) layer inside a
        # training-mode model must stay frozen after prediction.
        model = make_mlp()
        model.train()
        model.layers[0].eval()
        mc_predict(model, rng.normal(size=(2, 6)), n_samples=2, grng_stride=8)
        assert [layer.training for layer in model.layers] == [False, True, True]
