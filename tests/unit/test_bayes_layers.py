"""Unit tests for the Bayesian conv / dense layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import BayesConv2D, BayesDense, GaussianPrior
from conftest import one_row_sampler
from repro.core import BatchedWeightSampler
from repro.nn import QuantizationConfig


def make_sampler(seed_index: int = 0, policy: str = "reversible") -> BatchedWeightSampler:
    return one_row_sampler(policy, n_bits=64, seed_index=seed_index, stride=8)


class TestBayesDense:
    def test_forward_shape(self, rng):
        layer = BayesDense(6, 4, rng=rng)
        out = layer.forward_sample(rng.normal(size=(5, 6)), make_sampler())
        assert out.shape == (5, 4)

    def test_forward_validates_features(self, rng):
        layer = BayesDense(6, 4, rng=rng)
        with pytest.raises(ValueError):
            layer.forward_sample(rng.normal(size=(5, 7)), make_sampler())

    def test_plain_forward_guard(self, rng):
        layer = BayesDense(6, 4, rng=rng)
        with pytest.raises(RuntimeError):
            layer.forward(rng.normal(size=(5, 6)))
        with pytest.raises(RuntimeError):
            layer.backward(rng.normal(size=(5, 4)))

    def test_backward_before_forward_raises(self, rng):
        layer = BayesDense(6, 4, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward_sample(
                rng.normal(size=(5, 4)), make_sampler(), 0.1, GaussianPrior()
            )

    def test_backward_reconstructs_identical_weights(self, rng):
        layer = BayesDense(6, 4, rng=rng, initial_sigma=0.3)
        sampler = make_sampler(seed_index=5)
        x = rng.normal(size=(3, 6))
        out = layer.forward_sample(x, sampler)
        # reconstruct manually through a second sampler with the same seed
        reference = make_sampler(seed_index=5)
        expected_weights = reference.sample(
            layer.weight_posterior.mu.value, layer.weight_posterior.sigma
        ).weights[0]
        assert np.allclose(out, x @ expected_weights + layer.bias.value)
        layer.backward_sample(np.zeros((3, 4)), sampler, 0.0, GaussianPrior())

    def test_gradients_numerically(self, rng, numeric_gradient):
        layer = BayesDense(5, 3, rng=rng, initial_sigma=0.2)
        prior = GaussianPrior(sigma=0.5)
        x = rng.normal(size=(4, 5))
        seed = rng.normal(size=(4, 3))
        beta = 0.3
        probe = make_sampler(seed_index=9, policy="stored")
        epsilon = probe.sample(
            layer.weight_posterior.mu.value, layer.weight_posterior.sigma
        ).epsilon[0]

        def objective():
            sigma = layer.weight_posterior.sigma
            weights = layer.weight_posterior.mu.value + epsilon * sigma
            out = x @ weights + layer.bias.value
            data = float(np.sum(out * seed))
            complexity = layer.weight_posterior.log_prob(weights) - prior.log_prob(weights)
            return data + beta * complexity

        sampler = make_sampler(seed_index=9)
        layer.zero_grad()
        layer.forward_sample(x, sampler)
        grad_in = layer.backward_sample(seed, sampler, beta, prior)
        assert np.allclose(
            layer.weight_posterior.mu.grad,
            numeric_gradient(objective, layer.weight_posterior.mu.value),
            atol=1e-4,
        )
        assert np.allclose(
            layer.weight_posterior.rho.grad,
            numeric_gradient(objective, layer.weight_posterior.rho.value),
            atol=1e-4,
        )
        assert np.allclose(
            layer.bias.grad, numeric_gradient(objective, layer.bias.value), atol=1e-4
        )
        assert np.allclose(grad_in, numeric_gradient(objective, x), atol=1e-4)

    def test_parameter_listing(self, rng):
        layer = BayesDense(6, 4, rng=rng)
        names = {param.name for param in layer.parameters()}
        assert any("mu" in name for name in names)
        assert any("rho" in name for name in names)
        assert any("bias" in name for name in names)
        assert layer.n_bayesian_weights == 24

    def test_no_bias_option(self, rng):
        layer = BayesDense(6, 4, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 2

    def test_quantization_applied_to_weights(self, rng):
        layer = BayesDense(4, 4, rng=rng, initial_sigma=0.1)
        layer.quantization = QuantizationConfig.from_word_length(8)
        out = layer.forward_sample(np.eye(4), make_sampler())
        grid = QuantizationConfig.from_word_length(8).weight_format.scale
        weights = out - layer.bias.value  # identity input exposes the weights
        assert np.allclose(np.round(weights / grid), weights / grid, atol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            BayesDense(0, 3)


class TestBayesConv2D:
    def test_forward_shape(self, rng):
        layer = BayesConv2D(2, 4, kernel_size=3, padding=1, rng=rng)
        out = layer.forward_sample(rng.normal(size=(2, 2, 6, 6)), make_sampler())
        assert out.shape == (2, 4, 6, 6)

    def test_output_shape_helper(self, rng):
        layer = BayesConv2D(2, 4, kernel_size=3, stride=2, padding=1, rng=rng)
        assert layer.output_shape((2, 8, 8)) == (4, 4, 4)

    def test_backward_before_forward_raises(self, rng):
        layer = BayesConv2D(2, 4, kernel_size=3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward_sample(
                rng.normal(size=(1, 4, 4, 4)), make_sampler(), 0.1, GaussianPrior()
            )

    def test_gradients_numerically(self, rng, numeric_gradient):
        layer = BayesConv2D(2, 2, kernel_size=3, padding=1, rng=rng, initial_sigma=0.2)
        prior = GaussianPrior(sigma=0.5)
        x = rng.normal(size=(2, 2, 4, 4))
        seed = rng.normal(size=(2, 2, 4, 4))
        beta = 0.2
        probe = make_sampler(seed_index=11, policy="stored")
        epsilon = probe.sample(
            layer.weight_posterior.mu.value, layer.weight_posterior.sigma
        ).epsilon[0]

        def objective():
            from repro.nn import functional as F

            sigma = layer.weight_posterior.sigma
            weights = layer.weight_posterior.mu.value + epsilon * sigma
            out, _ = F.conv2d_forward(x, weights, layer.bias.value, 1, 1)
            data = float(np.sum(out * seed))
            complexity = layer.weight_posterior.log_prob(weights) - prior.log_prob(weights)
            return data + beta * complexity

        sampler = make_sampler(seed_index=11)
        layer.zero_grad()
        layer.forward_sample(x, sampler)
        grad_in = layer.backward_sample(seed, sampler, beta, prior)
        assert np.allclose(
            layer.weight_posterior.mu.grad,
            numeric_gradient(objective, layer.weight_posterior.mu.value),
            atol=1e-4,
        )
        assert np.allclose(
            layer.weight_posterior.rho.grad,
            numeric_gradient(objective, layer.weight_posterior.rho.value),
            atol=1e-4,
        )
        assert np.allclose(grad_in, numeric_gradient(objective, x), atol=1e-4)

    def test_stored_and_reversible_samplers_agree(self, rng):
        layer = BayesConv2D(2, 3, kernel_size=3, rng=rng, initial_sigma=0.3)
        x = rng.normal(size=(1, 2, 5, 5))
        out_a = layer.forward_sample(x, make_sampler(seed_index=4, policy="stored"))
        out_b = layer.forward_sample(x, make_sampler(seed_index=4, policy="reversible"))
        assert np.allclose(out_a, out_b)

    def test_n_bayesian_weights(self, rng):
        layer = BayesConv2D(2, 4, kernel_size=3, rng=rng)
        assert layer.n_bayesian_weights == 4 * 2 * 9

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            BayesConv2D(2, 4, kernel_size=0)
