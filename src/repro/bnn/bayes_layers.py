"""Bayesian (weight-sampling) layers.

A Bayesian layer owns a :class:`~repro.bnn.posteriors.GaussianPosterior` per
weight tensor and performs the three stages of Fig. 1(a):

* **FW** -- ``forward_sample`` draws ``w = mu + eps * sigma`` through a
  one-row :class:`~repro.core.sampler.BatchedWeightSampler` (slice ``[0]``
  of its one-sample batch) and runs the ordinary layer arithmetic;
* **BW** -- ``backward_sample`` asks the sampler to *re-sample* the identical
  weights (process 2 in the paper: weight reconstruction), propagates the
  error to the previous layer, and
* **GC** -- accumulates the gradients of ``mu`` and ``sigma`` from the
  likelihood gradient, the prior gradient and the retrieved epsilons
  (process 3).

Whether the epsilons come from storage (baseline) or from LFSR reversal
(Shift-BNN) is entirely the sampler's business; the layer code is identical,
which is exactly the paper's "no change to the training algorithm" claim.

Each stage also exists in a *batched* form (``forward_samples`` /
``backward_samples``) that executes all ``S`` Monte-Carlo samples in one
call: activations travel folded as ``(S * batch, ...)``, weights are drawn as
``(S, *weight_shape)`` tensors from a
:class:`~repro.core.sampler.BatchedWeightSampler`, and the GC stage sums over
the sample axis in sample order.  The batched pipeline is bit-identical to
looping the per-sample stages (shared factors are computed once, every
per-sample matmul sees byte-identical operands, and float accumulations keep
the sequential order) -- it changes wall-clock time, never the trajectory.

The hot tensor primitives the batched stages lean on
(:func:`~repro.nn.functional.sample_matmul`, :func:`~repro.nn.functional.im2col`)
route through the pluggable kernel-backend dispatch layer in
:mod:`repro.core.backend`; every registered backend is bit-identical to the
NumPy reference oracle by the conformance gate, so backend selection can never
move a training trajectory or a served probability.
"""

from __future__ import annotations

import numpy as np

from ..core.sampler import BatchedWeightSampler
from ..nn import functional as F
from ..nn.initializers import HeNormal, Initializer
from ..nn.layers import Layer, Parameter
from ..nn.quantization import QuantizationConfig
from ..nn.tensor_utils import check_2d, check_4d, conv_output_size
from .grad_tape import active_tape
from .posteriors import GaussianPosterior
from .priors import Prior

__all__ = ["BayesianLayer", "BayesDense", "BayesConv2D"]


class BayesianLayer(Layer):
    """Common machinery of Bayesian layers (posterior handling, gradients)."""

    def __init__(
        self,
        weight_shape: tuple[int, ...],
        mu_init: Initializer | None,
        initial_sigma: float,
        bias_size: int | None,
        name: str | None,
        rng: np.random.Generator | None,
    ) -> None:
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        mu_init = mu_init or HeNormal()
        self.weight_posterior = GaussianPosterior(
            weight_shape, mu_init, initial_sigma, f"{self.name}.weight", rng
        )
        self.bias = (
            Parameter(f"{self.name}.bias", np.zeros(bias_size, dtype=np.float64))
            if bias_size
            else None
        )
        self.quantization: QuantizationConfig = QuantizationConfig.full_precision()
        self._cache: dict[str, object] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        params = list(self.weight_posterior.parameters())
        if self.bias is not None:
            params.append(self.bias)
        return params

    @property
    def n_bayesian_weights(self) -> int:
        """Number of weights that consume one Gaussian random variable each."""
        return self.weight_posterior.n_weights

    def sample_weights(self, sampler: BatchedWeightSampler) -> np.ndarray:
        """FW-stage weight sampling through a one-row sampler."""
        return self.sample_weights_batch(sampler)[0]

    def resample_weights(
        self, sampler: BatchedWeightSampler
    ) -> tuple[np.ndarray, np.ndarray]:
        """BW-stage reconstruction through a one-row sampler; returns
        (weights, epsilon)."""
        weights, epsilon = self.resample_weights_batch(sampler)
        return weights[0], epsilon[0]

    def sample_weights_batch(self, sampler: BatchedWeightSampler) -> np.ndarray:
        """FW-stage weight sampling for all ``S`` samples: ``(S, *shape)``."""
        posterior = self.weight_posterior
        sampled = sampler.sample(posterior.mu.value, posterior.sigma)
        return self.quantization.quantize_weights(sampled.weights)

    def resample_weights_batch(
        self, sampler: BatchedWeightSampler
    ) -> tuple[np.ndarray, np.ndarray]:
        """BW-stage batch reconstruction; returns ``(S, *shape)`` weights and epsilons."""
        posterior = self.weight_posterior
        sampled = sampler.resample(posterior.mu.value, posterior.sigma)
        return self.quantization.quantize_weights(sampled.weights), sampled.epsilon

    def accumulate_parameter_gradients(
        self,
        grad_weight: np.ndarray,
        epsilon: np.ndarray,
        kl_weight: float,
        prior: Prior,
        sampled_weights: np.ndarray,
        include_entropy_term: bool = True,
    ) -> None:
        """GC-stage update of the variational parameters' gradients."""
        if kl_weight:
            prior_grad = prior.nll_grad(sampled_weights)
        else:
            prior_grad = np.zeros_like(sampled_weights)
        self.weight_posterior.accumulate_gradients(
            grad_weight=grad_weight,
            epsilon=epsilon,
            kl_weight=kl_weight,
            prior_nll_grad=prior_grad,
            include_entropy_term=include_entropy_term,
        )

    def accumulate_sample_parameter_gradients(
        self,
        grad_weight: np.ndarray,
        epsilon: np.ndarray,
        kl_weight: float,
        prior: Prior,
        sampled_weights: np.ndarray,
        include_entropy_term: bool = True,
    ) -> None:
        """Batched GC stage: all inputs carry a leading ``(S, ...)`` sample axis.

        The prior gradient is element-wise, so one call over the stacked
        weights equals the per-sample calls; the posterior then accumulates
        the samples in order (see
        :meth:`~repro.bnn.posteriors.GaussianPosterior.accumulate_sample_gradients`).
        """
        if kl_weight:
            prior_grad, prior_scale = prior.nll_grad_factors(sampled_weights)
        else:
            prior_grad, prior_scale = np.zeros_like(sampled_weights), 1.0
        self.weight_posterior.accumulate_sample_gradients(
            grad_weight=grad_weight,
            epsilon=epsilon,
            kl_weight=kl_weight,
            prior_nll_grad=prior_grad,
            sigma=self.weight_posterior.sigma,
            include_entropy_term=include_entropy_term,
            prior_scale=prior_scale,
        )

    # the plain Layer protocol is not meaningful for Bayesian layers
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError(
            f"{self.name}: Bayesian layers need a sampler; use forward_sample()"
        )

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - guard
        raise RuntimeError(
            f"{self.name}: Bayesian layers need a sampler; use backward_sample()"
        )

    # subclasses implement these
    def forward_sample(self, x: np.ndarray, sampler: BatchedWeightSampler) -> np.ndarray:
        raise NotImplementedError

    def backward_sample(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        kl_weight: float,
        prior: Prior,
        include_entropy_term: bool = True,
    ) -> np.ndarray:
        raise NotImplementedError

    def forward_samples(
        self, x: np.ndarray, sampler: BatchedWeightSampler, n_samples: int
    ) -> np.ndarray:
        """FW stage for all ``S`` samples; ``x`` is folded ``(S * batch, ...)``."""
        raise NotImplementedError

    def backward_samples(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        n_samples: int,
        kl_weight: float,
        prior: Prior,
        include_entropy_term: bool = True,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        """BW + GC stages for all ``S`` samples; gradients folded ``(S * batch, ...)``.

        The network clears ``need_input_grad`` for its first layer, whose
        input gradient nobody reads: the layer then skips that product and
        returns ``None``.
        """
        raise NotImplementedError

    def _fold_bias_grad(self, grad_bias: np.ndarray) -> None:
        """Take the ``(S, n)`` per-sample bias gradients: recorded on the
        active tape for a cross-shard reduction, or else added into
        ``bias.grad`` in sample order (sequential parity)."""
        tape = active_tape()
        if tape is not None:
            tape.record(self.bias.name, grad_bias)
            return
        for row in grad_bias:
            self.bias.grad += row

    @staticmethod
    def _samples_per_batch(x: np.ndarray, n_samples: int, name: str) -> int:
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if x.shape[0] % n_samples:
            raise ValueError(
                f"{name}: folded batch of {x.shape[0]} does not divide into "
                f"{n_samples} Monte-Carlo samples"
            )
        return x.shape[0] // n_samples


class BayesDense(BayesianLayer):
    """Bayesian fully-connected layer with a mean-field Gaussian posterior."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        initial_sigma: float = 0.05,
        mu_init: Initializer | None = None,
        bias: bool = True,
        name: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        super().__init__(
            weight_shape=(in_features, out_features),
            mu_init=mu_init,
            initial_sigma=initial_sigma,
            bias_size=out_features if bias else None,
            name=name,
            rng=rng,
        )

    def forward_sample(self, x: np.ndarray, sampler: BatchedWeightSampler) -> np.ndarray:
        check_2d(x)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} features, got {x.shape[1]}"
            )
        weights = self.sample_weights(sampler)
        self._cache = {"input": x}
        out = x @ weights
        if self.bias is not None:
            out = out + self.bias.value
        return self.quantization.quantize_activations(out)

    def backward_sample(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        kl_weight: float,
        prior: Prior,
        include_entropy_term: bool = True,
    ) -> np.ndarray:
        if "input" not in self._cache:
            raise RuntimeError(f"{self.name}: backward_sample before forward_sample")
        x: np.ndarray = self._cache["input"]  # type: ignore[assignment]
        weights, epsilon = self.resample_weights(sampler)
        grad_weight = x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        grad_input = grad_out @ weights.T
        self.accumulate_parameter_gradients(
            grad_weight=grad_weight,
            epsilon=epsilon,
            kl_weight=kl_weight,
            prior=prior,
            sampled_weights=weights,
            include_entropy_term=include_entropy_term,
        )
        return grad_input

    def forward_samples(
        self, x: np.ndarray, sampler: BatchedWeightSampler, n_samples: int
    ) -> np.ndarray:
        check_2d(x)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} features, got {x.shape[1]}"
            )
        batch = self._samples_per_batch(x, n_samples, self.name)
        weights = self.sample_weights_batch(sampler)
        self._cache = {"input": x, "n_samples": n_samples}
        out = F.sample_matmul(x.reshape(n_samples, batch, self.in_features), weights)
        if self.bias is not None:
            out = out + self.bias.value
        return self.quantization.quantize_activations(out).reshape(
            x.shape[0], self.out_features
        )

    def backward_samples(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        n_samples: int,
        kl_weight: float,
        prior: Prior,
        include_entropy_term: bool = True,
        need_input_grad: bool = True,
    ) -> np.ndarray | None:
        if self._cache.get("n_samples") != n_samples:
            raise RuntimeError(f"{self.name}: backward_samples before forward_samples")
        x: np.ndarray = self._cache["input"]  # type: ignore[assignment]
        batch = x.shape[0] // n_samples
        weights, epsilon = self.resample_weights_batch(sampler)
        x3 = x.reshape(n_samples, batch, self.in_features)
        grad3 = grad_out.reshape(n_samples, batch, self.out_features)
        grad_weight = F.sample_matmul(x3.transpose(0, 2, 1), grad3)
        if self.bias is not None:
            # each sample's grad3[s].sum(axis=0), in one reduce
            self._fold_bias_grad(grad3.sum(axis=1))
        grad_input = None
        if need_input_grad:
            grad_input = F.sample_matmul(grad3, weights.transpose(0, 2, 1)).reshape(
                x.shape[0], self.in_features
            )
        self.accumulate_sample_parameter_gradients(
            grad_weight=grad_weight,
            epsilon=epsilon,
            kl_weight=kl_weight,
            prior=prior,
            sampled_weights=weights,
            include_entropy_term=include_entropy_term,
        )
        return grad_input


class BayesConv2D(BayesianLayer):
    """Bayesian 2-D convolution with a mean-field Gaussian posterior per weight."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        initial_sigma: float = 0.05,
        mu_init: Initializer | None = None,
        bias: bool = True,
        name: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        super().__init__(
            weight_shape=(out_channels, in_channels, kernel_size, kernel_size),
            mu_init=mu_init,
            initial_sigma=initial_sigma,
            bias_size=out_channels if bias else None,
            name=name,
            rng=rng,
        )

    def output_shape(self, input_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """Spatial output shape ``(C, H, W)`` for a given ``(C, H, W)`` input."""
        _, height, width = input_shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)

    def forward_sample(self, x: np.ndarray, sampler: BatchedWeightSampler) -> np.ndarray:
        check_4d(x)
        weights = self.sample_weights(sampler)
        bias_value = self.bias.value if self.bias is not None else None
        out, cols = F.conv2d_forward(x, weights, bias_value, self.stride, self.padding)
        self._cache = {"cols": cols, "x_shape": x.shape}
        return self.quantization.quantize_activations(out)

    def backward_sample(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        kl_weight: float,
        prior: Prior,
        include_entropy_term: bool = True,
    ) -> np.ndarray:
        if "cols" not in self._cache:
            raise RuntimeError(f"{self.name}: backward_sample before forward_sample")
        cols: np.ndarray = self._cache["cols"]  # type: ignore[assignment]
        x_shape: tuple[int, int, int, int] = self._cache["x_shape"]  # type: ignore[assignment]
        weights, epsilon = self.resample_weights(sampler)
        grad_input, grad_weight, grad_bias = F.conv2d_backward(
            grad_out, cols, x_shape, weights, self.stride, self.padding
        )
        if self.bias is not None:
            self.bias.grad += grad_bias
        self.accumulate_parameter_gradients(
            grad_weight=grad_weight,
            epsilon=epsilon,
            kl_weight=kl_weight,
            prior=prior,
            sampled_weights=weights,
            include_entropy_term=include_entropy_term,
        )
        return grad_input

    def forward_samples(
        self,
        x: np.ndarray,
        sampler: BatchedWeightSampler,
        n_samples: int,
        shared_input: bool = False,
    ) -> np.ndarray:
        """FW stage for all ``S`` samples.

        ``x`` is folded ``(S * batch, C, H, W)``, or -- with ``shared_input``,
        which the network sets for its first layer -- the one un-folded
        minibatch every sample sees, lowered once instead of ``S`` times.
        """
        check_4d(x)
        if shared_input:
            folded_shape = (n_samples * x.shape[0],) + x.shape[1:]
        else:
            self._samples_per_batch(x, n_samples, self.name)
            folded_shape = x.shape
        weights = self.sample_weights_batch(sampler)
        bias_value = self.bias.value if self.bias is not None else None
        cols_out = None
        if self._workspace is not None:
            _, out_h, out_w = self.output_shape(x.shape[1:])
            cols_shape = (
                folded_shape[0] // n_samples * out_h * out_w,
                self.in_channels * self.kernel_size**2,
            )
            cols_out = [
                self._workspace.take(self, f"cols{s}", cols_shape, x.dtype)
                for s in range(1 if shared_input else n_samples)
            ]
        out, cols = F.conv2d_forward_samples(
            x, weights, bias_value, self.stride, self.padding, n_samples, shared_input,
            cols_out=cols_out,
        )
        self._cache = {
            "cols": cols,
            "x_shape": folded_shape,
            "n_samples": n_samples,
        }
        return self.quantization.quantize_activations(out)

    def backward_samples(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        n_samples: int,
        kl_weight: float,
        prior: Prior,
        include_entropy_term: bool = True,
        need_input_grad: bool = True,
        grad_bias: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """BW + GC stages for all ``S`` samples; ``grad_bias`` is the ``(S, M)``
        bias gradient when the max-pool backward after this layer summed it."""
        if self._cache.get("n_samples") != n_samples:
            raise RuntimeError(f"{self.name}: backward_samples before forward_samples")
        cols: list[np.ndarray] = self._cache["cols"]  # type: ignore[assignment]
        x_shape: tuple[int, int, int, int] = self._cache["x_shape"]  # type: ignore[assignment]
        weights, epsilon = self.resample_weights_batch(sampler)
        buffer = None
        if need_input_grad and self._workspace is not None:
            buffer = self._workspace.take(
                self, "grad_input", x_shape, np.result_type(grad_out, weights), nhwc=True
            )
        grad_input, grad_weight, grad_bias = F.conv2d_backward_samples(
            grad_out, cols, x_shape, weights, self.stride, self.padding, n_samples,
            need_input_grad, out=buffer, grad_bias=grad_bias,
        )
        if self.bias is not None:
            self._fold_bias_grad(grad_bias)
        self.accumulate_sample_parameter_gradients(
            grad_weight=grad_weight,
            epsilon=epsilon,
            kl_weight=kl_weight,
            prior=prior,
            sampled_weights=weights,
            include_entropy_term=include_entropy_term,
        )
        return grad_input
