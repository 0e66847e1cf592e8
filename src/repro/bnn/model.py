"""Bayesian network container mixing Bayesian and deterministic layers.

Two execution modes are offered:

* the per-sample mode (``forward_sample`` / ``backward_sample``) runs one
  Monte-Carlo sample at a time through a per-sample
  :class:`~repro.core.sampler.WeightSampler`;
* the batched mode (``forward_samples`` / ``backward_samples``) runs all
  ``S`` samples in one pass through a
  :class:`~repro.core.sampler.BatchedWeightSampler`.  Activations travel
  folded as ``(S * batch, ...)`` -- deterministic layers simply broadcast
  over the folded axis -- while Bayesian layers draw ``(S, *shape)`` weight
  tensors.  The batched pipeline prefetches the whole forward pass's epsilon
  blocks in a single generator-bank kernel call (the per-layer block sizes
  are the network's static schedule) and is bit-identical to the per-sample
  mode: same values, same parameter trajectory, same stream state.

A batched *training* pass (``forward_samples`` on a network in training mode,
which ``backward_samples`` follows) lends the layers a
:class:`~repro.nn.tensor_utils.Workspace`: column matrices, pooled outputs,
argmax maps and the gradient tensors that ``col2im`` and the max-pool scatter
fill are written into buffers the network keeps from step to step instead of
multi-megabyte temporaries.  Nothing that outlives a step aliases it (the
returned logits are checked), forward-only prediction runs in evaluation mode
and never sees it, and :meth:`BayesianNetwork.release_sample_caches` drops it.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..core.sampler import BatchedWeightSampler, WeightSampler
from ..nn.layers import Layer, Parameter
from ..nn.quantization import QuantizationConfig
from ..nn.tensor_utils import Workspace
from .bayes_layers import BayesConv2D, BayesianLayer
from .elbo import gaussian_kl_divergence
from .grad_tape import active_tape
from .priors import GaussianPrior, Prior

__all__ = ["BayesianNetwork"]


class BayesianNetwork:
    """An ordered chain of layers, some Bayesian, some deterministic.

    The network exposes per-sample forward/backward passes: a single
    Monte-Carlo sample's forward pass draws one weight sample per Bayesian
    layer from the provided :class:`WeightSampler`, and the matching backward
    pass re-samples the identical weights through the same sampler (whose
    stream either stored the epsilons or regenerates them by LFSR reversal).
    """

    def __init__(
        self,
        layers: Iterable[Layer],
        prior: Prior | None = None,
        name: str = "bnn",
    ) -> None:
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("a BayesianNetwork needs at least one layer")
        if not any(isinstance(layer, BayesianLayer) for layer in self.layers):
            raise ValueError("a BayesianNetwork needs at least one Bayesian layer")
        self.prior = prior or GaussianPrior(sigma=0.5)
        self.name = name
        self._quantization = QuantizationConfig.full_precision()
        # folded inputs of trainable deterministic layers, stashed by a
        # batched forward pass for its backward pass
        self._det_layer_inputs: dict[int, np.ndarray] = {}
        # step buffers of the batched training pass, kept between steps
        self._workspace: Workspace | None = None

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    @property
    def quantization(self) -> QuantizationConfig:
        """Datapath quantisation applied by every Bayesian layer."""
        return self._quantization

    @quantization.setter
    def quantization(self, config: QuantizationConfig) -> None:
        self._quantization = config
        for layer in self.bayesian_layers():
            layer.quantization = config

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def bayesian_layers(self) -> list[BayesianLayer]:
        """The Bayesian layers, in forward order."""
        return [layer for layer in self.layers if isinstance(layer, BayesianLayer)]

    def parameters(self) -> list[Parameter]:
        """All trainable parameters (mu, rho, biases, deterministic weights)."""
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def freeze(self) -> None:
        """Make every parameter read-only and memoise each posterior's sigma.

        For a replica that only predicts (serving freezes the one it owns):
        an in-place parameter update then raises ``ValueError`` instead of
        silently invalidating whatever was derived from the old bytes.
        Idempotent and one-way; a model that trains is never frozen.
        """
        for parameter in self.parameters():
            parameter.value.flags.writeable = False
        for layer in self.bayesian_layers():
            layer.weight_posterior.freeze()

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for param in self.parameters():
            param.zero_grad()

    @property
    def n_bayesian_weights(self) -> int:
        """Total number of weights that consume one epsilon per sample."""
        return sum(layer.n_bayesian_weights for layer in self.bayesian_layers())

    @property
    def parameter_count(self) -> int:
        """Total number of trainable scalars (mu, rho, biases, ...)."""
        return sum(param.size for param in self.parameters())

    def __iter__(self) -> Iterator[Layer]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    # ------------------------------------------------------------------
    # per-sample execution
    # ------------------------------------------------------------------
    def forward_sample(self, x: np.ndarray, sampler: WeightSampler) -> np.ndarray:
        """Forward stage for one Monte-Carlo sample."""
        out = x
        for layer in self.layers:
            if isinstance(layer, BayesianLayer):
                out = layer.forward_sample(out, sampler)
            else:
                out = layer.forward(out)
        return out

    def backward_sample(
        self,
        grad_out: np.ndarray,
        sampler: WeightSampler,
        kl_weight: float,
        include_entropy_term: bool = True,
    ) -> np.ndarray:
        """Backward + gradient-calculation stages for one Monte-Carlo sample.

        Layers are walked in reverse order; Bayesian layers reconstruct their
        weight sample through ``sampler`` which must be the one used by the
        matching :meth:`forward_sample` call.
        """
        grad = grad_out
        for layer in reversed(self.layers):
            if isinstance(layer, BayesianLayer):
                grad = layer.backward_sample(
                    grad,
                    sampler,
                    kl_weight=kl_weight,
                    prior=self.prior,
                    include_entropy_term=include_entropy_term,
                )
            else:
                grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------
    # batched execution (all S Monte-Carlo samples per pass)
    # ------------------------------------------------------------------
    def forward_samples(
        self, x: np.ndarray, sampler: BatchedWeightSampler
    ) -> np.ndarray:
        """Forward stage for all ``S`` Monte-Carlo samples at once.

        ``x`` is one minibatch shared by every sample; the result has shape
        ``(S, batch, ...)`` with slice ``[i]`` bit-identical to
        ``forward_sample(x, bank.sampler(i))``.  A leading
        :class:`BayesConv2D` receives ``x`` un-folded and lowers it once for
        all samples; anything else starts from ``S`` folded copies.  In
        training mode the layers work in the network's step workspace until
        :meth:`backward_samples` (or :meth:`release_sample_caches`) ends the
        pass; the returned array never aliases it.
        """
        n_samples = sampler.n_samples
        workspace = None
        if self.training:
            workspace = self._workspace = self._workspace or Workspace()
        self._lend(workspace)
        sampler.prefetch_forward(
            [layer.n_bayesian_weights for layer in self.bayesian_layers()]
        )
        shared_first = isinstance(self.layers[0], BayesConv2D)
        if shared_first:
            out = x
        else:
            out = np.empty((n_samples * x.shape[0],) + x.shape[1:], dtype=x.dtype)
            out.reshape((n_samples,) + x.shape)[:] = x
        self._det_layer_inputs = {}
        for index, layer in enumerate(self.layers):
            if index == 0 and shared_first:
                out = layer.forward_samples(out, sampler, n_samples, shared_input=True)
            elif isinstance(layer, BayesianLayer):
                out = layer.forward_samples(out, sampler, n_samples)
            else:
                if layer.parameters():
                    # Trainable deterministic layer: remember the folded input
                    # so the backward pass can rebuild per-sample caches and
                    # accumulate its parameter gradients one sample at a time
                    # (a single folded contraction would round differently
                    # from S sequential backward_sample calls).
                    self._det_layer_inputs[index] = out
                out = layer.forward(out)
        if workspace is not None and workspace.owns(out):
            out = out.copy()  # a network ending in a pooling layer
        return out.reshape((n_samples, x.shape[0]) + out.shape[1:])

    def backward_samples(
        self,
        grad_out: np.ndarray,
        sampler: BatchedWeightSampler,
        kl_weight: float,
        include_entropy_term: bool = True,
    ) -> None:
        """Backward + gradient stages for all ``S`` samples at once.

        ``grad_out`` is ``(S, batch, ...)`` (one output gradient per sample,
        as returned by the loss for each slice of :meth:`forward_samples`).
        Parameter gradients accumulate over the sample axis in sample order,
        matching ``S`` sequential :meth:`backward_sample` calls bit for bit.
        Nothing is returned: no caller consumes the gradient with respect to
        the data, so a Bayesian first layer is not asked to compute it.
        """
        n_samples = sampler.n_samples
        if grad_out.shape[0] != n_samples:
            raise ValueError(
                f"grad_out carries {grad_out.shape[0]} samples, "
                f"sampler serves {n_samples}"
            )
        batch = grad_out.shape[1]
        grad = grad_out.reshape((n_samples * batch,) + grad_out.shape[2:])
        det_inputs = self._det_layer_inputs
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            if isinstance(layer, BayesianLayer):
                grad = layer.backward_samples(
                    grad,
                    sampler,
                    n_samples,
                    kl_weight=kl_weight,
                    prior=self.prior,
                    include_entropy_term=include_entropy_term,
                    need_input_grad=index > 0,
                )
            elif index in det_inputs:
                grad = self._det_backward_per_sample(
                    layer, det_inputs[index], grad, n_samples, batch
                )
            else:
                grad = layer.backward(grad)
        self._end_pass()

    def release_sample_caches(self) -> None:
        """Drop the folded ``(S * batch, ...)`` activations cached by a batched pass.

        The batched pipeline's caches (Bayesian layer inputs / per-sample
        im2col column matrices, and the stashed inputs of trainable
        deterministic layers) are ``S`` times the sequential path's resident
        size; they are released automatically at the end of
        :meth:`backward_samples` and after forward-only prediction.  Called
        directly, this also gives up the step workspace a training pass
        keeps between steps.
        """
        self._end_pass()
        self._workspace = None

    def _lend(self, workspace: Workspace | None) -> None:
        for layer in self.layers:
            layer._workspace = workspace

    def _end_pass(self) -> None:
        """Drop every per-pass reference; the workspace itself stays for the next step."""
        for layer in self.layers:
            if isinstance(layer, BayesianLayer):
                layer._cache = {}
        self._det_layer_inputs = {}
        self._lend(None)

    @staticmethod
    def _det_backward_per_sample(
        layer: Layer,
        folded_input: np.ndarray,
        grad: np.ndarray,
        n_samples: int,
        batch: int,
    ) -> np.ndarray:
        """Backward a trainable deterministic layer one sample at a time.

        Replaying ``forward`` on each sample's slice rebuilds exactly the
        cache that sample's sequential pass would have had (the layer is a
        pure function of its input and parameters), and the per-sample
        ``backward`` calls then accumulate the parameter gradients in sample
        order -- bit-identical to ``S`` sequential passes, which one folded
        ``(S * batch)`` contraction is not.

        With a :class:`~repro.bnn.grad_tape.SampleGradientTape` active, the
        per-sample contributions are captured instead of accumulated: the
        layer's gradients are zeroed before each sample's backward call so
        each call leaves exactly that sample's contribution behind, which is
        copied onto the tape (and the in-place accumulation is discarded --
        the tape's consumer owns the reduction).
        """
        tape = active_tape()
        params = layer.parameters() if tape is not None else []
        stacks = {
            param.name: np.empty((n_samples,) + param.value.shape)
            for param in params
        }
        grad_input = np.empty_like(folded_input)
        for s in range(n_samples):
            rows = slice(s * batch, (s + 1) * batch)
            if params:
                for param in params:
                    param.zero_grad()
            layer.forward(folded_input[rows])
            grad_input[rows] = layer.backward(grad[rows])
            for param in params:
                stacks[param.name][s] = param.grad
        if tape is not None:
            for param in params:
                param.zero_grad()
                tape.record(param.name, stacks[param.name])
        return grad_input

    # ------------------------------------------------------------------
    # loss helpers
    # ------------------------------------------------------------------
    def complexity(self) -> float:
        """Analytic KL divergence between the posterior and a Gaussian prior.

        Falls back to zero for non-Gaussian priors (the trainer then relies on
        the sampled estimate for reporting only; gradients are unaffected).
        """
        if not isinstance(self.prior, GaussianPrior):
            return 0.0
        return sum(
            gaussian_kl_divergence(layer.weight_posterior, self.prior)
            for layer in self.bayesian_layers()
        )

    @property
    def training(self) -> bool:
        """Whether the network is in training mode (true if any layer is)."""
        return any(layer.training for layer in self.layers)

    def train(self) -> None:
        """Put every layer in training mode."""
        for layer in self.layers:
            layer.train()

    def eval(self) -> None:
        """Put every layer in evaluation mode."""
        for layer in self.layers:
            layer.eval()

    def summary(self) -> str:
        """Human-readable per-layer summary."""
        lines = [
            f"BayesianNetwork '{self.name}': {self.parameter_count} parameters, "
            f"{self.n_bayesian_weights} Bayesian weights"
        ]
        for index, layer in enumerate(self.layers):
            kind = "bayes" if isinstance(layer, BayesianLayer) else "det"
            lines.append(
                f"  [{index:2d}] {layer.name:<24s} ({kind}) params={layer.parameter_count}"
            )
        return "\n".join(lines)
