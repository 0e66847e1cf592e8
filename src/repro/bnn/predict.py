"""Monte-Carlo prediction and uncertainty estimation for trained BNNs.

The whole point of paying for BNN training is the predictive distribution: at
inference time the network is sampled ``S`` times and the per-sample softmax
outputs are averaged.  The spread across samples is the epistemic-uncertainty
signal that safety-critical applications consume.

By default the ``S`` samples run through the batched execution engine
(:meth:`~repro.bnn.model.BayesianNetwork.forward_samples`): one pass over a
``(S, batch, ...)`` tensor, with the whole network's epsilon blocks generated
by a single generator-bank kernel call.  ``batched=False`` selects the
original per-sample loop; both paths produce bit-identical probabilities.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.checkpoint import StreamBank
from ..nn.functional import softmax, softmax_into
from ..nn.metrics import predictive_entropy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..core.sampler import BatchedWeightSampler
    from .model import BayesianNetwork

__all__ = ["PredictiveResult", "mc_predict", "mc_forward"]


@dataclass(frozen=True)
class PredictiveResult:
    """Outputs of Monte-Carlo prediction."""

    sample_probabilities: np.ndarray
    """Per-sample class probabilities, shape ``(S, batch, classes)``."""

    @property
    def mean_probabilities(self) -> np.ndarray:
        """Predictive distribution averaged over weight samples."""
        return self.sample_probabilities.mean(axis=0)

    @property
    def predictions(self) -> np.ndarray:
        """Class predicted by the averaged distribution."""
        return self.mean_probabilities.argmax(axis=1)

    @property
    def entropy(self) -> np.ndarray:
        """Total predictive uncertainty (entropy of the mean distribution)."""
        return predictive_entropy(self.mean_probabilities)

    @property
    def aleatoric_entropy(self) -> np.ndarray:
        """Expected per-sample entropy (data uncertainty).

        One axis-aware :func:`~repro.nn.metrics.predictive_entropy` call over
        the whole ``(S, batch, classes)`` tensor, averaged over the sample
        axis.
        """
        return predictive_entropy(self.sample_probabilities).mean(axis=0)

    @property
    def epistemic_entropy(self) -> np.ndarray:
        """Mutual information between prediction and weights (model uncertainty)."""
        return self.entropy - self.aleatoric_entropy


@contextmanager
def _evaluation_mode(model: "BayesianNetwork"):
    """Run the block in eval mode, restoring each layer's previous mode.

    Restore is per layer -- so deliberately frozen layers stay frozen --
    instead of clobbering eval mode with an unconditional switch back to
    training.
    """
    layer_modes = [layer.training for layer in model.layers]
    model.eval()
    try:
        yield
    finally:
        for layer, was_training in zip(model.layers, layer_modes):
            if was_training:
                layer.train()
            else:
                layer.eval()


def mc_forward(
    model: "BayesianNetwork",
    x: np.ndarray,
    sampler: "BatchedWeightSampler",
    out: np.ndarray | None = None,
) -> PredictiveResult:
    """Forward-only Monte-Carlo prediction through a caller-provided sampler.

    This is the batched core of :func:`mc_predict` with the weight source
    injected: any object honouring the forward half of the
    :class:`~repro.core.sampler.BatchedWeightSampler` protocol
    (``n_samples``, ``prefetch_forward``, ``sample`` returning an object with
    ``.weights``) works.  The serving tile executor passes a sampler that
    replays a frozen replica's cached sampled weights, which is what lets
    pooled requests skip the generation kernel and the weight build while
    staying bit-identical to a per-request :func:`mc_predict`.

    ``out``, when given, must be a float64 buffer shaped
    ``(n_samples, batch, classes)``; the softmax stages are computed in place
    in it (bit-identical to the allocating path, see
    :func:`~repro.nn.functional.softmax_into`) so a steady-state caller can
    reuse one scratch buffer across calls instead of allocating three
    temporaries per tile.  The returned :class:`PredictiveResult` then aliases
    ``out`` -- the caller owns the reuse discipline.
    """
    with _evaluation_mode(model):
        logits = model.forward_samples(x, sampler)
        if out is None:
            probabilities = softmax(logits)
        else:
            probabilities = softmax_into(logits, out)
        # prediction never runs backward; drop the S-times-batch caches
        model.release_sample_caches()
    return PredictiveResult(sample_probabilities=probabilities)


def mc_predict(
    model: "BayesianNetwork",
    x: np.ndarray,
    n_samples: int = 8,
    seed: int = 0,
    grng_stride: int = 256,
    lfsr_bits: int = 256,
    batched: bool = True,
    lockstep: bool = True,
    out: np.ndarray | None = None,
) -> PredictiveResult:
    """Draw ``n_samples`` weight samples and return the predictive distribution.

    Prediction uses its own stream bank (reversible policy, nothing stored);
    the epsilons drawn here never need to be retrieved, so the pending blocks
    are simply discarded afterwards.  ``batched=True`` (the default) executes
    all samples in one pass over the ``(S, batch, ...)`` tensor;
    ``batched=False`` is the per-sample escape hatch, with ``lockstep``
    selecting between the bank's speculative cross-sample prefetching and
    fully independent per-row generation.  All modes produce bit-identical
    probabilities.

    ``out`` optionally provides a reusable ``(n_samples, batch, classes)``
    output buffer (see :func:`mc_forward`); results are bit-identical with or
    without it.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    bank = StreamBank(
        n_samples=n_samples,
        policy="reversible",
        seed=seed,
        lfsr_bits=lfsr_bits,
        grng_stride=grng_stride,
        lockstep=lockstep,
    )
    if batched:
        return mc_forward(model, x, bank.batched_sampler(), out=out)
    with _evaluation_mode(model):
        outputs = []
        for sample_index in range(n_samples):
            sampler = bank.sampler(sample_index)
            logits = model.forward_sample(x, sampler)
            outputs.append(softmax(logits))
        if out is None:
            probabilities = np.stack(outputs)
        else:
            probabilities = np.stack(outputs, out=out)
    return PredictiveResult(sample_probabilities=probabilities)
