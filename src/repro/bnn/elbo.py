"""ELBO assembly: the loss of Eq. 1 and its analytic complexity term.

The per-sample training loss is

``L(w, theta) = log q(w | theta) - log P(w) - log P(y | x, w)``

summed over the ``S`` Monte-Carlo samples.  The trainer backpropagates the
likelihood term through the network and adds the prior/posterior gradients in
closed form (see :meth:`repro.bnn.posteriors.GaussianPosterior.accumulate_gradients`).
For *reporting*, the complexity part ``log q - log P`` is better captured by
the analytic KL divergence between the variational posterior and a Gaussian
prior, which has no Monte-Carlo noise; both forms are provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posteriors import GaussianPosterior
from .priors import GaussianPrior, Prior

__all__ = ["gaussian_kl_divergence", "sampled_complexity", "ELBOReport"]


def gaussian_kl_divergence(posterior: GaussianPosterior, prior: GaussianPrior) -> float:
    """Closed-form ``KL(q(w|theta) || P(w))`` for Gaussian posterior and prior.

    ``sum(log(prior_sigma / sigma) + (sigma**2 + mu**2) / (2 prior_var) - 0.5)``,
    each element through the same IEEE operations on the same operands as
    that expression, written into the posterior's scratch arrays, so a step
    allocates nothing layer-sized here.
    """
    sigma = posterior.sigma
    mu = posterior.mu.value
    prior_var = prior.sigma**2
    kl, quadratic = posterior.scratch()
    np.square(sigma, out=quadratic)
    np.add(quadratic, np.square(mu, out=kl), out=quadratic)
    np.divide(quadratic, 2.0 * prior_var, out=quadratic)
    np.log(np.divide(prior.sigma, sigma, out=kl), out=kl)
    np.add(kl, quadratic, out=kl)
    np.subtract(kl, 0.5, out=kl)
    return float(np.sum(kl))


def sampled_complexity(
    posterior: GaussianPosterior, prior: Prior, weights: np.ndarray
) -> float:
    """Single-sample estimate of ``log q(w|theta) - log P(w)`` at ``weights``."""
    return posterior.log_prob(weights) - prior.log_prob(weights)


@dataclass(frozen=True)
class ELBOReport:
    """Loss breakdown of one training step (averaged over Monte-Carlo samples)."""

    nll: float
    complexity: float
    kl_weight: float

    @property
    def total(self) -> float:
        """The scalar training loss: data fit plus weighted complexity."""
        return self.nll + self.kl_weight * self.complexity

    def __str__(self) -> str:
        return (
            f"loss={self.total:.4f} (nll={self.nll:.4f}, "
            f"kl={self.complexity:.4f} @ beta={self.kl_weight:.2e})"
        )
