"""Weight priors for variational BNN training.

The paper trains with the standard Bayes-by-Backprop setup: a Gaussian (or
scale-mixture) prior over every weight, and a mean-field Gaussian variational
posterior.  Only two things about the prior matter to the training loop:

* its log-density (for reporting the complexity part of the loss), and
* the gradient of its negative log-density with respect to a sampled weight,
  which the accelerator's Derivative Processing Unit (DPU) computes as
  ``w / sigma_c**2`` for the default Gaussian prior (Section 6.2).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Prior", "GaussianPrior", "ScaleMixturePrior"]


class Prior:
    """Interface of a weight prior."""

    def log_prob(self, weights: np.ndarray) -> float:
        """Total log-density of ``weights`` under the prior."""
        raise NotImplementedError

    def nll_grad(self, weights: np.ndarray) -> np.ndarray:
        """Gradient of ``-log P(w)`` with respect to ``w`` (element-wise)."""
        raise NotImplementedError

    def nll_grad_factors(self, weights: np.ndarray) -> tuple[np.ndarray, float]:
        """``(p, scale)`` whose product ``p * scale`` is :meth:`nll_grad`, bytewise.

        The batched GC stage multiplies the two itself, so a prior whose
        gradient is the weights times a constant builds no array for it.
        """
        return self.nll_grad(weights), 1.0


class GaussianPrior(Prior):
    """Zero-mean isotropic Gaussian prior ``N(0, sigma_c^2)``.

    The paper fixes ``sigma_c = 0.5`` so that the DPU's prior gradient
    ``w / sigma_c^2`` reduces to a 2-bit left shift of ``w``.
    """

    def __init__(self, sigma: float = 0.5) -> None:
        if sigma <= 0:
            raise ValueError("prior sigma must be positive")
        self.sigma = float(sigma)
        self._inv_var = 1.0 / (sigma * sigma)
        self._log_norm = -0.5 * math.log(2.0 * math.pi) - math.log(sigma)

    def log_prob(self, weights: np.ndarray) -> float:
        weights = np.asarray(weights)
        return float(
            weights.size * self._log_norm - 0.5 * self._inv_var * np.sum(weights**2)
        )

    def nll_grad(self, weights: np.ndarray) -> np.ndarray:
        return np.asarray(weights) * self._inv_var

    def nll_grad_factors(self, weights: np.ndarray) -> tuple[np.ndarray, float]:
        return np.asarray(weights), self._inv_var

    def __repr__(self) -> str:
        return f"GaussianPrior(sigma={self.sigma})"


class ScaleMixturePrior(Prior):
    """Blundell et al.'s two-component scale-mixture-of-Gaussians prior.

    ``P(w) = pi * N(0, sigma1^2) + (1 - pi) * N(0, sigma2^2)`` with
    ``sigma1 > sigma2``.  Provided as the paper's cited training recipe
    ([6] Blundell et al. 2015) for users who want the original prior; the
    default experiments use :class:`GaussianPrior` to match the accelerator's
    shift-based DPU.
    """

    def __init__(self, pi: float = 0.5, sigma1: float = 1.0, sigma2: float = 0.0025) -> None:
        if not 0.0 < pi < 1.0:
            raise ValueError("mixture weight pi must be in (0, 1)")
        if sigma1 <= 0 or sigma2 <= 0:
            raise ValueError("mixture sigmas must be positive")
        self.pi = float(pi)
        self.sigma1 = float(sigma1)
        self.sigma2 = float(sigma2)

    @staticmethod
    def _component_pdf(weights: np.ndarray, sigma: float) -> np.ndarray:
        coeff = 1.0 / (math.sqrt(2.0 * math.pi) * sigma)
        return coeff * np.exp(-0.5 * (weights / sigma) ** 2)

    def _mixture_pdf(self, weights: np.ndarray) -> np.ndarray:
        return self.pi * self._component_pdf(weights, self.sigma1) + (
            1.0 - self.pi
        ) * self._component_pdf(weights, self.sigma2)

    def log_prob(self, weights: np.ndarray) -> float:
        density = np.clip(self._mixture_pdf(np.asarray(weights)), 1e-300, None)
        return float(np.sum(np.log(density)))

    def nll_grad(self, weights: np.ndarray) -> np.ndarray:
        weights = np.asarray(weights)
        pdf1 = self._component_pdf(weights, self.sigma1)
        pdf2 = self._component_pdf(weights, self.sigma2)
        mixture = np.clip(self.pi * pdf1 + (1.0 - self.pi) * pdf2, 1e-300, None)
        # d(-log P)/dw = (pi pdf1 w/s1^2 + (1-pi) pdf2 w/s2^2) / mixture
        numerator = (
            self.pi * pdf1 * weights / self.sigma1**2
            + (1.0 - self.pi) * pdf2 * weights / self.sigma2**2
        )
        return numerator / mixture

    def __repr__(self) -> str:
        return (
            f"ScaleMixturePrior(pi={self.pi}, sigma1={self.sigma1}, sigma2={self.sigma2})"
        )
