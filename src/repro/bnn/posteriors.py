"""Mean-field Gaussian variational posterior over a weight tensor.

Each weight has two trainable scalars: the mean ``mu`` and a pre-activation
``rho`` mapped through a softplus to the standard deviation ``sigma``.  The
softplus parameterisation (from Blundell et al.) keeps ``sigma`` positive under
unconstrained gradient descent; the accelerator itself stores ``(mu, sigma)``
directly, which is why the weight-parameter buffer in the simulator carries two
values per weight.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.backend import dispatch
from ..nn.initializers import Initializer
from ..nn.layers import Parameter
from .grad_tape import active_tape

__all__ = ["GaussianPosterior", "softplus", "softplus_grad", "inverse_softplus"]

_posterior_gc = dispatch("posterior_gc")
_FROZEN = -1  # the pin stamp of a frozen rho; arena generations count from 0


def softplus(rho: np.ndarray) -> np.ndarray:
    """Numerically-stable ``log(1 + exp(rho))``."""
    return np.logaddexp(0.0, rho)


def softplus_grad(rho: np.ndarray) -> np.ndarray:
    """Derivative of the softplus: the logistic sigmoid ``1 / (1 + exp(-rho))``."""
    out = np.negative(rho, out=np.empty(np.shape(rho)))  # one array, reused
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def inverse_softplus(sigma: float) -> float:
    """Return ``rho`` such that ``softplus(rho) == sigma``."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return float(math.log(math.expm1(sigma)))


class GaussianPosterior:
    """Trainable ``(mu, rho)`` pair describing ``q(w | theta) = N(mu, sigma^2)``.

    Parameters
    ----------
    shape:
        Shape of the weight tensor this posterior describes.
    mu_init:
        Initialiser for the means (typically He/Glorot like a DNN weight).
    initial_sigma:
        Starting standard deviation, applied uniformly through the softplus
        parameterisation.
    name:
        Prefix used for the two underlying :class:`Parameter` objects.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        mu_init: Initializer,
        initial_sigma: float,
        name: str,
        rng: np.random.Generator,
    ) -> None:
        if initial_sigma <= 0:
            raise ValueError("initial_sigma must be positive")
        self.shape = tuple(shape)
        self.mu = Parameter(f"{name}.mu", mu_init(self.shape, rng))
        rho_value = np.full(self.shape, inverse_softplus(initial_sigma), dtype=np.float64)
        self.rho = Parameter(f"{name}.rho", rho_value)
        # [stamp, softplus(rho), sigmoid(rho)], each read-only, None until read
        self._pin: list | None = None
        self._scratch: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def sigma(self) -> np.ndarray:
        """Current standard deviation ``softplus(rho)`` (read-only)."""
        return self._pinned(1, softplus)

    def _pinned(self, slot: int, function) -> np.ndarray:
        """``function(rho)`` for the current ``rho``, from the pin when it is fresh.

        The pin is stamped with the owning arena's generation, which every
        write to ``rho`` moves on, or with ``_FROZEN`` once ``rho`` is
        read-only without an arena.  So ``sigma`` and the GC stage's
        ``sigmoid(rho)`` are computed once per update, however often they
        are read.  A ``rho`` that anything may write in place (no arena, not
        frozen) is never pinned: each read computes afresh.
        """
        arena = self.rho.arena
        if arena is not None:
            stamp = arena.generation
        elif not self.rho.value.flags.writeable:
            stamp = _FROZEN
        else:
            stamp = None
        pin = self._pin
        if stamp is None or pin is None or pin[0] != stamp:
            pin = [stamp, None, None]
            if stamp is not None:
                self._pin = pin
        if pin[slot] is None:
            value = function(self.rho.value)
            value.flags.writeable = False
            pin[slot] = value
        return pin[slot]

    def scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Two work arrays shaped like the weights, allocated on first use
        and reused by every later call (the analytic KL writes into them)."""
        if self._scratch is None:
            self._scratch = (np.empty(self.shape), np.empty(self.shape))
        return self._scratch

    def freeze(self) -> None:
        """Make this posterior immutable (idempotent; there is no thaw).

        ``mu`` and ``rho`` become read-only arrays, so an in-place update
        (a state load) raises instead of going unnoticed, and ``sigma`` is
        computed one last time.  Serving freezes the replica it owns:
        everything it caches per sampling configuration is a function of
        these bytes.  Parameters in an arena cannot be frozen.
        """
        for param in self.parameters():
            param.freeze()
        self.sigma  # pinned for good: rho can no longer change

    @property
    def n_weights(self) -> int:
        """Number of weights described by this posterior."""
        return int(np.prod(self.shape))

    def parameters(self) -> list[Parameter]:
        """The two trainable parameter tensors (mu, rho)."""
        return [self.mu, self.rho]

    # ------------------------------------------------------------------
    def log_prob(self, weights: np.ndarray) -> float:
        """Total log-density of ``weights`` under ``q(w | theta)``."""
        sigma = self.sigma
        diff = np.asarray(weights) - self.mu.value
        return float(
            np.sum(
                -0.5 * math.log(2.0 * math.pi)
                - np.log(sigma)
                - 0.5 * (diff / sigma) ** 2
            )
        )

    def accumulate_gradients(
        self,
        grad_weight: np.ndarray,
        epsilon: np.ndarray,
        kl_weight: float,
        prior_nll_grad: np.ndarray,
        include_entropy_term: bool = True,
    ) -> None:
        """Accumulate Bayes-by-Backprop gradients into ``mu.grad`` and ``rho.grad``.

        Parameters
        ----------
        grad_weight:
            Gradient of the data-fit (negative log-likelihood) term with
            respect to the sampled weight ``w`` -- what ordinary backprop of
            the layer produces.
        epsilon:
            The Gaussian random variables used to draw ``w = mu + eps * sigma``
            (retrieved from storage or via LFSR reversal).
        kl_weight:
            Weight ``beta`` applied to the complexity (prior + posterior)
            terms; usually ``1 / batches_per_epoch``.
        prior_nll_grad:
            Gradient of ``-log P(w)`` at the sampled weight, e.g.
            ``w / sigma_c^2`` for the Gaussian prior (the DPU's output).
        include_entropy_term:
            Keep the exact ``-1/sigma`` entropy contribution to the sigma
            gradient.  Disabling it reproduces the paper's simplified updater,
            which folds the posterior into the ``w``-gradient only.
        """
        if grad_weight.shape != self.shape or epsilon.shape != self.shape:
            raise ValueError("gradient / epsilon shape does not match the posterior")
        sigma = self.sigma
        total_w_grad = grad_weight + kl_weight * prior_nll_grad
        # d/d mu:   dL/dw * dw/dmu (+ the direct posterior term, which cancels)
        self.mu.grad += total_w_grad
        # d/d sigma: dL/dw * eps  (+ the -1/sigma entropy term of log q)
        sigma_grad = epsilon * total_w_grad
        if include_entropy_term:
            sigma_grad = sigma_grad - kl_weight / sigma
        # chain through sigma = softplus(rho)
        self.rho.grad += sigma_grad * self._pinned(2, softplus_grad)

    def accumulate_sample_gradients(
        self,
        grad_weight: np.ndarray,
        epsilon: np.ndarray,
        kl_weight: float,
        prior_nll_grad: np.ndarray,
        sigma: np.ndarray,
        include_entropy_term: bool = True,
        prior_scale: float = 1.0,
    ) -> None:
        """Batched GC stage: :meth:`accumulate_gradients` for all ``S`` samples.

        ``grad_weight``, ``epsilon`` and ``prior_nll_grad`` carry a leading
        Monte-Carlo sample axis ``(S, *shape)``.  The per-sample arithmetic is
        identical to the scalar method -- the shared factors ``sigma`` and
        ``softplus_grad(rho)`` are simply computed once instead of once per
        sample -- and the final accumulation walks the sample axis in order,
        so ``mu.grad`` / ``rho.grad`` receive bit-for-bit the same sums as
        ``S`` sequential :meth:`accumulate_gradients` calls.

        ``sigma`` is :attr:`sigma` (what the layers pass), and
        ``sigmoid(rho)`` comes from the same pin.  The arithmetic runs on the
        ``posterior_gc`` dispatch point
        (:mod:`repro.core.backend`); the transcendentals stay here.  Under a
        tape the ``(S, *shape)`` stacks go into memory the tape lends.

        The prior gradient is ``prior_nll_grad * prior_scale``, multiplied
        inside the GC pass (see :meth:`~repro.bnn.priors.Prior.nll_grad_factors`).
        """
        if (
            grad_weight.ndim != len(self.shape) + 1
            or grad_weight.shape[1:] != self.shape
        ):
            raise ValueError(
                f"sample gradients must be (S, *{self.shape}), "
                f"got {grad_weight.shape}"
            )
        if epsilon.shape != grad_weight.shape:
            raise ValueError("gradient / epsilon shape does not match the posterior")
        sigmoid_rho = self._pinned(2, softplus_grad)
        tape = active_tape()
        if tape is None:
            mu_grad, rho_grad = self.mu.grad, self.rho.grad
        else:
            # Distributed capture: the per-sample stacks go to the tape so
            # the coordinator can accumulate them in canonical sample order
            # across shards (slice [s] is exactly what the kernel would add).
            mu_grad = tape.destination(self.mu.name, grad_weight.shape)
            rho_grad = tape.destination(self.rho.name, grad_weight.shape)
        _posterior_gc(
            grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
            include_entropy_term, mu_grad, rho_grad, prior_scale,
        )
        if tape is not None:
            tape.record(self.mu.name, mu_grad)
            tape.record(self.rho.name, rho_grad)

    def __repr__(self) -> str:
        return f"GaussianPosterior(shape={self.shape})"
