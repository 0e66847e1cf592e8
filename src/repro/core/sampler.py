"""Weight sampling: ``w = mu + eps * sigma`` for a bank of Monte-Carlo samples.

``w = mu + eps * sigma`` (Section 2.1 of the paper) is the only place the
Gaussian random variables enter the computation.
:class:`BatchedWeightSampler` exposes the two operations the training stages
need, for every row of a :class:`~repro.core.grng_bank.GrngBank` per call:

* ``sample(mu, sigma)`` -- forward stage: draw a fresh epsilon block shaped
  like the parameters and return the ``(S, *shape)`` sampled weights, written
  by one fused kernel call;
* ``resample(mu, sigma)`` -- backward / gradient stage: retrieve the *same*
  epsilon block (from storage or by LFSR reversal, depending on the stream
  policy) and reconstruct the identical weights, also returning the epsilons
  themselves because the gradient of ``sigma`` needs them.

The batched FW/BW/GC pipeline of ``BayesianNetwork.forward_samples`` draws
all ``S`` samples through one sampler over the whole bank.  The per-sample
pipeline draws sample ``i`` through a sampler over the one-row bank
``bank.row_bank(i)`` (see :meth:`~repro.core.checkpoint.StreamBank.sampler`)
and takes slice ``[0]``: the same code, the same kernel, the same bytes.
Each sample's traffic is attributed to its own
:class:`~repro.core.streams.StreamUsage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .streams import StreamOrderError, StreamUsage

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .grng_bank import GrngBank

__all__ = ["SampledWeightsBatch", "BatchedWeightSampler"]


@dataclass(frozen=True)
class SampledWeightsBatch:
    """Sampled weights (and their epsilons) for all ``S`` Monte-Carlo samples.

    Both tensors have shape ``(S, *weight_shape)``, slice ``[i]`` holding
    sample ``i``'s weights and epsilons.  ``epsilon`` is ``None`` where no epsilon was materialised: a forward
    sample under the ``"reversible"`` policy.
    """

    weights: np.ndarray
    epsilon: np.ndarray | None

    def __post_init__(self) -> None:
        if self.epsilon is not None and self.weights.shape != self.epsilon.shape:
            raise ValueError(
                "weights and epsilon must have the same shape, got "
                f"{self.weights.shape} vs {self.epsilon.shape}"
            )

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples along the leading axis."""
        return self.weights.shape[0]


@dataclass
class _BatchBlockRecord:
    """One outstanding forward block of the batched sampler (all samples)."""

    shape: tuple[int, ...]
    count: int
    #: ``"stored"``: the read-only block itself (the software analogue of
    #: spilling it to DRAM).
    epsilon: np.ndarray | None = field(default=None, repr=False)


class BatchedWeightSampler:
    """Weight sampler for the whole Monte-Carlo batch at once.

    Serves all ``S`` rows of ``bank`` per call by driving its batched
    kernels directly (``S`` is 1 for a per-sample sampler over a one-row
    bank):

    * ``sample(mu, sigma)`` draws the layer's block for every sample with one
      fused kernel call that writes the ``(S, *shape)`` weights
      ``mu + eps * sigma`` straight away.  Only the ``"stored"`` policy also
      materialises the epsilons (and keeps them, read-only); the
      ``"reversible"`` policy keeps nothing of the block.
    * ``resample(mu, sigma)`` reconstructs the identical block for the
      backward / gradient stages, layer by layer in reverse order: a replay
      from the layer's start registers, jumped back from the start of the
      layer after it (``"reversible"``), or the stored values
      (``"stored"``).

    The call contract mirrors the trainers' pipeline: a full forward pass
    (``sample`` per Bayesian layer) followed by a full backward pass
    (``resample`` in reverse layer order), then :meth:`finish_iteration`.
    Values, register trajectories and per-sample
    :class:`~repro.core.streams.StreamUsage` accounting are the same for a
    bank of ``S`` rows as for ``S`` one-row samplers run in turn -- batching
    changes speed, never results.
    """

    def __init__(
        self,
        bank: "GrngBank",
        usages: Sequence[StreamUsage],
        policy: str,
    ) -> None:
        if policy not in ("stored", "reversible"):
            raise ValueError(f"unknown stream policy {policy!r}")
        if len(usages) != bank.n_rows:
            raise ValueError(
                f"expected {bank.n_rows} usage records, got {len(usages)}"
            )
        self._bank = bank
        self._usages = list(usages)
        self._policy = policy
        self._records: list[_BatchBlockRecord] = []
        self._retrieving = False
        #: the registers the next replay jumps back from: the ones the
        #: forward pass left, then each replayed layer's start
        self._landing: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def bank(self) -> "GrngBank":
        """The batched generator bank this sampler draws from."""
        return self._bank

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples served per call."""
        return self._bank.n_rows

    @property
    def policy(self) -> str:
        """The epsilon-management policy this sampler emulates."""
        return self._policy

    @property
    def usages(self) -> Sequence[StreamUsage]:
        """Per-sample traffic accounting (shared with the stream bank)."""
        return tuple(self._usages)

    @property
    def usage(self) -> StreamUsage:
        """The traffic accounting of a one-row sampler's sample."""
        if len(self._usages) != 1:
            raise ValueError(
                f"a sampler of {len(self._usages)} samples has one usage "
                "record per sample; read usages"
            )
        return self._usages[0]

    @property
    def pending_blocks(self) -> int:
        """Number of generated blocks not yet consumed by the backward pass."""
        return len(self._records)

    @staticmethod
    def _validate(mu: np.ndarray, sigma: np.ndarray) -> None:
        # sigma < 0 is checked where the weights are built: by the kernel as
        # it reads each value, or before _build_weights
        if mu.shape != sigma.shape:
            raise ValueError(
                f"mu and sigma must have the same shape, got {mu.shape} vs {sigma.shape}"
            )

    def _batch(self, shape, weights, epsilon) -> SampledWeightsBatch:
        full = (self.n_samples,) + tuple(shape)
        return SampledWeightsBatch(
            weights=weights.reshape(full),
            epsilon=None if epsilon is None else epsilon.reshape(full),
        )

    # ------------------------------------------------------------------
    # forward stage
    # ------------------------------------------------------------------
    def sample(self, mu: np.ndarray, sigma: np.ndarray) -> SampledWeightsBatch:
        """Forward-stage sampling for every Monte-Carlo sample at once."""
        self._validate(mu, sigma)
        if self._retrieving:
            raise StreamOrderError(
                "cannot sample new blocks while a backward retrieval is in "
                "progress"
            )
        count = int(mu.size)
        weights, epsilon = self._bank.weight_blocks(
            mu, sigma, epsilon=self._policy == "stored"
        )
        if epsilon is not None:
            # the stored block is what resample() hands back: nobody may
            # write it in between
            epsilon.flags.writeable = False
        self._records.append(_BatchBlockRecord(tuple(mu.shape), count, epsilon))
        if self._policy == "reversible":
            # the forward frontier so far: the first replay jumps back from
            # it, and the bank's registers must still hold it then
            self._landing = self._bank.register_words()
        for usage in self._usages:
            usage.record_generate(count)
            if self._policy == "stored":
                usage.record_store(count)
        return self._batch(mu.shape, weights, epsilon)

    @staticmethod
    def _build_weights(
        mu: np.ndarray,
        sigma: np.ndarray,
        epsilon: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``mu + epsilon * sigma`` with one less temporary.

        IEEE-754 addition is commutative, so adding ``mu`` into the product
        in place is bit-identical to ``mu + epsilon * sigma``.  ``out``
        may be ``epsilon`` itself (an element-wise product reads each element
        before it writes it), for a caller that no longer needs the epsilons.
        """
        weights = np.multiply(
            epsilon, sigma, out=np.empty_like(epsilon) if out is None else out
        )
        weights += mu
        return weights

    # ------------------------------------------------------------------
    # backward stage
    # ------------------------------------------------------------------
    def resample(self, mu: np.ndarray, sigma: np.ndarray) -> SampledWeightsBatch:
        """Backward-stage reconstruction with the original epsilons.

        The blocks must be retrieved in reverse forward order (the LIFO walk
        of backpropagation).  Every check runs before any side effect, so a
        refused call consumes and moves nothing.
        """
        self._validate(mu, sigma)
        if not self._records:
            raise StreamOrderError("no outstanding epsilon block to retrieve")
        record = self._records[-1]
        if record.shape != tuple(mu.shape):
            raise StreamOrderError(
                f"retrieval shape {tuple(mu.shape)} does not match outstanding "
                f"block shape {record.shape}; backward order must mirror "
                "forward order"
            )
        if self._policy == "stored":
            if np.any(sigma < 0):
                raise ValueError("sigma must be non-negative")
            epsilon = record.epsilon
            weights = self._build_weights(mu.reshape(-1), sigma.reshape(-1), epsilon)
        else:
            weights, epsilon = self._replay(record, mu, sigma)
        self._retrieving = True
        self._records.pop()
        for usage in self._usages:
            usage.record_retrieve(record.count)
            if self._policy == "stored":
                usage.record_release(record.count)
        if not self._records:
            self._retrieving = False
            self._landing = None
        return self._batch(mu.shape, weights, epsilon)

    def _replay(self, record: _BatchBlockRecord, mu, sigma):
        """Regenerate one layer from registers jumped back from its landing.

        One kernel call jumps back and replays.  No checkpoint is kept: the
        first landing is the forward frontier ``sample`` left, every later
        one the start of the layer replayed before it.  Each replay must land
        there -- the first on the bank's own registers, which nothing may
        have written since the forward pass -- so the check proves every
        jump.  The bank's registers stay on the span end throughout.
        """
        bank = self._bank
        landing = self._landing
        weights, epsilon, start, end = bank.replay_weight_blocks(
            landing, mu, sigma, rewind=record.count * bank.stride
        )
        expected = landing if self._retrieving else bank.register_words()
        if not np.array_equal(end, expected):
            raise StreamOrderError(
                "the replay did not land on the registers the forward pass "
                "left: they were written outside the sampler, or the jump "
                "back is wrong"
            )
        self._landing = start
        return weights, epsilon

    # ------------------------------------------------------------------
    def finish_iteration(self) -> None:
        """Assert all blocks were consumed and reset per-iteration state."""
        if self._records:
            raise StreamOrderError(
                f"{len(self._records)} epsilon block(s) were never retrieved"
            )

    def discard_pending(self) -> None:
        """Drop outstanding blocks without retrieving them.

        Prediction-style forward-only workloads never consume their blocks;
        this makes the discard explicit.
        """
        self._records.clear()
        self._retrieving = False
        self._landing = None

    def __repr__(self) -> str:
        return (
            f"BatchedWeightSampler(n_samples={self.n_samples}, "
            f"policy={self._policy!r}, pending={len(self._records)})"
        )
