"""Weight sampling on top of an epsilon stream.

``w = mu + eps * sigma`` (Section 2.1 of the paper) is the only place the
Gaussian random variables enter the computation.  :class:`WeightSampler` wraps
an :class:`~repro.core.streams.EpsilonStream` and exposes the two operations
the training stages need:

* ``sample(mu, sigma)`` -- forward stage: draw a fresh epsilon block shaped
  like the parameters and return the sampled weights;
* ``resample(mu, sigma)`` -- backward / gradient stage: retrieve the *same*
  epsilon block (from storage or by LFSR reversal, depending on the stream
  policy) and reconstruct the identical weights, also returning the epsilons
  themselves because the gradient of ``sigma`` needs them.

When samplers are built by a :class:`~repro.core.checkpoint.StreamBank`, the
per-sample streams share a lockstep
:class:`~repro.core.grng_bank.GrngBank`: the first sampler to draw a layer's
block triggers one batched kernel call that produces the same-shaped block
for every Monte-Carlo sample, so the per-sample call pattern of the trainers
costs one vectorised generation (and one vectorised retrieval) per layer.

:class:`BatchedWeightSampler` goes one step further for callers that execute
the whole Monte-Carlo batch at once (the batched FW/BW/GC pipeline of
``BayesianNetwork.forward_samples``): its :meth:`~BatchedWeightSampler.sample`
and :meth:`~BatchedWeightSampler.resample` return ``(S, *weight_shape)``
epsilon and weight tensors pulled straight from the bank's batched forward /
reversed / replay kernels -- no per-row views, no per-sample Python -- while
still attributing traffic (:class:`~repro.core.streams.StreamUsage`) to each
Monte-Carlo sample exactly like the per-sample streams would.  All three
stream policies are supported and produce bit-identical values and byte
accounting; :meth:`~BatchedWeightSampler.prefetch_forward` additionally fuses
a whole forward pass's epsilon generation into a single kernel call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .grng import ReplayError
from .streams import EpsilonStream, StreamOrderError, StreamUsage

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .grng_bank import GrngBank

__all__ = [
    "SampledWeights",
    "SampledWeightsBatch",
    "WeightSampler",
    "BatchedWeightSampler",
]


@dataclass(frozen=True)
class SampledWeights:
    """A sampled weight tensor together with the epsilons that produced it."""

    weights: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != self.epsilon.shape:
            raise ValueError(
                "weights and epsilon must have the same shape, got "
                f"{self.weights.shape} vs {self.epsilon.shape}"
            )


class WeightSampler:
    """Sample and re-sample Gaussian weights through an epsilon stream."""

    def __init__(self, stream: EpsilonStream) -> None:
        self._stream = stream

    @property
    def stream(self) -> EpsilonStream:
        """The epsilon stream this sampler draws from."""
        return self._stream

    @property
    def usage(self) -> StreamUsage:
        """Traffic accounting of the underlying stream."""
        return self._stream.usage

    @staticmethod
    def _validate(mu: np.ndarray, sigma: np.ndarray) -> None:
        if mu.shape != sigma.shape:
            raise ValueError(
                f"mu and sigma must have the same shape, got {mu.shape} vs {sigma.shape}"
            )
        if np.any(sigma < 0):
            raise ValueError("sigma must be non-negative")

    def sample(self, mu: np.ndarray, sigma: np.ndarray) -> SampledWeights:
        """Forward-stage sampling: draw fresh epsilons and build the weights."""
        self._validate(mu, sigma)
        epsilon = self._stream.forward_block(mu.shape)
        weights = mu + epsilon * sigma
        return SampledWeights(weights=weights, epsilon=epsilon)

    def resample(self, mu: np.ndarray, sigma: np.ndarray) -> SampledWeights:
        """Backward-stage reconstruction with the original epsilons.

        The returned weights are bit-identical to the forward-stage sample
        (given unchanged ``mu`` and ``sigma``), which is the property that lets
        Shift-BNN discard the epsilons after the forward pass.
        """
        self._validate(mu, sigma)
        epsilon = self._stream.retrieve_block(mu.shape)
        weights = mu + epsilon * sigma
        return SampledWeights(weights=weights, epsilon=epsilon)

    def finish_iteration(self) -> None:
        """Assert all sampled blocks were consumed and reset per-iteration state."""
        self._stream.reset_epoch()

    def __repr__(self) -> str:
        return f"WeightSampler(stream={type(self._stream).__name__})"


@dataclass(frozen=True)
class SampledWeightsBatch:
    """Sampled weights and epsilons for all ``S`` Monte-Carlo samples.

    Both tensors have shape ``(S, *weight_shape)``; slice ``[i]`` is exactly
    what :class:`SampledWeights` of sample ``i``'s scalar sampler would hold.
    """

    weights: np.ndarray
    epsilon: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.shape != self.epsilon.shape:
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
    #: Stored epsilon values, kept only under the ``"stored"`` policy (the
    #: software analogue of spilling the whole block set to DRAM).
    stored_values: np.ndarray | None = field(default=None, repr=False)


class BatchedWeightSampler:
    """Weight sampler for the whole Monte-Carlo batch at once.

    The per-sample :class:`WeightSampler` objects of a
    :class:`~repro.core.checkpoint.StreamBank` serve one sample each; this
    class serves all ``S`` samples per call by driving the bank's batched
    kernels directly:

    * ``sample(mu, sigma)`` generates the layer's epsilon block for every
      sample with one forward kernel call (or serves it from a
      :meth:`prefetch_forward` superblock) and returns ``(S, *shape)``
      weights ``mu + eps * sigma``;
    * ``resample(mu, sigma)`` reconstructs the identical blocks for the
      backward / gradient stages.  The first ``resample`` of an iteration
      retrieves the *entire* outstanding span in one batched kernel call:
      a whole-span checkpoint replay (``"reversible"``), a whole-span
      reversed-shift regeneration (``"reversible-hw"``), or the stored
      values (``"stored"``).

    The call contract mirrors the trainers' pipeline: a full forward pass
    (``sample`` per Bayesian layer, optionally preceded by
    ``prefetch_forward``) followed by a full backward pass (``resample`` in
    reverse layer order), then :meth:`finish_iteration`.  Values, register
    trajectories and per-sample :class:`~repro.core.streams.StreamUsage`
    accounting are bit-identical to running the per-sample samplers
    sequentially -- the batched engine changes speed, never results.
    """

    def __init__(
        self,
        bank: "GrngBank",
        usages: Sequence[StreamUsage],
        policy: str,
    ) -> None:
        if policy not in ("stored", "reversible", "reversible-hw"):
            raise ValueError(f"unknown stream policy {policy!r}")
        if len(usages) != bank.n_rows:
            raise ValueError(
                f"expected {bank.n_rows} usage records, got {len(usages)}"
            )
        self._bank = bank
        self._usages = list(usages)
        self._policy = policy
        self._records: list[_BatchBlockRecord] = []
        self._prefetched: list[tuple[int, np.ndarray]] = []
        self._retrieval_values: list[np.ndarray] | None = None
        self._span_start_states: list[int] | None = None
        self._hw_resume_states: list[int] | None = None

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
        """Per-sample traffic accounting (shared with the bank's streams)."""
        return tuple(self._usages)

    @property
    def pending_blocks(self) -> int:
        """Number of generated blocks not yet consumed by the backward pass."""
        return len(self._records)

    _validate = staticmethod(WeightSampler._validate)

    # ------------------------------------------------------------------
    # forward stage
    # ------------------------------------------------------------------
    def prefetch_forward(self, counts: Sequence[int]) -> None:
        """Generate a whole forward pass's epsilon blocks with one kernel call.

        ``counts`` lists the per-layer block sizes in forward order (the
        static layer schedule of the network).  Subsequent :meth:`sample`
        calls are served from the superblock; slicing a single contiguous
        generation is bit-identical to generating block by block because the
        LFSR stream -- and therefore the window-popcount sequence -- is
        continuous across block boundaries.
        """
        if self._retrieval_values is not None:
            raise StreamOrderError(
                "cannot prefetch forward blocks while a backward retrieval "
                "is in progress"
            )
        if self._prefetched:
            raise StreamOrderError(
                "previous prefetched blocks were never consumed"
            )
        counts = [int(count) for count in counts]
        if any(count <= 0 for count in counts):
            raise ValueError(f"block counts must be positive, got {counts}")
        if not counts:
            return
        if self._span_start_states is None:
            self._span_start_states = self._bank.states()
        superblock = self._bank.epsilon_blocks(sum(counts))
        offset = 0
        for count in counts:
            self._prefetched.append((count, superblock[:, offset : offset + count]))
            offset += count

    def sample(self, mu: np.ndarray, sigma: np.ndarray) -> SampledWeightsBatch:
        """Forward-stage sampling for every Monte-Carlo sample at once."""
        self._validate(mu, sigma)
        if self._retrieval_values is not None:
            raise StreamOrderError(
                "cannot sample new blocks while a backward retrieval is in "
                "progress"
            )
        count = int(mu.size)
        if self._prefetched:
            prefetched_count, values = self._prefetched[0]
            if prefetched_count != count:
                # peek-don't-pop: an out-of-schedule request must leave the
                # prefetch queue aligned for a caller that recovers
                raise StreamOrderError(
                    f"prefetched block of {prefetched_count} values does not "
                    f"match the requested {count}; the sample() sequence must "
                    "follow the prefetch_forward() schedule"
                )
            self._prefetched.pop(0)
        else:
            if self._span_start_states is None:
                self._span_start_states = self._bank.states()
            values = self._bank.epsilon_blocks(count)
        epsilon = values.reshape((self.n_samples,) + mu.shape)
        self._records.append(
            _BatchBlockRecord(
                shape=tuple(mu.shape),
                count=count,
                stored_values=epsilon if self._policy == "stored" else None,
            )
        )
        for usage in self._usages:
            if self._policy == "stored":
                usage.record_generate(count)
                usage.record_store(count)
            elif self._policy == "reversible":
                usage.record_checkpoint(self._bank.n_bits)
                usage.record_generate(count)
            else:
                usage.record_generate(count)
        return SampledWeightsBatch(
            weights=self._build_weights(mu, sigma, epsilon), epsilon=epsilon
        )

    @staticmethod
    def _build_weights(
        mu: np.ndarray,
        sigma: np.ndarray,
        epsilon: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """``mu + epsilon * sigma`` with one less temporary.

        IEEE-754 addition is commutative, so adding ``mu`` into the product
        in place is bit-identical to the scalar sampler's expression.  ``out``
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
        of backpropagation).  The first call retrieves the whole outstanding
        span with a single batched kernel call.
        """
        self._validate(mu, sigma)
        if not self._records:
            raise StreamOrderError("no outstanding epsilon block to retrieve")
        # validate against the outstanding record BEFORE any retrieval side
        # effect (span replay / register rewind / pop), so an out-of-order
        # backward walk fails without consuming or moving anything
        if self._records[-1].shape != tuple(mu.shape):
            raise StreamOrderError(
                f"retrieval shape {tuple(mu.shape)} does not match outstanding "
                f"block shape {self._records[-1].shape}; backward order must "
                "mirror forward order"
            )
        if self._retrieval_values is None:
            self._begin_retrieval()
        assert self._retrieval_values is not None
        record = self._records.pop()
        values = self._retrieval_values.pop()
        epsilon = np.ascontiguousarray(values).reshape(
            (self.n_samples,) + mu.shape
        )
        for usage in self._usages:
            if self._policy == "stored":
                usage.record_retrieve(record.count)
                usage.record_release(record.count)
            elif self._policy == "reversible":
                usage.release_checkpoint(self._bank.n_bits)
                usage.record_retrieve(record.count)
            else:
                usage.record_retrieve(record.count)
        if not self._records:
            self._retrieval_values = None
            self._span_start_states = None
        return SampledWeightsBatch(
            weights=self._build_weights(mu, sigma, epsilon), epsilon=epsilon
        )

    def _begin_retrieval(self) -> None:
        """Regenerate (or look up) the whole outstanding span, block by block."""
        if self._prefetched:
            raise StreamOrderError(
                "cannot start the backward pass with unconsumed prefetched "
                "forward blocks"
            )
        total = sum(record.count for record in self._records)
        if self._policy == "stored":
            self._retrieval_values = [
                record.stored_values for record in self._records  # type: ignore[misc]
            ]
            return
        if self._policy == "reversible":
            assert self._span_start_states is not None
            try:
                span = self._bank.replay_blocks(
                    self._span_start_states,
                    total,
                    expected_end_states=self._bank.states(),
                )
            except ReplayError as exc:
                raise StreamOrderError(
                    "whole-span checkpoint replay did not land on the "
                    "pre-retrieval patterns; the registers were modified "
                    "outside the sampler"
                ) from exc
            values: list[np.ndarray] = []
            offset = 0
            for record in self._records:
                values.append(span[:, offset : offset + record.count])
                offset += record.count
            self._retrieval_values = values
            return
        # "reversible-hw": literal reversed shifting for the whole span; the
        # registers physically rewind to the span start, and the farthest
        # patterns are remembered so finish_iteration() can resume from them
        # (the per-stream policy does the same in reset_epoch).
        self._hw_resume_states = self._bank.states()
        reversed_span = self._bank.epsilon_blocks_reverse(total)
        values = [np.empty(0)] * len(self._records)
        offset = 0
        for index in range(len(self._records) - 1, -1, -1):
            count = self._records[index].count
            # Reverse shifting yields newest-value-first; restore generation
            # order so callers see exactly the forward block.
            values[index] = reversed_span[:, offset : offset + count][:, ::-1]
            offset += count
        self._retrieval_values = values

    # ------------------------------------------------------------------
    def finish_iteration(self) -> None:
        """Assert all blocks were consumed and reset per-iteration state."""
        if self._records:
            raise StreamOrderError(
                f"{len(self._records)} epsilon block(s) were never retrieved"
            )
        if self._prefetched:
            raise StreamOrderError(
                f"{len(self._prefetched)} prefetched block(s) were never sampled"
            )
        if self._hw_resume_states is not None:
            # Resume from the farthest pattern of the forward stage, exactly
            # like ReversibleGaussianStream.reset_epoch.
            self._bank.set_states(self._hw_resume_states)
            self._hw_resume_states = None
        self._span_start_states = None

    def discard_pending(self) -> None:
        """Drop outstanding blocks without retrieving them.

        Prediction-style forward-only workloads never consume their blocks;
        this makes the discard explicit (the per-sample equivalent is simply
        dropping the bank).
        """
        self._records.clear()
        self._prefetched.clear()
        self._retrieval_values = None
        self._span_start_states = None
        self._hw_resume_states = None

    def __repr__(self) -> str:
        return (
            f"BatchedWeightSampler(n_samples={self.n_samples}, "
            f"policy={self._policy!r}, pending={len(self._records)})"
        )
