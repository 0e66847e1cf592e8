"""Per-sample stream banks and LFSR snapshots.

The Shift-BNN accelerator trains the ``S`` Monte-Carlo samples of a BNN on
``S`` Sample Processing Units that run in parallel, each with its own set of
GRNGs.  The software trainer mirrors that organisation with a
:class:`StreamBank`: one epsilon stream per sample, seeded deterministically so
that runs are reproducible and so that the baseline (stored) and Shift-BNN
(reversible) trainers see *exactly the same* random variables when given the
same bank seed.

:class:`LfsrSnapshot` captures and restores the full state of a stream's
generator, which is how the trainer realigns streams between iterations and
how tests assert bit-exact equivalence.

Besides the per-sample :class:`~repro.core.sampler.WeightSampler` objects, a
bank exposes :meth:`StreamBank.batched_sampler`: one
:class:`~repro.core.sampler.BatchedWeightSampler` that serves ``(S, *shape)``
weight/epsilon tensors for *all* samples per call straight from the shared
bank's batched kernels -- the epsilon source of the batched FW/BW/GC
pipeline.  Both interfaces draw from the same registers and produce the same
bits; within one training iteration a caller should use one or the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from .grng_bank import BankedGaussianRNG, GrngBank
from .sampler import BatchedWeightSampler, WeightSampler
from .streams import EpsilonStream, ReversibleGaussianStream, StoredGaussianStream

__all__ = ["LfsrSnapshot", "StreamBank", "StreamPolicy"]

StreamPolicy = Literal["stored", "reversible"]


@dataclass(frozen=True)
class LfsrSnapshot:
    """Immutable snapshot of a GRNG's register and bit-sum."""

    n_bits: int
    taps: tuple[int, ...]
    state: int
    sum_register: int

    @classmethod
    def capture(cls, grng: BankedGaussianRNG) -> "LfsrSnapshot":
        """Snapshot the generator's register and its *actual* running sum.

        The sum register is read from the generator rather than recomputed
        from the pattern, so a generator whose accumulator has drifted from
        the register (e.g. after an external state write without a resync)
        round-trips exactly instead of being silently healed.
        """
        return cls(
            n_bits=grng.n_bits,
            taps=grng.lfsr.taps,
            state=grng.lfsr.state,
            sum_register=grng.sum_register,
        )

    def restore(self, grng: BankedGaussianRNG) -> None:
        """Write this snapshot back into ``grng``, sum register included."""
        if grng.n_bits != self.n_bits or grng.lfsr.taps != self.taps:
            raise ValueError("snapshot was captured from an incompatible generator")
        grng.lfsr.state = self.state
        grng.sum_register = self.sum_register


class StreamBank:
    """A bank of per-sample epsilon streams with deterministic seeding.

    Parameters
    ----------
    n_samples:
        Number of Monte-Carlo samples ``S`` (one stream / SPU each).
    policy:
        ``"stored"`` for the baseline store-and-fetch behaviour, or
        ``"reversible"`` for Shift-BNN's regeneration: nothing is kept
        between the passes, and each block's start registers are derived
        from the current ones by reversing the LFSR (a jump back of the
        block's shifts, then a forward replay).  Both produce the same
        epsilons.
    seed:
        Bank-level seed; sample ``i`` uses seed index ``seed * stride + i`` so
        two banks built with the same ``seed`` produce identical epsilons
        regardless of policy.
    lfsr_bits:
        Width of each GRNG's LFSR (256 in the paper).
    grng_stride:
        Register shifts per Gaussian variable.  ``1`` is the hardware-faithful
        sliding-window mode; ``lfsr_bits`` (non-overlapping patterns) gives
        effectively independent variables and is what the functional BNN
        trainers use by default.  The reversal property holds for any stride.
    sample_indices:
        Which of the run's canonical Monte-Carlo samples this bank hosts
        (default: ``0 .. n_samples-1``).  A distributed shard worker passes
        its shard here: row ``j`` is then seeded as canonical sample
        ``sample_indices[j]`` would be, so the union of the shard banks
        reproduces a full bank's epsilon bits exactly, regardless of how the
        samples are partitioned.
    """

    _SEED_STRIDE = 1024

    def __init__(
        self,
        n_samples: int,
        policy: StreamPolicy = "reversible",
        seed: int = 0,
        lfsr_bits: int = 256,
        bytes_per_value: int = 2,
        grng_stride: int = 1,
        sample_indices: Sequence[int] | None = None,
    ) -> None:
        if n_samples < 1:
            raise ValueError("a stream bank needs at least one sample")
        if policy not in ("stored", "reversible"):
            raise ValueError(f"unknown stream policy {policy!r}")
        if sample_indices is None:
            sample_indices = range(n_samples)
        self._sample_indices = tuple(int(index) for index in sample_indices)
        if len(self._sample_indices) != n_samples:
            raise ValueError(
                f"sample_indices carries {len(self._sample_indices)} entries "
                f"for {n_samples} samples"
            )
        if any(index < 0 for index in self._sample_indices):
            raise ValueError("sample indices must be non-negative")
        self._n_samples = n_samples
        self._policy: StreamPolicy = policy
        self._seed = seed
        self._lfsr_bits = lfsr_bits
        # All per-sample generators live in one packed GrngBank: the batched
        # sampler draws every row per kernel call, a per-sample sampler its
        # own row.  Both draw the same bits, so values are policy- and
        # engine-independent.
        self._grng_bank = GrngBank(
            n_bits=lfsr_bits,
            seed_indices=[
                seed * self._SEED_STRIDE + sample_index
                for sample_index in self._sample_indices
            ],
            stride=grng_stride,
        )
        self._streams: list[EpsilonStream] = [
            self._build_stream(self._grng_bank.row_view(sample_index), bytes_per_value)
            for sample_index in range(n_samples)
        ]
        self._samplers = [WeightSampler(stream) for stream in self._streams]
        self._batched_sampler: BatchedWeightSampler | None = None

    def _build_stream(
        self, grng: BankedGaussianRNG, bytes_per_value: int
    ) -> EpsilonStream:
        if self._policy == "stored":
            return StoredGaussianStream(grng, bytes_per_value=bytes_per_value)
        return ReversibleGaussianStream(grng, bytes_per_value=bytes_per_value)

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples (streams) in the bank."""
        return self._n_samples

    @property
    def policy(self) -> StreamPolicy:
        """The epsilon-management policy used by every stream in the bank."""
        return self._policy

    @property
    def sample_indices(self) -> tuple[int, ...]:
        """Canonical Monte-Carlo sample index hosted by each row."""
        return self._sample_indices

    @property
    def streams(self) -> Sequence[EpsilonStream]:
        """The per-sample streams, indexable by sample number."""
        return tuple(self._streams)

    @property
    def samplers(self) -> Sequence[WeightSampler]:
        """The per-sample weight samplers, indexable by sample number."""
        return tuple(self._samplers)

    def sampler(self, sample_index: int) -> WeightSampler:
        """Return the weight sampler of Monte-Carlo sample ``sample_index``."""
        return self._samplers[sample_index]

    def batched_sampler(self) -> BatchedWeightSampler:
        """A sampler serving all ``S`` samples per call from the shared bank.

        The batched sampler draws ``(S, *weight_shape)`` tensors straight from
        the shared :class:`~repro.core.grng_bank.GrngBank` kernels while
        updating the same per-sample :class:`~repro.core.streams.StreamUsage`
        records as the per-sample samplers would, so traffic totals stay
        policy-comparable.  It shares the bank's register state with the
        per-sample samplers; within one iteration use either interface, not
        both.
        """
        if self._batched_sampler is None:
            self._batched_sampler = BatchedWeightSampler(
                self._grng_bank,
                [stream.usage for stream in self._streams],
                policy=self._policy,
            )
        return self._batched_sampler

    def __iter__(self) -> Iterator[WeightSampler]:
        return iter(self._samplers)

    def __len__(self) -> int:
        return self._n_samples

    # ------------------------------------------------------------------
    def snapshots(self) -> list[LfsrSnapshot]:
        """Capture a snapshot of every stream's generator."""
        return [LfsrSnapshot.capture(stream.grng) for stream in self._streams]

    def restore(self, snapshots: Sequence[LfsrSnapshot]) -> None:
        """Restore every stream's generator from ``snapshots``.

        This is how a distributed shard worker adopts the coordinator's
        canonical generator states before executing a step, and how
        checkpoint loading rewinds a bank onto the saved trajectory.
        """
        if len(snapshots) != self._n_samples:
            raise ValueError(
                f"expected {self._n_samples} snapshots, got {len(snapshots)}"
            )
        for snapshot, stream in zip(snapshots, self._streams):
            snapshot.restore(stream.grng)

    def usage_state_dicts(self) -> list[dict[str, int]]:
        """Per-sample traffic counters, in row order (checkpoint / wire format)."""
        return [stream.usage.state_dict() for stream in self._streams]

    def load_usage_state_dicts(self, states: Sequence[dict[str, int]]) -> None:
        """Restore the per-sample traffic counters captured by
        :meth:`usage_state_dicts`."""
        if len(states) != self._n_samples:
            raise ValueError(
                f"expected {self._n_samples} usage records, got {len(states)}"
            )
        for stream, state in zip(self._streams, states):
            stream.usage.load_state_dict(state)

    def reset_usage(self) -> None:
        """Zero every stream's traffic counters (shard workers, step start)."""
        for stream in self._streams:
            stream.usage.reset()

    @property
    def grng_bank(self) -> GrngBank:
        """The shared batched generator bank backing every stream."""
        return self._grng_bank

    def finish_iteration(self) -> None:
        """Check that every stream consumed all its blocks this iteration."""
        if self._batched_sampler is not None:
            self._batched_sampler.finish_iteration()
        for sampler in self._samplers:
            sampler.finish_iteration()

    def total_offchip_epsilon_bytes(self) -> int:
        """Off-chip bytes moved for epsilons across all samples (read + write)."""
        return sum(
            stream.usage.offchip_write_bytes + stream.usage.offchip_read_bytes
            for stream in self._streams
        )

    def total_epsilon_footprint_bytes(self) -> int:
        """Peak epsilon memory footprint across all samples."""
        return sum(stream.usage.footprint_bytes for stream in self._streams)
