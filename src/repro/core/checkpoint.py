"""Per-sample stream banks.

The Shift-BNN accelerator trains the ``S`` Monte-Carlo samples of a BNN on
``S`` Sample Processing Units that run in parallel, each with its own set of
GRNGs.  The software trainer mirrors that organisation with a
:class:`StreamBank`: one GRNG row and one traffic record per sample, seeded
deterministically so that runs are reproducible and so that the baseline
(stored) and Shift-BNN (reversible) trainers see *exactly the same* random
variables when given the same bank seed.

:meth:`StreamBank.snapshots` / :meth:`StreamBank.restore` read and write
every sample's LFSR register -- a generator's whole state -- as plain
integers, which is how the distributed coordinator realigns shard banks
between steps and how training checkpoints save the generators.

A bank serves its samples through one sampler class,
:class:`~repro.core.sampler.BatchedWeightSampler`, in two shapes:
:meth:`StreamBank.batched_sampler` draws ``(S, *shape)`` tensors for *all*
samples per call -- the epsilon source of the batched FW/BW/GC pipeline --
and :meth:`StreamBank.sampler` draws for sample ``i`` alone, over the one-row
bank :meth:`~repro.core.grng_bank.GrngBank.row_bank`.  Both draw from the same
registers and produce the same bits; within one training iteration a caller
should use one or the other.  A per-sample sampler is built on first use, so
a bank only ever driven batched builds none.
"""

from __future__ import annotations

from typing import Literal, Sequence

from .grng_bank import GrngBank
from .sampler import BatchedWeightSampler
from .streams import StreamUsage

__all__ = ["StreamBank", "StreamPolicy"]

StreamPolicy = Literal["stored", "reversible"]


class StreamBank:
    """Per-sample GRNG rows and traffic records with deterministic seeding.

    Parameters
    ----------
    n_samples:
        Number of Monte-Carlo samples ``S`` (one GRNG row / SPU each).
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
        self._usages = [
            StreamUsage(bytes_per_value=bytes_per_value) for _ in range(n_samples)
        ]
        self._samplers: list[BatchedWeightSampler | None] = [None] * n_samples
        self._batched_sampler: BatchedWeightSampler | None = None

    # ------------------------------------------------------------------
    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples in the bank."""
        return self._n_samples

    @property
    def policy(self) -> StreamPolicy:
        """The epsilon-management policy of every sampler in the bank."""
        return self._policy

    @property
    def sample_indices(self) -> tuple[int, ...]:
        """Canonical Monte-Carlo sample index hosted by each row."""
        return self._sample_indices

    @property
    def usages(self) -> Sequence[StreamUsage]:
        """Per-sample traffic accounting, indexable by sample number."""
        return tuple(self._usages)

    @property
    def streams(self) -> Sequence[BatchedWeightSampler]:
        """Every sample's one-row sampler, indexable by sample number."""
        return tuple(self.sampler(index) for index in range(self._n_samples))

    def sampler(self, sample_index: int) -> BatchedWeightSampler:
        """The one-row sampler of Monte-Carlo sample ``sample_index``.

        It draws row ``sample_index`` of the shared bank alone and books its
        traffic on that sample's :class:`~repro.core.streams.StreamUsage`;
        callers take slice ``[0]`` of what it returns.  Built on first use.
        """
        row = range(self._n_samples)[sample_index]
        sampler = self._samplers[row]
        if sampler is None:
            sampler = self._samplers[row] = BatchedWeightSampler(
                self._grng_bank.row_bank(row), [self._usages[row]], self._policy
            )
        return sampler

    def batched_sampler(self) -> BatchedWeightSampler:
        """A sampler serving all ``S`` samples per call from the shared bank.

        The batched sampler draws ``(S, *weight_shape)`` tensors straight from
        the shared :class:`~repro.core.grng_bank.GrngBank` kernels while
        updating the same per-sample :class:`~repro.core.streams.StreamUsage`
        records as the per-sample samplers do, so traffic totals stay
        policy-comparable.  It shares the bank's register state with the
        per-sample samplers; within one iteration use either interface, not
        both.
        """
        if self._batched_sampler is None:
            self._batched_sampler = BatchedWeightSampler(
                self._grng_bank, self._usages, policy=self._policy
            )
        return self._batched_sampler

    def __len__(self) -> int:
        return self._n_samples

    # ------------------------------------------------------------------
    def snapshots(self) -> list[int]:
        """Every sample's generator register, in row order."""
        return self._grng_bank.states()

    def restore(self, states: Sequence[int]) -> None:
        """Write every sample's generator register from ``states``, in place
        (samplers built earlier continue from them); every state is checked
        before any is written."""
        self._grng_bank.set_states(states)

    def usage_state_dicts(self) -> list[dict[str, int]]:
        """Per-sample traffic counters, in row order (checkpoint / wire format)."""
        return [usage.state_dict() for usage in self._usages]

    def load_usage_state_dicts(self, states: Sequence[dict[str, int]]) -> None:
        """Restore the per-sample traffic counters captured by
        :meth:`usage_state_dicts`."""
        if len(states) != self._n_samples:
            raise ValueError(
                f"expected {self._n_samples} usage records, got {len(states)}"
            )
        for usage, state in zip(self._usages, states):
            usage.load_state_dict(state)

    def reset_usage(self) -> None:
        """Zero every sample's traffic counters (shard workers, step start)."""
        for usage in self._usages:
            usage.reset()

    @property
    def grng_bank(self) -> GrngBank:
        """The shared generator bank backing every sampler."""
        return self._grng_bank

    def finish_iteration(self) -> None:
        """Check that every sampler consumed all its blocks this iteration."""
        for sampler in [self._batched_sampler, *self._samplers]:
            if sampler is not None:
                sampler.finish_iteration()

    def total_offchip_epsilon_bytes(self) -> int:
        """Off-chip bytes moved for epsilons across all samples (read + write)."""
        return sum(
            usage.offchip_write_bytes + usage.offchip_read_bytes
            for usage in self._usages
        )

    def total_epsilon_footprint_bytes(self) -> int:
        """Peak epsilon memory footprint across all samples."""
        return sum(usage.footprint_bytes for usage in self._usages)
