"""Batched Gaussian random number generation over an LFSR bank.

:class:`GrngBank` is the vectorised counterpart of
:class:`~repro.core.grng.LfsrGaussianRNG`: it drives one
:class:`~repro.core.lfsr_array.LfsrArray` row per Monte-Carlo sample and
converts pattern popcounts into standardised Gaussian variables for *all*
rows with one set of packed-kernel calls.  Values are bit-identical to the
scalar generator (property-tested), because both share the same seeds,
recurrence kernel and CLT conversion.

Two interfaces are exposed:

* the batched array interface (:meth:`GrngBank.epsilon_blocks`,
  :meth:`GrngBank.epsilon_blocks_reverse`) for callers that operate on every
  sample at once;
* per-row :class:`BankedGaussianRNG` views that are drop-in compatible with
  the scalar generator, so :class:`~repro.core.streams.EpsilonStream`
  policies and :class:`~repro.core.sampler.WeightSampler` work unchanged.

**Lockstep prefetching.**  The BNN trainers walk the Monte-Carlo samples one
after another, but every sample requests the *same* sequence of block shapes
(one per Bayesian layer).  With ``lockstep=True`` the bank exploits that: the
first row to request a block triggers one batched kernel call that produces
the block for *every* row; the other rows' values are queued and served when
their streams ask.  The same speculation covers reversed retrieval, and
checkpoint replays are batched through a per-row ledger of generated blocks.
Any deviation from lockstep (an external register write, a mismatched
request) falls back to exact per-row generation, so speculation can never
change results -- only speed.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backend import dispatch
from .bitops import pack_int_rows, unpack_bits
from .grng import GRNGMode, LfsrGaussianRNG, ReplayError
from .lfsr import FibonacciLFSR
from .lfsr_array import LfsrArray

__all__ = ["BankedGaussianRNG", "GrngBank", "LfsrRowView"]

_clt_standardise = dispatch("clt_standardise")


@dataclass
class _PrefetchedBlock:
    """One speculatively generated block awaiting consumption by its row."""

    reverse: bool
    count: int
    values: np.ndarray
    pre_state: int
    pre_sum: int


@dataclass
class _LedgerEntry:
    """Record of one generated forward block (the checkpoint-replay source)."""

    pre_state: int
    count: int
    post_state: int


@dataclass
class _ReplayedBlock:
    """One batch-replayed block awaiting its row's retrieval request."""

    start_state: int
    count: int
    values: np.ndarray
    end_state: int


class GrngBank:
    """A bank of CLT Gaussian generators stepped in lockstep.

    Parameters
    ----------
    n_rows:
        Number of generators (Monte-Carlo samples).  Ignored when
        ``seed_indices`` is given.
    n_bits:
        LFSR width shared by every row (256 in the paper).
    seed_indices:
        Deterministic seed selector per row, hashed exactly like
        ``FibonacciLFSR.from_seed_index``.  Defaults to ``range(n_rows)``.
    taps:
        Optional explicit tap positions shared by every row.
    stride:
        Register shifts per emitted variable (see the scalar generator).
    lockstep:
        Enable speculative cross-row batching for the per-row views.  The
        batched array interface is always vectorised; this flag only controls
        whether single-row requests may be served by prefetching for every
        row at once.
    """

    def __init__(
        self,
        n_rows: int | None = None,
        n_bits: int = 256,
        seed_indices: Sequence[int] | None = None,
        taps: tuple[int, ...] | None = None,
        stride: int = 1,
        lockstep: bool = False,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be at least 1 shift per variable")
        if seed_indices is None:
            if n_rows is None or n_rows < 1:
                raise ValueError("a GrngBank needs at least one row")
            seed_indices = range(n_rows)
        self._array = LfsrArray.from_seed_indices(n_bits, list(seed_indices), taps)
        n_rows = self._array.n_rows
        self._n = n_bits
        self._stride = stride
        self._mean = n_bits / 2.0
        self._std = math.sqrt(n_bits / 4.0)
        self._lockstep = lockstep
        self._sums = self._array.popcounts()
        self._generated = np.zeros(n_rows, dtype=np.int64)
        self._retrieved = np.zeros(n_rows, dtype=np.int64)
        self._modes = [GRNGMode.IDLE] * n_rows
        self._queues: list[deque[_PrefetchedBlock]] = [deque() for _ in range(n_rows)]
        self._replay_queues: list[deque[_ReplayedBlock]] = [
            deque() for _ in range(n_rows)
        ]
        self._ledgers: list[list[_LedgerEntry]] = [[] for _ in range(n_rows)]
        self._dirty = [False] * n_rows

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of generators in the bank."""
        return self._array.n_rows

    @property
    def n_bits(self) -> int:
        """LFSR width shared by every row."""
        return self._n

    @property
    def stride(self) -> int:
        """Register shifts performed per emitted variable."""
        return self._stride

    @property
    def taps(self) -> tuple[int, ...]:
        """Tap positions shared by every row."""
        return self._array.taps

    @property
    def lockstep(self) -> bool:
        """Whether per-row requests may be served by cross-row prefetching."""
        return self._lockstep

    @property
    def lfsr_array(self) -> LfsrArray:
        """The underlying packed register bank."""
        return self._array

    @property
    def resolution(self) -> float:
        """Smallest representable step between two Gaussian values."""
        return 1.0 / self._std

    @property
    def generated_counts(self) -> np.ndarray:
        """Variables produced in forward mode, per row (a copy)."""
        return self._generated.copy()

    @property
    def retrieved_counts(self) -> np.ndarray:
        """Variables retrieved in reverse mode, per row (a copy)."""
        return self._retrieved.copy()

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"GrngBank(n_rows={self.n_rows}, n_bits={self._n}, "
            f"stride={self._stride}, lockstep={self._lockstep})"
        )

    # ------------------------------------------------------------------
    # raw batched generation (physical register states)
    # ------------------------------------------------------------------
    def _standardise(self, popcounts: np.ndarray) -> np.ndarray:
        # Integer-to-double conversion is exact for popcounts, so every
        # eligible backend of the dispatch point produces byte-identical
        # float64 values whatever the popcount dtype.
        return _clt_standardise(popcounts, self._mean, self._std)

    def _generate_forward(
        self, rows: Sequence[int] | None, count: int
    ) -> np.ndarray:
        # One fused dispatch: shift, popcount only the positions the GRNG
        # emits (one per ``stride`` shifts) and standardise.  Integer
        # popcounts are exact, so the emitted values are bit-identical for
        # any stride and any backend.
        selection = slice(None) if rows is None else np.asarray(rows)
        values = np.empty((len(self._sums[selection]), count), dtype=np.float64)
        self._sums[selection] = self._array.grng_block(
            count, self._stride, self._mean, self._std, values, rows=rows
        )
        return values

    def _generate_reverse(
        self, rows: Sequence[int] | None, count: int
    ) -> np.ndarray:
        selection = slice(None) if rows is None else np.asarray(rows)
        current_sums = self._sums[selection]
        # The hardware steps the sum register by (recovered tail - dropped
        # head) per reverse shift, so whatever offset it carries from the
        # true pattern popcount (zero unless someone wrote the register)
        # rides along unchanged: emit the current sum, then the exact
        # popcounts of the earlier patterns plus that drift.
        drift = current_sums - self._array.popcounts(rows)
        earlier = np.empty((len(current_sums), count), dtype=np.int32)
        self._array.grng_block(
            count, self._stride, self._mean, self._std, earlier, rows=rows,
            reverse=True,
        )
        drifted = earlier + drift[:, None]
        # built before the register update: current_sums may view self._sums
        sums = np.concatenate([current_sums[:, None], drifted[:, :-1]], axis=1)
        self._sums[selection] = drifted[:, -1]
        return self._standardise(sums)

    # ------------------------------------------------------------------
    # batched array interface
    # ------------------------------------------------------------------
    def epsilon_blocks(self, count: int) -> np.ndarray:
        """Generate ``count`` Gaussian variables for every row at once.

        Returns an ``(n_rows, count)`` float64 array; row ``i`` is exactly
        what the scalar generator with the same seed index would produce.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros((self.n_rows, 0), dtype=np.float64)
        self._materialise_all()
        values, _, _ = self._generate_all(reverse=False, count=count)
        self._generated += count
        self._modes = [GRNGMode.FORWARD] * self.n_rows
        return values

    def epsilon_blocks_reverse(self, count: int) -> np.ndarray:
        """Retrieve the previous ``count`` variables per row (newest first).

        Row ``i`` equals ``epsilon_block_reverse(count)`` of the matching
        scalar generator; registers are left ``count * stride`` patterns
        earlier.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros((self.n_rows, 0), dtype=np.float64)
        self._materialise_all()
        values = self._generate_reverse(None, count)
        self._retrieved += count
        self._modes = [GRNGMode.REVERSE] * self.n_rows
        return values

    def states(self) -> list[int]:
        """Logical register values of every row, as Python integers.

        Pending speculative blocks are materialised first so the returned
        values always reflect what each row's consumer would observe.
        """
        self._materialise_all()
        return self._array.states()

    def set_states(self, states: Sequence[int]) -> None:
        """Overwrite every row's register and resynchronise the bit sums.

        Rows are marked dirty (suspending lockstep speculation until the next
        :meth:`end_iteration`), exactly like a per-row external state write.
        """
        if len(states) != self.n_rows:
            raise ValueError(
                f"expected {self.n_rows} states, got {len(states)}"
            )
        self._materialise_all()
        for row, state in enumerate(states):
            self._array.set_state(row, int(state))
            self._replay_queues[row].clear()
            self._dirty[row] = True
        self._sums = self._array.popcounts()

    def replay_blocks(
        self,
        start_states: Sequence[int],
        count: int,
        expected_end_states: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Replay one contiguous span of ``count`` variables for every row.

        This is the whole-span batched counterpart of
        :meth:`row_replay_block`: the registers are rewound to
        ``start_states`` (one checkpoint per row), the span is regenerated
        with a single forward kernel call, and the landing patterns are
        verified against ``expected_end_states`` (the pre-retrieval
        patterns).  Registers are left on the span *end* -- callers that
        retrieve a whole backward pass at once continue from exactly the
        pattern the forward stage reached.  The replay counts as retrieval,
        not generation, so shift counters are rewound by ``count * stride``
        like the per-row replay.

        Returns an ``(n_rows, count)`` float64 array, bit-identical to the
        concatenated per-layer replays of the same span.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if len(start_states) != self.n_rows:
            raise ValueError(
                f"expected {self.n_rows} start states, got {len(start_states)}"
            )
        if count == 0:
            return np.zeros((self.n_rows, 0), dtype=np.float64)
        self._materialise_all()
        saved_states = self._array.states()
        saved_sums = self._sums.copy()
        for row, state in enumerate(start_states):
            self._array.set_state(row, int(state))
        values = self._generate_forward(None, count)
        if expected_end_states is not None:
            landed = self._array.states()
            mismatched = [
                row
                for row in range(self.n_rows)
                if landed[row] != int(expected_end_states[row])
            ]
            if mismatched:
                # Failed replay must not move anything: put every row's
                # register, sum and shift counter back where they were
                # before the call, then flag the rows that diverged.
                for row in range(self.n_rows):
                    self._array.set_state(row, saved_states[row])
                    self._array.adjust_shift_count(row, -count * self._stride)
                self._sums = saved_sums
                for row in mismatched:
                    self._dirty[row] = True
                raise ReplayError(
                    "checkpoint replay did not land on the pre-retrieval "
                    f"pattern for rows {mismatched}"
                )
        for row in range(self.n_rows):
            self._array.adjust_shift_count(row, -count * self._stride)
            self._drop_ledger_span(row, count)
        self._generated += count
        self._modes = [GRNGMode.FORWARD] * self.n_rows
        return values

    def _drop_ledger_span(self, row: int, count: int) -> None:
        """Pop the ledger entries covered by a whole-span replay."""
        ledger = self._ledgers[row]
        covered = 0
        while ledger and covered < count:
            covered += ledger[-1].count
            ledger.pop()

    def _generate_all(
        self, reverse: bool, count: int
    ) -> tuple[np.ndarray, list[int], np.ndarray]:
        """Generate for every row, recording ledger entries when tracking.

        Returns the values together with the pre-block states and sums, so
        speculation can queue them without re-reading the register bank.
        """
        pre_states = self._array.states()
        pre_sums = self._sums.copy()
        if reverse:
            values = self._generate_reverse(None, count)
        else:
            values = self._generate_forward(None, count)
        if self._lockstep and not reverse:
            post_states = self._array.states()
            for row in range(self.n_rows):
                self._ledgers[row].append(
                    _LedgerEntry(pre_states[row], count, post_states[row])
                )
        return values, pre_states, pre_sums

    # ------------------------------------------------------------------
    # lockstep bookkeeping
    # ------------------------------------------------------------------
    def _materialise_row(self, row: int) -> None:
        """Rewind a row's physical register to its logical state.

        Called whenever a row must leave the speculative fast path: pending
        prefetched blocks are discarded and the register is put back where
        the row's consumer believes it is.  The row is marked dirty, which
        suspends cross-row speculation until :meth:`end_iteration`.
        """
        queue = self._queues[row]
        if not queue:
            return
        head = queue[0]
        steps = sum(
            entry.count * self._stride * (-1 if entry.reverse else 1)
            for entry in queue
        )
        self._array.set_state(row, head.pre_state)
        self._sums[row] = head.pre_sum
        self._array.adjust_shift_count(row, -steps)
        queue.clear()
        self._dirty[row] = True

    def _materialise_replay_row(self, row: int) -> None:
        """Drop a row's pending replayed blocks.

        Batched replays restore every sibling's physical register before
        queueing values, so pending replays never leave the register away
        from its logical position -- discarding them is pure cache
        invalidation, plus the dirty mark that suspends speculation.
        """
        replay_queue = self._replay_queues[row]
        if not replay_queue:
            return
        replay_queue.clear()
        self._dirty[row] = True

    def _materialise_all(self) -> None:
        for row in range(self.n_rows):
            self._materialise_row(row)
            self._materialise_replay_row(row)

    def _can_speculate(self) -> bool:
        return self._lockstep and not any(self._dirty)

    def _speculate(self, reverse: bool, count: int, requester: int) -> np.ndarray:
        """One batched call serving ``requester`` now and queueing the rest."""
        values, pre_states, pre_sums = self._generate_all(reverse, count)
        for row in range(self.n_rows):
            if row == requester:
                continue
            self._queues[row].append(
                _PrefetchedBlock(
                    reverse=reverse,
                    count=count,
                    values=values[row],
                    pre_state=pre_states[row],
                    pre_sum=int(pre_sums[row]),
                )
            )
        return values[requester]

    def end_iteration(self) -> None:
        """Re-arm lockstep speculation at a training-iteration boundary.

        Leftover prefetched blocks are discarded (rewinding their rows to the
        logical state), replay caches and ledgers are cleared, and every row
        is marked clean again.  :class:`~repro.core.checkpoint.StreamBank`
        calls this from ``finish_iteration``.
        """
        for row in range(self.n_rows):
            self._materialise_row(row)
            self._materialise_replay_row(row)
            self._ledgers[row].clear()
        self._dirty = [False] * self.n_rows

    # ------------------------------------------------------------------
    # per-row interface (used by BankedGaussianRNG views)
    # ------------------------------------------------------------------
    def row_view(self, row: int) -> "BankedGaussianRNG":
        """A scalar-compatible view of generator ``row``."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        return BankedGaussianRNG(self, row)

    def row_epsilon_block(self, row: int, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        queue = self._queues[row]
        if queue and not queue[0].reverse and queue[0].count == count:
            entry = queue.popleft()
            values = entry.values
        else:
            if queue:
                self._materialise_row(row)
            if self._can_speculate():
                values = self._speculate(reverse=False, count=count, requester=row)
            else:
                pre_state = (
                    self._array.get_state(row) if self._lockstep else None
                )
                values = self._generate_forward([row], count)[0]
                if self._lockstep:
                    assert pre_state is not None
                    self._ledgers[row].append(
                        _LedgerEntry(pre_state, count, self._array.get_state(row))
                    )
        self._generated[row] += count
        self._modes[row] = GRNGMode.FORWARD
        return values

    def row_epsilon_block_reverse(self, row: int, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        queue = self._queues[row]
        if queue and queue[0].reverse and queue[0].count == count:
            entry = queue.popleft()
            values = entry.values
        else:
            if queue:
                self._materialise_row(row)
            if self._can_speculate():
                values = self._speculate(reverse=True, count=count, requester=row)
            else:
                values = self._generate_reverse([row], count)[0]
        self._retrieved[row] += count
        self._modes[row] = GRNGMode.REVERSE
        return values

    def row_replay_block(
        self,
        row: int,
        start_state: int,
        count: int,
        expected_end_state: int | None = None,
    ) -> np.ndarray:
        """Checkpoint replay for one row, batched across rows when possible.

        Lockstep banks keep a ledger of every generated forward block; when
        all rows are due to replay blocks of the same size (the LIFO backward
        walk of the trainers), the first request replays *every* row's
        checkpointed block with one batched kernel call and caches the
        siblings' values.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        if self._queues[row]:
            self._materialise_row(row)
        replay_queue = self._replay_queues[row]
        if replay_queue:
            entry = replay_queue[0]
            if (
                entry.count == count
                and entry.start_state == start_state
                and (
                    expected_end_state is None
                    or entry.end_state == expected_end_state
                )
            ):
                replay_queue.popleft()
                # The retrieval now takes logical effect: the register moves
                # onto the replayed checkpoint with a resynchronised sum.
                self._array.set_state(row, entry.start_state)
                self._sums[row] = self._array.popcounts([row])[0]
                self._generated[row] += count
                self._modes[row] = GRNGMode.FORWARD
                return entry.values
            self._materialise_replay_row(row)
        if self._can_batch_replay(row, start_state, count, expected_end_state):
            return self._batched_replay(row, count)
        return self._single_replay(row, start_state, count, expected_end_state)

    def _can_batch_replay(
        self,
        row: int,
        start_state: int,
        count: int,
        expected_end_state: int | None,
    ) -> bool:
        if not self._can_speculate():
            return False
        # Sibling rows may still hold unconsumed forward prefetches (the
        # trainers interleave forward and backward per sample) or pending
        # replayed blocks; both are fine -- the batch snapshots and restores
        # their physical registers around the replay.  Only the ledgers must
        # agree that every row's most recent unreplayed block has this size.
        for ledger in self._ledgers:
            if not ledger or ledger[-1].count != count:
                return False
        tail = self._ledgers[row][-1]
        if tail.pre_state != start_state:
            return False
        return expected_end_state is None or tail.post_state == expected_end_state

    def _batched_replay(self, row: int, count: int) -> np.ndarray:
        """Replay every row's checkpointed tail block with one kernel call.

        The requesting row is left on its checkpoint (standard replay
        semantics); every other row's physical register and sum are restored
        to where they were before the batch, and its values are queued until
        the row's own retrieval request consumes them (which is when the
        register logically moves onto the checkpoint).
        """
        tails = [self._ledgers[j].pop() for j in range(self.n_rows)]
        saved_states = self._array.states()
        saved_sums = self._sums.copy()
        for j in range(self.n_rows):
            self._array.set_state(j, tails[j].pre_state)
        values = self._generate_forward(None, count)
        landed = self._array.states()
        for j in range(self.n_rows):
            self._array.adjust_shift_count(j, -count * self._stride)
            if j == row:
                self._array.set_state(j, tails[j].pre_state)
            else:
                self._array.set_state(j, saved_states[j])
        self._sums = saved_sums
        self._sums[row] = self._array.popcounts([row])[0]
        mismatched = [
            j for j in range(self.n_rows) if landed[j] != tails[j].post_state
        ]
        for j in mismatched:
            self._dirty[j] = True
        if row in mismatched:
            raise ReplayError(
                "checkpoint replay did not land on the pre-retrieval pattern"
            )
        for j in range(self.n_rows):
            if j != row and j not in mismatched:
                self._replay_queues[j].append(
                    _ReplayedBlock(
                        start_state=tails[j].pre_state,
                        count=count,
                        values=values[j],
                        end_state=tails[j].post_state,
                    )
                )
        self._generated[row] += count
        self._modes[row] = GRNGMode.FORWARD
        return values[row]

    def _single_replay(
        self,
        row: int,
        start_state: int,
        count: int,
        expected_end_state: int | None,
    ) -> np.ndarray:
        self._array.set_state(row, start_state)
        values = self._generate_forward([row], count)[0]
        self._generated[row] += count
        self._modes[row] = GRNGMode.FORWARD
        if (
            expected_end_state is not None
            and self._array.get_state(row) != expected_end_state
        ):
            self._dirty[row] = True
            raise ReplayError(
                "checkpoint replay did not land on the pre-retrieval pattern"
            )
        self._array.set_state(row, start_state)
        self._array.adjust_shift_count(row, -count * self._stride)
        self._sums[row] = self._array.popcounts([row])[0]
        ledger = self._ledgers[row]
        if ledger and ledger[-1].count == count and ledger[-1].pre_state == start_state:
            ledger.pop()
        return values

    def row_resync_sum_register(self, row: int) -> None:
        self._materialise_row(row)
        self._sums[row] = self._array.popcounts([row])[0]

    def row_state(self, row: int) -> int:
        queue = self._queues[row]
        if queue:
            return queue[0].pre_state
        replay_queue = self._replay_queues[row]
        if replay_queue:
            return replay_queue[0].end_state
        return self._array.get_state(row)

    def row_set_state(self, row: int, value: int) -> None:
        self._materialise_row(row)
        self._replay_queues[row].clear()
        self._dirty[row] = True
        self._array.set_state(row, value)

    def row_sum_register(self, row: int) -> int:
        queue = self._queues[row]
        if queue:
            return queue[0].pre_sum
        replay_queue = self._replay_queues[row]
        if replay_queue:
            return int(bin(replay_queue[0].end_state).count("1"))
        return int(self._sums[row])

    def row_set_sum_register(self, row: int, value: int) -> None:
        self._materialise_row(row)
        self._replay_queues[row].clear()
        self._dirty[row] = True
        self._sums[row] = int(value)

    def row_shift_count(self, row: int) -> int:
        physical = int(self._array.shift_counts[row])
        queued = sum(
            entry.count * self._stride * (-1 if entry.reverse else 1)
            for entry in self._queues[row]
        )
        return physical - queued


class LfsrRowView:
    """A ``FibonacciLFSR``-shaped window onto one row of a :class:`GrngBank`.

    Exposes the registers the way streams and snapshots expect (``state``,
    ``taps``, ``popcount``, ...) while hiding the bank's speculative
    prefetching: reads always reflect the row's *logical* position, and
    writes transparently drop any speculation for the row.
    """

    def __init__(self, bank: GrngBank, row: int) -> None:
        self._bank = bank
        self._row = row

    @property
    def n_bits(self) -> int:
        """Register length in bits."""
        return self._bank.n_bits

    @property
    def taps(self) -> tuple[int, ...]:
        """1-based tap positions (tail tap included)."""
        return self._bank.taps

    @property
    def state(self) -> int:
        """Current (logical) register contents as an integer."""
        return self._bank.row_state(self._row)

    @state.setter
    def state(self, value: int) -> None:
        self._bank.row_set_state(self._row, value)

    @property
    def shift_count(self) -> int:
        """Net number of forward shifts applied to this row."""
        return self._bank.row_shift_count(self._row)

    @property
    def popcount(self) -> int:
        """Number of set bits in the current pattern."""
        return int(bin(self.state).count("1"))

    def state_bits(self) -> np.ndarray:
        """Return the registers ``R1..Rn`` as a ``uint8`` array."""
        words = pack_int_rows([self.state], self.n_bits)
        return unpack_bits(words, self.n_bits)[0]

    def copy(self) -> FibonacciLFSR:
        """A detached scalar register with this row's logical state."""
        clone = FibonacciLFSR(self.n_bits, seed=self.state, taps=self.taps)
        clone.adjust_shift_count(self.shift_count)
        return clone

    def shift_forward(self) -> int:
        """Advance this row one pattern through the scalar recurrence."""
        scalar = self.copy()
        bit = scalar.shift_forward()
        self._bank.row_set_state(self._row, scalar.state)
        self._bank.lfsr_array.adjust_shift_count(self._row, 1)
        return bit

    def shift_reverse(self) -> int:
        """Step this row back one pattern through the scalar recurrence."""
        scalar = self.copy()
        bit = scalar.shift_reverse()
        self._bank.row_set_state(self._row, scalar.state)
        self._bank.lfsr_array.adjust_shift_count(self._row, -1)
        return bit

    def __repr__(self) -> str:
        return (
            f"LfsrRowView(row={self._row}, n_bits={self.n_bits}, "
            f"state=0x{self.state:x})"
        )


class BankedGaussianRNG:
    """Scalar-compatible Gaussian generator view over one :class:`GrngBank` row.

    Implements the :class:`~repro.core.grng.LfsrGaussianRNG` surface used by
    the epsilon streams, the weight sampler and the snapshots, while routing
    every block operation through the bank so that lockstep workloads are
    served by batched kernel calls.
    """

    def __init__(self, bank: GrngBank, row: int) -> None:
        self._bank = bank
        self._row = row
        self._lfsr_view = LfsrRowView(bank, row)

    # ------------------------------------------------------------------
    # properties (mirror the scalar generator)
    # ------------------------------------------------------------------
    @property
    def bank(self) -> GrngBank:
        """The bank this view belongs to."""
        return self._bank

    @property
    def row(self) -> int:
        """This view's row index within the bank."""
        return self._row

    @property
    def lfsr(self) -> LfsrRowView:
        """The underlying register row (exposed for tests and checkpoints)."""
        return self._lfsr_view

    @property
    def n_bits(self) -> int:
        """Width of the LFSR pattern used per Gaussian variable."""
        return self._bank.n_bits

    @property
    def mode(self) -> GRNGMode:
        """Current operating mode of this row."""
        return self._bank._modes[self._row]

    @property
    def resolution(self) -> float:
        """Smallest representable step between two Gaussian values."""
        return self._bank.resolution

    @property
    def stride(self) -> int:
        """Register shifts performed per emitted variable."""
        return self._bank.stride

    @property
    def generated_count(self) -> int:
        """Number of variables produced in forward mode."""
        return int(self._bank._generated[self._row])

    @property
    def retrieved_count(self) -> int:
        """Number of variables retrieved in reverse mode."""
        return int(self._bank._retrieved[self._row])

    @property
    def sum_register(self) -> int:
        """The running pattern bit-sum register of this row."""
        return self._bank.row_sum_register(self._row)

    @sum_register.setter
    def sum_register(self, value: int) -> None:
        self._bank.row_set_sum_register(self._row, value)

    def set_mode(self, mode: GRNGMode) -> None:
        """Switch the operating mode (models the controller's mode signal)."""
        if not isinstance(mode, GRNGMode):
            raise TypeError(f"expected GRNGMode, got {type(mode).__name__}")
        self._bank._modes[self._row] = mode

    # ------------------------------------------------------------------
    # generation interface
    # ------------------------------------------------------------------
    def next_epsilon(self) -> float:
        """Generate one Gaussian variable by ``stride`` forward shifts."""
        return float(self.epsilon_block(1)[0])

    def previous_epsilon(self) -> float:
        """Retrieve the most recent variable by ``stride`` reverse shifts."""
        return float(self.epsilon_block_reverse(1)[0])

    def epsilon_block(self, count: int) -> np.ndarray:
        """Generate ``count`` variables (batched across rows when in lockstep)."""
        return self._bank.row_epsilon_block(self._row, count)

    def epsilon_block_reverse(self, count: int) -> np.ndarray:
        """Retrieve the previous ``count`` variables (newest first)."""
        return self._bank.row_epsilon_block_reverse(self._row, count)

    def replay_block(
        self,
        start_state: int,
        count: int,
        expected_end_state: int | None = None,
    ) -> np.ndarray:
        """Regenerate a block from a register checkpoint (see the scalar)."""
        return self._bank.row_replay_block(
            self._row, start_state, count, expected_end_state
        )

    def resync_sum_register(self) -> None:
        """Reload the running bit-sum from the current pattern."""
        self._bank.row_resync_sum_register(self._row)

    # ------------------------------------------------------------------
    # copying and diagnostics
    # ------------------------------------------------------------------
    def copy(self) -> LfsrGaussianRNG:
        """A detached scalar generator with this row's logical state."""
        scalar = LfsrGaussianRNG(
            n_bits=self.n_bits,
            seed_index=0,
            taps=self._bank.taps,
            stride=self._bank.stride,
        )
        scalar.lfsr.state = self.lfsr.state
        scalar.sum_register = self.sum_register
        scalar.set_mode(self.mode)
        scalar._generated = self.generated_count
        scalar._retrieved = self.retrieved_count
        return scalar

    def distribution_summary(self, count: int = 4096) -> dict[str, float]:
        """Moments of ``count`` variables from a detached copy."""
        return self.copy().distribution_summary(count)

    def __repr__(self) -> str:
        return (
            f"BankedGaussianRNG(row={self._row}, n_bits={self.n_bits}, "
            f"mode={self.mode.value}, generated={self.generated_count}, "
            f"retrieved={self.retrieved_count})"
        )
