"""Batched Gaussian random number generation over a packed LFSR bank.

:class:`GrngBank` is the software image of the accelerator's GRNGs: one
Fibonacci LFSR plus one bit-sum register per Monte-Carlo sample.  The
registers live packed in a ``(rows, ceil(n_bits / 64))`` ``uint64`` matrix
(bit ``j`` of row ``i`` is bit ``j % 64`` of ``words[i, j // 64]``), and
every shift goes through the ``grng_block`` dispatch point, which shifts,
popcounts the emitted patterns and standardises them in one pass.  Values are
bit-identical to the scalar :class:`~repro.core.grng.LfsrGaussianRNG`
(property-tested), because both share the same seeds, recurrence and CLT
conversion.

Two interfaces are exposed:

* the batched array interface (:meth:`GrngBank.epsilon_blocks`,
  :meth:`GrngBank.epsilon_blocks_reverse`, :meth:`GrngBank.replay_blocks`)
  for callers that operate on every sample at once;
* per-row :class:`BankedGaussianRNG` views carrying the part of the scalar
  generator's surface that :class:`~repro.core.streams.EpsilonStream`
  policies and :class:`~repro.core.checkpoint.LfsrSnapshot` use.  A view is
  a plain accessor onto its row: every block request is a one-row kernel
  call that never touches the other rows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .backend import dispatch
from .bitops import pack_int_rows, unpack_bits, unpack_int_rows
from .grng import ReplayError
from .lfsr import LFSRStateError, mirrored_taps, normalise_taps, seed_from_index

__all__ = ["BankedGaussianRNG", "GrngBank", "LfsrRowView"]

_grng_block = dispatch("grng_block")
_clt_standardise = dispatch("clt_standardise")


def _selection(rows: Sequence[int] | None):
    return slice(None) if rows is None else np.asarray(rows)


class GrngBank:
    """A bank of CLT Gaussian generators, one row per Monte-Carlo sample.

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
    """

    def __init__(
        self,
        n_rows: int | None = None,
        n_bits: int = 256,
        seed_indices: Sequence[int] | None = None,
        taps: tuple[int, ...] | None = None,
        stride: int = 1,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be at least 1 shift per variable")
        self._taps = normalise_taps(n_bits, taps)
        self._reverse_taps = mirrored_taps(n_bits, self._taps)
        if seed_indices is None:
            seed_indices = range(n_rows or 0)
        states = [seed_from_index(n_bits, int(index)) for index in seed_indices]
        if not states:
            raise ValueError("a GrngBank needs at least one row")
        self._n = n_bits
        self._stride = stride
        self._mean = n_bits / 2.0
        self._std = math.sqrt(n_bits / 4.0)
        self._words = pack_int_rows(states, n_bits)
        self._sums = self._popcounts(slice(None))

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of generators in the bank."""
        return self._words.shape[0]

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
        """Tap positions shared by every row (tail tap included)."""
        return self._taps

    # ------------------------------------------------------------------
    # registers
    # ------------------------------------------------------------------
    def _checked(self, value: int) -> int:
        if not isinstance(value, int):
            raise LFSRStateError("LFSR state must be an integer")
        if value <= 0 or value >> self._n:
            raise LFSRStateError(
                f"LFSR state must be a non-zero {self._n}-bit integer, "
                f"got {value!r}"
            )
        return value

    def _popcounts(self, selection) -> np.ndarray:
        return unpack_bits(self._words[selection], self._n).sum(axis=1, dtype=np.int64)

    def _load(self, states: Sequence[int]) -> None:
        if len(states) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} states, got {len(states)}")
        checked = [self._checked(int(state)) for state in states]
        self._words[:] = pack_int_rows(checked, self._n)

    def states(self) -> list[int]:
        """Register values of every row, as Python integers."""
        return unpack_int_rows(self._words)

    def set_states(self, states: Sequence[int]) -> None:
        """Overwrite every row's register and resynchronise the bit sums."""
        self._load(states)
        self._sums = self._popcounts(slice(None))

    # ------------------------------------------------------------------
    # generation (physical register states)
    # ------------------------------------------------------------------
    def _shift(
        self, selection, count: int, out: np.ndarray, reverse: bool
    ) -> np.ndarray:
        # One fused dispatch: shift, popcount only the positions the GRNG
        # emits (one per ``stride`` shifts) and, forward, standardise.
        # Integer popcounts are exact, so the values are bit-identical for
        # any stride and any backend.  Returns the last popcount per row.
        _, words, last = _grng_block(
            self._words[selection],
            self._n,
            self._reverse_taps if reverse else self._taps,
            self._stride,
            count,
            reverse,
            self._mean,
            self._std,
            out,
        )
        self._words[selection] = words
        return last

    def _generate_forward(
        self, rows: Sequence[int] | None, count: int
    ) -> np.ndarray:
        selection = _selection(rows)
        values = np.empty((len(self._sums[selection]), count), dtype=np.float64)
        self._sums[selection] = self._shift(selection, count, values, reverse=False)
        return values

    def _generate_reverse(
        self, rows: Sequence[int] | None, count: int
    ) -> np.ndarray:
        selection = _selection(rows)
        current_sums = self._sums[selection]
        # The hardware steps the sum register by (recovered tail - dropped
        # head) per reverse shift, so whatever offset it carries from the
        # true pattern popcount (zero unless someone wrote the register)
        # rides along unchanged: emit the current sum, then the exact
        # popcounts of the earlier patterns plus that drift.
        drift = current_sums - self._popcounts(selection)
        earlier = np.empty((len(current_sums), count), dtype=np.int32)
        self._shift(selection, count, earlier, reverse=True)
        drifted = earlier + drift[:, None]
        # built before the register update: current_sums may view self._sums
        sums = np.concatenate([current_sums[:, None], drifted[:, :-1]], axis=1)
        self._sums[selection] = drifted[:, -1]
        # Integer-to-double conversion is exact for popcounts, so every
        # backend of the dispatch point produces byte-identical float64.
        return _clt_standardise(sums, self._mean, self._std)

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
        return self._generate_forward(None, count)

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
        return self._generate_reverse(None, count)

    def replay_blocks(
        self,
        start_states: Sequence[int],
        count: int,
        expected_end_states: Sequence[int] | None = None,
    ) -> np.ndarray:
        """Replay one contiguous span of ``count`` variables for every row.

        This is the whole-span batched counterpart of
        :meth:`BankedGaussianRNG.replay_block`: the registers are rewound to
        ``start_states`` (one checkpoint per row), the span is regenerated
        with a single forward kernel call, and the landing patterns are
        verified against ``expected_end_states`` (the pre-retrieval
        patterns).  Registers are left on the span *end* -- callers that
        retrieve a whole backward pass at once continue from exactly the
        pattern the forward stage reached.  A failed check puts every
        register and sum back where it was before the call.

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
        saved_words, saved_sums = self._words.copy(), self._sums.copy()
        self._load(start_states)
        values = self._generate_forward(None, count)
        if expected_end_states is not None:
            landed = self.states()
            mismatched = [
                row
                for row in range(self.n_rows)
                if landed[row] != int(expected_end_states[row])
            ]
            if mismatched:
                self._words, self._sums = saved_words, saved_sums
                raise ReplayError(
                    "checkpoint replay did not land on the pre-retrieval "
                    f"pattern for rows {mismatched}"
                )
        return values

    # ------------------------------------------------------------------
    # per-row interface
    # ------------------------------------------------------------------
    def row_view(self, row: int) -> "BankedGaussianRNG":
        """A scalar-compatible view of generator ``row``."""
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        return BankedGaussianRNG(self, row)


class LfsrRowView:
    """The register of one :class:`GrngBank` row, shaped like ``FibonacciLFSR``.

    ``state`` reads and writes go straight to the row's packed words; the
    width and taps are the bank's.
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
        """Current register contents as an integer."""
        row = self._row
        return unpack_int_rows(self._bank._words[row : row + 1])[0]

    @state.setter
    def state(self, value: int) -> None:
        bank = self._bank
        bank._words[self._row] = pack_int_rows([bank._checked(value)], bank.n_bits)[0]


class BankedGaussianRNG:
    """A Gaussian generator view over one :class:`GrngBank` row.

    Carries the part of the :class:`~repro.core.grng.LfsrGaussianRNG` surface
    the epsilon streams and the snapshots use.  Every block operation is a
    one-row call into the bank, so a view's values, register and sum
    register evolve exactly like the scalar generator's.
    """

    def __init__(self, bank: GrngBank, row: int) -> None:
        self._bank = bank
        self._row = row
        self._lfsr_view = LfsrRowView(bank, row)

    @property
    def lfsr(self) -> LfsrRowView:
        """The underlying register row (read and written by checkpoints)."""
        return self._lfsr_view

    @property
    def n_bits(self) -> int:
        """Width of the LFSR pattern used per Gaussian variable."""
        return self._bank.n_bits

    @property
    def stride(self) -> int:
        """Register shifts performed per emitted variable."""
        return self._bank.stride

    @property
    def sum_register(self) -> int:
        """The running pattern bit-sum register of this row."""
        return int(self._bank._sums[self._row])

    @sum_register.setter
    def sum_register(self, value: int) -> None:
        self._bank._sums[self._row] = int(value)

    def epsilon_block(self, count: int) -> np.ndarray:
        """Generate ``count`` variables with one single-row kernel call."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        return self._bank._generate_forward([self._row], count)[0]

    def epsilon_block_reverse(self, count: int) -> np.ndarray:
        """Retrieve the previous ``count`` variables (newest first)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        return self._bank._generate_reverse([self._row], count)[0]

    def replay_block(
        self,
        start_state: int,
        count: int,
        expected_end_state: int | None = None,
    ) -> np.ndarray:
        """Regenerate a block from a register checkpoint (see the scalar).

        On success the register is rewound to ``start_state`` and the sum
        register resynchronised.  On a :class:`~repro.core.grng.ReplayError`
        the register is left where the replay ended, exactly like the scalar
        generator's.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        self.lfsr.state = start_state
        values = self.epsilon_block(count)
        if expected_end_state is not None and self.lfsr.state != expected_end_state:
            raise ReplayError(
                "checkpoint replay did not land on the pre-retrieval pattern"
            )
        self.lfsr.state = start_state
        self.resync_sum_register()
        return values

    def resync_sum_register(self) -> None:
        """Reload the running bit-sum from the current pattern."""
        self._bank._sums[self._row] = self._bank._popcounts([self._row])[0]
