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
  A view is a plain accessor onto its row of the register bank: every block
  request is a one-row kernel call that never touches the other rows.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .backend import dispatch
from .bitops import pack_int_rows, unpack_bits
from .grng import GRNGMode, LfsrGaussianRNG, ReplayError
from .lfsr import FibonacciLFSR
from .lfsr_array import LfsrArray

__all__ = ["BankedGaussianRNG", "GrngBank", "LfsrRowView"]

_clt_standardise = dispatch("clt_standardise")


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
        self._sums = self._array.popcounts()
        self._generated = np.zeros(n_rows, dtype=np.int64)
        self._retrieved = np.zeros(n_rows, dtype=np.int64)
        self._modes = [GRNGMode.IDLE] * n_rows

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
            f"stride={self._stride})"
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
        values = self._generate_forward(None, count)
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
        values = self._generate_reverse(None, count)
        self._retrieved += count
        self._modes = [GRNGMode.REVERSE] * self.n_rows
        return values

    def states(self) -> list[int]:
        """Register values of every row, as Python integers."""
        return self._array.states()

    def set_states(self, states: Sequence[int]) -> None:
        """Overwrite every row's register and resynchronise the bit sums."""
        if len(states) != self.n_rows:
            raise ValueError(
                f"expected {self.n_rows} states, got {len(states)}"
            )
        for row, state in enumerate(states):
            self._array.set_state(row, int(state))
        self._sums = self._array.popcounts()

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
                raise ReplayError(
                    "checkpoint replay did not land on the pre-retrieval "
                    f"pattern for rows {mismatched}"
                )
        for row in range(self.n_rows):
            self._array.adjust_shift_count(row, -count * self._stride)
        self._generated += count
        self._modes = [GRNGMode.FORWARD] * self.n_rows
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
    """A ``FibonacciLFSR``-shaped window onto one row of a :class:`GrngBank`.

    Exposes the registers the way streams and snapshots expect (``state``,
    ``taps``, ``popcount``, ...); reads and writes go straight to the row's
    physical register.
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
        return self._bank.lfsr_array.get_state(self._row)

    @state.setter
    def state(self, value: int) -> None:
        self._bank.lfsr_array.set_state(self._row, value)

    @property
    def shift_count(self) -> int:
        """Net number of forward shifts applied to this row."""
        return int(self._bank.lfsr_array.shift_counts[self._row])

    @property
    def popcount(self) -> int:
        """Number of set bits in the current pattern."""
        return int(bin(self.state).count("1"))

    def state_bits(self) -> np.ndarray:
        """Return the registers ``R1..Rn`` as a ``uint8`` array."""
        words = pack_int_rows([self.state], self.n_bits)
        return unpack_bits(words, self.n_bits)[0]

    def copy(self) -> FibonacciLFSR:
        """A detached scalar register with this row's state."""
        clone = FibonacciLFSR(self.n_bits, seed=self.state, taps=self.taps)
        clone.adjust_shift_count(self.shift_count)
        return clone

    def shift_forward(self) -> int:
        """Advance this row one pattern through the scalar recurrence."""
        scalar = self.copy()
        bit = scalar.shift_forward()
        self.state = scalar.state
        self._bank.lfsr_array.adjust_shift_count(self._row, 1)
        return bit

    def shift_reverse(self) -> int:
        """Step this row back one pattern through the scalar recurrence."""
        scalar = self.copy()
        bit = scalar.shift_reverse()
        self.state = scalar.state
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
    the epsilon streams, the weight sampler and the snapshots.  Every block
    operation is a one-row call into the bank's kernels, so a view's values,
    register and counters evolve exactly like the scalar generator's.
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
        return int(self._bank._sums[self._row])

    @sum_register.setter
    def sum_register(self, value: int) -> None:
        self._bank._sums[self._row] = int(value)

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
        """Generate ``count`` variables with one single-row kernel call."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        values = self._bank._generate_forward([self._row], count)[0]
        self._bank._generated[self._row] += count
        self._bank._modes[self._row] = GRNGMode.FORWARD
        return values

    def epsilon_block_reverse(self, count: int) -> np.ndarray:
        """Retrieve the previous ``count`` variables (newest first)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        values = self._bank._generate_reverse([self._row], count)[0]
        self._bank._retrieved[self._row] += count
        self._bank._modes[self._row] = GRNGMode.REVERSE
        return values

    def replay_block(
        self,
        start_state: int,
        count: int,
        expected_end_state: int | None = None,
    ) -> np.ndarray:
        """Regenerate a block from a register checkpoint (see the scalar).

        On a :class:`~repro.core.grng.ReplayError` the register is left where
        the replay ended, exactly like the scalar generator's.
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
        # A replay is net-zero register movement; undo the counter advance.
        self._bank.lfsr_array.adjust_shift_count(self._row, -count * self.stride)
        self.resync_sum_register()
        return values

    def resync_sum_register(self) -> None:
        """Reload the running bit-sum from the current pattern."""
        self._bank._sums[self._row] = self._bank.lfsr_array.popcounts([self._row])[0]

    # ------------------------------------------------------------------
    # copying and diagnostics
    # ------------------------------------------------------------------
    def copy(self) -> LfsrGaussianRNG:
        """A detached scalar generator with this row's state."""
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
