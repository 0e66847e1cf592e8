"""Batched Gaussian random number generation over a packed LFSR bank.

:class:`GrngBank` is the software image of the accelerator's GRNGs: one
Fibonacci LFSR per Monte-Carlo sample.  The hardware keeps a bit-sum register
beside each LFSR because it updates the popcount one shift at a time; here
the kernel counts the bits of the register it holds, so the register is the
generator's whole state.  The registers live packed in a
``(rows, ceil(n_bits / 64))`` ``uint64`` matrix (bit ``j`` of row ``i`` is
bit ``j % 64`` of ``words[i, j // 64]``), and
every shift goes through the ``grng_block`` dispatch point, which shifts,
popcounts the emitted patterns and standardises them in one pass.  Shifts only
ever run forward: a reversed retrieval is one ``grng_block`` call with a
``rewind``, which jumps the registers back (the state ``N`` shifts earlier is
a fixed linear function of the current one, see
:func:`~repro.core.bitops.jump_terms`) and regenerates forward to where they
were; the values are then handed out newest first.  The test suite holds
every value and register to a from-scratch bit-serial oracle (a register of
single bits, one tap XOR and one shift per tick, run forward and in reverse)
that shares no code with this module.

The bank is driven through whole-bank array calls
(:meth:`GrngBank.epsilon_blocks`, :meth:`GrngBank.epsilon_blocks_reverse`,
and the fused :meth:`GrngBank.weight_blocks` /
:meth:`GrngBank.replay_weight_blocks` that return ``mu + eps * sigma``).  A
caller that serves one Monte-Carlo sample takes :meth:`GrngBank.row_bank`: a
one-row bank whose register words are a view into this bank's, so its calls
move that row alone.  Every write to the registers happens in place, so a
one-row bank taken earlier never goes stale.
"""

from __future__ import annotations

import copy
import math
import operator
from typing import Sequence

import numpy as np

from .backend import dispatch
from .bitops import pack_int_rows, unpack_int_rows
from .lfsr import LFSRStateError, normalise_taps, seed_from_index

__all__ = ["GrngBank"]

_grng_block = dispatch("grng_block")


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
        Deterministic seed selector per row, hashed by
        :func:`~repro.core.lfsr.seed_from_index`.  Defaults to
        ``range(n_rows)``.
    taps:
        Optional explicit tap positions shared by every row.
    stride:
        Register shifts per emitted variable.  ``1`` matches the hardware
        exactly (one pattern per weight) but makes consecutive variables a
        slow random walk, because neighbouring patterns share ``n_bits - 1``
        bits; ``n_bits`` uses non-overlapping patterns and yields effectively
        independent variables.  Retrieval returns the identical values for
        any stride.
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
    def _checked(self, state) -> int:
        try:
            value = operator.index(state)
        except TypeError:
            raise LFSRStateError(
                f"LFSR state must be an integer, got {state!r}"
            ) from None
        if value <= 0 or value >> self._n:
            raise LFSRStateError(
                f"LFSR state must be a non-zero {self._n}-bit integer, "
                f"got {value!r}"
            )
        return value

    def states(self) -> list[int]:
        """Register values of every row, as Python integers."""
        return unpack_int_rows(self._words)

    def set_states(self, states: Sequence[int]) -> None:
        """Overwrite every row's register, in place."""
        if len(states) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} states, got {len(states)}")
        checked = [self._checked(state) for state in states]
        self._words[:] = pack_int_rows(checked, self._n)

    def row_bank(self, row: int) -> "GrngBank":
        """A one-row bank over row ``row`` of this one.

        Its register words are a basic-slice view into this bank's, so a
        call on it moves that row alone, and every write to either bank shows
        in the other.
        """
        if not 0 <= row < self.n_rows:
            raise IndexError(f"row {row} out of range for {self.n_rows} rows")
        view = copy.copy(self)
        view._words = self._words[row : row + 1]
        return view

    def _fused(self, words, mu, sigma, epsilon: bool, rewind: int = 0):
        # One dispatch from ``words`` (jumped back ``rewind`` shifts first)
        # that writes the sampled weights (and, if asked, the epsilons);
        # nothing of the bank moves here.  Returns (weights, epsilons, end,
        # start), start None without a rewind.
        count = int(mu.size)
        weights = np.empty((self.n_rows, count), dtype=np.float64)
        values = np.empty_like(weights) if epsilon else None
        if count == 0:
            return weights, values, words.copy(), None
        _, end, _, start = _grng_block(
            words, self._n, self._taps, self._stride, count,
            self._mean, self._std, values,
            mu=mu.reshape(-1), sigma=sigma.reshape(-1), w_out=weights, rewind=rewind,
        )
        return weights, values, end, start

    # ------------------------------------------------------------------
    # batched array interface
    # ------------------------------------------------------------------
    def register_words(self) -> np.ndarray:
        """A copy of every row's packed register words."""
        return self._words.copy()

    def weight_blocks(
        self, mu: np.ndarray, sigma: np.ndarray, epsilon: bool = False
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Draw ``mu.size`` variables per row and return ``mu + eps * sigma``.

        One fused kernel call: the ``(n_rows, mu.size)`` weights (``mu`` and
        ``sigma`` flattened, shared by every row) are bit-identical to
        building them from :meth:`epsilon_blocks`, and the epsilons are
        returned as well only when ``epsilon`` is set.  A negative ``sigma``
        raises :class:`ValueError` with every register unmoved.
        """
        weights, values, end, _ = self._fused(self._words, mu, sigma, epsilon)
        self._words[...] = end
        return weights, values

    def replay_weight_blocks(
        self, words: np.ndarray, mu: np.ndarray, sigma: np.ndarray, rewind: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Regenerate :meth:`weight_blocks` from registers ``words`` jumped
        back ``rewind`` shifts (none by default), in one kernel call.

        Returns ``(weights, epsilons, start_words, end_words)``: the registers
        the replay started from (``words`` without a rewind) and the ones it
        landed on, which the caller verifies.  The bank's own registers are
        not touched.
        """
        weights, values, end, start = self._fused(words, mu, sigma, True, rewind)
        return weights, values, words if start is None else start, end

    def epsilon_blocks(self, count: int) -> np.ndarray:
        """Generate ``count`` Gaussian variables for every row at once.

        Returns an ``(n_rows, count)`` float64 array: per row, one value per
        ``stride`` shifts, the popcount ``s`` of the pattern then in the
        register standardised to ``(s - n/2) / sqrt(n/4)``.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros((self.n_rows, 0), dtype=np.float64)
        # One fused dispatch: shift, popcount only the positions the GRNG
        # emits (one per ``stride`` shifts) and standardise.  Integer
        # popcounts are exact, so the values are bit-identical for any stride
        # and any backend.
        values = np.empty((self.n_rows, count), dtype=np.float64)
        _, words, _, _ = _grng_block(
            self._words, self._n, self._taps, self._stride, count,
            self._mean, self._std, values,
        )
        self._words[...] = words
        return values

    def epsilon_blocks_reverse(self, count: int) -> np.ndarray:
        """Retrieve the previous ``count`` variables per row (newest first).

        The first value is the current pattern's, the rest those of the
        ``count - 1`` patterns before it (each ``stride`` shifts apart), so a
        retrieval right after :meth:`epsilon_blocks` returns that block
        reversed.  Registers are left ``count * stride`` shifts earlier.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros((self.n_rows, 0), dtype=np.float64)
        # One call jumps the registers back count * stride shifts and runs
        # forward to where they were; the patterns go out newest first.
        values = np.empty((self.n_rows, count), dtype=np.float64)
        _, _, _, start = _grng_block(
            self._words, self._n, self._taps, self._stride, count,
            self._mean, self._std, values, rewind=count * self._stride,
        )
        self._words[...] = start
        return values[:, ::-1]
