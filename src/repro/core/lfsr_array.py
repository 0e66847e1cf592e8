"""A bank of Fibonacci LFSRs stepped in lockstep on packed ``uint64`` words.

The Shift-BNN accelerator instantiates one GRNG per Sample Processing Unit;
the software trainer mirrors that with one LFSR per Monte-Carlo sample.  All
of those registers share taps and width and are driven through identical
generate/retrieve schedules, so the software can step the whole bank with one
set of word-wide XOR passes instead of once per register:

* states live in a ``(N, ceil(n_bits / 64))`` ``uint64`` matrix (bit ``j`` of
  register ``i`` is bit ``j % 64`` of ``words[i, j // 64]``);
* block generation and reversed retrieval run the shared packed kernel of
  :mod:`repro.core.bitops`, vectorised across registers *and* across time
  (squared-polynomial leapfrogging);
* results are bit-identical to :class:`~repro.core.lfsr.FibonacciLFSR`, which
  stays the step-wise hardware-faithful reference the property tests compare
  against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .backend import dispatch
from .bitops import (
    pack_int_rows,
    unpack_bits,
    unpack_int_rows,
)
from .lfsr import LFSRStateError, mirrored_taps, normalise_taps, seed_from_index

__all__ = ["LfsrArray"]

_lfsr_step_block = dispatch("lfsr_step_block")
_window_popcounts = dispatch("window_popcounts")
_grng_block = dispatch("grng_block")


class LfsrArray:
    """``N`` independent, equally-tapped Fibonacci LFSRs advanced in lockstep.

    Parameters
    ----------
    n_bits:
        Register length shared by every row (256 in the paper).
    states:
        One non-zero initial register value per row.
    taps:
        1-based tap positions shared by every row; defaults to the
        maximal-length polynomial from
        :data:`~repro.core.lfsr.MAXIMAL_TAPS`.
    """

    def __init__(
        self,
        n_bits: int,
        states: Sequence[int],
        taps: tuple[int, ...] | None = None,
    ) -> None:
        taps = normalise_taps(n_bits, taps)
        states = [int(s) for s in states]
        if not states:
            raise LFSRStateError("an LfsrArray needs at least one register")
        limit = 1 << n_bits
        for index, state in enumerate(states):
            if state <= 0 or state >= limit:
                raise LFSRStateError(
                    f"register {index} state must be a non-zero {n_bits}-bit "
                    f"integer, got {state!r}"
                )
        self._n = n_bits
        self._taps = taps
        self._reverse_taps = mirrored_taps(n_bits, taps)
        self._words = pack_int_rows(states, n_bits)
        self._shift_counts = np.zeros(len(states), dtype=np.int64)

    @classmethod
    def from_seed_indices(
        cls,
        n_bits: int,
        indices: Sequence[int],
        taps: tuple[int, ...] | None = None,
    ) -> "LfsrArray":
        """Build a bank seeded like ``FibonacciLFSR.from_seed_index`` per row."""
        states = [seed_from_index(n_bits, int(index)) for index in indices]
        return cls(n_bits, states, taps=taps)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of registers in the bank."""
        return self._words.shape[0]

    @property
    def n_bits(self) -> int:
        """Register length in bits (shared by every row)."""
        return self._n

    @property
    def taps(self) -> tuple[int, ...]:
        """1-based tap positions (tail tap included, shared by every row)."""
        return self._taps

    @property
    def words(self) -> np.ndarray:
        """The packed ``(N, ceil(n_bits/64))`` uint64 state matrix (a copy)."""
        return self._words.copy()

    @property
    def shift_counts(self) -> np.ndarray:
        """Net forward shifts applied to each register (a copy)."""
        return self._shift_counts.copy()

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"LfsrArray(n_rows={self.n_rows}, n_bits={self._n}, "
            f"taps={self._taps})"
        )

    # ------------------------------------------------------------------
    # per-row state access
    # ------------------------------------------------------------------
    def states(self) -> list[int]:
        """Current register values as Python integers, one per row."""
        return unpack_int_rows(self._words)

    def get_state(self, row: int) -> int:
        """Register value of ``row`` as a Python integer."""
        return unpack_int_rows(self._words[row : row + 1])[0]

    def set_state(self, row: int, value: int) -> None:
        """Overwrite the register of ``row`` (must be a non-zero n-bit value)."""
        if not isinstance(value, int):
            raise LFSRStateError("LFSR state must be an integer")
        if value <= 0 or value >= (1 << self._n):
            raise LFSRStateError(
                f"LFSR state must be a non-zero {self._n}-bit integer, "
                f"got {value!r}"
            )
        self._words[row] = pack_int_rows([value], self._n)[0]

    def adjust_shift_count(self, row: int, delta: int) -> None:
        """Book-keeping hook for callers that rewind a row externally."""
        self._shift_counts[row] += delta

    def state_bits(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """Registers ``R1..Rn`` as a ``(R, n_bits)`` uint8 matrix."""
        words = self._words if rows is None else self._words[np.asarray(rows)]
        return unpack_bits(words, self._n)

    def popcounts(self, rows: Sequence[int] | None = None) -> np.ndarray:
        """Set-bit count of each selected register (the GRNG bit sums)."""
        return self.state_bits(rows).sum(axis=1, dtype=np.int64)

    # ------------------------------------------------------------------
    # vectorised block generation
    # ------------------------------------------------------------------
    def _run_packed(
        self, count: int, rows: Sequence[int] | None, reverse: bool
    ) -> np.ndarray:
        """Run ``count`` packed steps for the selected rows.

        Returns the produced bit sequences as packed ``uint64`` words (bits
        beyond ``n_bits + count`` are zero) and commits the updated register
        states and shift counters.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        selection = slice(None) if rows is None else np.asarray(rows)
        if count == 0:
            n_selected = self._words[selection].shape[0]
            return np.zeros((n_selected, self._words.shape[1]), dtype=np.uint64)
        offsets = self._reverse_taps if reverse else self._taps
        seq_words, new_words = _lfsr_step_block(
            self._words[selection], self._n, count, offsets, reverse
        )
        self._words[selection] = new_words
        self._shift_counts[selection] += -count if reverse else count
        return seq_words

    def _run(
        self, count: int, rows: Sequence[int] | None, reverse: bool
    ) -> np.ndarray:
        """Like :meth:`_run_packed` but unpacked to a ``(R, n_bits + count)``
        uint8 bit matrix (history followed by the new bits)."""
        seq_words = self._run_packed(count, rows, reverse)
        return unpack_bits(seq_words, self._n + count)

    def generate_bits(
        self, count: int, rows: Sequence[int] | None = None
    ) -> np.ndarray:
        """Next ``count`` head bits of each selected row, in generation order."""
        return self._run(count, rows, reverse=False)[:, self._n :].copy()

    def generate_bits_reverse(
        self, count: int, rows: Sequence[int] | None = None
    ) -> np.ndarray:
        """Previous ``count`` dropped tail bits per row, newest first."""
        return self._run(count, rows, reverse=True)[:, self._n :].copy()

    def window_popcounts(
        self,
        count: int,
        rows: Sequence[int] | None = None,
        stride: int = 1,
        reverse: bool = False,
    ) -> np.ndarray:
        """Pattern popcounts after every ``stride``-th of ``count`` shifts, per row.

        With the default ``stride=1`` this returns the popcount after each of
        the next ``count`` shifts as an ``(R, count)`` integer matrix.  With
        ``stride > 1`` (``count`` must then be a multiple of ``stride``) only
        the popcounts after shifts ``stride, 2*stride, ...`` are computed --
        the positions a strided GRNG emits -- as an ``(R, count // stride)``
        matrix, skipping the per-shift running sum entirely.  The values are
        exact integer popcounts either way, so the strided path is
        bit-identical to slicing the dense one.  Registers end exactly where
        :meth:`generate_bits` would leave them.

        ``reverse=True`` shifts backwards instead: the reversed-time sequence
        ``[R1..Rn, recovered tail bits...]`` holds the pattern ``k`` shifts
        *earlier* at window offset ``k``, so the same kernel yields the
        popcounts of the earlier patterns and registers end where
        :meth:`generate_bits_reverse` would leave them.
        """
        if stride < 1:
            raise ValueError("stride must be at least 1 shift per popcount")
        if count % stride:
            raise ValueError(
                f"count must be a multiple of stride, got {count} and {stride}"
            )
        if count == 0:
            n_selected = (
                self.n_rows if rows is None else np.asarray(rows).shape[0]
            )
            return np.zeros((n_selected, 0), dtype=np.int32)
        # The popcount reduction is a registered dispatch point: the default
        # chain prefers the packed np.bitwise_count path (word-aligned
        # strides), falls back to the narrow-cumsum unpacked path and finally
        # to the dense int64 oracle.  Every eligible backend is bit-identical
        # (exact integer popcounts), so selection changes speed, never values.
        seq_words = self._run_packed(count, rows, reverse)
        return _window_popcounts(seq_words, self._n, count, stride)

    def grng_block(
        self,
        count: int,
        stride: int,
        mean: float,
        std: float,
        out: np.ndarray,
        rows: Sequence[int] | None = None,
        reverse: bool = False,
    ) -> np.ndarray:
        """One fused GRNG pass: ``count >= 1`` values of ``stride`` shifts each.

        Forward, ``out`` (float64, ``(R, count)``) receives the standardised
        popcounts ``(popcount - mean) / std`` of the patterns after shifts
        ``stride, 2*stride, ...``; with ``reverse=True`` it (int32) receives
        the raw popcounts of the patterns that many shifts *earlier*.  This
        is :meth:`window_popcounts` plus the CLT conversion behind a single
        dispatch point, so a compiled backend can stream it without ever
        materialising the bit sequence.  Registers and shift counters are
        committed; the last popcount per row (the GRNG's sum register) is
        returned.
        """
        selection = slice(None) if rows is None else np.asarray(rows)
        _, new_words, last = _grng_block(
            self._words[selection],
            self._n,
            self._reverse_taps if reverse else self._taps,
            stride,
            count,
            reverse,
            mean,
            std,
            out,
        )
        self._words[selection] = new_words
        shifts = count * stride
        self._shift_counts[selection] += -shifts if reverse else shifts
        return last
