"""Fibonacci Linear Feedback Shift Registers with reversible shifting.

This module is the bit-level heart of the Shift-BNN reproduction.  The paper's
central observation (Section 4) is that the LFSRs used to generate Gaussian
random variables for Bayesian weight sampling are *reversible*: shifting the
register in the opposite direction, with a mirrored tap selection, reproduces
every previous pattern exactly.  Backpropagation consumes the random variables
in the reverse of the order in which the forward pass produced them, so the
accelerator can regenerate them locally instead of spilling them to DRAM.

Two execution styles are provided:

* step-wise ``shift_forward`` / ``shift_reverse`` -- a faithful model of the
  hardware register, one pattern per call;
* vectorised ``generate_bits`` -- a NumPy block generator used by the software
  training substrate, producing the identical bit sequence orders of magnitude
  faster.  Property tests assert the two styles agree bit for bit.

Register convention
-------------------
Registers are named ``R1 .. Rn`` as in Fig. 4 of the paper.  ``R1`` is the head
(receives the feedback bit on a forward shift) and ``Rn`` is the tail (dropped
on a forward shift).  Internally the state is a Python integer whose bit ``j``
(0-based) stores register ``R(j+1)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import dispatch, lfsr_step_block
from .bitops import pack_int_rows, unpack_bits, unpack_int_rows

_window_popcounts = dispatch("window_popcounts")

__all__ = [
    "MAXIMAL_TAPS",
    "FibonacciLFSR",
    "LFSRStateError",
    "mirrored_taps",
    "normalise_taps",
    "parity",
    "seed_from_index",
]


#: Tap positions (1-based, tail tap ``n`` included) of maximal-length Fibonacci
#: LFSR feedback polynomials, following the standard XNOR/XOR tap tables
#: (Xilinx XAPP 052 and common references).  The 256-bit entry is the
#: polynomial x^256 + x^254 + x^251 + x^246 + 1 used by the paper's GRNG.
MAXIMAL_TAPS: dict[int, tuple[int, ...]] = {
    4: (4, 3),
    8: (8, 6, 5, 4),
    16: (16, 15, 13, 4),
    24: (24, 23, 22, 17),
    32: (32, 22, 2, 1),
    48: (48, 47, 21, 20),
    64: (64, 63, 61, 60),
    96: (96, 94, 49, 47),
    128: (128, 126, 101, 99),
    192: (192, 190, 178, 177),
    256: (256, 254, 251, 246),
}


class LFSRStateError(ValueError):
    """Raised when an LFSR is constructed or driven into an invalid state."""


def parity(value: int) -> int:
    """Return the XOR (parity) of all bits of a non-negative integer."""
    if value < 0:
        raise ValueError("parity is defined for non-negative integers only")
    return bin(value).count("1") & 1


def mirrored_taps(n_bits: int, taps: tuple[int, ...]) -> tuple[int, ...]:
    """Return the tap set of the time-reversed LFSR.

    If the forward head-bit sequence obeys ``b(t) = XOR_p b(t - p)`` for tap
    offsets ``p`` (with ``n`` always a tap), the reversed sequence obeys the
    same recurrence with offsets ``n - p`` (and ``n``).  This is the register
    selection highlighted in blue in Fig. 8(b) of the paper.
    """
    if n_bits not in taps:
        raise LFSRStateError("the tail position n must be a tap")
    mirrored = sorted({n_bits - p for p in taps if p != n_bits} | {n_bits})
    return tuple(mirrored)


def normalise_taps(n_bits: int, taps: tuple[int, ...] | None) -> tuple[int, ...]:
    """Validate a tap selection and return it sorted ascending.

    ``taps=None`` selects the maximal-length polynomial from
    :data:`MAXIMAL_TAPS` when one is tabulated for ``n_bits``.
    """
    if n_bits < 2:
        raise LFSRStateError(f"an LFSR needs at least 2 bits, got {n_bits}")
    if taps is None:
        if n_bits not in MAXIMAL_TAPS:
            raise LFSRStateError(
                f"no default tap table entry for {n_bits}-bit LFSRs; "
                "pass taps= explicitly"
            )
        taps = MAXIMAL_TAPS[n_bits]
    taps = tuple(sorted(set(int(t) for t in taps)))
    if not taps or taps[-1] != n_bits:
        raise LFSRStateError("the tail position n must be included in the taps")
    if taps[0] < 1:
        raise LFSRStateError("tap positions are 1-based and must be >= 1")
    if len(taps) < 2:
        raise LFSRStateError("at least two taps are required for a useful LFSR")
    return taps


def seed_from_index(n_bits: int, index: int) -> int:
    """Deterministic, well-spread, non-zero seed for register ``index``.

    A splitmix-style integer hash folded to the register width; guarantees
    distinct non-zero seeds for the index range used by the accelerator
    (hundreds of GRNGs).
    """
    if index < 0:
        raise LFSRStateError("seed index must be non-negative")
    value = 0
    word = index + 0x9E3779B97F4A7C15
    chunks = (n_bits + 63) // 64
    for chunk in range(chunks):
        word = (word + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mixed = word
        mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        mixed ^= mixed >> 31
        value |= mixed << (64 * chunk)
    value &= (1 << n_bits) - 1
    if value == 0:
        value = 1
    return value


@dataclass(frozen=True)
class _TapMasks:
    """Precomputed bit masks for fast integer shifting."""

    full: int
    feedback: int
    reverse_feedback: int


class FibonacciLFSR:
    """A Fibonacci (many-to-one) LFSR with forward and reverse shifting.

    Parameters
    ----------
    n_bits:
        Register length.  The paper's GRNG uses 256 bits.
    seed:
        Initial register contents as a non-zero integer below ``2**n_bits``.
        The all-zero state is a fixed point of the recurrence and is rejected.
    taps:
        1-based tap positions.  Defaults to the maximal-length polynomial from
        :data:`MAXIMAL_TAPS` when available.

    Examples
    --------
    >>> lfsr = FibonacciLFSR(8, seed=0b11110000)
    >>> first = lfsr.state
    >>> _ = [lfsr.shift_forward() for _ in range(5)]
    >>> _ = [lfsr.shift_reverse() for _ in range(5)]
    >>> lfsr.state == first
    True
    """

    def __init__(
        self,
        n_bits: int,
        seed: int,
        taps: tuple[int, ...] | None = None,
    ) -> None:
        taps = normalise_taps(n_bits, taps)
        self._n = n_bits
        self._taps = taps
        self._masks = self._build_masks(n_bits, taps)
        self.state = seed
        self._shift_count = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _build_masks(n_bits: int, taps: tuple[int, ...]) -> _TapMasks:
        full = (1 << n_bits) - 1
        feedback = 0
        for p in taps:
            feedback |= 1 << (p - 1)
        # Reverse feedback reads the head bit plus the registers one past each
        # non-tail tap (Eq. 3 of the paper): R1, R(a+1), R(b+1), R(c+1).
        reverse = 1  # head register R1
        for p in taps:
            if p != n_bits:
                reverse |= 1 << p
        return _TapMasks(full=full, feedback=feedback, reverse_feedback=reverse)

    @classmethod
    def from_seed_index(
        cls, n_bits: int, index: int, taps: tuple[int, ...] | None = None
    ) -> "FibonacciLFSR":
        """Build an LFSR with a deterministic, well-spread non-zero seed.

        ``index`` selects a distinct seed (e.g. one per GRNG instance in an
        SPU).  The seed is produced by a splitmix-style integer hash folded to
        the register width, which guarantees distinct non-zero seeds for the
        index range used by the accelerator (hundreds of GRNGs).
        """
        return cls(n_bits, seed=seed_from_index(n_bits, index), taps=taps)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def n_bits(self) -> int:
        """Register length in bits."""
        return self._n

    @property
    def taps(self) -> tuple[int, ...]:
        """1-based tap positions (tail tap included)."""
        return self._taps

    @property
    def state(self) -> int:
        """Current register contents as an integer (bit ``j`` is ``R(j+1)``)."""
        return self._state

    @state.setter
    def state(self, value: int) -> None:
        if not isinstance(value, int):
            raise LFSRStateError("LFSR state must be an integer")
        if value <= 0 or value > self._masks.full:
            raise LFSRStateError(
                f"LFSR state must be a non-zero {self._n}-bit integer, got {value!r}"
            )
        self._state = value

    @property
    def shift_count(self) -> int:
        """Net number of forward shifts applied since construction."""
        return self._shift_count

    @property
    def popcount(self) -> int:
        """Number of set bits in the current pattern (the GRNG bit sum)."""
        return bin(self._state).count("1")

    def state_bits(self) -> np.ndarray:
        """Return the registers ``R1..Rn`` as a ``uint8`` array."""
        words = pack_int_rows([self._state], self._n)
        return unpack_bits(words, self._n)[0]

    # ------------------------------------------------------------------
    # step-wise shifting (hardware-faithful)
    # ------------------------------------------------------------------
    def shift_forward(self) -> int:
        """Advance one pattern (forward mode); return the new head bit.

        The feedback bit is the XOR of the tap registers of the *previous*
        pattern; every other register takes its left neighbour's value and the
        tail value is dropped.
        """
        state = self._state
        feedback = parity(state & self._masks.feedback)
        self._state = ((state << 1) & self._masks.full) | feedback
        self._shift_count += 1
        return feedback

    def shift_reverse(self) -> int:
        """Step back one pattern (reverse mode); return the recovered tail bit.

        Implements Eq. 3 of the paper: the dropped tail bit of the previous
        pattern is the XOR of the current head register with the registers one
        position past each non-tail tap.
        """
        state = self._state
        tail = parity(state & self._masks.reverse_feedback)
        self._state = (state >> 1) | (tail << (self._n - 1))
        self._shift_count -= 1
        return tail

    def shift_forward_by(self, count: int) -> None:
        """Advance ``count`` patterns using the vectorised generator."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count:
            self.generate_bits(count)

    def shift_reverse_by(self, count: int) -> None:
        """Step back ``count`` patterns using the vectorised reverse generator."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if count:
            self.generate_bits_reverse(count)

    # ------------------------------------------------------------------
    # vectorised block generation
    # ------------------------------------------------------------------
    def _run_block_packed(self, count: int, reverse: bool) -> np.ndarray:
        """Run ``count`` packed recurrence steps; return the packed sequence."""
        offsets = mirrored_taps(self._n, self._taps) if reverse else self._taps
        words = pack_int_rows([self._state], self._n)
        seq_words, new_words = lfsr_step_block(
            words, self._n, count, offsets, reverse
        )
        self._state = unpack_int_rows(new_words)[0]
        self._shift_count += -count if reverse else count
        return seq_words

    def _run_block(self, count: int, reverse: bool) -> np.ndarray:
        """Run ``count`` packed recurrence steps; return the full bit sequence."""
        seq_words = self._run_block_packed(count, reverse)
        return unpack_bits(seq_words, self._n + count)[0]

    def generate_bits(self, count: int) -> np.ndarray:
        """Produce the next ``count`` head bits (forward shifts), vectorised.

        Returns the bits in generation order.  The register state and shift
        counter are updated exactly as ``count`` calls to
        :meth:`shift_forward` would have left them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.uint8)
        return self._run_block(count, reverse=False)[self._n :].copy()

    def generate_bits_reverse(self, count: int) -> np.ndarray:
        """Recover the previous ``count`` dropped tail bits (reverse shifts).

        The bits are returned in retrieval order (most recently dropped
        first), matching ``count`` calls to :meth:`shift_reverse`.  The
        reversed-time sequence ``c(s) = b(T - s)`` obeys the mirrored-tap
        recurrence and starts from the current registers ``R1..Rn``.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.uint8)
        return self._run_block(count, reverse=True)[self._n :].copy()

    def window_popcounts(self, count: int) -> np.ndarray:
        """Return the pattern popcounts after each of the next ``count`` shifts.

        This is the quantity the GRNG's adder tree (or the paper's incremental
        bit-update generator) computes for every pattern.  The register ends in
        the same state as :meth:`generate_bits` would leave it.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.int32)
        seq_words = self._run_block_packed(count, reverse=False)
        popcounts = _window_popcounts(seq_words, self._n, count, 1)
        # Backends may emit any exact integer dtype; keep this method's
        # documented int32 contract.
        return np.asarray(popcounts[0], dtype=np.int32)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def copy(self) -> "FibonacciLFSR":
        """Return an independent LFSR with the same taps, state and counter."""
        clone = FibonacciLFSR(self._n, seed=self._state, taps=self._taps)
        clone._shift_count = self._shift_count
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FibonacciLFSR):
            return NotImplemented
        return (
            self._n == other._n
            and self._taps == other._taps
            and self._state == other._state
        )

    def __hash__(self) -> int:  # states are mutable; keep instances unhashable
        raise TypeError("FibonacciLFSR instances are mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"FibonacciLFSR(n_bits={self._n}, taps={self._taps}, "
            f"state=0x{self._state:x}, shift_count={self._shift_count})"
        )
