"""Fibonacci LFSR parameters: the tap table, tap validation and seeding.

The Shift-BNN paper's GRNG synthesises each Gaussian random variable from the
pattern of a wide Fibonacci LFSR, and its central observation (Section 4) is
that such a register is *reversible*: every earlier pattern can be recovered
from the current one, so backpropagation can regenerate the random variables
instead of fetching them.  The registers themselves live packed in
:class:`~repro.core.grng_bank.GrngBank`, which steps them only forward and
recovers an earlier pattern by a jump (the state ``N`` shifts back is a fixed
linear function of the current one, see :func:`~repro.core.bitops.jump_terms`)
followed by a forward replay.  This module holds what every register shares:

* :data:`MAXIMAL_TAPS` -- maximal-length feedback polynomials per width;
* :func:`normalise_taps` -- validation of an explicit tap selection;
* :func:`seed_from_index` -- deterministic, distinct, non-zero seeds.

Register convention
-------------------
Registers are named ``R1 .. Rn`` as in Fig. 4 of the paper.  ``R1`` is the head
(receives the feedback bit on a forward shift) and ``Rn`` is the tail (dropped
on a forward shift).  A register is a Python integer whose bit ``j``
(0-based) stores register ``R(j+1)``.
"""

from __future__ import annotations

__all__ = [
    "MAXIMAL_TAPS",
    "LFSRStateError",
    "normalise_taps",
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
