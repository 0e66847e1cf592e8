"""From-scratch models of the GRNG that the test suite checks the product against.

Nothing in this package imports ``repro`` (``tests/lint/test_oracle_imports.py``
enforces it), so a bug shared by the packed kernels and their NumPy reference
cannot cancel out here.  Two modules:

* :mod:`oracle.lfsr` -- the register itself: a Fibonacci LFSR of single bits
  ticked forward and in reverse (PyRTL ``rtllib/lfsr.py`` style), the Galois
  form of the same polynomial (QAMpy ``lfsr_int`` style), the tap table with
  a primitivity proof, the seed hash and word packing of its own;
* :mod:`oracle.grng` -- the Gaussian generator on top: the straight-line CLT
  step, as a one-row generator with a per-row block interface (a one-row
  ``GrngBank``'s ``epsilon_blocks(n)[0]`` and ``epsilon_blocks_reverse(n)[0]``
  are compared with it).
"""

from .grng import OracleGRNG, clt
from .lfsr import (
    TAP_TABLE,
    BitSerialLFSR,
    from_words,
    galois_stream,
    history_bits,
    is_primitive,
    mirrored_offsets,
    oracle_prefix,
    oracle_run,
    oracle_state_after,
    seed_for_index,
    stream_popcounts,
    to_words,
    word_bits,
)

__all__ = [
    "TAP_TABLE",
    "BitSerialLFSR",
    "OracleGRNG",
    "clt",
    "from_words",
    "galois_stream",
    "history_bits",
    "is_primitive",
    "mirrored_offsets",
    "oracle_prefix",
    "oracle_run",
    "oracle_state_after",
    "seed_for_index",
    "stream_popcounts",
    "to_words",
    "word_bits",
]
