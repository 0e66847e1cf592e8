"""The CLT Gaussian generator, straight-line, on top of the bit-serial register.

A GRNG value is the popcount ``s`` of an ``n``-bit LFSR pattern, standardised
as ``(s - n/2) / sqrt(n/4)`` in float64 (:func:`clt`).  The hardware keeps
``s`` in a running *sum register*: each forward tick adds the new head bit and
subtracts the dropped tail, each reverse tick adds the recovered tail and
subtracts the dropped head.  So whatever offset (*drift*) the register carries
from the true popcount -- zero unless someone wrote it -- rides along a
reversed retrieval unchanged (:func:`retrieval_sums`), while a forward block
reloads it with the last pattern's exact popcount.
"""

from __future__ import annotations

import math

import numpy as np

from .lfsr import BitSerialLFSR, seed_for_index


def clt(popcounts, n_bits: int) -> np.ndarray:
    """``(s - n/2) / sqrt(n/4)`` per popcount ``s``, in NumPy float64."""
    sums = np.asarray(popcounts, dtype=np.float64)
    return (sums - n_bits / 2.0) / math.sqrt(n_bits / 4.0)


def retrieval_sums(sum_register: int, state: int, earlier_popcounts) -> np.ndarray:
    """The sum-register values a reversed retrieval of ``len(earlier)`` values
    emits: the current register first, then the popcounts of the earlier
    patterns (newest first) but the last, each plus the drift
    ``sum_register - popcount(state)``."""
    drift = sum_register - bin(state).count("1")
    earlier = np.asarray(earlier_popcounts, dtype=np.int64)
    return np.concatenate(([sum_register], earlier[:-1] + drift))


class OracleGRNG:
    """One generator: a :class:`BitSerialLFSR`, a sum register and a stride.

    One row's block interface, computed tick by tick:
    :meth:`epsilon_block` emits one value per ``stride`` forward ticks,
    :meth:`epsilon_block_reverse` emits the sum register, then steps it
    through ``stride`` reverse ticks per value exactly as the hardware does.
    """

    def __init__(self, n_bits: int, seed_index: int = 0, stride: int = 1) -> None:
        self.lfsr = BitSerialLFSR(n_bits, seed_for_index(n_bits, seed_index))
        self.n_bits = n_bits
        self.stride = stride
        self.sum_register = self.lfsr.popcount()

    @property
    def state(self) -> int:
        return self.lfsr.state

    @state.setter
    def state(self, value: int) -> None:
        self.lfsr.state = value

    def resync_sum_register(self) -> None:
        self.sum_register = self.lfsr.popcount()

    def epsilon_block(self, count: int) -> np.ndarray:
        popcounts = np.empty(count, dtype=np.int64)
        for k in range(count):
            for _ in range(self.stride):
                self.lfsr.tick_forward()
            popcounts[k] = self.lfsr.popcount()
        if count:
            self.sum_register = int(popcounts[-1])
        return clt(popcounts, self.n_bits)

    def epsilon_block_reverse(self, count: int) -> np.ndarray:
        sums = np.empty(count, dtype=np.int64)
        for k in range(count):
            sums[k] = self.sum_register
            for _ in range(self.stride):
                head = self.lfsr.cells[0]
                self.sum_register += self.lfsr.tick_reverse() - head
        return clt(sums, self.n_bits)
