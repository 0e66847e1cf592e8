"""The CLT Gaussian generator, straight-line, on top of the bit-serial register.

A GRNG value is the popcount ``s`` of an ``n``-bit LFSR pattern, standardised
as ``(s - n/2) / sqrt(n/4)`` in float64 (:func:`clt`).  The popcount is read
off the register itself, so the register is the generator's whole state; a
reversed retrieval ticks it back through the mirrored taps.
"""

from __future__ import annotations

import math

import numpy as np

from .lfsr import BitSerialLFSR, seed_for_index


def clt(popcounts, n_bits: int) -> np.ndarray:
    """``(s - n/2) / sqrt(n/4)`` per popcount ``s``, in NumPy float64."""
    sums = np.asarray(popcounts, dtype=np.float64)
    return (sums - n_bits / 2.0) / math.sqrt(n_bits / 4.0)


class OracleGRNG:
    """One generator: a :class:`BitSerialLFSR` and a stride.

    One row's block interface, computed tick by tick:
    :meth:`epsilon_block` emits one value per ``stride`` forward ticks,
    :meth:`epsilon_block_reverse` emits the current pattern's value, then
    runs ``stride`` reverse ticks per value.
    """

    def __init__(self, n_bits: int, seed_index: int = 0, stride: int = 1) -> None:
        self.lfsr = BitSerialLFSR(n_bits, seed_for_index(n_bits, seed_index))
        self.n_bits = n_bits
        self.stride = stride

    @property
    def state(self) -> int:
        return self.lfsr.state

    @state.setter
    def state(self, value: int) -> None:
        self.lfsr.state = value

    def epsilon_block(self, count: int) -> np.ndarray:
        popcounts = np.empty(count, dtype=np.int64)
        for k in range(count):
            for _ in range(self.stride):
                self.lfsr.tick_forward()
            popcounts[k] = self.lfsr.popcount()
        return clt(popcounts, self.n_bits)

    def epsilon_block_reverse(self, count: int) -> np.ndarray:
        popcounts = np.empty(count, dtype=np.int64)
        for k in range(count):
            popcounts[k] = self.lfsr.popcount()
            for _ in range(self.stride):
                self.lfsr.tick_reverse()
        return clt(popcounts, self.n_bits)
