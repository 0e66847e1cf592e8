"""An independent bit-serial oracle for the packed leapfrog kernel.

Every other LFSR proof in the suite compares fast code to the repo's *own*
step-wise reference, and stops at a few hundred shifts -- far short of squaring
level 6 (position ``256 << 6 = 16,384`` at 256 bits), where the packed fill
switches from shifted extracts to whole-word slice XORs.  This file closes
both gaps with a Fibonacci LFSR written from scratch from the tap table, in
the style of a hardware description (PyRTL ``rtllib/lfsr.py``): a register of
single bits, one feedback XOR over the tapped cells, one shift per tick.  It
shares no code with ``repro.core.bitops`` -- words are packed and unpacked
with the helpers below -- so a bug common to the kernel and the repo's
reference can no longer cancel out.

Checked against it, forward and reverse: the ``lfsr_step_block`` dispatch
point (history, produced bits, end state, zero padding), ``window_popcounts``
on its output, and ``GrngBank``'s forward -> whole-span replay -> reversed
retrieval round trip.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backend as backend
from repro.core import GrngBank

#: 1-based tap positions, tail tap ``n`` included (Xilinx XAPP 052 table).
TAP_TABLE = {
    8: (8, 6, 5, 4),
    16: (16, 15, 13, 4),
    256: (256, 254, 251, 246),
}

#: Squaring level 6 starts at position ``256 << 6``; 2**17 shifts climb three
#: levels past it.  The +1 / +63 variants end on a sub-word tail.
LONG_COUNTS = (1 << 17, (1 << 17) + 1, (1 << 17) + 63)
SEEDS_256 = tuple(
    (0x9E3779B97F4A7C15 * (row + 1)) ** 4 % (1 << 256) | 1 for row in range(8)
)


# ----------------------------------------------------------------------
# the oracle: a register of bits, a tap XOR, one shift per tick
# ----------------------------------------------------------------------
class BitSerialLFSR:
    """Cells ``R1..Rn`` (``cells[0]`` is the head ``R1``), one bit each."""

    def __init__(self, n_bits: int, seed: int) -> None:
        assert 0 < seed < (1 << n_bits)
        self.n = n_bits
        self.taps = TAP_TABLE[n_bits]
        self.cells = deque((seed >> j) & 1 for j in range(n_bits))

    def tick_forward(self) -> int:
        """Feed the XOR of the tapped cells into the head; the tail drops out."""
        feedback = 0
        for tap in self.taps:
            feedback ^= self.cells[tap - 1]
        self.cells.pop()
        self.cells.appendleft(feedback)
        return feedback

    def tick_reverse(self) -> int:
        """Undo one forward tick; return the tail bit it had dropped.

        The head holds the old feedback ``Rn ^ XOR R_p``; every old ``R_p``
        now sits one cell further along, so XORing them back out leaves Rn.
        """
        tail = self.cells[0]
        for tap in self.taps:
            if tap != self.n:
                tail ^= self.cells[tap]
        self.cells.popleft()
        self.cells.append(tail)
        return tail

    def popcount(self) -> int:
        return sum(self.cells)

    def state(self) -> int:
        return sum(bit << j for j, bit in enumerate(self.cells))


@lru_cache(maxsize=None)
def oracle_run(n_bits: int, seed: int, count: int, reverse: bool):
    """``(bits, popcounts, end_state)`` of ``count`` ticks from ``seed``.

    ``popcounts[k]`` is the pattern popcount after tick ``k + 1``.  Shorter
    runs from the same seed are prefixes, so callers slice one long run.
    """
    lfsr = BitSerialLFSR(n_bits, seed)
    tick = lfsr.tick_reverse if reverse else lfsr.tick_forward
    bits = np.empty(count, dtype=np.uint8)
    popcounts = np.empty(count, dtype=np.int64)
    for k in range(count):
        bits[k] = tick()
        popcounts[k] = lfsr.popcount()
    return bits, popcounts, lfsr.state()


def oracle_prefix(n_bits: int, seed: int, count: int, reverse: bool, longest: int):
    bits, popcounts, _ = oracle_run(n_bits, seed, longest, reverse)
    return bits[:count], popcounts[:count]


def oracle_state_after(n_bits: int, seed: int, bits: np.ndarray, reverse: bool) -> int:
    """End state from the start state and the produced bits alone.

    Forward ticks push head bits in at R1; reverse ticks push tail bits in at
    Rn -- the register is simply the last ``n`` bits of history + output.
    """
    history = [(seed >> j) & 1 for j in range(n_bits)]
    newest = [int(b) for b in bits[-n_bits:]]
    if reverse:
        window = (history + newest)[-n_bits:]
    else:
        window = (newest[::-1] + history)[:n_bits]
    return sum(bit << j for j, bit in enumerate(window))


# ----------------------------------------------------------------------
# word packing, written here so nothing is shared with repro.core.bitops
# ----------------------------------------------------------------------
def to_words(states, n_bits: int) -> np.ndarray:
    n_words = -(-n_bits // 64)
    raw = b"".join(int(s).to_bytes(n_words * 8, "little") for s in states)
    return np.frombuffer(raw, dtype="<u8").reshape(len(states), n_words).astype(np.uint64)


def from_words(words: np.ndarray) -> list[int]:
    return [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in words]


def word_bits(words: np.ndarray) -> np.ndarray:
    raw = np.ascontiguousarray(words.astype("<u8")).view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")


def kernel_offsets(n_bits: int, reverse: bool) -> tuple[int, ...]:
    taps = TAP_TABLE[n_bits]
    if reverse:
        return tuple(sorted({n_bits - p for p in taps if p != n_bits} | {n_bits}))
    return tuple(sorted(taps))


def check_step_block(n_bits, seeds, count, reverse, longest):
    """Run the dispatch point and compare every output with the oracle."""
    seq_words, new_words = backend.registry.call(
        "lfsr_step_block",
        to_words(seeds, n_bits),
        n_bits,
        count,
        kernel_offsets(n_bits, reverse),
        reverse,
    )
    seq = word_bits(seq_words)
    assert not seq[:, n_bits + count :].any(), "bits past n_bits + count must be 0"
    for row, seed in enumerate(seeds):
        want_bits, _ = oracle_prefix(n_bits, seed, count, reverse, longest)
        history = [(seed >> j) & 1 for j in range(n_bits)]
        if not reverse:
            history.reverse()  # forward time order is oldest first: Rn..R1
        assert seq[row, :n_bits].tolist() == history
        assert np.array_equal(seq[row, n_bits : n_bits + count], want_bits)
        assert from_words(new_words[row : row + 1])[0] == oracle_state_after(
            n_bits, seed, want_bits, reverse
        )
    return seq_words


# ----------------------------------------------------------------------
# 256-bit registers, far past the level-6 alignment boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("count", LONG_COUNTS)
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_step_block_and_popcounts_match_bit_serial_oracle(rows, count, reverse):
    seeds = SEEDS_256[:rows]
    longest = max(LONG_COUNTS)
    seq_words = check_step_block(256, seeds, count, reverse, longest)
    for stride in (1, 3, 64, 256):
        if count % stride:
            continue
        got = backend.registry.call("window_popcounts", seq_words, 256, count, stride)
        for row, seed in enumerate(seeds):
            _, popcounts = oracle_prefix(256, seed, count, reverse, longest)
            assert np.array_equal(
                np.asarray(got[row], dtype=np.int64), popcounts[stride - 1 :: stride]
            ), f"stride {stride}, row {row}"


def test_oracle_end_state_shortcut_is_the_ticked_register():
    """``oracle_state_after`` (used above) agrees with actually ticking."""
    for reverse in (False, True):
        bits, _, state = oracle_run(256, SEEDS_256[0], max(LONG_COUNTS), reverse)
        assert oracle_state_after(256, SEEDS_256[0], bits, reverse) == state


# ----------------------------------------------------------------------
# small registers over a full period
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("n_bits", [8, 16])
def test_small_registers_over_a_full_period(n_bits, reverse):
    period = (1 << n_bits) - 1
    seeds = (1, 0b1011, period)
    for seed in seeds:
        _, _, state = oracle_run(n_bits, seed, period, reverse)
        assert state == seed, "a maximal-length register returns to its seed"
    seq_words = check_step_block(n_bits, seeds, period, reverse, period)
    for stride in (1, 3, 5):
        assert period % stride == 0
        got = backend.registry.call(
            "window_popcounts", seq_words, n_bits, period, stride
        )
        for row, seed in enumerate(seeds):
            _, popcounts, _ = oracle_run(n_bits, seed, period, reverse)
            assert np.array_equal(
                np.asarray(got[row], dtype=np.int64), popcounts[stride - 1 :: stride]
            )


@given(
    n_bits=st.sampled_from([8, 16, 256]),
    seed_bits=st.integers(min_value=1, max_value=(1 << 64) - 1),
    rows=st.integers(min_value=1, max_value=3),
    count=st.integers(min_value=1, max_value=3000),
    reverse=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_random_blocks_match_bit_serial_oracle(n_bits, seed_bits, rows, count, reverse):
    mask = (1 << n_bits) - 1
    seeds = tuple(((seed_bits * (2 * row + 1)) & mask) or 1 for row in range(rows))
    check_step_block(n_bits, seeds, count, reverse, count)


# ----------------------------------------------------------------------
# GrngBank: forward -> whole-span replay -> reversed retrieval
# ----------------------------------------------------------------------
@pytest.mark.parametrize("stride", [256, 1])
def test_grng_bank_round_trip_matches_bit_serial_oracle(stride):
    n_bits, shifts = 256, 1 << 17
    start = list(SEEDS_256[:3])
    count = shifts // stride
    bank = GrngBank(n_rows=len(start), n_bits=n_bits, stride=stride)
    bank.set_states(start)
    mean, std = n_bits / 2.0, math.sqrt(n_bits / 4.0)
    want = np.empty((len(start), count), dtype=np.float64)
    end = []
    for row, seed in enumerate(start):
        bits, popcounts = oracle_prefix(n_bits, seed, shifts, False, max(LONG_COUNTS))
        want[row] = (popcounts[stride - 1 :: stride] - mean) / std
        end.append(oracle_state_after(n_bits, seed, bits, False))

    forward = bank.epsilon_blocks(count)
    assert forward.tobytes() == want.tobytes()
    assert bank.states() == end

    replayed = bank.replay_blocks(start, count, expected_end_states=end)
    assert replayed.tobytes() == want.tobytes()
    assert bank.states() == end

    # Retrieval is newest first and starts with the variable just emitted.
    retrieved = bank.epsilon_blocks_reverse(count)
    assert retrieved.tobytes() == np.ascontiguousarray(want[:, ::-1]).tobytes()
    assert bank.states() == start
