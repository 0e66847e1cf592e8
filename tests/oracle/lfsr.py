"""A Fibonacci LFSR written from scratch: a register of bits, one shift per tick.

The register is a row of single-bit cells ``R1..Rn`` (``cells[0]`` is the head
``R1``).  A forward tick feeds the XOR of the tapped cells into the head and
drops the tail; a reverse tick undoes it (the paper's Eq. 3).  Shorter runs
from the same seed are prefixes of longer ones, so :func:`oracle_run` caches
one long run per seed and callers slice it.

The **Galois** (internal-XOR) form of the same polynomial (:func:`galois_stream`)
shares nothing with the Fibonacci register beyond the tap table, not even the
register layout, and brackets it from the other side.

Integers map to registers as in the product: bit ``j`` of a state is ``R(j+1)``,
and a row of packed words holds bit ``j`` at bit ``j % 64`` of word ``j // 64``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import numpy as np

#: 1-based tap positions, tail tap ``n`` included, of maximal-length Fibonacci
#: LFSRs (the Xilinx XAPP 052 table); 256 bits is the paper's GRNG.
#: :func:`is_primitive` proves each entry maximal.
TAP_TABLE = {
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

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def seed_for_index(n_bits: int, index: int) -> int:
    """The seed of generator ``index``: splitmix64 outputs, one per 64-bit
    chunk of the register, low chunk first, folded to ``n_bits``; never 0."""
    counter, value = index + _GOLDEN, 0
    for chunk in range(-(-n_bits // 64)):
        counter = (counter + _GOLDEN) & _MASK64
        z = counter
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        value |= (z ^ (z >> 31)) << (64 * chunk)
    return value & ((1 << n_bits) - 1) or 1


class BitSerialLFSR:
    """Cells ``R1..Rn`` (``cells[0]`` is the head ``R1``), one bit each."""

    def __init__(self, n_bits: int, seed: int, taps=None) -> None:
        self.n = n_bits
        self.taps = TAP_TABLE[n_bits] if taps is None else tuple(taps)
        self.state = seed

    @property
    def state(self) -> int:
        return sum(bit << j for j, bit in enumerate(self.cells))

    @state.setter
    def state(self, value: int) -> None:
        assert 0 < value < (1 << self.n)
        self.cells = deque((value >> j) & 1 for j in range(self.n))

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
    return bits, popcounts, lfsr.state


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
# the Galois form (shift, conditional mask XOR)
# ----------------------------------------------------------------------
def galois_stream(n_bits: int, offsets, history, count: int) -> np.ndarray:
    """The ``count`` bits that follow ``history`` under ``b(t) = XOR_p b(t-p)``.

    One integer register: shift left, and when a bit falls out of the top
    XOR the feedback mask ``x^n + SUM_p x^(n-p)`` back in; the bits that fall
    out obey the recurrence.  The register is seeded so that its first ``n``
    carry-outs replay ``history`` (bit ``n-1-k`` of the seed is ``history[k]``
    corrected by the mask XORs the earlier carry-outs will have caused) --
    asserted below, so a wrong seeding cannot pass silently.
    """
    top = 1 << n_bits
    mask = top | sum(1 << (n_bits - p) for p in offsets)
    state = 0
    for k, bit in enumerate(history):
        for p in offsets:
            if p <= k:
                bit ^= history[k - p]
        state |= int(bit) << (n_bits - 1 - k)
    out = np.empty(n_bits + count, dtype=np.uint8)
    for k in range(n_bits + count):
        state <<= 1
        out[k] = state >> n_bits
        if state & top:
            state ^= mask
    assert out[:n_bits].tolist() == [int(b) for b in history]
    return out[n_bits:]


def mirrored_offsets(n_bits: int, taps) -> tuple[int, ...]:
    """Offsets of the time-reversed recurrence: ``n - p`` for each inner tap,
    and ``n`` (Fig. 8(b) of the paper)."""
    return tuple(sorted({n_bits - p for p in taps if p != n_bits} | {n_bits}))


def history_bits(n_bits: int, seed: int, reverse: bool) -> list[int]:
    """The register in time order: ``Rn..R1`` forward, ``R1..Rn`` reversed."""
    cells = [(seed >> j) & 1 for j in range(n_bits)]
    return cells if reverse else cells[::-1]


def stream_popcounts(history, bits, n_bits: int, stride: int) -> np.ndarray:
    """Window popcounts after every ``stride``-th bit, from the bits alone."""
    sums = np.concatenate(([0], np.cumsum(np.concatenate((history, bits)), dtype=np.int64)))
    ends = np.arange(stride, len(bits) + 1, stride) + n_bits
    return sums[ends] - sums[ends - n_bits]


# ----------------------------------------------------------------------
# maximal length: the feedback polynomial is primitive
# ----------------------------------------------------------------------
#: Every prime factor of ``2**n - 1`` for the table's widths (all of the form
#: ``2**a * 3**b``, so the factors come from the Fermat numbers and
#: ``Phi_{3 * 2**k}(2)``); :func:`is_primitive` checks the product.
_MERSENNE_PRIMES = (
    3, 5, 7, 13, 17, 97, 193, 241, 257, 641, 673, 65537, 274177, 6700417,
    22253377, 67280421310721, 59649589127497217, 18446744069414584321,
    5704689200685129054721,
)


def _is_prime(value: int) -> bool:
    """Miller-Rabin on the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if value in bases:
        return True
    if value < 2 or any(value % b == 0 for b in bases):
        return False
    odd, twos = value - 1, 0
    while not odd & 1:
        odd, twos = odd >> 1, twos + 1
    for base in bases:
        x = pow(base, odd, value)
        if x in (1, value - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % value
            if x == value - 1:
                break
        else:
            return False
    return True


def _x_power_mod(exponent: int, modulus: int, n_bits: int) -> int:
    """``x**exponent mod modulus`` over GF(2), polynomials as integers."""

    def times(a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            b >>= 1
            a <<= 1
            if a >> n_bits:
                a ^= modulus
        return product

    result, base = 1, 2  # x
    while exponent:
        if exponent & 1:
            result = times(result, base)
        base = times(base, base)
        exponent >>= 1
    return result


def is_primitive(n_bits: int, taps) -> bool:
    """Whether ``b(t) = XOR_p b(t - p)`` has period ``2**n - 1`` from every
    non-zero register: its polynomial ``x^n + SUM_p x^(n-p)`` has order
    exactly ``2**n - 1``, i.e. ``x^(2**n - 1) = 1`` and ``x^((2**n - 1)/q) != 1``
    for every prime ``q`` dividing ``2**n - 1``."""
    modulus = (1 << n_bits) | sum(1 << (n_bits - p) for p in taps)
    order, rest, primes = (1 << n_bits) - 1, (1 << n_bits) - 1, []
    for prime in _MERSENNE_PRIMES:
        if rest % prime == 0:
            assert _is_prime(prime), prime
            primes.append(prime)
            while rest % prime == 0:
                rest //= prime
    assert rest == 1, f"2**{n_bits} - 1 has a factor outside the list: {rest}"
    if _x_power_mod(order, modulus, n_bits) != 1:
        return False
    return all(_x_power_mod(order // q, modulus, n_bits) != 1 for q in primes)


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
