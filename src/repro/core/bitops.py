"""Word-packed bit-sequence primitives of the NumPy LFSR path.

The LFSR recurrence ``b(t) = XOR_p b(t - p)`` (tap offsets ``p``, tail tap
``n`` included) is linear over GF(2), which admits two big software
optimisations that this module implements once, for any number of registers
stepped in lockstep.  Its caller is the NumPy ``grng_block`` path of
:class:`~repro.core.grng_bank.GrngBank` (one register per Monte-Carlo
sample): its first chunk through the ``lfsr_step_block`` function of
:mod:`repro.core.backend`, its later chunks continuing one sequence
(:func:`continue_lfsr_sequence`).  :func:`jump_terms` is the register jump
both ``grng_block`` backends apply.

* **word packing** -- sequences are stored 64 bits per ``uint64`` word, so one
  XOR instruction advances 64 recurrence positions per register instead of one
  ``uint8`` element;
* **polynomial squaring (leapfrogging)** -- if the feedback polynomial ``P``
  annihilates the bit sequence, so does ``P**(2**k)``, and squaring over GF(2)
  keeps the tap count unchanged while doubling every offset.  Once ``2**k * n``
  bits of history exist, chunks of ``2**k * min_tap`` bits can be produced per
  set of tap XORs, so the number of chunk iterations grows only
  logarithmically with the block length instead of linearly;
* **word alignment** -- chunk boundaries are kept on the 64-bit grid, and from
  the level where every squared offset ``2**k * p`` is a whole number of words
  (``k = 6`` at the latest) a chunk is a handful of word-slice XORs written
  straight into place: no shifts, no temporaries.  Only the first few tiny
  chunks and a final sub-word tail take the shifted extract/deposit path
  (see :func:`fill_lfsr_sequence`).

Bit convention: bit ``i`` of the sequence lives at bit ``i % 64`` of word
``i // 64`` (little-endian within and across words, matching
``np.packbits(..., bitorder="little")`` on little-endian hosts).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "words_for_bits",
    "pack_bits",
    "unpack_bits",
    "pack_int_rows",
    "unpack_int_rows",
    "fill_lfsr_sequence",
    "lfsr_history",
    "continue_lfsr_sequence",
    "run_lfsr_block_packed",
    "register_words",
    "jump_terms",
]

_WORD = 64


def words_for_bits(n_bits: int) -> int:
    """Number of 64-bit words needed to hold ``n_bits`` bits."""
    return (n_bits + _WORD - 1) >> 6


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(N, L)`` uint8 bit matrix into ``(N, words_for_bits(L))`` words."""
    n_rows, n_bits = bits.shape
    n_words = words_for_bits(n_bits)
    packed = np.packbits(np.ascontiguousarray(bits), axis=1, bitorder="little")
    if packed.shape[1] != n_words * 8:
        padded = np.zeros((n_rows, n_words * 8), dtype=np.uint8)
        padded[:, : packed.shape[1]] = packed
        packed = padded
    return np.ascontiguousarray(packed).view(np.uint64)


def unpack_bits(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Unpack ``(N, W)`` uint64 words into the first ``n_bits`` bits per row."""
    raw = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(raw, axis=1, bitorder="little")[:, :n_bits]


def pack_int_rows(values: Sequence[int], n_bits: int) -> np.ndarray:
    """Pack non-negative Python integers into a ``(N, W)`` uint64 word matrix."""
    n_words = words_for_bits(n_bits)
    raw = b"".join(int(value).to_bytes(n_words * 8, "little") for value in values)
    return np.frombuffer(raw, dtype="<u8").reshape(len(values), n_words).astype(np.uint64)


def unpack_int_rows(words: np.ndarray) -> list[int]:
    """Inverse of :func:`pack_int_rows`: one Python integer per row."""
    data = np.ascontiguousarray(words.astype("<u8")).tobytes()
    row_bytes = words.shape[1] * 8
    return [
        int.from_bytes(data[i * row_bytes : (i + 1) * row_bytes], "little")
        for i in range(words.shape[0])
    ]


def _extract(seq: np.ndarray, start: int, length: int) -> np.ndarray:
    """Read ``length`` bits at bit offset ``start`` into fresh packed words."""
    word0, shift = start >> 6, start & 63
    n_words = words_for_bits(length)
    head = seq[:, word0 : word0 + n_words]
    if shift == 0:
        return head.copy()
    values = head >> shift
    values |= seq[:, word0 + 1 : word0 + 1 + n_words] << (_WORD - shift)
    return values


def _deposit(seq: np.ndarray, start: int, values: np.ndarray, length: int) -> None:
    """OR ``length`` bits into ``seq`` at bit offset ``start`` (region must be 0)."""
    tail = length & 63
    if tail:
        values[:, -1] &= np.uint64((1 << tail) - 1)
    word0, shift = start >> 6, start & 63
    n_words = values.shape[1]
    if shift == 0:
        seq[:, word0 : word0 + n_words] |= values
    else:
        seq[:, word0 : word0 + n_words] |= values << shift
        seq[:, word0 + 1 : word0 + 1 + n_words] |= values >> (_WORD - shift)


def fill_lfsr_sequence(
    seq: np.ndarray,
    n_bits: int,
    count: int,
    offsets: Sequence[int],
    filled: int | None = None,
) -> None:
    """Extend a packed bit sequence by ``count`` bits of the tap recurrence.

    ``seq`` is a ``(N, W)`` uint64 matrix whose first ``filled`` bits per row
    (default ``n_bits``, at least ``n_bits``) are already filled and
    everything beyond them is zero.  ``offsets`` are the ascending tap
    offsets (at least two) of ``b(t) = XOR_p b(t - p)`` with
    ``max(offsets) == n_bits``.

    Chunks are produced with the squared-polynomial tap sets
    ``{2**k * p}`` as soon as ``2**k * n_bits`` bits of history exist, which
    the identity ``P(x)**2 = P(x**2)`` over GF(2) makes valid: each squaring
    level doubles the chunk length at a constant number of word-XOR passes.

    Any chunk length up to ``min(offsets) << level`` is valid, so a chunk that
    would cross a word boundary is cut back to end *on* it: ``position``
    reaches the 64-bit grid within the first few (tiny) chunks and then stays
    on it.  Once every ``p << level`` is a whole number of words (level 6 at
    the latest) a chunk is nothing but word slices XORed straight into the
    destination; the shifted extract/deposit path serves only the early
    levels and a final sub-word tail.
    """
    offsets = tuple(offsets)
    min_offset = offsets[0]
    offset_bits = 0
    for offset in offsets:
        offset_bits |= offset
    position = n_bits if filled is None else filled
    end = position + count
    level = 0
    while position < end:
        while (n_bits << (level + 1)) <= position:
            level += 1
        length = min(min_offset << level, end - position)
        aligned_end = (position + length) & ~63
        if aligned_end > position:
            length = aligned_end - position
        if not ((position | length | (offset_bits << level)) & 63):
            word, n_words = position >> 6, length >> 6
            dest = seq[:, word : word + n_words]
            taps = [
                seq[:, word - back : word - back + n_words]
                for back in [(offset << level) >> 6 for offset in offsets]
            ]
            np.bitwise_xor(taps[0], taps[1], out=dest)
            for tap in taps[2:]:
                dest ^= tap
        else:
            acc = _extract(seq, position - (min_offset << level), length)
            for offset in offsets[1:]:
                acc ^= _extract(seq, position - (offset << level), length)
            _deposit(seq, position, acc, length)
        position += length


def run_lfsr_block_packed(
    state_words: np.ndarray,
    n_bits: int,
    count: int,
    offsets: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``count`` forward recurrence steps for every register row.

    ``state_words`` holds the registers ``R1..Rn`` packed little-endian (bit
    ``j`` is ``R(j+1)``); ``offsets`` are the forward tap offsets.

    Returns ``(seq_words, new_state_words)``: per row the ``n_bits`` of
    history followed by the ``count`` freshly produced bits, word-packed (bit
    ``i`` of a row at bit ``i % 64`` of word ``i // 64``; bits beyond
    ``n_bits + count`` are zero), and the packed end-of-block register state.
    Popcount-style consumers reduce the sequence with
    :func:`numpy.bitwise_count` instead of materialising ``n_bits + count``
    bytes per row.
    """
    total = n_bits + count
    seq = np.zeros(
        (state_words.shape[0], words_for_bits(total) + 2), dtype=np.uint64
    )
    # time order is oldest-bit-first, i.e. Rn..R1
    history = unpack_bits(state_words, n_bits)[:, ::-1]
    seq[:, : words_for_bits(n_bits)] = pack_bits(history)
    fill_lfsr_sequence(seq, n_bits, count, offsets)
    return seq, register_words(seq, count, n_bits)


def register_words(seq: np.ndarray, start: int, n_bits: int) -> np.ndarray:
    """The packed register whose forward window is bits ``[start, start + n_bits)``.

    A window is in time order, oldest bit first -- ``Rn..R1`` -- so it is
    flipped into register order.
    """
    return pack_bits(unpack_bits(_extract(seq, start, n_bits), n_bits)[:, ::-1])


def lfsr_history(seq: np.ndarray, end: int, n_bits: int) -> tuple[np.ndarray, int]:
    """The history a continuation of a forward sequence starts from.

    Of the first ``end`` bits of ``seq``, the last ``n_bits + 64 * head``
    (``head`` words beyond the current register, up to ``n_bits << 6`` bits
    in all): enough for :func:`continue_lfsr_sequence` to run at the
    word-aligned squaring level 6 at once instead of climbing to it again.
    Returns ``(history_words, head)``.
    """
    head = min(words_for_bits(63 * n_bits), (end - n_bits) >> 6)
    length = n_bits + (head << 6)
    return _extract(seq, end - length, length), head  # zero past ``end``


def continue_lfsr_sequence(
    history: np.ndarray, head: int, n_bits: int, count: int, offsets: Sequence[int]
) -> np.ndarray:
    """The next ``count`` bits after an :func:`lfsr_history`, as a sequence.

    The history comes first, so the current register's window starts at word
    ``head``: ``seq[:, head:]`` is laid out like :func:`run_lfsr_block_packed`'s
    sequence (``n_bits`` of history, then the ``count`` new bits).
    """
    filled = n_bits + (head << 6)
    seq = np.zeros((history.shape[0], words_for_bits(filled + count) + 2), dtype=np.uint64)
    seq[:, : history.shape[1]] = history
    fill_lfsr_sequence(seq, n_bits, count, offsets, filled)
    return seq


def jump_terms(n_bits: int, taps: Sequence[int], shifts: int) -> tuple[int, ...]:
    """Exponents ``i`` of ``R = x^-shifts mod P``, ascending.

    ``P = x^n + SUM_p x^(n-p)`` (the tail tap gives the ``1``) annihilates
    the forward shift ``L``, and ``P(0) = 1`` makes ``x`` invertible modulo
    ``P``, so ``L^-shifts = R(L)``: the register ``shifts`` shifts back is
    the XOR of the registers ``i`` shifts ahead, one per term ``x^i`` of
    ``R`` -- each a window of one ``(n - 1)``-shift forward run, so the jump
    runs forward only.  Square-and-multiply on Python integers (bit ``k`` is
    the coefficient of ``x^k``), where multiplying by ``x^-1 = (P - 1) / x``
    is one conditional XOR and one shift.
    """
    modulus = 1 << n_bits
    for p in taps:
        modulus |= 1 << (n_bits - p)
    low = (1 << n_bits) - 1
    power = 1
    for bit in bin(shifts)[2:]:
        # over GF(2) squaring spreads the bits; then fold x^n = SUM_p x^(n-p)
        power = int("0".join(bin(power)[2:]), 2)
        while power >> n_bits:
            high, power = power >> n_bits, power & low
            for p in taps:
                power ^= high << (n_bits - p)
        if bit == "1":
            if power & 1:
                power ^= modulus
            power >>= 1
    return tuple(i for i in range(n_bits) if power >> i & 1)
