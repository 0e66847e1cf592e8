"""Word-packed bit-sequence primitives of the NumPy LFSR path.

The LFSR recurrence ``b(t) = XOR_p b(t - p)`` (tap offsets ``p``, tail tap
``n`` included) is linear over GF(2), which admits two big software
optimisations that this module implements once, for any number of registers
stepped in lockstep.  Its one caller is the ``lfsr_step_block`` reference of
:mod:`repro.core.backend`, which serves :class:`~repro.core.lfsr.FibonacciLFSR`
(one register) and the NumPy ``grng_block`` path of
:class:`~repro.core.grng_bank.GrngBank` (one register per Monte-Carlo sample).

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
    "run_lfsr_block_packed",
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
    seq: np.ndarray, n_bits: int, count: int, offsets: Sequence[int]
) -> None:
    """Extend a packed bit sequence by ``count`` bits of the tap recurrence.

    ``seq`` is a ``(N, W)`` uint64 matrix whose first ``n_bits`` bits per row
    are already filled (and everything beyond them is zero).  ``offsets`` are
    the ascending tap offsets (at least two) of ``b(t) = XOR_p b(t - p)``
    with ``max(offsets) == n_bits``.

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
    position, end = n_bits, n_bits + count
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
    reverse: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Run ``count`` recurrence steps for every register row.

    ``state_words`` holds the registers ``R1..Rn`` packed little-endian (bit
    ``j`` is ``R(j+1)``).  For ``reverse=False`` the forward tap ``offsets``
    are expected, for ``reverse=True`` the mirrored ones.

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
    state_bits = unpack_bits(state_words, n_bits)
    # Forward time order is oldest-bit-first, i.e. Rn..R1; reversed time order
    # starts from the current head, i.e. R1..Rn.
    history = state_bits if reverse else state_bits[:, ::-1]
    seq[:, : words_for_bits(n_bits)] = pack_bits(history)
    fill_lfsr_sequence(seq, n_bits, count, offsets)
    window_words = _extract(seq, count, n_bits)
    tail = n_bits & 63
    if tail:
        window_words[:, -1] &= np.uint64((1 << tail) - 1)
    if reverse:
        new_state_words = window_words
    else:
        new_state_words = pack_bits(unpack_bits(window_words, n_bits)[:, ::-1])
    return seq, new_state_words
