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
on its output, the fused ``grng_block`` point on its compiled ``native``
backend (values, popcounts, end states, split calls, every width and row
count its ``supports`` predicate accepts -- across the vector lane body's
groups of eight rows at 256 bits when the CPU runs it) and ``GrngBank``'s
forward -> whole-span replay -> reversed retrieval round trip.  The kernel's
``grng_forward`` is also held byte-equal to its row body alone over the whole
domain.

A second from-scratch construction brackets the kernels from the other side:
the **Galois** (internal-XOR) form of the same polynomial -- shift the whole
register, and on a carry-out XOR the feedback mask back in (PyRTL
``galois_lfsr``, QAMpy ``lfsr_int``).  It shares nothing with the Fibonacci
oracle beyond the tap table, not even the register layout.

Every ``native`` case skips itself, with the reason, when the C kernel cannot
be built here.
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
import repro.core.native as native
from repro.core import GrngBank

#: 1-based tap positions, tail tap ``n`` included (Xilinx XAPP 052 table).
TAP_TABLE = {
    8: (8, 6, 5, 4),
    16: (16, 15, 13, 4),
    64: (64, 63, 61, 60),
    128: (128, 126, 101, 99),
    192: (192, 190, 178, 177),
    256: (256, 254, 251, 246),
}

#: Squaring level 6 starts at position ``256 << 6``; 2**17 shifts climb three
#: levels past it.  The +1 / +63 variants end on a sub-word tail.
LONG_COUNTS = (1 << 17, (1 << 17) + 1, (1 << 17) + 63)
SEEDS_256 = tuple(
    (0x9E3779B97F4A7C15 * (row + 1)) ** 4 % (1 << 256) | 1 for row in range(16)
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
# the second oracle: the Galois form (shift, conditional mask XOR)
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


def history_bits(n_bits: int, seed: int, reverse: bool) -> list[int]:
    """The register in the kernel's time order: R1..Rn reversed, Rn..R1 forward."""
    cells = [(seed >> j) & 1 for j in range(n_bits)]
    return cells if reverse else cells[::-1]


def stream_popcounts(history, bits, n_bits: int, stride: int) -> np.ndarray:
    """Window popcounts after every ``stride``-th bit, from the bits alone."""
    sums = np.concatenate(([0], np.cumsum(np.concatenate((history, bits)), dtype=np.int64)))
    ends = np.arange(stride, len(bits) + 1, stride) + n_bits
    return sums[ends] - sums[ends - n_bits]


@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("n_bits", [8, 16, 64, 128, 192, 256])
def test_galois_form_agrees_with_bit_serial_oracle_and_step_block(n_bits, reverse):
    count = max(LONG_COUNTS) if n_bits == 256 else 4096
    seed = SEEDS_256[1] % (1 << n_bits) | 1
    offsets = kernel_offsets(n_bits, reverse)
    galois = galois_stream(n_bits, offsets, history_bits(n_bits, seed, reverse), count)
    serial, _ = oracle_prefix(n_bits, seed, count, reverse, count)
    assert np.array_equal(galois, serial)
    seq_words, _ = backend.registry.call(
        "lfsr_step_block", to_words([seed], n_bits), n_bits, count, offsets, reverse
    )
    assert np.array_equal(word_bits(seq_words)[0, n_bits : n_bits + count], galois)


# ----------------------------------------------------------------------
# the fused grng_block point on its compiled backend
# ----------------------------------------------------------------------
def native_calls() -> int:
    ran = backend.counters_snapshot().get("grng_block", {}).get("native", {})
    return ran.get("calls", 0)


def require_native() -> None:
    listing = next(e for e in backend.list_backends() if e["kernel"] == "grng_block")
    if not next(b for b in listing["backends"] if b["name"] == "native")["available"]:
        pytest.skip("grng_block/native unavailable: no C compiler, or the build failed")


@pytest.fixture
def native_grng():
    """Force ``grng_block`` onto ``native``; skip when it cannot be built."""
    require_native()
    with backend.using("grng_block", "native"):
        yield


def grng_block(seeds, n_bits, stride, count, reverse, mean=None, std=None):
    """One dispatch: ``(out, end_states, last_popcounts)``."""
    mean = n_bits / 2.0 if mean is None else mean
    std = math.sqrt(n_bits / 4.0) if std is None else std
    out = np.empty((len(seeds), count), dtype=np.int32 if reverse else np.float64)
    _, new_words, last = backend.registry.call(
        "grng_block", to_words(seeds, n_bits), n_bits, kernel_offsets(n_bits, reverse),
        stride, count, reverse, mean, std, out,
    )
    return out, from_words(new_words), [int(v) for v in last]


def native_domain():
    """(n_bits, reverse) pairs the native ``supports`` predicate accepts."""
    pairs = []
    for n_bits in sorted(TAP_TABLE):
        for reverse in (False, True):
            probe = np.empty((1, 1), dtype=np.int32 if reverse else np.float64)
            if backend._grng_block_native_supports(
                to_words([1], n_bits), n_bits, kernel_offsets(n_bits, reverse),
                64, 1, reverse, 0.0, 1.0, probe,
            ):
                pairs.append((n_bits, reverse))
    return pairs


def test_native_domain_is_every_word_aligned_width():
    assert native_domain() == [
        (64, True), (128, False), (128, True), (192, False), (192, True),
        (256, False), (256, True),
    ]


@pytest.mark.parametrize(
    ("n_bits", "reverse", "rows"),
    [
        (n_bits, reverse, rows)
        for n_bits, reverse in native_domain()
        # odd row counts leave the reverse kernel's last row un-paired; 9 and
        # 16 rows span two groups of eight vector lanes (at 9 the lone last
        # row runs on the row body; 2 and 3 rows run duplicate lanes); the
        # banks of 8+ rows (the bit-serial oracle's slowest cases) at 256
        # bits only
        for rows in ((1, 2, 3, 8, 9, 16) if n_bits == 256 else (1, 2, 3))
    ],
)
def test_native_grng_block_matches_bit_serial_oracle(native_grng, n_bits, reverse, rows):
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[:rows]]
    longest = max(LONG_COUNTS)
    mean, std = n_bits / 2.0, math.sqrt(n_bits / 4.0)
    # narrower than, equal to and wider than the register; the fused point
    # counts values, so the sub-word tails of LONG_COUNTS become an odd count
    for stride in (64, n_bits, 2 * n_bits):
        count = min(LONG_COUNTS) // stride - 1
        before = native_calls()
        out, end, last = grng_block(seeds, n_bits, stride, count, reverse)
        assert native_calls() == before + 1, "the call fell through to NumPy"
        for parts in (2, 7):
            states, pieces = seeds, []
            edges = np.linspace(0, count, parts + 1).astype(int)
            for lo, hi in zip(edges[:-1], edges[1:]):
                piece, states, piece_last = grng_block(
                    states, n_bits, stride, int(hi - lo), reverse
                )
                pieces.append(piece)
            assert np.concatenate(pieces, axis=1).tobytes() == out.tobytes()
            assert (states, piece_last) == (end, last)
        for row, seed in enumerate(seeds):
            bits, popcounts = oracle_prefix(n_bits, seed, count * stride, reverse, longest)
            emitted = popcounts[stride - 1 :: stride]
            want = emitted.astype(np.int32) if reverse else (emitted - mean) / std
            assert out[row].tobytes() == want.tobytes(), (stride, row)
            assert last[row] == emitted[-1]
            assert end[row] == oracle_state_after(n_bits, seed, bits, reverse)


@pytest.mark.parametrize(("n_bits", "reverse"), native_domain())
def test_native_grng_block_matches_galois_form(native_grng, n_bits, reverse):
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[2:5]]
    stride, count = n_bits, 4096 // n_bits * 8
    out, _, _ = grng_block(seeds, n_bits, stride, count, reverse)
    offsets = kernel_offsets(n_bits, reverse)
    for row, seed in enumerate(seeds):
        history = history_bits(n_bits, seed, reverse)
        bits = galois_stream(n_bits, offsets, history, count * stride)
        emitted = stream_popcounts(history, bits, n_bits, stride)
        if reverse:
            want = emitted.astype(np.int32)
        else:
            want = (emitted - n_bits / 2.0) / math.sqrt(n_bits / 4.0)
        assert out[row].tobytes() == want.tobytes()


@given(
    states=st.lists(st.integers(min_value=1, max_value=(1 << 128) - 1), min_size=1, max_size=3),
    count=st.integers(min_value=1, max_value=600),
    stride=st.sampled_from([64, 128, 256]),
    mean=st.floats(min_value=-300.0, max_value=300.0),
    std=st.one_of(
        st.just(math.sqrt(128) / 2),  # the 128-bit GRNG: not a power of two
        st.floats(min_value=1e-3, max_value=1e3),
    ),
)
@settings(max_examples=40, deadline=None)
def test_native_standardise_is_numpy_division(states, count, stride, mean, std):
    """``((double)pc - mean) / std`` in C == ``(pc - mean) / std`` in NumPy, bytewise."""
    require_native()
    with backend.using("grng_block", "native"):
        values, _, _ = grng_block(states, 128, stride, count, False, mean, std)
    with backend.using("grng_block", "reference"):
        # popcounts from the NumPy chain at mean 0 / std 1, then NumPy's own divide
        raw, _, _ = grng_block(states, 128, stride, count, False, 0.0, 1.0)
    assert values.tobytes() == ((raw.astype(np.int64) - mean) / std).tobytes()


# ----------------------------------------------------------------------
# the two forward bodies of the compiled kernel: vector lanes vs rows
# ----------------------------------------------------------------------
def forward_body(function, state, shifts, stride_words, count, mean, std):
    rows, n_words = state.shape
    new_state = np.empty_like(state)
    last = np.empty(rows, dtype=np.int64)
    out = np.empty((rows, count), dtype=np.float64)
    table = np.array(shifts, dtype=np.int32)
    status = function(
        state.ctypes.data, new_state.ctypes.data, last.ctypes.data, rows, n_words,
        table.ctypes.data, stride_words, count, mean, std, out.ctypes.data,
    )
    assert status == 0
    return out.tobytes(), new_state.tobytes(), last.tobytes()


@given(
    rows=st.integers(min_value=1, max_value=17),
    count=st.integers(min_value=1, max_value=300),
    # half the draws in the lane body's geometry (256-bit register, stride
    # 256 or 512), half anywhere from 128- to 1024-bit registers at strides
    # 64 to 512, where grng_forward hands the call to the row body
    geometry=st.one_of(
        st.sampled_from([(4, 4), (4, 8)]),
        st.tuples(st.sampled_from([2, 3, 4, 8, 16]), st.integers(min_value=1, max_value=8)),
    ),
    shifts=st.lists(st.integers(min_value=1, max_value=63), min_size=3, max_size=3),
    seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
@settings(max_examples=80, deadline=None)
def test_lane_body_matches_row_body(rows, count, geometry, shifts, seed):
    """``grng_forward`` on the vector lanes == ``grng_forward_rows``, bytewise.

    Output, end state and last popcount, at every row count -- multiples of
    eight, the part-filled groups whose spare lanes run a dropped duplicate,
    and the lone last row the lanes leave to the row body -- every width and
    stride, any three in-word taps.
    """
    require_native()
    lib = native.library.load()
    if lib.grng_lane_width() != 8:
        pytest.skip("this CPU lacks AVX-512F/DQ + VPOPCNTDQ: only the row body runs")
    n_words, stride_words = geometry
    state = np.random.default_rng(seed).integers(
        0, 1 << 64, size=(rows, n_words), dtype=np.uint64
    )
    mean, std = n_words * 32.0, math.sqrt(n_words * 16.0)
    args = (state, shifts, stride_words, count, mean, std)
    lanes = forward_body(lib.grng_forward, *args)
    assert lanes == forward_body(lib.grng_forward_rows, *args)


# ----------------------------------------------------------------------
# GrngBank: forward -> whole-span replay -> reversed retrieval
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("n_bits", "stride", "which"),
    [
        (256, 256, "native"),
        (256, 256, "reference"),
        (256, 1, "reference"),  # dense emission: outside native's domain
        (192, 192, "native"),
        (128, 64, "native"),
        (64, 64, "native"),  # forward falls through to NumPy, reverse is compiled
    ],
)
def test_grng_bank_round_trip_matches_bit_serial_oracle(n_bits, stride, which):
    if which == "native":
        require_native()
    with backend.using("grng_block", which):
        check_bank_round_trip(n_bits, stride)


def check_bank_round_trip(n_bits, stride):
    count = (1 << 17) // stride
    shifts = count * stride
    start = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[:3]]
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
