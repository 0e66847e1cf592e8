"""The packed kernels and GrngBank against the independent bit-serial oracle.

Every other LFSR proof in the suite stops at a few hundred shifts -- far
short of squaring level 6 (position ``256 << 6 = 16,384`` at 256 bits), where
the packed fill switches from shifted extracts to whole-word slice XORs.  This
file closes that gap with the Fibonacci LFSR of ``tests/oracle``, written from
scratch from the tap table in the style of a hardware description (PyRTL
``rtllib/lfsr.py``): a register of single bits, one feedback XOR over the
tapped cells, one shift per tick, forward or in reverse.  It shares no code
with ``repro`` -- it packs and unpacks words itself -- so a bug common to the
kernel and the repo's reference can no longer cancel out.

Checked against it: the ``lfsr_step_block`` function (history, produced bits,
end state, zero padding), ``window_popcounts`` on its output, the fused
``grng_block`` point on its compiled ``native`` backend (values, end
states, split calls, every width and row count its ``supports``
predicate accepts -- across the vector lane body's groups of eight rows at
256 bits when the CPU runs it), ``GrngBank``'s reversed retrieval (the
oracle ticking in reverse) and its forward -> replay -> reversed retrieval
round trip, and the jump under that retrieval (``grng_block``'s ``rewind``:
the register ``N`` shifts back as a fixed linear function of the current
one) on both backends, at every table width and at random widths, taps and
``N``.  The kernel's ``grng_forward`` is also held byte-equal to its row body
alone over the whole domain, jump included.

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
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.backend as backend
import repro.core.native as native
from oracle import (
    TAP_TABLE,
    BitSerialLFSR,
    OracleGRNG,
    clt,
    from_words,
    galois_stream,
    history_bits,
    mirrored_offsets,
    oracle_prefix,
    oracle_run,
    oracle_state_after,
    stream_popcounts,
    to_words,
    word_bits,
)
from repro.core import GrngBank

#: Squaring level 6 starts at position ``256 << 6``; 2**17 shifts climb three
#: levels past it.  The +1 / +63 variants end on a sub-word tail.
LONG_COUNTS = (1 << 17, (1 << 17) + 1, (1 << 17) + 63)
SEEDS_256 = tuple(
    (0x9E3779B97F4A7C15 * (row + 1)) ** 4 % (1 << 256) | 1 for row in range(16)
)
#: The widths of the first oracle tables, where the long runs below stay.
WIDTHS = (8, 16, 64, 128, 192, 256)


def kernel_offsets(n_bits: int) -> tuple[int, ...]:
    return tuple(sorted(TAP_TABLE[n_bits]))


def check_step_block(n_bits, seeds, count, longest):
    """Run the packed kernel and compare every output with the oracle."""
    seq_words, new_words = backend.lfsr_step_block(
        to_words(seeds, n_bits), n_bits, count, kernel_offsets(n_bits)
    )
    seq = word_bits(seq_words)
    assert not seq[:, n_bits + count :].any(), "bits past n_bits + count must be 0"
    for row, seed in enumerate(seeds):
        want_bits, _ = oracle_prefix(n_bits, seed, count, False, longest)
        # forward time order is oldest first: Rn..R1
        assert seq[row, :n_bits].tolist() == history_bits(n_bits, seed, False)
        assert np.array_equal(seq[row, n_bits : n_bits + count], want_bits)
        assert from_words(new_words[row : row + 1])[0] == oracle_state_after(
            n_bits, seed, want_bits, False
        )
    return seq_words


def reverse_bank(seeds, n_bits, stride, taps=None):
    bank = GrngBank(n_rows=len(seeds), n_bits=n_bits, taps=taps, stride=stride)
    bank.set_states(seeds)
    return bank


def reversed_values(state: int, earlier: np.ndarray, n_bits: int) -> bytes:
    """Retrieval from register ``state`` emits the current pattern first,
    then the earlier ones but the last."""
    earlier = np.asarray(earlier, dtype=np.int64)
    return clt(np.append(bin(state).count("1"), earlier[:-1]), n_bits).tobytes()


# ----------------------------------------------------------------------
# 256-bit registers, far past the level-6 alignment boundary
# ----------------------------------------------------------------------
@pytest.mark.parametrize("count", LONG_COUNTS)
@pytest.mark.parametrize("rows", [1, 3, 8])
def test_step_block_and_popcounts_match_bit_serial_oracle(rows, count):
    seeds = SEEDS_256[:rows]
    longest = max(LONG_COUNTS)
    seq_words = check_step_block(256, seeds, count, longest)
    for stride in (1, 3, 64, 256):
        if count % stride:
            continue
        got = backend.registry.call("window_popcounts", seq_words, 256, count, stride)
        for row, seed in enumerate(seeds):
            _, popcounts = oracle_prefix(256, seed, count, False, longest)
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
    if reverse:
        # the bank's retrieval walks the whole cycle back, pattern by pattern
        out = reverse_bank(seeds, n_bits, 1).epsilon_blocks_reverse(period)
        for row, seed in enumerate(seeds):
            _, popcounts, _ = oracle_run(n_bits, seed, period, True)
            assert out[row].tobytes() == reversed_values(seed, popcounts, n_bits)
        return
    seq_words = check_step_block(n_bits, seeds, period, period)
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
    if not reverse:
        check_step_block(n_bits, seeds, count, count)
        return
    bank = reverse_bank(seeds, n_bits, 1)
    out = bank.epsilon_blocks_reverse(count)
    for row, seed in enumerate(seeds):
        bits, popcounts = oracle_prefix(n_bits, seed, count, True, count)
        assert out[row].tobytes() == reversed_values(seed, popcounts, n_bits)
        assert bank.states()[row] == oracle_state_after(n_bits, seed, bits, True)


# ----------------------------------------------------------------------
# the second oracle: the Galois form (shift, conditional mask XOR)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
@pytest.mark.parametrize("n_bits", WIDTHS)
def test_galois_form_agrees_with_bit_serial_oracle_and_step_block(n_bits, reverse):
    count = max(LONG_COUNTS) if n_bits == 256 else 4096
    seed = SEEDS_256[1] % (1 << n_bits) | 1
    taps = TAP_TABLE[n_bits]
    offsets = mirrored_offsets(n_bits, taps) if reverse else kernel_offsets(n_bits)
    galois = galois_stream(n_bits, offsets, history_bits(n_bits, seed, reverse), count)
    serial, _ = oracle_prefix(n_bits, seed, count, reverse, count)
    assert np.array_equal(galois, serial)
    if not reverse:
        seq_words, _ = backend.lfsr_step_block(to_words([seed], n_bits), n_bits, count, offsets)
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


def grng_block(seeds, n_bits, stride, count, mean=None, std=None):
    """One dispatch: ``(out, end_states)``."""
    mean = n_bits / 2.0 if mean is None else mean
    std = math.sqrt(n_bits / 4.0) if std is None else std
    out = np.empty((len(seeds), count), dtype=np.float64)
    _, new_words, _, _ = backend.registry.call(
        "grng_block", to_words(seeds, n_bits), n_bits, kernel_offsets(n_bits),
        stride, count, mean, std, out,
    )
    return out, from_words(new_words)


def native_domain():
    """Register widths the native ``supports`` predicate accepts."""
    probe = np.empty((1, 1), dtype=np.float64)
    return [
        n_bits
        for n_bits in sorted(TAP_TABLE)
        if backend._grng_block_native_supports(
            to_words([1], n_bits), n_bits, kernel_offsets(n_bits),
            64, 1, 0.0, 1.0, probe,
        )
    ]


def test_native_domain_is_every_word_aligned_width():
    assert native_domain() == [128, 192, 256]


#: 9 and 16 rows span two groups of eight vector lanes (at 9 the lone last row
#: runs on the row body; 2 and 3 rows run duplicate lanes); the banks of 8+
#: rows (the bit-serial oracle's slowest cases) at 256 bits only
def row_counts(n_bits: int):
    return (1, 2, 3, 8, 9, 16) if n_bits == 256 else (1, 2, 3)


@pytest.mark.parametrize(
    ("n_bits", "rows"),
    [(n_bits, rows) for n_bits in native_domain() for rows in row_counts(n_bits)],
)
def test_native_grng_block_matches_bit_serial_oracle(native_grng, n_bits, rows):
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[:rows]]
    longest = max(LONG_COUNTS)
    mean, std = n_bits / 2.0, math.sqrt(n_bits / 4.0)
    # narrower than, equal to and wider than the register; the fused point
    # counts values, so the sub-word tails of LONG_COUNTS become an odd count
    for stride in (64, n_bits, 2 * n_bits):
        count = min(LONG_COUNTS) // stride - 1
        before = native_calls()
        out, end = grng_block(seeds, n_bits, stride, count)
        assert native_calls() == before + 1, "the call fell through to NumPy"
        for parts in (2, 7):
            states, pieces = seeds, []
            edges = np.linspace(0, count, parts + 1).astype(int)
            for lo, hi in zip(edges[:-1], edges[1:]):
                piece, states = grng_block(states, n_bits, stride, int(hi - lo))
                pieces.append(piece)
            assert np.concatenate(pieces, axis=1).tobytes() == out.tobytes()
            assert states == end
        for row, seed in enumerate(seeds):
            bits, popcounts = oracle_prefix(n_bits, seed, count * stride, False, longest)
            emitted = popcounts[stride - 1 :: stride]
            assert out[row].tobytes() == ((emitted - mean) / std).tobytes(), (stride, row)
            assert end[row] == oracle_state_after(n_bits, seed, bits, False)


@pytest.mark.parametrize("n_bits", native_domain())
def test_native_grng_block_matches_galois_form(native_grng, n_bits):
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[2:5]]
    stride, count = n_bits, 4096 // n_bits * 8
    out, _ = grng_block(seeds, n_bits, stride, count)
    offsets = kernel_offsets(n_bits)
    for row, seed in enumerate(seeds):
        history = history_bits(n_bits, seed, False)
        bits = galois_stream(n_bits, offsets, history, count * stride)
        emitted = stream_popcounts(history, bits, n_bits, stride)
        want = (emitted - n_bits / 2.0) / math.sqrt(n_bits / 4.0)
        assert out[row].tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# reversed retrieval: GrngBank.epsilon_blocks_reverse (jump, then forward)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("n_bits", "rows"),
    [(n_bits, rows) for n_bits in (64, 128, 192, 256) for rows in row_counts(n_bits)],
)
def test_bank_reverse_matches_bit_serial_oracle(n_bits, rows):
    """The long reversed runs: values, end registers, splits."""
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[:rows]]
    longest = max(LONG_COUNTS)
    for stride in (64, n_bits, 2 * n_bits):
        count = min(LONG_COUNTS) // stride - 1
        bank = reverse_bank(seeds, n_bits, stride)
        out = bank.epsilon_blocks_reverse(count)
        end = bank.states()
        for parts in (2, 7):
            pieces, split = [], reverse_bank(seeds, n_bits, stride)
            edges = np.linspace(0, count, parts + 1).astype(int)
            for lo, hi in zip(edges[:-1], edges[1:]):
                pieces.append(split.epsilon_blocks_reverse(int(hi - lo)))
            assert np.concatenate(pieces, axis=1).tobytes() == out.tobytes()
            assert split.states() == end
        for row, seed in enumerate(seeds):
            bits, popcounts = oracle_prefix(n_bits, seed, count * stride, True, longest)
            emitted = popcounts[stride - 1 :: stride]
            assert out[row].tobytes() == reversed_values(seed, emitted, n_bits), (stride, row)
            assert end[row] == oracle_state_after(n_bits, seed, bits, True)


@pytest.mark.parametrize("n_bits", [64, 128, 192, 256])
def test_bank_reverse_matches_galois_form(n_bits):
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[2:5]]
    stride, count = n_bits, 4096 // n_bits * 8
    out = reverse_bank(seeds, n_bits, stride).epsilon_blocks_reverse(count)
    offsets = mirrored_offsets(n_bits, TAP_TABLE[n_bits])
    for row, seed in enumerate(seeds):
        history = history_bits(n_bits, seed, True)
        bits = galois_stream(n_bits, offsets, history, count * stride)
        emitted = stream_popcounts(history, bits, n_bits, stride)
        assert out[row].tobytes() == reversed_values(seed, emitted, n_bits)


# ----------------------------------------------------------------------
# the jump itself, at random widths, taps, strides and distances
# ----------------------------------------------------------------------
@st.composite
def registers(draw, max_bits=200):
    """``(n_bits, taps, seeds)``: any width, any valid taps (tail included)."""
    n_bits = draw(st.integers(min_value=2, max_value=max_bits))
    inner = draw(st.sets(st.integers(min_value=1, max_value=n_bits - 1), min_size=1, max_size=5))
    rows = draw(st.integers(min_value=1, max_value=3))
    seeds = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n_bits) - 1), min_size=rows, max_size=rows)
    )
    return n_bits, tuple(sorted(inner | {n_bits})), seeds


@given(
    register=registers(),
    stride=st.integers(min_value=1, max_value=40),
    count=st.integers(min_value=1, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_bank_reverse_at_random_taps_matches_bit_serial_oracle(register, stride, count):
    n_bits, taps, seeds = register
    bank = reverse_bank(seeds, n_bits, stride, taps)
    out = bank.epsilon_blocks_reverse(count)
    for row, seed in enumerate(seeds):
        lfsr = BitSerialLFSR(n_bits, seed, taps)
        earlier = []
        for _ in range(count):
            for _ in range(stride):
                lfsr.tick_reverse()
            earlier.append(lfsr.popcount())
        want = reversed_values(seed, np.array(earlier), n_bits)
        assert out[row].tobytes() == want
        assert bank.states()[row] == lfsr.state


def rewound(words, n_bits, taps, shifts):
    """The start registers of one ``grng_block`` call rewinding ``shifts``."""
    out = np.empty((len(words), 1), dtype=np.float64)
    _, _, _, start = backend.registry.call(
        "grng_block", words, n_bits, taps, 64, 1, 0.0, 1.0, out, rewind=shifts
    )
    return words if start is None else start


@contextmanager
def grng_backend(which):
    if which == "native":
        require_native()
    with backend.using("grng_block", which):
        yield


@pytest.mark.parametrize("which", ["native", "reference"])
@pytest.mark.parametrize("n_bits", sorted(TAP_TABLE))
def test_rewind_matches_bit_serial_oracle(which, n_bits):
    """At every table width, on both backends: rewinds of 1, n - 1 and n
    (the edges of the jump's window run) and a long one."""
    seeds = [seed % (1 << n_bits) | 1 for seed in SEEDS_256[:3]]
    words = to_words(seeds, n_bits)
    with grng_backend(which):
        before = native_calls()
        for shifts in (1, n_bits - 1, n_bits, 5 * n_bits + 3):
            start = rewound(words, n_bits, kernel_offsets(n_bits), shifts)
            for row, seed in enumerate(seeds):
                lfsr = BitSerialLFSR(n_bits, seed)
                for _ in range(shifts):
                    lfsr.tick_reverse()
                assert from_words(start[row : row + 1])[0] == lfsr.state, shifts
        if which == "native" and n_bits in native_domain():
            assert native_calls() == before + 4, "a rewind fell through to NumPy"


@pytest.mark.parametrize("which", ["native", "reference"])
@given(register=registers(max_bits=300), shifts=st.integers(min_value=0, max_value=1 << 20))
@settings(max_examples=25, deadline=None)
def test_jump_back_then_forward_is_the_identity(which, register, shifts):
    n_bits, taps, seeds = register
    words = to_words(seeds, n_bits)
    with grng_backend(which):
        earlier = rewound(words, n_bits, taps, shifts)
    if shifts <= 3000:
        for row, seed in enumerate(seeds):
            lfsr = BitSerialLFSR(n_bits, seed, taps)
            for _ in range(shifts):
                lfsr.tick_reverse()
            assert from_words(earlier[row : row + 1])[0] == lfsr.state
    if shifts:
        _, landed = backend.lfsr_step_block(earlier, n_bits, shifts, taps)
        earlier = landed
    assert from_words(earlier) == list(seeds)


@pytest.mark.parametrize("n_bits", [128, 192, 256])
@given(
    rows=st.integers(min_value=1, max_value=9),
    count=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
)
@settings(max_examples=15, deadline=None)
def test_native_replay_lands_where_its_rewind_started(n_bits, rows, count, seed):
    """A rewind of ``count * stride`` then ``count`` values land on the
    registers the call started from, with the reference's start registers,
    values and weights."""
    require_native()
    rng = np.random.default_rng(seed)
    words = to_words([int(v) | 1 for v in rng.integers(1, 1 << 63, size=rows)], n_bits)
    mu, sigma = rng.standard_normal(count), rng.random(count)
    results = {}
    for which in ("native", "reference"):
        with backend.using("grng_block", which):
            out, w_out = np.empty((rows, count)), np.empty((rows, count))
            results[which] = backend.registry.call(
                "grng_block", words, n_bits, kernel_offsets(n_bits), n_bits,
                count, 0.0, 1.0, out, mu=mu, sigma=sigma, w_out=w_out,
                rewind=count * n_bits,
            )
    n_out, n_end, n_w, n_start = results["native"]
    r_out, r_end, r_w, r_start = results["reference"]
    assert np.array_equal(n_end, words) and np.array_equal(r_end, words)
    assert np.array_equal(n_start, r_start)
    assert n_out.tobytes() == r_out.tobytes() and n_w.tobytes() == r_w.tobytes()


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
        values, _ = grng_block(states, 128, stride, count, mean, std)
    with backend.using("grng_block", "reference"):
        # popcounts from the NumPy chain at mean 0 / std 1, then NumPy's own divide
        raw, _ = grng_block(states, 128, stride, count, 0.0, 1.0)
    assert values.tobytes() == ((raw.astype(np.int64) - mean) / std).tobytes()


# ----------------------------------------------------------------------
# the two forward bodies of the compiled kernel: vector lanes vs rows
# ----------------------------------------------------------------------
def forward_body(
    function, state, shifts, stride_words, count, mean, std, mu=None, sigma=None,
    epsilons=True, jump=None,
):
    """One body's (status, epsilons, end state, weights, start state) bytes.

    ``epsilons=False`` passes ``out=NULL`` (the weights-only mode of every
    reversible forward call); ``jump`` (packed ``x^-N mod P``) rewinds
    first; absent outputs read ``None``.
    """
    rows, n_words = state.shape
    new_state = np.empty_like(state)
    out = np.empty((rows, count), dtype=np.float64) if epsilons else None
    weights = None if mu is None else np.empty((rows, count), dtype=np.float64)
    start = None if jump is None else np.empty_like(state)
    table = np.array(shifts, dtype=np.int32)

    def address(array):
        return None if array is None else array.ctypes.data

    status = function(
        state.ctypes.data, new_state.ctypes.data, rows, n_words, table.ctypes.data,
        stride_words, count, mean, std, address(out), address(mu), address(sigma),
        address(weights), address(jump), address(start),
    )
    return status, *(
        None if array is None else array.tobytes()
        for array in (out, new_state, weights, start)
    )


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

    Output and end state, at every row count -- multiples of
    eight, the part-filled groups whose spare lanes run a dropped duplicate,
    and the lone last row the lanes leave to the row body -- every width and
    stride, any three in-word taps, column counts on and off the lanes'
    eight-column tiles; with and without fused weights, and weights alone.
    A negative sigma anywhere stops both bodies with -2 (their outputs are
    then unspecified, so only the status is compared).
    """
    require_native()
    lib = native.library.load()
    if lib.grng_lane_width() != 8:
        pytest.skip(
            "this CPU lacks AVX-512F/DQ + VPOPCNTDQ + VBMI2: only the row body runs"
        )
    n_words, stride_words = geometry
    state = np.random.default_rng(seed).integers(
        0, 1 << 64, size=(rows, n_words), dtype=np.uint64
    )
    mean, std = n_words * 32.0, math.sqrt(n_words * 16.0)
    args = (state, shifts, stride_words, count, mean, std)
    lanes = forward_body(lib.grng_forward, *args)
    assert lanes[0] == 0
    assert lanes == forward_body(lib.grng_forward_rows, *args)
    # fused sampling: the weights too, one broadcast (mu, sigma) per column
    values = np.random.default_rng(seed + 1)
    mu, sigma = values.standard_normal(count), values.random(count)
    fused = forward_body(lib.grng_forward, *args, mu, sigma)
    assert fused[:3] == lanes[:3]
    assert fused == forward_body(lib.grng_forward_rows, *args, mu, sigma)
    # weights alone (out=NULL): the same weights and state
    alone = forward_body(lib.grng_forward, *args, mu, sigma, epsilons=False)
    assert alone == (0, None, *fused[2:])
    assert alone == forward_body(lib.grng_forward_rows, *args, mu, sigma, epsilons=False)
    # a jump back first (any polynomial: the bodies apply the same one), the
    # replay runs from the start registers it writes
    jump = values.integers(0, 1 << 64, size=n_words, dtype=np.uint64)
    rewound = forward_body(lib.grng_forward, *args, mu, sigma, jump=jump)
    assert rewound[0] == 0
    assert rewound == forward_body(lib.grng_forward_rows, *args, mu, sigma, jump=jump)
    start = np.frombuffer(rewound[4], dtype=np.uint64).reshape(state.shape)
    assert rewound[:4] == forward_body(lib.grng_forward, start, *args[1:], mu, sigma)[:4]
    # a negative sigma -- mid-tile in the last full tile, or anywhere in a
    # call too short for one -- refuses the whole call
    sigma[count // 8 * 8 - 5 if count >= 8 else values.integers(count)] = -0.5
    for epsilons in (True, False):
        for function in (lib.grng_forward, lib.grng_forward_rows):
            refused = forward_body(function, *args, mu, sigma, epsilons=epsilons)
            assert refused[0] == -2


# ----------------------------------------------------------------------
# GrngBank: forward -> replay -> reversed retrieval
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("n_bits", "stride", "which"),
    [
        (256, 256, "native"),
        (256, 256, "reference"),
        (256, 1, "reference"),  # dense emission: outside native's domain
        (192, 192, "native"),
        (128, 64, "native"),
        (64, 64, "native"),  # outside native's domain: falls through to NumPy
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
    start_words = bank.register_words()
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

    weights, replayed, _, landed = bank.replay_weight_blocks(
        start_words, np.zeros(count), np.ones(count)
    )
    assert replayed.tobytes() == want.tobytes()
    assert weights.tobytes() == want.tobytes()  # 0 + eps * 1
    assert np.array_equal(landed, bank.register_words())
    assert bank.states() == end

    # Retrieval is newest first and starts with the variable just emitted.
    retrieved = bank.epsilon_blocks_reverse(count)
    assert retrieved.tobytes() == np.ascontiguousarray(want[:, ::-1]).tobytes()
    assert bank.states() == start


# ----------------------------------------------------------------------
# GrngBank against the oracle generator at every table width
# ----------------------------------------------------------------------
@pytest.mark.parametrize("which", ["native", "reference"])
@pytest.mark.parametrize("n_bits", sorted(TAP_TABLE))
def test_bank_matches_oracle_generator_at_every_width(which, n_bits):
    """Forward values, the forward -> replay -> reversed retrieval round trip,
    a retrieval past the start and a one-row call that leaves the other row
    alone, against :class:`oracle.OracleGRNG`, on both ``grng_block``
    backends."""
    seeds, count = (3, 11), 24
    with grng_backend(which):
        before = native_calls()
        bank = GrngBank(seed_indices=seeds, n_bits=n_bits, stride=n_bits)
        oracles = [OracleGRNG(n_bits, seed, n_bits) for seed in seeds]
        start = bank.register_words()
        forward = bank.epsilon_blocks(count)
        for row, oracle in enumerate(oracles):
            assert forward[row].tobytes() == oracle.epsilon_block(count).tobytes()
        assert bank.states() == [oracle.state for oracle in oracles]
        _, replayed, _, landed = bank.replay_weight_blocks(
            start, np.zeros(count), np.ones(count)
        )
        assert replayed.tobytes() == forward.tobytes()
        assert np.array_equal(landed, bank.register_words())
        back = bank.epsilon_blocks_reverse(count + 3)
        for row, oracle in enumerate(oracles):
            assert back[row].tobytes() == oracle.epsilon_block_reverse(count + 3).tobytes()
        assert bank.states() == [oracle.state for oracle in oracles]
        # a one-row call moves its row alone
        other = bank.states()[1]
        alone = bank.row_bank(0).epsilon_blocks(count)
        assert alone[0].tobytes() == oracles[0].epsilon_block(count).tobytes()
        assert bank.states() == [oracles[0].state, other]
        if which == "native" and n_bits in native_domain():
            assert native_calls() == before + 4, "a call fell through to NumPy"
