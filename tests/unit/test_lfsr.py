"""Unit tests for the LFSR parameters and the bank's registers.

Taps, seeds and register validation come from :mod:`repro.core.lfsr`; every
shift runs in :class:`~repro.core.GrngBank`, held here to the from-scratch
bit-serial register of ``tests/oracle``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.backend as backend
from oracle import TAP_TABLE, BitSerialLFSR, clt, is_primitive, seed_for_index, to_words
from repro.core import GrngBank, LFSRStateError, MAXIMAL_TAPS, normalise_taps, seed_from_index
from repro.core.backend import lfsr_step_block
from repro.core.bitops import pack_int_rows, unpack_int_rows


def one_row(n_bits: int, state: int) -> GrngBank:
    """A one-row stride-1 bank whose register holds ``state``."""
    bank = GrngBank(1, n_bits=n_bits)
    bank.set_states([state])
    return bank


def assert_rejected(state: int) -> None:
    """An 8-bit register refuses ``state``, through the bank and its one-row bank."""
    bank = GrngBank(1, n_bits=8)
    with pytest.raises(LFSRStateError):
        bank.set_states([state])
    with pytest.raises(LFSRStateError):
        bank.row_bank(0).set_states([state])


def shifted(bank: GrngBank, shifts: int) -> None:
    """Advance a stride-1 bank ``shifts`` patterns."""
    if shifts:
        bank.epsilon_blocks(shifts)


class TestTapTable:
    def test_table_is_the_oracles(self):
        assert {n: tuple(sorted(t)) for n, t in MAXIMAL_TAPS.items()} == {
            n: tuple(sorted(t)) for n, t in TAP_TABLE.items()
        }

    @pytest.mark.parametrize("n_bits", sorted(MAXIMAL_TAPS))
    def test_every_width_has_maximal_period(self, n_bits):
        # the feedback polynomial has order 2**n - 1: one cycle through
        # every non-zero register
        assert is_primitive(n_bits, MAXIMAL_TAPS[n_bits])

    @pytest.mark.parametrize(("n_bits", "taps"), [(8, (8, 4)), (4, (4, 2)), (16, (16, 8))])
    def test_the_period_check_rejects_short_cycles(self, n_bits, taps):
        assert not is_primitive(n_bits, taps)


class TestConstruction:
    def test_default_taps_from_table(self):
        assert GrngBank(1, n_bits=8).taps == tuple(sorted(MAXIMAL_TAPS[8]))

    def test_explicit_taps(self):
        assert normalise_taps(6, (6, 5)) == (5, 6)
        assert GrngBank(1, n_bits=6, taps=(6, 5)).taps == (5, 6)

    def test_unknown_width_without_taps_rejected(self):
        with pytest.raises(LFSRStateError):
            normalise_taps(7, None)

    def test_zero_seed_rejected(self):
        assert_rejected(0)

    def test_oversized_seed_rejected(self):
        assert_rejected(1 << 9)

    def test_negative_seed_rejected(self):
        assert_rejected(-3)

    def test_taps_must_include_tail(self):
        with pytest.raises(LFSRStateError):
            normalise_taps(8, (3, 5))

    def test_taps_must_have_two_entries(self):
        with pytest.raises(LFSRStateError):
            normalise_taps(8, (8,))

    def test_tap_positions_one_based(self):
        with pytest.raises(LFSRStateError):
            normalise_taps(8, (0, 8))

    def test_minimum_width(self):
        with pytest.raises(LFSRStateError):
            normalise_taps(1, (1,))

    @pytest.mark.parametrize("bad", ["nope", 37.9, 37.0, None])
    def test_state_setter_validates_type(self, bad):
        bank = GrngBank(1, n_bits=8)
        before = bank.states()
        with pytest.raises(LFSRStateError, match="must be an integer"):
            bank.row_bank(0).set_states([bad])  # type: ignore[list-item]
        assert bank.states() == before

    def test_state_setter_takes_numpy_integers(self):
        bank = GrngBank(1, n_bits=8)
        bank.set_states([np.uint64(0xA5)])
        assert bank.states() == [0xA5]

    @pytest.mark.parametrize("n_bits", sorted(MAXIMAL_TAPS))
    def test_seeds_are_the_oracles_splitmix(self, n_bits):
        for index in (0, 1, 2, 7, 1023, 1 << 40):
            assert seed_from_index(n_bits, index) == seed_for_index(n_bits, index)

    def test_from_seed_index_is_deterministic_and_distinct(self):
        assert seed_from_index(256, 5) == seed_from_index(256, 5)
        assert seed_from_index(256, 5) != seed_from_index(256, 6)

    def test_from_seed_index_never_zero(self):
        for index in range(64):
            assert seed_from_index(16, index) != 0

    def test_from_seed_index_negative_rejected(self):
        with pytest.raises(LFSRStateError):
            seed_from_index(16, -1)


class TestShifting:
    def test_forward_matches_paper_example_structure(self):
        # Fig. 4(a): the new head bit is the XOR of the taps of the old state.
        seed = 0b11110000
        bank = one_row(8, seed)
        old = [(seed >> j) & 1 for j in range(8)]
        expected = old[3] ^ old[4] ^ old[5] ^ old[7]
        shifted(bank, 1)
        (state,) = bank.states()
        assert state & 1 == expected
        assert [(state >> j) & 1 for j in range(1, 8)] == old[:-1]

    def test_reverse_recovers_previous_pattern(self):
        bank = one_row(8, 0b10110101)
        shifted(bank, 1)
        bank.epsilon_blocks_reverse(1)
        assert bank.states() == [0b10110101]

    def test_many_forward_then_reverse_restores_state(self):
        bank = one_row(16, 0xBEEF)
        shifted(bank, 500)
        bank.epsilon_blocks_reverse(500)
        assert bank.states() == [0xBEEF]

    @pytest.mark.parametrize("n_bits", [4, 8, 16])
    def test_maximal_length_period(self, n_bits):
        # back to the seed after 2**n - 1 shifts, and after no proper divisor
        # of it (3, 5, 17 and 257 are all the primes dividing these periods)
        period = (1 << n_bits) - 1
        for prime in (3, 5, 17, 257):
            if period % prime == 0:
                bank = one_row(n_bits, 1)
                shifted(bank, period // prime)
                assert bank.states() != [1], prime
        bank = one_row(n_bits, 1)
        shifted(bank, period)
        assert bank.states() == [1]

    def test_never_reaches_zero_state(self):
        bank = one_row(8, 0b1000_0000)
        for _ in range(300):
            shifted(bank, 1)
            assert bank.states() != [0]


class TestVectorisedGeneration:
    def test_window_popcounts_match_stepwise_popcount(self):
        bank = one_row(16, 0x5A5A)
        reference = BitSerialLFSR(16, 0x5A5A)
        expected = []
        for _ in range(64):
            reference.tick_forward()
            expected.append(reference.popcount())
        assert bank.epsilon_blocks(64)[0].tobytes() == clt(expected, 16).tobytes()
        assert bank.states() == [reference.state]

    def test_window_popcounts_beyond_register_width(self):
        bank = one_row(8, 0x35)
        reference = BitSerialLFSR(8, 0x35)
        expected = []
        for _ in range(40):
            reference.tick_forward()
            expected.append(reference.popcount())
        assert bank.epsilon_blocks(40)[0].tobytes() == clt(expected, 8).tobytes()

    def test_long_block_equals_chunked_generation(self):
        whole = one_row(256, 0xDEADBEEF)
        chunked = one_row(256, 0xDEADBEEF)
        block = whole.epsilon_blocks(50_000)
        pieces = [chunked.epsilon_blocks(n) for n in (1, 20_000, 29_999)]
        assert np.array_equal(block, np.concatenate(pieces, axis=1))
        assert whole.states() == chunked.states()

    def test_long_reverse_block_rewinds_the_register(self):
        bank = one_row(256, 0xDEADBEEF)
        block = bank.epsilon_blocks(50_000)
        bank.epsilon_blocks_reverse(50_000)
        assert bank.states() == [0xDEADBEEF]
        assert np.array_equal(bank.epsilon_blocks(50_000), block)


class TestHelpers:
    def test_state_bits_roundtrip(self):
        # bit j of a register is R(j+1), packed little-endian into words
        states = [0b1010_0110, 0x8001, 0xFFFF]
        bank = GrngBank(3, n_bits=16)
        bank.set_states(states)
        assert np.array_equal(bank.register_words(), to_words(states, 16))
        assert [bank.row_bank(i).states()[0] for i in range(3)] == states

    def test_popcount_property(self):
        # a retrieval's first value is the popcount of the register itself
        bank = one_row(8, 0b1110_0011)
        assert bank.epsilon_blocks_reverse(1).tobytes() == clt([5], 8).tobytes()


def _rewind(states: list[int], n_bits: int, shifts: int, taps=None, count: int = 1):
    """``(start, end)`` registers of one ``grng_block`` call that jumps back
    ``shifts`` shifts, then runs ``count`` values of 64 shifts forward."""
    taps = tuple(sorted(MAXIMAL_TAPS[n_bits])) if taps is None else taps
    words = pack_int_rows(states, n_bits)
    out = np.empty((len(states), count), dtype=np.float64)
    _, end, _, start = backend.registry.call(
        "grng_block", words, n_bits, taps, 64, count, 0.0, 1.0, out, rewind=shifts
    )
    return unpack_int_rows(start), unpack_int_rows(end)


def _jump(states: list[int], n_bits: int, shifts: int, taps=None) -> list[int]:
    """Integer registers ``shifts`` shifts back, through ``grng_block``'s rewind."""
    return _rewind(states, n_bits, shifts, taps)[0]


def _walked_back(state: int, n_bits: int, shifts: int) -> int:
    lfsr = BitSerialLFSR(n_bits, state)
    for _ in range(shifts):
        lfsr.tick_reverse()
    return lfsr.state


@pytest.fixture(params=["native", "reference"])
def grng(request, restore_selection):
    """``grng_block`` forced onto each backend (native skips when unavailable)."""
    if request.param == "native" and backend.native.library.load() is None:
        pytest.skip("the compiled grng_block is unavailable here")
    backend.set_backend("grng_block", request.param)
    return request.param


class TestRegisterJump:
    """The register ``N`` shifts back: ``grng_block``'s rewind, on both backends."""

    @pytest.mark.parametrize("n_bits", sorted(MAXIMAL_TAPS))
    def test_jump_equals_walking_back(self, grng, n_bits):
        states = [seed_from_index(n_bits, index) for index in range(3)]
        for shifts in (1, n_bits - 1, n_bits, 3 * n_bits + 5):
            assert _jump(states, n_bits, shifts) == [
                _walked_back(state, n_bits, shifts) for state in states
            ], shifts

    @pytest.mark.parametrize("shifts", [1, 63, 64, 65, 1 << 20])
    def test_jump_then_forward_lands_where_it_started(self, grng, shifts):
        taps = tuple(sorted(MAXIMAL_TAPS[64]))
        states = [0xACE1, (1 << 64) - 1, 1 << 63]
        earlier = pack_int_rows(_jump(states, 64, shifts), 64)
        if shifts <= 65:
            assert unpack_int_rows(earlier) == [
                _walked_back(state, 64, shifts) for state in states
            ]
        _, earlier = lfsr_step_block(earlier, 64, shifts, taps)
        assert unpack_int_rows(earlier) == states

    @pytest.mark.parametrize("n_bits", [128, 256])
    def test_the_replay_lands_on_the_registers_it_jumped_from(self, grng, n_bits):
        states = [seed_from_index(n_bits, index) for index in range(9)]
        start, end = _rewind(states, n_bits, 40 * 64, count=40)
        assert end == states
        assert start == _jump(states, n_bits, 40 * 64)

    def test_jump_is_linear(self, grng):
        a, b = 0x9E3779B97F4A7C15 ** 3 % (1 << 256), (1 << 255) | 0x5A5A
        jumped_a, jumped_b, jumped_ab = _jump([a, b, a ^ b], 256, 1000)
        assert jumped_ab == jumped_a ^ jumped_b

    @pytest.mark.parametrize(("first", "second"), [(1, 1), (255, 257), (4096, 77)])
    def test_jumps_compose(self, grng, first, second):
        states = [0xDEADBEEF, (1 << 256) - 3]
        twice = _jump(_jump(states, 256, first), 256, second)
        assert twice == _jump(states, 256, first + second)

    def test_all_ones_register_is_exact(self, grng):
        # every window of the forward run XORs in set bits
        full = (1 << 256) - 1
        assert _jump([full], 256, 10_000) == [_walked_back(full, 256, 10_000)]

    def test_rows_jump_independently(self, grng):
        states = [seed_from_index(256, index) for index in range(8)]
        together = _jump(states, 256, 2048)
        assert together == [_jump([state], 256, 2048)[0] for state in states]
        states[3] ^= 1 << 100
        changed = _jump(states, 256, 2048)
        assert [row for row in range(8) if changed[row] != together[row]] == [3]

    def test_tap_order_does_not_matter(self, grng):
        taps = tuple(sorted(MAXIMAL_TAPS[128]))
        state = [0x1D872B41]
        assert _jump(state, 128, 999, taps) == _jump(state, 128, 999, taps[::-1])

    def test_native_rewinds_in_the_call_it_replays_in(self, grng):
        backend.reset_counters()
        _rewind([seed_from_index(256, 5)], 256, 4321, count=3)
        counters = backend.counters_snapshot()
        assert counters["grng_block"] == {grng: {"calls": 1, "rows": 1}}
        # the compiled jump runs no NumPy register; the reference's is one
        # short forward run, its replay another
        stepped = counters.get("lfsr_step_block", {}).get("reference", {})
        assert stepped.get("calls", 0) == (0 if grng == "native" else 2)
