"""Unit tests for the Fibonacci LFSR and its reversed shifting."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.backend as backend
from repro.core import MAXIMAL_TAPS, FibonacciLFSR, LFSRStateError, mirrored_taps, parity
from repro.core.backend import lfsr_step_block
from repro.core.bitops import pack_int_rows, unpack_int_rows


class TestConstruction:
    def test_default_taps_from_table(self):
        lfsr = FibonacciLFSR(8, seed=0b1011)
        assert lfsr.taps == tuple(sorted(MAXIMAL_TAPS[8]))

    def test_explicit_taps(self):
        lfsr = FibonacciLFSR(6, seed=1, taps=(6, 5))
        assert lfsr.taps == (5, 6)

    def test_unknown_width_without_taps_rejected(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(7, seed=1)

    def test_zero_seed_rejected(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(8, seed=0)

    def test_oversized_seed_rejected(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(8, seed=1 << 9)

    def test_negative_seed_rejected(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(8, seed=-3)

    def test_taps_must_include_tail(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(8, seed=1, taps=(3, 5))

    def test_taps_must_have_two_entries(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(8, seed=1, taps=(8,))

    def test_tap_positions_one_based(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(8, seed=1, taps=(0, 8))

    def test_minimum_width(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR(1, seed=1, taps=(1,))

    def test_state_setter_validates_type(self):
        lfsr = FibonacciLFSR(8, seed=3)
        with pytest.raises(LFSRStateError):
            lfsr.state = "nope"  # type: ignore[assignment]

    def test_from_seed_index_is_deterministic_and_distinct(self):
        a = FibonacciLFSR.from_seed_index(256, 5)
        b = FibonacciLFSR.from_seed_index(256, 5)
        c = FibonacciLFSR.from_seed_index(256, 6)
        assert a.state == b.state
        assert a.state != c.state

    def test_from_seed_index_never_zero(self):
        for index in range(64):
            assert FibonacciLFSR.from_seed_index(16, index).state != 0

    def test_from_seed_index_negative_rejected(self):
        with pytest.raises(LFSRStateError):
            FibonacciLFSR.from_seed_index(16, -1)


class TestShifting:
    def test_forward_matches_paper_example_structure(self):
        # Fig. 4(a): the new head bit is the XOR of the taps of the old state.
        lfsr = FibonacciLFSR(8, seed=0b11110000)
        old_bits = lfsr.state_bits()
        expected = int(old_bits[3] ^ old_bits[4] ^ old_bits[5] ^ old_bits[7])
        head = lfsr.shift_forward()
        assert head == expected
        new_bits = lfsr.state_bits()
        assert new_bits[0] == expected
        assert np.array_equal(new_bits[1:], old_bits[:-1])

    def test_reverse_recovers_previous_pattern(self):
        lfsr = FibonacciLFSR(8, seed=0b10110101)
        before = lfsr.state
        lfsr.shift_forward()
        lfsr.shift_reverse()
        assert lfsr.state == before

    def test_many_forward_then_reverse_restores_state(self):
        lfsr = FibonacciLFSR(16, seed=0xBEEF)
        start = lfsr.state
        for _ in range(500):
            lfsr.shift_forward()
        for _ in range(500):
            lfsr.shift_reverse()
        assert lfsr.state == start
        assert lfsr.shift_count == 0

    def test_shift_count_tracks_direction(self):
        lfsr = FibonacciLFSR(8, seed=7)
        lfsr.shift_forward()
        lfsr.shift_forward()
        lfsr.shift_reverse()
        assert lfsr.shift_count == 1

    def test_maximal_length_period_8bit(self):
        lfsr = FibonacciLFSR(8, seed=1)
        seen = {lfsr.state}
        for _ in range(2**8 - 2):
            lfsr.shift_forward()
            seen.add(lfsr.state)
        assert len(seen) == 2**8 - 1  # all non-zero patterns
        lfsr.shift_forward()
        assert lfsr.state == 1  # back to the seed after the full period

    def test_never_reaches_zero_state(self):
        lfsr = FibonacciLFSR(8, seed=0b1000_0000)
        for _ in range(300):
            lfsr.shift_forward()
            assert lfsr.state != 0


class TestVectorisedGeneration:
    @pytest.mark.parametrize("n_bits", [8, 16, 32, 256])
    def test_generate_bits_matches_stepwise(self, n_bits):
        seed = 0xACE1 % (1 << n_bits) or 1
        fast = FibonacciLFSR(n_bits, seed=seed)
        slow = fast.copy()
        block = fast.generate_bits(300)
        stepwise = np.array([slow.shift_forward() for _ in range(300)], dtype=np.uint8)
        assert np.array_equal(block, stepwise)
        assert fast.state == slow.state

    @pytest.mark.parametrize("n_bits", [8, 16, 256])
    def test_generate_bits_reverse_matches_stepwise(self, n_bits):
        seed = 0x1D872 % (1 << n_bits) or 1
        lfsr = FibonacciLFSR(n_bits, seed=seed)
        lfsr.generate_bits(400)
        fast = lfsr.copy()
        slow = lfsr.copy()
        block = fast.generate_bits_reverse(350)
        stepwise = np.array([slow.shift_reverse() for _ in range(350)], dtype=np.uint8)
        assert np.array_equal(block, stepwise)
        assert fast.state == slow.state

    def test_generate_zero_bits(self):
        lfsr = FibonacciLFSR(8, seed=5)
        state = lfsr.state
        assert lfsr.generate_bits(0).size == 0
        assert lfsr.generate_bits_reverse(0).size == 0
        assert lfsr.state == state

    def test_generate_negative_rejected(self):
        lfsr = FibonacciLFSR(8, seed=5)
        with pytest.raises(ValueError):
            lfsr.generate_bits(-1)
        with pytest.raises(ValueError):
            lfsr.generate_bits_reverse(-1)

    def test_shift_by_helpers(self):
        lfsr = FibonacciLFSR(16, seed=77)
        reference = lfsr.copy()
        lfsr.shift_forward_by(123)
        for _ in range(123):
            reference.shift_forward()
        assert lfsr.state == reference.state
        lfsr.shift_reverse_by(123)
        for _ in range(123):
            reference.shift_reverse()
        assert lfsr.state == reference.state

    def test_window_popcounts_match_stepwise_popcount(self):
        lfsr = FibonacciLFSR(16, seed=0x5A5A)
        reference = lfsr.copy()
        counts = lfsr.window_popcounts(64)
        expected = []
        for _ in range(64):
            reference.shift_forward()
            expected.append(reference.popcount)
        assert np.array_equal(counts, np.array(expected))
        assert lfsr.state == reference.state

    def test_window_popcounts_beyond_register_width(self):
        lfsr = FibonacciLFSR(8, seed=0x35)
        reference = lfsr.copy()
        counts = lfsr.window_popcounts(40)
        expected = []
        for _ in range(40):
            reference.shift_forward()
            expected.append(reference.popcount)
        assert np.array_equal(counts, np.array(expected))


    def test_long_block_equals_chunked_generation(self):
        whole = FibonacciLFSR(256, seed=0xDEADBEEF)
        chunked = whole.copy()
        block = whole.generate_bits(50_000)
        pieces = [chunked.generate_bits(n) for n in (1, 20_000, 29_999)]
        assert np.array_equal(block, np.concatenate(pieces))
        assert whole.state == chunked.state

    def test_long_reverse_block_rewinds_the_register(self):
        lfsr = FibonacciLFSR(256, seed=0xDEADBEEF)
        start = lfsr.state
        block = lfsr.generate_bits(50_000)
        lfsr.generate_bits_reverse(50_000)
        assert lfsr.state == start
        assert np.array_equal(lfsr.generate_bits(50_000), block)


class TestHelpers:
    def test_parity(self):
        assert parity(0) == 0
        assert parity(0b1011) == 1
        assert parity(0b1111) == 0

    def test_parity_rejects_negative(self):
        with pytest.raises(ValueError):
            parity(-1)

    def test_mirrored_taps_256(self):
        assert mirrored_taps(256, (246, 251, 254, 256)) == (2, 5, 10, 256)

    def test_mirrored_taps_requires_tail(self):
        with pytest.raises(LFSRStateError):
            mirrored_taps(8, (4, 5))

    def test_state_bits_roundtrip(self):
        lfsr = FibonacciLFSR(8, seed=0b1010_0110)
        bits = lfsr.state_bits()
        reconstructed = sum(int(bit) << index for index, bit in enumerate(bits))
        assert reconstructed == lfsr.state

    def test_copy_is_independent(self):
        lfsr = FibonacciLFSR(8, seed=9)
        clone = lfsr.copy()
        lfsr.shift_forward()
        assert clone.state != lfsr.state or clone.shift_count != lfsr.shift_count

    def test_equality_and_hash(self):
        a = FibonacciLFSR(8, seed=9)
        b = FibonacciLFSR(8, seed=9)
        assert a == b
        with pytest.raises(TypeError):
            hash(a)

    def test_repr_mentions_state(self):
        lfsr = FibonacciLFSR(8, seed=9)
        assert "FibonacciLFSR" in repr(lfsr)
        assert "0x9" in repr(lfsr)

    def test_popcount_property(self):
        lfsr = FibonacciLFSR(8, seed=0b1110_0001)
        assert lfsr.popcount == 4


def _rewind(states: list[int], n_bits: int, shifts: int, taps=None, count: int = 1):
    """``(start, end)`` registers of one ``grng_block`` call that jumps back
    ``shifts`` shifts, then runs ``count`` values of 64 shifts forward."""
    taps = tuple(sorted(MAXIMAL_TAPS[n_bits])) if taps is None else taps
    words = pack_int_rows(states, n_bits)
    out = np.empty((len(states), count), dtype=np.float64)
    _, end, _, _, start = backend.registry.call(
        "grng_block", words, n_bits, taps, 64, count, 0.0, 1.0, out, rewind=shifts
    )
    return unpack_int_rows(start), unpack_int_rows(end)


def _jump(states: list[int], n_bits: int, shifts: int, taps=None) -> list[int]:
    """Integer registers ``shifts`` shifts back, through ``grng_block``'s rewind."""
    return _rewind(states, n_bits, shifts, taps)[0]


def _walked_back(state: int, n_bits: int, shifts: int) -> int:
    lfsr = FibonacciLFSR(n_bits, seed=state)
    lfsr.shift_reverse_by(shifts)
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
        states = [
            FibonacciLFSR.from_seed_index(n_bits, index).state for index in range(3)
        ]
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
        _, earlier = lfsr_step_block(earlier, 64, shifts, taps, False)
        assert unpack_int_rows(earlier) == states

    @pytest.mark.parametrize("n_bits", [128, 256])
    def test_the_replay_lands_on_the_registers_it_jumped_from(self, grng, n_bits):
        states = [FibonacciLFSR.from_seed_index(n_bits, index).state for index in range(9)]
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
        states = [FibonacciLFSR.from_seed_index(256, index).state for index in range(8)]
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
        _rewind([FibonacciLFSR.from_seed_index(256, 5).state], 256, 4321, count=3)
        counters = backend.counters_snapshot()
        assert counters["grng_block"] == {grng: {"calls": 1, "rows": 1}}
        # the compiled jump runs no NumPy register; the reference's is one
        # short forward run, its replay another
        stepped = counters.get("lfsr_step_block", {}).get("reference", {})
        assert stepped.get("calls", 0) == (0 if grng == "native" else 2)
