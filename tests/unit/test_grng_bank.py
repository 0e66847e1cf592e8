"""Unit tests for the batched GRNG bank and its scalar-compatible row views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FibonacciLFSR,
    GrngBank,
    LFSRStateError,
    LfsrGaussianRNG,
    ReplayError,
)


def make_scalars(n_rows: int, n_bits: int = 64, stride: int = 4):
    return [
        LfsrGaussianRNG(n_bits=n_bits, seed_index=i, stride=stride)
        for i in range(n_rows)
    ]


class TestConstruction:
    def test_requires_rows(self):
        with pytest.raises(ValueError):
            GrngBank(0)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            GrngBank(2, stride=0)

    def test_empty_seed_indices_rejected(self):
        with pytest.raises(ValueError):
            GrngBank(seed_indices=[])

    def test_unknown_width_without_taps_rejected(self):
        with pytest.raises(LFSRStateError):
            GrngBank(1, n_bits=7)

    def test_seed_indices_override_n_rows(self):
        bank = GrngBank(seed_indices=[5, 9, 11], n_bits=64)
        assert bank.n_rows == 3

    @pytest.mark.parametrize("n_bits", [16, 64, 256])
    def test_seeds_match_scalar_seeding(self, n_bits):
        bank = GrngBank(seed_indices=[0, 3, 7, 500], n_bits=n_bits)
        scalars = [FibonacciLFSR.from_seed_index(n_bits, i) for i in (0, 3, 7, 500)]
        assert bank.states() == [lfsr.state for lfsr in scalars]
        for row, lfsr in enumerate(scalars):
            assert bank.row_view(row).sum_register == lfsr.popcount

    def test_properties(self):
        bank = GrngBank(2, n_bits=64, stride=8)
        assert bank.n_bits == 64
        assert bank.stride == 8
        assert bank.taps == FibonacciLFSR(64, seed=1).taps


class TestStates:
    def test_set_states_validates(self):
        bank = GrngBank(2, n_bits=8)
        before = bank.states()
        with pytest.raises(ValueError, match="expected 2 states"):
            bank.set_states([1])
        for bad in ([5, 0], [5, 1 << 8], [5, -3]):
            with pytest.raises(LFSRStateError):
                bank.set_states(bad)
        with pytest.raises(ValueError):
            bank.set_states([5, "nope"])  # type: ignore[list-item]
        assert bank.states() == before

    def test_view_state_write_validates(self):
        view = GrngBank(1, n_bits=8).row_view(0)
        for bad in (0, 1 << 8, "nope"):
            with pytest.raises(LFSRStateError):
                view.lfsr.state = bad  # type: ignore[assignment]
        view.lfsr.state = 0xA5
        assert view.lfsr.state == 0xA5

    def test_view_state_write_touches_one_row(self):
        bank = GrngBank(3, n_bits=64)
        before = bank.states()
        bank.row_view(1).lfsr.state = 0xDEADBEEF
        assert bank.states() == [before[0], 0xDEADBEEF, before[2]]


class TestBatchedInterface:
    # Widths off the 64-bit grid run the NumPy path, word-aligned ones the
    # compiled kernel where it is available.
    @pytest.mark.parametrize("n_bits", [8, 16, 24, 64, 128, 256])
    @pytest.mark.parametrize("stride", [1, 4, 64])
    def test_epsilon_blocks_match_scalar(self, n_bits, stride):
        bank = GrngBank(3, n_bits=n_bits, stride=stride)
        scalars = make_scalars(3, n_bits=n_bits, stride=stride)
        block = bank.epsilon_blocks(200)
        reference = np.stack([g.epsilon_block(200) for g in scalars])
        assert np.array_equal(block, reference)
        assert bank.states() == [g.lfsr.state for g in scalars]

    def test_long_block_matches_the_stepwise_register(self):
        # A block much longer than the register crosses many squared-
        # polynomial levels; compare against single hardware shifts.
        bank = GrngBank(seed_indices=[5], n_bits=16)
        reference = FibonacciLFSR.from_seed_index(16, 5)
        popcounts = []
        for _ in range(5000):
            reference.shift_forward()
            popcounts.append(reference.popcount)
        expected = (np.array(popcounts) - 8.0) / 2.0
        assert np.array_equal(bank.epsilon_blocks(5000)[0], expected)
        assert bank.states() == [reference.state]

    @pytest.mark.parametrize("n_bits", [8, 16, 64, 256])
    @pytest.mark.parametrize("stride", [1, 4])
    def test_epsilon_blocks_reverse_match_scalar(self, n_bits, stride):
        bank = GrngBank(3, n_bits=n_bits, stride=stride)
        scalars = make_scalars(3, n_bits=n_bits, stride=stride)
        bank.epsilon_blocks(150)
        for g in scalars:
            g.epsilon_block(150)
        block = bank.epsilon_blocks_reverse(150)
        reference = np.stack([g.epsilon_block_reverse(150) for g in scalars])
        assert np.array_equal(block, reference)
        assert bank.states() == [g.lfsr.state for g in scalars]

    @pytest.mark.parametrize("stride", [1, 3, 64, 256])
    def test_reverse_carries_a_drifted_sum_register_like_the_scalar(self, stride):
        # The sum register steps by (recovered tail - dropped head), so an
        # offset written into it rides along a retrieval unchanged.
        bank = GrngBank(2, n_bits=256, stride=stride)
        scalars = make_scalars(2, n_bits=256, stride=stride)
        bank.epsilon_blocks(40)
        for g in scalars:
            g.epsilon_block(40)
        bank.row_view(1).sum_register += 9
        scalars[1].sum_register += 9
        block = bank.epsilon_blocks_reverse(40)
        reference = np.stack([g.epsilon_block_reverse(40) for g in scalars])
        assert block.tobytes() == reference.tobytes()
        for row, g in enumerate(scalars):
            assert bank.row_view(row).sum_register == g.sum_register
            assert bank.row_view(row).lfsr.state == g.lfsr.state

    def test_empty_blocks(self):
        bank = GrngBank(2, n_bits=64)
        assert bank.epsilon_blocks(0).shape == (2, 0)
        assert bank.epsilon_blocks_reverse(0).shape == (2, 0)

    def test_negative_counts_rejected(self):
        bank = GrngBank(2, n_bits=64)
        with pytest.raises(ValueError):
            bank.epsilon_blocks(-1)
        with pytest.raises(ValueError):
            bank.epsilon_blocks_reverse(-1)


class TestRowViews:
    def test_row_view_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        for row in range(2):
            view = bank.row_view(row)
            assert np.array_equal(view.epsilon_block(50), scalars[row].epsilon_block(50))
            assert view.lfsr.state == scalars[row].lfsr.state
            assert view.sum_register == scalars[row].sum_register
            assert view.n_bits == 64
            assert view.stride == 4

    def test_row_view_bounds_checked(self):
        bank = GrngBank(2, n_bits=64)
        with pytest.raises(IndexError):
            bank.row_view(2)

    def test_stream_replay_round_trip_matches_scalar(self):
        # A checkpoint replay is net-zero register movement on both engines.
        from repro.core import ReversibleGaussianStream

        scalar_stream = ReversibleGaussianStream(make_scalars(1)[0])
        banked_stream = ReversibleGaussianStream(
            GrngBank(1, n_bits=64, stride=4).row_view(0)
        )
        for stream in (scalar_stream, banked_stream):
            stream.forward_block((4,))
            stream.retrieve_block((4,))
            stream.reset_epoch()
        assert banked_stream.grng.lfsr.state == scalar_stream.grng.lfsr.state
        assert banked_stream.grng.sum_register == scalar_stream.grng.sum_register
        assert np.array_equal(
            banked_stream.forward_block((6,)), scalar_stream.forward_block((6,))
        )


class TestRowViewsOutOfPhase:
    """Per-row requests in any order, size or interleaving equal the scalar."""

    def test_trainer_order_matches_scalar(self):
        # Trainer-style access: each row draws the same shapes, one row at a
        # time, so the rows are out of phase between requests.
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        counts = [12, 30, 7]
        got = [[bank.row_view(row).epsilon_block(c) for c in counts] for row in range(3)]
        for row, scalar in enumerate(scalars):
            for block, count in zip(got[row], counts):
                assert np.array_equal(block, scalar.epsilon_block(count))

    def test_mismatched_sizes_across_rows_match_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        a0 = bank.row_view(0).epsilon_block(20)
        a1 = bank.row_view(1).epsilon_block(8)
        assert np.array_equal(a0, scalars[0].epsilon_block(20))
        assert np.array_equal(a1, scalars[1].epsilon_block(8))
        # further draws stay correct for both rows
        assert np.array_equal(
            bank.row_view(1).epsilon_block(5), scalars[1].epsilon_block(5)
        )
        assert np.array_equal(
            bank.row_view(0).epsilon_block(5), scalars[0].epsilon_block(5)
        )

    def test_one_row_request_leaves_other_rows_untouched(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        bank.row_view(0).epsilon_block(25)
        scalars[0].epsilon_block(25)
        assert bank.row_view(1).lfsr.state == scalars[1].lfsr.state
        assert bank.row_view(1).sum_register == scalars[1].sum_register

    def test_external_state_write_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        bank.row_view(0).epsilon_block(10)
        scalars[0].epsilon_block(10)
        new_state = 0x123456789
        bank.row_view(1).lfsr.state = new_state
        scalars[1].lfsr.state = new_state
        bank.row_view(1).resync_sum_register()
        scalars[1].resync_sum_register()
        for row in range(2):
            assert np.array_equal(
                bank.row_view(row).epsilon_block(15), scalars[row].epsilon_block(15)
            )

    def test_reverse_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        for row in range(2):
            bank.row_view(row).epsilon_block(40)
            scalars[row].epsilon_block(40)
        got = [bank.row_view(row).epsilon_block_reverse(40) for row in range(2)]
        for row, scalar in enumerate(scalars):
            assert np.array_equal(got[row], scalar.epsilon_block_reverse(40))

    def test_batched_request_continues_out_of_phase_rows(self):
        # Rows advanced by different per-row requests: one batched call then
        # continues every row from its own register.
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        for row, count in enumerate([5, 0, 17]):
            bank.row_view(row).epsilon_block(count)
            scalars[row].epsilon_block(count)
        forward = bank.epsilon_blocks(11)
        for row, scalar in enumerate(scalars):
            assert np.array_equal(forward[row], scalar.epsilon_block(11))
        back = bank.epsilon_blocks_reverse(6)
        for row, scalar in enumerate(scalars):
            assert np.array_equal(back[row], scalar.epsilon_block_reverse(6))
        assert np.array_equal(
            bank.row_view(2).epsilon_block(4), scalars[2].epsilon_block(4)
        )

    def test_bank_states_are_the_row_registers(self):
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        for row, count in enumerate([9, 3, 21]):
            bank.row_view(row).epsilon_block(count)
            scalars[row].epsilon_block(count)
        assert bank.states() == [bank.row_view(row).lfsr.state for row in range(3)]
        assert bank.states() == [scalar.lfsr.state for scalar in scalars]
        # a whole-bank write is what every view reads next, sums resynced
        new_states = [0x1F, 0xABCDEF, 0x123456789]
        bank.set_states(new_states)
        for row, (scalar, state) in enumerate(zip(scalars, new_states)):
            scalar.lfsr.state = state
            scalar.resync_sum_register()
            view = bank.row_view(row)
            assert view.lfsr.state == state
            assert view.sum_register == scalar.sum_register
            assert np.array_equal(view.epsilon_block(7), scalar.epsilon_block(7))


class TestReplay:
    def test_replay_matches_scalar_replay(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        starts = [bank.row_view(row).lfsr.state for row in range(2)]
        blocks = [bank.row_view(row).epsilon_block(16) for row in range(2)]
        for row, scalar in enumerate(scalars):
            scalar.epsilon_block(16)
        for row in range(2):
            end = bank.row_view(row).lfsr.state
            replayed = bank.row_view(row).replay_block(
                starts[row], 16, expected_end_state=end
            )
            assert np.array_equal(replayed, blocks[row])
            assert bank.row_view(row).lfsr.state == starts[row]

    def test_row_replay_leaves_other_rows_untouched(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        views = [bank.row_view(row) for row in range(2)]
        start = views[0].lfsr.state
        for view in views:
            view.epsilon_block(14)
        before = (views[1].lfsr.state, views[1].sum_register)
        views[0].replay_block(start, 14, expected_end_state=views[0].lfsr.state)
        after = (views[1].lfsr.state, views[1].sum_register)
        assert after == before

    def test_batched_replay_of_per_row_spans(self):
        # Spans generated one row at a time replay in one whole-bank call,
        # value for value, landing on each row's end pattern.
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        starts = [bank.row_view(row).lfsr.state for row in range(3)]
        blocks = [bank.row_view(row).epsilon_block(13) for row in range(3)]
        ends = [bank.row_view(row).lfsr.state for row in range(3)]
        replayed = bank.replay_blocks(starts, 13, expected_end_states=ends)
        assert bank.states() == ends
        for row, scalar in enumerate(scalars):
            assert np.array_equal(replayed[row], blocks[row])
            assert np.array_equal(replayed[row], scalar.epsilon_block(13))
            assert bank.row_view(row).sum_register == scalar.sum_register

    def test_replay_detects_tampering(self):
        bank = GrngBank(1, n_bits=64, stride=1)
        view = bank.row_view(0)
        start = view.lfsr.state
        view.epsilon_block(8)
        view.lfsr.state ^= 1  # corrupt the register
        with pytest.raises(ReplayError):
            view.replay_block(start, 8, expected_end_state=view.lfsr.state)

    def test_failed_replay_leaves_view_where_the_scalar_is(self):
        # A tampered register makes both engines raise; afterwards the view's
        # register and sum must equal the scalar's, and both must keep
        # producing the same values.
        bank = GrngBank(2, n_bits=64, stride=4)
        view = bank.row_view(1)
        scalar = make_scalars(2)[1]
        for g in (view, scalar):
            start = g.lfsr.state
            g.epsilon_block(12)
            g.lfsr.state ^= 1  # corrupt the register
            with pytest.raises(ReplayError):
                g.replay_block(start, 12, expected_end_state=g.lfsr.state)
        assert view.lfsr.state == scalar.lfsr.state
        assert view.sum_register == scalar.sum_register
        assert np.array_equal(view.epsilon_block(9), scalar.epsilon_block(9))
        assert np.array_equal(
            view.epsilon_block_reverse(9), scalar.epsilon_block_reverse(9)
        )

    def test_nested_replays_lifo(self):
        # Mirrors a two-layer backward pass: replay the most recent block,
        # then the one before it, for every row.
        bank = GrngBank(3, n_bits=64, stride=4)
        starts, blocks = [], []
        for row in range(3):
            view = bank.row_view(row)
            s1 = view.lfsr.state
            b1 = view.epsilon_block(10)
            s2 = view.lfsr.state
            b2 = view.epsilon_block(6)
            starts.append((s1, s2))
            blocks.append((b1, b2))
        for row in range(3):
            view = bank.row_view(row)
            end = view.lfsr.state
            replay2 = view.replay_block(starts[row][1], 6, expected_end_state=end)
            assert np.array_equal(replay2, blocks[row][1])
            view.lfsr.state = starts[row][1]
            view.resync_sum_register()
            replay1 = view.replay_block(
                starts[row][0], 10, expected_end_state=view.lfsr.state
            )
            assert np.array_equal(replay1, blocks[row][0])
