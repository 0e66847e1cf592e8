"""Unit tests for the batched GRNG bank and its scalar-compatible row views."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    GRNGMode,
    GrngBank,
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

    def test_seed_indices_override_n_rows(self):
        bank = GrngBank(seed_indices=[5, 9, 11], n_bits=64)
        assert bank.n_rows == 3
        assert len(bank) == 3

    def test_properties(self):
        bank = GrngBank(2, n_bits=64, stride=8, lockstep=True)
        assert bank.n_bits == 64
        assert bank.stride == 8
        assert bank.lockstep
        assert bank.resolution == pytest.approx(1.0 / np.sqrt(16.0))
        assert bank.lfsr_array.n_rows == 2
        assert "GrngBank" in repr(bank)


class TestBatchedInterface:
    @pytest.mark.parametrize("stride", [1, 4, 64])
    def test_epsilon_blocks_match_scalar(self, stride):
        bank = GrngBank(3, n_bits=64, stride=stride)
        scalars = make_scalars(3, stride=stride)
        block = bank.epsilon_blocks(200)
        reference = np.stack([g.epsilon_block(200) for g in scalars])
        assert np.array_equal(block, reference)
        assert bank.generated_counts.tolist() == [200, 200, 200]

    @pytest.mark.parametrize("stride", [1, 4])
    def test_epsilon_blocks_reverse_match_scalar(self, stride):
        bank = GrngBank(3, n_bits=64, stride=stride)
        scalars = make_scalars(3, stride=stride)
        bank.epsilon_blocks(150)
        for g in scalars:
            g.epsilon_block(150)
        block = bank.epsilon_blocks_reverse(150)
        reference = np.stack([g.epsilon_block_reverse(150) for g in scalars])
        assert np.array_equal(block, reference)
        assert bank.retrieved_counts.tolist() == [150, 150, 150]

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

    def test_next_and_previous_epsilon(self):
        bank = GrngBank(1, n_bits=64, stride=4)
        scalar = make_scalars(1)[0]
        view = bank.row_view(0)
        forward = [view.next_epsilon() for _ in range(5)]
        assert forward == [scalar.next_epsilon() for _ in range(5)]
        assert view.mode is GRNGMode.FORWARD
        backward = [view.previous_epsilon() for _ in range(5)]
        assert backward == [scalar.previous_epsilon() for _ in range(5)]
        assert view.mode is GRNGMode.REVERSE

    def test_shift_count_matches_scalar_after_replay(self):
        # A checkpoint replay is net-zero register movement on both engines.
        from repro.core import ReversibleGaussianStream

        scalar_stream = ReversibleGaussianStream(make_scalars(1)[0])
        banked_stream = ReversibleGaussianStream(
            GrngBank(1, n_bits=64, stride=4, lockstep=True).row_view(0)
        )
        for stream in (scalar_stream, banked_stream):
            stream.forward_block((4,))
            stream.retrieve_block((4,))
            stream.reset_epoch()
        assert (
            banked_stream.grng.lfsr.shift_count
            == scalar_stream.grng.lfsr.shift_count
        )

    def test_view_lfsr_copy_carries_shift_count(self):
        bank = GrngBank(1, n_bits=64, stride=4)
        view = bank.row_view(0)
        view.epsilon_block(10)
        assert view.lfsr.copy().shift_count == view.lfsr.shift_count == 40

    def test_view_copy_is_detached_scalar(self):
        bank = GrngBank(1, n_bits=64, stride=4)
        view = bank.row_view(0)
        view.epsilon_block(10)
        clone = view.copy()
        assert isinstance(clone, LfsrGaussianRNG)
        assert clone.lfsr.state == view.lfsr.state
        continuation = clone.epsilon_block(20)
        assert np.array_equal(continuation, view.epsilon_block(20))

    def test_distribution_summary_does_not_advance(self):
        bank = GrngBank(1, n_bits=64, stride=64)
        view = bank.row_view(0)
        state = view.lfsr.state
        summary = view.distribution_summary(512)
        assert view.lfsr.state == state
        assert abs(summary["mean"]) < 0.2

    def test_set_mode_validation(self):
        view = GrngBank(1, n_bits=64).row_view(0)
        with pytest.raises(TypeError):
            view.set_mode("forward")  # type: ignore[arg-type]
        view.set_mode(GRNGMode.IDLE)
        assert view.mode is GRNGMode.IDLE

    def test_view_repr(self):
        view = GrngBank(1, n_bits=64).row_view(0)
        assert "BankedGaussianRNG" in repr(view)
        assert "LfsrRowView" in repr(view.lfsr)

    def test_row_view_shift_forward_matches_scalar(self):
        bank = GrngBank(1, n_bits=64)
        scalar = make_scalars(1, stride=1)[0]
        view = bank.row_view(0)
        bits = [view.lfsr.shift_forward() for _ in range(20)]
        expected = [scalar.lfsr.shift_forward() for _ in range(20)]
        assert bits == expected
        assert view.lfsr.state == scalar.lfsr.state
        back = [view.lfsr.shift_reverse() for _ in range(20)]
        expected_back = [scalar.lfsr.shift_reverse() for _ in range(20)]
        assert back == expected_back


class TestLockstepSpeculation:
    def test_lockstep_order_matches_scalar(self):
        # Trainer-style access: each row draws the same shapes, one row at a
        # time; speculation must serve rows 1.. from the prefetch queues.
        bank = GrngBank(3, n_bits=64, stride=4, lockstep=True)
        scalars = make_scalars(3)
        counts = [12, 30, 7]
        got = [[bank.row_view(row).epsilon_block(c) for c in counts] for row in range(3)]
        for row, scalar in enumerate(scalars):
            for block, count in zip(got[row], counts):
                assert np.array_equal(block, scalar.epsilon_block(count))

    def test_mismatched_request_falls_back_exactly(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
        scalars = make_scalars(2)
        # row 0 requests 20 (speculates 20 for row 1), but row 1 asks for 8.
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

    def test_logical_state_hides_speculation(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
        scalars = make_scalars(2)
        bank.row_view(0).epsilon_block(25)
        scalars[0].epsilon_block(25)
        # row 1 has a prefetched block pending; its visible state must still
        # be the pre-block state.
        assert bank.row_view(1).lfsr.state == scalars[1].lfsr.state
        assert bank.row_view(1).sum_register == scalars[1].sum_register

    def test_external_state_write_disables_speculation(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
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

    def test_end_iteration_rearms_speculation(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
        scalars = make_scalars(2)
        view = bank.row_view(0)
        view.lfsr.state = scalars[0].lfsr.state  # marks the row dirty
        bank.end_iteration()
        for row in range(2):
            assert np.array_equal(
                bank.row_view(row).epsilon_block(9), scalars[row].epsilon_block(9)
            )

    def test_end_iteration_discards_unconsumed_prefetches(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
        scalars = make_scalars(2)
        bank.row_view(0).epsilon_block(10)
        scalars[0].epsilon_block(10)
        bank.end_iteration()  # row 1 never consumed its prefetched block
        assert bank.row_view(1).lfsr.state == scalars[1].lfsr.state
        assert np.array_equal(
            bank.row_view(1).epsilon_block(10), scalars[1].epsilon_block(10)
        )

    def test_reverse_speculation_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
        scalars = make_scalars(2)
        for row in range(2):
            bank.row_view(row).epsilon_block(40)
            scalars[row].epsilon_block(40)
        bank.end_iteration()
        got = [bank.row_view(row).epsilon_block_reverse(40) for row in range(2)]
        for row, scalar in enumerate(scalars):
            assert np.array_equal(got[row], scalar.epsilon_block_reverse(40))


class TestReplay:
    def test_replay_matches_scalar_replay(self):
        bank = GrngBank(2, n_bits=64, stride=4, lockstep=True)
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

    def test_replay_detects_tampering(self):
        bank = GrngBank(1, n_bits=64, stride=1, lockstep=True)
        view = bank.row_view(0)
        start = view.lfsr.state
        view.epsilon_block(8)
        view.lfsr.shift_forward()  # corrupt the register
        with pytest.raises(ReplayError):
            view.replay_block(start, 8, expected_end_state=view.lfsr.state)

    def test_nested_replays_lifo(self):
        # Mirrors a two-layer backward pass: replay the most recent block,
        # then the one before it, for every row in lockstep.
        bank = GrngBank(3, n_bits=64, stride=4, lockstep=True)
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
