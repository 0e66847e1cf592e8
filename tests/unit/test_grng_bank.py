"""Unit tests for the batched GRNG bank and its one-row banks.

Every value and register is compared with
:class:`oracle.OracleGRNG`: the same seed ticked through a from-scratch
bit-serial register, one oracle per row.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import draw, one_row_sampler, retrieve
from oracle import TAP_TABLE, BitSerialLFSR, OracleGRNG, clt, seed_for_index
from repro.core import GrngBank, LFSRStateError


def make_scalars(n_rows: int, n_bits: int = 64, stride: int = 4):
    return [OracleGRNG(n_bits, seed_index=i, stride=stride) for i in range(n_rows)]


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
        seeds = [seed_for_index(n_bits, i) for i in (0, 3, 7, 500)]
        assert bank.states() == seeds

    def test_properties(self):
        bank = GrngBank(2, n_bits=64, stride=8)
        assert bank.n_bits == 64
        assert bank.stride == 8
        assert bank.taps == tuple(sorted(TAP_TABLE[64]))


class TestStates:
    def test_set_states_validates(self):
        bank = GrngBank(2, n_bits=8)
        before = bank.states()
        with pytest.raises(ValueError, match="expected 2 states"):
            bank.set_states([1])
        for bad in ([5, 0], [5, 1 << 8], [5, -3]):
            with pytest.raises(LFSRStateError):
                bank.set_states(bad)
        for bad in ("nope", 37.9):
            with pytest.raises(LFSRStateError, match="must be an integer"):
                bank.set_states([5, bad])  # type: ignore[list-item]
        assert bank.states() == before

    def test_row_bank_state_write_validates(self):
        bank = GrngBank(2, n_bits=8)
        before = bank.states()
        for bad in (0, 1 << 8, "nope", 37.9):
            with pytest.raises(LFSRStateError):
                bank.row_bank(1).set_states([bad])  # type: ignore[list-item]
        assert bank.states() == before
        bank.row_bank(1).set_states([0xA5])
        assert bank.states() == [before[0], 0xA5]

    def test_row_bank_state_write_touches_one_row(self):
        bank = GrngBank(3, n_bits=64)
        before = bank.states()
        bank.row_bank(1).set_states([0xDEADBEEF])
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
        assert block.tobytes() == reference.tobytes()
        assert bank.states() == [g.state for g in scalars]

    def test_long_block_matches_the_stepwise_register(self):
        # A block much longer than the register crosses many squared-
        # polynomial levels; compare against single hardware shifts.
        bank = GrngBank(seed_indices=[5], n_bits=16)
        reference = BitSerialLFSR(16, seed_for_index(16, 5))
        popcounts = []
        for _ in range(5000):
            reference.tick_forward()
            popcounts.append(reference.popcount())
        assert bank.epsilon_blocks(5000)[0].tobytes() == clt(popcounts, 16).tobytes()
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
        assert block.tobytes() == reference.tobytes()
        assert bank.states() == [g.state for g in scalars]

    @pytest.mark.parametrize(
        ("n_rows", "stride", "count"), [(8, 256, 256), (3, 64, 256), (1, 1, 128), (2, 192, 192)]
    )
    def test_reverse_is_one_jump_back_at_the_training_geometries(self, n_rows, stride, count):
        # A retrieval jumps count * stride shifts back in one call; the
        # oracle ticks the mirrored taps back one shift at a time.
        bank = GrngBank(n_rows, n_bits=64, stride=stride)
        scalars = make_scalars(n_rows, n_bits=64, stride=stride)
        start = bank.states()
        forward = bank.epsilon_blocks(count)
        for g in scalars:
            g.epsilon_block(count)
        block = bank.epsilon_blocks_reverse(count)
        reference = np.stack([g.epsilon_block_reverse(count) for g in scalars])
        assert block.tobytes() == reference.tobytes()
        assert np.array_equal(block, forward[:, ::-1])
        assert bank.states() == [g.state for g in scalars] == start

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


    def test_sixteen_long_rows_match_their_scalars(self):
        bank = GrngBank(16, n_bits=256, stride=1)
        block = bank.epsilon_blocks(50_000)
        assert block.shape == (16, 50_000)
        for row in (0, 15):
            scalar = OracleGRNG(256, seed_index=row, stride=1)
            assert block[row].tobytes() == scalar.epsilon_block(50_000).tobytes()

    def test_sixteen_long_rows_rewind_and_replay(self):
        bank = GrngBank(16, n_bits=256, stride=1)
        start = bank.states()
        forward = bank.epsilon_blocks(50_000)
        backward = bank.epsilon_blocks_reverse(50_000)
        assert np.array_equal(backward, forward[:, ::-1])
        assert bank.states() == start
        assert np.array_equal(bank.epsilon_blocks(50_000), forward)


class TestRowBanks:
    def test_row_bank_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        for row in range(2):
            view = bank.row_bank(row)
            block = view.epsilon_blocks(50)[0]
            assert block.tobytes() == scalars[row].epsilon_block(50).tobytes()
            assert view.states() == [scalars[row].state]
            assert (view.n_rows, view.n_bits, view.stride) == (1, 64, 4)

    def test_row_bank_bounds_checked(self):
        bank = GrngBank(2, n_bits=64)
        for row in (2, -1):
            with pytest.raises(IndexError):
                bank.row_bank(row)

    def test_sampler_round_trip_matches_scalar(self):
        # Forward, retrieve, and the next epoch resumes at the forward frontier.
        scalar = make_scalars(1)[0]
        sampler = one_row_sampler("reversible", n_bits=64, seed_index=0, stride=4)
        assert draw(sampler, (4,)).tobytes() == scalar.epsilon_block(4).tobytes()
        retrieve(sampler, (4,))
        sampler.finish_iteration()
        assert sampler.bank.states() == [scalar.state]
        assert draw(sampler, (6,)).tobytes() == scalar.epsilon_block(6).tobytes()


class TestRowBanksOutOfPhase:
    """Per-row requests in any order, size or interleaving equal the scalar."""

    def test_trainer_order_matches_scalar(self):
        # Trainer-style access: each row draws the same shapes, one row at a
        # time, so the rows are out of phase between requests.
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        counts = [12, 30, 7]
        got = [[bank.row_bank(row).epsilon_blocks(c)[0] for c in counts] for row in range(3)]
        for row, scalar in enumerate(scalars):
            for block, count in zip(got[row], counts):
                assert np.array_equal(block, scalar.epsilon_block(count))

    def test_mismatched_sizes_across_rows_match_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        a0 = bank.row_bank(0).epsilon_blocks(20)[0]
        a1 = bank.row_bank(1).epsilon_blocks(8)[0]
        assert np.array_equal(a0, scalars[0].epsilon_block(20))
        assert np.array_equal(a1, scalars[1].epsilon_block(8))
        # further draws stay correct for both rows
        assert np.array_equal(
            bank.row_bank(1).epsilon_blocks(5)[0], scalars[1].epsilon_block(5)
        )
        assert np.array_equal(
            bank.row_bank(0).epsilon_blocks(5)[0], scalars[0].epsilon_block(5)
        )

    def test_one_row_request_leaves_other_rows_untouched(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        bank.row_bank(0).epsilon_blocks(25)
        scalars[0].epsilon_block(25)
        assert bank.states() == [g.state for g in scalars]

    def test_external_state_write_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        bank.row_bank(0).epsilon_blocks(10)[0]
        scalars[0].epsilon_block(10)
        new_state = 0x123456789
        bank.row_bank(1).set_states([new_state])
        scalars[1].state = new_state
        for row in range(2):
            assert np.array_equal(
                bank.row_bank(row).epsilon_blocks(15)[0], scalars[row].epsilon_block(15)
            )

    def test_reverse_matches_scalar(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        scalars = make_scalars(2)
        for row in range(2):
            bank.row_bank(row).epsilon_blocks(40)[0]
            scalars[row].epsilon_block(40)
        got = [bank.row_bank(row).epsilon_blocks_reverse(40)[0] for row in range(2)]
        for row, scalar in enumerate(scalars):
            assert np.array_equal(got[row], scalar.epsilon_block_reverse(40))

    def test_batched_request_continues_out_of_phase_rows(self):
        # Rows advanced by different per-row requests: one batched call then
        # continues every row from its own register.
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        for row, count in enumerate([5, 0, 17]):
            bank.row_bank(row).epsilon_blocks(count)[0]
            scalars[row].epsilon_block(count)
        forward = bank.epsilon_blocks(11)
        for row, scalar in enumerate(scalars):
            assert np.array_equal(forward[row], scalar.epsilon_block(11))
        back = bank.epsilon_blocks_reverse(6)
        for row, scalar in enumerate(scalars):
            assert np.array_equal(back[row], scalar.epsilon_block_reverse(6))
        assert np.array_equal(
            bank.row_bank(2).epsilon_blocks(4)[0], scalars[2].epsilon_block(4)
        )

    def test_bank_states_are_the_row_registers(self):
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        for row, count in enumerate([9, 3, 21]):
            bank.row_bank(row).epsilon_blocks(count)[0]
            scalars[row].epsilon_block(count)
        assert bank.states() == [bank.row_bank(row).states()[0] for row in range(3)]
        assert bank.states() == [scalar.state for scalar in scalars]
        # a whole-bank write is what every row bank reads next
        new_states = [0x1F, 0xABCDEF, 0x123456789]
        bank.set_states(new_states)
        for row, (scalar, state) in enumerate(zip(scalars, new_states)):
            scalar.state = state
            view = bank.row_bank(row)
            assert view.states() == [state]
            assert np.array_equal(view.epsilon_blocks(7)[0], scalar.epsilon_block(7))


class TestReplay:
    def test_batched_replay_of_per_row_spans(self):
        # Spans generated one row at a time replay in one whole-bank call,
        # value for value, landing on each row's end pattern.
        bank = GrngBank(3, n_bits=64, stride=4)
        scalars = make_scalars(3)
        starts = bank.register_words()
        blocks = [bank.row_bank(row).epsilon_blocks(13)[0] for row in range(3)]
        ends = bank.register_words()
        _, replayed, _, landed = bank.replay_weight_blocks(
            starts, np.zeros(13), np.ones(13)
        )
        assert np.array_equal(landed, ends)
        assert np.array_equal(bank.register_words(), ends)
        for row, scalar in enumerate(scalars):
            assert np.array_equal(replayed[row], blocks[row])
            assert np.array_equal(replayed[row], scalar.epsilon_block(13))
        assert bank.states() == [scalar.state for scalar in scalars]
