"""Unit tests for the CLT Gaussian generator: a GrngBank row against the oracle.

Each test drives a one-row :class:`~repro.core.GrngBank` and compares it with
:class:`oracle.OracleGRNG`, which ticks a from-scratch bit-serial register and
standardises its popcounts in float64.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracle import OracleGRNG
from repro.core import GrngBank


def row(n_bits: int = 256, seed_index: int = 0, stride: int = 1) -> GrngBank:
    """A one-row bank."""
    return GrngBank(seed_indices=[seed_index], n_bits=n_bits, stride=stride)


class TestConstruction:
    def test_defaults(self):
        bank = GrngBank(1)
        assert bank.n_bits == 256
        assert bank.stride == 1

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            GrngBank(1, stride=0)

    def test_distinct_seed_indices_give_distinct_streams(self):
        a = row(seed_index=0).epsilon_blocks(32)[0]
        b = row(seed_index=1).epsilon_blocks(32)[0]
        assert not np.allclose(a, b)

    def test_same_seed_index_reproducible(self):
        a = row(seed_index=3).epsilon_blocks(32)[0]
        b = row(seed_index=3).epsilon_blocks(32)[0]
        assert np.array_equal(a, b)


class TestScalarInterface:
    def test_scalar_reverse_retrieves_forward_values(self):
        bank = row(n_bits=64, seed_index=2)
        forward = [bank.epsilon_blocks(1)[0, 0] for _ in range(50)]
        backward = [bank.epsilon_blocks_reverse(1)[0, 0] for _ in range(50)]
        assert backward == forward[::-1]

    def test_values_lie_on_quantised_grid(self):
        value = row(n_bits=256, seed_index=4).epsilon_blocks(1)[0, 0]
        # eps = (popcount - 128) / 8 must be a multiple of 1/8
        assert value == round(value * 8) / 8


class TestBlockInterface:
    @pytest.mark.parametrize("stride", [1, 3, 16, 256])
    def test_block_matches_scalar(self, stride):
        bank = row(n_bits=256, seed_index=7, stride=stride)
        oracle = OracleGRNG(256, seed_index=7, stride=stride)
        assert bank.epsilon_blocks(40)[0].tobytes() == oracle.epsilon_block(40).tobytes()
        assert bank.states()[0] == oracle.state

    @pytest.mark.parametrize("stride", [1, 5, 64])
    def test_block_reverse_returns_reversed_block(self, stride):
        bank = row(n_bits=128, seed_index=9, stride=stride)
        start_state = bank.states()[0]
        forward = bank.epsilon_blocks(60)[0]
        backward = bank.epsilon_blocks_reverse(60)[0]
        assert np.array_equal(backward, forward[::-1])
        assert bank.states()[0] == start_state

    def test_block_reverse_matches_scalar_reverse(self):
        bank = row(n_bits=64, seed_index=11, stride=2)
        oracle = OracleGRNG(64, seed_index=11, stride=2)
        bank.epsilon_blocks(30)
        oracle.epsilon_block(30)
        block = bank.epsilon_blocks_reverse(30)[0]
        assert block.tobytes() == oracle.epsilon_block_reverse(30).tobytes()
        assert bank.states()[0] == oracle.state

    def test_empty_blocks(self):
        bank = row(n_bits=32)
        assert bank.epsilon_blocks(0)[0].size == 0
        assert bank.epsilon_blocks_reverse(0)[0].size == 0

    def test_negative_counts_rejected(self):
        bank = row(n_bits=32)
        with pytest.raises(ValueError):
            bank.epsilon_blocks(-1)
        with pytest.raises(ValueError):
            bank.epsilon_blocks_reverse(-2)

    def test_partial_reverse_then_forward_is_consistent(self):
        bank = row(n_bits=64, seed_index=13)
        forward = bank.epsilon_blocks(100)[0]
        bank.epsilon_blocks_reverse(40)  # rewind the last 40
        regenerated = bank.epsilon_blocks(40)[0]
        assert np.array_equal(regenerated, forward[60:])

    @pytest.mark.parametrize(("stride", "count"), [(1, 50_000), (256, 4096)])
    def test_long_block_equals_chunked_blocks(self, stride, count):
        whole = row(256, seed_index=1, stride=stride)
        chunked = row(256, seed_index=1, stride=stride)
        block = whole.epsilon_blocks(count)[0]
        pieces = [chunked.epsilon_blocks(n)[0] for n in (count // 3, count - count // 3)]
        assert np.array_equal(block, np.concatenate(pieces))
        assert whole.states()[0] == chunked.states()[0]


class TestStatistics:
    def test_decorrelated_stride_produces_standard_normal_moments(self):
        samples = row(n_bits=256, seed_index=21, stride=256).epsilon_blocks(4000)[0]
        assert abs(float(samples.mean())) < 0.08
        assert abs(float(samples.std()) - 1.0) < 0.08

    def test_unit_stride_is_heavily_autocorrelated(self):
        # Documented behaviour of the hardware's sliding-window GRNG: adjacent
        # values differ by at most one resolution step, 1 / sqrt(n / 4).
        samples = row(n_bits=256, seed_index=22, stride=1).epsilon_blocks(500)[0]
        steps = np.abs(np.diff(samples))
        assert steps.max() <= 1.0 / math.sqrt(64.0) + 1e-12


    def test_a_written_register_is_the_whole_state(self):
        # Two rows with different histories, written the same register, draw
        # the same values forward and back, and so does the oracle.
        drawn, fresh = row(n_bits=64, seed_index=3), row(n_bits=64, seed_index=4)
        drawn.epsilon_blocks(10)
        drawn.set_states([0b1011])
        fresh.set_states([0b1011])
        oracle = OracleGRNG(64, seed_index=3)
        oracle.state = 0b1011
        want = oracle.epsilon_block(5).tobytes()
        assert drawn.epsilon_blocks(5)[0].tobytes() == want
        assert fresh.epsilon_blocks(5)[0].tobytes() == want
        back = oracle.epsilon_block_reverse(5).tobytes()
        assert drawn.epsilon_blocks_reverse(5)[0].tobytes() == back
        assert fresh.epsilon_blocks_reverse(5)[0].tobytes() == back
        assert drawn.states() == fresh.states() == [oracle.state] == [0b1011]
