"""Unit tests for the CLT-based Gaussian RNG over a reversible LFSR."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import GRNGMode, LfsrGaussianRNG


class TestConstruction:
    def test_defaults(self):
        grng = LfsrGaussianRNG()
        assert grng.n_bits == 256
        assert grng.stride == 1
        assert grng.mode is GRNGMode.IDLE

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            LfsrGaussianRNG(stride=0)

    def test_resolution(self):
        grng = LfsrGaussianRNG(n_bits=256)
        assert grng.resolution == pytest.approx(1.0 / math.sqrt(64.0))

    def test_distinct_seed_indices_give_distinct_streams(self):
        a = LfsrGaussianRNG(seed_index=0).epsilon_block(32)
        b = LfsrGaussianRNG(seed_index=1).epsilon_block(32)
        assert not np.allclose(a, b)

    def test_same_seed_index_reproducible(self):
        a = LfsrGaussianRNG(seed_index=3).epsilon_block(32)
        b = LfsrGaussianRNG(seed_index=3).epsilon_block(32)
        assert np.array_equal(a, b)


class TestScalarInterface:
    def test_next_epsilon_switches_to_forward_mode(self):
        grng = LfsrGaussianRNG(n_bits=16, seed_index=1)
        grng.next_epsilon()
        assert grng.mode is GRNGMode.FORWARD

    def test_previous_epsilon_switches_to_reverse_mode(self):
        grng = LfsrGaussianRNG(n_bits=16, seed_index=1)
        grng.next_epsilon()
        grng.previous_epsilon()
        assert grng.mode is GRNGMode.REVERSE

    def test_set_mode_validation(self):
        grng = LfsrGaussianRNG(n_bits=16)
        with pytest.raises(TypeError):
            grng.set_mode("forward")  # type: ignore[arg-type]
        grng.set_mode(GRNGMode.IDLE)
        assert grng.mode is GRNGMode.IDLE

    def test_scalar_reverse_retrieves_forward_values(self):
        grng = LfsrGaussianRNG(n_bits=64, seed_index=2)
        forward = [grng.next_epsilon() for _ in range(50)]
        backward = [grng.previous_epsilon() for _ in range(50)]
        assert backward == forward[::-1]

    def test_counts_track_usage(self):
        grng = LfsrGaussianRNG(n_bits=32, seed_index=2)
        for _ in range(5):
            grng.next_epsilon()
        for _ in range(3):
            grng.previous_epsilon()
        assert grng.generated_count == 5
        assert grng.retrieved_count == 3

    def test_values_lie_on_quantised_grid(self):
        grng = LfsrGaussianRNG(n_bits=256, seed_index=4)
        value = grng.next_epsilon()
        # eps = (popcount - 128) / 8 must be a multiple of 1/8
        assert value == pytest.approx(round(value * 8) / 8)


class TestBlockInterface:
    @pytest.mark.parametrize("stride", [1, 3, 16, 256])
    def test_block_matches_scalar(self, stride):
        a = LfsrGaussianRNG(n_bits=256, seed_index=7, stride=stride)
        b = LfsrGaussianRNG(n_bits=256, seed_index=7, stride=stride)
        scalar = np.array([a.next_epsilon() for _ in range(40)])
        block = b.epsilon_block(40)
        assert np.allclose(scalar, block)
        assert a.lfsr.state == b.lfsr.state

    @pytest.mark.parametrize("stride", [1, 5, 64])
    def test_block_reverse_returns_reversed_block(self, stride):
        grng = LfsrGaussianRNG(n_bits=128, seed_index=9, stride=stride)
        start_state = grng.lfsr.state
        forward = grng.epsilon_block(60)
        backward = grng.epsilon_block_reverse(60)
        assert np.allclose(backward, forward[::-1])
        assert grng.lfsr.state == start_state

    def test_block_reverse_matches_scalar_reverse(self):
        a = LfsrGaussianRNG(n_bits=64, seed_index=11, stride=2)
        b = LfsrGaussianRNG(n_bits=64, seed_index=11, stride=2)
        a.epsilon_block(30)
        b.epsilon_block(30)
        block = a.epsilon_block_reverse(30)
        scalar = np.array([b.previous_epsilon() for _ in range(30)])
        assert np.allclose(block, scalar)
        assert a.lfsr.state == b.lfsr.state

    def test_empty_blocks(self):
        grng = LfsrGaussianRNG(n_bits=32)
        assert grng.epsilon_block(0).size == 0
        assert grng.epsilon_block_reverse(0).size == 0

    def test_negative_counts_rejected(self):
        grng = LfsrGaussianRNG(n_bits=32)
        with pytest.raises(ValueError):
            grng.epsilon_block(-1)
        with pytest.raises(ValueError):
            grng.epsilon_block_reverse(-2)

    def test_partial_reverse_then_forward_is_consistent(self):
        grng = LfsrGaussianRNG(n_bits=64, seed_index=13)
        forward = grng.epsilon_block(100)
        grng.epsilon_block_reverse(40)  # rewind the last 40
        regenerated = grng.epsilon_block(40)
        assert np.allclose(regenerated, forward[60:])


    @pytest.mark.parametrize(("stride", "count"), [(1, 50_000), (256, 4096)])
    def test_long_block_equals_chunked_blocks(self, stride, count):
        whole = LfsrGaussianRNG(256, seed_index=1, stride=stride)
        chunked = LfsrGaussianRNG(256, seed_index=1, stride=stride)
        block = whole.epsilon_block(count)
        pieces = [chunked.epsilon_block(n) for n in (count // 3, count - count // 3)]
        assert np.array_equal(block, np.concatenate(pieces))
        assert whole.lfsr.state == chunked.lfsr.state


class TestStatistics:
    def test_decorrelated_stride_produces_standard_normal_moments(self):
        grng = LfsrGaussianRNG(n_bits=256, seed_index=21, stride=256)
        samples = grng.epsilon_block(4000)
        assert abs(float(samples.mean())) < 0.08
        assert abs(float(samples.std()) - 1.0) < 0.08

    def test_unit_stride_is_heavily_autocorrelated(self):
        # Documented behaviour of the hardware's sliding-window GRNG: adjacent
        # values differ by at most one resolution step.
        grng = LfsrGaussianRNG(n_bits=256, seed_index=22, stride=1)
        samples = grng.epsilon_block(500)
        steps = np.abs(np.diff(samples))
        assert steps.max() <= grng.resolution + 1e-12

    def test_distribution_summary_does_not_advance_generator(self):
        grng = LfsrGaussianRNG(n_bits=256, seed_index=23)
        state = grng.lfsr.state
        summary = grng.distribution_summary(count=512)
        assert grng.lfsr.state == state
        assert set(summary) == {"mean", "std", "skew", "min", "max"}
        assert abs(summary["skew"]) < 1.0

    def test_resync_sum_register(self):
        grng = LfsrGaussianRNG(n_bits=64, seed_index=3)
        grng.epsilon_block(10)
        grng.lfsr.state = 0b1011
        grng.resync_sum_register()
        value = grng.next_epsilon()
        # after resync the value is consistent with the register contents
        expected = (grng.lfsr.popcount - 32.0) / math.sqrt(16.0)
        assert value == pytest.approx(expected)

    def test_repr(self):
        grng = LfsrGaussianRNG(n_bits=64, seed_index=3)
        assert "LfsrGaussianRNG" in repr(grng)


class TestCopyAndReplay:
    def test_copy_is_independent_and_complete(self):
        grng = LfsrGaussianRNG(n_bits=64, seed_index=9, stride=4)
        grng.epsilon_block(7)
        clone = grng.copy()
        assert clone.lfsr.state == grng.lfsr.state
        assert clone.sum_register == grng.sum_register
        assert clone.generated_count == grng.generated_count
        assert clone.stride == grng.stride
        assert clone.mode is grng.mode
        # advancing the clone must not move the original
        state = grng.lfsr.state
        clone.epsilon_block(20)
        assert grng.lfsr.state == state

    def test_copy_carries_every_field(self):
        # The clone is built from __dict__, so a newly added attribute can
        # never silently desync (the defect the old __new__-based clone had).
        grng = LfsrGaussianRNG(n_bits=64, seed_index=9)
        clone = grng.copy()
        copied = dict(clone.__dict__)
        original = dict(grng.__dict__)
        assert set(copied) == set(original)
        assert copied.pop("_lfsr") == original.pop("_lfsr")
        assert copied == original
