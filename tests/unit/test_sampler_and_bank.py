"""Unit tests for weight sampling, LFSR snapshots and the per-sample stream bank."""

from __future__ import annotations

import numpy as np
import pytest

from oracle import OracleGRNG
from repro.core import (
    GrngBank,
    LfsrSnapshot,
    ReversibleGaussianStream,
    SampledWeights,
    StreamBank,
    WeightSampler,
)


def row(n_bits: int = 64, seed_index: int = 0, stride: int = 1):
    """The row view of a one-row bank."""
    return GrngBank(n_bits=n_bits, seed_indices=[seed_index], stride=stride).row_view(0)


def make_sampler(seed_index: int = 0) -> WeightSampler:
    return WeightSampler(ReversibleGaussianStream(row(seed_index=seed_index, stride=4)))


class TestSampledWeights:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampledWeights(weights=np.zeros((2, 2)), epsilon=np.zeros(3))

    def test_fields(self):
        bundle = SampledWeights(weights=np.ones(3), epsilon=np.zeros(3))
        assert bundle.weights.shape == bundle.epsilon.shape


class TestWeightSampler:
    def test_sample_formula(self):
        sampler = make_sampler()
        mu = np.full((3, 3), 2.0)
        sigma = np.full((3, 3), 0.5)
        sampled = sampler.sample(mu, sigma)
        assert np.allclose(sampled.weights, mu + sampled.epsilon * sigma)

    def test_resample_reproduces_weights(self):
        sampler = make_sampler()
        mu = np.linspace(-1, 1, 12).reshape(3, 4)
        sigma = np.full((3, 4), 0.1)
        first = sampler.sample(mu, sigma)
        second = sampler.resample(mu, sigma)
        assert np.array_equal(first.weights, second.weights)
        assert np.array_equal(first.epsilon, second.epsilon)

    def test_mismatched_mu_sigma_rejected(self):
        sampler = make_sampler()
        with pytest.raises(ValueError):
            sampler.sample(np.zeros((2, 2)), np.zeros((3,)))

    def test_negative_sigma_rejected(self):
        sampler = make_sampler()
        with pytest.raises(ValueError):
            sampler.sample(np.zeros(4), np.full(4, -0.1))

    def test_zero_sigma_reproduces_mu(self):
        sampler = make_sampler()
        mu = np.arange(6, dtype=np.float64)
        sampled = sampler.sample(mu, np.zeros(6))
        assert np.array_equal(sampled.weights, mu)

    def test_finish_iteration_requires_balanced_blocks(self):
        sampler = make_sampler()
        sampler.sample(np.zeros(4), np.ones(4))
        with pytest.raises(Exception):
            sampler.finish_iteration()

    def test_stream_property(self):
        sampler = make_sampler()
        assert sampler.stream.grng.n_bits == 64


    def test_resample_reproduces_layer_sized_weights(self):
        sampler = StreamBank(1, policy="reversible", seed=0, grng_stride=16).sampler(0)
        mu = np.zeros((256, 64))
        sigma = np.full((256, 64), 0.05)
        for _ in range(2):
            first = sampler.sample(mu, sigma)
            second = sampler.resample(mu, sigma)
            assert second.weights.shape == (256, 64)
            assert first.weights.tobytes() == second.weights.tobytes()
            sampler.finish_iteration()


class TestLfsrSnapshot:
    def test_capture_and_restore(self):
        grng = row(seed_index=3)
        snapshot = LfsrSnapshot.capture(grng)
        before = grng.epsilon_block(20)
        assert before.tobytes() == OracleGRNG(64, seed_index=3).epsilon_block(20).tobytes()
        snapshot.restore(grng)
        after = grng.epsilon_block(20)
        assert np.array_equal(before, after)

    def test_restore_to_incompatible_generator_rejected(self):
        snapshot = LfsrSnapshot.capture(row(seed_index=3))
        other = row(n_bits=128, seed_index=3)
        with pytest.raises(ValueError):
            snapshot.restore(other)

    def test_snapshot_is_immutable(self):
        snapshot = LfsrSnapshot.capture(row(seed_index=3))
        with pytest.raises(AttributeError):
            snapshot.state = 5  # type: ignore[misc]

    def test_snapshot_roundtrips_mid_block(self):
        # Regression: capture() read the pattern popcount instead of the
        # GRNG's actual sum register, and restore() ignored the captured sum
        # entirely.  A snapshot taken mid-block (between one-value draws) must
        # reproduce the exact continuation, sum register included.
        grng = row(seed_index=5, stride=4)
        for _ in range(3):  # park the generator mid-way through a block
            grng.epsilon_block(1)
        snapshot = LfsrSnapshot.capture(grng)
        assert snapshot.sum_register == grng.sum_register
        continuation = [grng.epsilon_block(1)[0] for _ in range(5)]
        snapshot.restore(grng)
        assert grng.sum_register == snapshot.sum_register
        assert [grng.epsilon_block(1)[0] for _ in range(5)] == continuation

    def test_snapshot_preserves_desynced_sum_register(self):
        # The sum register is captured as-is: a generator whose accumulator
        # has drifted from the register (externally overwritten state, no
        # resync) must round-trip its actual value, not a recomputed one.
        grng = row(seed_index=7)
        grng.sum_register = grng.sum_register + 9  # deliberately desynced
        snapshot = LfsrSnapshot.capture(grng)
        assert snapshot.sum_register == bin(grng.lfsr.state).count("1") + 9
        other = row(seed_index=8)
        snapshot.restore(other)
        assert other.sum_register == snapshot.sum_register
        assert other.lfsr.state == snapshot.state

    def test_snapshot_roundtrips_banked_row_view(self):
        from repro.core import GrngBank

        bank = GrngBank(2, n_bits=64, stride=4)
        view = bank.row_view(1)
        view.epsilon_block(6)
        snapshot = LfsrSnapshot.capture(view)
        before = view.epsilon_block(12)
        snapshot.restore(view)
        assert np.array_equal(view.epsilon_block(12), before)


class TestStreamBank:
    def test_requires_positive_samples(self):
        with pytest.raises(ValueError):
            StreamBank(0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            StreamBank(2, policy="magic")  # type: ignore[arg-type]

    def test_len_and_iteration(self):
        bank = StreamBank(3, seed=1)
        assert len(bank) == 3
        assert len(list(bank)) == 3
        assert len(bank.streams) == 3
        assert len(bank.samplers) == 3

    def test_per_sample_streams_are_distinct(self):
        bank = StreamBank(4, seed=1)
        blocks = [sampler.stream.forward_block((8,)) for sampler in bank]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(blocks[i], blocks[j])

    def test_same_seed_same_policy_reproducible(self):
        a = StreamBank(2, seed=5).sampler(0).stream.forward_block((6,))
        b = StreamBank(2, seed=5).sampler(0).stream.forward_block((6,))
        assert np.array_equal(a, b)

    def test_policies_share_epsilon_values(self):
        stored = StreamBank(2, policy="stored", seed=7)
        reversible = StreamBank(2, policy="reversible", seed=7)
        for index in range(2):
            a = stored.sampler(index).stream.forward_block((5,))
            b = reversible.sampler(index).stream.forward_block((5,))
            assert np.array_equal(a, b)

    def test_different_bank_seeds_differ(self):
        a = StreamBank(1, seed=1).sampler(0).stream.forward_block((6,))
        b = StreamBank(1, seed=2).sampler(0).stream.forward_block((6,))
        assert not np.allclose(a, b)

    def test_snapshot_restore_roundtrip(self):
        bank = StreamBank(2, seed=3)
        snapshots = bank.snapshots()
        first = [sampler.stream.forward_block((4,)) for sampler in bank]
        bank.restore(snapshots)
        second = [sampler.stream.forward_block((4,)) for sampler in bank]
        for a, b in zip(first, second):
            assert np.allclose(a, b)

    def test_restore_length_mismatch_rejected(self):
        bank = StreamBank(2, seed=3)
        with pytest.raises(ValueError):
            bank.restore(bank.snapshots()[:1])

    def test_traffic_accounting_by_policy(self):
        mu, sigma = np.zeros((16, 16)), np.ones((16, 16))
        stored = StreamBank(2, policy="stored", seed=1)
        reversible = StreamBank(2, policy="reversible", seed=1)
        for bank in (stored, reversible):
            for sampler in bank:
                sampler.sample(mu, sigma)
                sampler.resample(mu, sigma)
            bank.finish_iteration()
        assert stored.total_offchip_epsilon_bytes() > 0
        assert reversible.total_offchip_epsilon_bytes() == 0
        assert reversible.total_epsilon_footprint_bytes() < stored.total_epsilon_footprint_bytes()

    def test_grng_stride_is_forwarded(self):
        bank = StreamBank(1, seed=1, grng_stride=16)
        assert bank.sampler(0).stream.grng.stride == 16

    def test_policy_property(self):
        assert StreamBank(1, policy="stored").policy == "stored"
        assert StreamBank(1).policy == "reversible"

    def test_per_row_iteration_replays_every_stream(self):
        bank = StreamBank(8, policy="reversible", seed=0, grng_stride=16)
        shape = (64, 64)
        previous = None
        for _ in range(2):
            blocks = [sampler.stream.forward_block(shape) for sampler in bank]
            for sampler, block in zip(bank, blocks):
                assert sampler.stream.retrieve_block(shape).tobytes() == block.tobytes()
            bank.finish_iteration()
            assert len({block.tobytes() for block in blocks}) == len(bank)
            # the next iteration draws fresh epsilons, never a replay
            if previous is not None:
                assert not np.array_equal(blocks[0], previous)
            previous = blocks[0]
