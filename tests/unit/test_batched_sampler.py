"""Unit tests for the batched Monte-Carlo sampling engine.

The contract under test: :class:`~repro.core.sampler.BatchedWeightSampler`
serves all ``S`` samples per call and is *bit-identical* -- values, register
trajectories, traffic accounting -- to running the per-sample
:class:`~repro.core.sampler.WeightSampler` objects sequentially, for every
stream policy and stride, with and without whole-forward prefetching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GrngBank, StreamBank, StreamOrderError
from repro.core.sampler import BatchedWeightSampler, SampledWeightsBatch

SHAPES = [(7, 5), (3, 4, 2), (11,)]


def _layer_params(seed: int = 0):
    rng = np.random.default_rng(seed)
    mus = [rng.standard_normal(shape) for shape in SHAPES]
    sigmas = [np.abs(rng.standard_normal(shape)) * 0.1 + 0.01 for shape in SHAPES]
    return mus, sigmas


def _run_sequential(bank: StreamBank, mus, sigmas):
    forward = [
        [bank.sampler(s).sample(mu, sg) for mu, sg in zip(mus, sigmas)]
        for s in range(bank.n_samples)
    ]
    backward = [
        [
            bank.sampler(s).resample(mu, sg)
            for mu, sg in zip(reversed(mus), reversed(sigmas))
        ]
        for s in range(bank.n_samples)
    ]
    bank.finish_iteration()
    return forward, backward


def _run_batched(bank: StreamBank, mus, sigmas, prefetch: bool):
    sampler = bank.batched_sampler()
    if prefetch:
        sampler.prefetch_forward([mu.size for mu in mus])
    forward = [sampler.sample(mu, sg) for mu, sg in zip(mus, sigmas)]
    backward = [
        sampler.resample(mu, sg) for mu, sg in zip(reversed(mus), reversed(sigmas))
    ]
    bank.finish_iteration()
    return forward, backward


class TestBitEquivalence:
    @pytest.mark.parametrize("policy", ["stored", "reversible", "reversible-hw"])
    @pytest.mark.parametrize("stride", [1, 8, 64])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_matches_per_sample_samplers(self, policy, stride, prefetch):
        mus, sigmas = _layer_params()
        kwargs = dict(policy=policy, seed=3, lfsr_bits=64, grng_stride=stride)
        seq_bank = StreamBank(4, **kwargs)
        bat_bank = StreamBank(4, **kwargs)
        for _ in range(2):  # two iterations: registers must continue identically
            seq_fwd, seq_bwd = _run_sequential(seq_bank, mus, sigmas)
            bat_fwd, bat_bwd = _run_batched(bat_bank, mus, sigmas, prefetch)
            for layer in range(len(mus)):
                for s in range(4):
                    assert np.array_equal(
                        seq_fwd[s][layer].weights, bat_fwd[layer].weights[s]
                    )
                    assert np.array_equal(
                        seq_fwd[s][layer].epsilon, bat_fwd[layer].epsilon[s]
                    )
                    assert np.array_equal(
                        seq_bwd[s][layer].weights, bat_bwd[layer].weights[s]
                    )
                    assert np.array_equal(
                        seq_bwd[s][layer].epsilon, bat_bwd[layer].epsilon[s]
                    )
            seq_states = [snap.state for snap in seq_bank.snapshots()]
            bat_states = [snap.state for snap in bat_bank.snapshots()]
            assert seq_states == bat_states
            seq_sums = [snap.sum_register for snap in seq_bank.snapshots()]
            bat_sums = [snap.sum_register for snap in bat_bank.snapshots()]
            assert seq_sums == bat_sums

    @pytest.mark.parametrize("policy", ["stored", "reversible", "reversible-hw"])
    def test_traffic_accounting_matches_per_sample_streams(self, policy):
        mus, sigmas = _layer_params()
        seq_bank = StreamBank(3, policy=policy, seed=1, lfsr_bits=64, grng_stride=4)
        bat_bank = StreamBank(3, policy=policy, seed=1, lfsr_bits=64, grng_stride=4)
        _run_sequential(seq_bank, mus, sigmas)
        _run_batched(bat_bank, mus, sigmas, prefetch=True)
        for seq_stream, bat_stream in zip(seq_bank.streams, bat_bank.streams):
            assert vars(seq_stream.usage) == vars(bat_stream.usage)
        assert (
            seq_bank.total_offchip_epsilon_bytes()
            == bat_bank.total_offchip_epsilon_bytes()
        )
        assert (
            seq_bank.total_epsilon_footprint_bytes()
            == bat_bank.total_epsilon_footprint_bytes()
        )

    def test_forward_epsilons_continue_the_row_streams(self):
        """The batched superblock consumes the same stream the row views do."""
        bank = StreamBank(2, policy="reversible", seed=5, lfsr_bits=64, grng_stride=2)
        reference = GrngBank(
            n_bits=64,
            seed_indices=[5 * 1024, 5 * 1024 + 1],
            stride=2,
        )
        sampler = bank.batched_sampler()
        mu = np.zeros(6)
        sigma = np.ones(6)
        batch = sampler.sample(mu, sigma)
        expected = reference.epsilon_blocks(6)
        assert np.array_equal(batch.epsilon, expected)


class TestContracts:
    def _bank(self, policy="reversible"):
        return StreamBank(2, policy=policy, seed=0, lfsr_bits=64, grng_stride=2)

    def test_resample_without_sample_raises(self):
        sampler = self._bank().batched_sampler()
        with pytest.raises(StreamOrderError):
            sampler.resample(np.zeros(3), np.ones(3))

    def test_resample_shape_mismatch_raises(self):
        sampler = self._bank().batched_sampler()
        sampler.sample(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(StreamOrderError):
            sampler.resample(np.zeros(6), np.ones(6))

    def test_prefetch_count_mismatch_raises(self):
        sampler = self._bank().batched_sampler()
        sampler.prefetch_forward([4])
        with pytest.raises(StreamOrderError):
            sampler.sample(np.zeros(5), np.ones(5))

    def test_prefetch_mismatch_preserves_the_schedule(self):
        """An out-of-schedule request must not consume the peeked block."""
        reference_bank = self._bank()
        probed_bank = self._bank()
        reference = reference_bank.batched_sampler()
        probed = probed_bank.batched_sampler()
        reference.prefetch_forward([4, 6])
        probed.prefetch_forward([4, 6])
        with pytest.raises(StreamOrderError):
            probed.sample(np.zeros(5), np.ones(5))
        for count in (4, 6):
            expected = reference.sample(np.zeros(count), np.ones(count))
            recovered = probed.sample(np.zeros(count), np.ones(count))
            assert np.array_equal(expected.epsilon, recovered.epsilon)

    def test_double_prefetch_raises(self):
        sampler = self._bank().batched_sampler()
        sampler.prefetch_forward([4])
        with pytest.raises(StreamOrderError):
            sampler.prefetch_forward([4])

    def test_backward_with_unconsumed_prefetch_raises(self):
        sampler = self._bank().batched_sampler()
        sampler.prefetch_forward([3, 3])
        sampler.sample(np.zeros(3), np.ones(3))
        with pytest.raises(StreamOrderError):
            sampler.resample(np.zeros(3), np.ones(3))

    def test_sample_during_retrieval_raises(self):
        sampler = self._bank().batched_sampler()
        sampler.sample(np.zeros(3), np.ones(3))
        sampler.sample(np.zeros(4), np.ones(4))
        sampler.resample(np.zeros(4), np.ones(4))
        with pytest.raises(StreamOrderError):
            sampler.sample(np.zeros(5), np.ones(5))

    def test_finish_with_pending_blocks_raises(self):
        bank = self._bank()
        sampler = bank.batched_sampler()
        sampler.sample(np.zeros(3), np.ones(3))
        with pytest.raises(StreamOrderError):
            bank.finish_iteration()
        sampler.discard_pending()
        bank.finish_iteration()

    def test_mismatched_shapes_rejected(self):
        sampler = self._bank().batched_sampler()
        with pytest.raises(ValueError):
            sampler.sample(np.zeros(3), np.ones(4))
        with pytest.raises(ValueError):
            sampler.sample(np.zeros(3), -np.ones(3))

    def test_batch_container_validates_shapes(self):
        with pytest.raises(ValueError):
            SampledWeightsBatch(weights=np.zeros((2, 3)), epsilon=np.zeros((2, 4)))
        batch = SampledWeightsBatch(weights=np.zeros((2, 3)), epsilon=np.zeros((2, 3)))
        assert batch.n_samples == 2

    def test_unknown_policy_rejected(self):
        bank = self._bank()
        with pytest.raises(ValueError):
            BatchedWeightSampler(
                bank.grng_bank,
                [stream.usage for stream in bank.streams],
                policy="nope",
            )


class TestStridedKernel:
    """The strided / packed popcount kernels equal the dense reference."""

    @pytest.mark.parametrize("n_bits", [64, 24])
    @pytest.mark.parametrize("stride", [2, 8, 64, 128])
    def test_window_popcounts_strided_equals_dense_subsample(self, n_bits, stride):
        from repro.core import LfsrArray

        count = stride * 9
        dense_array = LfsrArray.from_seed_indices(n_bits, [0, 1, 2])
        strided_array = LfsrArray.from_seed_indices(n_bits, [0, 1, 2])
        dense = dense_array.window_popcounts(count)[:, stride - 1 :: stride]
        strided = strided_array.window_popcounts(count, stride=stride)
        assert np.array_equal(dense, strided)
        assert dense_array.states() == strided_array.states()

    def test_strided_requires_divisible_count(self):
        from repro.core import LfsrArray

        array = LfsrArray.from_seed_indices(64, [0])
        with pytest.raises(ValueError):
            array.window_popcounts(10, stride=3)

    def test_chunked_generation_equals_single_call(self, monkeypatch):
        import repro.core.backend as backend

        small = GrngBank(n_rows=2, n_bits=64, stride=2)
        chunked = GrngBank(n_rows=2, n_bits=64, stride=2)
        count = 500
        forward, reverse = small.epsilon_blocks(count), small.epsilon_blocks_reverse(count)
        # the NumPy path's byte cap (stride 2 is outside the compiled
        # kernel's domain): 2 rows * 2 shifts -> 32 variables per kernel call
        monkeypatch.setattr(backend, "_KERNEL_SEQ_BYTES", 16)
        backend.reset_counters()
        assert np.array_equal(forward, chunked.epsilon_blocks(count))
        assert np.array_equal(reverse, chunked.epsilon_blocks_reverse(count))
        assert small.lfsr_array.states() == chunked.lfsr_array.states()
        stepped = backend.counters_snapshot()["lfsr_step_block"]["reference"]
        assert stepped["calls"] == 2 * -(-count // 32)

    def test_replay_blocks_round_trip(self):
        bank = GrngBank(n_rows=3, n_bits=64, stride=4)
        start = bank.states()
        first = bank.epsilon_blocks(11)
        end = bank.states()
        replayed = bank.replay_blocks(start, 11, expected_end_states=end)
        assert np.array_equal(first, replayed)
        assert bank.states() == end

    def test_replay_blocks_detects_modified_registers(self):
        from repro.core import ReplayError

        bank = GrngBank(n_rows=2, n_bits=64, stride=1)
        start = bank.states()
        bank.epsilon_blocks(5)
        end = bank.states()
        with pytest.raises(ReplayError):
            bank.replay_blocks(start, 5, expected_end_states=[e ^ 1 for e in end])

    def test_failed_replay_leaves_registers_untouched(self):
        """A mismatched whole-span replay must not move any row."""
        from repro.core import ReplayError

        bank = GrngBank(n_rows=3, n_bits=64, stride=2)
        start = bank.states()
        bank.epsilon_blocks(7)
        end = bank.states()
        shift_counts = bank.lfsr_array.shift_counts
        bad_end = list(end)
        bad_end[1] ^= 2  # only row 1 "tampered"
        with pytest.raises(ReplayError):
            bank.replay_blocks(start, 7, expected_end_states=bad_end)
        assert bank.states() == end
        assert list(bank.lfsr_array.shift_counts) == list(shift_counts)
        # the bank is still usable: a correct replay succeeds afterwards
        values = bank.replay_blocks(start, 7, expected_end_states=end)
        assert values.shape == (3, 7)

    def test_hw_discard_drops_stale_resume_states(self):
        """Stale reversible-hw resume states must die with discard_pending."""
        bank = StreamBank(2, policy="reversible-hw", seed=1, lfsr_bits=64, grng_stride=2)
        sampler = bank.batched_sampler()
        sampler.sample(np.zeros(4), np.ones(4))
        sampler.sample(np.zeros(4), np.ones(4))
        # partial backward: records the old span's end states and rewinds
        sampler.resample(np.zeros(4), np.ones(4))
        sampler.discard_pending()
        # new forward span, also discarded (prediction-style)
        sampler.sample(np.zeros(6), np.ones(6))
        sampler.discard_pending()
        states_before_finish = [snap.state for snap in bank.snapshots()]
        bank.finish_iteration()
        # finish must NOT teleport the registers to the discarded span's end
        assert [snap.state for snap in bank.snapshots()] == states_before_finish
