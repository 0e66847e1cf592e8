"""Unit tests for the Monte-Carlo weight sampler.

The contract under test: :class:`~repro.core.sampler.BatchedWeightSampler`
serves all ``S`` rows of its bank per call, and its values, register
trajectories and traffic accounting equal an independent reference -- the
bit-serial :class:`oracle.OracleGRNG` per row, a NumPy ``mu + eps * sigma``
and hand-computed :class:`~repro.core.StreamUsage` counts -- for every stream
policy and stride, whether one sampler serves the whole bank or one sampler
per one-row bank serves each sample in turn.  ``TestOneRowPolicies`` holds
both policies' behaviours on a single sample.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import draw, one_row_sampler, retrieve
from oracle import OracleGRNG
from repro.core import GrngBank, StreamBank, StreamOrderError
from repro.core.sampler import BatchedWeightSampler, SampledWeightsBatch

SHAPES = [(7, 5), (3, 4, 2), (11,)]


def _layer_params(seed: int = 0):
    rng = np.random.default_rng(seed)
    mus = [rng.standard_normal(shape) for shape in SHAPES]
    sigmas = [np.abs(rng.standard_normal(shape)) * 0.1 + 0.01 for shape in SHAPES]
    return mus, sigmas


def _step_peak(policy: str) -> int:
    """Traced peak of one warm reduced B-MLP ``train_step`` (S = 8, batch 16)."""
    import tracemalloc

    from repro.bnn import BNNTrainer, TrainerConfig
    from repro.models import get_model

    spec = get_model("B-MLP", reduced=True)
    x = np.random.default_rng(0).standard_normal((16, 196))
    y = np.arange(16) % 10
    trainer = BNNTrainer(
        spec.build_bayesian(seed=1),
        TrainerConfig(n_samples=8, seed=3, grng_stride=256),
        policy=policy,
    )
    trainer.train_step(x, y, kl_weight=0.01)  # gates, workspace, Adam state
    tracemalloc.start()
    try:
        trainer.train_step(x, y, kl_weight=0.01)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _flip_register_bit(bank: GrngBank) -> None:
    """Write a one-row bank's register with its lowest bit flipped."""
    bank.set_states([bank.states()[0] ^ 1])


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


def _run_batched(bank: StreamBank, mus, sigmas):
    sampler = bank.batched_sampler()
    forward = [sampler.sample(mu, sg) for mu, sg in zip(mus, sigmas)]
    backward = [
        sampler.resample(mu, sg) for mu, sg in zip(reversed(mus), reversed(sigmas))
    ]
    bank.finish_iteration()
    return forward, backward


def _oracle_layers(oracles, mus, sigmas):
    """Per layer, the ``(S, *shape)`` oracle epsilons and ``mu + eps * sigma``."""
    epsilons = [
        np.stack([oracle.epsilon_block(mu.size).reshape(mu.shape) for oracle in oracles])
        for mu in mus
    ]
    return epsilons, [mu + eps * sg for eps, mu, sg in zip(epsilons, mus, sigmas)]


def _oracles(seed: int, n_samples: int, stride: int) -> list[OracleGRNG]:
    """The bit-serial twin of every 64-bit row of a ``StreamBank(seed=seed)``."""
    return [OracleGRNG(64, seed * 1024 + s, stride) for s in range(n_samples)]


class TestAgainstTheOracle:
    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    @pytest.mark.parametrize("stride", [1, 8, 64])
    def test_matches_the_oracle_per_sample_and_batched(self, policy, stride):
        mus, sigmas = _layer_params()
        kwargs = dict(policy=policy, seed=3, lfsr_bits=64, grng_stride=stride)
        seq_bank = StreamBank(4, **kwargs)
        bat_bank = StreamBank(4, **kwargs)
        oracles = _oracles(3, 4, stride)
        for _ in range(2):  # two iterations: registers must continue identically
            epsilons, weights = _oracle_layers(oracles, mus, sigmas)
            seq_fwd, seq_bwd = _run_sequential(seq_bank, mus, sigmas)
            bat_fwd, bat_bwd = _run_batched(bat_bank, mus, sigmas)
            for layer in range(len(mus)):
                # only "stored" materialises forward epsilons
                if policy != "stored":
                    assert bat_fwd[layer].epsilon is None
                    assert all(f[layer].epsilon is None for f in seq_fwd)
                back = len(mus) - 1 - layer
                want_w, want_eps = weights[layer].tobytes(), epsilons[layer].tobytes()
                assert bat_fwd[layer].weights.tobytes() == want_w
                assert bat_bwd[back].weights.tobytes() == want_w
                assert bat_bwd[back].epsilon.tobytes() == want_eps
                seq = [np.concatenate([f[layer].weights for f in seq_fwd])]
                seq += [np.concatenate([b[back].weights for b in seq_bwd])]
                assert [a.tobytes() for a in seq] == [want_w, want_w]
                eps = np.concatenate([b[back].epsilon for b in seq_bwd])
                assert eps.tobytes() == want_eps
                if policy == "stored":
                    assert bat_fwd[layer].epsilon.tobytes() == want_eps
            for bank in (seq_bank, bat_bank):
                assert bank.snapshots() == [o.state for o in oracles]

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    def test_traffic_accounting_is_hand_computed(self, policy):
        # SHAPES hold 35 + 24 + 11 = 70 values per sample and iteration at
        # 2 bytes each; "stored" keeps all three blocks at once before the
        # backward pass releases them, "reversible" keeps nothing.
        mus, sigmas = _layer_params()
        stored = policy == "stored"
        want = {
            "bytes_per_value": 2,
            "generated_values": 70,
            "retrieved_values": 70,
            "stored_values_peak": 70 if stored else 0,
            "stored_values_current": 0,
        }
        seq_bank = StreamBank(3, policy=policy, seed=1, lfsr_bits=64, grng_stride=4)
        bat_bank = StreamBank(3, policy=policy, seed=1, lfsr_bits=64, grng_stride=4)
        _run_sequential(seq_bank, mus, sigmas)
        _run_batched(bat_bank, mus, sigmas)
        for bank in (seq_bank, bat_bank):
            assert [vars(usage) for usage in bank.usages] == [want] * 3
            # written once and read once per sample
            assert bank.total_offchip_epsilon_bytes() == (3 * 2 * 140 if stored else 0)
            assert bank.total_epsilon_footprint_bytes() == (3 * 140 if stored else 0)

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    def test_forward_epsilons_continue_the_row_streams(self, policy):
        """The batched blocks consume the same stream as the bare bank."""
        bank = StreamBank(2, policy=policy, seed=5, lfsr_bits=64, grng_stride=2)
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
        # 0 + eps * 1 is eps bit for bit (an epsilon is never -0.0)
        assert batch.weights.tobytes() == expected.tobytes()
        if policy == "stored":
            assert np.array_equal(batch.epsilon, expected)
        assert np.array_equal(sampler.resample(mu, sigma).epsilon, expected)


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

    def test_a_refused_request_draws_nothing(self):
        bank, twin = self._bank(), self._bank()
        sampler = bank.batched_sampler()
        states = bank.grng_bank.states()
        with pytest.raises(ValueError):
            sampler.sample(np.zeros(4), np.ones(5))
        assert bank.grng_bank.states() == states
        assert sampler.pending_blocks == 0
        got = sampler.sample(np.zeros(4), np.ones(4))
        want = twin.batched_sampler().sample(np.zeros(4), np.ones(4))
        assert got.weights.tobytes() == want.weights.tobytes()

    def test_each_layer_draws_just_in_time(self):
        """A forward pass draws each layer's block when the layer asks, and
        that block only: the registers never run ahead of the layers."""
        bank = self._bank()
        twin = GrngBank(n_bits=64, seed_indices=[0, 1], stride=2)
        sampler = bank.batched_sampler()
        for shape in SHAPES:
            batch = sampler.sample(np.zeros(shape), np.ones(shape))
            want = twin.epsilon_blocks(int(np.prod(shape)))
            assert batch.weights.reshape(2, -1).tobytes() == want.tobytes()
            assert bank.grng_bank.states() == twin.states()

    def test_batch_container_validates_shapes(self):
        with pytest.raises(ValueError):
            SampledWeightsBatch(weights=np.zeros((2, 3)), epsilon=np.zeros((2, 4)))
        batch = SampledWeightsBatch(weights=np.zeros((2, 3)), epsilon=np.zeros((2, 3)))
        assert batch.n_samples == 2

    def test_unknown_policy_rejected(self):
        bank = self._bank()
        with pytest.raises(ValueError):
            BatchedWeightSampler(bank.grng_bank, bank.usages, policy="nope")


class TestStridedKernel:
    """The strided / packed popcount kernels equal the dense reference."""

    @pytest.mark.parametrize("n_bits", [64, 24])
    @pytest.mark.parametrize("stride", [2, 8, 64, 128])
    def test_strided_bank_equals_dense_subsample(self, n_bits, stride):
        # A strided bank emits the values of every stride-th pattern of the
        # dense (stride 1) stream and lands on the same registers.
        dense_bank = GrngBank(n_rows=3, n_bits=n_bits, stride=1)
        strided_bank = GrngBank(n_rows=3, n_bits=n_bits, stride=stride)
        dense = dense_bank.epsilon_blocks(stride * 9)[:, stride - 1 :: stride]
        strided = strided_bank.epsilon_blocks(9)
        assert np.array_equal(dense, strided)
        assert dense_bank.states() == strided_bank.states()

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
        assert small.states() == chunked.states()
        stepped = backend.counters_snapshot()["lfsr_step_block"]["reference"]
        # both directions chunk alike, 16 chunks each, but only a call's first
        # chunk runs the counted stepper (the rest continue its sequence);
        # the reverse adds its jump's one short run
        assert stepped["calls"] == 2 + 1

    def test_chunked_reference_weights_equal_single_call(
        self, monkeypatch, restore_selection
    ):
        import repro.core.backend as backend

        # the NumPy grng_block writes each chunk's weights as it goes; at a
        # 32-variable cap, 500 variables span 16 chunks, the last a partial
        backend.set_backend("grng_block", "reference")
        rng = np.random.default_rng(3)
        mu, sigma = rng.standard_normal(500), rng.random(500)
        whole, chunked = GrngBank(n_rows=2, n_bits=64, stride=2), GrngBank(
            n_rows=2, n_bits=64, stride=2
        )
        want_w, want_eps = whole.weight_blocks(mu, sigma, epsilon=True)
        monkeypatch.setattr(backend, "_KERNEL_SEQ_BYTES", 16)
        got_w, got_eps = chunked.weight_blocks(mu, sigma)
        assert got_eps is None
        assert got_w.tobytes() == want_w.tobytes()
        assert got_w.tobytes() == (mu + want_eps * sigma).tobytes()
        assert whole.states() == chunked.states()

    def test_replay_weight_blocks_round_trip(self):
        bank = GrngBank(n_rows=3, n_bits=64, stride=4)
        start = bank.register_words()
        first = bank.epsilon_blocks(11)
        end = bank.register_words()
        weights, replayed, started, landed = bank.replay_weight_blocks(
            start, np.zeros(11), np.ones(11)
        )
        assert np.array_equal(first, replayed)
        assert weights.tobytes() == first.tobytes()  # 0 + eps * 1
        assert started is start
        assert np.array_equal(landed, end)
        assert np.array_equal(bank.register_words(), end)
        # the same replay, jumped back from where it ended, in one call
        again = bank.replay_weight_blocks(end, np.zeros(11), np.ones(11), rewind=11 * 4)
        assert again[0].tobytes() == weights.tobytes()
        assert again[1].tobytes() == replayed.tobytes()
        assert np.array_equal(again[2], start) and np.array_equal(again[3], end)

    def test_replay_weight_blocks_leaves_the_bank_alone(self):
        """A replay from any start words moves no register."""
        bank = GrngBank(n_rows=3, n_bits=64, stride=2)
        start = bank.register_words()
        bank.epsilon_blocks(7)
        end = bank.states()
        stale = start.copy()
        stale[1, 0] ^= np.uint64(2)  # only row 1 "tampered"
        _, _, _, landed = bank.replay_weight_blocks(stale, np.zeros(7), np.ones(7))
        assert not np.array_equal(landed, bank.register_words())
        assert bank.states() == end

    def test_discard_leaves_the_registers_at_the_forward_frontier(self):
        """A partial backward pass moves no register, so a discard keeps them
        where the forward pass left them, and they continue the stream."""
        bank = StreamBank(2, policy="reversible", seed=1, lfsr_bits=64, grng_stride=2)
        twin = GrngBank(n_bits=64, seed_indices=[1024, 1025], stride=2)
        sampler = bank.batched_sampler()
        sampler.sample(np.zeros(4), np.ones(4))
        sampler.sample(np.zeros(4), np.ones(4))
        twin.epsilon_blocks(8)
        frontier = bank.grng_bank.states()
        assert frontier == twin.states()
        sampler.resample(np.zeros(4), np.ones(4))  # partial backward
        sampler.discard_pending()
        assert bank.grng_bank.states() == frontier
        # new forward span, also discarded (prediction-style)
        sampler.sample(np.zeros(6), np.ones(6))
        sampler.discard_pending()
        states = bank.grng_bank.states()
        bank.finish_iteration()
        # finish must not teleport the registers anywhere
        assert bank.grng_bank.states() == states
        twin.epsilon_blocks(6)
        assert states == twin.states()


class TestRetrievalGuards:
    def test_stored_blocks_are_read_only_and_retrieved_as_generated(self):
        """A caller cannot rewrite the stored block resample() hands back."""
        kwargs = dict(policy="stored", seed=2, lfsr_bits=64, grng_stride=2)
        bank, twin = StreamBank(3, **kwargs), StreamBank(3, **kwargs)
        mu, sigma = np.zeros((4, 5)), np.ones((4, 5))
        forward = bank.batched_sampler().sample(mu, sigma)
        generated = twin.batched_sampler().sample(mu, sigma).epsilon.copy()
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(forward.epsilon, 2, out=forward.epsilon)
        retrieved = bank.batched_sampler().resample(mu, sigma)
        assert retrieved.epsilon.tobytes() == generated.tobytes()
        assert not retrieved.epsilon.flags.writeable
        bank.finish_iteration()

    @pytest.mark.parametrize("row", [0, 2])
    def test_tampered_register_fails_the_first_resample_and_moves_nothing(self, row):
        bank = StreamBank(3, policy="reversible", seed=6, grng_stride=256)
        sampler = bank.batched_sampler()
        layers = [(np.zeros(shape), np.full(shape, 0.1)) for shape in SHAPES]
        for mu, sigma in layers:
            sampler.sample(mu, sigma)
        _flip_register_bit(bank.grng_bank.row_bank(row))
        states = bank.grng_bank.states()
        usage = [dict(vars(usage)) for usage in bank.usages]
        with pytest.raises(StreamOrderError, match="did not land"):
            sampler.resample(*layers[-1])
        assert bank.grng_bank.states() == states
        assert [vars(usage) for usage in bank.usages] == usage
        assert sampler.pending_blocks == len(layers)

    def test_reversible_step_peaks_no_higher_than_stored(self):
        """The paper's memory claim inside the process, without any timing.

        A reduced B-MLP ``reversible`` step regenerates each layer just in
        time and holds no epsilon between its forward and backward passes, so
        its traced peak may not exceed the step that stores every epsilon.
        Both peaks are set by the first layer's backward pass (its weights,
        epsilons and weight gradients), so they are equal up to small Python
        objects -- counters above the small-int cache, ctypes handles -- which
        fall either way by a few hundred bytes; ``noise`` allows for those
        and nothing layer-sized (at S = 8 the smallest layer's block is
        40 KB, the largest 800 KB, a whole-span buffer 1.37 MB).
        """
        noise = 4096
        reversible, stored = _step_peak("reversible"), _step_peak("stored")
        assert reversible <= stored + noise, (reversible, stored)


ALL_POLICIES = ["stored", "reversible"]


class TestOneRowPolicies:
    """Both policies on one sample: a sampler over a one-row bank."""

    def test_identical_seeds_give_identical_blocks_across_policies(self):
        blocks = [
            draw(one_row_sampler(policy, seed_index=5), (2, 5)) for policy in ALL_POLICIES
        ]
        assert blocks[0].tobytes() == blocks[1].tobytes()

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_forward_block_shape(self, policy):
        sampled = one_row_sampler(policy).sample(np.zeros((3, 4)), np.ones((3, 4)))
        assert sampled.weights.shape == (1, 3, 4)
        assert sampled.n_samples == 1

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_single_block_roundtrip(self, policy):
        sampler = one_row_sampler(policy)
        forward = draw(sampler, (4, 4))
        assert retrieve(sampler, (4, 4)).tobytes() == forward.tobytes()

    def test_reversible_policy_matches_stored_values(self):
        shapes = [(3, 3), (7,), (2, 4), (10,)]
        stored = one_row_sampler("stored", seed_index=9)
        reversible = one_row_sampler("reversible", seed_index=9)
        expected = [draw(stored, shape) for shape in shapes]
        for shape in shapes:
            draw(reversible, shape)
        for shape, value in zip(reversed(shapes), reversed(expected)):
            assert np.array_equal(retrieve(stored, shape), value)
            assert np.array_equal(retrieve(reversible, shape), value)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_pending_blocks_property(self, policy):
        sampler = one_row_sampler(policy)
        assert sampler.pending_blocks == 0
        draw(sampler, (2,))
        draw(sampler, (2,))
        assert sampler.pending_blocks == 2
        retrieve(sampler, (2,))
        assert sampler.pending_blocks == 1

    def test_stored_peak_tracks_outstanding_blocks(self):
        sampler = one_row_sampler("stored")
        draw(sampler, (4,))
        draw(sampler, (4,))
        assert sampler.usage.stored_values_peak == 8
        retrieve(sampler, (4,))
        retrieve(sampler, (4,))
        assert sampler.usage.stored_values_current == 0
        assert sampler.usage.stored_values_peak == 8

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_multiple_blocks_lifo_order(self, policy):
        sampler = one_row_sampler(policy)
        first = draw(sampler, (3,))
        second = draw(sampler, (2, 2))
        third = draw(sampler, (5,))
        assert np.array_equal(retrieve(sampler, (5,)), third)
        assert np.array_equal(retrieve(sampler, (2, 2)), second)
        assert np.array_equal(retrieve(sampler, (3,)), first)
        sampler.finish_iteration()

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_refused_shape_keeps_the_block(self, policy):
        """A retrieval refused for its shape consumes nothing: the block is
        still pending, the usage counters did not move, and the right shape
        then retrieves exactly the forward values."""
        sampler = one_row_sampler(policy)
        forward = draw(sampler, (3, 3))
        usage = sampler.usage.state_dict()
        with pytest.raises(StreamOrderError, match="does not match"):
            retrieve(sampler, (9,))
        assert sampler.pending_blocks == 1
        assert sampler.usage.state_dict() == usage
        assert np.array_equal(retrieve(sampler, (3, 3)), forward)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_retrieve_without_forward_raises(self, policy):
        with pytest.raises(StreamOrderError):
            retrieve(one_row_sampler(policy), (1,))

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_finish_with_pending_blocks_raises(self, policy):
        sampler = one_row_sampler(policy)
        draw(sampler, (2,))
        with pytest.raises(StreamOrderError, match="never retrieved"):
            sampler.finish_iteration()
        retrieve(sampler, (2,))
        sampler.finish_iteration()  # must not raise

    def test_next_iteration_draws_fresh_values(self):
        stored = one_row_sampler("stored", seed_index=4)
        reversible = one_row_sampler("reversible", seed_index=4)
        iterations = []
        for _ in range(3):  # three "training iterations"
            blocks = []
            for sampler in (stored, reversible):
                blocks.append(draw(sampler, (6,)))
                retrieve(sampler, (6,))
                sampler.finish_iteration()
            assert blocks[0].tobytes() == blocks[1].tobytes()
            iterations.append(blocks[1])
        assert not np.allclose(iterations[0], iterations[1])
        assert not np.allclose(iterations[1], iterations[2])

    def test_tampered_register_is_detected_and_consumes_nothing(self):
        """A retrieval from a register written between the passes is refused
        with nothing consumed; putting the register back lets it through."""
        sampler = one_row_sampler("reversible", seed_index=2)
        draw(sampler, (4,))
        forward = draw(sampler, (3,))
        usage = sampler.usage.state_dict()
        _flip_register_bit(sampler.bank)
        with pytest.raises(StreamOrderError, match="did not land"):
            retrieve(sampler, (3,))
        assert sampler.pending_blocks == 2
        assert sampler.usage.state_dict() == usage
        _flip_register_bit(sampler.bank)
        assert np.array_equal(retrieve(sampler, (3,)), forward)

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_traffic_accounting_trace_hand_computed(self, policy):
        # Hand-computed trace over one training iteration with three layers of
        # 6, 4 and 2 values (bytes_per_value=2): "stored" keeps all 12 values
        # until the backward pass releases them newest first; "reversible"
        # never stores a value, so every byte count and the footprint stay 0.
        stored = policy == "stored"
        sampler = one_row_sampler(policy)
        usage = sampler.usage
        for shape in [(6,), (4,), (2,)]:
            draw(sampler, shape)
        assert sampler.pending_blocks == 3
        assert usage.generated_values == 12
        assert usage.stored_values_current == (12 if stored else 0)
        retrieve(sampler, (2,))
        assert usage.retrieved_values == 2
        assert usage.stored_values_current == (10 if stored else 0)
        retrieve(sampler, (4,))
        retrieve(sampler, (6,))
        sampler.finish_iteration()
        assert (usage.generated_values, usage.retrieved_values) == (12, 12)
        assert usage.stored_values_current == 0
        assert usage.stored_values_peak == (12 if stored else 0)
        assert usage.offchip_write_bytes == (24 if stored else 0)
        assert usage.offchip_read_bytes == (24 if stored else 0)
        assert usage.footprint_bytes == (24 if stored else 0)
