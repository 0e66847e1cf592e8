"""Unit tests for one-row weight sampling, register states and the stream bank."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_tiny_bayes_network, draw, one_row_sampler, retrieve
from oracle import OracleGRNG
from repro.core import BatchedWeightSampler, GrngBank, StreamBank


def make_sampler(seed_index: int = 0) -> BatchedWeightSampler:
    return one_row_sampler("reversible", n_bits=64, seed_index=seed_index, stride=4)


class TestOneRowSampler:
    def test_sample_formula(self):
        sampler = one_row_sampler("stored")
        mu = np.full((3, 3), 2.0)
        sigma = np.full((3, 3), 0.5)
        sampled = sampler.sample(mu, sigma)
        assert sampled.weights.shape == (1, 3, 3)
        assert sampled.weights.tobytes() == (mu + sampled.epsilon * sigma).tobytes()

    def test_resample_reproduces_weights(self):
        sampler = make_sampler()
        mu = np.linspace(-1, 1, 12).reshape(3, 4)
        sigma = np.full((3, 4), 0.1)
        first = sampler.sample(mu, sigma)
        second = sampler.resample(mu, sigma)
        assert np.array_equal(first.weights, second.weights)
        assert first.weights.tobytes() == (mu + second.epsilon * sigma).tobytes()

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
        assert np.array_equal(sampled.weights[0], mu)

    def test_finish_iteration_requires_balanced_blocks(self):
        sampler = make_sampler()
        sampler.sample(np.zeros(4), np.ones(4))
        with pytest.raises(Exception):
            sampler.finish_iteration()

    def test_usage_is_the_one_rows_record(self):
        bank = StreamBank(2, seed=1)
        assert bank.sampler(1).usage is bank.usages[1]
        assert bank.sampler(1).bank.n_rows == 1
        with pytest.raises(ValueError, match="usages"):
            bank.batched_sampler().usage

    def test_resample_reproduces_layer_sized_weights(self):
        sampler = StreamBank(1, policy="reversible", seed=0, grng_stride=16).sampler(0)
        mu = np.zeros((256, 64))
        sigma = np.full((256, 64), 0.05)
        for _ in range(2):
            first = sampler.sample(mu, sigma)
            second = sampler.resample(mu, sigma)
            assert second.weights.shape == (1, 256, 64)
            assert first.weights.tobytes() == second.weights.tobytes()
            sampler.finish_iteration()


def one_row(n_bits: int = 64, seed_index: int = 0, stride: int = 1) -> GrngBank:
    return GrngBank(n_bits=n_bits, seed_indices=[seed_index], stride=stride)


class TestRegisterStates:
    """A generator's register is its whole state: reading it with
    ``states()`` and writing it back with ``set_states`` rewinds the stream."""

    def test_capture_and_restore(self):
        bank = one_row(seed_index=3)
        states = bank.states()
        before = bank.epsilon_blocks(20)[0]
        assert before.tobytes() == OracleGRNG(64, seed_index=3).epsilon_block(20).tobytes()
        bank.set_states(states)
        after = bank.epsilon_blocks(20)[0]
        assert np.array_equal(before, after)

    def test_states_roundtrip_mid_block(self):
        # A register read mid-block (between one-value draws) must reproduce
        # the exact continuation, forward and reversed.
        bank = one_row(seed_index=5, stride=4)
        for _ in range(3):  # park the generator mid-way through a block
            bank.epsilon_blocks(1)
        states = bank.states()
        continuation = [bank.epsilon_blocks(1)[0, 0] for _ in range(5)]
        bank.set_states(states)
        assert [bank.epsilon_blocks(1)[0, 0] for _ in range(5)] == continuation
        assert bank.epsilon_blocks_reverse(5)[0].tolist() == continuation[::-1]
        assert bank.states() == states

    def test_a_register_moves_a_generator_onto_another_row(self):
        # Written into a row with another seed and history, the register
        # continues the stream it was read from.
        bank = one_row(seed_index=7, stride=2)
        bank.epsilon_blocks(9)
        other = one_row(seed_index=8, stride=2)
        other.epsilon_blocks(4)
        other.set_states(bank.states())
        assert other.epsilon_blocks(6).tobytes() == bank.epsilon_blocks(6).tobytes()
        assert other.states() == bank.states()

    def test_states_roundtrip_one_row_of_a_bank(self):
        bank = GrngBank(2, n_bits=64, stride=4)
        bank.epsilon_blocks(6)
        states = bank.row_bank(1).states()
        assert states == bank.states()[1:]
        before = bank.epsilon_blocks(12)
        other_row = bank.states()[0]
        bank.row_bank(1).set_states(states)
        assert bank.states()[0] == other_row  # row 0 is not touched
        assert np.array_equal(bank.row_bank(1).epsilon_blocks(12)[0], before[1])


class TestStreamBank:
    def test_requires_positive_samples(self):
        with pytest.raises(ValueError):
            StreamBank(0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            StreamBank(2, policy="magic")  # type: ignore[arg-type]

    def test_len_and_streams(self):
        bank = StreamBank(3, seed=1)
        assert len(bank) == 3
        assert len(bank.streams) == 3
        assert len(bank.usages) == 3
        assert bank.streams[2] is bank.sampler(2) is bank.sampler(-1)
        with pytest.raises(IndexError):
            bank.sampler(3)

    def test_per_sample_streams_are_distinct(self):
        bank = StreamBank(4, seed=1)
        blocks = [draw(sampler, (8,)) for sampler in bank.streams]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(blocks[i], blocks[j])

    def test_same_seed_same_policy_reproducible(self):
        a = draw(StreamBank(2, seed=5).sampler(0), (6,))
        b = draw(StreamBank(2, seed=5).sampler(0), (6,))
        assert np.array_equal(a, b)

    def test_policies_share_epsilon_values(self):
        stored = StreamBank(2, policy="stored", seed=7)
        reversible = StreamBank(2, policy="reversible", seed=7)
        for index in range(2):
            a = draw(stored.sampler(index), (5,))
            b = draw(reversible.sampler(index), (5,))
            assert np.array_equal(a, b)

    def test_different_bank_seeds_differ(self):
        a = draw(StreamBank(1, seed=1).sampler(0), (6,))
        b = draw(StreamBank(1, seed=2).sampler(0), (6,))
        assert not np.allclose(a, b)

    def test_snapshot_restore_roundtrip(self):
        bank = StreamBank(2, seed=3)
        snapshots = bank.snapshots()
        first = [draw(sampler, (4,)) for sampler in bank.streams]
        for sampler in bank.streams:
            sampler.discard_pending()
        bank.restore(snapshots)
        second = [draw(sampler, (4,)) for sampler in bank.streams]
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_restore_length_mismatch_rejected(self):
        bank = StreamBank(2, seed=3)
        with pytest.raises(ValueError):
            bank.restore(bank.snapshots()[:1])

    def test_traffic_accounting_by_policy(self):
        mu, sigma = np.zeros((16, 16)), np.ones((16, 16))
        stored = StreamBank(2, policy="stored", seed=1)
        reversible = StreamBank(2, policy="reversible", seed=1)
        for bank in (stored, reversible):
            for sampler in bank.streams:
                sampler.sample(mu, sigma)
                sampler.resample(mu, sigma)
            bank.finish_iteration()
        assert stored.total_offchip_epsilon_bytes() > 0
        assert reversible.total_offchip_epsilon_bytes() == 0
        assert reversible.total_epsilon_footprint_bytes() < stored.total_epsilon_footprint_bytes()

    def test_grng_stride_is_forwarded(self):
        bank = StreamBank(1, seed=1, grng_stride=16)
        assert bank.sampler(0).bank.stride == 16

    def test_policy_property(self):
        assert StreamBank(1, policy="stored").policy == "stored"
        assert StreamBank(1).policy == "reversible"

    def test_per_row_iteration_replays_every_stream(self):
        bank = StreamBank(8, policy="reversible", seed=0, grng_stride=16)
        shape = (64, 64)
        previous = None
        for _ in range(2):
            blocks = [draw(sampler, shape) for sampler in bank.streams]
            for sampler, block in zip(bank.streams, blocks):
                assert retrieve(sampler, shape).tobytes() == block.tobytes()
            bank.finish_iteration()
            assert len({block.tobytes() for block in blocks}) == len(bank)
            # the next iteration draws fresh epsilons, never a replay
            if previous is not None:
                assert not np.array_equal(blocks[0], previous)
            previous = blocks[0]

    def test_one_row_draw_leaves_the_other_rows_untouched(self):
        bank = StreamBank(3, seed=2, lfsr_bits=64, grng_stride=4)
        states = bank.grng_bank.states()
        draw(bank.sampler(1), (9,))
        moved = bank.grng_bank.states()
        assert [moved[0], moved[2]] == [states[0], states[2]]
        assert moved[1] != states[1]


class TestLazySamplers:
    """A bank builds a per-sample sampler only when one is asked for."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        built = []
        init = BatchedWeightSampler.__init__

        def counting_init(self, bank, usages, policy):
            built.append(bank.n_rows)
            init(self, bank, usages, policy)

        monkeypatch.setattr(BatchedWeightSampler, "__init__", counting_init)
        return built

    def test_mc_predict_builds_one_sampler(self, constructions):
        from repro.bnn import mc_predict

        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
        mc_predict(build_tiny_bayes_network(), x, n_samples=4, grng_stride=16)
        assert constructions == [4]

    def test_epsilon_sweep_builds_one_sampler(self, constructions):
        from repro.serve import SamplingConfig
        from repro.serve.executor import materialize_epsilon_sweep

        materialize_epsilon_sweep([(3, 2), (5,)], SamplingConfig(n_samples=4))
        assert constructions == [4]

    def test_per_sample_samplers_are_built_on_first_use(self, constructions):
        bank = StreamBank(3, seed=1)
        assert constructions == []
        assert bank.sampler(1) is bank.sampler(1)
        assert constructions == [1]
        bank.streams
        assert constructions == [1, 1, 1]


def _tweaked_snapshots(bank: StreamBank) -> list[int]:
    """Every row moved to another register."""
    return [state ^ 0b101 for state in bank.snapshots()]


class TestInPlaceRegisterWrites:
    """A per-sample sampler built before a register write draws what one
    built after it draws: every write lands in the bank's own arrays."""

    @staticmethod
    def _draws(bank: StreamBank) -> list:
        draws = []
        for sampler in bank.streams:
            draws.append(draw(sampler, (7,)).tobytes())
            draws.append(retrieve(sampler, (7,)).tobytes())
        bank.finish_iteration()
        return draws + [repr(bank.grng_bank.states())]

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    @pytest.mark.parametrize("write", ["set_states", "row_bank", "restore"])
    def test_sampler_built_before_a_write_sees_it(self, policy, write):
        def apply(bank: StreamBank) -> None:
            grng = bank.grng_bank
            states = [state ^ 0b11 for state in grng.states()]
            if write == "set_states":
                grng.set_states(states)
            elif write == "row_bank":
                for row, state in enumerate(states):
                    grng.row_bank(row).set_states([state])
            else:
                bank.restore(_tweaked_snapshots(bank))

        kwargs = dict(policy=policy, seed=4, lfsr_bits=64, grng_stride=4)
        early, late = StreamBank(3, **kwargs), StreamBank(3, **kwargs)
        early.streams  # build the samplers before the write
        apply(early)
        apply(late)
        assert self._draws(early) == self._draws(late)

    @pytest.mark.parametrize("policy", ["stored", "reversible"])
    def test_sampler_built_before_a_checkpoint_load_sees_it(self, policy, tmp_path):
        from repro.bnn import BNNTrainer, TrainerConfig, load_checkpoint, save_checkpoint

        config = TrainerConfig(n_samples=2, seed=3, grng_stride=16, batched=False)
        x = np.random.default_rng(0).standard_normal((2, 1, 4, 4))
        y = np.array([0, 2])

        def trainer() -> BNNTrainer:
            return BNNTrainer(build_tiny_bayes_network(), config, policy=policy)

        saved = trainer()
        saved.train_step(x, y)
        path = save_checkpoint(saved, tmp_path / "state")
        early, late = trainer(), trainer()
        early.bank.streams  # build the samplers before the load
        load_checkpoint(early, path)
        load_checkpoint(late, path)
        assert early.bank.grng_bank.states() == saved.bank.grng_bank.states()
        assert self._draws(early.bank) == self._draws(late.bank)
