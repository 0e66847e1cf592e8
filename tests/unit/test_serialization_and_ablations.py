"""Unit tests for checkpoint serialization and the ablation experiments."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import build_tiny_bayes_network
from repro.bnn import (
    BNNTrainer,
    CheckpointMismatchError,
    ShiftBNNTrainer,
    TrainerConfig,
    load_checkpoint,
    load_parameters,
    mc_predict,
    save_checkpoint,
    save_parameters,
)
from repro.bnn.serialization import state_fingerprint, tensor_fingerprint
from repro.experiments import (
    run_bandwidth_sensitivity_ablation,
    run_grng_quality_ablation,
    run_spu_scaling_ablation,
)
from repro.models import get_model


@pytest.fixture
def tiny_model_pair():
    spec = get_model("B-MLP", reduced=True)
    return spec.build_bayesian(seed=1), spec.build_bayesian(seed=2)


class TestSerialization:
    def test_roundtrip_restores_every_parameter(self, tiny_model_pair, tmp_path):
        source, target = tiny_model_pair
        path = save_parameters(source, tmp_path / "checkpoint")
        assert path.suffix == ".npz"
        load_parameters(target, path)
        for a, b in zip(source.parameters(), target.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_roundtrip_preserves_predictions(self, tiny_model_pair, tmp_path, rng):
        source, target = tiny_model_pair
        x = rng.normal(size=(4, 196))
        before = mc_predict(source, x, n_samples=2, seed=3, grng_stride=16)
        path = save_parameters(source, tmp_path / "model.npz")
        load_parameters(target, path)
        after = mc_predict(target, x, n_samples=2, seed=3, grng_stride=16)
        assert np.allclose(before.mean_probabilities, after.mean_probabilities)

    def test_structure_mismatch_rejected(self, tmp_path):
        mlp = get_model("B-MLP", reduced=True).build_bayesian(seed=1)
        lenet = get_model("B-LeNet", reduced=True).build_bayesian(seed=1)
        path = save_parameters(mlp, tmp_path / "mlp.npz")
        with pytest.raises(CheckpointMismatchError):
            load_parameters(lenet, path)

    def test_non_strict_load_ignores_missing_and_extra_entries(self, tmp_path):
        import numpy as np
        from repro.bnn import BayesDense, BayesianNetwork

        mlp = get_model("B-MLP", reduced=True).build_bayesian(seed=1)
        path = save_parameters(mlp, tmp_path / "mlp.npz")
        # A partial model that shares only the first layer with the checkpoint:
        # the shared parameters load, the checkpoint's extra entries are ignored.
        partial = BayesianNetwork(
            [BayesDense(196, 64, rng=np.random.default_rng(0), name="fc1")],
            name="partial",
        )
        load_parameters(partial, path, strict=False)
        source_fc1 = mlp.bayesian_layers()[0]
        assert np.array_equal(
            partial.bayesian_layers()[0].weight_posterior.mu.value,
            source_fc1.weight_posterior.mu.value,
        )
        # strict mode rejects the same combination
        with pytest.raises(CheckpointMismatchError):
            load_parameters(partial, path, strict=True)

    def test_invalid_archive_rejected(self, tmp_path):
        target = get_model("B-MLP", reduced=True).build_bayesian(seed=1)
        bogus = tmp_path / "bogus.npz"
        np.savez(bogus, something=np.zeros(3))
        with pytest.raises(CheckpointMismatchError):
            load_parameters(target, bogus)

    def test_checkpoint_of_trained_model(self, tmp_path, rng):
        spec = get_model("B-MLP", reduced=True)
        trainer = ShiftBNNTrainer(
            spec.build_bayesian(seed=5),
            TrainerConfig(n_samples=1, learning_rate=5e-3, seed=5, grng_stride=16),
        )
        x = rng.normal(size=(32, 196))
        y = rng.integers(0, 10, size=32)
        trainer.fit([(x, y)], epochs=1)
        path = save_parameters(trainer.model, tmp_path / "trained.npz")
        clone = spec.build_bayesian(seed=0)
        load_parameters(clone, path)
        for a, b in zip(trainer.model.parameters(), clone.parameters()):
            assert np.array_equal(a.value, b.value)


#: A training checkpoint written by a build whose generator bank still kept a
#: bit-sum register beside each LFSR, so every generator record carries a
#: ``sum_register``: ``_legacy_trainer()`` saved after the first two of the
#: four steps ``_legacy_fit`` runs.
LEGACY_CHECKPOINT = Path(__file__).parents[1] / "data" / "legacy_sum_register_ckpt.npz"


def _legacy_trainer() -> BNNTrainer:
    config = TrainerConfig(n_samples=2, learning_rate=5e-2, seed=3, grng_stride=16)
    return BNNTrainer(build_tiny_bayes_network(), config, policy="reversible")


def _legacy_fit(trainer: BNNTrainer, resume: bool = False) -> None:
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 1, 4, 4))
    y = np.array([0, 2, 1, 2])
    trainer.fit([(x[:2], y[:2]), (x[2:], y[2:])], epochs=2, resume=resume)


def _fingerprint(trainer: BNNTrainer) -> tuple:
    params = state_fingerprint(
        (param.name, tensor_fingerprint(param.value))
        for param in trainer.model.parameters()
    )
    return params, trainer.bank.grng_bank.states(), trainer.history.losses


class TestLegacyCheckpoints:
    """Checkpoints that carry a bit-sum register per generator still load
    when the sum is the popcount of its register, and only then."""

    def test_legacy_checkpoint_resumes_onto_the_uninterrupted_run(self):
        resumed = _legacy_trainer()
        manifest = load_checkpoint(resumed, LEGACY_CHECKPOINT)
        assert all("sum_register" in record for record in manifest["grng"])
        assert resumed.step_count == 2
        _legacy_fit(resumed, resume=True)
        uninterrupted = _legacy_trainer()
        _legacy_fit(uninterrupted)
        assert _fingerprint(resumed) == _fingerprint(uninterrupted)

    def test_drifted_sum_register_is_refused_before_anything_is_written(self, tmp_path):
        with np.load(LEGACY_CHECKPOINT) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = json.loads(arrays["__manifest__"].tobytes())
        manifest["grng"][1]["sum_register"] += 1
        arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)
        np.savez(tmp_path / "drifted.npz", **arrays)
        trainer = _legacy_trainer()
        params = [param.value.copy() for param in trainer.model.parameters()]
        states = trainer.bank.grng_bank.states()
        with pytest.raises(CheckpointMismatchError, match="generator 1"):
            load_checkpoint(trainer, tmp_path / "drifted.npz")
        for before, param in zip(params, trainer.model.parameters()):
            assert param.value.tobytes() == before.tobytes()
        assert trainer.bank.grng_bank.states() == states
        assert trainer.step_count == 0

    def test_new_checkpoints_write_the_register_alone(self, tmp_path):
        saved = _legacy_trainer()
        _legacy_fit(saved)
        path = save_checkpoint(saved, tmp_path / "fresh")
        restored = _legacy_trainer()
        manifest = load_checkpoint(restored, path)
        assert [set(record) for record in manifest["grng"]] == [
            {"n_bits", "taps", "state"}
        ] * 2
        assert restored.bank.grng_bank.states() == saved.bank.grng_bank.states()

    def test_an_unknown_generator_field_is_refused(self, tmp_path):
        with np.load(LEGACY_CHECKPOINT) as archive:
            arrays = {key: archive[key] for key in archive.files}
        manifest = json.loads(arrays["__manifest__"].tobytes())
        manifest["grng"][0]["phase"] = 5
        arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)
        np.savez(tmp_path / "unknown.npz", **arrays)
        trainer = _legacy_trainer()
        states = trainer.bank.grng_bank.states()
        with pytest.raises(CheckpointMismatchError, match="generator 0's phase 5"):
            load_checkpoint(trainer, tmp_path / "unknown.npz")
        assert trainer.bank.grng_bank.states() == states


class TestAblations:
    def test_grng_quality_improves_with_stride(self):
        result = run_grng_quality_ablation(widths=(256,), strides=(1, 256), sample_count=2048)
        rows = {row[1]: row for row in result.rows}
        std_correlated = rows[1][3]
        std_decorrelated = rows[256][3]
        assert abs(std_decorrelated - 1.0) < abs(std_correlated - 1.0)

    def test_grng_resolution_improves_with_width(self):
        result = run_grng_quality_ablation(widths=(32, 256), strides=(1,), sample_count=512)
        resolutions = dict(zip(result.column("lfsr_bits"), result.column("resolution")))
        assert resolutions[256] < resolutions[32]

    def test_spu_scaling_reduces_latency_monotonically(self):
        result = run_spu_scaling_ablation(spu_counts=(4, 16, 64), n_samples=64)
        latencies = result.column("latency_ms")
        assert latencies == sorted(latencies, reverse=True)
        speedups = result.column("speedup_vs_4_spus")
        assert speedups[-1] > 2.0

    def test_bandwidth_sensitivity_speedup_shrinks_with_more_channels(self):
        result = run_bandwidth_sensitivity_ablation(channel_counts=(1, 8), model_name="B-MLP")
        speedups = result.column("speedup")
        assert speedups[0] >= speedups[-1]

    def test_bandwidth_ablation_energy_reduction_stays_positive(self):
        result = run_bandwidth_sensitivity_ablation(channel_counts=(1, 2, 4))
        assert all(value > 0 for value in result.column("energy_reduction_%"))


class TestReplicaArchives:
    def test_roundtrip_is_fingerprint_identical(self, tmp_path):
        from repro.bnn.serialization import load_replica, save_replica
        from repro.models import ReplicaSpec

        spec = get_model("B-MLP", reduced=True)
        replica = ReplicaSpec.capture(spec, spec.build_bayesian(seed=7))
        path = save_replica(replica, tmp_path / "replica")
        assert path.suffix == ".npz"
        restored = load_replica(path)
        assert restored.fingerprint() == replica.fingerprint()
        for name, array in replica.state.items():
            assert np.array_equal(restored.state[name], array)
        assert restored.build_seed == replica.build_seed

    def test_restored_replica_predicts_bit_identically(self, tmp_path, rng):
        from repro.bnn.serialization import load_replica, save_replica
        from repro.models import ReplicaSpec

        spec = get_model("B-MLP", reduced=True)
        model = spec.build_bayesian(seed=7)
        replica = ReplicaSpec.capture(spec, model)
        restored = load_replica(save_replica(replica, tmp_path / "replica.npz"))
        x = rng.normal(size=(3, 196))
        before = mc_predict(replica.build(), x, n_samples=2, seed=3, grng_stride=16)
        after = mc_predict(restored.build(), x, n_samples=2, seed=3, grng_stride=16)
        assert np.array_equal(before.sample_probabilities, after.sample_probabilities)

    def test_parameter_checkpoint_is_not_a_replica_archive(self, tmp_path):
        from repro.bnn.serialization import load_replica

        model = get_model("B-MLP", reduced=True).build_bayesian(seed=1)
        path = save_parameters(model, tmp_path / "checkpoint.npz")
        with pytest.raises(CheckpointMismatchError):
            load_replica(path)
