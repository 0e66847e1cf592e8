"""Unit tests for checkpoint serialization and the ablation experiments."""

from __future__ import annotations

import json
import zipfile
from itertools import permutations
from dataclasses import replace
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
from repro.bnn.serialization import (
    load_replica,
    save_replica,
    state_fingerprint,
    tensor_fingerprint,
)
from repro.distrib.delta import DeltaEncoder
from repro.distrib.worker import ShardEngine
from repro.experiments import (
    run_bandwidth_sensitivity_ablation,
    run_grng_quality_ablation,
    run_spu_scaling_ablation,
)
from repro.models import ReplicaSpec, get_model
from repro.nn.layers import Parameter
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.quantization import QuantizationConfig


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
DATA = Path(__file__).parents[1] / "data"
LEGACY_CHECKPOINT = DATA / "legacy_sum_register_ckpt.npz"


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


def _whole_state(trainer: BNNTrainer) -> tuple:
    """Every byte a checkpoint load may write, in comparable form."""
    slots = trainer.optimizer.state_dict()["slots"]
    return (
        [param.value.tobytes() for param in trainer.model.parameters()],
        {slot: [array.tobytes() for array in arrays] for slot, arrays in slots.items()},
        trainer.bank.grng_bank.states(),
        trainer.bank.usage_state_dicts(),
        trainer.step_count,
        list(trainer.history.losses),
    )


def _rewritten_legacy(tmp_path: Path, edit) -> Path:
    """A copy of the legacy checkpoint with ``edit`` applied to its manifest."""
    with np.load(LEGACY_CHECKPOINT) as archive:
        arrays = {key: archive[key] for key in archive.files}
    manifest = json.loads(arrays["__manifest__"].tobytes())
    edit(manifest)
    arrays["__manifest__"] = np.frombuffer(json.dumps(manifest).encode(), np.uint8)
    np.savez(tmp_path / "edited.npz", **arrays)
    return tmp_path / "edited.npz"


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
        def drift(manifest):
            manifest["grng"][1]["sum_register"] += 1

        trainer = _legacy_trainer()
        before = _whole_state(trainer)
        with pytest.raises(CheckpointMismatchError, match="generator 1"):
            load_checkpoint(trainer, _rewritten_legacy(tmp_path, drift))
        assert _whole_state(trainer) == before

    @pytest.mark.parametrize(
        "field, forge",
        [
            ("state", lambda record: "0x0"),
            ("state", lambda record: hex(int(record["state"], 16) | 1 << 256)),
            ("n_bits", lambda record: 128),
            ("taps", lambda record: record["taps"][:-2] + [record["taps"][-1]]),
        ],
        ids=["zero-register", "register-wider-than-n_bits", "other-n_bits", "other-taps"],
    )
    def test_a_bad_generator_record_is_refused_before_anything_is_written(
        self, tmp_path, field, forge
    ):
        def corrupt(manifest):
            record = manifest["grng"][1]
            record[field] = forge(record)
            del record["sum_register"]  # only the check under test may refuse

        trainer = _legacy_trainer()
        _legacy_fit(trainer)  # move every piece of state off its initial value
        before = _whole_state(trainer)
        with pytest.raises(CheckpointMismatchError, match="generator 1"):
            load_checkpoint(trainer, _rewritten_legacy(tmp_path, corrupt))
        assert _whole_state(trainer) == before

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
        def add_field(manifest):
            manifest["grng"][0]["phase"] = 5

        trainer = _legacy_trainer()
        states = trainer.bank.grng_bank.states()
        with pytest.raises(CheckpointMismatchError, match="generator 0's phase 5"):
            load_checkpoint(trainer, _rewritten_legacy(tmp_path, add_field))
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
        spec = get_model("B-MLP", reduced=True)
        replica = ReplicaSpec.capture(spec, spec.build_bayesian(seed=7))
        path = save_replica(replica, tmp_path / "replica")
        assert path.suffix == ".npz"
        restored = load_replica(path)
        assert restored.fingerprint() == replica.fingerprint()
        for name, array in replica.state.items():
            assert np.array_equal(restored.state[name], array)
        assert restored.build_seed == replica.build_seed

    def test_a_pooled_replica_round_trips(self, tmp_path, tiny_conv_spec):
        replica = ReplicaSpec.capture(tiny_conv_spec, tiny_conv_spec.build_bayesian(seed=3))
        restored = load_replica(save_replica(replica, tmp_path / "replica"))
        assert restored.spec == tiny_conv_spec
        assert restored.fingerprint() == replica.fingerprint()

    def test_a_parent_written_pooled_replica_is_refused(
        self, tmp_path, tiny_conv_spec, monkeypatch
    ):
        # the parent wrote the layer tag over the pool's own kind
        from dataclasses import asdict

        from repro.models import specs

        def parent_config(spec):
            return dict(asdict(spec), kind=specs._KIND_OF_LAYER[type(spec)])

        replica = ReplicaSpec.capture(tiny_conv_spec, tiny_conv_spec.build_bayesian(seed=3))
        with monkeypatch.context() as patch:
            patch.setattr(specs, "layer_spec_to_config", parent_config)
            path = save_replica(replica, tmp_path / "replica")
        with pytest.raises(CheckpointMismatchError, match="no pool kind"):
            load_replica(path)

    def test_restored_replica_predicts_bit_identically(self, tmp_path, rng):
        spec = get_model("B-MLP", reduced=True)
        model = spec.build_bayesian(seed=7)
        replica = ReplicaSpec.capture(spec, model)
        restored = load_replica(save_replica(replica, tmp_path / "replica.npz"))
        x = rng.normal(size=(3, 196))
        before = mc_predict(replica.build(), x, n_samples=2, seed=3, grng_stride=16)
        after = mc_predict(restored.build(), x, n_samples=2, seed=3, grng_stride=16)
        assert np.array_equal(before.sample_probabilities, after.sample_probabilities)


#: Archives written by the build before the archive layer shared one writer:
#: ``tiny_conv_spec.build_bayesian(seed=5)``'s parameters, and the replica
#: ``ReplicaSpec.capture(tiny_mlp_spec, model, build_seed=5)`` of
#: ``tiny_mlp_spec.build_bayesian(seed=5)`` quantised to 16-bit words,
#: captured with an empty backend selection.  The fingerprints are the ones
#: recorded when the files were written.
PARENT_PARAMETERS = DATA / "parent_parameters.npz"
PARENT_PARAMETERS_FINGERPRINT = (
    "4b433cab872a6048b1edc09f910b3b4583b5b86c389fe768ce90b0cb1900a4dd"
)
PARENT_REPLICA = DATA / "parent_replica.npz"
PARENT_REPLICA_FINGERPRINT = (
    "20868eae83a5e7b84d06b6267b7e9855b972f729173084653716e9acfb8aceda"
)


def _parameter_fingerprint(model) -> str:
    return state_fingerprint(
        (name, tensor_fingerprint(param.value))
        for name, param in model.named_parameters().items()
    )


def _members(path: Path) -> list[tuple[str, bytes]]:
    """An archive's members in order, with their bytes (no zip timestamps)."""
    with zipfile.ZipFile(path) as archive:
        return [(name, archive.read(name)) for name in archive.namelist()]


def _parent_replica(spec) -> ReplicaSpec:
    model = spec.build_bayesian(seed=5)
    model.quantization = QuantizationConfig.from_word_length(16)
    return replace(ReplicaSpec.capture(spec, model, build_seed=5), backend_selection=())


class TestArchiveEnvelope:
    def test_a_parent_parameter_archive_loads(self, tiny_conv_spec):
        model = tiny_conv_spec.build_bayesian(seed=0)
        load_parameters(model, PARENT_PARAMETERS)
        assert _parameter_fingerprint(model) == PARENT_PARAMETERS_FINGERPRINT

    def test_a_parent_replica_archive_loads(self):
        replica = load_replica(PARENT_REPLICA)
        assert replica.fingerprint() == PARENT_REPLICA_FINGERPRINT
        assert replica.quantization == QuantizationConfig.from_word_length(16)
        assert replica.backend_selection == ()
        model = replica.build()
        for name, param in model.named_parameters().items():
            assert param.value.tobytes() == replica.state[name].tobytes()

    def test_the_layouts_are_the_parents(self, tiny_conv_spec, tiny_mlp_spec, tmp_path):
        model = tiny_conv_spec.build_bayesian(seed=5)
        written = save_parameters(model, tmp_path / "parameters")
        assert _members(written) == _members(PARENT_PARAMETERS)
        written = save_replica(_parent_replica(tiny_mlp_spec), tmp_path / "replica")
        assert _members(written) == _members(PARENT_REPLICA)

    def test_a_failed_save_leaves_the_previous_checkpoint(self, tmp_path, monkeypatch):
        trainer = _legacy_trainer()
        _legacy_fit(trainer)
        path = save_checkpoint(trainer, tmp_path / "ckpt")
        saved, expected = path.read_bytes(), _fingerprint(trainer)
        trainer.model.parameters()[0].assign(trainer.model.parameters()[0].value + 1.0)
        write_array = np.lib.format.write_array
        calls = []

        def fail_on_the_third_array(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return write_array(*args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", fail_on_the_third_array)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(trainer, path)
        monkeypatch.undo()
        assert path.read_bytes() == saved
        assert [entry.name for entry in tmp_path.iterdir()] == ["ckpt.npz"]
        restored = _legacy_trainer()
        load_checkpoint(restored, path)
        assert _fingerprint(restored) == expected

    @pytest.mark.parametrize(
        "loader, kind", permutations(["parameters", "checkpoint", "replica"], 2)
    )
    def test_each_loader_refuses_the_other_kinds(self, tiny_conv_spec, tmp_path, loader, kind):
        config = TrainerConfig(n_samples=2, seed=3, grng_stride=16)
        trainer = BNNTrainer(tiny_conv_spec.build_bayesian(seed=1), config)
        path = {
            "parameters": lambda: save_parameters(trainer.model, tmp_path / "p"),
            "checkpoint": lambda: save_checkpoint(trainer, tmp_path / "c"),
            "replica": lambda: save_replica(
                ReplicaSpec.capture(tiny_conv_spec, trainer.model), tmp_path / "r"
            ),
        }[kind]()
        target = BNNTrainer(tiny_conv_spec.build_bayesian(seed=2), config)
        before = _whole_state(target)
        load, what = {
            "parameters": (lambda: load_parameters(target.model, path), "parameter archive"),
            "checkpoint": (lambda: load_checkpoint(target, path), "training checkpoint"),
            "replica": (lambda: load_replica(path), "replica archive"),
        }[loader]
        with pytest.raises(CheckpointMismatchError, match=f"not a {what} .*kind"):
            load()
        assert _whole_state(target) == before


def _refusals(values: dict[str, np.ndarray]) -> dict[str, dict[str, np.ndarray]]:
    """A name missing, a name extra, and the last parameter in another shape."""
    names = list(values)
    return {
        "missing": {name: values[name] for name in names[1:]},
        "extra": {**values, "ghost": np.zeros(3)},
        "last-shape": {**values, names[-1]: np.zeros(values[names[-1]].shape + (1,))},
    }


def _load_by_archive(trainer, spec, values, tmp_path):
    manifest = {"format_version": 1, "model_name": "tiny-conv"}
    arrays = {**values, "__manifest__": np.frombuffer(json.dumps(manifest).encode(), np.uint8)}
    np.savez(tmp_path / "forged.npz", **arrays)
    load_parameters(trainer.model, tmp_path / "forged.npz")


def _load_by_checkpoint(trainer, spec, values, tmp_path):
    path = save_checkpoint(trainer, tmp_path / "ckpt")
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files if not key.startswith("param/")}
    arrays.update({f"param/{name}": value for name, value in values.items()})
    np.savez(path, **arrays)
    load_checkpoint(trainer, path)


def _load_by_replica(trainer, spec, values, tmp_path):
    replace(ReplicaSpec.capture(spec, trainer.model), state=values).build()


def _load_by_worker(trainer, spec, values, tmp_path):
    engine = ShardEngine(trainer.model, SoftmaxCrossEntropy())
    state = DeltaEncoder().encode({f"param/{name}": value for name, value in values.items()})
    engine.run_step(
        {"shards": [(0,)], "row_blocks": [(0, 1)], "total_rows": 1, "state": state.message}
    )


def test_load_checkpoint_does_not_copy_the_optimizer_state(tmp_path, monkeypatch):
    trainer = _legacy_trainer()
    _legacy_fit(trainer)
    path = save_checkpoint(trainer, tmp_path / "ckpt")
    expected = _fingerprint(trainer)

    def no_copies(self):
        raise AssertionError("state_dict copies every slot tensor")

    restored = _legacy_trainer()
    monkeypatch.setattr(type(restored.optimizer), "state_dict", no_copies)
    load_checkpoint(restored, path)
    assert _fingerprint(restored) == expected


class TestParameterContract:
    """Every path that writes a stored parameter set into a model checks all
    of it first: a refused set leaves every parameter's bytes as they were."""

    @pytest.mark.parametrize("case", ["missing", "extra", "last-shape"])
    @pytest.mark.parametrize(
        "load", [_load_by_archive, _load_by_checkpoint, _load_by_replica, _load_by_worker]
    )
    def test_a_refused_set_writes_nothing(self, tiny_conv_spec, tmp_path, monkeypatch, load, case):
        config = TrainerConfig(n_samples=2, seed=3, grng_stride=16)
        trainer = BNNTrainer(tiny_conv_spec.build_bayesian(seed=1), config)
        stored = {
            name: param.value + 1.0 for name, param in trainer.model.named_parameters().items()
        }
        before = [param.value.tobytes() for param in trainer.model.parameters()]
        assigned = []
        monkeypatch.setattr(Parameter, "assign", lambda param, value: assigned.append(param))
        with pytest.raises(CheckpointMismatchError) as refused:
            load(trainer, tiny_conv_spec, _refusals(stored)[case], tmp_path)
        assert isinstance(refused.value, ValueError)
        assert assigned == []
        assert [param.value.tobytes() for param in trainer.model.parameters()] == before

    def test_names_must_be_unique(self, tiny_mlp_spec, tmp_path):
        from repro.bnn import BayesDense, BayesianNetwork

        rng = np.random.default_rng(0)
        twins = BayesianNetwork(
            [BayesDense(4, 4, rng=rng, name="fc"), BayesDense(4, 2, rng=rng, name="fc")]
        )
        for use in (
            twins.named_parameters,
            lambda: save_parameters(twins, tmp_path / "twins"),
            lambda: ReplicaSpec.capture(tiny_mlp_spec, twins),
        ):
            with pytest.raises(ValueError, match="not unique"):
                use()
