"""Unit tests for the generation-tagged model registry and replica fingerprints."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.models import ModelSpec, ReplicaSpec
from repro.serve import (
    DEFAULT_VERSION,
    ModelRegistry,
    RollbackUnavailableError,
    UnknownVersionError,
    VersionConflictError,
)


@pytest.fixture
def replica_a(tiny_mlp_spec: ModelSpec) -> ReplicaSpec:
    return ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=1))


@pytest.fixture
def replica_b(tiny_mlp_spec: ModelSpec) -> ReplicaSpec:
    return ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=2))


class TestFingerprint:
    def test_deterministic_and_weight_sensitive(self, tiny_mlp_spec, replica_a):
        same = ReplicaSpec.capture(
            tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=1)
        )
        other = ReplicaSpec.capture(
            tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=2)
        )
        assert replica_a.fingerprint() == same.fingerprint()
        assert replica_a.fingerprint() != other.fingerprint()

    def test_survives_pickling(self, replica_a):
        clone = pickle.loads(pickle.dumps(replica_a))
        assert clone.fingerprint() == replica_a.fingerprint()

    def test_structural_differs_from_captured(self, tiny_mlp_spec, replica_a):
        structural = ReplicaSpec.structural(tiny_mlp_spec)
        assert structural.fingerprint() != replica_a.fingerprint()

    def test_build_seed_matters(self, tiny_mlp_spec):
        assert (
            ReplicaSpec.structural(tiny_mlp_spec, build_seed=0).fingerprint()
            != ReplicaSpec.structural(tiny_mlp_spec, build_seed=1).fingerprint()
        )


class TestRegistration:
    def test_register_and_get(self, replica_a):
        registry = ModelRegistry()
        entry = registry.register("v1", replica_a)
        assert entry.version == "v1"
        assert entry.fingerprint == replica_a.fingerprint()
        assert registry.get("v1") is entry
        assert "v1" in registry and "v2" not in registry

    def test_register_identical_contents_is_idempotent(self, replica_a):
        registry = ModelRegistry()
        first = registry.register("v1", replica_a)
        again = registry.register("v1", replica_a)
        assert again is first
        assert len(registry.versions()) == 1

    def test_register_conflicting_contents_raises(self, replica_a, replica_b):
        registry = ModelRegistry()
        registry.register("v1", replica_a)
        with pytest.raises(VersionConflictError):
            registry.register("v1", replica_b)

    def test_unknown_version_raises(self, replica_a):
        registry = ModelRegistry()
        with pytest.raises(UnknownVersionError):
            registry.get("missing")
        with pytest.raises(ValueError):
            registry.register("", replica_a)


class TestDeployment:
    def test_deploy_bumps_generation_and_logs_history(self, replica_a, replica_b):
        registry = ModelRegistry()
        registry.register("v1", replica_a)
        registry.register("v2", replica_b)
        assert registry.active is None and registry.generation == 0
        first = registry.deploy("v1")
        assert (first.version, first.generation) == ("v1", 1)
        second = registry.deploy("v2")
        assert (second.version, second.generation) == ("v2", 2)
        assert [d.version for d in registry.history()] == ["v1", "v2"]

    def test_deploy_active_version_is_a_noop(self, replica_a):
        registry = ModelRegistry.single(replica_a)
        before = registry.active
        assert registry.deploy(DEFAULT_VERSION) == before
        assert registry.generation == before.generation

    def test_deploy_unregistered_raises(self, replica_a):
        registry = ModelRegistry.single(replica_a)
        with pytest.raises(UnknownVersionError):
            registry.deploy("v9")

    def test_rollback_swaps_back_and_is_tagged(self, replica_a, replica_b):
        registry = ModelRegistry()
        registry.register("v1", replica_a)
        registry.register("v2", replica_b)
        registry.deploy("v1")
        registry.deploy("v2")
        assert registry.rollback_target == "v1"
        restored = registry.rollback()
        assert restored.version == "v1"
        assert restored.generation == 3  # rollbacks are new generations
        assert restored.rolled_back is True
        # the deploy log is append-only: nothing was rewritten
        assert [d.version for d in registry.history()] == ["v1", "v2", "v1"]
        # rolling back again toggles to v2
        assert registry.rollback().version == "v2"

    def test_rollback_without_history_raises(self, replica_a):
        registry = ModelRegistry()
        with pytest.raises(RollbackUnavailableError):
            registry.rollback()
        registry.register("v1", replica_a)
        registry.deploy("v1")
        with pytest.raises(RollbackUnavailableError):
            registry.rollback()  # one deploy: nothing to return to


class TestResolve:
    def test_resolve_pins_active_and_explicit(self, replica_a, replica_b):
        registry = ModelRegistry()
        registry.register("v1", replica_a)
        registry.register("v2", replica_b)
        with pytest.raises(RollbackUnavailableError):
            registry.resolve()  # nothing deployed yet
        registry.deploy("v1")
        assert registry.resolve() == ("v1", 1)
        assert registry.resolve("v2") == ("v2", 1)
        with pytest.raises(UnknownVersionError):
            registry.resolve("v3")
        registry.deploy("v2")
        assert registry.resolve() == ("v2", 2)
        assert registry.resolve("v1") == ("v1", 2)

    def test_single_constructor_registers_and_deploys(self, replica_a):
        registry = ModelRegistry.single(replica_a)
        assert registry.resolve() == (DEFAULT_VERSION, 1)
        assert registry.get(DEFAULT_VERSION).replica is replica_a


class TestPersistence:
    def test_restart_restores_versions_active_and_generation(
        self, tmp_path, replica_a, replica_b
    ):
        store = tmp_path / "registry"
        registry = ModelRegistry.open(store)
        registry.register("v1", replica_a)
        registry.register("v2", replica_b)
        registry.deploy("v1")
        registry.deploy("v2")
        registry.rollback()  # generation 3, active v1

        restored = ModelRegistry.open(store)
        assert [entry.version for entry in restored.versions()] == ["v1", "v2"]
        assert restored.active is not None
        assert restored.active.version == "v1"
        assert restored.active.rolled_back is True
        assert restored.generation == 3
        assert [d.version for d in restored.history()] == ["v1", "v2", "v1"]
        # restored replicas are the exact captured weights
        assert restored.get("v1").fingerprint == replica_a.fingerprint()
        assert restored.get("v2").fingerprint == replica_b.fingerprint()
        # generations keep counting where the old process stopped
        assert restored.rollback().generation == 4

    def test_fresh_directory_starts_empty(self, tmp_path):
        registry = ModelRegistry.open(tmp_path / "new")
        assert registry.versions() == []
        assert registry.active is None
        assert registry.persist_dir == tmp_path / "new"

    def test_memory_registry_does_not_persist(self, replica_a):
        registry = ModelRegistry()
        registry.register("v1", replica_a)
        assert registry.persist_dir is None

    def test_tampered_archive_is_refused(self, tmp_path, replica_a):
        from repro.serve import RegistryPersistenceError

        store = tmp_path / "registry"
        registry = ModelRegistry.open(store)
        registry.register("v1", replica_a)
        registry.deploy("v1")
        state = json.loads((store / "state.json").read_text())
        state["versions"][0]["fingerprint"] = "0" * 64
        (store / "state.json").write_text(json.dumps(state))
        with pytest.raises(RegistryPersistenceError, match="fingerprint"):
            ModelRegistry.open(store)

    def test_a_pooled_replica_persists(self, tmp_path, tiny_conv_spec):
        replica = ReplicaSpec.capture(tiny_conv_spec, tiny_conv_spec.build_bayesian(seed=1))
        store = tmp_path / "registry"
        ModelRegistry.open(store).register("v1", replica)
        assert ModelRegistry.open(store).get("v1").fingerprint == replica.fingerprint()

    def test_a_parent_written_pooled_archive_is_refused(
        self, tmp_path, tiny_conv_spec, monkeypatch
    ):
        from dataclasses import asdict

        from repro.models import specs
        from repro.serve import RegistryPersistenceError

        replica = ReplicaSpec.capture(tiny_conv_spec, tiny_conv_spec.build_bayesian(seed=1))
        store = tmp_path / "registry"
        with monkeypatch.context() as patch:  # the parent's layer config
            patch.setattr(
                specs, "layer_spec_to_config",
                lambda spec: dict(asdict(spec), kind=specs._KIND_OF_LAYER[type(spec)]),
            )
            ModelRegistry.open(store).register("v1", replica)
        with pytest.raises(RegistryPersistenceError, match="no pool kind"):
            ModelRegistry.open(store)

    def test_unknown_state_version_is_refused(self, tmp_path):
        from repro.serve import RegistryPersistenceError

        store = tmp_path / "registry"
        store.mkdir()
        (store / "state.json").write_text(json.dumps({"format_version": 99}))
        with pytest.raises(RegistryPersistenceError, match="version"):
            ModelRegistry.open(store)

    def test_corrupt_state_json_is_refused(self, tmp_path):
        from repro.serve import RegistryPersistenceError

        store = tmp_path / "registry"
        store.mkdir()
        (store / "state.json").write_text("{not json")
        with pytest.raises(RegistryPersistenceError, match="unreadable"):
            ModelRegistry.open(store)
