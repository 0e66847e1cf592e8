"""Distributed training: bit-exact equivalence, checkpoint/resume, recovery.

The headline property of PR 4 (the paper's Fig. 9 guarantee, extended
across processes): the distributed sample-sharded engine follows *exactly*
the same parameter trajectory as the single-process batched pipeline -- for
dense and conv models, at the hardware-faithful stride 1 and the default
stride 256, at 0 (inline sharded), 1 and 2 worker processes -- and a run
interrupted by a checkpoint, or by a worker crash mid-step, lands on the
same bits as the run that was never disturbed.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

import repro.core.backend as kernel_backend
from repro.bnn import (
    BNNTrainer,
    TrainerConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.bnn.serialization import CheckpointMismatchError
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.distrib import (
    DistributedBackend,
    DistributedStepError,
    RespawnPolicy,
    distributed_trainer,
)
from repro.models import get_model
from repro.models.zoo import ReplicaSpec


@pytest.fixture(scope="module")
def dense_setup():
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(n_train=32, n_test=16, image_size=14, seed=3)
    batches = BatchLoader(train, batch_size=16, flatten=True).batches()
    return spec, batches


@pytest.fixture(scope="module")
def conv_setup():
    spec = get_model("B-LeNet", reduced=True)
    train, _ = synthetic_cifar10(n_train=32, n_test=16, image_size=16, seed=5)
    batches = BatchLoader(train, batch_size=16).batches()
    return spec, batches


def _config(n_samples, stride):
    return TrainerConfig(
        n_samples=n_samples, learning_rate=5e-3, seed=11, grng_stride=stride
    )


def _reference(spec, batches, config, policy="reversible", epochs=1):
    trainer = BNNTrainer(spec.build_bayesian(seed=99), config, policy=policy)
    trainer.fit(batches, epochs=epochs)
    return trainer


def _assert_same_run(reference, distributed):
    assert reference.history.losses == distributed.history.losses
    assert (
        reference.history.train_accuracies == distributed.history.train_accuracies
    )
    for ref_param, dist_param in zip(
        reference.model.parameters(), distributed.model.parameters()
    ):
        assert np.array_equal(ref_param.value, dist_param.value), ref_param.name
    assert (
        reference.epsilon_offchip_bytes() == distributed.epsilon_offchip_bytes()
    )
    assert (
        reference.epsilon_footprint_bytes()
        == distributed.epsilon_footprint_bytes()
    )


class TestBitExactEquivalence:
    @pytest.mark.parametrize("stride", [1, 256])
    @pytest.mark.parametrize("n_workers", [0, 1, 2])
    def test_dense_trajectory_any_worker_count(self, dense_setup, stride, n_workers):
        spec, batches = dense_setup
        config = _config(4, stride)
        reference = _reference(spec, batches, config)
        with distributed_trainer(
            spec,
            config,
            n_workers=n_workers,
            n_shards=2,
            policy="reversible",
            build_seed=99,
        ) as distributed:
            distributed.fit(batches, epochs=1)
            _assert_same_run(reference, distributed)

    @pytest.mark.parametrize("stride", [1, 256])
    @pytest.mark.parametrize("n_workers", [0, 2])
    def test_conv_trajectory_any_worker_count(self, conv_setup, stride, n_workers):
        spec, batches = conv_setup
        config = _config(3, stride)
        reference = _reference(spec, batches, config)
        with distributed_trainer(
            spec,
            config,
            n_workers=n_workers,
            n_shards=2,
            policy="reversible",
            build_seed=99,
        ) as distributed:
            distributed.fit(batches, epochs=1)
            _assert_same_run(reference, distributed)

    def test_stored_policy_and_uneven_shards(self, dense_setup):
        """3 samples over 2 shards (uneven) under the baseline policy."""
        spec, batches = dense_setup
        config = _config(3, 32)
        reference = _reference(spec, batches, config, policy="stored")
        with distributed_trainer(
            spec, config, n_workers=0, n_shards=2, policy="stored", build_seed=99
        ) as distributed:
            distributed.fit(batches, epochs=1)
            _assert_same_run(reference, distributed)

    def test_more_shards_than_samples(self, dense_setup):
        spec, batches = dense_setup
        config = _config(2, 32)
        reference = _reference(spec, batches, config)
        with distributed_trainer(
            spec, config, n_workers=0, n_shards=8, policy="reversible", build_seed=99
        ) as distributed:
            distributed.fit(batches, epochs=1)
            _assert_same_run(reference, distributed)

    def test_mixed_deterministic_layers_distributed(self, dense_setup):
        """Trainable deterministic layers reduce bit-exactly too."""
        from repro.bnn import BayesDense, BayesianNetwork
        from repro.nn.layers import Dense, ReLU

        _, batches = dense_setup

        def build(seed=0):
            return BayesianNetwork(
                [
                    BayesDense(196, 24, rng=np.random.default_rng(13)),
                    ReLU(),
                    Dense(24, 10, rng=np.random.default_rng(14)),
                ]
            )

        config = _config(3, 32)
        reference = BNNTrainer(build(), config)
        reference.fit(batches, epochs=1)

        class _HandBuiltSpec:
            def build_bayesian(self, seed=0):
                return build(seed)

        spec = _HandBuiltSpec()
        backend = DistributedBackend(
            ReplicaSpec.structural(spec), n_workers=0, n_shards=2
        )
        distributed = BNNTrainer(build(), config, backend=backend)
        distributed.fit(batches, epochs=1)
        _assert_same_run(reference, distributed)

    def test_explicit_batched_override_bypasses_backend(self, dense_setup):
        """``train_step(batched=...)`` forces the local pipeline."""
        spec, batches = dense_setup
        config = _config(2, 32)
        with distributed_trainer(
            spec, config, n_workers=0, policy="reversible", build_seed=99
        ) as distributed:
            x, y = batches[0]
            distributed.train_step(x, y, kl_weight=1.0 / 32, batched=True)
            assert distributed.step_count == 1


class TestCheckpointResume:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_local_resume_equals_uninterrupted(self, dense_setup, tmp_path, optimizer):
        spec, batches = dense_setup
        config = TrainerConfig(
            n_samples=3, learning_rate=5e-3, seed=11, grng_stride=32,
            optimizer=optimizer,
        )
        full = _reference(spec, batches, config, epochs=2)
        path = tmp_path / "mid.npz"

        interrupted = BNNTrainer(spec.build_bayesian(seed=99), config, policy="reversible")

        def callback(trainer, step):
            if step == 2:  # mid-epoch-2 of the 2x2-step schedule
                save_checkpoint(trainer, path)

        interrupted.fit(batches, epochs=2, checkpoint_callback=callback)

        resumed = BNNTrainer(spec.build_bayesian(seed=99), config, policy="reversible")
        manifest = load_checkpoint(resumed, path)
        assert manifest["step_count"] == 3
        assert resumed.step_count == 3
        resumed.fit(batches, epochs=2, resume=True)
        _assert_same_run(full, resumed)
        assert full.history.epoch_losses == resumed.history.epoch_losses
        assert full.history.epoch_accuracies == resumed.history.epoch_accuracies

    def test_distributed_resume_equals_uninterrupted(self, dense_setup, tmp_path):
        spec, batches = dense_setup
        config = _config(4, 32)
        full = _reference(spec, batches, config, epochs=2)
        path = tmp_path / "dist.npz"

        with distributed_trainer(
            spec, config, n_workers=2, policy="reversible", build_seed=99
        ) as interrupted:

            def callback(trainer, step):
                if step == 1:
                    save_checkpoint(trainer, path)

            interrupted.fit(batches, epochs=2, checkpoint_callback=callback)
            _assert_same_run(full, interrupted)

        # resume the distributed run with a *different* worker count
        with distributed_trainer(
            spec, config, n_workers=1, policy="reversible", build_seed=99
        ) as resumed:
            load_checkpoint(resumed, path)
            resumed.fit(batches, epochs=2, resume=True)
            _assert_same_run(full, resumed)

    def test_checkpoint_restores_optimizer_and_grng_state(self, dense_setup, tmp_path):
        spec, batches = dense_setup
        config = _config(3, 32)
        trainer = _reference(spec, batches, config, epochs=1)
        path = save_checkpoint(trainer, tmp_path / "state")
        assert path.suffix == ".npz"

        other = BNNTrainer(spec.build_bayesian(seed=1), config, policy="reversible")
        load_checkpoint(other, path)
        # parameters, optimizer moments and generator registers all match
        for a, b in zip(trainer.model.parameters(), other.model.parameters()):
            assert np.array_equal(a.value, b.value)
        for (slot_a, arrays_a), (slot_b, arrays_b) in zip(
            sorted(trainer.optimizer.slot_arrays().items()),
            sorted(other.optimizer.slot_arrays().items()),
        ):
            assert slot_a == slot_b
            for array_a, array_b in zip(arrays_a, arrays_b):
                assert np.array_equal(array_a, array_b)
        for snap_a, snap_b in zip(trainer.bank.snapshots(), other.bank.snapshots()):
            assert snap_a == snap_b
        assert (
            trainer.bank.usage_state_dicts() == other.bank.usage_state_dicts()
        )
        assert trainer.history.losses == other.history.losses

    def test_strict_mismatch_paths(self, dense_setup, conv_setup, tmp_path):
        spec, batches = dense_setup
        conv_spec, _ = conv_setup
        config = _config(3, 32)
        trainer = _reference(spec, batches, config, epochs=1)
        path = save_checkpoint(trainer, tmp_path / "ckpt.npz")

        # wrong architecture
        other = BNNTrainer(conv_spec.build_bayesian(seed=0), config)
        with pytest.raises(CheckpointMismatchError, match="missing"):
            load_checkpoint(other, path)
        # wrong sample count
        other = BNNTrainer(
            spec.build_bayesian(seed=0), _config(4, 32), policy="reversible"
        )
        with pytest.raises(CheckpointMismatchError, match="n_samples"):
            load_checkpoint(other, path)
        # wrong policy
        other = BNNTrainer(spec.build_bayesian(seed=0), config, policy="stored")
        with pytest.raises(CheckpointMismatchError, match="policy"):
            load_checkpoint(other, path)
        # wrong optimizer
        other = BNNTrainer(
            spec.build_bayesian(seed=0),
            TrainerConfig(n_samples=3, seed=11, grng_stride=32, optimizer="sgd"),
            policy="reversible",
        )
        with pytest.raises(CheckpointMismatchError, match="optimizer"):
            load_checkpoint(other, path)
        # a parameters-only archive is not a training checkpoint
        from repro.bnn import save_parameters

        params_path = save_parameters(trainer.model, tmp_path / "params.npz")
        with pytest.raises(CheckpointMismatchError, match="training checkpoint"):
            load_checkpoint(trainer, params_path)


class TestFaultTolerance:
    def test_worker_killed_mid_step_recovers_bit_exactly(self, dense_setup):
        """A worker dying *while holding a shard* re-executes on a respawn."""
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=2)
        with distributed_trainer(
            spec,
            config,
            n_workers=2,
            policy="reversible",
            build_seed=99,
            respawn=RespawnPolicy(max_respawns=2, max_task_retries=1),
        ) as distributed:
            fired = []

            def fault_hook(step_index, rank):
                # kill the worker that receives a shard of step 1, once
                if step_index == 1 and not fired:
                    fired.append(rank)
                    return True
                return False

            distributed.backend.fault_hook = fault_hook
            distributed.fit(batches, epochs=2)
            assert fired, "fault was never injected"
            assert distributed.backend.respawns_used >= 1
            _assert_same_run(reference, distributed)

    def test_worker_killed_between_steps_recovers(self, dense_setup):
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=2)
        with distributed_trainer(
            spec,
            config,
            n_workers=2,
            policy="reversible",
            build_seed=99,
            respawn=RespawnPolicy(max_respawns=1),
        ) as distributed:
            x, y = batches[0]
            total = sum(bx.shape[0] for bx, _ in batches)
            distributed.train_step(x, y, kl_weight=1.0 / total)
            victim = distributed.backend.processes[0]
            victim.kill()
            victim.join(timeout=10.0)
            # remaining schedule still completes, on the reference trajectory
            distributed.fit(batches, epochs=2, resume=True)
            assert distributed.backend.alive_workers == 2  # replenished
            _assert_same_run(reference, distributed)

    def test_exhausted_respawn_budget_fails_loudly(self, dense_setup):
        """A shard is never silently dropped: recovery or a loud error."""
        spec, batches = dense_setup
        config = _config(2, 32)
        with distributed_trainer(
            spec,
            config,
            n_workers=1,
            policy="reversible",
            build_seed=99,
            respawn=RespawnPolicy(max_respawns=0, max_task_retries=1),
        ) as distributed:
            distributed.backend.fault_hook = lambda step, rank: True
            x, y = batches[0]
            with pytest.raises(DistributedStepError):
                distributed.train_step(x, y, kl_weight=0.1)


def _shared_anonymous_mappings() -> int:
    """How many ``mmap.mmap(-1, n)`` mappings this process holds."""
    with open("/proc/self/maps") as handle:
        return sum("/dev/zero" in line for line in handle)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestDispatchUnits:
    """One unit per worker: drawn once, one small message, no aliasing."""

    @pytest.mark.parametrize("policy", ["stored", "reversible", "reversible-hw"])
    def test_epsilons_drawn_once_per_sample_per_step(self, dense_setup, policy):
        """A 4 x 2 plan costs the generator what the single-process step costs."""
        spec, batches = dense_setup
        config = _config(8, 32)
        x, y = batches[0]

        def grng_block_work(trainer):
            trainer.train_step(x, y, kl_weight=0.1)  # lazy gates and caches
            kernel_backend.reset_counters()
            for _ in range(2):
                trainer.train_step(x, y, kl_weight=0.1)
            ran = kernel_backend.counters_snapshot().get("grng_block", {}).values()
            return sum(c["calls"] for c in ran), sum(c["rows"] for c in ran)

        single = BNNTrainer(spec.build_bayesian(seed=99), config, policy=policy)
        with distributed_trainer(
            spec,
            config,
            n_workers=0,
            n_shards=4,
            n_row_blocks=2,
            policy=policy,
            build_seed=99,
        ) as sharded:
            expected = grng_block_work(single)
            assert expected[0] > 0
            assert grng_block_work(sharded) == expected
            assert sharded.bank.usage_state_dicts() == single.bank.usage_state_dicts()

    def test_one_unit_per_worker_per_step(self, dense_setup):
        spec, batches = dense_setup
        with distributed_trainer(
            spec,
            _config(4, 32),
            n_workers=2,
            n_shards=4,
            n_row_blocks=2,
            policy="reversible",
            build_seed=99,
        ) as distributed:
            backend = distributed.backend
            distributed.fit(batches, epochs=1)
            assert backend._task_counter == 2 * len(batches)
            assert backend.n_shards == 4  # the plan is not the placement

    def test_survivor_runs_both_units_without_aliasing(self, dense_setup):
        """No respawn: the surviving worker executes both units back to back.

        Its first unit's stacks are still unreduced in its arena while it
        writes the second's -- every cell needs its own slot.
        """
        spec, batches = dense_setup
        config = _config(4, 32)
        plan = dict(n_shards=4, n_row_blocks=2, policy="reversible", build_seed=99)
        with distributed_trainer(spec, config, n_workers=0, **plan) as reference:
            reference.fit(batches, epochs=2)
        with distributed_trainer(
            spec,
            config,
            n_workers=2,
            respawn=RespawnPolicy(max_respawns=0, max_task_retries=1),
            **plan,
        ) as distributed:
            fired = []

            def fault_hook(step_index, rank):
                if step_index == 1 and not fired:
                    fired.append(rank)
                    return True
                return False

            distributed.backend.fault_hook = fault_hook
            distributed.fit(batches, epochs=2)
            assert fired and distributed.backend.alive_workers == 1
            _assert_same_run(reference, distributed)
            assert (
                distributed.bank.usage_state_dicts()
                == reference.bank.usage_state_dicts()
            )

    def test_arena_lifetime_follows_its_worker(self, dense_setup):
        spec, batches = dense_setup
        x, y = batches[0]
        gc.collect()  # earlier tests' queues give their pipes back here
        mappings, fds = _shared_anonymous_mappings(), _open_fds()
        distributed = distributed_trainer(
            spec, _config(4, 32), n_workers=2, policy="reversible", build_seed=99
        )
        backend = distributed.backend
        try:
            distributed.train_step(x, y, kl_weight=0.1)
            assert _shared_anonymous_mappings() == mappings + 2
            victim = backend._workers[0]
            arena = victim.arena
            victim.process.kill()
            victim.process.join(timeout=10.0)
            # the next step boundary retires the dead worker, closes its
            # arena and gives the replacement a fresh one
            distributed.train_step(x, y, kl_weight=0.1)
            assert arena.closed and victim.arena is None
            assert backend.respawns_used == 1
            assert all(not w.arena.closed for w in backend._workers)
            assert _shared_anonymous_mappings() == mappings + 2
            arenas = [worker.arena for worker in backend._workers]
        finally:
            distributed.close()
        assert all(arena.closed for arena in arenas)
        del distributed, backend, victim
        gc.collect()
        assert _shared_anonymous_mappings() == mappings
        assert _open_fds() == fds

    def test_spawned_workers_return_stacks_on_the_queue(self, dense_setup):
        """No fork, no inherited mapping: same bytes, stacks ride the queue."""
        spec, batches = dense_setup
        config = _config(4, 32)
        plan = dict(n_shards=2, n_row_blocks=2, policy="reversible", build_seed=99)
        x, y = batches[0]
        with distributed_trainer(spec, config, n_workers=0, **plan) as reference:
            expected = reference.train_step(x, y, kl_weight=0.1)
        with distributed_trainer(
            spec, config, n_workers=2, start_method="spawn", **plan
        ) as distributed:
            assert distributed.train_step(x, y, kl_weight=0.1) == expected
            assert all(w.arena is None for w in distributed.backend._workers)
            for ref_param, dist_param in zip(
                reference.model.parameters(), distributed.model.parameters()
            ):
                assert np.array_equal(ref_param.value, dist_param.value)

    def test_mixed_and_conv_models_through_a_2x2_plan(self, dense_setup, conv_setup):
        """Two single-shard units against the inline one-shard reference.

        Trainable deterministic layers take the per-sample tape path once
        per row block inside a unit.
        """
        from repro.bnn import BayesDense, BayesianNetwork
        from repro.nn.layers import Dense, ReLU

        class _MixedSpec:
            def build_bayesian(self, seed=0):
                return BayesianNetwork(
                    [
                        BayesDense(196, 24, rng=np.random.default_rng(13)),
                        ReLU(),
                        Dense(24, 10, rng=np.random.default_rng(14)),
                    ]
                )

        for spec, batches in ((_MixedSpec(), dense_setup[1]), conv_setup):
            runs = []
            for n_workers, n_shards in ((0, 1), (2, 2)):
                backend = DistributedBackend(
                    ReplicaSpec.structural(spec, build_seed=99),
                    n_workers=n_workers,
                    n_shards=n_shards,
                    n_row_blocks=2,
                )
                with BNNTrainer(
                    spec.build_bayesian(seed=99), _config(4, 32), backend=backend
                ) as trainer:
                    trainer.fit(batches, epochs=1)
                    runs.append(trainer)
            _assert_same_run(*runs)
            assert runs[0].bank.usage_state_dicts() == runs[1].bank.usage_state_dicts()
