"""Elastic pool, delta shipping and row-block sharding: bit-exactness under churn.

The headline property: a fit whose worker pool **grows 1 -> 3, shrinks to
2 and loses one worker to a crash mid-run** follows byte for byte the
trajectory of the uninterrupted single-process run -- dense and conv
models, hardware-faithful stride 1 and default stride 256.  Around it,
the replan edge cases (joins apply only at step boundaries, shrink to one
then grow back, pool floor of one), delta-transport recovery (deliberate
cache corruption resyncs automatically and changes no bits), row-block
plan invariance, traffic accounting, and the trainer's periodic
auto-snapshots.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bnn import BNNTrainer, TrainerConfig, load_checkpoint
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.distrib import (
    DistributedBackend,
    DistributedStepError,
    RespawnPolicy,
    distributed_trainer,
    plan_step,
)
from repro.distrib import respawn
from repro.models import ReplicaSpec, get_model


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


def _reference(spec, batches, config, epochs):
    trainer = BNNTrainer(
        spec.build_bayesian(seed=99), config, policy="reversible"
    )
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


class TestElasticBitExactness:
    """The acceptance property: churn never moves a single bit."""

    @pytest.mark.parametrize("stride", [1, 256])
    def test_dense_grow_shrink_crash_equals_single_process(
        self, dense_setup, stride
    ):
        spec, batches = dense_setup
        config = _config(4, stride)
        epochs = 6  # 12 steps on the 2-batch schedule
        reference = _reference(spec, batches, config, epochs)
        trainer = distributed_trainer(
            spec,
            config,
            n_workers=1,
            policy="reversible",
            build_seed=99,
            respawn=RespawnPolicy(max_respawns=2, max_task_retries=1),
        )
        backend = trainer.backend
        schedule = {2: ("join", 2), 6: ("leave", 1)}  # 1 -> 3 -> 2 workers
        crashed = []

        def fault_hook(step_index, rank):
            if step_index == 8 and not crashed:
                crashed.append(rank)
                return True
            return False

        backend.fault_hook = fault_hook

        def callback(_trainer, step):
            event = schedule.get(step + 1)
            if event is not None:
                kind, count = event
                (backend.request_join if kind == "join" else backend.request_leave)(
                    count
                )

        with trainer:
            trainer.fit(batches, epochs=epochs, checkpoint_callback=callback)
            assert crashed, "the crash was never injected"
            assert backend.n_workers == 2
            assert backend.alive_workers == 2
            assert backend.respawns_used >= 1
            assert backend.replans >= 2  # one per membership change
            _assert_same_run(reference, trainer)

    @pytest.mark.parametrize("stride", [1, 256])
    def test_conv_grow_shrink_crash_equals_single_process(
        self, conv_setup, stride
    ):
        spec, batches = conv_setup
        config = _config(3, stride)
        epochs = 3  # 6 steps
        reference = _reference(spec, batches, config, epochs)
        trainer = distributed_trainer(
            spec,
            config,
            n_workers=1,
            policy="reversible",
            build_seed=99,
            respawn=RespawnPolicy(max_respawns=2, max_task_retries=1),
        )
        backend = trainer.backend
        schedule = {1: ("join", 2), 3: ("leave", 1)}
        crashed = []

        def fault_hook(step_index, rank):
            if step_index == 4 and not crashed:
                crashed.append(rank)
                return True
            return False

        backend.fault_hook = fault_hook

        def callback(_trainer, step):
            event = schedule.get(step + 1)
            if event is not None:
                kind, count = event
                (backend.request_join if kind == "join" else backend.request_leave)(
                    count
                )

        with trainer:
            trainer.fit(batches, epochs=epochs, checkpoint_callback=callback)
            assert crashed
            assert backend.n_workers == 2
            _assert_same_run(reference, trainer)


class TestReplanEdgeCases:
    def test_join_waits_for_the_step_boundary(self, dense_setup):
        """A join requested mid-run takes effect only at the next step."""
        spec, batches = dense_setup
        config = _config(4, 32)
        with distributed_trainer(
            spec, config, n_workers=1, policy="reversible", build_seed=99
        ) as trainer:
            backend = trainer.backend
            x, y = batches[0]
            trainer.train_step(x, y, kl_weight=1.0 / 32)
            assert backend.alive_workers == 1
            backend.request_join(1)
            # nothing spawns until the boundary: the pool is untouched
            assert backend.pending_joins == 1
            assert backend.alive_workers == 1
            assert backend.n_shards == 1
            trainer.train_step(x, y, kl_weight=1.0 / 32)
            assert backend.pending_joins == 0
            assert backend.alive_workers == 2
            assert backend.n_shards == 2  # auto-replanned with the pool

    def test_shrink_to_one_then_grow_back(self, dense_setup):
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=3)
        with distributed_trainer(
            spec, config, n_workers=3, policy="reversible", build_seed=99
        ) as trainer:
            backend = trainer.backend
            schedule = {1: ("leave", 2), 3: ("join", 1)}  # 3 -> 1 -> 2

            def callback(_trainer, step):
                event = schedule.get(step + 1)
                if event is not None:
                    kind, count = event
                    (
                        backend.request_join
                        if kind == "join"
                        else backend.request_leave
                    )(count)

            trainer.fit(batches, epochs=3, checkpoint_callback=callback)
            assert backend.n_workers == 2
            assert backend.alive_workers == 2
            _assert_same_run(reference, trainer)

    def test_pool_floor_is_one_worker(self, dense_setup):
        spec, batches = dense_setup
        config = _config(2, 32)
        with distributed_trainer(
            spec, config, n_workers=1, policy="reversible", build_seed=99
        ) as trainer:
            backend = trainer.backend
            backend.request_leave(1)
            x, y = batches[0]
            with pytest.raises(DistributedStepError, match="below one"):
                trainer.train_step(x, y, kl_weight=0.1)

    def test_inline_backend_has_no_pool(self, dense_setup):
        spec, _ = dense_setup
        with distributed_trainer(
            spec, _config(2, 32), n_workers=0, build_seed=99
        ) as trainer:
            with pytest.raises(RuntimeError, match="no elastic worker pool"):
                trainer.backend.request_join()
            with pytest.raises(RuntimeError, match="no elastic worker pool"):
                trainer.backend.request_leave()


class TestDeltaTransport:
    def test_delta_and_full_shipping_identical_bits(self, dense_setup):
        spec, batches = dense_setup
        config = _config(4, 32)
        runs = {}
        for delta_shipping in (True, False):
            with distributed_trainer(
                spec,
                config,
                n_workers=0,
                n_shards=2,
                delta_shipping=delta_shipping,
                policy="reversible",
                build_seed=99,
            ) as trainer:
                trainer.fit(batches, epochs=3)
                runs[delta_shipping] = (
                    trainer.history.losses,
                    [p.value.copy() for p in trainer.model.parameters()],
                    trainer.backend.bytes_shipped,
                    trainer.backend.bytes_full_equivalent,
                )
        assert runs[True][0] == runs[False][0]
        for a, b in zip(runs[True][1], runs[False][1]):
            assert np.array_equal(a, b)
        # the baseline leg ships everything; the delta leg strictly less
        assert runs[False][2] == runs[False][3] == runs[True][3]
        assert runs[True][2] < runs[False][2]

    def test_backend_reuse_across_fresh_fits_stays_bit_exact(self, dense_setup):
        """One backend, two fits restarting from identical initial parameters.

        The second fit re-presents fingerprints the first fit already
        cached -- but the first fit's optimiser steps mutated, in place, the
        live arrays the inline transport handed over.  The delta cache owns
        read-only snapshots precisely so that reuse serves the originally
        shipped bytes, never the since-mutated ones.
        """
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=2)
        backend = DistributedBackend(
            ReplicaSpec.structural(spec, build_seed=99),
            n_workers=0,
            n_shards=2,
        )
        try:
            for _ in range(2):
                trainer = BNNTrainer(
                    spec.build_bayesian(seed=99),
                    config,
                    policy="reversible",
                    backend=backend,
                )
                trainer.fit(batches, epochs=2)
                _assert_same_run(reference, trainer)
        finally:
            backend.close()

    def test_corrupted_cache_resyncs_automatically(self, dense_setup):
        """Deliberate fingerprint corruption: resync, not wrong bits."""
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=2)
        with distributed_trainer(
            spec,
            config,
            n_workers=0,
            n_shards=2,
            policy="reversible",
            build_seed=99,
        ) as trainer:
            backend = trainer.backend
            x, y = batches[0]
            total = sum(bx.shape[0] for bx, _ in batches)
            trainer.train_step(x, y, kl_weight=1.0 / total)
            # corrupt the inline engine's content-addressed cache: every
            # cached tensor is re-keyed to a bogus fingerprint, so the next
            # delta message misses and must trigger a full resync
            cache = backend._inline_engine.delta_cache
            entries = cache._entries
            for index, (fingerprint, array) in enumerate(list(entries.items())):
                del entries[fingerprint]
                entries[f"corrupt-{index}"] = array
            assert backend.resyncs == 0
            trainer.fit(batches, epochs=2, resume=True)
            assert backend.resyncs >= 1
            _assert_same_run(reference, trainer)

    def test_crashed_worker_resumes_via_full_shipment(self, dense_setup):
        """A respawned worker's cold cache is re-baselined transparently."""
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=2)
        with distributed_trainer(
            spec,
            config,
            n_workers=2,
            policy="reversible",
            build_seed=99,
            respawn=RespawnPolicy(max_respawns=1, max_task_retries=1),
        ) as trainer:
            backend = trainer.backend
            fired = []

            def fault_hook(step_index, rank):
                if step_index == 1 and not fired:
                    fired.append(rank)
                    return True
                return False

            backend.fault_hook = fault_hook
            trainer.fit(batches, epochs=2)
            assert fired
            _assert_same_run(reference, trainer)


#: the 12-step coalescing fit: 4 sample shards x 2 row blocks = 8 plan cells
#: per step, executed as one dispatch unit per worker
COALESCING_SHARDS = 4
COALESCING_ROW_BLOCKS = 2


@pytest.fixture(scope="module")
def coalescing_setup():
    """The fit, its per-cell baseline bytes and its 1-shard reference bits."""
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(n_train=64, n_test=16, image_size=14, seed=3)
    batches = BatchLoader(train, batch_size=16, flatten=True).batches()
    config = _config(8, 256)
    # the blocked canonical trajectory: one shard, the same row blocking
    with distributed_trainer(
        spec,
        config,
        n_workers=0,
        n_shards=1,
        n_row_blocks=COALESCING_ROW_BLOCKS,
        delta_shipping=False,
        policy="reversible",
        build_seed=42,
    ) as trainer:
        trainer.fit(batches, epochs=3)  # 4 batches x 3 epochs = 12 steps
        expected = [p.value.copy() for p in trainer.model.parameters()]
    # what shipping every (shard, row-block) cell its own full state moves
    parameter_bytes = sum(value.nbytes for value in expected)
    baseline = 0
    for x, y in batches:
        plan = plan_step(
            config.n_samples, COALESCING_SHARDS, x.shape[0], COALESCING_ROW_BLOCKS
        )
        for _, block_index in plan.tasks:
            start, stop = plan.row_blocks[block_index]
            baseline += parameter_bytes + x[start:stop].nbytes + y[start:stop].nbytes
    return spec, batches, config, expected, 3 * baseline


class TestDispatchUnitCoalescing:
    @pytest.mark.parametrize(
        "delta_shipping, shipped",
        [(True, 4_224_448), (False, 4_426_176)],
        ids=["delta", "full"],
    )
    def test_one_unit_per_worker_ships_a_fifth_of_the_per_cell_baseline(
        self, coalescing_setup, delta_shipping, shipped
    ):
        """Coalescing a step's 8 plan cells into one dispatch unit moves at
        most 1/5 of what one full shipment per cell would (8.10x delta, 7.73x
        full); delta shipping adds only the ~5 % the repeat minibatches save.
        The byte counters are exact functions of the schedule."""
        spec, batches, config, expected, baseline = coalescing_setup
        assert baseline == 34_199_040
        with distributed_trainer(
            spec,
            config,
            n_workers=0,
            n_shards=COALESCING_SHARDS,
            n_row_blocks=COALESCING_ROW_BLOCKS,
            delta_shipping=delta_shipping,
            policy="reversible",
            build_seed=42,
        ) as trainer:
            trainer.fit(batches, epochs=3)
            backend = trainer.backend
            drifted = [
                p.name
                for p, value in zip(trainer.model.parameters(), expected)
                if not np.array_equal(p.value, value)
            ]
        assert drifted == []
        assert backend.resyncs == 0
        assert backend.bytes_shipped == shipped
        assert 5 * backend.bytes_shipped <= baseline


class TestRowBlockSharding:
    def test_blocked_plan_invariant_to_shard_count(self, dense_setup):
        """Same row blocking => same bits, whatever the sample sharding."""
        spec, batches = dense_setup
        config = _config(4, 32)
        runs = []
        for n_shards in (1, 2, 4):
            with distributed_trainer(
                spec,
                config,
                n_workers=0,
                n_shards=n_shards,
                n_row_blocks=2,
                policy="reversible",
                build_seed=99,
            ) as trainer:
                trainer.fit(batches, epochs=2)
                runs.append(
                    (
                        trainer.history.losses,
                        trainer.history.train_accuracies,
                        [p.value.copy() for p in trainer.model.parameters()],
                    )
                )
        for other in runs[1:]:
            assert runs[0][0] == other[0]
            assert runs[0][1] == other[1]
            for a, b in zip(runs[0][2], other[2]):
                assert np.array_equal(a, b)

    def test_blocked_plan_invariant_to_worker_count(self, dense_setup):
        spec, batches = dense_setup
        config = _config(4, 32)
        with distributed_trainer(
            spec,
            config,
            n_workers=0,
            n_shards=2,
            n_row_blocks=2,
            policy="reversible",
            build_seed=99,
        ) as inline:
            inline.fit(batches, epochs=2)
        with distributed_trainer(
            spec,
            config,
            n_workers=2,
            n_shards=2,
            n_row_blocks=2,
            policy="reversible",
            build_seed=99,
        ) as pooled:
            pooled.fit(batches, epochs=2)
            assert inline.history.losses == pooled.history.losses
            for a, b in zip(
                inline.model.parameters(), pooled.model.parameters()
            ):
                assert np.array_equal(a.value, b.value), a.name

    def test_accuracy_matches_single_process_at_any_blocking(self, dense_setup):
        """Per-row probabilities never interleave blocks: accuracy is exact."""
        spec, batches = dense_setup
        config = _config(4, 32)
        reference = _reference(spec, batches, config, epochs=1)
        with distributed_trainer(
            spec,
            config,
            n_workers=0,
            n_shards=2,
            n_row_blocks=4,
            policy="reversible",
            build_seed=99,
        ) as trainer:
            trainer.fit(batches, epochs=1)
            # losses/params differ (blocked canonical trajectory) but the
            # first step's batch accuracy is computed from bit-identical
            # per-row probabilities, because parameters still agree there
            assert (
                reference.history.train_accuracies[0]
                == trainer.history.train_accuracies[0]
            )


class TestAutoSnapshots:
    def test_periodic_snapshots_resume_onto_the_same_bits(
        self, dense_setup, tmp_path
    ):
        spec, batches = dense_setup
        config = _config(3, 32)
        full = _reference(spec, batches, config, epochs=3)
        path = tmp_path / "auto.npz"

        snapshotted = BNNTrainer(
            spec.build_bayesian(seed=99), config, policy="reversible"
        )
        snapshotted.fit(
            batches,
            epochs=3,
            checkpoint_every_n_steps=2,
            checkpoint_path=path,
        )
        assert path.exists()

        # the final auto-snapshot holds the completed run
        resumed = BNNTrainer(
            spec.build_bayesian(seed=99), config, policy="reversible"
        )
        manifest = load_checkpoint(resumed, path)
        assert manifest["step_count"] == 6
        _assert_same_run(full, resumed)

    def test_snapshots_restart_an_interrupted_distributed_fit(
        self, dense_setup, tmp_path
    ):
        spec, batches = dense_setup
        config = _config(4, 32)
        full = _reference(spec, batches, config, epochs=2)
        path = tmp_path / "dist-auto.npz"

        class _Interrupt(RuntimeError):
            pass

        with distributed_trainer(
            spec, config, n_workers=2, policy="reversible", build_seed=99
        ) as interrupted:

            def die_late(trainer, step):
                if step == 2:
                    raise _Interrupt

            with pytest.raises(_Interrupt):
                interrupted.fit(
                    batches,
                    epochs=2,
                    checkpoint_every_n_steps=1,
                    checkpoint_path=path,
                    checkpoint_callback=die_late,
                )

        with distributed_trainer(
            spec, config, n_workers=1, policy="reversible", build_seed=99
        ) as resumed:
            load_checkpoint(resumed, path)
            assert resumed.step_count == 3
            resumed.fit(batches, epochs=2, resume=True)
            _assert_same_run(full, resumed)

    def test_snapshot_arguments_validated(self, dense_setup):
        spec, batches = dense_setup
        trainer = BNNTrainer(
            spec.build_bayesian(seed=99), _config(2, 32), policy="reversible"
        )
        with pytest.raises(ValueError, match="pair"):
            trainer.fit(batches, checkpoint_every_n_steps=2)
        with pytest.raises(ValueError, match="at least 1"):
            trainer.fit(
                batches, checkpoint_every_n_steps=0, checkpoint_path="x.npz"
            )


class TestPoolLifetime:
    """Workers never outlive their coordinator; shutdown never waits on the poll."""

    def test_workers_exit_when_the_coordinator_is_killed(self, orphaned_worker_pids):
        script = """
import time
import numpy as np
from repro.bnn import TrainerConfig
from repro.distrib import distributed_trainer
from repro.models import get_model

trainer = distributed_trainer(
    get_model("B-MLP", reduced=True),
    TrainerConfig(n_samples=2, grng_stride=32),
    n_workers=2,
)
trainer.train_step(np.zeros((4, 196)), np.zeros(4, dtype=np.int64), kl_weight=0.1)
print(*[process.pid for process in trainer.backend.processes], flush=True)
time.sleep(120)
"""
        assert orphaned_worker_pids(script) == []

    def test_shutdown_does_not_wait_for_the_orphan_poll(
        self, dense_setup, monkeypatch
    ):
        """With the poll stretched to minutes, close() must still be immediate:
        the sentinel wakes the wait, the poll only ever bounds an orphan."""
        monkeypatch.setattr(respawn, "_ORPHAN_POLL_S", 600.0)
        spec, batches = dense_setup
        x, y = batches[0]
        distributed = distributed_trainer(
            spec, _config(2, 32), n_workers=2, build_seed=99
        )
        distributed.train_step(x, y, kl_weight=0.1)
        processes = distributed.backend.processes
        started = time.monotonic()
        distributed.close()
        assert time.monotonic() - started < 60.0
        assert not any(process.is_alive() for process in processes)
