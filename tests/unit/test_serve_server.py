"""Unit tests for the prediction server: lifecycle, failures, worker crashes."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.models import ModelSpec, ReplicaSpec
from repro.serve import (
    ModelRegistry,
    PredictionServer,
    SamplingConfig,
    ServerClosed,
    ServerConfig,
    TileExecutionError,
    UnknownVersionError,
    WorkerCrashError,
)

CFG = SamplingConfig(n_samples=4, seed=5, grng_stride=64, lfsr_bits=256)


@pytest.fixture
def replica(tiny_mlp_spec: ModelSpec) -> ReplicaSpec:
    model = tiny_mlp_spec.build_bayesian(seed=11)
    return ReplicaSpec.capture(tiny_mlp_spec, model, build_seed=0)


def _inputs(rng: np.random.Generator, rows: int = 8) -> np.ndarray:
    return rng.normal(size=(rows, 16))


class TestInlineServer:
    def test_round_trip_matches_mc_predict(self, replica, rng):
        x = _inputs(rng)
        reference = mc_predict(
            replica.build(), x, n_samples=4, seed=5, grng_stride=64
        )
        with PredictionServer(replica, ServerConfig(max_wait_ms=1.0)) as server:
            result = server.predict(x, CFG)
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )
        assert np.array_equal(result.entropy, reference.entropy)

    def test_stats_account_for_every_request(self, replica, rng):
        with PredictionServer(
            replica, ServerConfig(max_batch_rows=16, max_wait_ms=1.0)
        ) as server:
            futures = [server.submit(_inputs(rng), CFG) for _ in range(6)]
            for future in futures:
                future.result(timeout=30.0)
            snapshot = server.stats()
        assert snapshot.requests_completed == 6
        assert snapshot.requests_failed == 0
        assert snapshot.rows_completed == 6 * 8
        assert snapshot.tiles_executed >= 1
        assert sum(snapshot.occupancy_histogram.values()) == snapshot.tiles_executed
        assert snapshot.latency_p50_ms is not None
        assert snapshot.latency_p99_ms >= snapshot.latency_p50_ms
        assert snapshot.throughput_rps > 0

    def test_client_may_reuse_its_buffer_after_submit(self, replica, rng):
        """submit() snapshots the input: later mutation can't change the answer."""
        x = _inputs(rng)
        snapshot = x.copy()
        reference = mc_predict(
            replica.build(), snapshot, n_samples=4, seed=5, grng_stride=64
        )
        with PredictionServer(replica, ServerConfig(max_wait_ms=100.0)) as server:
            future = server.submit(x, CFG)
            x[...] = 0.0  # client reuses its staging buffer immediately
            served = future.result(timeout=30.0)
        assert np.array_equal(
            served.sample_probabilities, reference.sample_probabilities
        )

    def test_submit_requires_batched_input(self, replica):
        with PredictionServer(replica, ServerConfig(max_wait_ms=1.0)) as server:
            with pytest.raises(ValueError):
                server.submit(np.zeros(16))

    def test_submit_before_start_raises(self, replica):
        server = PredictionServer(replica)
        with pytest.raises(RuntimeError):
            server.submit(np.zeros((2, 16)))

    def test_bad_request_fails_its_future_and_server_survives(self, replica, rng):
        with PredictionServer(replica, ServerConfig(max_wait_ms=1.0)) as server:
            bad = server.submit(np.zeros((4, 7)), CFG)  # wrong feature count
            with pytest.raises(Exception):
                bad.result(timeout=30.0)
            good = server.submit(_inputs(rng), CFG)
            assert good.result(timeout=30.0).mean_probabilities.shape == (8, 3)
            snapshot = server.stats()
        assert snapshot.requests_failed == 1
        assert snapshot.requests_completed == 1

    def test_bad_request_does_not_fail_tile_mates(self, replica, rng):
        """A malformed request pooled into a tile fails alone."""
        from repro.serve import TileExecutor

        executor = TileExecutor(replica.build())
        good_x = _inputs(rng)
        outcomes = executor.execute(
            [(good_x, CFG), (np.zeros((4, 7)), CFG), (good_x, CFG)]
        )
        assert outcomes[0][1] is None and outcomes[2][1] is None
        assert isinstance(outcomes[1][1], Exception)
        assert np.array_equal(outcomes[0][0], outcomes[2][0])

    def test_pooled_tile_isolates_bad_request_end_to_end(self, replica, rng):
        with PredictionServer(
            replica, ServerConfig(max_batch_rows=64, max_wait_ms=200.0)
        ) as server:
            executor = server._executor
            inner = executor.execute
            entered = threading.Event()
            release = threading.Event()

            def gated_execute(requests):
                entered.set()
                release.wait(timeout=30.0)
                return inner(requests)

            executor.execute = gated_execute
            decoy = server.submit(_inputs(rng), CFG)  # occupies the executor
            assert entered.wait(timeout=10.0)
            bad = server.submit(np.zeros((4, 7)), CFG)  # queues together...
            good = server.submit(_inputs(rng), CFG)  # ...with this one
            release.set()
            with pytest.raises(Exception):
                bad.result(timeout=30.0)
            assert good.result(timeout=30.0) is not None
            assert decoy.result(timeout=30.0) is not None

    def test_request_arriving_during_flush_gets_served(self, replica, rng):
        """A request submitted while a tile executes joins the next tile."""
        with PredictionServer(
            replica, ServerConfig(max_batch_rows=8, max_wait_ms=1.0)
        ) as server:
            executor = server._executor
            inner = executor.execute
            entered = threading.Event()

            def slow_execute(requests):
                entered.set()
                time.sleep(0.1)
                return inner(requests)

            executor.execute = slow_execute
            first = server.submit(_inputs(rng), CFG)
            assert entered.wait(timeout=10.0)
            second = server.submit(_inputs(rng), CFG)  # arrives mid-flush
            first.result(timeout=30.0)
            second.result(timeout=30.0)
            assert server.stats().tiles_executed == 2

    def test_close_drain_finishes_queued_work(self, replica, rng):
        server = PredictionServer(
            replica, ServerConfig(max_batch_rows=8, max_wait_ms=50.0)
        ).start()
        futures = [server.submit(_inputs(rng), CFG) for _ in range(5)]
        server.close(drain=True)
        for future in futures:
            assert future.result(timeout=1.0) is not None

    def test_close_without_drain_fails_queued_requests(self, replica, rng):
        server = PredictionServer(
            replica, ServerConfig(max_batch_rows=8, max_wait_ms=10_000.0)
        ).start()
        executor = server._executor
        inner = executor.execute
        entered = threading.Event()
        release = threading.Event()

        def stalling_execute(requests):
            entered.set()
            release.wait(timeout=30.0)
            return inner(requests)

        executor.execute = stalling_execute
        in_flight = server.submit(_inputs(rng), CFG)
        assert entered.wait(timeout=10.0)
        queued = server.submit(_inputs(rng), CFG)  # stays in the batcher

        closer = threading.Thread(target=server.close, kwargs={"drain": False})
        closer.start()
        with pytest.raises(ServerClosed):
            queued.result(timeout=10.0)
        release.set()  # let the in-flight tile finish
        closer.join(timeout=30.0)
        assert not closer.is_alive()
        assert in_flight.result(timeout=10.0) is not None
        with pytest.raises(ServerClosed):
            server.submit(_inputs(rng), CFG)


class TestWorkerPoolServer:
    def test_round_trip_through_worker(self, replica, rng):
        x = _inputs(rng)
        reference = mc_predict(
            replica.build(), x, n_samples=4, seed=5, grng_stride=64
        )
        with PredictionServer(
            replica, ServerConfig(n_workers=1, max_wait_ms=1.0)
        ) as server:
            result = server.predict(x, CFG)
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )

    def test_worker_side_error_surfaces_with_traceback(self, replica, rng):
        with PredictionServer(
            replica, ServerConfig(n_workers=1, max_wait_ms=1.0)
        ) as server:
            bad = server.submit(np.zeros((4, 7)), CFG)
            error = bad.exception(timeout=60.0)
            assert isinstance(error, TileExecutionError)
            assert "Traceback" in str(error)
            # the worker survives a raising tile and keeps serving
            good = server.submit(_inputs(rng), CFG)
            assert good.result(timeout=60.0) is not None

    def test_worker_crash_fails_future_instead_of_hanging(self, replica, rng):
        server = PredictionServer(
            replica, ServerConfig(n_workers=1, max_wait_ms=1.0)
        ).start()
        try:
            # sanity: the worker serves before being killed
            server.predict(_inputs(rng), CFG)
            process = server._pool.processes[0]
            process.kill()
            process.join(timeout=10.0)
            assert not process.is_alive()
            doomed = server.submit(_inputs(rng), CFG)
            with pytest.raises(WorkerCrashError):
                doomed.result(timeout=60.0)
            # every later submission fails fast too -- no hangs once dead
            also_doomed = server.submit(_inputs(rng), CFG)
            with pytest.raises(WorkerCrashError):
                also_doomed.result(timeout=60.0)
            assert server.stats().requests_failed == 2
        finally:
            server.close(drain=False)


    def test_workers_exit_when_the_server_is_killed(self, orphaned_worker_pids):
        """A SIGKILLed server process runs no close(): its workers must notice."""
        script = """
import time
import numpy as np
from repro.models import ReplicaSpec, get_model
from repro.serve import PredictionServer, SamplingConfig, ServerConfig

spec = get_model("B-MLP", reduced=True)
replica = ReplicaSpec.capture(spec, spec.build_bayesian(seed=1), build_seed=1)
server = PredictionServer(replica, ServerConfig(n_workers=2, max_wait_ms=1.0)).start()
server.predict(np.zeros((2, 196)), SamplingConfig(n_samples=2, seed=3, grng_stride=64))
print(*[process.pid for process in server._pool.processes], flush=True)
time.sleep(120)
"""
        assert orphaned_worker_pids(script) == []

    def test_shutdown_does_not_wait_for_the_orphan_poll(
        self, replica, rng, monkeypatch
    ):
        from repro.distrib import respawn

        monkeypatch.setattr(respawn, "_ORPHAN_POLL_S", 600.0)
        server = PredictionServer(
            replica, ServerConfig(n_workers=2, max_wait_ms=1.0)
        ).start()
        server.predict(_inputs(rng), CFG)
        processes = server._pool.processes
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 60.0
        assert not any(process.is_alive() for process in processes)


class TestWorkerRespawn:
    """Crash recovery: bounded respawns, one requeue per in-flight tile."""

    def test_killed_worker_is_replaced_and_serving_continues(self, replica, rng):
        x = _inputs(rng)
        server = PredictionServer(
            replica,
            ServerConfig(n_workers=2, max_wait_ms=1.0, worker_respawns=2),
        ).start()
        try:
            reference = server.predict(x, CFG)
            victim = server._pool.processes[0]
            victim.kill()
            victim.join(timeout=10.0)
            # requests keep being served (by survivors or the replacement),
            # bit-identically
            for _ in range(3):
                result = server.predict(x, CFG)
                assert np.array_equal(
                    result.sample_probabilities, reference.sample_probabilities
                )
            deadline = time.monotonic() + 15.0
            while (
                time.monotonic() < deadline and server._pool.alive_workers < 2
            ):
                time.sleep(0.05)
            assert server._pool.alive_workers == 2
            assert server._pool.respawns_used == 1
            assert server.stats().requests_failed == 0
        finally:
            server.close(drain=False)

    def test_inflight_tile_requeued_once_before_failing(self, replica, rng):
        """A tile queued on a worker that dies is re-executed, not failed."""
        import os
        import signal

        from repro.distrib.respawn import RespawnPolicy
        from repro.serve.worker import WorkerPool

        x = _inputs(rng)
        reference = mc_predict(
            replica.build(), x, n_samples=4, seed=5, grng_stride=64
        )
        done = {}
        event = threading.Event()

        def handler(tile_id, outcomes, error):
            done[tile_id] = (outcomes, error)
            event.set()

        pool = WorkerPool(
            replica,
            n_workers=2,
            result_handler=handler,
            respawn=RespawnPolicy(max_respawns=1, max_task_retries=1),
        )
        pool.start()
        try:
            victim = pool._workers[0]
            # freeze the worker so the tile provably sits in its queue, then
            # kill it -- the deterministic version of "died mid-tile"
            os.kill(victim.process.pid, signal.SIGSTOP)
            pool._next_worker = 0  # route the tile to the frozen worker
            pool.dispatch(7, [(x, CFG)])
            time.sleep(0.2)
            os.kill(victim.process.pid, signal.SIGKILL)
            assert event.wait(timeout=60.0), "requeued tile never completed"
            outcomes, error = done[7]
            assert error is None
            probabilities, request_error = outcomes[0]
            assert request_error is None
            assert np.array_equal(probabilities, reference.sample_probabilities)
            assert pool.respawns_used == 1
        finally:
            pool.stop(abort=True)

    def test_without_policy_dead_worker_still_fails_fast(self, replica, rng):
        """worker_respawns=0 keeps the pre-respawn fail-fast semantics."""
        server = PredictionServer(
            replica, ServerConfig(n_workers=1, max_wait_ms=1.0)
        ).start()
        try:
            server.predict(_inputs(rng), CFG)
            process = server._pool.processes[0]
            process.kill()
            process.join(timeout=10.0)
            doomed = server.submit(_inputs(rng), CFG)
            with pytest.raises(WorkerCrashError):
                doomed.result(timeout=60.0)
            assert server._pool.respawns_used == 0
        finally:
            server.close(drain=False)


class TestVersionedServer:
    """Hot-swap control plane of the server itself (no HTTP in the loop)."""

    @pytest.fixture
    def registry(self, tiny_mlp_spec: ModelSpec) -> ModelRegistry:
        registry = ModelRegistry()
        registry.register(
            "v1",
            ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11)),
        )
        registry.register(
            "v2",
            ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=22)),
        )
        registry.deploy("v1")
        return registry

    def test_start_requires_a_deployed_version(self, tiny_mlp_spec):
        registry = ModelRegistry()
        registry.register(
            "v1",
            ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11)),
        )
        server = PredictionServer(registry, ServerConfig(max_wait_ms=1.0))
        with pytest.raises(RuntimeError, match="no deployed version"):
            server.start()

    def test_requests_pin_the_version_active_at_submit(
        self, registry, tiny_mlp_spec, rng
    ):
        x = _inputs(rng)
        v1 = mc_predict(tiny_mlp_spec.build_bayesian(seed=11), x,
                        n_samples=4, seed=5, grng_stride=64)
        v2 = mc_predict(tiny_mlp_spec.build_bayesian(seed=22), x,
                        n_samples=4, seed=5, grng_stride=64)
        assert not np.array_equal(v1.sample_probabilities, v2.sample_probabilities)
        with PredictionServer(registry, ServerConfig(max_wait_ms=1.0)) as server:
            before = server.predict(x, CFG)
            deployment = server.deploy("v2")
            assert (deployment.version, deployment.generation) == ("v2", 2)
            after = server.predict(x, CFG)
            restored = server.rollback()
            assert restored.version == "v1" and restored.rolled_back
            back = server.predict(x, CFG)
        assert np.array_equal(before.sample_probabilities, v1.sample_probabilities)
        assert np.array_equal(after.sample_probabilities, v2.sample_probabilities)
        assert np.array_equal(back.sample_probabilities, v1.sample_probabilities)

    def test_canary_pinning_via_load_version(self, registry, tiny_mlp_spec, rng):
        x = _inputs(rng)
        v2 = mc_predict(tiny_mlp_spec.build_bayesian(seed=22), x,
                        n_samples=4, seed=5, grng_stride=64)
        with PredictionServer(registry, ServerConfig(max_wait_ms=1.0)) as server:
            with pytest.raises(UnknownVersionError):
                server.predict(x, CFG, version="v2")  # not loaded yet
            server.load_version("v2")
            assert server.loaded_versions() == ["v1", "v2"]
            canary = server.predict(x, CFG, version="v2")
            # the canary never moved the active pointer
            assert server.active_deployment().version == "v1"
            snapshot = server.stats()
        assert np.array_equal(canary.sample_probabilities, v2.sample_probabilities)
        assert snapshot.per_version["v2"]["completed"] == 1

    def test_retire_guards_and_reload(self, registry, rng):
        x = _inputs(rng)
        with PredictionServer(registry, ServerConfig(max_wait_ms=1.0)) as server:
            with pytest.raises(ValueError, match="active"):
                server.retire_version("v1")
            server.deploy("v2")
            with pytest.raises(ValueError, match="rollback target"):
                server.retire_version("v1")
            server.deploy("v2")  # no-op; v1 is still the rollback target
            server.load_version("v1")  # idempotent: already loaded
            # make v2 the rollback target by deploying v1 again, then retire v2
            server.deploy("v1")
            with pytest.raises(ValueError, match="rollback target"):
                server.retire_version("v2")
            server.deploy("v1")  # no-op
            server.rollback()    # active=v2, rollback target v1
            server.rollback()    # active=v1, rollback target v2
            assert server.active_deployment().version == "v1"
            # retiring an unknown version surfaces from the registry
            with pytest.raises(UnknownVersionError):
                server.retire_version("ghost")
            server.predict(x, CFG)
        # drained server: deploy after close is refused
        with pytest.raises(RuntimeError):
            server.deploy("v2")

    def test_retire_unloads_and_deploy_reloads(self, tiny_mlp_spec, rng):
        registry = ModelRegistry()
        for index, seed in enumerate((11, 22, 33), start=1):
            registry.register(
                f"v{index}",
                ReplicaSpec.capture(
                    tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=seed)
                ),
            )
        registry.deploy("v1")
        x = _inputs(rng)
        v2 = mc_predict(tiny_mlp_spec.build_bayesian(seed=22), x,
                        n_samples=4, seed=5, grng_stride=64)
        with PredictionServer(registry, ServerConfig(max_wait_ms=1.0)) as server:
            server.deploy("v2")
            server.deploy("v3")  # rollback target is now v2
            assert server.loaded_versions() == ["v1", "v2", "v3"]
            server.retire_version("v1")
            assert server.loaded_versions() == ["v2", "v3"]
            with pytest.raises(UnknownVersionError):
                server.predict(x, CFG, version="v1")  # unloaded
            redeployed = server.deploy("v2")
            assert redeployed.version == "v2"
            result = server.predict(x, CFG)
        assert np.array_equal(result.sample_probabilities, v2.sample_probabilities)

    def test_swap_through_worker_pool_respawn_template(
        self, registry, tiny_mlp_spec, rng
    ):
        """A worker respawned after a deploy rebuilds the post-swap versions."""
        x = _inputs(rng)
        v2 = mc_predict(tiny_mlp_spec.build_bayesian(seed=22), x,
                        n_samples=4, seed=5, grng_stride=64)
        config = ServerConfig(n_workers=1, max_wait_ms=1.0, worker_respawns=1)
        with PredictionServer(registry, config) as server:
            server.predict(x, CFG)
            server.deploy("v2")
            # kill the only worker *after* the swap: the respawned
            # replacement must rebuild v2 from the updated template
            process = server._pool.processes[0]
            process.kill()
            process.join(timeout=10.0)
            deadline = time.monotonic() + 30.0
            while server._pool.alive_workers < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            result = server.predict(x, CFG)
        assert np.array_equal(result.sample_probabilities, v2.sample_probabilities)
