"""Unit tests for the prediction server: lifecycle, failures, hot swap."""

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
    UnknownVersionError,
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
            bad = server.submit(np.full((4, 16), "x"), CFG)  # not numbers
            with pytest.raises(Exception):
                bad.result(timeout=30.0)
            good = server.submit(_inputs(rng), CFG)
            assert good.result(timeout=30.0).mean_probabilities.shape == (8, 3)
            snapshot = server.stats()
        assert snapshot.requests_failed == 1
        assert snapshot.requests_completed == 1

    @pytest.mark.parametrize("shape", [(4, 7), (2, 0), (3, 16, 1), (1, 1, 4, 4)])
    def test_wrong_row_shape_is_refused_before_queueing(self, replica, rng, shape):
        """A batch whose rows do not match the pinned version's input shape
        raises at submit: nothing is queued, pinned or counted."""
        with PredictionServer(replica, ServerConfig(max_wait_ms=1.0)) as server:
            with pytest.raises(ValueError, match=r"expects rows of shape \(16,\)"):
                server.submit(np.zeros(shape), CFG)
            with pytest.raises(ValueError, match="expects rows of shape"):
                server.submit(np.zeros(shape), CFG, version="v1")
            assert server._pins == {}
            assert server.pending_rows == 0
            good = server.submit(_inputs(rng), CFG)
            assert good.result(timeout=30.0).mean_probabilities.shape == (8, 3)
            snapshot = server.stats()
        assert snapshot.requests_failed == 0
        assert snapshot.requests_completed == 1
        assert snapshot.tiles_executed == 1

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
            bad = server.submit(np.full((4, 16), "x"), CFG)  # queues together...
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


    def test_tile_level_failure_fails_its_requests_and_dispatcher_survives(
        self, replica, rng
    ):
        """An exception escaping the executor fails that tile, not the server."""
        with PredictionServer(replica, ServerConfig(max_wait_ms=1.0)) as server:
            executor = server._executor
            inner = executor.execute
            calls = []

            def failing_once(requests):
                calls.append(len(requests))
                if len(calls) == 1:
                    raise RuntimeError("tile exploded")
                return inner(requests)

            executor.execute = failing_once
            doomed = server.submit(_inputs(rng), CFG)
            with pytest.raises(RuntimeError, match="tile exploded"):
                doomed.result(timeout=30.0)
            x = _inputs(rng)
            result = server.predict(x, CFG)
            snapshot = server.stats()
        reference = mc_predict(replica.build(), x, n_samples=4, seed=5, grng_stride=64)
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )
        assert snapshot.requests_failed == 1
        assert snapshot.requests_completed == 1

    def test_close_joins_the_dispatcher_thread(self, replica, rng):
        server = PredictionServer(replica, ServerConfig(max_wait_ms=1.0)).start()
        server.predict(_inputs(rng), CFG)
        dispatcher = server._dispatcher
        assert dispatcher is not None and dispatcher.is_alive()
        started = time.monotonic()
        server.close()
        assert time.monotonic() - started < 30.0
        assert not dispatcher.is_alive()
        server.close()  # closing twice is a no-op


class TestSingleExecutionPath:
    """Serving has one execution path; the process-pool surface is gone."""

    @pytest.mark.parametrize(
        "option",
        ["n_workers", "start_method", "worker_respawns", "share_epsilon_sweeps"],
    )
    def test_removed_pool_options_are_refused(self, option):
        with pytest.raises(TypeError, match=option):
            ServerConfig(**{option: 1})

    @pytest.mark.parametrize(
        "name", ["WorkerPool", "WorkerCrashError", "TileExecutionError"]
    )
    def test_removed_pool_names_are_not_exported(self, name):
        import repro.serve

        assert name not in repro.serve.__all__
        assert not hasattr(repro.serve, name)

    @pytest.mark.parametrize("module", ["repro.serve.worker", "repro.serve.shm_cache"])
    def test_removed_pool_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_executor_is_built_in_process_at_start(self, replica):
        from repro.serve import MultiVersionExecutor

        server = PredictionServer(replica)
        assert server._executor is None
        with server:
            assert isinstance(server._executor, MultiVersionExecutor)
            assert server._executor.versions() == ["v1"]


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
