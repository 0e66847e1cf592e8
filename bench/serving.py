"""Serving workloads: ``serve_http_closed`` and ``serve_inproc_burst``.

Every response is compared byte for byte with a direct ``mc_predict`` on an
independently built model; a mismatch, an error or a refusal is a failed op.
The traced run reads the product's *existing* span tree (``GET
/v1/trace/<id>`` / ``Tracer.get``) -- the benchmark adds spans only around its
own calls.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable

import numpy as np

from repro.bnn import mc_predict
from repro.core import backend as kernel_backend
from repro.models import ReplicaSpec, get_model
from repro.serve import GatewayClient, PredictionServer, ServingGateway
from repro.serve.client import GatewayError, GatewayShedError
from repro.serve.executor import SamplingConfig, TileExecutor, materialize_epsilon_sweep

from . import spec as names
from .harness import (
    Calibrator,
    Spans,
    Window,
    digest_arrays,
    kernel_counts_per_op,
    median_ms,
    run_cycles,
    window_metrics,
)

BUILD_SEED = 42
N_INPUTS = 8
N_SAMPLES = 8
WARMUP_OPS = 5
STAGES = ("admission", "queue_wait", "execute", "epsilon_replay", "forward", "serialization")


def _stage_ms(tree: dict) -> dict[str, float]:
    """Stage durations of one product trace tree, plus its root extent."""
    stages = {name: 0.0 for name in STAGES}
    for span in tree["spans"]:
        if span["name"] in stages:
            stages[span["name"]] += span["duration_ms"]
    # admission starts before the handle does: the root reaches back to it
    earliest = min([0.0] + [span["offset_ms"] for span in tree["spans"]])
    stages["root"] = tree["duration_ms"] - earliest
    # 'forward' runs inside 'execute' and itself contains 'epsilon_replay'
    stages["tile_assembly"] = stages["execute"] - stages["forward"]
    return stages


class ServeWorkload:
    """Shared set-up: model, replica, seeded inputs, ``mc_predict`` references."""

    rows = 16

    def __init__(self, name: str, seed: int, trace: bool, quick: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.shed = 0
        self.spans = Spans()
        self.stages: dict[str, list[float]] = {}
        self.calibrator = Calibrator()

    def generate_inputs(self) -> np.random.Generator:
        """The request pool; the returned generator goes on to draw the order."""
        rng = np.random.default_rng(self.seed)
        features = int(np.prod(get_model("B-MLP", reduced=True).input_shape))
        self.inputs = [rng.standard_normal((self.rows, features)) for _ in range(N_INPUTS)]
        self.input_digest = digest_arrays(self.inputs)
        return rng

    def _build(self) -> np.random.Generator:
        self.model_spec = get_model("B-MLP", reduced=True)
        self.model = self.model_spec.build_bayesian(seed=BUILD_SEED)
        self.replica = ReplicaSpec.capture(self.model_spec, self.model, build_seed=BUILD_SEED)
        return self.generate_inputs()

    def _reference(self, x: np.ndarray, config: SamplingConfig) -> np.ndarray:
        return mc_predict(
            self.model,
            x,
            n_samples=config.n_samples,
            seed=config.seed,
            grng_stride=config.grng_stride,
            lfsr_bits=config.lfsr_bits,
        ).sample_probabilities

    def worker_pids(self) -> list[int]:
        return []

    def _absorb(self, window: Window) -> Window:
        self.attempted += window.attempted
        self.failed += window.failed
        self.shed += window.shed
        return window

    def _note_stages(self, tree: dict) -> dict[str, float]:
        stages = _stage_ms(tree)
        for name, value in stages.items():
            self.stages.setdefault(name, []).append(value)
        return stages

    def _stage_metrics(self) -> dict[str, float]:
        median = {name: statistics.median(values) for name, values in self.stages.items()}
        metrics = {
            f"serve.stage.{stage}_ms": median[stage]
            for stage in ("admission", "queue_wait", "tile_assembly", "epsilon_replay",
                          "forward", "serialization")
        }
        covered = sum(
            sum(self.stages[stage])
            for stage in ("admission", "queue_wait", "execute", "serialization")
        )
        metrics["bench.span_coverage"] = covered / sum(self.stages["root"])
        return metrics

    def _isolated(self, budget_s: float, config: SamplingConfig) -> dict[str, float]:
        """The engine's entry points called directly at this workload's shapes."""
        model = self.replica.build()
        executor = TileExecutor(model)
        per_tile = 64 // self.rows  # ServerConfig.max_batch_rows default
        tile = [(self.inputs[i % N_INPUTS], config) for i in range(per_tile)]
        executor.execute(tile)  # materialise the sweep outside the timing
        shapes = [
            tuple(layer.weight_posterior.mu.value.shape) for layer in model.bayesian_layers()
        ]
        return {
            "serve.tile_execute_ms": median_ms(lambda: executor.execute(tile), budget_s / 4),
            "serve.execute_one_ms": median_ms(
                lambda: [executor.execute_one(x, config) for x, _ in tile], budget_s / 4
            ),
            "bnn.mc_predict_ms": median_ms(
                lambda: self._reference(self.inputs[0], config), budget_s / 4
            ),
            "core.sweep_materialize_ms": median_ms(
                lambda: materialize_epsilon_sweep(shapes, config), budget_s / 4
            ),
        }

    def _engine_metrics(self, before, after, ops: int, counters: dict) -> dict[str, float]:
        """Batching-engine ratios from two ``PredictionServer.stats()`` snapshots."""
        tiles = after.tiles_executed - before.tiles_executed
        requests = after.requests_completed - before.requests_completed
        fused = after.fusion["fused_requests"] - before.fusion["fused_requests"]
        metrics = {
            "serve.requests_per_tile": requests / tiles,
            "serve.rows_per_tile": (after.rows_completed - before.rows_completed) / tiles,
            "serve.tiles_per_op": tiles / requests,
            "serve.fused_request_share": fused / requests,
            "serve.shed_share": self.shed / max(self.attempted, 1),
        }
        metrics.update(kernel_counts_per_op(counters, ops))
        return metrics

    def info(self) -> dict:
        return {
            "model": self.model_spec.name,
            "rows_per_request": self.rows,
            "distinct_inputs": N_INPUTS,
            "n_samples": N_SAMPLES,
            "input_digest": self.input_digest,
        }


# ----------------------------------------------------------------------
class HttpClosedWorkload(ServeWorkload):
    """Closed loop: 2 keep-alive SDK connections against the HTTP gateway."""

    n_clients = 2
    slice_seconds = 0.3  # load between two calibration pauses

    def setup(self) -> None:
        rng = self._build()
        self.config = SamplingConfig(n_samples=N_SAMPLES, seed=5)
        self.sampling = {"n_samples": N_SAMPLES, "seed": 5}
        self.refs = [self._reference(x, self.config) for x in self.inputs]
        self.order = rng.integers(N_INPUTS, size=(self.n_clients, 512))
        self.positions = [0] * self.n_clients
        self.gateway = ServingGateway(self.replica).start()
        self.clients = [
            GatewayClient(self.gateway.url, tenant="bench", max_retries=0)
            for _ in range(self.n_clients)
        ]
        warm = Window()
        for index in range(self.n_clients):
            for _ in range(WARMUP_OPS):
                self._request(index, self.positions[index], warm)
                self.positions[index] += 1
        self._absorb(warm)

    def _request(self, client_index: int, position: int, window: Window):
        """One verified round trip; returns ``(start, end)`` or ``None`` on failure."""
        client = self.clients[client_index]
        which = int(self.order[client_index, position % self.order.shape[1]])
        start = time.perf_counter()
        try:
            payload = client.predict_arrays(self.inputs[which], sampling=self.sampling)
        except GatewayError as error:
            window.refuse(shed=isinstance(error, GatewayShedError))
            return None
        end = time.perf_counter()
        window.record(start, end)
        window.failed += not np.array_equal(payload["sample_probabilities"], self.refs[which])
        return start, end

    def _closed_loop(self, seconds: float, traced: bool) -> Window:
        """Both clients loop for ``seconds``, pausing together between slices.

        The calibration kernel must not share the interpreter with the load,
        so the clients stop at a barrier while the main thread runs it.
        """
        n_slices = max(1, round(seconds / self.slice_seconds))
        barrier = threading.Barrier(self.n_clients + 1)
        windows = [Window() for _ in range(self.n_clients)]
        spans = [Spans() for _ in range(self.n_clients)]

        def client_loop(index: int) -> None:
            try:
                for _ in range(n_slices):
                    barrier.wait(timeout=120)  # the main thread has calibrated
                    deadline = time.perf_counter() + seconds / n_slices
                    while time.perf_counter() < deadline:
                        sent = self._request(index, self.positions[index], windows[index])
                        self.positions[index] += 1
                        if traced and sent is not None:
                            self._fetch_trace(index, sent, spans[index])
                    barrier.wait(timeout=120)  # every client is idle again
            except BaseException:
                barrier.abort()
                raise

        threads = [
            threading.Thread(target=client_loop, args=(index,), name=f"bench-client-{index}")
            for index in range(self.n_clients)
        ]
        for thread in threads:
            thread.start()
        merged = Window()
        speed = self.calibrator.speed()
        try:
            for _ in range(n_slices):
                cpu_before, start = time.process_time(), time.perf_counter()
                barrier.wait(timeout=120)
                barrier.wait(timeout=120)
                duration = time.perf_counter() - start
                merged.cpu_s += time.process_time() - cpu_before
                after = self.calibrator.speed()
                for window in windows:
                    merged.latencies += window.latencies
                    window.latencies = []
                merged.close_slice(duration, (speed + after) / 2)
                speed = after
        finally:
            for thread in threads:
                thread.join()
        for window, log in zip(windows, spans):
            merged.attempted += window.attempted
            merged.failed += window.failed
            merged.shed += window.shed
            self.spans.extend(log)
        return self._absorb(merged)

    def _fetch_trace(self, index: int, sent: tuple[float, float], spans: Spans) -> None:
        """Adopt the product's span tree for the request this thread just made."""
        client = self.clients[index]
        start, end = sent
        fetch_from = time.perf_counter()
        tree = client.trace(client.last_request_id)
        fetched = time.perf_counter()
        stages = self._note_stages(tree)
        rtt_ms = 1e3 * (end - start)
        for name, value in (
            ("client_rtt", rtt_ms),
            ("http_overhead", rtt_ms - stages["root"]),
            ("trace_fetch", 1e3 * (fetched - fetch_from)),
        ):
            self.stages.setdefault(name, []).append(value)
        op = spans.next_op()
        spans.add("serve.client_rtt", start, end, None, op)
        # the server clock has no common origin with the client's: centre the
        # server's root inside the round trip it belongs to
        origin = start + (end - start - stages["root"] / 1e3) / 2
        for span in tree["spans"]:
            begin = origin + (span["offset_ms"] + stages["root"] - tree["duration_ms"]) / 1e3
            spans.add(
                "serve.stage." + span["name"],
                begin,
                begin + span["duration_ms"] / 1e3,
                "serve.stage." + span["parent"] if span["parent"] else "serve.client_rtt",
                op,
            )

    def timed(self, seconds: float) -> Window:
        return self._closed_loop(seconds, traced=False)

    def traced(self, seconds: float) -> dict[str, float]:
        server = self.gateway.prediction_server
        before = server.stats()
        kernel_backend.reset_counters()
        plain = self._closed_loop(0.3 * seconds, traced=False)
        traced = self._closed_loop(0.4 * seconds, traced=True)
        counters = kernel_backend.counters_snapshot()
        metrics = window_metrics(plain)
        metrics.update(self._engine_metrics(before, server.stats(), plain.ops + traced.ops, counters))
        metrics.update(self._stage_metrics())
        metrics.update(
            {
                "serve.client_rtt_ms": statistics.median(self.stages["client_rtt"]),
                "serve.http_overhead_ms": statistics.median(self.stages["http_overhead"]),
                "obs.trace_fetch_ms": statistics.median(self.stages["trace_fetch"]),
                "obs.metrics_scrape_ms": median_ms(self.clients[0].metrics, 0.05 * seconds),
                # every request names the one warm config
                "serve.cold_config_share": 0.0,
                "bench.trace_overhead_ratio": metrics["ops_per_s"]
                / window_metrics(traced)["ops_per_s"],
            }
        )
        metrics.update(self._isolated(0.2 * seconds, self.config))
        return metrics

    def info(self) -> dict:
        return dict(super().info(), clients=self.n_clients, sampling=self.sampling)

    def close(self) -> None:
        for client in getattr(self, "clients", ()):
            client.close()
        if hasattr(self, "gateway"):
            self.gateway.close()


# ----------------------------------------------------------------------
class InprocBurstWorkload(ServeWorkload):
    """Bursts of 32 un-awaited 4-row submits against ``PredictionServer``."""

    rows = 4
    burst = 32
    bursts_per_cycle = 40
    n_cold = 7  # hot + cold > max_cached_configs: a recurring cold seed was evicted

    def setup(self) -> None:
        rng = self._build()
        self.hot = [SamplingConfig(n_samples=N_SAMPLES, seed=seed) for seed in (5, 6)]
        self.cold = [
            SamplingConfig(n_samples=N_SAMPLES, seed=1000 + index)
            for index in range(self.n_cold)
        ]
        # hot references are built here; a cold config's cost ~30 ms of sweep
        # generation per input, so those are checked after the window closes
        self.refs = {
            (which, config): self._reference(x, config)
            for which, x in enumerate(self.inputs)
            for config in self.hot
        }
        self.unchecked: list[tuple[int, SamplingConfig, np.ndarray]] = []
        self.order = rng.integers(N_INPUTS, size=(self.bursts_per_cycle, self.burst))
        self.cold_position = int(rng.integers(self.bursts_per_cycle))
        self.cold_slot = int(rng.integers(len(self.hot)))
        self.cycles = 0
        self.cold_requests = 0
        self.server = PredictionServer(self.replica).start()
        warm = Window()
        for _ in range(WARMUP_OPS):
            self._burst(self.order[0], self.hot, warm, None)
        self._absorb(warm)

    def _burst(self, order, configs, window: Window, spans: Spans | None) -> None:
        server = self.server
        start = time.perf_counter()
        if spans is None:
            futures = [
                server.submit(self.inputs[which], configs[i % 2])
                for i, which in enumerate(order)
            ]
            handles = ()
        else:
            futures, handles, ops = [], [], []
            for i, which in enumerate(order):
                ops.append(spans.next_op())
                handle = server.tracer.begin(kind="predict", rows=self.rows)
                with spans.span("serve.submit", op=ops[-1]):
                    futures.append(
                        server.submit(self.inputs[which], configs[i % 2], trace=handle)
                    )
                handles.append(handle)
        results = []
        for i, future in enumerate(futures):
            try:
                if spans is None:
                    result = future.result(timeout=60)
                else:
                    with spans.span("serve.result_wait", op=ops[i]):
                        result = future.result(timeout=60)
            except Exception:  # noqa: BLE001 - any failed request is a failed op
                window.refuse()
                results.append(None)
                continue
            window.record(start, time.perf_counter())
            results.append(result)
        for i, (which, result) in enumerate(zip(order, results)):
            if result is None:
                continue
            key = (int(which), configs[i % 2])
            if key in self.refs:
                window.failed += not np.array_equal(result.sample_probabilities, self.refs[key])
            else:
                self.unchecked.append((*key, result.sample_probabilities))
        for handle in handles:
            self._note_stages(server.tracer.get(handle.trace_id))

    def _cycle(self, spans: Spans | None) -> Callable[[Window], None]:
        def cycle(window: Window) -> None:
            for position in range(self.bursts_per_cycle):
                configs = list(self.hot)
                if position == self.cold_position:
                    configs[self.cold_slot] = self.cold[self.cycles % self.n_cold]
                    self.cold_requests += self.burst // 2
                self._burst(self.order[position], configs, window, spans)
            self.cycles += 1

        return cycle

    def _run(self, seconds: float, spans: Spans | None) -> Window:
        window = run_cycles(self._cycle(spans), seconds, self.calibrator)
        for which, config, got in self.unchecked:
            if (which, config) not in self.refs:
                self.refs[(which, config)] = self._reference(self.inputs[which], config)
            window.failed += not np.array_equal(got, self.refs[(which, config)])
        self.unchecked.clear()
        return self._absorb(window)

    def timed(self, seconds: float) -> Window:
        return self._run(seconds, None)

    def traced(self, seconds: float) -> dict[str, float]:
        before = self.server.stats()
        kernel_backend.reset_counters()
        attempted, cold = self.attempted, self.cold_requests
        plain = self._run(0.3 * seconds, None)
        traced = self._run(0.4 * seconds, self.spans)
        counters = kernel_backend.counters_snapshot()
        ops = plain.ops + traced.ops
        metrics = window_metrics(plain)
        metrics.update(self._engine_metrics(before, self.server.stats(), ops, counters))
        metrics.update(self._stage_metrics())
        metrics.update(
            {
                # means: a burst's first wait absorbs the time, the rest return at once
                "serve.submit_ms": self.spans.total_ms("serve.submit") / traced.ops,
                "serve.result_wait_ms": self.spans.total_ms("serve.result_wait") / traced.ops,
                "serve.cold_config_share": (self.cold_requests - cold)
                / (self.attempted - attempted),
                "bench.trace_overhead_ratio": metrics["ops_per_s"]
                / window_metrics(traced)["ops_per_s"],
            }
        )
        metrics.update(self._isolated(0.2 * seconds, self.hot[0]))
        return metrics

    def info(self) -> dict:
        return dict(
            super().info(),
            burst=self.burst,
            bursts_per_cycle=self.bursts_per_cycle,
            cold_bursts_per_cycle=1,
            cold_config_pool=self.n_cold,
        )

    def close(self) -> None:
        if hasattr(self, "server"):
            self.server.close()


def build(name: str, seed: int, trace: bool, quick: bool = False) -> ServeWorkload:
    cls = {names.HTTP: HttpClosedWorkload, names.BURST: InprocBurstWorkload}
    return cls[name](name, seed, trace, quick)
