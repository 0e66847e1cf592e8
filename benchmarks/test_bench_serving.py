"""Serving throughput benchmark: concurrent clients vs per-request ``mc_predict``.

Eight client threads each fire four 16-row prediction requests at a
:class:`~repro.serve.server.PredictionServer` and wait for their futures --
the aggregate wall-clock time of all 32 requests is the throughput metric.
The baseline is the same 32 requests executed sequentially through standalone
``mc_predict`` calls, i.e. what callers did before the serving front-end
existed (each call paying its own stream-bank construction and epsilon
generation).

Three serving modes are timed against that baseline at two generator
strides:

* ``inline`` -- tiles execute on the dispatcher thread (single process);
* ``pool2`` -- tiles shard round-robin across two replica worker processes;
* ``stride256`` is the library-default sampling configuration, where
  per-request epsilon generation dominates and the server's cached replay
  shines; ``stride1`` is the hardware-faithful sliding-window mode with far
  cheaper generation, the conservative end of the speedup.

Every mode returns bit-identical answers (asserted here per round and
property-tested in ``tests/integration/test_serving_equivalence.py``);
``benchmarks/emit_results.py`` turns a ``--benchmark-json`` dump of this
module into the ``BENCH_serving.json`` serving-speedup report.

``test_bench_serving_fused`` isolates the tile-fusion win itself: one
executor tile of four pooled same-config requests, measured with fusion on
(``REPRO_FUSED=auto``, one folded forward, gated by the row-stability
proof) against fusion off (``REPRO_FUSED=0``, four per-request forwards --
the PR 3 execution shape).  Both legs assert byte-equality against
standalone ``mc_predict`` every run; ``emit_results.py --tag
serving_fused`` derives the fused-vs-unfused speedup with a >= 1.3x
acceptance bound at the library-default stride 256.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.core import stability
from repro.models import ReplicaSpec, get_model
from repro.serve import PredictionServer, SamplingConfig, ServerConfig
from repro.serve.executor import TileExecutor

N_CLIENTS = 8
REQUESTS_PER_CLIENT = 4
ROWS_PER_REQUEST = 16
N_SAMPLES = 8

#: mode -> worker count (None marks the sequential mc_predict baseline)
SERVING_MODES: dict[str, int | None] = {
    "sequential": None,
    "inline": 0,
    "pool2": 2,
}


def _workload():
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=42)
    rng = np.random.default_rng(7)
    requests = [
        [
            rng.normal(size=(ROWS_PER_REQUEST, 196))
            for _ in range(REQUESTS_PER_CLIENT)
        ]
        for _ in range(N_CLIENTS)
    ]
    return spec, model, requests


@pytest.mark.parametrize("mode", list(SERVING_MODES))
@pytest.mark.parametrize("stride", [1, 256])
def test_bench_serving(benchmark, stride, mode):
    # recorded into the --benchmark-json dump so emit_results.py derives
    # requests/s from the true request count instead of hardcoding it
    benchmark.extra_info["n_requests"] = N_CLIENTS * REQUESTS_PER_CLIENT
    spec, model, requests = _workload()
    sampling = SamplingConfig(n_samples=N_SAMPLES, seed=0, grng_stride=stride)
    reference = mc_predict(
        model,
        requests[0][0],
        n_samples=N_SAMPLES,
        seed=0,
        grng_stride=stride,
    ).sample_probabilities
    n_workers = SERVING_MODES[mode]

    if n_workers is None:

        def run():
            outputs = [
                mc_predict(
                    model, x, n_samples=N_SAMPLES, seed=0, grng_stride=stride
                )
                for group in requests
                for x in group
            ]
            return outputs[0].sample_probabilities

        probabilities = benchmark.pedantic(run, rounds=7, iterations=1, warmup_rounds=1)
        assert np.array_equal(probabilities, reference)
        return

    config = ServerConfig(
        n_workers=n_workers,
        max_batch_rows=64,
        max_wait_ms=2.0,
        max_pending_rows=N_CLIENTS * REQUESTS_PER_CLIENT * ROWS_PER_REQUEST,
    )
    with PredictionServer(ReplicaSpec.capture(spec, model), config) as server:

        def run():
            head: list[np.ndarray] = []

            def client(index: int) -> None:
                futures = [server.submit(x, sampling) for x in requests[index]]
                results = [future.result(timeout=300.0) for future in futures]
                if index == 0:
                    head.append(results[0].sample_probabilities)

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return head[0]

        probabilities = benchmark.pedantic(
            run, rounds=7, iterations=1, warmup_rounds=1
        )
        # throughput must never cost bit-exactness vs standalone mc_predict
        assert np.array_equal(probabilities, reference)
        snapshot = server.stats()
    assert snapshot.requests_completed >= N_CLIENTS * REQUESTS_PER_CLIENT
    assert snapshot.mean_batch_occupancy is not None
    assert snapshot.mean_batch_occupancy > 1.0  # pooling actually happened


#: pooled same-config requests in the fused-vs-unfused tile
FUSED_TILE_REQUESTS = 4


@pytest.mark.parametrize("mode", ["fused", "unfused"])
@pytest.mark.parametrize("stride", [1, 256])
def test_bench_serving_fused(benchmark, stride, mode, monkeypatch):
    monkeypatch.setenv("REPRO_FUSED", "auto" if mode == "fused" else "0")
    if mode == "fused" and not stability.probe.verdict().ok:
        # pragma: no cover - platform guard; the fallback leg still runs
        pytest.skip("this BLAS fails the row-stability verdict; fusion is off")
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=42)
    rng = np.random.default_rng(7)
    xs = [
        rng.normal(size=(ROWS_PER_REQUEST, 196))
        for _ in range(FUSED_TILE_REQUESTS)
    ]
    sampling = SamplingConfig(n_samples=N_SAMPLES, seed=0, grng_stride=stride)
    executor = TileExecutor(model)
    requests = [(x, sampling) for x in xs]
    benchmark.extra_info["n_requests"] = FUSED_TILE_REQUESTS

    def run():
        return [probabilities for probabilities, _ in executor.execute(requests)]

    # a warm tile is ~1.5 ms: single-call rounds measure the allocator and
    # the neighbours, not the tile, and the enforced ratio has no room for
    # that since the unfused leg stopped rebuilding weights per request
    results = benchmark.pedantic(run, rounds=15, iterations=20, warmup_rounds=1)
    events = executor.consume_fusion_events()
    if mode == "fused":
        # the proof passed, so every round must genuinely have fused
        assert events["fused_tiles"] >= 1 and events["fallback_requests"] == 0
    else:
        # the forced fallback is counted, never silent
        assert events["fused_tiles"] == 0 and events["fallback_disabled"] >= 1
    # BOTH legs serve bytes identical to standalone mc_predict
    for x, probabilities in zip(xs, results):
        reference = mc_predict(
            model, x, n_samples=N_SAMPLES, seed=0, grng_stride=stride
        )
        assert (
            probabilities.tobytes() == reference.sample_probabilities.tobytes()
        )
