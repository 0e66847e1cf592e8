"""Gateway soak: steady-load p99, tracing overhead, zero dropped requests.

Run from the repository root::

    PYTHONPATH=src python tests/soak/gateway_soak.py

A script, not a ``test_*`` module: the tier-1 suite does not collect it,
because its two bounds are wall-clock measurements that belong on a runner
of their own.  Both phases soak the full HTTP path -- real sockets, the
``/v1`` JSON API, admission control -- with one
:class:`~repro.serve.client.GatewayClient` per client thread on its own
keep-alive connection, and check every served body byte for byte against
standalone ``mc_predict``:

* **steady** -- ``STEADY_CLIENTS`` tenants fire ``STEADY_REQUESTS`` predictions
  each, one warm-up round plus ``STEADY_ROUNDS``; the row budget fits the
  whole burst, so nothing may shed.  Bound: the pooled p99 request latency
  stays at or under ``GATEWAY_P99_MS`` -- deliberately loose enough for a
  shared runner.
* **obs** -- two gateways in one process, one with full tracing (the
  default) and one built under ``REPRO_OBS=0`` (resolved at construction);
  every client alternates its requests between them, so scheduler jitter
  and GC pauses land on both legs alike.  Bound: the median across
  ``OBS_ROUNDS`` warm rounds of the within-round traced / untraced p99 ratio
  stays at or under ``OBS_OVERHEAD_RATIO`` -- pairing the legs inside a
  round cancels the drift between rounds.

Both phases also require zero dropped requests (neither served exactly nor
shed) and zero failed requests inside the server.  The script prints one
JSON summary line and exits 1 when any bound breaks.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import numpy as np

from repro.bnn import mc_predict
from repro.models import ActivationSpec, DenseSpec, ModelSpec, ReplicaSpec
from repro.serve import (
    GatewayClient,
    GatewayShedError,
    ModelRegistry,
    ServerConfig,
    ServingGateway,
)

N_FEATURES = 16

#: the steady profile: the row budget absorbs the whole burst
STEADY_CLIENTS = 96
STEADY_REQUESTS = 3
STEADY_ROUNDS = 3
STEADY_ROWS = 4
STEADY_SAMPLING = {"n_samples": 4, "seed": 5, "grng_stride": 64}
#: the steady-profile p99 request latency bound on a shared CI runner
GATEWAY_P99_MS = 2500.0

#: the interleaved traced/untraced rounds: 20 traced + 20 untraced requests
#: per client per round
OBS_CLIENTS = 8
OBS_REQUESTS = 40
#: the within-round p99 (~160 requests/leg/round) is a noisy order
#: statistic; its median needs this many rounds to sit ~2 sigma below the
#: bound (measured sd of the 14-round median ~0.025 around a mean of ~1.00)
OBS_ROUNDS = 14
OBS_ROWS = 8
#: real MC-sampling work per request, so fixed microsecond costs of tracing
#: do not read as percent-level overhead
OBS_SAMPLING = {"n_samples": 16, "seed": 5, "grng_stride": 64}
#: full tracing may cost at most 5 % of the untraced p99
OBS_OVERHEAD_RATIO = 1.05


def _spec() -> ModelSpec:
    return ModelSpec(
        name="gateway-soak-mlp",
        input_shape=(1, 4, 4),
        num_classes=3,
        dataset="benchmark",
        flatten_input=True,
        layers=(
            DenseSpec("fc1", 8),
            ActivationSpec("relu1"),
            DenseSpec("fc2", 3),
        ),
    )


def _registry(spec: ModelSpec, model) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register("v1", ReplicaSpec.capture(spec, model))
    registry.deploy("v1")
    return registry


def _workload(model, rows: int, sampling: dict):
    """Four request inputs and their standalone ``mc_predict`` bytes."""
    rng = np.random.default_rng(7)
    inputs = [rng.normal(size=(rows, N_FEATURES)) for _ in range(4)]
    references = [
        mc_predict(model, x, **sampling).sample_probabilities for x in inputs
    ]
    return inputs, references


def _soak_round(urls, n_clients, n_requests, inputs, references, sampling,
                counters, max_retries):
    """One round: every client alternates its requests across ``urls``.

    Returns ``{leg: [latency_ms, ...]}`` of the requests served exactly and
    adds each outcome to ``counters[leg]`` (served / shed / dropped).
    """
    legs = list(urls)
    latencies: dict[str, list[float]] = {leg: [] for leg in legs}
    lock = threading.Lock()

    def client(index: int) -> None:
        input_index = index % len(inputs)
        sdks = {
            leg: GatewayClient(url, tenant=f"tenant-{index % 8}",
                               max_retries=max_retries)
            for leg, url in urls.items()
        }
        try:
            for request in range(n_requests):
                # half the clients start on each leg
                leg = legs[(request + index) % len(legs)]
                start = time.monotonic()
                try:
                    body = sdks[leg].predict(inputs[input_index], sampling=sampling)
                except GatewayShedError:
                    outcome = "shed"
                except Exception:
                    outcome = "dropped"
                else:
                    served = np.asarray(body["sample_probabilities"], dtype=np.float64)
                    exact = np.array_equal(served, references[input_index])
                    outcome = "served" if exact else "dropped"
                elapsed_ms = (time.monotonic() - start) * 1e3
                with lock:
                    counters[leg][outcome] += 1
                    if outcome == "served":
                        latencies[leg].append(elapsed_ms)
        finally:
            for sdk in sdks.values():
                sdk.close()

    threads = [
        threading.Thread(target=client, args=(index,)) for index in range(n_clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies


def _counters(*legs: str) -> dict:
    return {leg: {"served": 0, "shed": 0, "dropped": 0} for leg in legs}


def soak_steady(spec, model) -> tuple[dict, list[str]]:
    inputs, references = _workload(model, STEADY_ROWS, STEADY_SAMPLING)
    config = ServerConfig(
        max_batch_rows=64,
        max_wait_ms=2.0,
        max_pending_rows=STEADY_CLIENTS * STEADY_ROWS,
    )
    counters = _counters("steady")
    pooled: list[float] = []
    with ServingGateway(_registry(spec, model), config) as gateway:
        for _ in range(1 + STEADY_ROUNDS):  # the warm-up round counts too
            pooled += _soak_round(
                {"steady": gateway.url}, STEADY_CLIENTS, STEADY_REQUESTS,
                inputs, references, STEADY_SAMPLING, counters, max_retries=0,
            )["steady"]
        failed = gateway.prediction_server.stats().requests_failed
    p50, p99 = (float(v) for v in np.percentile(pooled, [50.0, 99.0]))
    summary = {
        **counters["steady"],
        "requests_failed": failed,
        "latency_p50_ms": round(p50, 3),
        "latency_p99_ms": round(p99, 3),
    }
    breaches = []
    if p99 > GATEWAY_P99_MS:
        breaches.append(f"steady p99 {p99:.1f} ms > {GATEWAY_P99_MS} ms")
    return summary, breaches + _integrity_breaches("steady", summary)


def soak_obs(spec, model) -> tuple[dict, list[str]]:
    inputs, references = _workload(model, OBS_ROWS, OBS_SAMPLING)
    config = ServerConfig(
        max_batch_rows=64,
        max_wait_ms=2.0,
        # 4x the worst-case in-flight rows: nothing may shed
        max_pending_rows=4 * OBS_CLIENTS * OBS_ROWS,
    )
    # REPRO_OBS is resolved when a component is constructed
    os.environ.pop("REPRO_OBS", None)
    traced = ServingGateway(_registry(spec, model), config)
    os.environ["REPRO_OBS"] = "0"
    untraced = ServingGateway(_registry(spec, model), config)
    del os.environ["REPRO_OBS"]
    gateways = {"traced": traced, "untraced": untraced}
    counters = _counters(*gateways)
    rounds = []
    try:
        for gateway in gateways.values():
            gateway.start()
        urls = {leg: gateway.url for leg, gateway in gateways.items()}
        for _ in range(1 + OBS_ROUNDS):
            rounds.append(_soak_round(
                urls, OBS_CLIENTS, OBS_REQUESTS, inputs, references,
                # a small retry budget, the same for both legs, absorbs a
                # one-off shed under external load without skewing the ratio
                OBS_SAMPLING, counters, max_retries=2,
            ))
        tracer = {
            "traced_recorded": traced.tracer.recorded_count,
            "traced_open": traced.tracer.open_count,
            "untraced_recorded": untraced.tracer.recorded_count,
        }
        failed = sum(
            gateway.prediction_server.stats().requests_failed
            for gateway in gateways.values()
        )
    finally:
        for gateway in gateways.values():
            gateway.close(drain=False)
    # rounds[0] warms the interpreter and dials the keep-alive connections
    ratios = [
        float(np.percentile(rnd["traced"], 99.0))
        / float(np.percentile(rnd["untraced"], 99.0))
        for rnd in rounds[1:]
    ]
    ratio = float(np.median(ratios))
    summary = {
        "traced": counters["traced"]["served"],
        "untraced": counters["untraced"]["served"],
        "shed": sum(c["shed"] for c in counters.values()),
        "dropped": sum(c["dropped"] for c in counters.values()),
        "requests_failed": failed,
        **tracer,
        "obs_overhead_ratio": round(ratio, 4),
        "obs_overhead_ratios_per_round": [round(r, 4) for r in ratios],
    }
    breaches = []
    if ratio > OBS_OVERHEAD_RATIO:
        breaches.append(f"obs overhead ratio {ratio:.4f} > {OBS_OVERHEAD_RATIO}")
    if not tracer["traced_recorded"] or tracer["traced_open"]:
        breaches.append(f"the traced leg's tracer is off or leaks: {tracer}")
    if tracer["untraced_recorded"]:
        breaches.append(f"the REPRO_OBS=0 leg recorded traces: {tracer}")
    return summary, breaches + _integrity_breaches("obs", summary)


def _integrity_breaches(phase: str, summary: dict) -> list[str]:
    return [
        f"{phase}: {summary[key]} {key}"
        for key in ("shed", "dropped", "requests_failed")
        if summary[key]
    ]


def main() -> int:
    spec = _spec()
    model = spec.build_bayesian(seed=11)
    report, breaches = {}, []
    for phase, soak in (("steady", soak_steady), ("obs", soak_obs)):
        report[phase], found = soak(spec, model)
        breaches += found
    report["breaches"] = breaches
    print(json.dumps(report))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
