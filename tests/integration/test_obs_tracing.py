"""Observability integration: tracing must be a pure side channel.

Three properties of the observability layer, proven over real sockets:

1. **Byte transparency** -- the ``/v1/predict`` response *body* is
   byte-identical with tracing on (default), off (``REPRO_OBS=0``) and
   sampled, and its floats equal a standalone ``mc_predict`` exactly; only
   the ``X-Request-Id`` *header* differs.
2. **Span propagation** -- a traced request's span tree crosses the
   admission -> waiting room -> tile -> execution path and comes back
   assembled: the executor's leaf stage spans are parented under
   ``execute`` and fall inside it on the request's timeline.
3. **Exposition** -- ``/v1/metrics`` renders the serving families fed by
   the pull-model collectors plus the gateway's push counters.

A tile that fails in the executor closes its requests' traces as ``error``
and a shutdown closes queued ones as ``aborted``; no trace is left open.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.models import ActivationSpec, DenseSpec, ModelSpec, ReplicaSpec
from repro.serve import (
    GatewayClient,
    GatewayError,
    ModelRegistry,
    PredictionServer,
    SamplingConfig,
    ServerConfig,
    ServingGateway,
)

N_FEATURES = 16
SAMPLING = {"n_samples": 4, "seed": 5, "grng_stride": 64}
CONFIG = SamplingConfig(**SAMPLING)


def _spec() -> ModelSpec:
    return ModelSpec(
        name="obs-mlp",
        input_shape=(1, 4, 4),
        num_classes=3,
        dataset="integration-test",
        flatten_input=True,
        layers=(
            DenseSpec("fc1", 8),
            ActivationSpec("relu1"),
            DenseSpec("fc2", 3),
        ),
    )


def _registry(spec: ModelSpec) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register("v1", ReplicaSpec.capture(spec, spec.build_bayesian(seed=11)))
    registry.deploy("v1")
    return registry


def _raw_predict(gateway: ServingGateway, x: np.ndarray) -> tuple[dict, bytes]:
    """One predict over a real socket; returns (headers, raw body bytes)."""
    client = GatewayClient(gateway.url)
    try:
        status, headers, raw = client._request_once(
            "POST", "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING}
        )
    finally:
        client.close()
    assert status == 200
    return headers, raw


def test_predict_body_bytes_identical_on_off_and_sampled(monkeypatch):
    spec = _spec()
    x = np.random.default_rng(3).normal(size=(4, N_FEATURES))

    with ServingGateway(_registry(spec)) as gateway:
        headers_on, raw_on = _raw_predict(gateway, x)
    assert "x-request-id" in headers_on  # traced: the id rides a header

    monkeypatch.setenv("REPRO_OBS", "0")
    with ServingGateway(_registry(spec)) as gateway:
        headers_off, raw_off = _raw_predict(gateway, x)
    assert "x-request-id" not in headers_off
    monkeypatch.delenv("REPRO_OBS")

    with ServingGateway(
        _registry(spec), ServerConfig(trace_sample_rate=0.5)
    ) as gateway:
        headers_a, raw_a = _raw_predict(gateway, x)  # sampled out (1st of 2)
        headers_b, raw_b = _raw_predict(gateway, x)  # sampled in
    assert "x-request-id" not in headers_a
    assert "x-request-id" in headers_b

    # the acceptance surface: the response BODY never changes
    assert raw_on == raw_off == raw_a == raw_b

    reference = mc_predict(
        spec.build_bayesian(seed=11),
        x,
        n_samples=CONFIG.n_samples,
        seed=CONFIG.seed,
        grng_stride=CONFIG.grng_stride,
        lfsr_bits=CONFIG.lfsr_bits,
    )
    payload = json.loads(raw_on)
    assert np.array_equal(
        np.asarray(payload["sample_probabilities"], dtype=np.float64),
        reference.sample_probabilities,
    )


def test_trace_endpoints_expose_the_assembled_span_tree():
    spec = _spec()
    config = ServerConfig(max_wait_ms=1.0)
    with ServingGateway(_registry(spec), config) as gateway:
        client = GatewayClient(gateway.url)
        x = np.random.default_rng(4).normal(size=(3, N_FEATURES))
        client.predict(x, sampling=SAMPLING)
        trace_id = client.last_request_id
        assert trace_id

        trace = client.trace(trace_id)
        assert trace["trace_id"] == trace_id
        assert trace["status"] == "ok"
        assert trace["meta"]["rows"] == 3
        spans = {span["name"]: span for span in trace["spans"]}
        for stage in (
            "admission",
            "queue_wait",
            "execute",
            "waiting_room",
            "serialization",
        ):
            assert stage in spans, stage
        # the executor's leaf spans are parented under the tile execution
        for leaf in ("epsilon_replay", "forward"):
            assert spans[leaf]["parent"] == "execute"
            assert (
                spans["execute"]["offset_ms"] - 1.0
                <= spans[leaf]["offset_ms"]
                <= spans["execute"]["offset_ms"] + spans["execute"]["duration_ms"] + 1.0
            )

        listing = client.traces(slowest=4)
        assert any(t["trace_id"] == trace_id for t in listing["traces"])
        assert listing["open"] == 0

        with pytest.raises(GatewayError) as err:
            client.trace("deadbeef00000001")
        assert err.value.status == 404 and err.value.code == "not_found"
        client.close()


def test_metrics_exposition_reflects_served_traffic():
    spec = _spec()
    with ServingGateway(_registry(spec)) as gateway:
        client = GatewayClient(gateway.url, tenant="acme")
        x = np.random.default_rng(5).normal(size=(2, N_FEATURES))
        client.predict(x, sampling=SAMPLING)
        client.predict(x, sampling=SAMPLING)
        text = client.metrics()
        client.close()
    for family in (
        'repro_requests_total{outcome="completed"} 2',
        'repro_version_requests_total{version="v1"} 2',
        "repro_rows_completed_total 4",
        "repro_request_latency_ms_bucket",
        "repro_request_latency_ms_count 2",
        'repro_admission_requests_total{outcome="admitted"} 2',
        'repro_tenant_rows_total{tenant="acme"',
        # two sequential predicts: nothing else was arriving, so neither
        # tile waited out max_wait_ms
        'repro_tile_flushes_total{cause="idle"} 2',
        "repro_gateway_requests_total",
        'status="200"',
        "repro_traces_recorded_total 2",
        "repro_traces_open 0",
        # the plain functions keep their counter names
        'repro_kernel_calls_total{kernel="sample_matmul",backend="reference"}',
    ):
        assert family in text, family
    # the legacy latency window is gone, and so is its gauge
    assert "repro_latency_window_saturation" not in text


def test_failed_tile_closes_its_trace_as_error_without_leaking():
    replica = ReplicaSpec.capture(_spec(), _spec().build_bayesian(seed=11))
    x = np.random.default_rng(6).normal(size=(2, N_FEATURES))
    server = PredictionServer(replica, ServerConfig(max_wait_ms=1.0)).start()
    try:
        reference = server.predict(x, CONFIG)
        executor = server._executor
        inner = executor.execute

        def failing_once(requests):
            executor.execute = inner
            raise RuntimeError("tile exploded")

        executor.execute = failing_once
        doomed = server.submit(x, CONFIG)
        with pytest.raises(RuntimeError, match="tile exploded"):
            doomed.result(timeout=60.0)
        result = server.predict(x, CONFIG)  # the next tile serves normally
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )
        assert server.tracer.open_count == 0
        statuses = [t["status"] for t in server.tracer.slowest(16)]
        assert sorted(statuses) == ["error", "ok", "ok"]
    finally:
        server.close(drain=False)
    assert server.tracer.open_count == 0
