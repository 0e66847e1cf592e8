"""HTTP-level bit-exactness and hot-swap integrity of the serving gateway.

The two acceptance properties of the gateway layer:

1. **Wire transparency** -- a prediction served over HTTP (JSON body, real
   socket, pooled into tiles) is byte-identical to a direct in-process
   ``mc_predict`` call with the same version/seed/``SamplingConfig``.
2. **Swap integrity** -- a ``deploy`` -> ``rollback`` cycle under concurrent
   client load loses zero requests and cross-version-mixes zero requests:
   every response reports the version it was pinned to at admission and its
   bytes equal *that* version's standalone ``mc_predict`` exactly.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.nn.metrics import predictive_entropy
from repro.models import (
    ActivationSpec,
    DenseSpec,
    ModelSpec,
    ReplicaSpec,
)
from repro.serve import (
    GatewayConfig,
    ModelRegistry,
    SamplingConfig,
    ServerConfig,
    ServingGateway,
)

N_FEATURES = 16
SAMPLING = {"n_samples": 4, "seed": 5, "grng_stride": 64}
CONFIG = SamplingConfig(**SAMPLING)


def _spec() -> ModelSpec:
    return ModelSpec(
        name="gateway-mlp",
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


def _post(url: str, body: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def _two_version_registry(spec: ModelSpec) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register("v1", ReplicaSpec.capture(spec, spec.build_bayesian(seed=11)))
    registry.register("v2", ReplicaSpec.capture(spec, spec.build_bayesian(seed=22)))
    registry.deploy("v1")
    return registry


def _references(spec: ModelSpec, inputs: list[np.ndarray]) -> dict:
    """Per-version standalone mc_predict bytes for every input."""
    models = {"v1": spec.build_bayesian(seed=11), "v2": spec.build_bayesian(seed=22)}
    return {
        version: [
            mc_predict(
                model,
                x,
                n_samples=CONFIG.n_samples,
                seed=CONFIG.seed,
                grng_stride=CONFIG.grng_stride,
                lfsr_bits=CONFIG.lfsr_bits,
            ).sample_probabilities
            for x in inputs
        ]
        for version, model in models.items()
    }


def test_http_served_bytes_equal_mc_predict():
    """Wire transparency with concurrent clients."""
    spec = _spec()
    registry = _two_version_registry(spec)
    rng = np.random.default_rng(7)
    inputs = [rng.normal(size=(rows, N_FEATURES)) for rows in (4, 2, 6, 4, 1, 8)]
    references = _references(spec, inputs)

    results: list[dict | None] = [None] * len(inputs)
    errors: list[Exception] = []

    config = ServerConfig(max_batch_rows=16, max_wait_ms=2.0)
    with ServingGateway(registry, config) as gateway:
        url = gateway.url + "/v1/predict"

        def client(index: int) -> None:
            try:
                results[index] = _post(
                    url, {"x": inputs[index].tolist(), "sampling": SAMPLING}
                )
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(inputs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)

    assert not errors
    for index, body in enumerate(results):
        assert body is not None, f"request {index} was lost"
        assert body["version"] == "v1"
        served = np.asarray(body["sample_probabilities"], dtype=np.float64)
        assert np.array_equal(served, references["v1"][index]), (
            f"request {index} diverged from standalone mc_predict"
        )


def test_deploy_rollback_under_load_loses_and_mixes_nothing():
    """Hot swap integrity: continuous traffic across deploy -> rollback."""
    spec = _spec()
    registry = _two_version_registry(spec)
    rng = np.random.default_rng(3)
    inputs = [rng.normal(size=(4, N_FEATURES)) for _ in range(4)]
    references = _references(spec, inputs)
    # different weights => different bytes: the mixing check below is real
    for index in range(len(inputs)):
        assert not np.array_equal(
            references["v1"][index], references["v2"][index]
        )

    n_clients = 4
    requests_per_client = 8
    collected: list[tuple[int, dict]] = []
    collected_lock = threading.Lock()
    errors: list[Exception] = []

    config = ServerConfig(max_batch_rows=16, max_wait_ms=1.0)
    with ServingGateway(registry, config) as gateway:
        url = gateway.url

        def client(client_index: int) -> None:
            for _ in range(requests_per_client):
                input_index = client_index % len(inputs)
                try:
                    body = _post(
                        url + "/v1/predict",
                        {"x": inputs[input_index].tolist(), "sampling": SAMPLING},
                    )
                except Exception as exc:  # pragma: no cover - failure reporting
                    errors.append(exc)
                    return
                with collected_lock:
                    collected.append((input_index, body))

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(n_clients)
        ]
        for thread in threads:
            thread.start()

        # the swap happens while the clients hammer the gateway
        deployed = _post(url + "/v1/models/deploy", {"version": "v2"})
        assert deployed["active_version"] == "v2"
        # the swap is observable: an unpinned request now serves v2 bytes
        mid = _post(url + "/v1/predict", {"x": inputs[0].tolist(), "sampling": SAMPLING})
        assert mid["version"] == "v2"
        assert np.array_equal(
            np.asarray(mid["sample_probabilities"]), references["v2"][0]
        )
        restored = _post(url + "/v1/models/rollback", {})
        assert restored["active_version"] == "v1"
        assert restored["rolled_back"] is True

        for thread in threads:
            thread.join(timeout=120)
        after = _post(url + "/v1/predict", {"x": inputs[1].tolist(), "sampling": SAMPLING})
        assert after["version"] == "v1"
        assert np.array_equal(
            np.asarray(after["sample_probabilities"]), references["v1"][1]
        )

    # zero requests lost ...
    assert not errors
    assert len(collected) == n_clients * requests_per_client
    # ... and zero requests cross-version-mixed: every response's bytes equal
    # the standalone mc_predict of exactly the version it reports
    for input_index, body in collected:
        version = body["version"]
        assert version in ("v1", "v2")
        served = np.asarray(body["sample_probabilities"], dtype=np.float64)
        assert np.array_equal(served, references[version][input_index]), (
            f"request for input {input_index} reported {version} but served "
            "different bytes"
        )


def test_swap_keeps_epsilon_cache_isolation_inline():
    """After a swap the old version's epsilon cache is invalidated, and a
    re-served old-version request still reproduces its exact bytes."""
    spec = _spec()
    registry = _two_version_registry(spec)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, N_FEATURES))
    references = _references(spec, [x])

    with ServingGateway(registry, ServerConfig(max_wait_ms=1.0)) as gateway:
        url = gateway.url
        first = _post(url + "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING})
        assert np.array_equal(
            np.asarray(first["sample_probabilities"]), references["v1"][0]
        )
        executor = gateway.prediction_server._executor
        assert len(executor.executor_for("v1").cache) == 1
        _post(url + "/v1/models/deploy", {"version": "v2"})
        # the swap dropped v1's cached sweeps (cold versions hold no cache
        # memory) while keeping the replica resident for pinned traffic
        assert len(executor.executor_for("v1").cache) == 0
        pinned = _post(
            url + "/v1/predict",
            {"x": x.tolist(), "sampling": SAMPLING, "version": "v1"},
        )
        assert pinned["version"] == "v1"
        assert np.array_equal(
            np.asarray(pinned["sample_probabilities"]), references["v1"][0]
        )


def _raw_post(address: tuple[str, int], path: str, body: dict) -> tuple:
    """POST over a dedicated socket, returning (status, headers, raw bytes)."""
    import http.client

    connection = http.client.HTTPConnection(*address, timeout=120)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(body).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        raw = response.read()
        headers = {key.lower(): value for key, value in response.getheaders()}
        return response.status, headers, raw
    finally:
        connection.close()


class TestWireSurfaceEquivalence:
    def test_v1_route_serves_mc_predict_bytes(self):
        """Acceptance: bit-exactness holds through a real socket on the /v1
        route, whose response carries no deprecation marker."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(21)
        x = rng.normal(size=(5, N_FEATURES))
        references = _references(spec, [x])

        with ServingGateway(registry, ServerConfig(max_wait_ms=1.0)) as gateway:
            body = {"x": x.tolist(), "sampling": SAMPLING}
            status, headers, raw = _raw_post(gateway.address, "/v1/predict", body)
        assert status == 200
        assert "deprecation" not in headers
        served = np.asarray(json.loads(raw)["sample_probabilities"], dtype=np.float64)
        assert np.array_equal(served, references["v1"][0])

    def test_streamed_response_bytes_equal_buffered(self):
        """A response pushed over the chunked streaming path decodes to the
        exact bytes of the buffered path, which equal mc_predict."""
        spec = _spec()
        rng = np.random.default_rng(33)
        x = rng.normal(size=(6, N_FEATURES))
        references = _references(spec, [x])
        body = {"x": x.tolist(), "sampling": SAMPLING}

        def serve(threshold: int) -> tuple:
            registry = _two_version_registry(spec)
            config = GatewayConfig(stream_threshold_bytes=threshold)
            with ServingGateway(
                registry, ServerConfig(max_wait_ms=1.0), config
            ) as gateway:
                return _raw_post(gateway.address, "/v1/predict", body)

        status_streamed, headers_streamed, raw_streamed = serve(threshold=1)
        status_buffered, headers_buffered, raw_buffered = serve(
            threshold=1 << 30
        )
        assert status_streamed == status_buffered == 200
        assert headers_streamed.get("transfer-encoding") == "chunked"
        assert "transfer-encoding" not in headers_buffered
        assert raw_streamed == raw_buffered
        served = np.asarray(
            json.loads(raw_streamed)["sample_probabilities"], dtype=np.float64
        )
        assert np.array_equal(served, references["v1"][0])


    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the planted NaN
    def test_both_writers_write_the_pre_codec_bytes(self):
        """``stream_threshold_bytes=0`` chunks every response: its de-chunked
        body, the buffered body and ``json.dumps`` of the payload as the
        gateway built it before the float codec are the same bytes -- with
        NaN planted in every served tensor."""
        spec = _spec()
        model = spec.build_bayesian(seed=11)
        model.bayesian_layers()[0].weight_posterior.mu.value.flat[0] = np.nan
        x = np.random.default_rng(41).normal(size=(3, N_FEATURES))
        result = mc_predict(
            model, x, n_samples=CONFIG.n_samples, seed=CONFIG.seed,
            grng_stride=CONFIG.grng_stride, lfsr_bits=CONFIG.lfsr_bits,
        )
        mean = result.mean_probabilities
        assert np.isnan(mean).any()
        pre_codec = json.dumps({
            "version": "v1",
            "generation": 1,
            "predictions": mean.argmax(axis=1).tolist(),
            "entropy": predictive_entropy(mean).tolist(),
            "mean_probabilities": mean.tolist(),
            "sample_probabilities": result.sample_probabilities.tolist(),
        }).encode()
        replica = ReplicaSpec.capture(spec, model)
        raws = {}
        for threshold in (0, 1 << 30):
            config = GatewayConfig(stream_threshold_bytes=threshold)
            with ServingGateway(
                ModelRegistry.single(replica), ServerConfig(max_wait_ms=1.0), config
            ) as gateway:
                status, headers, raws[threshold] = _raw_post(
                    gateway.address, "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING}
                )
            assert status == 200
            assert (headers.get("transfer-encoding") == "chunked") == (threshold == 0)
        assert raws[0] == raws[1 << 30] == pre_codec


class TestOverloadIntegrity:
    def test_200s_stay_bit_exact_while_sheds_happen(self):
        """Acceptance: under a burst far beyond the row budget every request
        either succeeds bit-exactly or sheds as 429 + Retry-After -- none
        block indefinitely, none are lost, none corrupt."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(17)
        inputs = [rng.normal(size=(4, N_FEATURES)) for _ in range(4)]
        references = _references(spec, inputs)

        # a tight budget (one 16-row tile) against 32 bursting clients
        config = ServerConfig(
            max_batch_rows=16, max_pending_rows=16, max_wait_ms=5.0
        )
        outcomes: list[tuple[int, int, dict, bytes]] = []
        outcomes_lock = threading.Lock()

        with ServingGateway(registry, config) as gateway:
            # the overflow happens by construction: the first tile's execution
            # is held until every other client has been queued or shed
            server = gateway.prediction_server
            executor = server._executor
            execute, release = executor.execute, threading.Event()
            held_requests: list[int] = []

            def held_execute(requests):
                executor.execute = execute  # hold only this tile
                held_requests.append(len(requests))
                assert release.wait(timeout=120)
                return execute(requests)

            executor.execute = held_execute

            def client(index: int) -> None:
                input_index = index % len(inputs)
                status, headers, raw = _raw_post(
                    gateway.address,
                    "/v1/predict",
                    {"x": inputs[input_index].tolist(), "sampling": SAMPLING},
                )
                with outcomes_lock:
                    outcomes.append((input_index, status, headers, raw))

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(32)
            ]
            try:
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 120
                while True:
                    with outcomes_lock:
                        answered = len(outcomes)
                    queued = server.pending_rows // 4
                    if held_requests and held_requests[0] + queued + answered == 32:
                        break
                    assert time.monotonic() < deadline, "the burst never settled"
                    time.sleep(0.005)
            finally:
                release.set()
            for thread in threads:
                thread.join(timeout=120)
            stats = json.loads(
                urllib.request.urlopen(gateway.url + "/v1/stats", timeout=30).read()
            )

        assert len(outcomes) == 32  # zero requests lost
        shed = [o for o in outcomes if o[1] == 429]
        served = [o for o in outcomes if o[1] == 200]
        assert len(shed) + len(served) == 32  # no third outcome
        # at most one held 16-row tile plus a 16-row queue can be served
        assert len(shed) >= 24, "the burst should overflow a 16-row budget"
        for _, _, headers, raw in shed:
            assert int(headers["retry-after"]) >= 1
            envelope = json.loads(raw)["error"]
            assert envelope["code"] == "overloaded"
            assert envelope["retry_after_s"] > 0
        for input_index, _, _, raw in served:
            body = json.loads(raw)
            assert body["version"] == "v1"
            payload = np.asarray(body["sample_probabilities"], dtype=np.float64)
            assert np.array_equal(payload, references["v1"][input_index])
        admission = stats["admission"]
        assert admission["admitted"] >= len(served)
        assert admission["shed_capacity"] == len(shed)
        # every admitted request executed: none failed inside the server
        assert stats["requests_failed"] == 0

    def test_deploy_rollback_racing_shed_heavy_burst(self):
        """Acceptance: a deploy/rollback cycle races a burst heavy enough to
        shed; zero admitted requests are lost or cross-version-mixed."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(29)
        inputs = [rng.normal(size=(4, N_FEATURES)) for _ in range(4)]
        references = _references(spec, inputs)

        config = ServerConfig(
            max_batch_rows=16, max_pending_rows=16, max_wait_ms=2.0
        )
        outcomes: list[tuple[int, int, bytes]] = []
        outcomes_lock = threading.Lock()

        with ServingGateway(registry, config) as gateway:
            def client(index: int) -> None:
                input_index = index % len(inputs)
                for _ in range(4):
                    status, _, raw = _raw_post(
                        gateway.address,
                        "/v1/predict",
                        {"x": inputs[input_index].tolist(), "sampling": SAMPLING},
                    )
                    with outcomes_lock:
                        outcomes.append((input_index, status, raw))

            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(12)
            ]
            for thread in threads:
                thread.start()
            # swap back and forth while the shed-heavy burst runs
            deployed = _post(gateway.url + "/v1/models/deploy", {"version": "v2"})
            assert deployed["active_version"] == "v2"
            restored = _post(gateway.url + "/v1/models/rollback", {})
            assert restored["active_version"] == "v1"
            for thread in threads:
                thread.join(timeout=120)

        assert len(outcomes) == 12 * 4  # every request got an answer
        served = [o for o in outcomes if o[1] == 200]
        for outcome in outcomes:
            assert outcome[1] in (200, 429)
        for input_index, _, raw in served:
            body = json.loads(raw)
            version = body["version"]
            assert version in ("v1", "v2")
            payload = np.asarray(body["sample_probabilities"], dtype=np.float64)
            assert np.array_equal(payload, references[version][input_index]), (
                f"request for input {input_index} reported {version} but "
                "served different bytes"
            )


class TestCrossConnectionCoalescing:
    def test_separate_sockets_pool_into_shared_tiles(self):
        """Requests from distinct connections coalesce into shared tiles
        (visible in the stats telemetry) without perturbing their bytes."""
        spec = _spec()
        registry = _two_version_registry(spec)
        rng = np.random.default_rng(41)
        inputs = [rng.normal(size=(2, N_FEATURES)) for _ in range(8)]
        references = _references(spec, inputs)

        # held arrivals instead of a timing window: every socket sends its
        # headers and all but the last body byte, so each request has been
        # announced and is still arriving; once the last bytes go out, the
        # idle rule flushes one tile holding all of them (the deadline is
        # far out of reach)
        config = ServerConfig(max_batch_rows=64, max_wait_ms=10_000.0)
        bodies = [
            json.dumps({"x": x.tolist(), "sampling": SAMPLING}).encode()
            for x in inputs
        ]
        results: list[tuple] = []

        with ServingGateway(registry, config) as gateway:
            batcher = gateway.prediction_server._batcher
            sockets = []
            try:
                for body in bodies:
                    sock = socket.create_connection(gateway.address, timeout=120)
                    sockets.append(sock)
                    sock.sendall(
                        b"POST /v1/predict HTTP/1.1\r\nHost: gateway\r\n"
                        b"Content-Type: application/json\r\n"
                        b"Content-Length: %d\r\n\r\n" % len(body) + body[:-1]
                    )
                deadline = time.monotonic() + 120
                while batcher._arrivals < len(bodies):
                    assert time.monotonic() < deadline, "requests never announced"
                    time.sleep(0.005)
                for sock, body in zip(sockets, bodies):
                    sock.sendall(body[-1:])
                for sock in sockets:
                    response = http.client.HTTPResponse(sock)
                    response.begin()
                    results.append((response.status, response.read()))
            finally:
                for sock in sockets:
                    sock.close()
            stats = json.loads(
                urllib.request.urlopen(gateway.url + "/v1/stats", timeout=30).read()
            )
            flushes = gateway.prediction_server.flush_causes()

        coalescing = stats["coalescing"]
        assert coalescing["multi_source_tiles"] == 1, (
            f"the held arrivals did not share one tile: {coalescing}"
        )
        assert coalescing["max_sources"] == len(inputs)
        assert flushes["idle"] == 1 and flushes["timeout"] == 0
        for index, (status, raw) in enumerate(results):
            assert status == 200
            payload = np.asarray(
                json.loads(raw)["sample_probabilities"], dtype=np.float64
            )
            assert np.array_equal(payload, references["v1"][index])
