"""Unit tests for the HTTP gateway: routing, validation, swap endpoints.

Everything runs against a real socket (ephemeral port, inline execution) --
the gateway is thin enough that faking the transport would test nothing.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.core import backend
from repro.models import ModelSpec, ReplicaSpec
from repro.serve import (
    GatewayConfig,
    ModelRegistry,
    SamplingConfig,
    ServerConfig,
    ServingGateway,
)

SAMPLING = {"n_samples": 4, "seed": 5, "grng_stride": 64}

#: Sampling sections the JSON body can carry that no sweep can run.
BAD_SAMPLING = [
    {"n_samples": 1.5},
    {"seed": -1},
    {"seed": "a"},
    {"grng_stride": 0},
    {"grng_stride": 1.5},
    {"lfsr_bits": 300},
]


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url: str, body: dict) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post_raw(url: str, raw: bytes) -> tuple[int, dict]:
    request = urllib.request.Request(
        url, data=raw, headers={"Content-Type": "application/json"}, method="POST"
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _error_of(call):
    with pytest.raises(urllib.error.HTTPError) as info:
        call()
    error = info.value
    return error.code, json.loads(error.read())


@pytest.fixture
def gateway(tiny_mlp_spec: ModelSpec):
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
    with ServingGateway(registry, ServerConfig(max_wait_ms=1.0)) as gateway:
        yield gateway


class TestReadEndpoints:
    def test_healthz_reports_rollout_state(self, gateway):
        status, body = _get(gateway.url + "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["active_version"] == "v1"
        assert body["generation"] == 1
        assert body["loaded_versions"] == ["v1"]
        assert body["n_workers"] == 0

    def test_models_lists_fingerprints_and_flags(self, gateway):
        status, body = _get(gateway.url + "/v1/models")
        assert status == 200
        assert body["active_version"] == "v1"
        by_name = {entry["version"]: entry for entry in body["versions"]}
        assert set(by_name) == {"v1", "v2"}
        assert by_name["v1"]["active"] and by_name["v1"]["loaded"]
        assert not by_name["v2"]["active"] and not by_name["v2"]["loaded"]
        assert by_name["v1"]["fingerprint"] != by_name["v2"]["fingerprint"]
        assert len(by_name["v1"]["fingerprint"]) == 64
        assert [d["version"] for d in body["history"]] == ["v1"]

    def test_stats_includes_per_version_counters(self, gateway, rng):
        x = rng.normal(size=(4, 16)).tolist()
        _post(gateway.url + "/v1/predict", {"x": x, "sampling": SAMPLING})
        status, body = _get(gateway.url + "/v1/stats")
        assert status == 200
        assert body["per_version"]["v1"]["completed"] == 1
        assert body["per_version"]["v1"]["rows"] == 4
        assert body["requests_completed"] == 1

    def test_unknown_route_is_404(self, gateway):
        code, body = _error_of(lambda: _get(gateway.url + "/nope"))
        assert code == 404
        assert body["error"]["code"] == "not_found"
        assert "/v1/healthz" in body["error"]["message"]


class TestPredict:
    def test_served_bytes_equal_mc_predict(self, gateway, tiny_mlp_spec, rng):
        x = rng.normal(size=(6, 16))
        status, body = _post(
            gateway.url + "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING}
        )
        assert status == 200
        assert body["version"] == "v1" and body["generation"] == 1
        reference = mc_predict(
            tiny_mlp_spec.build_bayesian(seed=11), x, n_samples=4, seed=5,
            grng_stride=64,
        )
        served = np.asarray(body["sample_probabilities"], dtype=np.float64)
        # JSON floats round-trip via repr: byte-identical across the wire
        assert np.array_equal(served, reference.sample_probabilities)
        assert body["predictions"] == reference.predictions.tolist()
        assert np.array_equal(
            np.asarray(body["entropy"], dtype=np.float64), reference.entropy
        )

    def test_explicit_version_pin_requires_loaded_version(self, gateway, rng):
        x = rng.normal(size=(2, 16)).tolist()
        code, body = _error_of(
            lambda: _post(
                gateway.url + "/v1/predict",
                {"x": x, "sampling": SAMPLING, "version": "v2"},
            )
        )
        assert code == 404
        assert body["error"]["code"] == "unknown_version"
        assert "not loaded" in body["error"]["message"]
        code, body = _error_of(
            lambda: _post(
                gateway.url + "/v1/predict",
                {"x": x, "sampling": SAMPLING, "version": "ghost"},
            )
        )
        assert code == 404

    def test_bad_bodies_are_400(self, gateway):
        url = gateway.url + "/v1/predict"
        for body in (
            {},  # no x
            {"x": "not numbers"},
            {"x": [1.0, 2.0]},  # not batched
            {"x": [[1.0] * 16], "sampling": {"bogus_knob": 1}},
            {"x": [[1.0] * 16], "sampling": {"n_samples": 0}},
            {"x": [[1.0] * 16], "sampling": "not an object"},
            {"x": [[1.0] * 16], "version": 7},
        ):
            code, payload = _error_of(lambda body=body: _post(url, body))
            assert code == 400, body
            assert "error" in payload

    def test_non_json_body_is_400(self, gateway):
        request = urllib.request.Request(
            gateway.url + "/v1/predict",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=30)
        assert info.value.code == 400

    @pytest.mark.parametrize("codec", ["native", "reference"])
    def test_out_of_range_integers_are_400(self, gateway, codec, restore_selection):
        """An integer too large for float64 is bad input and one past int()'s
        4300-digit limit is bad JSON -- never a 500 -- on either codec."""
        if codec == "native" and not all(
            impl["available"]
            for entry in backend.list_backends()
            if entry["kernel"].startswith("json_")
            for impl in entry["backends"]
        ):
            pytest.skip("no C compiler: the json codec's native backend is unavailable")
        for kernel in ("json_dumps_f64", "json_loads_f64"):
            backend.set_backend(kernel, codec)
        for digits, code, says in (
            (400, "invalid_input", "too large to convert to float"),
            (5000, "invalid_json", "Exceeds the limit (4300 digits)"),
        ):
            raw = b'{"x": [[' + b"7" * digits + b", " + b", ".join([b"0.5"] * 15) + b"]]}"
            status, payload = _error_of(lambda raw=raw: _post_raw(gateway.url + "/v1/predict", raw))
            assert status == 400, digits
            assert payload["error"]["code"] == code
            assert says in payload["error"]["message"]

    @pytest.mark.parametrize(
        "raw",
        [
            pytest.param(b'{"x": [[1.0, 2.0]]}', id="too-few-features"),
            pytest.param(b'{"x": [[], []]}', id="empty-rows"),
            pytest.param(b'{"x": [[[1.0]]]}', id="3-d"),
            pytest.param(
                b'{"x": ' + b"[" * 34 + b"1.0" + b"]" * 34 + b"}", id="34-deep"
            ),
        ],
    )
    @pytest.mark.parametrize("codec", ["native", "reference"])
    def test_wrong_row_shape_is_400(self, gateway, codec, raw, restore_selection):
        """Rows that do not match the model's input shape are bad input,
        refused before admission -- never a 500 from inside the model."""
        if codec == "native" and not all(
            impl["available"]
            for entry in backend.list_backends()
            if entry["kernel"].startswith("json_")
            for impl in entry["backends"]
        ):
            pytest.skip("no C compiler: the json codec's native backend is unavailable")
        for kernel in ("json_dumps_f64", "json_loads_f64"):
            backend.set_backend(kernel, codec)
        status, payload = _error_of(lambda: _post_raw(gateway.url + "/v1/predict", raw))
        assert status == 400
        assert payload["error"]["code"] == "invalid_input"
        _, stats = _get(gateway.url + "/v1/stats")
        assert stats["admission"]["admitted"] == 0
        assert stats["requests_completed"] == stats["requests_failed"] == 0

    @pytest.mark.parametrize("sampling", BAD_SAMPLING, ids=repr)
    @pytest.mark.parametrize("codec", ["native", "reference"])
    def test_malformed_sampling_values_are_400(
        self, gateway, codec, sampling, restore_selection
    ):
        """Wrongly typed or out-of-range sampling fields are refused before
        admission as invalid_sampling -- never a 500 from inside the sweep."""
        if codec == "native" and not all(
            impl["available"]
            for entry in backend.list_backends()
            if entry["kernel"].startswith("json_")
            for impl in entry["backends"]
        ):
            pytest.skip("no C compiler: the json codec's native backend is unavailable")
        for kernel in ("json_dumps_f64", "json_loads_f64"):
            backend.set_backend(kernel, codec)
        body = {"x": [[0.5] * 16], "sampling": sampling}
        status, payload = _error_of(lambda: _post(gateway.url + "/v1/predict", body))
        assert status == 400
        assert payload["error"]["code"] == "invalid_sampling"
        _, stats = _get(gateway.url + "/v1/stats")
        assert stats["admission"]["admitted"] == 0
        assert stats["requests_completed"] == stats["requests_failed"] == 0

    @pytest.mark.parametrize("sampling", BAD_SAMPLING, ids=repr)
    def test_sampling_config_rejects_malformed_values(self, sampling):
        with pytest.raises(ValueError):
            SamplingConfig(**sampling)

    def test_sampling_config_accepts_integral_values(self):
        config = SamplingConfig(n_samples=1, seed=0, grng_stride=1, lfsr_bits=64)
        assert config == SamplingConfig(
            n_samples=np.int64(1), seed=0, grng_stride=1, lfsr_bits=64
        )
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            SamplingConfig(n_samples=True)

    def test_oversized_body_is_413(self, tiny_mlp_spec):
        registry = ModelRegistry.single(
            ReplicaSpec.capture(
                tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11)
            )
        )
        with ServingGateway(
            registry,
            ServerConfig(max_wait_ms=1.0),
            GatewayConfig(max_body_bytes=64),
        ) as gateway:
            code, _ = _error_of(
                lambda: _post(
                    gateway.url + "/v1/predict",
                    {"x": [[0.0] * 16] * 8, "sampling": SAMPLING},
                )
            )
        assert code == 413

    def test_sampling_defaults_apply(self, gateway, tiny_mlp_spec, rng):
        """An omitted sampling section means the library-default config."""
        x = rng.normal(size=(2, 16))
        status, body = _post(gateway.url + "/v1/predict", {"x": x.tolist()})
        assert status == 200
        default = SamplingConfig()
        reference = mc_predict(
            tiny_mlp_spec.build_bayesian(seed=11),
            x,
            n_samples=default.n_samples,
            seed=default.seed,
            grng_stride=default.grng_stride,
        )
        assert np.array_equal(
            np.asarray(body["sample_probabilities"]),
            reference.sample_probabilities,
        )


class TestSwapEndpoints:
    def test_deploy_and_rollback_round_trip(self, gateway, tiny_mlp_spec, rng):
        x = rng.normal(size=(3, 16))
        status, deployed = _post(
            gateway.url + "/v1/models/deploy", {"version": "v2"}
        )
        assert status == 200
        assert deployed == {
            "active_version": "v2", "generation": 2, "rolled_back": False,
        }
        _, body = _post(
            gateway.url + "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING}
        )
        assert body["version"] == "v2" and body["generation"] == 2
        reference = mc_predict(
            tiny_mlp_spec.build_bayesian(seed=22), x, n_samples=4, seed=5,
            grng_stride=64,
        )
        assert np.array_equal(
            np.asarray(body["sample_probabilities"]),
            reference.sample_probabilities,
        )
        # v1 stays loaded for instant rollback and pinned canary traffic
        _, health = _get(gateway.url + "/v1/healthz")
        assert health["loaded_versions"] == ["v1", "v2"]
        _, pinned = _post(
            gateway.url + "/v1/predict",
            {"x": x.tolist(), "sampling": SAMPLING, "version": "v1"},
        )
        assert pinned["version"] == "v1"
        status, restored = _post(gateway.url + "/v1/models/rollback", {})
        assert status == 200
        assert restored == {
            "active_version": "v1", "generation": 3, "rolled_back": True,
        }
        _, after = _post(
            gateway.url + "/v1/predict", {"x": x.tolist(), "sampling": SAMPLING}
        )
        assert after["version"] == "v1" and after["generation"] == 3

    def test_deploy_unknown_version_is_404(self, gateway):
        code, _ = _error_of(
            lambda: _post(gateway.url + "/v1/models/deploy", {"version": "v9"})
        )
        assert code == 404

    def test_deploy_without_version_is_400(self, gateway):
        code, _ = _error_of(lambda: _post(gateway.url + "/v1/models/deploy", {}))
        assert code == 400

    def test_rollback_without_history_is_409(self, gateway):
        code, body = _error_of(
            lambda: _post(gateway.url + "/v1/models/rollback", {})
        )
        assert code == 409
        assert body["error"]["code"] == "rollback_unavailable"
        assert "roll back" in body["error"]["message"]


class TestWireApiV1:
    def test_v1_routes_answer_without_deprecation(self, gateway):
        for path in ("/v1/healthz", "/v1/stats", "/v1/models"):
            with urllib.request.urlopen(gateway.url + path, timeout=30) as response:
                assert response.status == 200
                assert response.headers.get("Deprecation") is None

    @pytest.mark.parametrize(
        "method, path",
        [
            ("POST", "/predict"),
            ("GET", "/healthz"),
            ("GET", "/stats"),
            ("GET", "/models"),
            ("POST", "/models/deploy"),
            ("POST", "/models/rollback"),
        ],
    )
    def test_unversioned_paths_answer_404(self, gateway, rng, method, path):
        """The pre-/v1 paths are unknown routes: the not_found envelope, and
        a write sent to one changes nothing."""
        if method == "GET":
            request = lambda: _get(gateway.url + path)  # noqa: E731
        else:
            body = {
                "x": rng.normal(size=(2, 16)).tolist(),
                "sampling": SAMPLING,
                "version": "v2",
            }
            request = lambda: _post(gateway.url + path, body)  # noqa: E731
        code, payload = _error_of(request)
        assert code == 404
        assert payload["error"]["code"] == "not_found"
        _, health = _get(gateway.url + "/v1/healthz")
        assert health["active_version"] == "v1"
        _, stats = _get(gateway.url + "/v1/stats")
        assert stats["admission"]["admitted"] == 0

    def test_unknown_sampling_fields_use_error_envelope(self, gateway):
        code, body = _error_of(
            lambda: _post(
                gateway.url + "/v1/predict",
                {"x": [[1.0] * 16], "sampling": {"bogus_knob": 1}},
            )
        )
        assert code == 400
        assert body["error"]["code"] == "invalid_sampling"
        assert "bogus_knob" in body["error"]["message"]

    def test_rate_limited_tenant_sheds_with_429_and_retry_after(
        self, tiny_mlp_spec, rng
    ):
        from repro.serve import AdmissionConfig, TierPolicy

        registry = ModelRegistry.single(
            ReplicaSpec.capture(tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11))
        )
        admission = AdmissionConfig(
            tiers={"standard": TierPolicy(rate_per_s=0.001, burst=2)}
        )
        with ServingGateway(
            registry,
            ServerConfig(max_wait_ms=1.0),
            GatewayConfig(admission=admission),
        ) as gateway:
            body = {"x": rng.normal(size=(1, 16)).tolist(), "sampling": SAMPLING}
            url = gateway.url + "/v1/predict"
            assert _post(url, body)[0] == 200
            assert _post(url, body)[0] == 200
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(url, body)
            error = info.value
            assert error.code == 429
            assert int(error.headers["Retry-After"]) >= 1
            envelope = json.loads(error.read())["error"]
            assert envelope["code"] == "rate_limited"
            assert envelope["retry_after_s"] > 0
            _, stats = _get(gateway.url + "/v1/stats")
            assert stats["admission"]["admitted"] == 2
            assert stats["admission"]["shed_rate_limited"] == 1
            assert stats["tenants"]["anonymous"]["shed"] == 1


class TestConnectionRobustness:
    def test_keep_alive_survives_4xx_with_consumed_body(self, gateway, rng):
        """A fully-read request body keeps the connection reusable after 4xx."""
        import http.client

        host, port = gateway.address
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            bad = json.dumps({"x": [[1.0] * 16], "sampling": {"bogus": 1}}).encode()
            good = json.dumps(
                {"x": rng.normal(size=(2, 16)).tolist(), "sampling": SAMPLING}
            ).encode()
            for payload, expected in ((bad, 400), (good, 200), (bad, 400), (good, 200)):
                connection.request(
                    "POST",
                    "/v1/predict",
                    body=payload,
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                response.read()
                assert response.status == expected
                # the server never asked to close: same socket throughout
                assert response.getheader("Connection") != "close"
        finally:
            connection.close()

    def test_slow_client_body_is_read_completely(self, gateway, rng):
        """A body dribbling in across many TCP segments still parses (the
        rfile.read short-read fix)."""
        import socket
        import time

        host, port = gateway.address
        body = json.dumps(
            {"x": rng.normal(size=(2, 16)).tolist(), "sampling": SAMPLING}
        ).encode()
        head = (
            f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head)
            for start in range(0, len(body), 64):
                sock.sendall(body[start:start + 64])
                time.sleep(0.005)  # force distinct segments
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.1 200")
        assert b'"predictions"' in response

    def test_truncated_body_is_400_not_hang(self, gateway):
        """A client that dies mid-body gets a clean 400, not a stuck thread."""
        import socket

        host, port = gateway.address
        body = b'{"x": [[1.0, 2.0' * 100
        head = (
            f"POST /v1/predict HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body) + 500}\r\n"
            "\r\n"
        ).encode()
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(head + body)
            sock.shutdown(socket.SHUT_WR)  # EOF before Content-Length bytes
            response = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                response += chunk
        assert response.startswith(b"HTTP/1.1 400")
        assert b"truncated_body" in response


class TestLifecycle:
    def test_single_replica_constructor_serves_default_version(
        self, tiny_mlp_spec, rng
    ):
        replica = ReplicaSpec.capture(
            tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11)
        )
        with ServingGateway(replica, ServerConfig(max_wait_ms=1.0)) as gateway:
            _, body = _post(
                gateway.url + "/v1/predict",
                {"x": rng.normal(size=(2, 16)).tolist(), "sampling": SAMPLING},
            )
            assert body["version"] == "v1"

    def test_address_requires_start(self, tiny_mlp_spec):
        replica = ReplicaSpec.capture(
            tiny_mlp_spec, tiny_mlp_spec.build_bayesian(seed=11)
        )
        gateway = ServingGateway(replica)
        with pytest.raises(RuntimeError):
            gateway.address
