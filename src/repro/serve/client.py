"""Stdlib-only client SDK for the gateway's ``/v1`` wire API.

:class:`GatewayClient` wraps the versioned HTTP surface of
:mod:`repro.serve.gateway` with exactly the semantics the server promises:

* **wire bit-exactness** -- bodies go through :mod:`repro.serve.wire`, whose
  float parsing is the exact inverse of the server's ``repr``-exact
  serialisation: every float64 in ``sample_probabilities`` round-trips
  byte-identical to the server-side ``mc_predict`` result.
  :meth:`GatewayClient.predict_arrays` hands them back as float64 arrays,
  parsed straight into arrays by the compiled codec;
* **load-shed handling** -- ``429`` responses (rate-limited or overloaded)
  are retried up to ``max_retries`` times, honouring the server's
  ``Retry-After`` (envelope float preferred over the integer header) with a
  per-wait cap, then surface as :class:`GatewayShedError`;
* **structured errors** -- every non-2xx response raises
  :class:`GatewayError` carrying the machine-readable ``code`` from the
  ``/v1`` error envelope;
* **keep-alive** -- one persistent :class:`http.client.HTTPConnection` per
  client (per thread), so request streams reuse sockets exactly like a real
  tenant's connection pool;
* **observability** -- every response's ``X-Request-Id`` is captured as
  :attr:`GatewayClient.last_request_id` (thread-local);
  :meth:`GatewayClient.trace`, :meth:`GatewayClient.traces` and
  :meth:`GatewayClient.metrics` read the gateway's trace ring and
  Prometheus exposition.

The module doubles as the CI smoke probe::

    python -m repro.serve.client --url http://127.0.0.1:8123 healthz
    python -m repro.serve.client --url ... predict --rows 4 --n-samples 8

which exercises the real SDK path instead of hand-rolled curl bodies.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.parse
from typing import Any

import numpy as np

from . import wire

__all__ = ["GatewayClient", "GatewayError", "GatewayShedError"]

#: The float tensors of a predict response, parsed straight into arrays.
_ARRAY_KEYS = ("entropy", "mean_probabilities", "sample_probabilities")


class GatewayError(RuntimeError):
    """A non-2xx gateway response, carrying the error-envelope fields."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(f"[{status} {code}] {message}")
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


class GatewayShedError(GatewayError):
    """A request was shed (429) and the retry budget is exhausted."""


class GatewayClient:
    """Client for one gateway endpoint, safe for concurrent threads.

    Parameters
    ----------
    url:
        Gateway base URL, e.g. ``http://127.0.0.1:8123``.
    tenant:
        Value sent in the tenant header (default header name ``X-Tenant``);
        ``None`` sends no header (the gateway buckets the request under its
        default tenant).
    timeout_s:
        Socket timeout per HTTP request.
    max_retries:
        How many times a ``429`` is retried before raising
        :class:`GatewayShedError`.  ``0`` disables retries.
    max_retry_wait_s:
        Per-retry cap on honouring the server's ``Retry-After``.
    """

    def __init__(
        self,
        url: str,
        tenant: str | None = None,
        timeout_s: float = 60.0,
        max_retries: int = 3,
        max_retry_wait_s: float = 5.0,
        tenant_header: str = "X-Tenant",
        api_prefix: str = "/v1",
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme != "http" or not parsed.hostname:
            raise ValueError(f"expected an http://host[:port] URL, got {url!r}")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self.tenant = tenant
        self.tenant_header = tenant_header
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.max_retry_wait_s = max_retry_wait_s
        self.api_prefix = api_prefix.rstrip("/")
        self._clock = clock
        self._sleep = sleep
        # one keep-alive connection per thread: HTTPConnection is not
        # thread-safe, but per-thread reuse preserves the socket-reuse
        # behaviour of a real client
        self._local = threading.local()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout_s
            )
            connection.connect()
            # Nagle + delayed ACK otherwise stalls keep-alive round trips
            # for ~40ms whenever a request straddles two writes
            connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._local.connection = connection
        return connection

    def close(self) -> None:
        """Close this thread's keep-alive connection (if any)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
            self._local.connection = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _request_once(
        self, method: str, path: str, body: dict | None
    ) -> tuple[int, dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"}
        if self.tenant is not None:
            headers[self.tenant_header] = self.tenant
        payload = b"" if body is None else wire.dumps(body)
        if method == "POST":
            headers["Content-Length"] = str(len(payload))
        connection = self._connection()
        try:
            connection.request(method, path, body=payload or None, headers=headers)
            response = connection.getresponse()
            raw = response.read()  # drains the socket; keep-alive stays valid
        except (http.client.HTTPException, ConnectionError, OSError):
            # a dropped keep-alive socket (server closed it after an error,
            # idle timeout) is re-dialled once with a fresh connection
            self.close()
            connection = self._connection()
            connection.request(method, path, body=payload or None, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        response_headers = {key.lower(): value for key, value in response.getheaders()}
        # surface the gateway's trace id (thread-local: concurrent callers
        # each see their own last request)
        self._local.last_request_id = response_headers.get("x-request-id")
        if response.will_close:
            self.close()
        return response.status, response_headers, raw

    @staticmethod
    def _parse_error(
        status: int, headers: dict[str, str], raw: bytes
    ) -> GatewayError:
        code, message, retry_after = "internal", raw.decode(errors="replace"), None
        try:
            envelope = json.loads(raw)
            error = envelope.get("error", {})
            code = error.get("code", code)
            message = error.get("message", message)
            retry_after = error.get("retry_after_s")
        except (json.JSONDecodeError, AttributeError):
            pass
        if retry_after is None and "retry-after" in headers:
            try:
                retry_after = float(headers["retry-after"])
            except ValueError:
                pass
        cls = GatewayShedError if status == 429 else GatewayError
        return cls(status, code, message, retry_after_s=retry_after)

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        float_keys: tuple[str, ...] = (),
    ) -> dict:
        path = self.api_prefix + path
        attempts = 0
        while True:
            status, headers, raw = self._request_once(method, path, body)
            if 200 <= status < 300:
                return wire.loads(raw, float_keys)
            error = self._parse_error(status, headers, raw)
            if status != 429 or attempts >= self.max_retries:
                raise error
            attempts += 1
            wait = error.retry_after_s if error.retry_after_s is not None else 0.1
            self._sleep(min(max(wait, 0.0), self.max_retry_wait_s))

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    @property
    def last_request_id(self) -> str | None:
        """The ``X-Request-Id`` of this thread's most recent response.

        ``None`` before any request, and for responses the gateway did not
        trace (``REPRO_OBS=0`` or sampled out).  Feed it to :meth:`trace`
        to fetch the request's span tree.
        """
        return getattr(self._local, "last_request_id", None)

    def healthz(self) -> dict:
        """``GET /v1/healthz``."""
        return self._request("GET", "/healthz")

    def stats(self) -> dict:
        """``GET /v1/stats``."""
        return self._request("GET", "/stats")

    def models(self) -> dict:
        """``GET /v1/models``."""
        return self._request("GET", "/models")

    def metrics(self) -> str:
        """``GET /v1/metrics``: the raw Prometheus text exposition."""
        status, headers, raw = self._request_once(
            "GET", self.api_prefix + "/metrics", None
        )
        if not 200 <= status < 300:
            raise self._parse_error(status, headers, raw)
        return raw.decode("utf-8")

    def trace(self, trace_id: str) -> dict:
        """``GET /v1/trace/<id>``: one recorded span tree."""
        return self._request("GET", f"/trace/{trace_id}")

    def traces(self, slowest: int = 8) -> dict:
        """``GET /v1/traces?slowest=N``: the slowest recorded exemplars."""
        return self._request("GET", f"/traces?slowest={int(slowest)}")

    def deploy(self, version: str) -> dict:
        """``POST /v1/models/deploy``."""
        return self._request("POST", "/models/deploy", {"version": version})

    def rollback(self) -> dict:
        """``POST /v1/models/rollback``."""
        return self._request("POST", "/models/rollback", {})

    def predict(
        self,
        x,
        sampling: dict | None = None,
        version: str | None = None,
    ) -> dict:
        """``POST /v1/predict``; returns the parsed JSON payload.

        Floats in the payload are exact: parsing inverts the server's
        ``repr`` serialisation bit for bit.  Retries shed (429) requests up
        to ``max_retries`` times, honouring ``Retry-After``.
        """
        return self._predict(x, sampling, version, float_keys=())

    def _predict(self, x, sampling, version, float_keys: tuple[str, ...]) -> dict:
        body: dict[str, Any] = {"x": np.asarray(x)}
        if sampling is not None:
            body["sampling"] = sampling
        if version is not None:
            body["version"] = version
        return self._request("POST", "/predict", body, float_keys)

    def predict_arrays(
        self,
        x,
        sampling: dict | None = None,
        version: str | None = None,
    ) -> dict:
        """:meth:`predict` with the tensor fields as float64 arrays."""
        payload = self._predict(x, sampling, version, float_keys=_ARRAY_KEYS)
        for key in (
            "predictions",
            "entropy",
            "mean_probabilities",
            "sample_probabilities",
        ):
            if key in payload:
                dtype = np.int64 if key == "predictions" else np.float64
                payload[key] = np.asarray(payload[key], dtype=dtype)
        return payload


# ----------------------------------------------------------------------
# CLI: the CI smoke probe
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """``python -m repro.serve.client``: probe a running gateway."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--url", required=True, help="gateway base URL")
    parser.add_argument("--tenant", default=None)
    parser.add_argument("--timeout", type=float, default=30.0)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("healthz", "stats", "models", "rollback", "metrics"):
        sub.add_parser(name)
    deploy = sub.add_parser("deploy")
    deploy.add_argument("version")
    trace = sub.add_parser("trace")
    trace.add_argument("trace_id")
    traces = sub.add_parser("traces")
    traces.add_argument("--slowest", type=int, default=8)
    predict = sub.add_parser("predict")
    predict.add_argument("--rows", type=int, default=2)
    predict.add_argument("--features", type=int, default=196,
                         help="input feature count (196 = the reduced B-MLP)")
    predict.add_argument("--n-samples", type=int, default=4)
    predict.add_argument("--seed", type=int, default=0)
    predict.add_argument("--version", default=None)
    predict.add_argument("--full", action="store_true",
                         help="print sample_probabilities too (large)")
    args = parser.parse_args(argv)

    client = GatewayClient(args.url, tenant=args.tenant, timeout_s=args.timeout)
    try:
        if args.command == "predict":
            rng = np.random.default_rng(args.seed)
            x = rng.normal(size=(args.rows, args.features))
            payload = client.predict(
                x,
                sampling={"n_samples": args.n_samples, "seed": args.seed},
                version=args.version,
            )
            if not args.full:
                payload.pop("sample_probabilities", None)
            if client.last_request_id is not None:
                payload["request_id"] = client.last_request_id
            print(json.dumps(payload))
        elif args.command == "metrics":
            print(client.metrics(), end="")
        elif args.command == "trace":
            print(json.dumps(client.trace(args.trace_id)))
        elif args.command == "traces":
            print(json.dumps(client.traces(args.slowest)))
        else:
            method = getattr(client, args.command)
            result = method(args.version) if args.command == "deploy" else method()
            print(json.dumps(result))
    except GatewayError as exc:
        print(json.dumps({
            "error": {"status": exc.status, "code": exc.code, "message": exc.message}
        }))
        return 1
    finally:
        client.close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI job
    import sys

    sys.exit(main())
