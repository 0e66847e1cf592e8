"""HTTP serving gateway: the versioned ``/v1`` wire API over ``PredictionServer``.

This is the boundary real clients cross: a stdlib-only
(:class:`http.server.ThreadingHTTPServer`) JSON-over-HTTP front-end layered
on the versioned serving stack.  The stable wire surface is versioned under
``/v1``; the PR 5 unversioned paths (``/predict``, ``/healthz``, ...) remain
as aliases that answer identically plus a ``Deprecation: true`` header.

``POST /v1/predict``
    Body ``{"x": [[...], ...], "sampling": {...}, "version": "v2"?}``.
    ``x`` is one request's input batch (first axis = rows); ``sampling``
    holds any subset of the :class:`~repro.serve.executor.SamplingConfig`
    fields (unknown fields are rejected); ``version`` optionally pins a
    loaded model version (canary traffic), otherwise the request is pinned
    to the version active at admission.  The response carries the pin
    (``version``, ``generation``) plus ``predictions``, ``entropy``,
    ``mean_probabilities`` and ``sample_probabilities``.  Large
    ``sample_probabilities`` tensors are sent with chunked transfer
    encoding, one Monte-Carlo sample per chunk, so the gateway never
    buffers the whole ``(S, rows, classes)`` JSON in memory -- the bytes
    on the wire are identical to the buffered encoding either way.

``GET /v1/healthz``
    Liveness and rollout state (active version/generation, worker count).

``GET /v1/stats``
    The :class:`~repro.serve.stats.StatsSnapshot` (per-version counters,
    kernel-backend and fused-tile telemetry, the ``coalescing`` block
    proving cross-connection tile sharing), plus the gateway's
    ``admission`` block (admitted / shed counters), the per-tenant
    ``tenants`` block, and a ``queue`` block (pending rows, blocked
    waiters, the current ``Retry-After`` estimate).

``GET /v1/models``
    Registered versions (fingerprints, loaded flags), the active deployment
    and the deploy history.

``POST /v1/models/deploy`` / ``POST /v1/models/rollback``
    Hot swap: ``{"version": "v2"}`` activates a registered version;
    rollback re-activates the previously active one.  In-flight requests
    finish on their pinned version -- see
    :meth:`~repro.serve.server.PredictionServer.deploy`.

``GET /v1/metrics``
    Prometheus text exposition (0.0.4): gateway push counters
    (``repro_gateway_*``) plus pull-model families scraped live from the
    serving stack (``repro_requests_total``, ``repro_request_latency_ms``,
    ``repro_admission_requests_total``, ``repro_fusion_events_total``,
    ``repro_kernel_calls_total``, ...).  See :mod:`repro.obs`.

``GET /v1/trace/<id>`` / ``GET /v1/traces?slowest=N``
    Per-request span trees from the bounded trace ring.  Every traced
    predict response carries its trace id in the ``X-Request-Id`` header;
    ``/v1/traces`` returns the slowest-N exemplars.  Tracing rides headers
    and side channels only -- the predict response *body* is byte-identical
    with tracing on, off (``REPRO_OBS=0``) or sampled.

**Errors** are a structured envelope::

    {"error": {"code": "<machine_readable>", "message": "...",
               "retry_after_s": 1.25}}        # retry_after_s on 429 only

with stable codes (``bad_request``, ``invalid_json``, ``truncated_body``,
``invalid_sampling``, ``invalid_input``, ``length_required``,
``body_too_large``, ``not_found``, ``unknown_version``,
``version_conflict``, ``rollback_unavailable``, ``rate_limited``,
``overloaded``, ``unavailable``, ``timeout``, ``internal``).

**Admission control** (multi-tenant overload policy): tenants are
identified by a header (default ``X-Tenant``) and mapped to tiers
(:class:`~repro.serve.admission.AdmissionConfig`).  A tenant over its
token-bucket rate is shed with ``429`` + ``Retry-After`` before touching
the serving queue; row-budget backpressure from the
:class:`~repro.serve.microbatcher.MicroBatcher` is likewise surfaced as
``429`` + ``Retry-After`` (computed from the queue depth and the recent
drain rate) instead of blocking the handler thread -- a tier may buy a
bounded wait (``max_wait_ms``) and a ``priority`` that sheds last.  An
admitted request is *never* dropped: it either completes or fails with an
explicit 5xx.

Bit-exactness across the wire: responses are JSON with floats serialised via
``repr`` (Python's shortest round-trip representation), so a client parsing
``sample_probabilities`` back into a float64 array recovers **byte-identical**
values to a direct in-process ``mc_predict`` call -- the integration suite
asserts exactly that through a real socket, on ``/v1`` and the legacy
aliases, while overload traffic is being shed around the asserted requests.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..nn.metrics import predictive_entropy
from ..obs.adapters import bind_serving_collectors
from ..obs.metrics import MetricsRegistry, obs_enabled
from .admission import AdmissionConfig, AdmissionController, RateLimitedError
from .executor import SamplingConfig
from .microbatcher import QueueFull
from .registry import (
    ModelRegistry,
    RollbackUnavailableError,
    UnknownVersionError,
    VersionConflictError,
)
from .server import PredictionServer, ServerClosed, ServerConfig
from .worker import WorkerCrashError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..models.zoo import ReplicaSpec

__all__ = ["ServingGateway", "GatewayConfig"]

_SAMPLING_FIELDS = frozenset(SamplingConfig.__dataclass_fields__)

#: Unversioned (PR 5) paths kept as deprecated aliases of the /v1 routes.
_LEGACY_ALIASES = {
    "/predict": "/v1/predict",
    "/healthz": "/v1/healthz",
    "/stats": "/v1/stats",
    "/models": "/v1/models",
    "/models/deploy": "/v1/models/deploy",
    "/models/rollback": "/v1/models/rollback",
}


@dataclass(frozen=True)
class GatewayConfig:
    """Wire-level knobs of the HTTP gateway."""

    host: str = "127.0.0.1"
    port: int = 0
    """TCP port; ``0`` binds an ephemeral port (read it from ``address``)."""
    predict_timeout_s: float = 60.0
    """Per-request budget awaiting the serving future; exceeding it is 504."""
    max_body_bytes: int = 64 * 1024 * 1024
    """Requests with a larger ``Content-Length`` are refused with 413."""
    include_sample_probabilities: bool = True
    """Whether ``/v1/predict`` responses carry the full ``(S, rows, classes)``
    tensor (the bit-exactness surface) in addition to the summaries."""
    admission: AdmissionConfig | None = None
    """Tenant identification and tier policies; ``None`` is the default
    single-tier, unlimited, non-blocking policy."""
    retry_after_floor_s: float = 0.05
    """Lower clamp of the computed ``Retry-After`` hint."""
    retry_after_default_s: float = 1.0
    """``Retry-After`` before the drain-rate estimator has warmed up."""
    retry_after_cap_s: float = 30.0
    """Upper clamp of the computed ``Retry-After`` hint."""
    stream_threshold_bytes: int = 4 * 1024 * 1024
    """Predict responses whose ``sample_probabilities`` JSON is estimated
    above this are sent chunked, one sample per chunk (identical bytes)."""
    access_log_path: str | None = None
    """Opt-in structured access log: append one JSON line per request to
    this path (the ``REPRO_ACCESS_LOG`` environment variable is the
    fallback).  Never written to the response socket."""


class _GatewayError(Exception):
    """Internal: an HTTP error response with a status, code and message."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after_s = retry_after_s


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the owning gateway hangs off the HTTP server object."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-gateway/2.0"
    # Nagle + the peer's delayed ACK stalls keep-alive round trips for
    # ~40ms when the unbuffered header writes straddle packets
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def gateway(self) -> "ServingGateway":
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # a serving hot path must not write to stderr per request

    def _send_common_headers(
        self,
        status: int,
        retry_after_s: float | None,
        content_type: str = "application/json",
    ) -> None:
        self.send_response(status)
        self._responded_status = status
        self.send_header("Content-Type", content_type)
        if self._request_id is not None:
            # the trace id doubles as the request id; it rides a header so
            # the response *body* stays byte-identical with tracing off
            self.send_header("X-Request-Id", self._request_id)
        if self._deprecated:
            self.send_header("Deprecation", "true")
        if retry_after_s is not None:
            # the header is integer seconds (RFC 9110); the envelope carries
            # the precise float
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after_s))))

    def _respond(
        self, status: int, payload: dict, retry_after_s: float | None = None
    ) -> None:
        if status >= 400 and not self._body_consumed:
            # an unread request body would corrupt the next keep-alive
            # request on this socket; drop the connection.  A fully-read
            # body keeps the connection reusable even after a 4xx.
            self.close_connection = True
        body = json.dumps(payload).encode()
        self._send_common_headers(status, retry_after_s)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_text(self, status: int, text: str) -> None:
        body = text.encode()
        self._send_common_headers(
            status, None, content_type="text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_error(self, exc: _GatewayError) -> None:
        error: dict = {"code": exc.code, "message": str(exc)}
        if exc.retry_after_s is not None:
            error["retry_after_s"] = exc.retry_after_s
        self._respond(exc.status, {"error": error}, retry_after_s=exc.retry_after_s)

    def _read_json_body(self) -> dict:
        length = self.headers.get("Content-Length")
        if length is None:
            raise _GatewayError(411, "length_required", "Content-Length is required")
        try:
            n_bytes = int(length)
        except ValueError:
            raise _GatewayError(
                400, "bad_request", "malformed Content-Length"
            ) from None
        if n_bytes < 0:
            # read(-1) would block until the client closes the socket
            raise _GatewayError(400, "bad_request", "malformed Content-Length")
        if n_bytes > self.gateway.config.max_body_bytes:
            raise _GatewayError(
                413,
                "body_too_large",
                f"request body exceeds {self.gateway.config.max_body_bytes} bytes",
            )
        # rfile.read(n) may return fewer bytes than requested (slow clients,
        # interrupted transfers); loop until complete or the stream ends
        chunks: list[bytes] = []
        remaining = n_bytes
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 1 << 16))
            if not chunk:
                raise _GatewayError(
                    400,
                    "truncated_body",
                    f"request body truncated: expected {n_bytes} bytes, "
                    f"got {n_bytes - remaining}",
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        self._body_consumed = True
        raw = b"".join(chunks)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _GatewayError(
                400, "invalid_json", f"request body is not valid JSON: {exc}"
            ) from None
        if not isinstance(body, dict):
            raise _GatewayError(
                400, "invalid_json", "request body must be a JSON object"
            )
        return body

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._route("POST")

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        self._deprecated = False
        # GET requests carry no body; POST bodies are unread until
        # _read_json_body drains them (keep-alive safety on errors)
        self._body_consumed = method == "GET"
        self._route_started = time.monotonic()
        self._responded_status = 0
        self._request_id: str | None = None
        self._trace_handle = None
        self._access: dict | None = None
        canonical = _LEGACY_ALIASES.get(path)
        if canonical is not None:
            self._deprecated = True
            path = canonical
        routes = {
            ("GET", "/v1/healthz"): self._handle_healthz,
            ("GET", "/v1/stats"): self._handle_stats,
            ("GET", "/v1/models"): self._handle_models,
            ("GET", "/v1/metrics"): self._handle_metrics,
            ("GET", "/v1/traces"): self._handle_traces,
            ("POST", "/v1/predict"): self._handle_predict,
            ("POST", "/v1/models/deploy"): self._handle_deploy,
            ("POST", "/v1/models/rollback"): self._handle_rollback,
        }
        handler = routes.get((method, path))
        if handler is None and method == "GET" and path.startswith("/v1/trace/"):
            trace_id = path[len("/v1/trace/"):]
            handler = lambda: self._handle_trace(trace_id)  # noqa: E731
        try:
            if handler is None:
                known = sorted({p for (_, p) in routes} | {"/v1/trace/<id>"})
                raise _GatewayError(
                    404,
                    "not_found",
                    f"no route for {method} {path}; endpoints: {known}",
                )
            handler()
        except _GatewayError as exc:
            if exc.status == 429 and self._access is not None:
                self._access["shed_reason"] = exc.code
            self._respond_error(exc)
        except Exception as exc:  # pragma: no cover - last-resort isolation
            self._respond_error(
                _GatewayError(500, "internal", f"{type(exc).__name__}: {exc}")
            )
        finally:
            self._finalize_request(method, path)

    def _finalize_request(self, method: str, path: str) -> None:
        """Close the request trace, push gateway metrics, write the access log.

        Runs after the response bytes are on the wire, so none of it can
        perturb the payload.  ``finish`` is idempotent: handlers that already
        closed the handle with a precise status ("ok", "aborted") win over
        the status-code fallback here.
        """
        gateway = self.gateway
        status = self._responded_status
        handle = self._trace_handle
        if handle is not None:
            if status == 429:
                handle.finish("shed")
            elif status >= 400 or status == 0:
                handle.finish("error")
            else:
                handle.finish("ok")
        latency_ms = (time.monotonic() - self._route_started) * 1e3
        access = self._access
        if gateway._obs_enabled and access is not None:
            tier = access.get("tier") or "standard"
            gateway._m_requests.labels(
                tenant=access.get("tenant") or "-", tier=tier, status=str(status)
            ).inc()
            gateway._m_latency.labels(tier=tier).observe(latency_ms)
            reason = access.get("shed_reason")
            if reason:
                gateway._m_shed.labels(reason=reason).inc()
        log = gateway.access_log
        if log is not None:
            record = {
                "ts": round(time.time(), 6),
                "method": method,
                "path": path,
                "status": status,
                "latency_ms": round(latency_ms, 3),
                "tenant": access.get("tenant") if access else None,
                "tier": access.get("tier") if access else None,
                "request_id": self._request_id,
            }
            if access and access.get("shed_reason"):
                record["shed_reason"] = access["shed_reason"]
            log.write(record)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> None:
        gateway = self.gateway
        active = gateway.prediction_server.active_deployment()
        self._respond(
            200,
            {
                "status": "ok",
                "active_version": active.version,
                "generation": active.generation,
                "n_workers": gateway.server_config.n_workers,
                "loaded_versions": gateway.prediction_server.loaded_versions(),
            },
        )

    def _handle_stats(self) -> None:
        gateway = self.gateway
        snapshot = asdict(gateway.prediction_server.stats())
        # JSON object keys are strings; make the int-keyed histogram explicit
        snapshot["occupancy_histogram"] = {
            str(key): value
            for key, value in snapshot["occupancy_histogram"].items()
        }
        snapshot["admission"] = gateway.admission.snapshot()
        snapshot["tenants"] = gateway.admission.tenants_snapshot()
        snapshot["queue"] = {
            "pending_rows": gateway.prediction_server.pending_rows,
            "waiting_requests": gateway.prediction_server.waiting_requests,
            "retry_after_s_estimate": gateway.compute_retry_after_s(),
        }
        self._respond(200, snapshot)

    def _handle_models(self) -> None:
        gateway = self.gateway
        registry = gateway.registry
        active = registry.active
        loaded = set(gateway.prediction_server.loaded_versions())
        self._respond(
            200,
            {
                "active_version": active.version if active else None,
                "generation": active.generation if active else 0,
                "rollback_target": registry.rollback_target,
                "versions": [
                    {
                        "version": entry.version,
                        "fingerprint": entry.fingerprint,
                        "loaded": entry.version in loaded,
                        "active": bool(active and active.version == entry.version),
                    }
                    for entry in registry.versions()
                ],
                "history": [
                    {
                        "version": deployment.version,
                        "generation": deployment.generation,
                        "deployed_at": deployment.deployed_at,
                        "rolled_back": deployment.rolled_back,
                    }
                    for deployment in registry.history()
                ],
            },
        )

    def _handle_metrics(self) -> None:
        registry = self.gateway.metrics
        registry.collect()  # refresh pull-model families from live snapshots
        self._respond_text(200, registry.render())

    def _handle_trace(self, trace_id: str) -> None:
        record = self.gateway.tracer.get(trace_id)
        if record is None:
            raise _GatewayError(
                404,
                "not_found",
                f"no recorded trace {trace_id!r} (the ring keeps the most "
                f"recent traces plus the slowest exemplars)",
            )
        self._respond(200, record)

    def _handle_traces(self) -> None:
        query = parse_qs(urlsplit(self.path).query)
        try:
            n = int(query.get("slowest", ["8"])[0])
        except ValueError:
            raise _GatewayError(
                400, "bad_request", '"slowest" must be an integer'
            ) from None
        tracer = self.gateway.tracer
        self._respond(
            200,
            {
                "traces": tracer.slowest(n),
                "recorded": tracer.recorded_count,
                "open": tracer.open_count,
            },
        )

    def _parse_sampling(self, body: dict) -> SamplingConfig:
        sampling = body.get("sampling", {})
        if not isinstance(sampling, dict):
            raise _GatewayError(
                400, "invalid_sampling", '"sampling" must be a JSON object'
            )
        unknown = sorted(set(sampling) - _SAMPLING_FIELDS)
        if unknown:
            raise _GatewayError(
                400,
                "invalid_sampling",
                f"unknown sampling fields {unknown}; "
                f"allowed: {sorted(_SAMPLING_FIELDS)}",
            )
        try:
            return SamplingConfig(**sampling)
        except (TypeError, ValueError) as exc:
            raise _GatewayError(
                400, "invalid_sampling", f"invalid sampling config: {exc}"
            ) from None

    def _parse_inputs(self, body: dict) -> np.ndarray:
        if "x" not in body:
            raise _GatewayError(
                400, "invalid_input", 'the request body needs an "x" input batch'
            )
        try:
            x = np.asarray(body["x"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _GatewayError(
                400, "invalid_input", f'"x" is not a numeric array: {exc}'
            ) from None
        if x.ndim < 2:
            raise _GatewayError(
                400,
                "invalid_input",
                "a request must be batched: expected (rows, ...) input, got "
                f"shape {x.shape}",
            )
        return x

    def _handle_predict(self) -> None:
        gateway = self.gateway
        admission = gateway.admission
        body = self._read_json_body()
        x = self._parse_inputs(body)
        sampling = self._parse_sampling(body)
        requested = body.get("version")
        if requested is not None and not isinstance(requested, str):
            raise _GatewayError(400, "invalid_input", '"version" must be a string')
        tenant = admission.resolve_tenant(
            self.headers.get(admission.config.tenant_header)
        )
        tier_name, _ = admission.tier_of(tenant)
        self._access = {"tenant": tenant, "tier": tier_name}
        handle = gateway.tracer.begin(
            kind="predict", tenant=tenant, tier=tier_name, rows=int(x.shape[0])
        )
        if handle is not None:
            # the gateway owns the handle's lifetime: the server threads its
            # queue_wait/execute/worker spans through it but must not finish
            # it before the serialization span below is recorded
            handle.deferred = True
            self._trace_handle = handle
            self._request_id = handle.trace_id
        try:
            policy = admission.admit(tenant)
        except RateLimitedError as exc:
            raise _GatewayError(
                429, "rate_limited", str(exc), retry_after_s=exc.retry_after_s
            ) from None
        admitted_at = time.monotonic()
        if handle is not None:
            handle.add_span("admission", self._route_started, admitted_at)
        # one source tag per client socket: a tile pooling several distinct
        # tags is cross-connection coalescing, surfaced in /v1/stats
        source = f"{self.client_address[0]}:{self.client_address[1]}"
        try:
            # the admission point: resolve once, report exactly this pin, and
            # submit with the explicit version so a concurrent deploy cannot
            # change what the request is served with
            version, generation = gateway.prediction_server.resolve_version(requested)
            future = gateway.prediction_server.submit(
                x,
                sampling,
                version=version,
                block=policy.max_wait_ms > 0,
                timeout=(policy.max_wait_ms / 1e3) if policy.max_wait_ms > 0 else None,
                priority=policy.priority,
                source=source,
                trace=handle,
            )
        except UnknownVersionError as exc:
            raise _GatewayError(404, "unknown_version", str(exc)) from None
        except QueueFull as exc:
            admission.record_shed(tenant)
            retry_after = gateway.compute_retry_after_s(exc.pending_rows)
            raise _GatewayError(
                429,
                "overloaded",
                f"serving queue is full ({exc.reason}): {exc}",
                retry_after_s=retry_after,
            ) from None
        except (ServerClosed, RuntimeError) as exc:
            raise _GatewayError(503, "unavailable", str(exc)) from None
        except ValueError as exc:
            raise _GatewayError(400, "invalid_input", str(exc)) from None
        admission.record_admitted(tenant, rows=int(x.shape[0]))
        waiting_from = admitted_at
        try:
            result = future.result(timeout=gateway.config.predict_timeout_s)
        except TimeoutError:
            raise _GatewayError(
                504,
                "timeout",
                f"prediction did not complete within "
                f"{gateway.config.predict_timeout_s}s",
            ) from None
        except ServerClosed as exc:
            if handle is not None:
                handle.finish("aborted")
            raise _GatewayError(503, "unavailable", str(exc)) from None
        except Exception as exc:
            if handle is not None and isinstance(exc, WorkerCrashError):
                handle.finish("aborted")
            raise _GatewayError(
                500, "internal", f"{type(exc).__name__}: {exc}"
            ) from None
        serialization_from = time.monotonic()
        if handle is not None:
            handle.add_span(
                "waiting_room", waiting_from, serialization_from, version=version
            )
        # one mean per response: predictions / entropy / mean_probabilities
        # are each a property that would reduce the sample axis again
        mean = result.mean_probabilities
        payload = {
            "version": version,
            "generation": generation,
            "predictions": mean.argmax(axis=1).tolist(),
            "entropy": predictive_entropy(mean).tolist(),
            "mean_probabilities": mean.tolist(),
        }
        streamed = False
        if not gateway.config.include_sample_probabilities:
            self._respond(200, payload)
        else:
            samples = result.sample_probabilities
            # ~17 digits + sign/dot/exponent/comma per float64 repr; a
            # deliberate overestimate only moves responses into the
            # (byte-identical) streaming path earlier
            estimated_bytes = samples.size * 26
            if estimated_bytes < gateway.config.stream_threshold_bytes:
                payload["sample_probabilities"] = samples.tolist()
                self._respond(200, payload)
            else:
                streamed = True
                self._respond_predict_streaming(payload, samples)
        if handle is not None:
            handle.add_span(
                "serialization",
                serialization_from,
                time.monotonic(),
                streamed=streamed,
            )
            handle.finish("ok")

    def _respond_predict_streaming(self, payload: dict, samples: np.ndarray) -> None:
        """Send the predict payload chunked, one Monte-Carlo sample at a time.

        ``json.dumps`` serialises floats via ``repr`` whether the tensor is
        dumped whole or per-sample, and ``sample_probabilities`` is appended
        exactly where the buffered encoding would place it -- so the
        concatenated chunks are byte-identical to the non-streaming body.
        Peak memory is O(rows * classes) instead of O(S * rows * classes).
        """
        self._send_common_headers(200, None)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        head = json.dumps(payload)
        assert head.endswith("}")
        self._write_chunk(head[:-1].encode() + b', "sample_probabilities": [')
        for index in range(samples.shape[0]):
            piece = json.dumps(samples[index].tolist())
            if index:
                # json.dumps' default item separator, so the concatenation
                # matches the buffered encoding byte for byte
                piece = ", " + piece
            self._write_chunk(piece.encode())
        self._write_chunk(b"]}")
        self.wfile.write(b"0\r\n\r\n")

    def _write_chunk(self, data: bytes) -> None:
        if not data:  # a zero-length chunk would terminate the stream
            return
        self.wfile.write(f"{len(data):X}\r\n".encode() + data + b"\r\n")

    def _handle_deploy(self) -> None:
        body = self._read_json_body()
        version = body.get("version")
        if not isinstance(version, str) or not version:
            raise _GatewayError(
                400, "invalid_input", 'the body needs a "version" string'
            )
        try:
            deployment = self.gateway.prediction_server.deploy(version)
        except UnknownVersionError as exc:
            raise _GatewayError(404, "unknown_version", str(exc)) from None
        except VersionConflictError as exc:
            raise _GatewayError(409, "version_conflict", str(exc)) from None
        except RuntimeError as exc:
            raise _GatewayError(503, "unavailable", str(exc)) from None
        self._respond(
            200,
            {
                "active_version": deployment.version,
                "generation": deployment.generation,
                "rolled_back": deployment.rolled_back,
            },
        )

    def _handle_rollback(self) -> None:
        length = self.headers.get("Content-Length")
        if length and length.strip() != "0":
            self._read_json_body()  # body is optional; drain it if present
        else:
            self._body_consumed = True
        try:
            deployment = self.gateway.prediction_server.rollback()
        except RollbackUnavailableError as exc:
            raise _GatewayError(409, "rollback_unavailable", str(exc)) from None
        except RuntimeError as exc:
            raise _GatewayError(503, "unavailable", str(exc)) from None
        self._respond(
            200,
            {
                "active_version": deployment.version,
                "generation": deployment.generation,
                "rolled_back": deployment.rolled_back,
            },
        )


class _AccessLog:
    """Opt-in structured access log: one compact JSON line per request.

    Appends to a regular file under a lock (handler threads are concurrent)
    and flushes per line so an external tailer sees complete records.  It is
    a side channel only -- nothing here ever touches the response socket.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")

    def write(self, record: dict) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._file is None:
                return
            self._file.write(line + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default accept backlog of 5 resets connections under a
    # multi-tenant burst; shedding is the admission controller's job, not
    # the kernel's
    request_queue_size = 128
    gateway: "ServingGateway"


class ServingGateway:
    """HTTP front door over a :class:`PredictionServer` + model registry.

    Lifecycle mirrors the server's: :meth:`start` (or a ``with`` block) boots
    the prediction server, binds the socket and begins answering on a
    daemon thread; :meth:`close` shuts the HTTP listener down first (no new
    admissions) and then the serving stack (draining by default).

    ::

        registry = ModelRegistry()
        registry.register("v1", ReplicaSpec.capture(spec, model_v1))
        registry.deploy("v1")
        with ServingGateway(registry, ServerConfig(n_workers=2)) as gateway:
            url = f"http://{gateway.address[0]}:{gateway.address[1]}"
            ...  # POST {url}/v1/predict, POST {url}/v1/models/deploy, ...
    """

    def __init__(
        self,
        model_source: "ModelRegistry | ReplicaSpec",
        server_config: ServerConfig | None = None,
        config: GatewayConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.prediction_server = PredictionServer(model_source, server_config)
        self.server_config = server_config or ServerConfig()
        self.config = config or GatewayConfig()
        self.admission = AdmissionController(self.config.admission)
        self._httpd: _GatewayHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._closed = False
        # observability: resolved at construction so two gateways built under
        # different REPRO_OBS values coexist in one process
        self._obs_enabled = obs_enabled()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._serving_collector = None
        if self._obs_enabled:
            self._serving_collector = bind_serving_collectors(self.metrics, self)
        self._m_requests = self.metrics.counter(
            "repro_gateway_requests_total",
            "Predict requests seen by the gateway, by tenant/tier/HTTP status.",
            ("tenant", "tier", "status"),
        )
        self._m_latency = self.metrics.histogram(
            "repro_gateway_request_latency_ms",
            "End-to-end gateway predict handler latency, milliseconds.",
            ("tier",),
        )
        self._m_shed = self.metrics.counter(
            "repro_gateway_shed_total",
            "Predict requests shed at the gateway, by error code.",
            ("reason",),
        )
        self.access_log: _AccessLog | None = None

    @property
    def registry(self) -> ModelRegistry:
        """The model registry backing the serving stack."""
        return self.prediction_server.registry

    @property
    def tracer(self):
        """The request :class:`~repro.obs.trace.Tracer` (owned by the server)."""
        return self.prediction_server.tracer

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; resolves ephemeral port 0."""
        if self._httpd is None:
            raise RuntimeError("the gateway is not started")
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        """Base URL of the running gateway."""
        host, port = self.address
        return f"http://{host}:{port}"

    def compute_retry_after_s(self, pending_rows: int | None = None) -> float:
        """Estimate when a shed client should retry.

        The queue depth divided by the recent drain rate is how long the
        backlog needs to clear; clamped to
        ``[retry_after_floor_s, retry_after_cap_s]`` and defaulting to
        ``retry_after_default_s`` while the rate estimator is cold.
        """
        if pending_rows is None:
            pending_rows = self.prediction_server.pending_rows
        rate = self.prediction_server.drain_rate_rows_per_s()
        config = self.config
        if rate is None or rate <= 0:
            estimate = config.retry_after_default_s
        else:
            estimate = pending_rows / rate
        estimate = min(max(estimate, config.retry_after_floor_s), config.retry_after_cap_s)
        return math.ceil(estimate * 1e3) / 1e3

    # ------------------------------------------------------------------
    def start(self) -> "ServingGateway":
        """Boot the serving stack and start answering HTTP requests."""
        if self._httpd is not None:
            raise RuntimeError("gateway already started")
        log_path = self.config.access_log_path or os.environ.get("REPRO_ACCESS_LOG")
        if log_path:
            self.access_log = _AccessLog(log_path)
        self.prediction_server.start()
        try:
            self._httpd = _GatewayHTTPServer(
                (self.config.host, self.config.port), _Handler
            )
        except BaseException:
            self.prediction_server.close(drain=False)
            raise
        self._httpd.gateway = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="serve-gateway",
            daemon=True,
        )
        self._thread.start()
        return self

    def __enter__(self) -> "ServingGateway":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True) -> None:
        """Stop listening, then shut the serving stack down."""
        if self._closed:
            return
        self._closed = True
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.prediction_server.close(drain=drain)
        if self._serving_collector is not None:
            # a collector scraping a closed server would raise
            self.metrics.unregister_collector(self._serving_collector)
            self._serving_collector = None
        if self.access_log is not None:
            self.access_log.close()
            self.access_log = None

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`close` (CLI convenience)."""
        if self._thread is None:
            raise RuntimeError("the gateway is not started")
        try:
            while self._thread.is_alive():
                self._thread.join(timeout=0.5)
        except KeyboardInterrupt:
            self.close(drain=False)


# ----------------------------------------------------------------------
# CLI: boot a demo gateway (used by the CI gateway job via the client SDK)
# ----------------------------------------------------------------------
def _build_demo_registry(
    model_name: str, n_versions: int, registry_dir: str | None = None
) -> ModelRegistry:
    from ..models.zoo import ReplicaSpec, get_model

    registry = ModelRegistry() if registry_dir is None else ModelRegistry.open(registry_dir)
    if registry.versions():
        # a restored persistent registry already carries its versions, active
        # pointer and history -- the whole point of persistence
        if registry.active is None:
            registry.deploy(registry.versions()[0].version)
        return registry
    spec = get_model(model_name, reduced=True)
    for index in range(1, n_versions + 1):
        # distinct build seeds -> genuinely different weights per version, so
        # a deploy/rollback visibly changes the served bytes
        replica = ReplicaSpec.capture(
            spec, spec.build_bayesian(seed=100 + index), build_seed=0
        )
        registry.register(f"v{index}", replica)
    registry.deploy("v1")
    return registry


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.serve.gateway``: serve a freshly built model zoo entry."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8123)
    parser.add_argument("--model", default="B-MLP", help="zoo name (reduced variant)")
    parser.add_argument(
        "--versions", type=int, default=2, help="how many versions to register"
    )
    parser.add_argument(
        "--workers", type=int, default=0, help="worker processes (0 = inline)"
    )
    parser.add_argument(
        "--registry-dir",
        default=None,
        help="persist the registry here; an existing directory is restored "
        "(versions, active pointer, generation, history) instead of rebuilt",
    )
    parser.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-tenant requests/s for the standard tier (default: unlimited)",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        help="append one JSON line per request to this file "
        "(REPRO_ACCESS_LOG is the env fallback)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        help="fraction of predict requests to trace, 0..1 (deterministic "
        "counter-based sampling, no RNG)",
    )
    args = parser.parse_args(argv)
    registry = _build_demo_registry(args.model, args.versions, args.registry_dir)
    admission = None
    if args.rate_limit is not None:
        from .admission import TierPolicy

        admission = AdmissionConfig(
            tiers={"standard": TierPolicy(rate_per_s=args.rate_limit)}
        )
    gateway = ServingGateway(
        registry,
        ServerConfig(n_workers=args.workers, trace_sample_rate=args.trace_sample),
        GatewayConfig(
            host=args.host,
            port=args.port,
            admission=admission,
            access_log_path=args.access_log,
        ),
    )
    gateway.start()
    host, port = gateway.address
    print(f"serving {args.model} ({args.versions} versions) on http://{host}:{port}",
          flush=True)
    gateway.serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by the CI job
    import sys

    sys.exit(main())
