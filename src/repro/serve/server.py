"""The asynchronous prediction front-end: submit requests, await futures.

``PredictionServer`` glues the serving subsystem together:

* clients call :meth:`~PredictionServer.submit` (thread-safe, returns a
  ``concurrent.futures.Future``) or the blocking convenience
  :meth:`~PredictionServer.predict`;
* a :class:`~repro.serve.microbatcher.MicroBatcher` pools requests into
  ``(S, batch)`` tiles under the ``max_batch_rows`` / ``max_wait_ms`` flush
  policy, with row-budget backpressure;
* the dispatcher thread executes each tile inline on a
  :class:`~repro.serve.executor.MultiVersionExecutor`;
* each future resolves to the *exact* :class:`~repro.bnn.predict.PredictiveResult`
  a standalone ``mc_predict`` call with the same sampling configuration
  would return -- mean / entropy / per-sample probabilities included --
  regardless of how requests were pooled;
* :meth:`~PredictionServer.stats` reports throughput, p50/p99 latency and
  the batch-occupancy histogram.

Failure semantics: a request that raises fails only its own future (errors
are isolated per request inside a tile); ``close(drain=True)`` finishes
queued work first, ``close(drain=False)`` fails it fast with
:class:`ServerClosed`.

Hot model swap: constructed from a
:class:`~repro.serve.registry.ModelRegistry`, the server pins every request
to a ``(version, generation)`` at admission and serves it with exactly that
version's replica; :meth:`~PredictionServer.deploy` /
:meth:`~PredictionServer.rollback` atomically move the active pointer for
future requests only.  The HTTP boundary lives in
:mod:`repro.serve.gateway`.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from ..bnn.predict import PredictiveResult
from ..models.zoo import ReplicaSpec
from ..obs.trace import StageRecorder, TraceHandle, Tracer
from .executor import MultiVersionExecutor, SamplingConfig
from .microbatcher import MicroBatcher, PendingItem, QueueClosed, _Arrival
from .registry import Deployment, ModelRegistry, UnknownVersionError
from .stats import ServerStats, StatsSnapshot

__all__ = ["PredictionServer", "ServerConfig", "ServerClosed"]

#: Default for ``submit(trace=...)``: "no caller decision, begin one here".
#: Distinct from an explicit ``None``, which means the caller already made
#: the sampling decision (sampled out) and the request stays untraced.
_AUTO_TRACE = object()


class ServerClosed(RuntimeError):
    """Raised by ``submit`` after shutdown, and set on aborted futures."""


@dataclass(frozen=True)
class ServerConfig:
    """Tuning knobs of the serving front-end."""

    max_batch_rows: int = 64
    """Rows per tile; the flush threshold of the micro-batcher."""
    max_wait_ms: float = 2.0
    """Maximum time the oldest queued request waits before a partial flush;
    behind the gateway it flushes once nothing else is arriving (``idle``)."""
    max_pending_rows: int = 1024
    """Backpressure budget: ``submit`` blocks once this many rows are queued."""
    max_waiting: int | None = None
    """Bound on submitters blocked behind the row budget (the micro-batcher's
    priority waiting room).  ``None`` keeps it unbounded; a bound makes
    overload shed deterministically instead of queueing blocked threads."""
    max_cached_configs: int = 8
    """Weight sweeps kept per executor (one per sampling config, each
    ``n_samples x Bayesian weights x 8`` bytes)."""
    trace_ring: int = 512
    """Finished traces retained in the tracer's ring buffer."""
    trace_slowest: int = 16
    """Slowest-trace exemplars retained past ring eviction."""
    trace_sample_rate: float = 1.0
    """Fraction of requests traced (deterministic counter-based sampling;
    0 disables per-request tracing, as does ``REPRO_OBS=0``)."""

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError("trace_sample_rate must be in [0, 1]")


@dataclass
class _Request:
    x: np.ndarray
    config: SamplingConfig
    future: Future
    rows: int
    version: str
    """Model version the request was pinned to at admission."""
    generation: int
    """Registry generation at admission (tags the response for operators)."""
    source: str | None = None
    """Connection/submitter identity, for cross-connection coalescing
    telemetry: a tile pooling several distinct sources proves separate
    sockets shared it."""
    trace: TraceHandle | None = None
    """The request's trace (None when tracing is off or sampled out).
    Carries spans only -- it can never influence result bytes."""


class PredictionServer:
    """Async micro-batching front-end over the batched Monte-Carlo engine.

    The server is constructed either from a bare
    :class:`~repro.models.zoo.ReplicaSpec` (single-model serving, the PR 3
    surface: the replica becomes version ``v1`` of an internal registry) or
    from a :class:`~repro.serve.registry.ModelRegistry` with a deployed
    active version (versioned serving with hot swap).

    Hot swap contract: every request is pinned to a ``(version, generation)``
    at :meth:`submit` time; :meth:`deploy` / :meth:`rollback` atomically move
    the *active* pointer for future requests while queued and in-flight
    requests finish on their pinned version's replica.  A swap loads the
    incoming version's replica into the executor *before* the pointer
    moves, and drops the cached weight sweeps of every non-active
    version afterwards; previously loaded versions stay resident so
    ``rollback`` (and explicitly pinned canary requests) serve instantly.
    """

    def __init__(
        self,
        model_source: ReplicaSpec | ModelRegistry,
        config: ServerConfig | None = None,
    ) -> None:
        if isinstance(model_source, ModelRegistry):
            self._registry = model_source
        else:
            self._registry = ModelRegistry.single(model_source)
        self._config = config or ServerConfig()
        self._batcher: MicroBatcher[_Request] = MicroBatcher(
            max_batch_rows=self._config.max_batch_rows,
            max_wait_ms=self._config.max_wait_ms,
            max_pending_rows=self._config.max_pending_rows,
            max_waiting=self._config.max_waiting,
        )
        self._stats = ServerStats()
        # enabled resolves REPRO_OBS at construction time, so two servers
        # with different env settings can coexist in one process
        self.tracer = Tracer(
            ring_size=self._config.trace_ring,
            slowest_n=self._config.trace_slowest,
            sample_rate=self._config.trace_sample_rate,
        )
        self._tile_ids = itertools.count()
        self._executor: MultiVersionExecutor | None = None
        self._dispatcher: threading.Thread | None = None
        # version control plane: which versions are loaded in the executor,
        # and how many admitted requests are pinned to each
        self._version_lock = threading.Lock()
        self._loaded: set[str] = set()
        self._pins: dict[str, int] = {}
        # per-row input shape by version (registered contents are immutable)
        self._row_shapes: dict[str, tuple[int, ...]] = {}
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_model(
        cls,
        model,
        spec,
        config: ServerConfig | None = None,
        build_seed: int = 0,
    ) -> "PredictionServer":
        """Serve a live (e.g. freshly trained) model: capture it as a replica."""
        return cls(ReplicaSpec.capture(spec, model, build_seed=build_seed), config)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PredictionServer":
        """Build the executor and start dispatching."""
        if self._started:
            raise RuntimeError("server already started")
        active = self._registry.active
        if active is None:
            raise RuntimeError(
                "the model registry has no deployed version; call "
                "registry.deploy(version) before starting the server"
            )
        self._started = True
        initial = {active.version: self._registry.get(active.version).replica}
        self._loaded = set(initial)
        self._executor = MultiVersionExecutor(
            initial,
            max_cached_configs=self._config.max_cached_configs,
        )
        self._stats.reset_clock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()
        return self

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the server.

        ``drain=True`` completes everything already submitted before
        returning; ``drain=False`` fails queued requests with
        :class:`ServerClosed` as fast as possible.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        self._closed = True
        if not drain:
            for pending in self._batcher.cancel_pending():
                self._fail(pending.item, ServerClosed("server closed before execution"))
        self._batcher.close()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=timeout)
            self._dispatcher = None
        # any trace still open at shutdown is closed as aborted, never leaked
        # (finish is idempotent, so racing owners are harmless)
        self.tracer.abort_open()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    def submit(
        self,
        x: np.ndarray,
        sampling: SamplingConfig | None = None,
        block: bool = True,
        timeout: float | None = None,
        version: str | None = None,
        priority: int = 0,
        source: str | None = None,
        trace: "TraceHandle | None | object" = _AUTO_TRACE,
        _arrival: _Arrival | None = None,
    ) -> Future:
        """Queue one prediction request; resolves to a ``PredictiveResult``.

        ``x`` is one request's input batch (first axis = rows); rows of any
        shape but the pinned version's input shape raise ``ValueError``
        before anything is queued.  Requests sharing a
        :class:`SamplingConfig` are pooled into tiles and replay one cached
        sampled-weight sweep.  Under backpressure the call blocks, or
        raises :class:`~repro.serve.microbatcher.QueueFull` when
        ``block=False`` / the timeout expires.

        ``version`` pins the request to a specific *loaded* model version
        (canary / pinned-client traffic); ``None`` pins it to the version
        active at this instant.  Either way the pin is immutable once
        admitted -- a concurrent :meth:`deploy` affects later submissions
        only.

        ``priority`` orders blocked submitters in the micro-batcher's
        waiting room (higher sheds last); ``source`` tags the request with
        its connection identity for the coalescing telemetry.  Neither can
        influence result bytes: tiles never split a request and sampled
        weights derive from the request's own sampling config.

        ``trace`` adopts a caller-begun :class:`TraceHandle` (the gateway
        passes its admission-time handle).  Left at its default the server
        begins its own, subject to the tracer's kill switch and sample
        rate; an explicit ``None`` means the caller already made the
        sampling decision (sampled out) and the request stays untraced.
        Traces carry spans only and can never influence result bytes.
        ``_arrival`` passes the gateway's announcement to the micro-batcher.
        """
        if not self._started:
            raise RuntimeError("server not started; call start() or use a with-block")
        # private copy: execution is deferred (queue, then tile), and a client
        # reusing its staging buffer must not mutate an in-flight request
        x = np.array(x)
        if x.ndim < 2:
            raise ValueError(
                "a request must be batched: expected (rows, ...) input, got "
                f"shape {x.shape}"
            )
        pinned_version, generation = self._admit(version)
        expected = self._row_shape(pinned_version)
        if x.shape[1:] != expected:
            self._unpin(pinned_version)
            raise ValueError(
                f"model version {pinned_version!r} expects rows of shape "
                f"{expected}, got input of shape {x.shape}"
            )
        if trace is _AUTO_TRACE:
            handle = self.tracer.begin(
                kind="predict", version=pinned_version, rows=int(x.shape[0])
            )
        else:
            handle = trace
        request = _Request(
            x=x,
            config=sampling or SamplingConfig(),
            future=Future(),
            rows=int(x.shape[0]),
            version=pinned_version,
            generation=generation,
            source=source,
            trace=handle,
        )
        try:
            self._batcher.submit(
                request,
                rows=request.rows,
                block=block,
                timeout=timeout,
                priority=priority,
                _arrival=_arrival,
            )
        except QueueClosed:
            self._unpin(pinned_version)
            if handle is not None and not handle.deferred:
                handle.finish("aborted")
            raise ServerClosed("the server is shut down") from None
        except BaseException:
            self._unpin(pinned_version)
            if handle is not None and not handle.deferred:
                handle.finish("shed")
            raise
        return request.future

    def predict(
        self,
        x: np.ndarray,
        sampling: SamplingConfig | None = None,
        version: str | None = None,
    ) -> PredictiveResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(x, sampling=sampling, version=version).result()

    def stats(self) -> StatsSnapshot:
        """Throughput / latency / occupancy snapshot."""
        return self._stats.snapshot()

    @property
    def pending_rows(self) -> int:
        """Rows currently queued behind the micro-batcher (snapshot)."""
        return self._batcher.pending_rows

    @property
    def waiting_requests(self) -> int:
        """Submitters blocked in the priority waiting room (snapshot)."""
        return self._batcher.waiting_requests

    def drain_rate_rows_per_s(self) -> float | None:
        """Recent completed-rows/s; the gateway's ``Retry-After`` estimator."""
        return self._stats.drain_rate_rows_per_s()

    def flush_causes(self) -> dict[str, int]:
        """Microbatcher tile-flush counters by cause (rows/idle/timeout/close)."""
        return self._batcher.flush_causes()

    # ------------------------------------------------------------------
    # version control plane (hot model swap)
    # ------------------------------------------------------------------
    @property
    def registry(self) -> ModelRegistry:
        """The model registry backing this server."""
        return self._registry

    def loaded_versions(self) -> list[str]:
        """Versions currently resident in the executor (sorted)."""
        with self._version_lock:
            return sorted(self._loaded)

    def active_deployment(self) -> Deployment:
        """The registry's current deployment."""
        active = self._registry.active
        assert active is not None  # enforced by start()
        return active

    def resolve_version(self, version: str | None = None) -> tuple[str, int]:
        """Resolve ``(version, generation)`` at this instant, without pinning.

        The gateway uses this to *report* the pin it is about to request; the
        authoritative (atomic) admission happens inside :meth:`submit`, which
        re-validates the explicit version under the same lock that guards
        :meth:`retire_version`.  An explicit version must be registered *and*
        loaded.
        """
        with self._version_lock:
            return self._resolve_locked(version)

    def _resolve_locked(self, version: str | None) -> tuple[str, int]:
        pinned, generation = self._registry.resolve(version)
        if version is not None and pinned not in self._loaded:
            raise UnknownVersionError(
                f"model version {version!r} is registered but not "
                "loaded; deploy it or call load_version() first"
            )
        return pinned, generation

    def _admit(self, version: str | None) -> tuple[str, int]:
        """Atomically resolve a request's pin AND count it as in flight.

        One lock acquisition covers the loaded-check and the pin increment,
        so :meth:`retire_version` (which refuses while pins exist, under the
        same lock) can never unload a version between a request's admission
        check and its pin.
        """
        with self._version_lock:
            pinned, generation = self._resolve_locked(version)
            self._pins[pinned] = self._pins.get(pinned, 0) + 1
            return pinned, generation

    def load_version(self, version: str) -> None:
        """Make a registered version resident without activating it.

        Canary workflow: load ``v2``, steer pinned traffic at it with
        ``submit(..., version="v2")``, then :meth:`deploy` once satisfied.
        """
        if not self._started or self._closed:
            raise RuntimeError("the server is not running")
        self._ensure_loaded(version)

    def _ensure_loaded(self, version: str) -> None:
        replica = self._registry.get(version).replica
        with self._version_lock:
            if version in self._loaded:
                return
        # building the replica is the expensive part -- do it OUTSIDE
        # the version lock so admissions and completions (which take the lock
        # to pin/unpin) keep flowing during a multi-second build
        assert self._executor is not None
        self._executor.load(version, replica)
        with self._version_lock:
            self._loaded.add(version)

    def deploy(self, version: str) -> Deployment:
        """Hot-swap the active version; in-flight requests keep their pin.

        Ordering inside the swap: the incoming replica is loaded into the
        executor *before* the registry pointer moves (so a request pinned
        after the swap always finds its version resident), and every *other*
        loaded version's cached weight sweeps are dropped after it.  Returns
        the new :class:`~repro.serve.registry.Deployment`.
        """
        if not self._started or self._closed:
            raise RuntimeError("the server is not running")
        # pre-load outside the version lock (replica builds are slow);
        # _swap_locked keeps a load fallback for the rare concurrent retire
        self._ensure_loaded(version)
        with self._version_lock:
            return self._swap_locked(version, lambda: self._registry.deploy(version))

    def rollback(self) -> Deployment:
        """Swap back to the previously active version (a new generation)."""
        if not self._started or self._closed:
            raise RuntimeError("the server is not running")
        with self._version_lock:
            target = self._registry.rollback_target
            if target is None:
                # delegate the error to the registry for a consistent exception
                return self._registry.rollback()
            return self._swap_locked(target, self._registry.rollback)

    def _swap_locked(self, version: str, registry_op) -> Deployment:
        """Load ``version``, swap the registry, invalidate caches."""
        assert self._executor is not None
        if version not in self._loaded:
            self._executor.load(version, self._registry.get(version).replica)
            self._loaded.add(version)
        deployment = registry_op()
        # swap invalidation: cold versions keep their replicas (rollback
        # and pinned traffic stay instant) but drop their cached weight
        # sweeps -- they rebuild deterministically on the next request
        for other in self._loaded - {version}:
            self._executor.invalidate(other)
        return deployment

    def retire_version(self, version: str) -> None:
        """Unload a version from the executor and free its caches.

        Refused while the version is active, is the rollback target, or has
        admitted requests still in flight -- retiring must never lose a
        pinned request.  The registration itself is kept: a later
        :meth:`deploy` reloads the version.
        """
        if not self._started or self._closed:
            raise RuntimeError("the server is not running")
        self._registry.get(version)  # unknown names are an error, not a no-op
        with self._version_lock:
            active = self._registry.active
            if active is not None and active.version == version:
                raise ValueError(f"cannot retire the active version {version!r}")
            if self._registry.rollback_target == version:
                raise ValueError(
                    f"cannot retire the rollback target {version!r}; deploy "
                    "another version first"
                )
            if self._pins.get(version):
                raise RuntimeError(
                    f"version {version!r} still has {self._pins[version]} "
                    "requests in flight; retry once they drain"
                )
            if version not in self._loaded:
                return
            assert self._executor is not None
            self._executor.unload(version)
            self._loaded.discard(version)

    def _row_shape(self, version: str) -> tuple[int, ...]:
        shape = self._row_shapes.get(version)
        if shape is None:
            spec = self._registry.get(version).replica.spec
            shape = self._row_shapes[version] = tuple(spec.trace()[0].input_shape)
        return shape

    def _unpin(self, version: str) -> None:
        with self._version_lock:
            count = self._pins.get(version, 0) - 1
            if count > 0:
                self._pins[version] = count
            else:
                self._pins.pop(version, None)

    # ------------------------------------------------------------------
    # dispatcher
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            tile = self._batcher.next_tile()
            if tile is None:
                return
            tile_id = next(self._tile_ids)
            sources = {
                item.item.source for item in tile if item.item.source is not None
            }
            self._stats.record_tile(
                n_requests=len(tile),
                rows=sum(item.rows for item in tile),
                sources=len(sources) or None,
            )
            dispatched_at = time.monotonic()
            traced = any(item.item.trace is not None for item in tile)
            requests = [
                (item.item.x, item.item.config, item.item.version) for item in tile
            ]
            assert self._executor is not None
            recorder = StageRecorder() if traced else None
            if recorder is not None:
                self._executor.attach_stage_recorder(recorder)
            try:
                results = self._executor.execute(requests)
            except Exception as exc:
                results, error = None, exc
            else:
                error = None
            spans = None
            if recorder is not None:
                self._executor.attach_stage_recorder(None)
                spans = recorder.drain()
            self._on_tile_result(tile, tile_id, dispatched_at, results, error, spans)
            events = self._executor.consume_fusion_events()
            if events:
                self._stats.record_fusion_events(events)

    @staticmethod
    def _trace_status(error: Exception) -> str:
        """Map a failure to a trace status: shutdown aborts, else error."""
        if isinstance(error, ServerClosed):
            return "aborted"
        return "error"

    def _close_request_trace(
        self,
        pending: PendingItem[_Request],
        dispatched_at: float,
        finished_at: float,
        tile_id: int,
        spans: list[dict] | None,
        status: str,
    ) -> None:
        """Attach the execution spans to one request's trace and close it.

        Deferred traces (the gateway's) get their spans here but are
        finished by their owner after the response is serialized;
        server-owned traces finish immediately.
        """
        handle = pending.item.trace
        if handle is None:
            return
        handle.add_span(
            "queue_wait", pending.enqueued_at, dispatched_at, tile=tile_id
        )
        handle.add_span(
            "execute", dispatched_at, finished_at, status=status, tile=tile_id
        )
        for span in spans or ():
            meta = span.get("meta") or {}
            handle.add_span(
                span["name"],
                span["start_s"],
                span["end_s"],
                status=span.get("status", "ok"),
                parent="execute",
                **meta,
            )
        if not handle.deferred:
            handle.finish(status)

    def _on_tile_result(
        self,
        tile: list[PendingItem[_Request]],
        tile_id: int,
        dispatched_at: float,
        results: list[tuple[np.ndarray | None, Exception | None]] | None,
        error: Exception | None,
        spans: list[dict] | None,
    ) -> None:
        """Resolve a tile: ``results`` holds per-request outcomes (errors are
        isolated per request), ``error`` fails the whole tile; ``spans`` are
        the tile's drained :class:`StageRecorder` stage timings."""
        now = time.monotonic()
        if error is not None:
            status = self._trace_status(error)
            for pending in tile:
                self._close_request_trace(
                    pending, dispatched_at, now, tile_id, spans, status
                )
                self._fail(pending.item, error)
            return
        assert results is not None and len(results) == len(tile)
        for pending, (probabilities, request_error) in zip(tile, results):
            if request_error is not None:
                self._close_request_trace(
                    pending,
                    dispatched_at,
                    now,
                    tile_id,
                    spans,
                    self._trace_status(request_error),
                )
                self._fail(pending.item, request_error)
                continue
            self._unpin(pending.item.version)
            self._close_request_trace(
                pending, dispatched_at, now, tile_id, spans, "ok"
            )
            if not pending.item.future.set_running_or_notify_cancel():
                continue  # client cancelled while queued
            pending.item.future.set_result(
                PredictiveResult(sample_probabilities=probabilities)
            )
            self._stats.record_completion(
                now - pending.enqueued_at,
                rows=pending.rows,
                version=pending.item.version,
            )

    def _fail(self, request: _Request, error: Exception) -> None:
        self._unpin(request.version)
        if request.future.set_running_or_notify_cancel():
            request.future.set_exception(error)
        self._stats.record_failure(version=request.version)
        handle = request.trace
        if handle is not None and not handle.deferred:
            handle.finish(self._trace_status(error))
