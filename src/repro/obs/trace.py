"""Request tracing: span trees threaded from gateway admission to execution.

A :class:`Tracer` assigns each request an ID at admission and accumulates
spans as the request moves through admission -> microbatcher waiting room ->
tile assembly -> execution -> serialization.  The tile executor records
leaf stage spans (epsilon replay, forward) into a :class:`StageRecorder` on
the same monotonic clock, and the server attaches them under the request's
``execute`` span.

Finished traces land in a bounded ring buffer; a separate slowest-N exemplar
heap keeps the worst offenders alive past ring eviction so
``GET /v1/traces?slowest=N`` can answer "where did the tail go?" long after
the ring has churned.

Tracing never touches response bodies: span data rides side-channels (the
stage recorder, the ``X-Request-Id`` response *header*) and the predict
payload bytes are identical with tracing on, off, or sampled.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

from .metrics import obs_enabled

__all__ = ["StageRecorder", "TraceHandle", "Tracer"]


class TraceHandle:
    """Mutable accumulator for one request's spans.

    Span times are parent-process monotonic seconds; they are re-based to
    offsets relative to the trace start when the trace is finished, so the
    stored record is JSON-ready.  ``finish`` is idempotent: the first caller
    wins, which lets the server close non-deferred traces while the gateway
    (which sets ``deferred`` and adds the serialization span after the
    response is written) closes its own.
    """

    __slots__ = (
        "_finished",
        "_lock",
        "_spans",
        "_tracer",
        "deferred",
        "meta",
        "started_at",
        "trace_id",
    )

    def __init__(self, tracer: "Tracer", trace_id: str, started_at: float, meta: dict):
        self._tracer = tracer
        self.trace_id = trace_id
        self.started_at = started_at
        self.meta = meta
        self.deferred = False
        self._spans: List[dict] = []
        self._finished = False
        self._lock = threading.Lock()

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        status: str = "ok",
        parent: Optional[str] = None,
        **meta: object,
    ) -> None:
        span = {
            "name": name,
            "start_s": float(start_s),
            "end_s": float(end_s),
            "status": status,
            "parent": parent,
        }
        if meta:
            span["meta"] = meta
        with self._lock:
            if not self._finished:
                self._spans.append(span)

    @contextmanager
    def span(self, name: str, parent: Optional[str] = None, **meta: object) -> Iterator[None]:
        start = self._tracer._clock()
        try:
            yield
        finally:
            self.add_span(name, start, self._tracer._clock(), parent=parent, **meta)

    def annotate(self, **meta: object) -> None:
        with self._lock:
            self.meta.update(meta)

    def finish(self, status: str = "ok") -> None:
        with self._lock:
            if self._finished:
                return
            self._finished = True
            spans = self._spans
            self._spans = []
        self._tracer._record(self, status, spans)


class Tracer:
    """Assigns request IDs, samples, and retains finished traces."""

    def __init__(
        self,
        ring_size: int = 512,
        slowest_n: int = 16,
        sample_rate: float = 1.0,
        enabled: Optional[bool] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self._ring_size = ring_size
        self._slowest_n = max(0, slowest_n)
        self._sample_rate = sample_rate
        self._enabled = obs_enabled() if enabled is None else bool(enabled)
        self._clock = clock
        self._prefix = os.urandom(3).hex()
        self._counter = itertools.count(1)
        self._ring: "OrderedDict[str, dict]" = OrderedDict()
        # Min-heap of (duration_ms, sequence, record): survives ring eviction.
        self._slowest: List[tuple] = []
        self._open: Dict[str, TraceHandle] = {}
        self._recorded = 0
        # Deterministic counter-based sampling: fire when the accumulator
        # crosses 1 (no RNG, so sampled runs are reproducible).
        self._accumulator = 0.0
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def sample_rate(self) -> float:
        return self._sample_rate

    def begin(self, **meta: object) -> Optional[TraceHandle]:
        """Start a trace, or return None when disabled / sampled out."""

        if not self._enabled:
            return None
        with self._lock:
            self._accumulator += self._sample_rate
            if self._accumulator < 1.0:
                return None
            self._accumulator -= 1.0
            sequence = next(self._counter)
        trace_id = f"{self._prefix}{sequence:08x}"
        handle = TraceHandle(self, trace_id, self._clock(), dict(meta))
        with self._lock:
            self._open[trace_id] = handle
        return handle

    def _record(self, handle: TraceHandle, status: str, spans: List[dict]) -> None:
        end = self._clock()
        base = handle.started_at
        record = {
            "trace_id": handle.trace_id,
            "status": status,
            "duration_ms": (end - base) * 1e3,
            "meta": dict(handle.meta),
            "spans": [
                {
                    "name": span["name"],
                    "offset_ms": (span["start_s"] - base) * 1e3,
                    "duration_ms": (span["end_s"] - span["start_s"]) * 1e3,
                    "status": span["status"],
                    "parent": span["parent"],
                    **({"meta": span["meta"]} if "meta" in span else {}),
                }
                for span in spans
            ],
        }
        with self._lock:
            self._open.pop(handle.trace_id, None)
            self._ring[handle.trace_id] = record
            while len(self._ring) > self._ring_size:
                self._ring.popitem(last=False)
            self._recorded += 1
            if self._slowest_n:
                entry = (record["duration_ms"], self._recorded, record)
                if len(self._slowest) < self._slowest_n:
                    heapq.heappush(self._slowest, entry)
                elif entry[0] > self._slowest[0][0]:
                    heapq.heapreplace(self._slowest, entry)

    def get(self, trace_id: str) -> Optional[dict]:
        with self._lock:
            record = self._ring.get(trace_id)
            if record is None:
                for _, _, kept in self._slowest:
                    if kept["trace_id"] == trace_id:
                        record = kept
                        break
            return record

    def slowest(self, n: int = 8) -> List[dict]:
        with self._lock:
            entries = sorted(self._slowest, key=lambda e: e[0], reverse=True)
        return [record for _, _, record in entries[: max(0, n)]]

    def abort_open(self, status: str = "aborted") -> int:
        """Finish every still-open trace (shutdown path); returns the count."""

        with self._lock:
            handles = list(self._open.values())
        for handle in handles:
            handle.finish(status)
        return len(handles)

    @property
    def open_count(self) -> int:
        with self._lock:
            return len(self._open)

    @property
    def recorded_count(self) -> int:
        with self._lock:
            return self._recorded


class StageRecorder:
    """Lightweight span sink for tile execution.

    Records raw ``(name, start, end)`` stage timings on the monotonic clock;
    the server drains them after the tile and attaches them to each owning
    :class:`TraceHandle`.
    """

    __slots__ = ("_spans",)

    def __init__(self) -> None:
        self._spans: List[dict] = []

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        status: str = "ok",
        **meta: object,
    ) -> None:
        span = {
            "name": name,
            "start_s": float(start_s),
            "end_s": float(end_s),
            "status": status,
        }
        if meta:
            span["meta"] = meta
        self._spans.append(span)

    @contextmanager
    def stage(self, name: str, **meta: object) -> Iterator[None]:
        start = time.monotonic()
        try:
            yield
        finally:
            self.record(name, start, time.monotonic(), **meta)

    def drain(self) -> List[dict]:
        spans, self._spans = self._spans, []
        return spans
