"""Serving telemetry: throughput, latency percentiles, batch occupancy.

The serving front-end is a throughput machine, so the numbers an operator
actually tunes against live here: aggregate requests/rows per second, the
end-to-end latency distribution (p50/p95/p99 derived from a fixed-bucket
lifetime histogram), and the batch-occupancy histogram that shows whether
the ``max_batch_rows`` / ``max_wait_ms`` flush policy is actually filling
tiles.

Latency percentiles come from :class:`repro.obs.metrics.Histogram`, not a
sliding sample window: a bounded deque forgets slow requests as soon as
enough fast ones arrive, which under load systematically *understates* the
tail.  The one deque (``_recent_rows``) feeds ``drain_rate_rows_per_s``,
where recency is the point.

The collector is a small lock-guarded accumulator (it is touched from client
threads and the dispatcher thread);
:meth:`ServerStats.snapshot` freezes a consistent view into an immutable
:class:`StatsSnapshot`.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass, field

from ..core import backend as kernel_backend
from ..core import stability
from ..obs.metrics import DEFAULT_LATENCY_BUCKETS_MS, Histogram
from .executor import FUSION_EVENT_KEYS

__all__ = ["ServerStats", "StatsSnapshot"]


@dataclass(frozen=True)
class StatsSnapshot:
    """An immutable, self-consistent view of a server's counters."""

    uptime_s: float
    requests_completed: int
    requests_failed: int
    rows_completed: int
    tiles_executed: int
    throughput_rps: float
    """Completed requests per second of server uptime."""
    throughput_rows_per_s: float
    """Completed example rows per second of server uptime."""
    latency_p50_ms: float | None
    latency_p95_ms: float | None
    latency_p99_ms: float | None
    latency_mean_ms: float | None
    latency_histogram_ms: dict = field(default_factory=dict)
    """The lifetime latency histogram: ``{"bounds", "counts", "sum",
    "count", "max"}`` (counts include a trailing overflow bucket)."""
    occupancy_histogram: dict[int, int] = field(default_factory=dict)
    """``{requests-per-tile: tile count}`` over the server's lifetime."""
    mean_batch_occupancy: float | None = None
    """Average number of pooled requests per executed tile."""
    mean_rows_per_tile: float | None = None
    per_version: dict[str, dict[str, int]] = field(default_factory=dict)
    """Per-model-version request counters:
    ``{version: {"completed", "failed", "rows"}}``.  Untagged requests (the
    single-model server surface) are not counted here."""
    kernel_backends: dict[str, dict] = field(default_factory=dict)
    """Kernel-dispatch telemetry from :mod:`repro.core.backend`:
    ``{kernel: {"selection": backend-or-"auto",
    "backends": {backend: {"calls", "rows"}}}}``."""
    fusion: dict = field(default_factory=dict)
    """Fused-tile telemetry: ``{"mode": REPRO_FUSED resolution,
    "fused_tiles", "fallback_tiles", ...}`` (every
    :data:`~repro.serve.executor.FUSION_EVENT_KEYS` counter).  Fallbacks are
    never silent -- a disabled/failed stability verdict shows up here."""
    drain_rate_rows_per_s: float | None = None
    """Recent serving drain rate (completed rows per second over the last
    few seconds of completions); the gateway's ``Retry-After`` estimator."""
    coalescing: dict = field(default_factory=dict)
    """Cross-connection pooling telemetry: of the tiles whose requests carry
    a connection ``source`` tag, how many pooled requests from *distinct*
    sources (``multi_source_tiles``), plus the max/mean distinct sources per
    tile.  Proof that separate sockets share tiles within a flush window."""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p50 = f"{self.latency_p50_ms:.2f}" if self.latency_p50_ms is not None else "-"
        p99 = f"{self.latency_p99_ms:.2f}" if self.latency_p99_ms is not None else "-"
        occ = (
            f"{self.mean_batch_occupancy:.2f}"
            if self.mean_batch_occupancy is not None
            else "-"
        )
        return (
            f"{self.requests_completed} ok / {self.requests_failed} failed in "
            f"{self.uptime_s:.2f}s ({self.throughput_rps:.1f} req/s, "
            f"{self.throughput_rows_per_s:.1f} rows/s), latency p50 {p50} ms / "
            f"p99 {p99} ms, {self.tiles_executed} tiles "
            f"(mean occupancy {occ} req/tile)"
        )


class ServerStats:
    """Thread-safe accumulator behind :meth:`PredictionServer.stats`."""

    #: Horizon of the drain-rate window: completions older than this many
    #: seconds no longer influence the Retry-After estimate.
    DRAIN_WINDOW_S = 5.0
    #: Completions the drain-rate window holds at most; caps the O(n) sum in
    #: :meth:`_drain_rate_locked`.
    DRAIN_WINDOW_ENTRIES = 4096

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._started_at = clock()
        self._latency_ms = Histogram(DEFAULT_LATENCY_BUCKETS_MS)
        self._requests_completed = 0
        self._requests_failed = 0
        self._rows_completed = 0
        self._tiles_executed = 0
        self._tile_requests = 0
        self._tile_rows = 0
        self._occupancy: Counter[int] = Counter()
        self._per_version: dict[str, dict[str, int]] = {}
        self._fusion: dict[str, int] = dict.fromkeys(FUSION_EVENT_KEYS, 0)
        self._recent_rows: deque[tuple[float, int]] = deque(
            maxlen=self.DRAIN_WINDOW_ENTRIES
        )
        self._sourced_tiles = 0
        self._multi_source_tiles = 0
        self._source_total = 0
        self._max_sources = 0

    def reset_clock(self) -> None:
        """Restart the uptime window (called when the server starts)."""
        with self._lock:
            self._started_at = self._clock()

    def _version_counters_locked(self, version: str) -> dict[str, int]:
        counters = self._per_version.get(version)
        if counters is None:
            counters = {"completed": 0, "failed": 0, "rows": 0}
            self._per_version[version] = counters
        return counters

    def record_completion(
        self, latency_s: float, rows: int, version: str | None = None
    ) -> None:
        """One request finished successfully after ``latency_s`` seconds."""
        with self._lock:
            self._requests_completed += 1
            self._rows_completed += int(rows)
            self._latency_ms.observe(float(latency_s) * 1e3)
            self._recent_rows.append((self._clock(), int(rows)))
            if version is not None:
                counters = self._version_counters_locked(version)
                counters["completed"] += 1
                counters["rows"] += int(rows)

    def record_failure(self, version: str | None = None) -> None:
        """One request resolved with an error."""
        with self._lock:
            self._requests_failed += 1
            if version is not None:
                self._version_counters_locked(version)["failed"] += 1

    def record_fusion_events(self, events: dict[str, int]) -> None:
        """Fold one executor's drained fused-vs-fallback counters in.

        Called with :meth:`TileExecutor.consume_fusion_events` payloads from
        the dispatcher; unknown keys are kept, so executor and stats schemas
        may evolve independently.
        """
        with self._lock:
            for key, value in events.items():
                self._fusion[key] = self._fusion.get(key, 0) + int(value)

    def record_tile(
        self, n_requests: int, rows: int, sources: int | None = None
    ) -> None:
        """One tile was handed to an executor with ``n_requests`` pooled.

        ``sources`` counts the *distinct* connection sources pooled into the
        tile (when the submitters tagged their requests); a tile with
        ``sources >= 2`` is direct evidence of cross-connection coalescing.
        """
        with self._lock:
            self._tiles_executed += 1
            self._tile_requests += int(n_requests)
            self._tile_rows += int(rows)
            self._occupancy[int(n_requests)] += 1
            if sources is not None and sources > 0:
                self._sourced_tiles += 1
                self._source_total += int(sources)
                self._max_sources = max(self._max_sources, int(sources))
                if sources >= 2:
                    self._multi_source_tiles += 1

    def drain_rate_rows_per_s(self) -> float | None:
        """Completed rows/s over the recent window (``None`` until warm).

        Measured from the oldest in-window completion to *now*, so the rate
        decays as the server stalls rather than freezing at its last good
        value -- exactly the behaviour a ``Retry-After`` estimate needs.
        """
        with self._lock:
            return self._drain_rate_locked()

    def _drain_rate_locked(self) -> float | None:
        now = self._clock()
        horizon = now - self.DRAIN_WINDOW_S
        while self._recent_rows and self._recent_rows[0][0] < horizon:
            self._recent_rows.popleft()
        if not self._recent_rows:
            return None
        rows = sum(entry[1] for entry in self._recent_rows)
        span = max(now - self._recent_rows[0][0], 1e-3)
        return rows / span

    def snapshot(self) -> StatsSnapshot:
        """Freeze a consistent view of every counter."""
        with self._lock:
            uptime = max(self._clock() - self._started_at, 1e-9)
            tiles = self._tiles_executed
            completed = self._requests_completed
            return StatsSnapshot(
                uptime_s=uptime,
                requests_completed=completed,
                requests_failed=self._requests_failed,
                rows_completed=self._rows_completed,
                tiles_executed=tiles,
                throughput_rps=completed / uptime,
                throughput_rows_per_s=self._rows_completed / uptime,
                latency_p50_ms=self._latency_ms.percentile(50.0),
                latency_p95_ms=self._latency_ms.percentile(95.0),
                latency_p99_ms=self._latency_ms.percentile(99.0),
                latency_mean_ms=self._latency_ms.mean(),
                latency_histogram_ms=self._latency_ms.snapshot(),
                occupancy_histogram=dict(sorted(self._occupancy.items())),
                mean_batch_occupancy=(self._tile_requests / tiles) if tiles else None,
                mean_rows_per_tile=(self._tile_rows / tiles) if tiles else None,
                per_version={
                    version: dict(counters)
                    for version, counters in sorted(self._per_version.items())
                },
                kernel_backends=kernel_backend.stats_snapshot(),
                fusion={"mode": stability.fused_mode(), **self._fusion},
                drain_rate_rows_per_s=self._drain_rate_locked(),
                coalescing={
                    "tiles": self._sourced_tiles,
                    "multi_source_tiles": self._multi_source_tiles,
                    "max_sources": self._max_sources,
                    "mean_sources": (
                        self._source_total / self._sourced_tiles
                        if self._sourced_tiles
                        else None
                    ),
                },
            )
