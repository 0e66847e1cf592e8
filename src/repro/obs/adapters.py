"""Thin adapters publishing existing stats surfaces into a MetricsRegistry.

Pull-model: :func:`bind_serving_collectors` registers one collector that, at
scrape time, loads absolute totals from ``ServerStats.snapshot()``, the
``AdmissionController`` snapshots, the microbatcher flush counters, and the
kernel-backend dispatch counters.  The serving hot path never touches the
registry -- only the scrape does -- so ``/v1/metrics`` costs nothing between
scrapes.  :func:`bind_distrib_collectors` does the same for the distributed
training backend's elastic-pool and delta-cache gauges (its counters --
bytes shipped, resyncs, replans, pool events -- are pushed by the
coordinator itself, since they change at most once per step).
"""

from __future__ import annotations

from typing import Callable

from .metrics import DEFAULT_LATENCY_BUCKETS_MS, MetricsRegistry

__all__ = ["bind_serving_collectors", "bind_distrib_collectors"]


def bind_distrib_collectors(
    registry: MetricsRegistry, backend
) -> Callable[[], None]:
    """Register scrape-time gauges for a :class:`DistributedBackend`.

    Returns the collector so the backend can unregister it at close time.
    All reads are plain attribute lookups on the coordinator -- safe to
    scrape mid-step and free between scrapes.
    """

    workers = registry.gauge(
        "repro_distrib_pool_workers",
        "Worker processes currently alive in the elastic training pool.",
    )
    joins = registry.gauge(
        "repro_distrib_pool_pending_joins",
        "Join requests queued for the next step boundary.",
    )
    leaves = registry.gauge(
        "repro_distrib_pool_pending_leaves",
        "Leave requests queued for the next step boundary.",
    )
    mirror = registry.gauge(
        "repro_distrib_delta_mirror_entries",
        "Tensors tracked across the coordinator's per-worker delta mirrors.",
    )

    def collect() -> None:
        workers.set(backend.alive_workers)
        joins.set(backend.pending_joins)
        leaves.set(backend.pending_leaves)
        mirror.set(backend.delta_mirror_entries)

    registry.register_collector(collect)
    return collect


def bind_serving_collectors(
    registry: MetricsRegistry, gateway
) -> Callable[[], None]:
    """Register scrape-time collectors for a :class:`ServingGateway`.

    Returns the collector so the gateway can unregister it at close time
    (a collector scraping a closed server would raise).
    """

    requests = registry.counter(
        "repro_requests_total",
        "Requests finished by the prediction server.",
        ("outcome",),
    )
    version_requests = registry.counter(
        "repro_version_requests_total",
        "Completed requests per model version.",
        ("version",),
    )
    rows = registry.counter(
        "repro_rows_completed_total", "Input rows completed by the server."
    )
    tiles = registry.counter(
        "repro_tiles_executed_total", "Execution tiles dispatched."
    )
    latency = registry.histogram(
        "repro_request_latency_ms",
        "End-to-end request latency (submit to completion), milliseconds.",
        buckets=DEFAULT_LATENCY_BUCKETS_MS,
    )
    queue_rows = registry.gauge(
        "repro_queue_pending_rows", "Rows waiting in the microbatcher."
    )
    queue_waiting = registry.gauge(
        "repro_queue_waiting_requests",
        "Requests parked in the priority waiting room.",
    )
    drain = registry.gauge(
        "repro_drain_rate_rows_per_s",
        "Measured drain rate of the serving queue (rows/s; 0 while cold).",
    )
    flushes = registry.counter(
        "repro_tile_flushes_total",
        "Microbatcher tile flushes by cause.",
        ("cause",),
    )
    fusion = registry.counter(
        "repro_fusion_events_total",
        "Fused-tile execution events by kind.",
        ("kind",),
    )
    admission = registry.counter(
        "repro_admission_requests_total",
        "Admission controller decisions.",
        ("outcome",),
    )
    tenant_requests = registry.counter(
        "repro_tenant_requests_total",
        "Per-tenant admission outcomes.",
        ("tenant", "tier", "outcome"),
    )
    tenant_rows = registry.counter(
        "repro_tenant_rows_total",
        "Per-tenant admitted input rows.",
        ("tenant", "tier"),
    )
    kernel_calls = registry.counter(
        "repro_kernel_calls_total",
        "Kernel dispatch calls per (kernel, backend).",
        ("kernel", "backend"),
    )
    kernel_rows = registry.counter(
        "repro_kernel_rows_total",
        "Rows processed per (kernel, backend).",
        ("kernel", "backend"),
    )
    traces = registry.counter(
        "repro_traces_recorded_total", "Traces finished and retained."
    )
    traces_open = registry.gauge(
        "repro_traces_open", "Traces begun but not yet finished."
    )

    def collect() -> None:
        server = gateway.prediction_server
        snap = server.stats()
        requests.labels(outcome="completed").set_total(snap.requests_completed)
        requests.labels(outcome="failed").set_total(snap.requests_failed)
        for version, counters in snap.per_version.items():
            version_requests.labels(version=version).set_total(
                counters.get("completed", 0)
            )
        rows.set_total(snap.rows_completed)
        tiles.set_total(snap.tiles_executed)
        hist = snap.latency_histogram_ms
        if hist:
            latency.load(hist["counts"], hist["sum"], hist["count"], hist["max"])
        queue_rows.set(server.pending_rows)
        queue_waiting.set(server.waiting_requests)
        drain.set(server.drain_rate_rows_per_s() or 0.0)
        for cause, count in server.flush_causes().items():
            flushes.labels(cause=cause).set_total(count)
        for kind, count in snap.fusion.items():
            if isinstance(count, (int, float)):
                fusion.labels(kind=str(kind)).set_total(count)
        adm = gateway.admission.snapshot()
        admission.labels(outcome="admitted").set_total(adm["admitted"])
        admission.labels(outcome="shed_rate_limited").set_total(
            adm["shed_rate_limited"]
        )
        admission.labels(outcome="shed_capacity").set_total(adm["shed_capacity"])
        for tenant, info in gateway.admission.tenants_snapshot().items():
            tier = info["tier"]
            tenant_requests.labels(
                tenant=tenant, tier=tier, outcome="admitted"
            ).set_total(info["admitted"])
            tenant_requests.labels(
                tenant=tenant, tier=tier, outcome="shed"
            ).set_total(info["shed"])
            tenant_rows.labels(tenant=tenant, tier=tier).set_total(info["rows"])
        for kernel, info in snap.kernel_backends.items():
            for backend, counters in info.get("backends", {}).items():
                kernel_calls.labels(kernel=kernel, backend=backend).set_total(
                    counters["calls"]
                )
                kernel_rows.labels(kernel=kernel, backend=backend).set_total(
                    counters["rows"]
                )
        tracer = server.tracer
        traces.set_total(tracer.recorded_count)
        traces_open.set(tracer.open_count)

    registry.register_collector(collect)
    return collect
