"""Edge-case tests for the serving telemetry accumulator.

Covers the cases the serving tests only brush past: an empty latency
distribution (no completions yet), the lifetime fixed-bucket histogram the
percentiles now derive from (slow outliers must stay visible in the tail
after any amount of fast traffic -- exactly what the old bounded deque
forgot), and the per-model-version request counters added with the
versioned serving stack.
"""

from __future__ import annotations

from repro.serve import ServerStats


class _FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def test_empty_window_percentiles_are_none():
    stats = ServerStats(clock=_FakeClock())
    snapshot = stats.snapshot()
    assert snapshot.latency_p50_ms is None
    assert snapshot.latency_p99_ms is None
    assert snapshot.latency_mean_ms is None
    assert snapshot.requests_completed == 0
    assert snapshot.requests_failed == 0
    assert snapshot.throughput_rps == 0.0
    assert snapshot.occupancy_histogram == {}
    assert snapshot.mean_batch_occupancy is None
    assert snapshot.per_version == {}


def test_failures_only_still_report_empty_window():
    stats = ServerStats(clock=_FakeClock())
    stats.record_failure()
    snapshot = stats.snapshot()
    assert snapshot.requests_failed == 1
    assert snapshot.latency_p50_ms is None and snapshot.latency_p99_ms is None


def test_lifetime_histogram_keeps_slow_outliers_in_the_tail():
    clock = _FakeClock()
    stats = ServerStats(clock=clock)
    # 3 old slow requests, then 4 fast ones.  The old 4-deep deque window
    # would have forgotten the slow ones entirely and reported p99 = 10ms;
    # the lifetime histogram keeps them in the tail.
    for latency in (1.0, 1.0, 1.0, 0.010, 0.010, 0.010, 0.010):
        stats.record_completion(latency, rows=2)
    snapshot = stats.snapshot()
    assert snapshot.requests_completed == 7  # lifetime counter
    assert snapshot.rows_completed == 14
    assert snapshot.latency_p50_ms <= 25.0  # the fast majority
    assert snapshot.latency_p99_ms >= 500.0  # slow outliers still visible


def test_histogram_percentiles_are_bucket_accurate():
    stats = ServerStats(clock=_FakeClock())
    for _ in range(100):
        stats.record_completion(0.004, rows=1)  # 4 ms -> the (2.5, 5] bucket
    snapshot = stats.snapshot()
    for value in (
        snapshot.latency_p50_ms,
        snapshot.latency_p95_ms,
        snapshot.latency_p99_ms,
    ):
        assert 2.5 <= value <= 5.0
    hist = snapshot.latency_histogram_ms
    assert sum(hist["counts"]) == 100
    assert hist["max"] == 4.0
    assert snapshot.latency_mean_ms == 4.0


def test_percentile_above_the_last_bucket_reports_the_tracked_max():
    stats = ServerStats(clock=_FakeClock())
    stats.record_completion(60.0, rows=1)  # 60 s >> the 10 s top bucket
    assert stats.snapshot().latency_p99_ms == 60000.0


def test_drain_window_holds_at_most_its_entry_bound():
    clock = _FakeClock()
    stats = ServerStats(clock=clock)
    bound = ServerStats.DRAIN_WINDOW_ENTRIES
    for _ in range(bound + 10):
        stats.record_completion(0.010, rows=1)
    clock.now += 1.0
    # the oldest ten completions fell out of the window, not out of the totals
    assert stats.snapshot().rows_completed == bound + 10
    assert stats.drain_rate_rows_per_s() == bound / 1.0


def test_uptime_and_throughput_use_the_injected_clock():
    clock = _FakeClock()
    stats = ServerStats(clock=clock)
    clock.now += 5.0
    stats.record_completion(0.010, rows=4)
    stats.record_completion(0.010, rows=4)
    snapshot = stats.snapshot()
    assert snapshot.uptime_s == 5.0
    assert snapshot.throughput_rps == 2 / 5.0
    assert snapshot.throughput_rows_per_s == 8 / 5.0
    # reset_clock restarts the uptime window
    stats.reset_clock()
    clock.now += 1.0
    assert stats.snapshot().uptime_s == 1.0


def test_per_version_counters_track_completions_and_failures():
    stats = ServerStats(clock=_FakeClock())
    stats.record_completion(0.010, rows=4, version="v1")
    stats.record_completion(0.020, rows=2, version="v1")
    stats.record_completion(0.030, rows=8, version="v2")
    stats.record_failure(version="v2")
    snapshot = stats.snapshot()
    assert snapshot.per_version == {
        "v1": {"completed": 2, "failed": 0, "rows": 6},
        "v2": {"completed": 1, "failed": 1, "rows": 8},
    }
    # aggregate counters include the per-version traffic
    assert snapshot.requests_completed == 3
    assert snapshot.requests_failed == 1


def test_untagged_requests_do_not_create_version_buckets():
    stats = ServerStats(clock=_FakeClock())
    stats.record_completion(0.010, rows=1)
    stats.record_failure()
    assert stats.snapshot().per_version == {}


def test_snapshot_per_version_is_a_frozen_copy():
    stats = ServerStats(clock=_FakeClock())
    stats.record_completion(0.010, rows=1, version="v1")
    snapshot = stats.snapshot()
    snapshot.per_version["v1"]["completed"] = 999
    assert stats.snapshot().per_version["v1"]["completed"] == 1


def test_fusion_counters_aggregate_events(monkeypatch):
    from repro.serve.executor import FUSION_EVENT_KEYS

    monkeypatch.setenv("REPRO_FUSED", "auto")
    stats = ServerStats(clock=_FakeClock())
    snapshot = stats.snapshot()
    assert snapshot.fusion["mode"] == "auto"
    assert all(snapshot.fusion[key] == 0 for key in FUSION_EVENT_KEYS)
    # two drained executor payloads (e.g. from two workers) fold together
    stats.record_fusion_events({"fused_tiles": 1, "fused_requests": 3})
    stats.record_fusion_events({"fused_tiles": 2, "fallback_probe": 4})
    snapshot = stats.snapshot()
    assert snapshot.fusion["fused_tiles"] == 3
    assert snapshot.fusion["fused_requests"] == 3
    assert snapshot.fusion["fallback_probe"] == 4
    assert snapshot.fusion["fallback_disabled"] == 0


def test_fusion_mode_tracks_environment(monkeypatch):
    stats = ServerStats(clock=_FakeClock())
    monkeypatch.setenv("REPRO_FUSED", "0")
    assert stats.snapshot().fusion["mode"] == "off"
    monkeypatch.setenv("REPRO_FUSED", "1")  # the retired forcing mode
    assert stats.snapshot().fusion["mode"] == "auto"


def test_fusion_counters_tolerate_unknown_keys():
    # executor and stats schemas may evolve independently across versions
    stats = ServerStats(clock=_FakeClock())
    stats.record_fusion_events({"some_future_counter": 2})
    assert stats.snapshot().fusion["some_future_counter"] == 2


def test_drain_rate_warms_up_and_decays_with_the_window():
    clock = _FakeClock()
    stats = ServerStats(clock=clock)
    assert stats.drain_rate_rows_per_s() is None  # cold
    stats.record_completion(0.010, rows=10)
    clock.now += 1.0
    stats.record_completion(0.010, rows=10)
    clock.now += 1.0
    # 20 rows over the 2 s since the oldest in-window completion
    assert stats.drain_rate_rows_per_s() == 10.0
    # a stall halves the measured rate rather than freezing it
    clock.now += 2.0
    assert stats.drain_rate_rows_per_s() == 5.0
    # past the window every completion ages out: cold again
    clock.now += ServerStats.DRAIN_WINDOW_S
    assert stats.drain_rate_rows_per_s() is None


def test_snapshot_reports_drain_rate():
    clock = _FakeClock()
    stats = ServerStats(clock=clock)
    assert stats.snapshot().drain_rate_rows_per_s is None
    stats.record_completion(0.010, rows=6)
    clock.now += 2.0
    assert stats.snapshot().drain_rate_rows_per_s == 3.0


def test_coalescing_counters_track_multi_source_tiles():
    stats = ServerStats(clock=_FakeClock())
    stats.record_tile(n_requests=1, rows=4, sources=1)
    stats.record_tile(n_requests=3, rows=12, sources=2)
    stats.record_tile(n_requests=4, rows=16, sources=4)
    stats.record_tile(n_requests=2, rows=8)  # untagged: not counted
    snapshot = stats.snapshot()
    assert snapshot.coalescing == {
        "tiles": 3,
        "multi_source_tiles": 2,
        "max_sources": 4,
        "mean_sources": (1 + 2 + 4) / 3,
    }
    assert snapshot.tiles_executed == 4  # occupancy counters see every tile


def test_coalescing_block_zeroed_until_sources_are_tagged():
    stats = ServerStats(clock=_FakeClock())
    stats.record_tile(n_requests=2, rows=8)
    assert stats.snapshot().coalescing == {
        "tiles": 0,
        "multi_source_tiles": 0,
        "max_sources": 0,
        "mean_sources": None,
    }
