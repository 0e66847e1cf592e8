"""Unit tests for the serving micro-batcher's flush, drain and backpressure."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serve import MicroBatcher, QueueClosed, QueueFull


def _items(tile):
    assert tile is not None
    return [pending.item for pending in tile]


class TestFlushPolicy:
    def test_flushes_immediately_at_row_budget(self):
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=10_000.0)
        for index in range(4):
            batcher.submit(f"r{index}", rows=16)
        start = time.monotonic()
        tile = batcher.next_tile()
        assert time.monotonic() - start < 1.0  # no timeout wait
        assert _items(tile) == ["r0", "r1", "r2", "r3"]
        assert batcher.pending_requests == 0

    def test_flushes_partial_tile_on_timeout(self):
        batcher = MicroBatcher(max_batch_rows=1024, max_wait_ms=30.0)
        batcher.submit("lonely", rows=16)
        start = time.monotonic()
        tile = batcher.next_tile()
        elapsed = time.monotonic() - start
        assert _items(tile) == ["lonely"]
        assert 0.02 <= elapsed < 5.0  # waited out max_wait_ms, not forever

    def test_oversized_request_becomes_singleton_tile(self):
        batcher = MicroBatcher(max_batch_rows=32, max_wait_ms=0.0, max_pending_rows=512)
        batcher.submit("huge", rows=100)
        batcher.submit("small", rows=8)
        assert _items(batcher.next_tile()) == ["huge"]
        assert _items(batcher.next_tile()) == ["small"]

    def test_tile_is_fifo_prefix_never_splits_requests(self):
        # 32 + 48 > 64: the second request must NOT be split and must not
        # jump the queue, so the first tile carries only the first request.
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=0.0)
        batcher.submit("a", rows=32)
        batcher.submit("b", rows=48)
        assert _items(batcher.next_tile()) == ["a"]
        assert _items(batcher.next_tile()) == ["b"]

    def test_zero_wait_flushes_any_pending_request(self):
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=0.0)
        batcher.submit("now", rows=1)
        assert _items(batcher.next_tile()) == ["now"]


def _consume_in_background(batcher: MicroBatcher) -> tuple[threading.Thread, list]:
    """Start a dispatcher-like thread blocked in ``next_tile``."""
    tiles: list = []
    thread = threading.Thread(target=lambda: tiles.append(batcher.next_tile()))
    thread.start()
    return thread, tiles


class TestIdleFlush:
    """The ``idle`` cause: flush once no announced request is still arriving.

    Every batcher waits ``max_wait_ms=10_000``, so a flush that fell back on
    the deadline would show up as a ten-second wait.
    """

    def test_announced_request_flushes_at_once_when_submitted(self):
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=10_000.0)
        batcher.submit("a", rows=4, _arrival=batcher._announce())
        start = time.monotonic()
        tile = batcher.next_tile()
        assert time.monotonic() - start < 1.0
        assert _items(tile) == ["a"]
        assert batcher.flush_causes() == {"rows": 0, "idle": 1, "timeout": 0, "close": 0}

    def test_refused_submit_settles_its_announcement(self):
        batcher = MicroBatcher(
            max_batch_rows=64, max_wait_ms=10_000.0, max_pending_rows=64
        )
        batcher.submit("a", rows=40, _arrival=batcher._announce())
        refused = batcher._announce()
        with pytest.raises(QueueFull):
            batcher.submit("b", rows=40, block=False, _arrival=refused)
        assert refused.settled
        start = time.monotonic()
        assert _items(batcher.next_tile()) == ["a"]
        assert time.monotonic() - start < 1.0
        assert batcher.flush_causes()["idle"] == 1

    def test_outstanding_announcement_holds_the_tile_until_submitted(self):
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=10_000.0)
        first, second = batcher._announce(), batcher._announce()
        batcher.submit("a", rows=4, _arrival=first)
        thread, tiles = _consume_in_background(batcher)
        thread.join(timeout=0.2)
        assert thread.is_alive(), "flushed while a request was still arriving"
        batcher.submit("b", rows=4, _arrival=second)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert _items(tiles[0]) == ["a", "b"]
        assert batcher.flush_causes()["idle"] == 1

    def test_withdrawn_announcement_wakes_the_waiting_dispatcher(self):
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=10_000.0)
        first, second = batcher._announce(), batcher._announce()
        batcher.submit("a", rows=4, _arrival=first)
        thread, tiles = _consume_in_background(batcher)
        thread.join(timeout=0.2)
        assert thread.is_alive(), "flushed while a request was still arriving"
        batcher._withdraw(second)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert _items(tiles[0]) == ["a"]
        # settling twice (a withdraw after the submit, or a second withdraw)
        # changes nothing: the next announced request still flushes at once
        batcher._withdraw(first)
        batcher._withdraw(second)
        batcher.submit("b", rows=4, _arrival=batcher._announce())
        start = time.monotonic()
        assert _items(batcher.next_tile()) == ["b"]
        assert time.monotonic() - start < 1.0
        assert batcher.flush_causes()["idle"] == 2

    def test_unannounced_burst_still_fills_one_tile(self):
        """The in-process burst shape: no front end ever announced, so 16
        four-row submits against a waiting dispatcher form one full tile."""
        batcher = MicroBatcher(max_batch_rows=64, max_wait_ms=10_000.0)
        batcher.submit(0, rows=4)
        thread, tiles = _consume_in_background(batcher)
        thread.join(timeout=0.2)
        assert thread.is_alive(), "a partial tile flushed before the deadline"
        for index in range(1, 16):
            batcher.submit(index, rows=4)
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert _items(tiles[0]) == list(range(16))
        assert batcher.flush_causes() == {"rows": 1, "idle": 0, "timeout": 0, "close": 0}


class TestShutdown:
    def test_empty_queue_shutdown_returns_none(self):
        batcher = MicroBatcher()
        batcher.close()
        assert batcher.next_tile() is None
        # idempotent: the dispatcher may ask again
        assert batcher.next_tile() is None

    def test_close_wakes_blocked_consumer(self):
        batcher = MicroBatcher()
        result = {}

        def consume():
            result["tile"] = batcher.next_tile()

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        batcher.close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert result["tile"] is None

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher()
        batcher.close()
        with pytest.raises(QueueClosed):
            batcher.submit("late", rows=1)

    def test_close_drains_pending_requests_first(self):
        batcher = MicroBatcher(max_batch_rows=16, max_wait_ms=10_000.0)
        batcher.submit("a", rows=8)
        batcher.submit("b", rows=8)
        batcher.submit("c", rows=8)
        batcher.close()
        drained = []
        while (tile := batcher.next_tile()) is not None:
            drained.extend(_items(tile))
        assert drained == ["a", "b", "c"]

    def test_cancel_pending_empties_the_queue(self):
        batcher = MicroBatcher(max_wait_ms=10_000.0)
        batcher.submit("a", rows=4)
        batcher.submit("b", rows=4)
        cancelled = batcher.cancel_pending()
        assert [pending.item for pending in cancelled] == ["a", "b"]
        assert batcher.pending_rows == 0


class TestBackpressure:
    def test_nonblocking_submit_raises_when_full(self):
        batcher = MicroBatcher(max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=32)
        batcher.submit("a", rows=32)
        with pytest.raises(QueueFull):
            batcher.submit("b", rows=1, block=False)

    def test_timed_submit_raises_after_timeout(self):
        batcher = MicroBatcher(max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=16)
        batcher.submit("a", rows=16)
        with pytest.raises(QueueFull):
            batcher.submit("b", rows=16, timeout=0.05)

    def test_blocked_submit_released_when_consumer_drains(self):
        batcher = MicroBatcher(max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=16)
        batcher.submit("a", rows=16)
        submitted = threading.Event()

        def blocked_submit():
            batcher.submit("b", rows=16)  # blocks until space frees up
            submitted.set()

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        time.sleep(0.05)
        assert not submitted.is_set()
        assert _items(batcher.next_tile()) == ["a"]
        assert submitted.wait(timeout=5.0)
        thread.join(timeout=5.0)
        assert _items(batcher.next_tile()) == ["b"]

    def test_request_arriving_while_consumer_waits_joins_promptly(self):
        batcher = MicroBatcher(max_batch_rows=32, max_wait_ms=500.0)
        tiles = []

        def consume():
            tiles.append(batcher.next_tile())

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        # two requests filling the row budget flush without waiting 500 ms
        start = time.monotonic()
        batcher.submit("a", rows=16)
        batcher.submit("b", rows=16)
        thread.join(timeout=5.0)
        assert time.monotonic() - start < 0.45
        assert _items(tiles[0]) == ["a", "b"]


class TestValidation:
    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_rows=0)
        with pytest.raises(ValueError):
            MicroBatcher(max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(max_batch_rows=64, max_pending_rows=32)

    def test_rejects_empty_request(self):
        batcher = MicroBatcher()
        with pytest.raises(ValueError):
            batcher.submit("empty", rows=0)


class TestPriorityWaitingRoom:
    def test_blocked_waiters_admitted_in_priority_order(self):
        batcher = MicroBatcher(max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=16)
        batcher.submit("filler", rows=16)
        started = []
        admitted = []

        def blocked_submit(name, priority):
            started.append(name)
            batcher.submit(name, rows=16, priority=priority)
            admitted.append(name)

        low = threading.Thread(target=blocked_submit, args=("low", 0))
        low.start()
        time.sleep(0.05)  # ensure "low" is waiting before "high" arrives
        high = threading.Thread(target=blocked_submit, args=("high", 5))
        high.start()
        time.sleep(0.05)
        assert batcher.waiting_requests == 2
        assert _items(batcher.next_tile()) == ["filler"]
        # the freed budget goes to the high-priority waiter despite arriving
        # second; draining again releases the low-priority one
        assert _items(batcher.next_tile()) == ["high"]
        assert _items(batcher.next_tile()) == ["low"]
        low.join(timeout=5.0)
        high.join(timeout=5.0)
        assert admitted == ["high", "low"]

    def test_higher_priority_arrival_displaces_lowest_waiter(self):
        batcher = MicroBatcher(
            max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=16, max_waiting=1
        )
        batcher.submit("filler", rows=16)
        errors = []

        def low_submit():
            try:
                batcher.submit("low", rows=16, priority=0)
            except QueueFull as exc:
                errors.append(exc)

        low = threading.Thread(target=low_submit)
        low.start()
        time.sleep(0.05)
        assert batcher.waiting_requests == 1

        def high_submit():
            batcher.submit("high", rows=16, priority=5)

        high = threading.Thread(target=high_submit)
        high.start()
        low.join(timeout=5.0)  # displaced immediately, before any drain
        assert len(errors) == 1
        assert errors[0].reason == "displaced"
        assert errors[0].pending_rows == 16
        assert _items(batcher.next_tile()) == ["filler"]
        high.join(timeout=5.0)
        assert _items(batcher.next_tile()) == ["high"]

    def test_full_waiting_room_refuses_equal_priority_arrival(self):
        batcher = MicroBatcher(
            max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=16, max_waiting=1
        )
        batcher.submit("filler", rows=16)
        waiter = threading.Thread(target=lambda: batcher.submit("waiting", rows=16))
        waiter.start()
        time.sleep(0.05)
        # same priority cannot displace: the newcomer is refused instead
        with pytest.raises(QueueFull) as info:
            batcher.submit("refused", rows=16, priority=0)
        assert info.value.reason == "waiting_room_full"
        assert _items(batcher.next_tile()) == ["filler"]
        waiter.join(timeout=5.0)
        assert _items(batcher.next_tile()) == ["waiting"]

    def test_queue_full_reasons_carry_pending_rows(self):
        batcher = MicroBatcher(max_batch_rows=16, max_wait_ms=0.0, max_pending_rows=32)
        batcher.submit("a", rows=32)
        with pytest.raises(QueueFull) as nonblocking:
            batcher.submit("b", rows=1, block=False)
        assert nonblocking.value.reason == "capacity"
        assert nonblocking.value.pending_rows == 32
        with pytest.raises(QueueFull) as timed:
            batcher.submit("c", rows=1, timeout=0.05)
        assert timed.value.reason == "timeout"
        assert timed.value.pending_rows == 32

    def test_fast_path_defers_to_waiting_higher_priority(self):
        batcher = MicroBatcher(max_batch_rows=32, max_wait_ms=0.0, max_pending_rows=32)
        batcher.submit("filler", rows=16)
        # a priority-5 request of 32 rows does not fit next to the filler
        waiter = threading.Thread(
            target=lambda: batcher.submit("high", rows=32, priority=5)
        )
        waiter.start()
        time.sleep(0.05)
        # 16 rows of budget remain, but a priority-5 waiter is owed the
        # space first: a non-blocking priority-0 submit must not jump it
        with pytest.raises(QueueFull):
            batcher.submit("late-low", rows=16, block=False)
        assert _items(batcher.next_tile()) == ["filler"]
        waiter.join(timeout=5.0)
        assert _items(batcher.next_tile()) == ["high"]
