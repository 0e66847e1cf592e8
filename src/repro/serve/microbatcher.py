"""Request pooling: the queue that turns single requests into ``(S, batch)`` tiles.

The batched Monte-Carlo engine (PR 2) amortises epsilon generation and layer
dispatch over everything that executes together, but a serving front-end
receives requests one at a time.  The :class:`MicroBatcher` closes that gap
with the classic inference-server flush policy:

* a tile is flushed as soon as the pending work reaches ``max_batch_rows``
  example rows (a full tile), or
* immediately on shutdown, so close() never strands requests, or
* as soon as no announced request is still arriving (``idle``): a front end
  such as the HTTP gateway announces every request it starts reading, so
  when none is outstanding, waiting longer only adds latency, or
* when the *oldest* pending request has waited ``max_wait_ms`` milliseconds
  (a partial tile -- latency beats occupancy once someone has waited long
  enough; this still bounds the wait for an announced request).

Requests are never split across tiles: a request larger than
``max_batch_rows`` simply becomes a tile of its own.  Backpressure is a row
budget (``max_pending_rows``): ``submit`` blocks (or raises
:class:`QueueFull` when non-blocking / timed out) until the dispatcher drains
the queue below it.

Blocked submitters form a small **priority queue** (the waiting room): when
the dispatcher frees row budget, the highest-``priority`` waiter is admitted
first (FIFO within a priority level), so under sustained overload
low-priority traffic sheds before high-priority traffic.  The waiting room
itself may be bounded (``max_waiting``); once full, a newly arriving request
either displaces the lowest-priority waiter (if it outranks it -- the
displaced waiter's ``submit`` raises :class:`QueueFull`) or is refused
immediately.  Every :class:`QueueFull` carries a machine-readable
``reason`` so callers (the HTTP gateway) can distinguish sheds from
timeouts.

The batcher owns no thread; the server's dispatcher loop calls
:meth:`next_tile`, which blocks on a condition variable until a flush
condition holds.  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Generic, TypeVar

__all__ = ["MicroBatcher", "QueueClosed", "QueueFull", "PendingItem"]

T = TypeVar("T")


class QueueClosed(RuntimeError):
    """Raised by ``submit`` after the batcher has been closed."""


class QueueFull(RuntimeError):
    """Raised by a non-blocking / timed-out / displaced ``submit``.

    ``reason`` is machine-readable: ``"capacity"`` (non-blocking submit with
    no row budget), ``"timeout"`` (bounded wait expired), ``"displaced"``
    (evicted from a full waiting room by a higher-priority request) or
    ``"waiting_room_full"`` (the bounded waiting room had no lower-priority
    waiter to displace).  ``pending_rows`` snapshots the queue depth at
    refusal time so callers can compute a retry hint.
    """

    def __init__(
        self, message: str, reason: str = "capacity", pending_rows: int = 0
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.pending_rows = pending_rows


@dataclass
class _Waiter:
    """One submitter blocked in the priority waiting room."""

    priority: int
    sequence: int
    rows: int
    displaced: bool = False

    def rank(self) -> tuple[int, int]:
        """Sort key: higher priority first, then arrival order."""
        return (-self.priority, self.sequence)


@dataclass
class _Arrival:
    """A front end's announcement of one request it has begun reading."""

    settled: bool = False


@dataclass
class PendingItem(Generic[T]):
    """One queued request together with its pooling metadata."""

    item: T
    rows: int
    enqueued_at: float
    sequence: int = field(default=0)


class MicroBatcher(Generic[T]):
    """Pool individual requests into tiles under a rows/wait flush policy."""

    def __init__(
        self,
        max_batch_rows: int = 64,
        max_wait_ms: float = 2.0,
        max_pending_rows: int = 1024,
        max_waiting: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_rows < 1:
            raise ValueError("max_batch_rows must be positive")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if max_pending_rows < max_batch_rows:
            raise ValueError(
                "max_pending_rows must be at least max_batch_rows "
                f"({max_pending_rows} < {max_batch_rows})"
            )
        if max_waiting is not None and max_waiting < 1:
            raise ValueError("max_waiting must be positive (or None: unbounded)")
        self._max_batch_rows = max_batch_rows
        self._max_wait_s = max_wait_ms / 1e3
        self._max_pending_rows = max_pending_rows
        self._max_waiting = max_waiting
        self._clock = clock
        self._lock = threading.Lock()
        self._can_flush = threading.Condition(self._lock)
        self._has_space = threading.Condition(self._lock)
        self._pending: list[PendingItem[T]] = []
        self._pending_rows = 0
        self._sequence = 0
        self._wait_sequence = 0
        self._waiters: list[_Waiter] = []
        self._closed = False
        # announced requests not yet submitted or withdrawn; the idle flush
        # arms with the first announcement, so in-process callers that never
        # announce keep filling tiles up to the deadline
        self._arrivals = 0
        self._armed = False
        # why tiles flushed: a rows-threshold flush means the pooling policy
        # is filling tiles; an idle flush means no companion was on the way;
        # a timeout flush means latency won; close flushes are the drain
        self._flush_causes = {"rows": 0, "idle": 0, "timeout": 0, "close": 0}

    # ------------------------------------------------------------------
    @property
    def max_batch_rows(self) -> int:
        """Row budget of one tile."""
        return self._max_batch_rows

    @property
    def pending_rows(self) -> int:
        """Example rows currently queued (snapshot)."""
        with self._lock:
            return self._pending_rows

    @property
    def pending_requests(self) -> int:
        """Requests currently queued (snapshot)."""
        with self._lock:
            return len(self._pending)

    @property
    def waiting_requests(self) -> int:
        """Submitters currently blocked in the waiting room (snapshot)."""
        with self._lock:
            return len(self._waiters)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        with self._lock:
            return self._closed

    def flush_causes(self) -> dict[str, int]:
        """Tile flush counters by cause: ``{"rows", "idle", "timeout", "close"}``."""
        with self._lock:
            return dict(self._flush_causes)

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def _announce(self) -> _Arrival:
        """Count a request that is still arriving; settle it exactly once."""
        with self._lock:
            self._arrivals += 1
            self._armed = True
        return _Arrival()

    def _withdraw(self, arrival: _Arrival) -> None:
        """Settle an announcement that will not be submitted (idempotent)."""
        with self._lock:
            self._settle_locked(arrival)

    def _settle_locked(self, arrival: _Arrival | None) -> None:
        if arrival is not None and not arrival.settled:
            arrival.settled = True
            self._arrivals -= 1
            self._can_flush.notify_all()

    def submit(
        self,
        item: T,
        rows: int,
        block: bool = True,
        timeout: float | None = None,
        priority: int = 0,
        _arrival: _Arrival | None = None,
    ) -> None:
        """Queue one request carrying ``rows`` example rows.

        Blocks while the row budget is exhausted (unless ``block=False`` or a
        ``timeout`` expires, which raise :class:`QueueFull`).  A request
        larger than the whole budget is admitted only into an empty queue --
        it could otherwise never be admitted at all.

        ``priority`` orders blocked submitters: when the dispatcher frees
        space, the highest-priority waiter is admitted first (FIFO within a
        level).  An arriving request never waits behind *lower*-priority
        waiters, and -- when the waiting room is bounded -- displaces the
        lowest-priority waiter instead of being refused, provided it outranks
        it.  ``_arrival`` (the front end's announcement) is settled either way.
        """
        if rows < 1:
            raise ValueError("a request must carry at least one row")
        deadline = None if timeout is None else self._clock() + timeout
        with self._lock:
            self._settle_locked(_arrival)
            if self._closed:
                raise QueueClosed("the micro-batcher is closed")
            # fast path: the budget fits and no equal-or-higher-priority
            # waiter is owed the space first
            if self._fits_locked(rows) and not any(
                waiter.priority >= priority for waiter in self._waiters
            ):
                self._enqueue_locked(item, rows)
                return
            if not block:
                raise QueueFull(
                    f"{self._pending_rows} rows pending, request of {rows} "
                    f"rows exceeds the budget of {self._max_pending_rows}",
                    reason="capacity",
                    pending_rows=self._pending_rows,
                )
            self._reserve_waiting_slot_locked(priority)
            waiter = _Waiter(
                priority=priority, sequence=self._wait_sequence, rows=rows
            )
            self._wait_sequence += 1
            self._waiters.append(waiter)
            try:
                while True:
                    if self._closed:
                        raise QueueClosed("the micro-batcher is closed")
                    if waiter.displaced:
                        raise QueueFull(
                            "shed from the waiting room by a higher-priority "
                            "request",
                            reason="displaced",
                            pending_rows=self._pending_rows,
                        )
                    if self._is_head_locked(waiter) and self._fits_locked(rows):
                        self._enqueue_locked(item, rows)
                        return
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - self._clock()
                        if remaining <= 0:
                            raise QueueFull(
                                f"timed out waiting for queue space ({rows} rows)",
                                reason="timeout",
                                pending_rows=self._pending_rows,
                            )
                    self._has_space.wait(timeout=remaining)
            finally:
                if waiter in self._waiters:
                    self._waiters.remove(waiter)
                # the departing waiter may have been the head: wake the rest
                # so the next-ranked waiter can re-check its turn
                self._has_space.notify_all()

    def _fits_locked(self, rows: int) -> bool:
        if self._pending_rows + rows <= self._max_pending_rows:
            return True
        return not self._pending and rows > self._max_pending_rows

    def _is_head_locked(self, waiter: _Waiter) -> bool:
        return min(self._waiters, key=_Waiter.rank) is waiter

    def _reserve_waiting_slot_locked(self, priority: int) -> None:
        """Enforce the waiting-room bound, displacing a lower-priority waiter."""
        if self._max_waiting is None or len(self._waiters) < self._max_waiting:
            return
        lowest = max(self._waiters, key=_Waiter.rank)
        if lowest.priority >= priority:
            raise QueueFull(
                f"waiting room is full ({len(self._waiters)} blocked requests) "
                "and no waiter has lower priority",
                reason="waiting_room_full",
                pending_rows=self._pending_rows,
            )
        lowest.displaced = True
        self._waiters.remove(lowest)
        self._has_space.notify_all()

    def _enqueue_locked(self, item: T, rows: int) -> None:
        self._pending.append(
            PendingItem(
                item=item,
                rows=rows,
                enqueued_at=self._clock(),
                sequence=self._sequence,
            )
        )
        self._sequence += 1
        self._pending_rows += rows
        self._can_flush.notify_all()

    def close(self) -> None:
        """Refuse new submissions; already-queued requests still drain."""
        with self._lock:
            self._closed = True
            self._can_flush.notify_all()
            self._has_space.notify_all()

    def cancel_pending(self) -> list[PendingItem[T]]:
        """Drop and return everything still queued (for an aborting shutdown)."""
        with self._lock:
            cancelled = self._pending
            self._pending = []
            self._pending_rows = 0
            self._has_space.notify_all()
            return cancelled

    # ------------------------------------------------------------------
    # consumer side (the dispatcher loop)
    # ------------------------------------------------------------------
    def next_tile(self) -> list[PendingItem[T]] | None:
        """Block until a flush condition holds; return one tile of requests.

        Returns ``None`` exactly when the batcher is closed *and* drained --
        the dispatcher's signal to exit.  A tile is a prefix of the arrival
        order whose rows fit ``max_batch_rows`` (always at least one request,
        so oversized requests form singleton tiles).
        """
        with self._lock:
            while True:
                if self._pending:
                    if self._pending_rows >= self._max_batch_rows:
                        self._flush_causes["rows"] += 1
                        return self._pop_tile_locked()
                    if self._closed:
                        self._flush_causes["close"] += 1
                        return self._pop_tile_locked()
                    if self._armed and not self._arrivals:
                        self._flush_causes["idle"] += 1
                        return self._pop_tile_locked()
                    now = self._clock()
                    oldest_deadline = self._pending[0].enqueued_at + self._max_wait_s
                    if now >= oldest_deadline:
                        self._flush_causes["timeout"] += 1
                        return self._pop_tile_locked()
                    # submits and settled announcements notify, so the rows
                    # and idle conditions are re-checked as they change; the
                    # deadline of the current oldest request bounds the sleep
                    self._can_flush.wait(timeout=oldest_deadline - now)
                elif self._closed:
                    return None
                else:
                    self._can_flush.wait()

    def _pop_tile_locked(self) -> list[PendingItem[T]]:
        tile: list[PendingItem[T]] = [self._pending[0]]
        rows = self._pending[0].rows
        index = 1
        while index < len(self._pending):
            candidate = self._pending[index]
            if rows + candidate.rows > self._max_batch_rows:
                break
            tile.append(candidate)
            rows += candidate.rows
            index += 1
        del self._pending[:index]
        self._pending_rows -= rows
        self._has_space.notify_all()
        return tile

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatcher(max_batch_rows={self._max_batch_rows}, "
            f"max_wait_ms={self._max_wait_s * 1e3:g}, "
            f"pending={len(self._pending)})"
        )


# typing helper: the server stores heterogeneous payloads
AnyPendingItem = PendingItem[Any]
