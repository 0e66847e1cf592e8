"""Shared worker-respawn machinery for the serving and training pools.

Both process pools (:class:`repro.serve.worker.WorkerPool` for inference
tiles, :class:`repro.distrib.coordinator.DistributedBackend` for training
shards) follow the same fault-tolerance discipline:

* a crashed worker process may be **replaced** a bounded number of times
  (``max_respawns`` across the pool's lifetime -- a model that kills every
  process it touches must fail loudly, not respawn forever);
* the work that was in flight on the dead worker is **re-queued** a bounded
  number of times (``max_task_retries`` per work item) before its callers
  are failed.

Re-execution is always safe in this codebase because both workloads are
deterministic functions of their payload: a serving tile's epsilons derive
from the request's seed, and a training shard's epsilons derive from the
canonical generator states shipped with the step -- never from worker-local
state.  Retrying therefore reproduces the exact bits the first attempt would
have produced.

Both worker loops also wait for work through :func:`next_task`, which makes
a worker exit once its pool's process is gone: a SIGKILLed parent runs no
``atexit`` handler, and a forked worker holds the write end of its own task
queue, so it would otherwise never see an EOF.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from queue import Empty

__all__ = ["RespawnPolicy", "RespawnBudget", "next_task"]

#: How often an idle worker checks that its parent still exists.
_ORPHAN_POLL_S = 1.0


def next_task(task_queue, result_queue, parent_pid: int):
    """Block for a worker's next task; ``None`` (shutdown) once orphaned.

    ``parent_pid`` is ``os.getppid()`` as the worker recorded it when it
    started (under every start method the process that goes away with the
    pool).  A queued task wakes the wait at once, so the poll delays
    nothing; it only bounds how long a worker outlives a parent that died
    without sending the shutdown sentinel.  An orphan's unread results must
    not keep it alive either, hence ``cancel_join_thread``.
    """
    while True:
        try:
            return task_queue.get(timeout=_ORPHAN_POLL_S)
        except Empty:
            if os.getppid() != parent_pid:
                result_queue.cancel_join_thread()
                return None


@dataclass(frozen=True)
class RespawnPolicy:
    """Bounds on crash recovery.

    ``max_respawns`` is the total number of replacement processes the pool
    may spawn over its lifetime; ``max_task_retries`` is how many times one
    work item may be re-queued after losing its worker before its callers
    see the failure.
    """

    max_respawns: int = 1
    max_task_retries: int = 1

    def __post_init__(self) -> None:
        if self.max_respawns < 0 or self.max_task_retries < 0:
            raise ValueError("respawn bounds must be non-negative")


class RespawnBudget:
    """Mutable consumption of a :class:`RespawnPolicy` by one pool instance."""

    def __init__(self, policy: RespawnPolicy) -> None:
        self.policy = policy
        self.respawns_used = 0
        self._task_retries: dict[object, int] = {}

    def try_respawn(self) -> bool:
        """Consume one respawn if any remain; ``True`` when granted."""
        if self.respawns_used >= self.policy.max_respawns:
            return False
        self.respawns_used += 1
        return True

    def try_retry(self, task_key: object) -> bool:
        """Consume one retry for ``task_key`` if any remain; ``True`` when granted."""
        used = self._task_retries.get(task_key, 0)
        if used >= self.policy.max_task_retries:
            return False
        self._task_retries[task_key] = used + 1
        return True

    def forget(self, task_key: object) -> None:
        """Drop the retry history of a completed work item."""
        self._task_retries.pop(task_key, None)
