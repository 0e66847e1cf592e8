"""Multiprocessing worker pool: shard tiles across model-replica processes.

The ``(S, batch)`` fold is embarrassingly parallel along both axes, so tiles
can execute anywhere a bit-identical replica lives.  Each worker process
rebuilds its replica from a picklable
:class:`~repro.models.zoo.ReplicaSpec` and owns a private
:class:`~repro.serve.executor.TileExecutor` -- its own cache of sampled-weight
sweeps, each built from its own ``StreamBank`` construction and its own frozen
replica.  Because every tile's weights derive from the *request's* sampling
seed and the pinned version's parameters (not from any worker-local state),
the union of the workers' outputs reproduces the single-process
trajectory bit for bit, for any worker count and any tile-to-worker
assignment.

Tiles are sharded round-robin onto per-worker task queues (rather than one
shared queue) so that every in-flight tile has a known owner: when a worker
dies, exactly its outstanding tiles are affected, and tiles queued to
healthy workers are unaffected.  A single collector thread drains the
shared result queue, watches worker liveness, and reports completions to
the server through a callback.

With a :class:`~repro.distrib.respawn.RespawnPolicy` the pool also
*recovers*: a crashed worker is replaced (bounded by the policy's respawn
budget) and its orphaned tiles are re-queued onto healthy workers (bounded
per tile) before anything is failed with :class:`WorkerCrashError`.
Re-execution is safe because a tile's weights derive from the request's
seed and pinned version, never from worker state -- a retried tile returns
byte-identical probabilities.  Without a policy (the default) a dead
worker's tiles fail fast, the pre-respawn behaviour.

Versioned serving: each worker owns a
:class:`~repro.serve.executor.MultiVersionExecutor` (one replica + sweep
cache per loaded model version); hot-swap control messages
(``load``/``invalidate``/``unload``) ride the same per-worker FIFO task
queues as tiles, so they order deterministically against dispatched work,
and the pool's replica *template* is updated first -- a respawned
replacement rebuilds the post-swap version set.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from queue import Empty
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..distrib.respawn import RespawnBudget, RespawnPolicy, next_task
from ..obs.trace import StageRecorder
from .executor import MultiVersionExecutor, SamplingConfig
from .registry import DEFAULT_VERSION
from .shm_cache import ShmAttachment, SweepDescriptor, attach_sweep

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..models.zoo import ReplicaSpec

__all__ = ["WorkerPool", "WorkerCrashError", "TileExecutionError"]

_LIVENESS_POLL_S = 0.05


class WorkerCrashError(RuntimeError):
    """A worker process died while (or before) executing the request's tile."""


class TileExecutionError(RuntimeError):
    """The worker survived but the tile raised; carries the worker traceback."""


def _worker_main(
    rank: int,
    replicas: "dict[str, ReplicaSpec]",
    max_cached_configs: int,
    task_queue,
    result_queue,
) -> None:
    """Worker process body: rebuild the replica set, then serve tiles forever.

    The task queue carries three kinds of messages in one FIFO stream: tiles
    (``("tile", tile_id, requests[, traced])``), version-control operations
    (``("load", version, replica)`` / ``("invalidate", version)`` /
    ``("unload", version)``), shared-sweep announcements
    (``("shm", descriptor)``), plus ``None`` as the shutdown sentinel (which
    :func:`~repro.distrib.respawn.next_task` also returns once the pool's
    process is gone, so a SIGKILLed server leaves no worker behind).  The
    shared ordering is what makes hot swap race-free per worker: a control
    message enqueued at deploy time is applied before any tile dispatched
    after the deploy, and after every tile dispatched before it.

    A ``shm`` descriptor attaches the parent's shared weight-sweep segment
    read-only and installs the views straight into the named version's
    sweep cache (after the schedule / ``n_samples`` check) -- the worker then
    replays the weights without building them, and all workers share one
    physical copy.  Attach failures are never fatal: the worker simply keeps
    materialising privately (bit-identical by construction).  Attachments
    are dropped whenever their version is invalidated or unloaded, together
    with the cache entries that view them, so a deploy/rollback can never
    leave a worker serving a stale mapping.
    """

    def _drop_attachments(store: dict, version: str) -> None:
        for key in [k for k in store if k[0] == version]:
            store.pop(key).release()

    parent_pid = os.getppid()
    try:
        executor = MultiVersionExecutor(
            replicas, max_cached_configs=max_cached_configs
        )
        attachments: dict[tuple, ShmAttachment] = {}
        # the ready handshake carries this process's monotonic clock so the
        # parent can reconcile worker span times onto its own clock; every
        # traced done message carries another sample, and the parent keeps
        # the running-minimum offset (each sample overshoots by exactly its
        # transit latency, so the minimum converges on the true offset)
        result_queue.put(("ready", rank, {"clock": time.monotonic()}))
    except BaseException:  # pragma: no cover - defensive startup reporting
        result_queue.put(("fatal", rank, traceback.format_exc()))
        return
    while True:
        task = next_task(task_queue, result_queue, parent_pid)
        if task is None:
            break
        kind = task[0]
        if kind == "tile":
            tile_id, requests = task[1], task[2]
            traced = bool(task[3]) if len(task) > 3 else False
            recorder = StageRecorder() if traced else None
            if recorder is not None:
                executor.attach_stage_recorder(recorder)
            try:
                outcomes = executor.execute(requests)
                # exceptions cross the process boundary as formatted tracebacks
                # (picklable, and the parent-side error message keeps the frames)
                payload = [
                    ("ok", probabilities)
                    if error is None
                    else ("err", "".join(traceback.format_exception(error)))
                    for probabilities, error in outcomes
                ]
                # the clock sample lets the parent refine its per-rank span
                # offset on every traced tile, not just the ready handshake
                trace_payload = (
                    {
                        "rank": rank,
                        "spans": recorder.drain(),
                        "clock": time.monotonic(),
                    }
                    if recorder is not None
                    else None
                )
                result_queue.put(
                    (
                        "done",
                        tile_id,
                        payload,
                        executor.consume_fusion_events(),
                        trace_payload,
                    )
                )
            except BaseException:
                result_queue.put(("error", tile_id, traceback.format_exc()))
            finally:
                if recorder is not None:
                    executor.attach_stage_recorder(None)
        elif kind == "load":
            _, version, replica = task
            try:
                executor.load(version, replica)
            except BaseException:
                # requests pinned to this version will fail per-request with
                # UnknownVersionError; surface the build failure for operators
                result_queue.put(("control_error", rank, traceback.format_exc()))
        elif kind == "invalidate":
            executor.invalidate(task[1])
            _drop_attachments(attachments, task[1])
        elif kind == "unload":
            executor.unload(task[1])
            _drop_attachments(attachments, task[1])
        elif kind == "shm":
            descriptor: SweepDescriptor = task[1]
            try:
                attachment = attach_sweep(descriptor)
                executor.install_sweep(
                    descriptor.version, descriptor.config, attachment.weights
                )
            except BaseException:
                # segment already invalidated, schedule mismatch, ...: the
                # private materialisation path still serves identical bytes
                result_queue.put(("control_error", rank, traceback.format_exc()))
            else:
                stale = attachments.pop(descriptor.key(), None)
                if stale is not None:
                    stale.release()
                attachments[descriptor.key()] = attachment
    for attachment in attachments.values():
        attachment.release()


@dataclass
class _Worker:
    rank: int
    process: multiprocessing.process.BaseProcess
    task_queue: object
    # tile_id -> (requests, traced), kept so a respawn-enabled pool can
    # re-queue exactly what a dead worker was holding
    outstanding: dict[int, tuple] = field(default_factory=dict)
    ready: bool = False


class WorkerPool:
    """Round-robin tile sharding over ``n_workers`` replica processes.

    Completion reporting is push-based: ``result_handler(tile_id, outcomes,
    error)`` is invoked from the collector thread with either a list of
    per-request ``(probabilities, error)`` outcomes or a tile-level
    exception -- exactly one of the two, exactly once per dispatched tile
    (worker death included).
    """

    def __init__(
        self,
        replicas: "ReplicaSpec | Mapping[str, ReplicaSpec]",
        n_workers: int,
        result_handler: Callable[
            [int, list[tuple[np.ndarray | None, Exception | None]] | None, Exception | None],
            None,
        ],
        max_cached_configs: int = 8,
        start_method: str | None = None,
        respawn: RespawnPolicy | None = None,
        fusion_handler: Callable[[dict], None] | None = None,
        trace_handler: Callable[[int, dict], None] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("a worker pool needs at least one worker")
        if start_method is None:
            # fork is substantially cheaper where available; the workers are
            # started before the server's service threads exist, which keeps
            # the classic fork-with-threads hazards out of the picture
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else available[0]
        self._ctx = multiprocessing.get_context(start_method)
        # a bare replica is the single-model surface: one default version,
        # requests may omit the version pin
        if isinstance(replicas, Mapping):
            self._replicas: dict[str, "ReplicaSpec"] = dict(replicas)
        else:
            self._replicas = {DEFAULT_VERSION: replicas}
        if not self._replicas:
            raise ValueError("a worker pool needs at least one replica version")
        self._n_workers = n_workers
        self._max_cached_configs = max_cached_configs
        self._result_handler = result_handler
        self._fusion_handler = fusion_handler
        # trace_handler(tile_id, {"rank", "spans"}) receives worker span
        # payloads with times already converted onto the parent's clock
        self._trace_handler = trace_handler
        # rank -> (parent monotonic - worker monotonic), captured from each
        # worker's ready handshake
        self._clock_offsets: dict[int, float] = {}
        # published shared-sweep descriptors, replayed to respawned workers
        self._sweeps: dict[tuple[str, SamplingConfig], SweepDescriptor] = {}
        # no policy: the pre-respawn semantics -- dead workers are not
        # replaced and their tiles fail immediately
        self._budget = RespawnBudget(
            respawn or RespawnPolicy(max_respawns=0, max_task_retries=0)
        )
        self._workers: list[_Worker] = []
        self._retired: list[_Worker] = []
        self._result_queue = self._ctx.Queue()
        self._lock = threading.Lock()
        self._next_worker = 0
        self._next_rank = 0
        self._collector: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._started = False
        #: Last worker-side version-load traceback, if any (diagnostics).
        self.last_control_error: str | None = None

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        """Number of workers currently believed healthy."""
        with self._lock:
            return sum(1 for worker in self._workers if worker.process.is_alive())

    @property
    def processes(self) -> list[multiprocessing.process.BaseProcess]:
        """The worker processes (exposed for tests and diagnostics)."""
        return [worker.process for worker in self._workers]

    @property
    def respawns_used(self) -> int:
        """How many replacement workers have been spawned so far."""
        return self._budget.respawns_used

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        task_queue = self._ctx.Queue()
        rank = self._next_rank
        self._next_rank += 1
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                rank,
                # snapshot of the *current* replica set: a worker respawned
                # after a deploy rebuilds every version loaded at spawn time
                dict(self._replicas),
                self._max_cached_configs,
                task_queue,
                self._result_queue,
            ),
            daemon=True,
        )
        process.start()
        # replay published shared sweeps so a respawned replacement attaches
        # the same segments its predecessors did (FIFO: applied before any
        # tile queued afterwards)
        for descriptor in self._sweeps.values():
            task_queue.put(("shm", descriptor))
        return _Worker(rank=rank, process=process, task_queue=task_queue)

    def start(self, timeout: float = 60.0) -> None:
        """Fork the workers and wait until every replica reports ready."""
        if self._started:
            raise RuntimeError("worker pool already started")
        self._started = True
        for _ in range(self._n_workers):
            self._workers.append(self._spawn_worker())
        ready = 0
        while ready < self._n_workers:
            try:
                kind, rank, payload = self._result_queue.get(timeout=timeout)
            except Empty as exc:
                self.stop(abort=True)
                raise RuntimeError(
                    f"only {ready}/{self._n_workers} workers became ready"
                ) from exc
            if kind == "fatal":
                self.stop(abort=True)
                raise RuntimeError(f"worker failed to build its replica:\n{payload}")
            if kind == "ready":
                self._record_clock(rank, payload)
                ready += 1
        for worker in self._workers:
            worker.ready = True
        self._collector = threading.Thread(
            target=self._collect, name="serve-worker-collector", daemon=True
        )
        self._collector.start()

    def _record_clock(self, rank: int, payload) -> None:
        """Refine a rank's clock offset from any message carrying its clock.

        Each observation ``parent_now - worker_clock`` is the true offset
        plus that message's transit latency, so it can only overshoot;
        keeping the running minimum converges on the true offset as traffic
        flows (monotonic clocks share one system-wide base, so the minimum
        stays valid across worker respawns).
        """
        if isinstance(payload, dict) and "clock" in payload:
            observed = time.monotonic() - payload["clock"]
            with self._lock:
                prior = self._clock_offsets.get(rank)
                self._clock_offsets[rank] = (
                    observed if prior is None else min(prior, observed)
                )

    def dispatch(
        self,
        tile_id: int,
        requests: Sequence[tuple[np.ndarray, SamplingConfig]],
        traced: bool = False,
    ) -> None:
        """Assign a tile to the next healthy worker (round-robin).

        Requests are ``(x, config)`` pairs (single-model pools) or
        ``(x, config, version)`` triples (versioned serving; a tile may mix
        versions, each request executes on its own pinned replica).

        Raises :class:`WorkerCrashError` when no healthy worker remains, so
        the server can fail the tile's futures instead of queueing into the
        void.
        """
        # SamplingConfig is a frozen picklable dataclass: ship it verbatim so
        # pooled and inline execution can never diverge on a config field
        payload = list(requests)
        with self._lock:
            alive = [w for w in self._workers if w.process.is_alive()]
            if not alive:
                raise WorkerCrashError("no healthy workers remain in the pool")
            # prefer workers whose replica is built (a freshly respawned
            # replacement is alive but still constructing); fall back to the
            # spawning ones -- their queue simply drains once they are up
            candidates = [w for w in alive if w.ready] or alive
            worker = candidates[self._next_worker % len(candidates)]
            self._next_worker += 1
            worker.outstanding[tile_id] = (payload, traced)
        worker.task_queue.put(("tile", tile_id, payload, traced))

    # ------------------------------------------------------------------
    # version control plane (hot model swap)
    # ------------------------------------------------------------------
    def _broadcast(self, message: tuple) -> None:
        with self._lock:
            targets = [w for w in self._workers if w.process.is_alive()]
        for worker in targets:
            try:
                worker.task_queue.put(message)
            except Exception:  # pragma: no cover - queue torn down mid-stop
                pass

    def load_version(self, version: str, replica: "ReplicaSpec") -> None:
        """Ship ``version``'s replica to every worker (and future respawns).

        The load message rides each worker's ordinary task queue, so it is
        applied after every tile dispatched before the deploy and before any
        tile dispatched after it -- a request pinned to the new version can
        never reach a worker that has not built it yet.  Updating the replica
        template first is what reuses the respawn plumbing: a replacement
        worker spawned later rebuilds the new version along with the rest.
        """
        with self._lock:
            self._replicas[version] = replica
        self._broadcast(("load", version, replica))

    def invalidate_version(self, version: str) -> None:
        """Drop every worker's weight sweeps for ``version`` (kept loaded)."""
        self.drop_sweeps(version)
        self._broadcast(("invalidate", version))

    def unload_version(self, version: str) -> None:
        """Drop ``version`` from every worker and from the respawn template."""
        with self._lock:
            self._replicas.pop(version, None)
        self.drop_sweeps(version)
        self._broadcast(("unload", version))

    # ------------------------------------------------------------------
    # shared weight sweeps
    # ------------------------------------------------------------------
    def publish_sweep(self, descriptor: SweepDescriptor) -> None:
        """Announce a parent-published shared sweep to every worker.

        The descriptor also joins the respawn template, so replacement
        workers spawned later attach the same segment.  The announcement
        rides the ordinary task queues: it is applied before any tile
        dispatched after it, exactly like version-control messages.
        """
        with self._lock:
            self._sweeps[descriptor.key()] = descriptor
        self._broadcast(("shm", descriptor))

    def drop_sweeps(self, version: str) -> None:
        """Forget ``version``'s sweeps (called when the parent unlinks them)."""
        with self._lock:
            for key in [k for k in self._sweeps if k[0] == version]:
                del self._sweeps[key]

    # ------------------------------------------------------------------
    def _collect(self) -> None:
        while not self._stop_event.is_set():
            try:
                message = self._result_queue.get(timeout=_LIVENESS_POLL_S)
            except Empty:
                self._reap_dead_workers()
                continue
            self._handle_message(message)
            # reap on the busy path too: under sustained traffic the queue is
            # never empty, and a crashed worker's futures must still fail
            # promptly rather than wait for a lull
            self._reap_dead_workers()

    def _handle_message(self, message) -> None:
        # "done" messages carry a fourth element (the worker executor's
        # drained fused-vs-fallback counters, or None) and a fifth (the
        # traced-tile span payload, or None); shorter tuples remain accepted
        # so control/startup messages keep their shape
        kind, tile_id, payload = message[0], message[1], message[2]
        fusion_events = message[3] if len(message) > 3 else None
        if fusion_events and self._fusion_handler is not None:
            self._fusion_handler(fusion_events)
        trace_payload = message[4] if len(message) > 4 else None
        if trace_payload and self._trace_handler is not None:
            # the payload's own clock sample tightens the offset first, so
            # the bias never exceeds this very message's transit latency
            self._record_clock(trace_payload.get("rank"), trace_payload)
            offset = self._clock_offsets.get(trace_payload.get("rank"), 0.0)
            self._trace_handler(
                tile_id,
                {
                    "rank": trace_payload.get("rank"),
                    "spans": [
                        {
                            **span,
                            "start_s": span["start_s"] + offset,
                            "end_s": span["end_s"] + offset,
                        }
                        for span in trace_payload.get("spans", ())
                    ],
                },
            )
        if kind == "control_error":
            # a version-load failed in worker `tile_id` (the rank); requests
            # pinned to that version fail per-request on that worker, so this
            # is surfaced for operators rather than failing any tile here
            self.last_control_error = payload
            return
        if kind == "ready":
            # a respawned replacement finished building its replica; its
            # handshake clock refines the rank's span-time offset
            self._record_clock(tile_id, payload)
            with self._lock:
                for worker in self._workers:
                    if worker.rank == tile_id:
                        worker.ready = True
            return
        if kind == "done":
            outcomes = [
                (value, None)
                if tag == "ok"
                else (None, TileExecutionError(f"request failed in worker:\n{value}"))
                for tag, value in payload
            ]
            self._finish(tile_id, outcomes, None)
        elif kind == "error":
            self._finish(
                tile_id,
                None,
                TileExecutionError(f"tile {tile_id} failed in worker:\n{payload}"),
            )
        # "fatal" past startup means a respawned replacement failed to build;
        # its process exits right after, so the liveness reaper handles it

    def _finish(self, tile_id: int, results, error) -> None:
        with self._lock:
            for worker in self._workers + self._retired:
                worker.outstanding.pop(tile_id, None)
        self._budget.forget(tile_id)
        self._result_handler(tile_id, results, error)

    def _reap_dead_workers(self) -> None:
        with self._lock:
            dead = [w for w in self._workers if not w.process.is_alive()]
            any_dead_with_work = any(worker.outstanding for worker in dead)
            # without a respawn budget an *idle* dead worker needs no action
            # (dispatch skips it); with one, replace it right away
            if not dead or not (
                any_dead_with_work
                or self._budget.respawns_used < self._budget.policy.max_respawns
            ):
                return
        # A worker may have completed tiles (results already on the queue)
        # before dying mid-way through a later one.  Deliver every queued
        # result first so only genuinely unfinished tiles are orphaned; the
        # short timeout also covers feeder-pipe data still in flight.
        while True:
            try:
                self._handle_message(self._result_queue.get(timeout=0.1))
            except Empty:
                break
        orphaned: list[tuple[int, list]] = []
        with self._lock:
            for worker in list(self._workers):
                if worker.process.is_alive():
                    continue
                # retire the dead worker so dispatch never targets it again
                self._workers.remove(worker)
                self._retired.append(worker)
                orphaned.extend(worker.outstanding.items())
                worker.outstanding.clear()
            # keep the pool at strength within the respawn budget
            while len(self._workers) < self._n_workers and self._budget.try_respawn():
                self._workers.append(self._spawn_worker())
        for tile_id, (payload, traced) in orphaned:
            # a tile may lose its worker max_task_retries times before its
            # futures fail; with no respawn policy (max_task_retries used
            # with max_respawns=0) a retry still succeeds when another
            # healthy worker can take the tile
            if self._budget.policy.max_task_retries and self._budget.try_retry(
                tile_id
            ):
                try:
                    self.dispatch(tile_id, payload, traced=traced)
                    continue
                except WorkerCrashError:
                    pass  # no healthy worker left for the retry: fail below
            self._result_handler(
                tile_id,
                None,
                WorkerCrashError(
                    f"worker process died with tile {tile_id} outstanding"
                ),
            )

    # ------------------------------------------------------------------
    def stop(self, abort: bool = False, timeout: float = 10.0) -> None:
        """Shut the pool down.

        With ``abort=False`` the workers drain their queued tiles and every
        completed result is still delivered through the collector before it
        stops -- only then is anything left over failed.  ``abort=True``
        terminates immediately.
        """
        if abort:
            self._stop_event.set()
            for worker in self._workers:
                if worker.process.is_alive():
                    worker.process.terminate()
        else:
            for worker in self._workers:
                try:
                    worker.task_queue.put(None)
                except Exception:  # pragma: no cover - queue already broken
                    pass
        for worker in self._workers + self._retired:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=timeout)
        if not abort:
            # the workers have exited, so every result they produced is on
            # the queue; let the collector deliver them before stopping it
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not any(worker.outstanding for worker in self._workers):
                        break
                time.sleep(0.01)
            self._stop_event.set()
        if self._collector is not None:
            self._collector.join(timeout=timeout)
            self._collector = None
        # fail anything still outstanding (abort path)
        leftovers: list[int] = []
        with self._lock:
            for worker in self._workers:
                leftovers.extend(worker.outstanding)
                worker.outstanding.clear()
        for tile_id in leftovers:
            self._result_handler(
                tile_id, None, WorkerCrashError("worker pool was shut down")
            )
