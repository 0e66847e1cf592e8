"""Coordinator: data-parallel ``train_step`` execution over an elastic pool.

:class:`DistributedBackend` plugs into
:class:`~repro.bnn.trainer.BNNTrainer` as its execution backend.  Each
optimisation step it:

1. applies pending **membership changes** -- workers that asked to join or
   leave do so here, at the step boundary (never mid-step), triggering a
   deterministic replan; crashed workers are respawned within the
   :class:`~repro.distrib.respawn.RespawnPolicy` bounds;
2. captures the trainer's canonical state -- parameter values and the
   per-sample generator snapshots of the trainer's own
   :class:`~repro.core.checkpoint.StreamBank` (which in distributed mode is
   the *bookkeeping* bank: it never generates, it just holds the canonical
   register states and traffic counters, which is also exactly what the
   checkpoint layer saves);
3. plans the step's 2-D ``(sample-shard, row-block)`` grid
   (:func:`~repro.distrib.plan.plan_step`) -- the *cells* fix the canonical
   reduce order and with it every bit -- and groups the cells into one
   self-contained **dispatch unit per live worker** (a contiguous run of
   shards crossed with every row block; one unit when inline,
   ``n_workers=0``).  Grouping is placement, not trajectory.  Each worker
   process rebuilds a bit-identical replica from a
   :class:`~repro.models.zoo.ReplicaSpec`, owns only its unit's generator
   rows and draws each sample's epsilons once per step.  Unit state
   (parameters, minibatch rows) ships as content-fingerprinted **deltas**
   against what each worker already caches (:mod:`repro.distrib.delta`); a
   worker that cannot resolve a delta answers with a resync request and
   receives the unit re-shipped full.  The per-sample gradient stacks come
   back through the worker's :class:`~repro.distrib.worker.ResultArena`
   (shared pages), not through the result pipe;
4. collects the unit results with deterministic fault tolerance: a dead
   worker's unit is re-dispatched whole (to a surviving or freshly
   respawned worker, within the respawn bounds) and re-executes from the
   same spec, re-encoded for whatever the target worker's cache holds --
   the unit is re-computed from its seeds/states, never dropped, and
   re-execution is bit-identical because nothing in the spec depends on
   worker state;
5. reduces gradients, loss terms and probabilities in canonical
   ``(sample, row-block)`` order
   (:func:`~repro.distrib.reduce.reduce_step_outputs`), folds the workers'
   traffic-counter deltas into the canonical bank's usage records, and
   writes the post-step generator snapshots back into the canonical bank.

The resulting parameter trajectory is bit-for-bit the single-process
batched (and therefore also the sequential) trajectory with the default
single row block -- at any worker count, under any join/leave schedule,
delta or full shipping.  With ``n_row_blocks > 1`` the trajectory is the
canonical *blocked* trajectory, still invariant to worker count, partition
and placement (see :mod:`repro.distrib.plan`).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from queue import Empty
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..bnn.serialization import tensor_fingerprint
from ..obs.adapters import bind_distrib_collectors
from ..obs.metrics import MetricsRegistry, default_registry, obs_enabled
from .delta import (
    DEFAULT_CACHE_SLOTS,
    DeltaEncoder,
    DeltaResyncRequired,
)
from .plan import plan_step
from .reduce import reduce_step_outputs
from .respawn import RespawnBudget, RespawnPolicy
from .worker import (
    PARAM_SLOT_PREFIX,
    ResultArena,
    ShardEngine,
    _worker_main,
    data_slots,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..bnn.trainer import BNNTrainer
    from ..models.zoo import ReplicaSpec

__all__ = ["DistributedBackend", "DistributedStepError"]

_LIVENESS_POLL_S = 0.2

#: A task whose worker repeatedly fails to resolve its state even after
#: full re-shipments indicates a broken transport, not a stale cache.
_MAX_TASK_RESYNCS = 3

#: Rank key of the inline (in-process) engine's delta encoder.
_INLINE_RANK = -1


class DistributedStepError(RuntimeError):
    """A training step could not be completed by the worker pool."""


@dataclass
class _TrainWorker:
    rank: int
    process: multiprocessing.process.BaseProcess
    task_queue: object
    #: Shared pages this worker returns its gradient stacks through;
    #: ``None`` when the start method cannot inherit an anonymous mapping.
    arena: ResultArena | None
    ready: bool = False
    assigned: set[int] = field(default_factory=set)


class DistributedBackend:
    """Sample- and row-sharded execution backend for ``BNNTrainer.train_step``.

    Parameters
    ----------
    replica:
        Recipe for the workers' model replicas.  Only the structure (spec +
        build seed) matters: the coordinator ships the current parameter
        values (as deltas) with every step, so a structural
        ``ReplicaSpec(spec=..., build_seed=...)`` without captured state is
        sufficient.
    n_workers:
        ``0`` executes the tasks inline on the coordinator (same sharded
        code path including delta encoding, no processes -- the degenerate
        cluster); ``>= 1`` forks that many worker processes.  The pool can
        grow and shrink later via :meth:`request_join` /
        :meth:`request_leave`.
    n_shards:
        How many sample shards to cut each step into.  ``None`` (default)
        tracks the pool: one shard per worker, replanned when the pool's
        membership changes.  An explicit value pins the plan.  More shards
        than workers is allowed -- each worker's unit takes a contiguous run
        of them; inline execution with ``n_shards > 1`` exercises the full
        shard/reduce machinery in-process.
    n_row_blocks:
        Split each minibatch into this many contiguous row blocks, each its
        own FW/BW/GC pass inside a unit (over epsilons drawn once).
        **Part of the canonical trajectory** (row sums are replayed per
        block): hold it fixed across a fit, and across any runs that are
        compared bit for bit.  The default ``1`` reproduces the classic
        single-process trajectory exactly.
    delta_shipping:
        Ship per-task state as content-fingerprinted deltas against each
        worker's cache (default).  ``False`` ships every task full -- same
        wire format, no cache reuse; the delta benchmark's baseline.
    delta_cache_slots:
        LRU capacity (distinct tensors) of each worker's delta cache and
        its coordinator-side mirror.
    respawn:
        Crash-recovery bounds; ``None`` disables respawning (a worker death
        then fails the step as soon as no healthy worker can take the
        task).
    step_timeout:
        Seconds one step may take end-to-end before the backend gives up
        (guards against a *hung* -- not dead -- worker).
    metrics:
        Where per-step phase timings (ship / compute / replay_reduce),
        bytes-shipped and resync/replan/pool-event counters land; defaults
        to the process-wide :func:`~repro.obs.metrics.default_registry` and
        is disabled entirely under ``REPRO_OBS=0``.
    """

    def __init__(
        self,
        replica: "ReplicaSpec",
        n_workers: int = 2,
        n_shards: int | None = None,
        n_row_blocks: int = 1,
        delta_shipping: bool = True,
        delta_cache_slots: int = DEFAULT_CACHE_SLOTS,
        respawn: RespawnPolicy | None = RespawnPolicy(),
        start_method: str | None = None,
        step_timeout: float = 300.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if n_workers < 0:
            raise ValueError("n_workers must be non-negative")
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        if n_row_blocks < 1:
            raise ValueError("n_row_blocks must be at least 1")
        self._replica = replica
        self._n_workers = n_workers
        self._auto_shards = n_shards is None
        self._n_shards = n_shards if n_shards is not None else max(n_workers, 1)
        self._n_row_blocks = n_row_blocks
        self._delta_shipping = delta_shipping
        self._delta_cache_slots = delta_cache_slots
        self._budget = RespawnBudget(respawn or RespawnPolicy(max_respawns=0))
        self._step_timeout = step_timeout
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else available[0]
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list[_TrainWorker] = []
        self._retired: list[_TrainWorker] = []
        self._encoders: dict[int, DeltaEncoder] = {}
        self._result_queue = None
        self._inline_engine: ShardEngine | None = None
        self._loss = None
        self._arena_grid: tuple = ()
        self._next_rank = 0
        self._task_counter = 0
        self._step_index = 0
        self._started = False
        self._closed = False
        self._pending_joins = 0
        self._pending_leaves = 0
        #: Cumulative traffic/recovery accounting (also mirrored to metrics;
        #: these plain counters stay available under ``REPRO_OBS=0``).
        self.bytes_shipped = 0
        self.bytes_full_equivalent = 0
        self.resyncs = 0
        self.replans = 0
        if metrics is None and obs_enabled():
            metrics = default_registry()
        self._metrics = metrics
        self._m_phase = self._m_steps = None
        self._m_bytes = self._m_state_bytes = None
        self._m_resyncs = self._m_replans = self._m_pool = None
        self._collector = None
        if metrics is not None:
            self._m_phase = metrics.histogram(
                "repro_distrib_step_phase_ms",
                "Distributed step phase latency: ship (state capture + "
                "payload build), compute (task execution), replay_reduce "
                "(canonical reduce + bank fold-back).",
                ("phase",),
            )
            self._m_steps = metrics.counter(
                "repro_distrib_steps_total",
                "Distributed training steps completed.",
            )
            self._m_bytes = metrics.counter(
                "repro_distrib_state_bytes_shipped_total",
                "Task-state tensor bytes placed on the wire, by message kind "
                "(full: cold/resync/baseline shipments; delta: "
                "changed-tensor-only shipments).",
                ("kind",),
            )
            self._m_state_bytes = metrics.counter(
                "repro_distrib_state_bytes_total",
                "Task-state tensor bytes a full shipment of every task would "
                "have moved (the delta baseline).",
            )
            self._m_resyncs = metrics.counter(
                "repro_distrib_resyncs_total",
                "Delta-cache resyncs: tasks re-shipped full after a worker "
                "could not resolve its state message.",
            )
            self._m_replans = metrics.counter(
                "repro_distrib_replans_total",
                "Shard replans triggered by worker-pool membership changes.",
            )
            self._m_pool = metrics.counter(
                "repro_distrib_pool_events_total",
                "Elastic worker-pool membership events.",
                ("event",),
            )
            # materialise every child at zero so a scrape can tell "no
            # resyncs happened" apart from "nothing is instrumented"
            self._m_steps.inc(0)
            self._m_state_bytes.inc(0)
            self._m_resyncs.inc(0)
            self._m_replans.inc(0)
            for kind in ("full", "delta"):
                self._m_bytes.labels(kind=kind).inc(0)
            for event in ("join", "leave", "respawn"):
                self._m_pool.labels(event=event).inc(0)
            self._collector = bind_distrib_collectors(metrics, self)
        #: Test-only fault injection: ``hook(step_index, worker_rank) -> bool``
        #: evaluated at dispatch; ``True`` makes that worker die on receipt,
        #: exactly like an external SIGKILL mid-step.
        self.fault_hook: Callable[[int, int], bool] | None = None

    # ------------------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def n_shards(self) -> int:
        """Sample shards per step under the current plan."""
        return self._n_shards

    @property
    def n_row_blocks(self) -> int:
        return self._n_row_blocks

    @property
    def alive_workers(self) -> int:
        """Number of worker processes currently alive."""
        return sum(1 for worker in self._workers if worker.process.is_alive())

    @property
    def respawns_used(self) -> int:
        """How many replacement workers have been spawned so far."""
        return self._budget.respawns_used

    @property
    def pending_joins(self) -> int:
        """Join requests queued for the next step boundary."""
        return self._pending_joins

    @property
    def pending_leaves(self) -> int:
        """Leave requests queued for the next step boundary."""
        return self._pending_leaves

    @property
    def delta_mirror_entries(self) -> int:
        """Total tensors tracked across all per-worker delta mirrors."""
        return sum(len(encoder.mirror) for encoder in self._encoders.values())

    @property
    def processes(self) -> list[multiprocessing.process.BaseProcess]:
        """Current worker processes (tests and diagnostics)."""
        return [worker.process for worker in self._workers]

    # ------------------------------------------------------------------
    # elastic membership
    # ------------------------------------------------------------------
    def request_join(self, n: int = 1) -> None:
        """Ask for ``n`` more workers; they join at the next step boundary.

        Mid-step requests never take effect mid-step: membership is applied
        only at the top of :meth:`run_step`, so the step in flight completes
        under the plan it started with.
        """
        if n < 1:
            raise ValueError("must request at least one worker")
        if self._n_workers == 0 and not self._pending_joins:
            raise RuntimeError(
                "the inline (n_workers=0) backend has no elastic worker pool"
            )
        self._pending_joins += n

    def request_leave(self, n: int = 1) -> None:
        """Ask for ``n`` workers to leave at the next step boundary.

        The highest-rank workers leave first (deterministic).  Shrinking
        the pool below one worker fails the next step loudly.
        """
        if n < 1:
            raise ValueError("must release at least one worker")
        if self._n_workers == 0:
            raise RuntimeError(
                "the inline (n_workers=0) backend has no elastic worker pool"
            )
        self._pending_leaves += n

    def _count_pool_event(self, event: str) -> None:
        if self._m_pool is not None:
            self._m_pool.labels(event=event).inc()

    def _apply_membership(self) -> None:
        """Apply queued join/leave requests and replan (step boundary only)."""
        changed = False
        while self._pending_leaves > 0:
            if len(self._workers) <= 1:
                self._pending_leaves = 0
                raise DistributedStepError(
                    "cannot shrink the worker pool below one worker"
                )
            worker = max(self._workers, key=lambda w: w.rank)
            self._retire(worker)
            try:
                worker.task_queue.put(None)
            except Exception:  # pragma: no cover - queue already broken
                pass
            self._n_workers -= 1
            self._pending_leaves -= 1
            changed = True
            self._count_pool_event("leave")
        while self._pending_joins > 0:
            self._workers.append(self._spawn_worker())
            self._n_workers += 1
            self._pending_joins -= 1
            changed = True
            self._count_pool_event("join")
        if changed and self._auto_shards:
            new_shards = max(self._n_workers, 1)
            if new_shards != self._n_shards:
                # the sample partition changes, the bits do not: the reducer
                # replays canonical (sample, row-block) order under any plan
                self._n_shards = new_shards
                self.replans += 1
                if self._m_replans is not None:
                    self._m_replans.inc()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _TrainWorker:
        rank = self._next_rank
        self._next_rank += 1
        task_queue = self._ctx.Queue()
        # only a forked child inherits an anonymous mapping; under any other
        # start method the stacks ride the result queue
        arena = None
        if self._ctx.get_start_method() == "fork":
            arena = ResultArena(*self._arena_grid)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                rank,
                self._replica,
                self._loss,
                task_queue,
                self._result_queue,
                arena,
            ),
            daemon=True,
        )
        process.start()
        return _TrainWorker(
            rank=rank, process=process, task_queue=task_queue, arena=arena
        )

    def _start(self, trainer: "BNNTrainer") -> None:
        self._started = True
        self._loss = trainer.loss
        if self._n_workers == 0:
            self._inline_engine = ShardEngine(self._replica.build(), trainer.loss)
            return
        self._result_queue = self._ctx.Queue()
        # every arena is laid out for the whole step grid (see ResultArena)
        self._arena_grid = (
            [
                (param.name, param.value.dtype, param.value.shape)
                for param in trainer.model.parameters()
            ],
            self._n_row_blocks,
            trainer.config.n_samples,
        )
        for _ in range(self._n_workers):
            self._workers.append(self._spawn_worker())
        deadline = time.monotonic() + self._step_timeout
        ready = 0
        while ready < self._n_workers:
            try:
                kind, rank, payload = self._result_queue.get(
                    timeout=max(0.01, deadline - time.monotonic())
                )
            except Empty as exc:
                self.close(abort=True)
                raise DistributedStepError(
                    f"only {ready}/{self._n_workers} training workers became ready"
                ) from exc
            if kind == "fatal":
                self.close(abort=True)
                raise DistributedStepError(
                    f"worker failed to build its replica:\n{payload}"
                )
            if kind == "ready":
                self._mark_ready(rank)
                ready += 1

    def _mark_ready(self, rank: int) -> None:
        for worker in self._workers:
            if worker.rank == rank:
                worker.ready = True

    def close(self, abort: bool = False, timeout: float = 10.0) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._metrics is not None and self._collector is not None:
            self._metrics.unregister_collector(self._collector)
        workers = self._workers + self._retired
        for worker in workers:
            if abort:
                if worker.process.is_alive():
                    worker.process.terminate()
            else:
                try:
                    worker.task_queue.put(None)
                except Exception:  # pragma: no cover - queue already broken
                    pass
        for worker in workers:
            worker.process.join(timeout=timeout)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.kill()
                worker.process.join(timeout=timeout)
        self._close_arenas(workers)
        self._workers = []
        self._retired = []
        self._encoders = {}

    def __enter__(self) -> "DistributedBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(abort=exc_type is not None)

    # ------------------------------------------------------------------
    # one step
    # ------------------------------------------------------------------
    def run_step(
        self,
        trainer: "BNNTrainer",
        x: np.ndarray,
        y: np.ndarray,
        kl_weight: float,
    ) -> tuple[float, np.ndarray]:
        """Execute one sharded FW/BW/GC pass; returns ``(total_nll, correct_probs)``.

        On return the trainer's model holds the canonically-reduced
        gradients, its bank holds the post-step generator states and updated
        traffic counters -- exactly the state the single-process pipelines
        leave behind before the optimiser update.
        """
        if self._closed:
            raise RuntimeError("backend is closed")
        if not self._started:
            self._start(trainer)
        if self._inline_engine is None:
            self._apply_membership()
            self._replenish()
            # no step is in flight, so nothing views a retired worker's pages
            self._close_arenas(self._retired)
        ship_from = time.monotonic()
        config = trainer.config
        plan = plan_step(
            config.n_samples, self._n_shards, x.shape[0], self._n_row_blocks
        )
        snapshots = trainer.bank.snapshots()
        bank_cfg = {
            "policy": trainer.bank.policy,
            "seed": config.seed,
            "lfsr_bits": config.lfsr_bits,
            "grng_stride": config.grng_stride,
            "lockstep": config.lockstep,
        }
        # the step's content-addressed state slots, hashed once (not once
        # per worker): every parameter tensor plus each row block's data
        slots = {
            PARAM_SLOT_PREFIX + param.name: param.value
            for param in trainer.model.parameters()
        }
        for block_index, (start, stop) in enumerate(plan.row_blocks):
            x_slot, y_slot = data_slots(block_index)
            slots[x_slot] = x[start:stop]
            slots[y_slot] = y[start:stop]
        fingerprints = {
            slot: tensor_fingerprint(array) for slot, array in slots.items()
        }
        # one dispatch unit per live worker (one inline): unit u takes the
        # contiguous shards [u*n/k, (u+1)*n/k) and every row block.  This is
        # placement only -- the plan's cells fix the reduce order
        n_shards = plan.samples.n_shards
        n_units = 1
        if self._inline_engine is None:
            n_units = max(1, min(len(self._workers), n_shards))
        specs = []
        for unit in range(n_units):
            shards = plan.samples.shards[
                unit * n_shards // n_units : (unit + 1) * n_shards // n_units
            ]
            specs.append(
                {
                    "step_index": self._step_index,
                    "shards": shards,
                    "row_blocks": plan.row_blocks,
                    "total_rows": plan.n_rows,
                    "snapshots": [
                        snapshots[index] for shard in shards for index in shard
                    ],
                    "kl_weight": kl_weight,
                    "include_entropy_term": config.include_entropy_term,
                    "quantization_bits": config.quantization_bits,
                    "bank": bank_cfg,
                    "slots": slots,
                    "fingerprints": fingerprints,
                }
            )
        compute_from = time.monotonic()
        if self._inline_engine is not None:
            unit_results = [self._run_inline(spec) for spec in specs]
        else:
            unit_results = self._run_pooled(specs)
        self._step_index += 1
        reduce_from = time.monotonic()
        total_nll, correct_probs = reduce_step_outputs(
            trainer.model,
            plan,
            [cell for result in unit_results for cell in result["cells"]],
        )
        # fold the per-step traffic deltas and post-step generator states
        # back into the canonical (bookkeeping) bank
        new_snapshots = list(snapshots)
        for spec, result in zip(specs, unit_results):
            samples = [index for shard in spec["shards"] for index in shard]
            if not len(samples) == len(result["snapshots"]) == len(result["usage"]):
                raise DistributedStepError(
                    f"unit of samples {samples} returned "
                    f"{len(result['snapshots'])} generator snapshots and "
                    f"{len(result['usage'])} usage records"
                )
            for local_index, sample_index in enumerate(samples):
                new_snapshots[sample_index] = result["snapshots"][local_index]
                trainer.bank.streams[sample_index].usage.merge_delta(
                    result["usage"][local_index]
                )
        trainer.bank.restore(new_snapshots)
        if self._m_phase is not None:
            done = time.monotonic()
            self._m_phase.labels(phase="ship").observe(
                (compute_from - ship_from) * 1e3
            )
            self._m_phase.labels(phase="compute").observe(
                (reduce_from - compute_from) * 1e3
            )
            self._m_phase.labels(phase="replay_reduce").observe(
                (done - reduce_from) * 1e3
            )
            self._m_steps.inc()
        return total_nll, correct_probs

    # ------------------------------------------------------------------
    # delta-aware payload encoding
    # ------------------------------------------------------------------
    def _encode_payload(self, spec: dict, rank: int) -> dict:
        """Materialise one unit spec into a payload for one target worker.

        Encoding happens at dispatch time, per target: the same spec sent
        to a warm worker ships a slim delta, to a cold (fresh, respawned or
        resynced) worker a full state message.  Specs themselves stay
        abstract so crash re-dispatch can re-encode for the new target.
        """
        encoder = self._encoders.get(rank)
        if encoder is None:
            encoder = DeltaEncoder(
                capacity=self._delta_cache_slots,
                delta_shipping=self._delta_shipping,
            )
            self._encoders[rank] = encoder
        encoded = encoder.encode(spec["slots"], spec["fingerprints"])
        self.bytes_shipped += encoded.shipped_bytes
        self.bytes_full_equivalent += encoded.total_bytes
        if self._m_bytes is not None:
            self._m_bytes.labels(kind=encoded.message["kind"]).inc(
                encoded.shipped_bytes
            )
            self._m_state_bytes.inc(encoded.total_bytes)
        payload = {
            key: value
            for key, value in spec.items()
            if key not in ("slots", "fingerprints")
        }
        payload["state"] = encoded.message
        return payload

    def _note_resync(self, rank: int | None) -> None:
        """A worker could not resolve its state: mark it cold, count it."""
        self.resyncs += 1
        if self._m_resyncs is not None:
            self._m_resyncs.inc()
        if rank is not None:
            encoder = self._encoders.get(rank)
            if encoder is not None:
                encoder.mark_cold()

    @staticmethod
    def _claim_cells(spec: dict, result: dict, arena: ResultArena | None) -> dict:
        """Check a unit result against its spec; bind arena-resident stacks.

        The cells must be exactly the spec's ``shards x row_blocks``, in
        plan order.  Stacks a worker left in its arena (``contributions`` is
        ``None``) become in-place views, built from the layout and the spec
        this coordinator computed itself -- never from anything on the wire
        -- and only onto the arena of the worker that answered.
        """
        expected = [
            (shard, block_index)
            for shard in spec["shards"]
            for block_index in range(len(spec["row_blocks"]))
        ]
        cells = result["cells"]
        if [(tuple(cell["shard"]), cell["row_block"]) for cell in cells] != expected:
            raise DistributedStepError(
                f"unit result does not cover its cells: expected {expected}"
            )
        for cell in cells:
            if cell["contributions"] is None:
                if arena is None or not arena.holds(
                    len(spec["row_blocks"]), cell["shard"]
                ):
                    raise DistributedStepError(
                        f"worker {result.get('rank')} left the stacks of shard "
                        f"{cell['shard']} in an arena it does not have"
                    )
                cell["contributions"] = arena.cell(cell["row_block"], cell["shard"])
        return result

    def _run_inline(self, spec: dict) -> dict:
        """Inline execution: same encode/resolve path, no processes."""
        payload = self._encode_payload(spec, _INLINE_RANK)
        try:
            result = self._inline_engine.run_step(payload)
        except DeltaResyncRequired:
            self._note_resync(_INLINE_RANK)
            payload = self._encode_payload(spec, _INLINE_RANK)  # now full
            result = self._inline_engine.run_step(payload)
        return self._claim_cells(spec, result, None)

    # ------------------------------------------------------------------
    # pooled dispatch with deterministic crash recovery
    # ------------------------------------------------------------------
    def _dispatch(self, task_id: int, spec: dict) -> _TrainWorker:
        alive = [w for w in self._workers if w.process.is_alive()]
        if not alive:
            raise DistributedStepError(
                "no healthy training workers remain and the respawn budget "
                f"is exhausted ({self._budget.respawns_used} respawns used)"
            )
        # prefer workers whose replica is built (a freshly respawned
        # replacement is alive but still constructing); least-loaded first
        candidates = [w for w in alive if w.ready] or alive
        worker = min(candidates, key=lambda w: len(w.assigned))
        payload = self._encode_payload(spec, worker.rank)
        if self.fault_hook is not None and self.fault_hook(
            self._step_index, worker.rank
        ):
            payload = dict(payload, test_crash=True)
        worker.assigned.add(task_id)
        worker.task_queue.put((task_id, payload))
        return worker

    def _retire(self, worker: _TrainWorker) -> None:
        """Take a worker out of the pool.

        Its arena stays mapped until the next step boundary: results this
        step already collected from it are still views onto those pages.
        """
        self._workers.remove(worker)
        self._retired.append(worker)
        self._encoders.pop(worker.rank, None)

    @staticmethod
    def _close_arenas(workers: list[_TrainWorker]) -> None:
        for worker in workers:
            if worker.arena is not None:
                worker.arena.close()
                worker.arena = None

    def _replenish(self) -> None:
        """Retire workers that died between steps and respawn within budget."""
        for worker in [w for w in self._workers if not w.process.is_alive()]:
            self._retire(worker)
        while len(self._workers) < self._n_workers and self._budget.try_respawn():
            self._workers.append(self._spawn_worker())
            self._count_pool_event("respawn")

    def _run_pooled(self, specs: list[dict]) -> list[dict]:
        pending: dict[int, dict] = {}
        assigned: dict[int, _TrainWorker] = {}
        results: dict[int, tuple[dict, ResultArena | None]] = {}
        resync_counts: dict[int, int] = {}
        for spec in specs:
            task_id = self._task_counter
            self._task_counter += 1
            pending[task_id] = spec
            assigned[task_id] = self._dispatch(task_id, spec)
        task_ids = list(pending)
        deadline = time.monotonic() + self._step_timeout
        try:
            while pending:
                if time.monotonic() > deadline:
                    raise DistributedStepError(
                        f"step did not complete within {self._step_timeout}s; "
                        f"{len(pending)} unit(s) still outstanding"
                    )
                try:
                    message = self._result_queue.get(timeout=_LIVENESS_POLL_S)
                except Empty:
                    self._recover_dead(pending, assigned)
                    continue
                kind, key, payload = message
                if kind == "ready":
                    self._mark_ready(key)
                elif kind == "done":
                    # only the worker the unit is assigned to right now may
                    # answer it: a late message from one it was taken away
                    # from is as stale as one for a finished unit
                    if key in pending and assigned[key].rank == payload["rank"]:
                        worker = assigned.pop(key)
                        worker.assigned.discard(key)
                        results[key] = (payload, worker.arena)
                        del pending[key]
                        self._budget.forget(key)
                elif kind == "resync":
                    if key in pending:
                        resync_counts[key] = resync_counts.get(key, 0) + 1
                        if resync_counts[key] > _MAX_TASK_RESYNCS:
                            raise DistributedStepError(
                                f"unit {key} required more than "
                                f"{_MAX_TASK_RESYNCS} delta resyncs; the "
                                "state transport is broken"
                            )
                        self._note_resync((payload or {}).get("rank"))
                        worker = assigned.pop(key)
                        worker.assigned.discard(key)
                        assigned[key] = self._dispatch(key, pending[key])
                elif kind == "error":
                    if key in pending:
                        raise DistributedStepError(
                            f"unit failed in worker:\n{payload}"
                        )
        except DistributedStepError:
            # release this step's bookkeeping before propagating so a caller
            # that retries train_step starts clean: abandoned task ids must
            # not keep skewing the load balancer, and their stale queue
            # messages are ignored via the pending-key guard (task ids are
            # never reused)
            for task_id, worker in assigned.items():
                worker.assigned.discard(task_id)
            raise
        return [
            self._claim_cells(spec, *results[task_id])
            for task_id, spec in zip(task_ids, specs)
        ]

    def _recover_dead(
        self, pending: dict[int, dict], assigned: dict[int, _TrainWorker]
    ) -> None:
        """Re-dispatch the units of dead workers (bounded, deterministic).

        Called when the result queue went quiet: any unit whose worker is no
        longer alive at this point was lost mid-execution.  The unit's spec
        is re-encoded for its new target -- the spec fully determines the
        unit's bits; only the delta framing is per-worker -- and re-queued
        whole onto a surviving worker, or onto a freshly spawned replacement
        when none survives and the respawn budget allows one.
        """
        orphaned = [
            task_id
            for task_id, worker in assigned.items()
            if not worker.process.is_alive()
        ]
        if not orphaned:
            return
        # retire dead workers first so dispatch never targets them
        dead = {assigned[task_id].rank for task_id in orphaned}
        for worker in [w for w in self._workers if w.rank in dead]:
            self._retire(worker)
        # keep the pool at strength within the respawn budget
        while len(self._workers) < self._n_workers and self._budget.try_respawn():
            self._workers.append(self._spawn_worker())
            self._count_pool_event("respawn")
        for task_id in orphaned:
            if not self._budget.try_retry(task_id):
                raise DistributedStepError(
                    f"unit {task_id} lost its worker more than "
                    f"{self._budget.policy.max_task_retries} time(s)"
                )
            assigned[task_id] = self._dispatch(task_id, pending[task_id])
