"""Tile execution: run pooled requests through the batched MC engine.

Bit-exactness contract
----------------------

A served request must produce *exactly* the bytes that a standalone
``mc_predict(model, x, **config)`` call would -- that is what lets clients
migrate to the server without revalidating anything.  Two observations make
that cheap:

1. The sampled weights a prediction consumes, ``W_s = mu + sigma * eps_s``,
   are a pure function of the model version and the sampling configuration
   (seed, ``n_samples``, stride, LFSR width) -- **not** of the input.  The
   epsilons depend on the configuration and the layer schedule alone, and a
   registered version's ``mu`` / ``rho`` never change.  Requests sharing a
   ``(version, config)`` therefore consume *identical* weights, so the
   generator-bank sweep, the softplus and the ``S x W`` multiply-add are paid
   once per configuration (:func:`materialize_weight_sweep`), cached
   (:class:`EpsilonCache`) and replayed into the unchanged layer code through
   a :class:`PrecomputedWeightSampler`.  A warm tile runs none of the three.
2. Each request's forward math must see byte-identical operand matrices to
   its standalone call.  PR 3 guaranteed that by running one
   :func:`~repro.bnn.predict.mc_forward` per pooled request; this executor
   additionally *fuses* same-config requests into one folded forward --
   gated by the runtime row-stability proof in
   :mod:`repro.core.stability`.  Inside a fused tile every GEMM routes
   through the ``fused_sample_matmul`` / ``fused_im2col`` dispatch points:
   shape classes the probe proves row-stable run as one whole-tile GEMM,
   every other class is recomputed per request block from fresh contiguous
   operands (bit-exact by construction).  Where the probe verdict (or
   ``REPRO_FUSED=0``) blocks fusion, the per-request path runs and the
   fallback is *counted*, never silent (``consume_fusion_events`` feeds
   ``ServerStats``).

What is cached, and why that is safe
------------------------------------

One cache entry is a version's **sampled-weight sweep** for one
:class:`SamplingConfig`: per Bayesian layer an ``(S, *weight_shape)`` float64
tensor, ``S x W x 8`` bytes in all (W = Bayesian weights of the model; 1.37 MB
for the benchmark's reduced B-MLP at S = 8).  The weights are built *in* the
privately materialised epsilon buffer -- the genuine
:meth:`BatchedWeightSampler._build_weights`, IEEE multiply then add, the two
operations a standalone call performs -- so they replace the epsilons instead
of sitting beside them and the footprint per entry is what the epsilon sweep's
was.  Entries are stored read-only.

The entry is valid for as long as ``mu`` and ``rho`` hold the bytes it was
built from.  That is enforced, not assumed: a :class:`TileExecutor` freezes
the replica it is given (:meth:`BayesianNetwork.freeze` -- every parameter
array read-only, each posterior's ``sigma`` memoised), so an in-place update
of a served parameter raises instead of serving stale weights.  Across
versions the caches are structurally separate (one per loaded version, see
:class:`MultiVersionExecutor`), and every point that invalidates a version
drops its sweeps with it.

The executor also reuses one output scratch buffer per result shape (the
``out=`` path of :func:`mc_forward`), so steady-state serving performs no
per-tile softmax allocations.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..bnn.predict import mc_forward
from ..core import stability
from ..core.checkpoint import StreamBank
from ..core.sampler import BatchedWeightSampler
from ..core.streams import StreamOrderError
from .registry import UnknownVersionError

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..bnn.model import BayesianNetwork
    from ..models.zoo import ReplicaSpec

__all__ = [
    "SamplingConfig",
    "EpsilonCache",
    "PrecomputedWeightSampler",
    "TileExecutor",
    "MultiVersionExecutor",
    "materialize_epsilon_sweep",
    "materialize_weight_sweep",
    "FUSION_EVENT_KEYS",
]


#: stable schema of the fused-vs-fallback counters (``ServerStats.fusion``)
FUSION_EVENT_KEYS = (
    "fused_tiles",
    "fallback_tiles",
    "fused_groups",
    "fused_requests",
    "solo_requests",
    "fallback_requests",
    "fallback_disabled",
    "fallback_probe",
    "fallback_error",
)


def materialize_epsilon_sweep(
    shapes: Sequence[tuple[int, ...]], config: "SamplingConfig"
) -> list[np.ndarray]:
    """Generate a version's epsilon sweep exactly as ``mc_predict`` would.

    Epsilons are a pure function of the sampling configuration and the
    per-layer weight *shapes* -- never of the posterior values -- so this
    runs the genuine bank construction, whole-forward prefetch and
    per-layer ``sample`` walk against zero-valued placeholders.  The
    returned tensors are private to the caller (fresh contiguous copies).
    """
    shapes = [tuple(int(dim) for dim in shape) for shape in shapes]
    if not shapes:
        raise ValueError("need at least one weight shape to materialise")
    bank = StreamBank(
        n_samples=config.n_samples,
        policy="reversible",
        seed=config.seed,
        lfsr_bits=config.lfsr_bits,
        grng_stride=config.grng_stride,
        lockstep=True,
    )
    sampler = bank.batched_sampler()
    sampler.prefetch_forward([int(np.prod(shape)) for shape in shapes])
    epsilons: list[np.ndarray] = []
    for shape in shapes:
        placeholder = np.zeros(shape, dtype=np.float64)
        sampled = sampler.sample(placeholder, placeholder)
        epsilons.append(np.ascontiguousarray(sampled.epsilon))
    # prediction never runs backward; drop the outstanding span
    sampler.discard_pending()
    return epsilons


def materialize_weight_sweep(
    model: "BayesianNetwork", config: "SamplingConfig"
) -> list[np.ndarray]:
    """Build a frozen replica's sampled weights exactly as ``mc_predict`` would.

    Per Bayesian layer the ``(S, *shape)`` tensor ``mu + sigma * eps`` that
    :meth:`BatchedWeightSampler.sample` would hand the layer: the epsilons
    come from :func:`materialize_epsilon_sweep` and the genuine
    ``_build_weights`` turns them into weights in place, so no second
    ``S x W`` buffer exists and no epsilon copy outlives the call.  The
    tensors are returned read-only.  Both the in-process
    :class:`TileExecutor` cache and the shared-memory store
    (:mod:`repro.serve.shm_cache`) call this one function, which is what
    makes their bytes interchangeable.
    """
    posteriors = [layer.weight_posterior for layer in model.bayesian_layers()]
    sweep = materialize_epsilon_sweep(
        [posterior.shape for posterior in posteriors], config
    )
    for posterior, tensor in zip(posteriors, sweep):
        BatchedWeightSampler._build_weights(
            posterior.mu.value, posterior.sigma, tensor, out=tensor
        )
        tensor.flags.writeable = False
    return sweep


@dataclass(frozen=True)
class SamplingConfig:
    """Per-request Monte-Carlo sampling knobs (the ``mc_predict`` signature).

    Frozen and hashable: it doubles as the sweep-cache key, so two requests
    with equal configs are guaranteed to replay the same cached tensors.
    """

    n_samples: int = 8
    seed: int = 0
    grng_stride: int = 256
    lfsr_bits: int = 256

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")


@dataclass(frozen=True)
class ReplayedWeights:
    """What a forward pass reads of a sampler's answer: the weights.

    The epsilons that produced them are not kept (only a backward pass would
    need them, and serving never runs one).
    """

    weights: np.ndarray


class PrecomputedWeightSampler:
    """Forward-only ``BatchedWeightSampler`` stand-in replaying cached weights.

    Implements exactly the protocol :meth:`BayesianNetwork.forward_samples`
    exercises (``n_samples``, ``prefetch_forward``, ``sample``).  The tensors
    come from :func:`materialize_weight_sweep`, so every byte matches what
    the real sampler would have produced for the same frozen posterior; this
    class only checks that the network walks them in the schedule they were
    built for.
    """

    def __init__(self, weights: Sequence[np.ndarray]) -> None:
        if not weights:
            raise ValueError("need at least one weight tensor")
        self._weights = list(weights)
        self._cursor = 0

    @property
    def n_samples(self) -> int:
        """Number of Monte-Carlo samples along the leading axis."""
        return self._weights[0].shape[0]

    def prefetch_forward(self, counts: Sequence[int]) -> None:
        """Validate that the network's schedule matches the cached tensors."""
        cached = [block[0].size for block in self._weights[self._cursor :]]
        requested = [int(count) for count in counts]
        if requested != cached:
            raise StreamOrderError(
                f"cached sweep schedule {cached} does not match the "
                f"network's forward schedule {requested}"
            )

    def sample(self, mu: np.ndarray, sigma: np.ndarray) -> ReplayedWeights:
        """Serve the next layer's cached sampled weights."""
        if self._cursor >= len(self._weights):
            raise StreamOrderError(
                "forward pass requested more blocks than the cached schedule"
            )
        weights = self._weights[self._cursor]
        expected = (self.n_samples,) + tuple(mu.shape)
        if weights.shape != expected:
            raise StreamOrderError(
                f"cached weight block has shape {weights.shape}, layer "
                f"expected {expected}"
            )
        self._cursor += 1
        return ReplayedWeights(weights)


class EpsilonCache:
    """Bounded LRU of sampled-weight sweeps keyed by sampling config.

    The name (and the ``hits`` / ``misses`` counters behind the
    ``/v1/stats`` and Prometheus keys) dates from when an entry held the
    epsilon sweep; an entry is now the weights built from it, one
    ``(S, *shape)`` tensor per Bayesian layer.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._entries: OrderedDict[SamplingConfig, list[np.ndarray]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, config: SamplingConfig) -> list[np.ndarray] | None:
        """Return the cached tensors for ``config`` (marking them recent)."""
        entry = self._entries.get(config)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(config)
        self.hits += 1
        return entry

    def put(self, config: SamplingConfig, sweep: list[np.ndarray]) -> None:
        """Insert (or refresh) an entry, evicting the least recently used."""
        self._entries[config] = sweep
        self._entries.move_to_end(config)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every cached sweep (the hit/miss counters are kept).

        Safe at any time: entries are a pure deterministic function of their
        :class:`SamplingConfig` and the frozen replica they were built from,
        so dropping them costs one rebuild and can never change bytes.
        """
        self._entries.clear()


class TileExecutor:
    """Execute one tile of pooled requests against a model replica.

    One executor is single-threaded by design: the inline server runs it on
    the dispatcher thread and each worker process owns a private instance
    (model replica, sweep cache and scratch buffers are not shared).

    The executor takes ownership of ``model`` and freezes it
    (:meth:`BayesianNetwork.freeze`): the cached sweeps are a function of
    its parameters, so those must not change underneath them.  Hand it a
    replica (``ReplicaSpec.build()``), not a model that is still training.
    """

    def __init__(
        self,
        model: "BayesianNetwork",
        max_cached_configs: int = 8,
    ) -> None:
        model.freeze()
        self._model = model
        self._schedule = [
            layer.n_bayesian_weights for layer in model.bayesian_layers()
        ]
        if not self._schedule:
            raise ValueError("the served model has no Bayesian layers")
        self._cache = EpsilonCache(max_cached_configs)
        self._fusion_events: dict[str, int] = dict.fromkeys(FUSION_EVENT_KEYS, 0)
        # One softmax scratch per result shape; results are copied out of it
        # (callers retain them past the next tile, and same-shape requests in
        # one tile must not alias), which still replaces the allocating
        # path's three per-request softmax temporaries with a single copy.
        # LRU-bounded: clients pick arbitrary row counts, and a long-lived
        # server must not accumulate one buffer per shape ever seen.
        self._scratch: OrderedDict[tuple[int, ...], np.ndarray] = OrderedDict()
        self._n_classes: int | None = None
        # Optional per-tile span sink (repro.obs.trace.StageRecorder).  None
        # keeps the hot path branch-cheap; attached only for traced tiles.
        self.stage_recorder = None

    @property
    def model(self) -> "BayesianNetwork":
        """The replica this executor predicts with."""
        return self._model

    @property
    def cache(self) -> EpsilonCache:
        """The executor's sweep cache (exposed for stats / tests)."""
        return self._cache

    # ------------------------------------------------------------------
    def _sampler_for(self, config: SamplingConfig) -> PrecomputedWeightSampler:
        recorder = self.stage_recorder
        start = time.monotonic() if recorder is not None else 0.0
        sweep = self._cache.get(config)
        cached = sweep is not None
        if not cached:
            sweep = materialize_weight_sweep(self._model, config)
            self._cache.put(config, sweep)
        if recorder is not None:
            recorder.record(
                "epsilon_replay",
                start,
                time.monotonic(),
                cached=cached,
                n_samples=config.n_samples,
            )
        return PrecomputedWeightSampler(sweep)

    def install_sweep(
        self, config: SamplingConfig, sweep: Sequence[np.ndarray]
    ) -> None:
        """Adopt an externally built weight sweep (shared-memory attach path).

        Validates the sweep against the model's layer schedule and the
        config's ``n_samples`` before it can ever be replayed; the tensors
        may be read-only views into a shared segment --
        :class:`PrecomputedWeightSampler` never writes them.  Whether the
        *values* belong to this replica is the publisher's contract (the
        segment is keyed by version and built by
        :func:`materialize_weight_sweep` from that version's replica).
        """
        sweep = list(sweep)
        schedule = [int(block[0].size) for block in sweep]
        if schedule != self._schedule:
            raise StreamOrderError(
                f"installed sweep schedule {schedule} does not match the "
                f"network's forward schedule {self._schedule}"
            )
        for block in sweep:
            if block.shape[0] != config.n_samples:
                raise StreamOrderError(
                    f"installed sweep has {block.shape[0]} samples, config "
                    f"expects {config.n_samples}"
                )
        self._cache.put(config, sweep)

    _MAX_SCRATCH_SHAPES = 16

    def _output_buffer(self, n_samples: int, rows: int) -> np.ndarray | None:
        if self._n_classes is None:
            return None
        shape = (n_samples, rows, self._n_classes)
        buffer = self._scratch.get(shape)
        if buffer is None:
            buffer = np.empty(shape, dtype=np.float64)
            self._scratch[shape] = buffer
            while len(self._scratch) > self._MAX_SCRATCH_SHAPES:
                self._scratch.popitem(last=False)
        else:
            self._scratch.move_to_end(shape)
        return buffer

    # ------------------------------------------------------------------
    def execute_one(self, x: np.ndarray, config: SamplingConfig) -> np.ndarray:
        """Predict one request; returns ``(S, rows, classes)`` probabilities."""
        sampler = self._sampler_for(config)
        out = self._output_buffer(config.n_samples, x.shape[0])
        result = mc_forward(self._model, x, sampler, out=out)
        probabilities = result.sample_probabilities
        if self._n_classes is None:
            self._n_classes = probabilities.shape[-1]
        if out is not None:
            return np.array(probabilities)
        return probabilities

    def execute(
        self, requests: Sequence[tuple[np.ndarray, SamplingConfig]]
    ) -> list[tuple[np.ndarray | None, Exception | None]]:
        """Execute a tile; element ``i`` answers request ``i``.

        Requests sharing a :class:`SamplingConfig` (and input signature)
        concatenate into **one** folded forward with per-request output
        slicing -- when the row-stability verdict and ``REPRO_FUSED`` allow
        it (see the module docstring).  Otherwise, and for singleton groups,
        each request runs its own ``mc_forward`` exactly as before; every
        fallback is recorded in the fusion counters, never silent.

        Errors are isolated per request: each element is ``(probabilities,
        None)`` on success or ``(None, exception)`` on failure, so one
        malformed request cannot fail the innocent requests pooled into the
        same tile.  A fused group that fails mid-forward re-runs per request
        so innocents keep their answers.
        """
        outcomes: list[tuple[np.ndarray | None, Exception | None] | None] = [
            None
        ] * len(requests)
        groups: OrderedDict[object, list[int]] = OrderedDict()
        for index, (x, config) in enumerate(requests):
            key = self._group_key(x, config)
            if key is None:
                key = ("solo", index)
            groups.setdefault(key, []).append(index)

        mode = stability.fused_mode()
        fuse_ok = False
        if mode != "off" and any(len(ix) > 1 for ix in groups.values()):
            fuse_ok = stability.probe.allows()

        events = self._fusion_events
        tile_fused = tile_fallback = False
        for indices in groups.values():
            if len(indices) == 1:
                index = indices[0]
                x, config = requests[index]
                outcomes[index] = self._run_one(x, config)
                events["solo_requests"] += 1
                continue
            if fuse_ok:
                xs = [requests[index][0] for index in indices]
                config = requests[indices[0]][1]
                recorder = self.stage_recorder
                fused_start = time.monotonic() if recorder is not None else 0.0
                try:
                    slices = self._execute_fused(xs, config)
                except Exception:
                    if recorder is not None:
                        recorder.record(
                            "forward",
                            fused_start,
                            time.monotonic(),
                            status="error",
                            fused=True,
                            requests=len(indices),
                        )
                    # fused group failed as a whole (bad geometry, zero rows,
                    # schedule mismatch...): re-run per request so each gets
                    # its own answer or its own error
                    for index in indices:
                        x, config = requests[index]
                        outcomes[index] = self._run_one(x, config)
                    events["fallback_requests"] += len(indices)
                    events["fallback_error"] += len(indices)
                    tile_fallback = True
                else:
                    if recorder is not None:
                        recorder.record(
                            "forward",
                            fused_start,
                            time.monotonic(),
                            fused=True,
                            requests=len(indices),
                        )
                    for index, probabilities in zip(indices, slices):
                        outcomes[index] = (probabilities, None)
                    events["fused_groups"] += 1
                    events["fused_requests"] += len(indices)
                    tile_fused = True
            else:
                for index in indices:
                    x, config = requests[index]
                    outcomes[index] = self._run_one(x, config)
                events["fallback_requests"] += len(indices)
                reason = "fallback_disabled" if mode == "off" else "fallback_probe"
                events[reason] += len(indices)
                tile_fallback = True
        if tile_fused:
            events["fused_tiles"] += 1
        if tile_fallback:
            events["fallback_tiles"] += 1
        return outcomes  # type: ignore[return-value]

    def _run_one(
        self, x: np.ndarray, config: SamplingConfig
    ) -> tuple[np.ndarray | None, Exception | None]:
        recorder = self.stage_recorder
        start = time.monotonic() if recorder is not None else 0.0
        try:
            result = self.execute_one(x, config)
        except Exception as exc:
            if recorder is not None:
                recorder.record(
                    "forward", start, time.monotonic(), status="error", fused=False
                )
            return None, exc
        if recorder is not None:
            recorder.record("forward", start, time.monotonic(), fused=False)
        return result, None

    @staticmethod
    def _group_key(x, config) -> tuple | None:
        """Fusion group key: same config, dtype and trailing shape, >=1 row."""
        try:
            if x.ndim < 2 or x.shape[0] < 1:
                return None
            return (config, x.dtype.str, x.ndim, tuple(x.shape[1:]))
        except AttributeError:
            return None  # not an ndarray; let execute_one raise per request

    def _execute_fused(
        self, xs: list[np.ndarray], config: SamplingConfig
    ) -> list[np.ndarray]:
        """One folded forward over concatenated requests, sliced per request."""
        splits = tuple(x.shape[0] for x in xs)
        folded = np.concatenate(xs, axis=0)
        sampler = self._sampler_for(config)
        out = self._output_buffer(config.n_samples, folded.shape[0])
        with stability.folded_splits(splits):
            result = mc_forward(self._model, folded, sampler, out=out)
        probabilities = result.sample_probabilities
        if self._n_classes is None:
            self._n_classes = probabilities.shape[-1]
        slices: list[np.ndarray] = []
        lo = 0
        for rows in splits:
            hi = lo + rows
            # fresh contiguous copy: callers retain results past the next
            # tile, and the scratch buffer is reused
            slices.append(np.ascontiguousarray(probabilities[:, lo:hi]))
            lo = hi
        return slices

    def consume_fusion_events(self) -> dict[str, int] | None:
        """Drain the fused-vs-fallback counters (``None`` when untouched)."""
        events = self._fusion_events
        if not any(events.values()):
            return None
        self._fusion_events = dict.fromkeys(FUSION_EVENT_KEYS, 0)
        return events


class MultiVersionExecutor:
    """Route per-request execution to per-model-version :class:`TileExecutor`s.

    The hot-swap execution core: it holds one fully independent executor
    (frozen model replica, sweep cache, scratch buffers) per *loaded* version, and
    executes each request of a tile against the executor of the version the
    request was pinned to at admission.  A tile dispatched across a deploy
    may therefore legitimately mix versions -- every request still sees
    exactly its pinned model's bytes, which is the no-cross-version-mixing
    guarantee the swap tests assert.

    Structural cache isolation: because every version owns a private
    :class:`EpsilonCache`, a swapped-in model can never replay weights that
    were built from another version's parameters.  ``invalidate``
    additionally drops a version's cached sweeps outright (the server calls
    it for every non-active version on a swap, so cold versions do not pin
    cache memory); entries regenerate deterministically on the next request.

    Thread-safety: execution is per-request under an internal lock, so the
    control operations (``load``/``unload``/``invalidate``, which arrive from
    a deploy on another thread in the inline server) interleave between
    requests, never mid-forward.  In a worker process both tiles and control
    messages arrive through one task queue, so the lock is uncontended there.
    """

    def __init__(
        self,
        replicas: "Mapping[str, ReplicaSpec]",
        max_cached_configs: int = 8,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one replica version to execute")
        self._max_cached_configs = max_cached_configs
        self._lock = threading.Lock()
        self._recorder = None
        self._executors: dict[str, TileExecutor] = {
            version: TileExecutor(replica.build(), max_cached_configs)
            for version, replica in replicas.items()
        }

    def attach_stage_recorder(self, recorder) -> None:
        """Point every loaded executor's span sink at ``recorder`` (or None).

        Attached around a traced tile and detached right after; versions
        loaded while a recorder is attached inherit it on install.
        """
        with self._lock:
            self._recorder = recorder
            for executor in self._executors.values():
                executor.stage_recorder = recorder

    # ------------------------------------------------------------------
    def versions(self) -> list[str]:
        """The currently loaded version names (sorted)."""
        with self._lock:
            return sorted(self._executors)

    def executor_for(self, version: str) -> TileExecutor:
        """The loaded executor for ``version`` (for stats and tests)."""
        with self._lock:
            return self._require_locked(version)

    def _require_locked(self, version: str) -> TileExecutor:
        executor = self._executors.get(version)
        if executor is None:
            raise UnknownVersionError(
                f"model version {version!r} is not loaded in this executor; "
                f"loaded: {sorted(self._executors)}"
            )
        return executor

    # ------------------------------------------------------------------
    # control plane (deploy / retire)
    # ------------------------------------------------------------------
    def load(self, version: str, replica: "ReplicaSpec") -> None:
        """Build and install the executor for ``version`` (idempotent).

        The replica is built *outside* the lock -- construction is the
        expensive part, and requests pinned to already-loaded versions must
        not stall behind it.
        """
        with self._lock:
            if version in self._executors:
                return
        executor = TileExecutor(replica.build(), self._max_cached_configs)
        with self._lock:
            executor.stage_recorder = self._recorder
            self._executors.setdefault(version, executor)

    def unload(self, version: str) -> None:
        """Drop a version's executor (replica, weight sweeps, scratch)."""
        with self._lock:
            self._executors.pop(version, None)

    def invalidate(self, version: str) -> None:
        """Drop a loaded version's weight sweeps; unknown versions are a no-op."""
        with self._lock:
            executor = self._executors.get(version)
            if executor is not None:
                executor.cache.clear()

    def install_sweep(
        self,
        version: str,
        config: SamplingConfig,
        sweep: Sequence[np.ndarray],
    ) -> None:
        """Install a shared-memory weight sweep into ``version``'s cache."""
        with self._lock:
            executor = self._require_locked(version)
            executor.install_sweep(config, sweep)

    # ------------------------------------------------------------------
    # data plane
    # ------------------------------------------------------------------
    def execute(
        self,
        requests: Sequence[tuple],
    ) -> list[tuple[np.ndarray | None, Exception | None]]:
        """Execute a (possibly version-mixed) tile; element ``i`` answers request ``i``.

        Each request is ``(x, config, version)``; a 2-element ``(x, config)``
        request is accepted when exactly one version is loaded (the
        single-model :class:`~repro.serve.worker.WorkerPool` surface).
        Requests are grouped by pinned version and each group runs through
        that version's :class:`TileExecutor.execute` -- so same-config
        requests fuse even in a version-mixed tile.  Error isolation matches
        :meth:`TileExecutor.execute`: a request pinned to an unloaded
        version fails alone with :class:`UnknownVersionError`.
        """
        outcomes: list[tuple[np.ndarray | None, Exception | None] | None] = [
            None
        ] * len(requests)
        by_version: OrderedDict[str, list[int]] = OrderedDict()
        for index, request in enumerate(requests):
            try:
                if len(request) == 3:
                    _, _, version = request
                else:
                    _, _ = request
                    version = self._sole_version()
            except Exception as exc:
                outcomes[index] = (None, exc)
                continue
            by_version.setdefault(version, []).append(index)
        for version, indices in by_version.items():
            # the lock is held for the whole version group: control
            # operations (deploy on another thread) interleave between
            # groups, never mid-forward -- same contract as before
            with self._lock:
                try:
                    executor = self._require_locked(version)
                except Exception as exc:
                    for index in indices:
                        outcomes[index] = (None, exc)
                    continue
                group = [
                    (requests[index][0], requests[index][1]) for index in indices
                ]
                results = executor.execute(group)
            for index, outcome in zip(indices, results):
                outcomes[index] = outcome
        return outcomes  # type: ignore[return-value]

    def consume_fusion_events(self) -> dict[str, int] | None:
        """Drain fused-vs-fallback counters aggregated over loaded versions."""
        with self._lock:
            executors = list(self._executors.values())
        total: dict[str, int] | None = None
        for executor in executors:
            events = executor.consume_fusion_events()
            if events is None:
                continue
            if total is None:
                total = dict.fromkeys(FUSION_EVENT_KEYS, 0)
            for key, value in events.items():
                total[key] += value
        return total

    def _sole_version(self) -> str:
        with self._lock:
            if len(self._executors) != 1:
                raise UnknownVersionError(
                    "a request without a version pin needs a single-version "
                    f"executor; loaded: {sorted(self._executors)}"
                )
            return next(iter(self._executors))
