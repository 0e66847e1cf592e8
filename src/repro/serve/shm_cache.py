"""Shared-memory weight sweeps: build once, attach everywhere.

Without this module every pool worker privately builds identical
``(S, *weight_shape)`` sampled-weight sweeps per :class:`SamplingConfig` --
the generator-bank kernel work, the softplus and the multiply-add are
redundant and, worse, the worker-pool RSS grows linearly with the worker
count.  Here the *server* (parent process) builds each ``(version, config)``
sweep exactly once -- through the same
:func:`~repro.serve.executor.materialize_weight_sweep` a private cache miss
uses, so the bytes are interchangeable -- into one
:mod:`multiprocessing.shared_memory` segment, and workers attach it
read-only.  N workers then share one physical copy (sub-linear RSS), and a
worker's first request for a known config skips the build entirely.  A
segment is ``S x W x 8`` bytes plus alignment, as it was when it carried the
epsilons; the parent's private copy (epsilons turned into weights in place)
is dropped when ``publish`` returns, so no process keeps two copies of a
sweep.

The weights depend on the version's parameters, not only on its layer
schedule, so the segment key's ``version`` is load-bearing: a segment is
only ever built from, and installed into, replicas of the version it names.

Ownership and crash safety
--------------------------

The parent :class:`SharedEpsilonStore` is the sole owner: it creates,
publishes and **unlinks** every segment.  Workers only ever map existing
segments, and :func:`attach_sweep` immediately deregisters the attachment
from the stdlib ``resource_tracker`` (Python registers attach-side too,
which would otherwise unlink the parent's live segment when any worker
exits).  A crashed worker therefore cannot leak or destroy a segment: its
mapping dies with the process, and the name always remains the parent's to
unlink.  ``invalidate`` (called on deploy/rollback, mirroring
``EpsilonCache.clear``) unlinks a version's segments; already-attached
workers keep their mapped pages alive until they detach (Linux
unlink-while-mapped semantics), while fresh attaches fail fast and fall
back to private materialisation.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .executor import SamplingConfig, materialize_weight_sweep

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..bnn.model import BayesianNetwork

__all__ = [
    "SweepDescriptor",
    "SharedEpsilonStore",
    "ShmAttachment",
    "attach_sweep",
    "sweep_nbytes",
]

_ALIGN = 64  # per-layer offsets are cache-line aligned


def _layer_nbytes(shape: tuple[int, ...], n_samples: int) -> int:
    return int(np.prod((n_samples,) + tuple(shape))) * np.dtype(np.float64).itemsize


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def sweep_nbytes(shapes: Sequence[tuple[int, ...]], n_samples: int) -> int:
    """Total segment size for a sweep of ``shapes`` at ``n_samples``."""
    offset = 0
    for shape in shapes:
        offset = _aligned(offset) + _layer_nbytes(tuple(shape), n_samples)
    return max(offset, 1)


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink a parent-owned segment with balanced tracker books.

    Under the ``fork`` start method every process shares one resource
    tracker, so an attacher's deregistration (see :class:`ShmAttachment`)
    also removes the creator's entry; re-registering first keeps the
    tracker's cache balanced across ``unlink``'s own deregistration.
    """
    try:
        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker impl details vary
        pass
    shm.close()
    shm.unlink()


def _layer_offsets(
    shapes: Sequence[tuple[int, ...]], n_samples: int
) -> list[int]:
    offsets = []
    offset = 0
    for shape in shapes:
        offset = _aligned(offset)
        offsets.append(offset)
        offset += _layer_nbytes(tuple(shape), n_samples)
    return offsets


@dataclass(frozen=True)
class SweepDescriptor:
    """Everything a worker needs to attach one published sweep.

    Pickles across the task queue; ``generation`` increases monotonically
    per store publish, so a re-published ``(version, config)`` after an
    invalidation is distinguishable from the sweep it replaced.
    """

    version: str
    config: SamplingConfig
    segment: str
    shapes: tuple[tuple[int, ...], ...]
    nbytes: int
    generation: int

    def key(self) -> tuple[str, SamplingConfig]:
        return (self.version, self.config)


class SharedEpsilonStore:
    """Parent-side owner of the shared weight-sweep segments (create + unlink)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: dict[
            tuple[str, SamplingConfig],
            tuple[shared_memory.SharedMemory, SweepDescriptor],
        ] = {}
        self._generation = 0
        self._closed = False

    # ------------------------------------------------------------------
    def publish(
        self,
        version: str,
        config: SamplingConfig,
        model: "BayesianNetwork",
    ) -> SweepDescriptor:
        """Build (once) and publish the weight sweep for ``(version, config)``.

        ``model`` is a frozen replica of ``version``.  Idempotent per key: a
        second publish returns the existing descriptor.  The weights come
        from :func:`materialize_weight_sweep`, i.e. they are byte-for-byte
        what an executor holding that version would build privately.
        """
        key = (version, config)
        with self._lock:
            if self._closed:
                raise RuntimeError("the shared sweep store is closed")
            existing = self._segments.get(key)
            if existing is not None:
                return existing[1]
        sweep = materialize_weight_sweep(model, config)
        shapes = tuple(tuple(block.shape[1:]) for block in sweep)
        nbytes = sweep_nbytes(shapes, config.n_samples)
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        try:
            for block, offset in zip(
                sweep, _layer_offsets(shapes, config.n_samples)
            ):
                view = np.ndarray(
                    block.shape, dtype=np.float64, buffer=shm.buf, offset=offset
                )
                view[...] = block
                del view
            with self._lock:
                if self._closed:
                    raise RuntimeError("the shared sweep store is closed")
                racing = self._segments.get(key)
                if racing is not None:
                    descriptor = racing[1]
                else:
                    self._generation += 1
                    descriptor = SweepDescriptor(
                        version=version,
                        config=config,
                        segment=shm.name,
                        shapes=shapes,
                        nbytes=nbytes,
                        generation=self._generation,
                    )
                    self._segments[key] = (shm, descriptor)
                    return descriptor
        except BaseException:
            _unlink_segment(shm)
            raise
        # lost a publish race (or store closed underneath): discard ours
        _unlink_segment(shm)
        return descriptor

    # ------------------------------------------------------------------
    def descriptors(self) -> list[SweepDescriptor]:
        """Descriptors of every currently published sweep."""
        with self._lock:
            return [descriptor for _, descriptor in self._segments.values()]

    def invalidate(self, version: str) -> int:
        """Unlink every segment of ``version``; returns how many were dropped.

        Mirrors ``EpsilonCache.clear``: safe at any time because a sweep is
        a pure function of (config, the version's frozen parameters).
        Workers already attached keep their mapped pages until the
        ``invalidate`` control message makes them drop the attachment; new
        attaches fail fast and fall back to private materialisation.
        """
        with self._lock:
            keys = [key for key in self._segments if key[0] == version]
            dropped = [self._segments.pop(key) for key in keys]
        for shm, _ in dropped:
            _unlink_segment(shm)
        return len(dropped)

    def close(self) -> None:
        """Unlink every segment (idempotent); the store refuses new publishes."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dropped = list(self._segments.values())
            self._segments.clear()
        for shm, _ in dropped:
            _unlink_segment(shm)

    def __enter__(self) -> "SharedEpsilonStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShmAttachment:
    """A worker-side, read-only, refcounted mapping of one published sweep.

    ``weights`` are non-writeable numpy views straight into the shared
    segment -- :class:`~repro.serve.executor.PrecomputedWeightSampler`
    only ever reads them.  ``acquire``/``release`` count users (the initial
    attachment holds one reference); the mapping closes when the count
    reaches zero.  If numpy views are still referenced elsewhere at that
    point the unmap is deferred to process exit (the OS reclaims it) --
    never an error, never a leaked *name*, since unlinking is exclusively
    the parent store's job.
    """

    def __init__(self, descriptor: SweepDescriptor) -> None:
        self.descriptor = descriptor
        shm = shared_memory.SharedMemory(name=descriptor.segment, create=False)
        # Python's resource tracker registers attach-side shared memory and
        # would unlink the parent's live segment when this process exits;
        # attachments must not own the name.
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl details vary
            pass
        self._shm = shm
        views = []
        offsets = _layer_offsets(descriptor.shapes, descriptor.config.n_samples)
        for shape, offset in zip(descriptor.shapes, offsets):
            view = np.ndarray(
                (descriptor.config.n_samples,) + shape,
                dtype=np.float64,
                buffer=shm.buf,
                offset=offset,
            )
            view.flags.writeable = False
            views.append(view)
        self._views: list[np.ndarray] | None = views
        self._refcount = 1
        self._lock = threading.Lock()

    @property
    def weights(self) -> list[np.ndarray]:
        """The per-layer read-only sampled-weight views (sampler-ready)."""
        with self._lock:
            if self._views is None:
                raise RuntimeError("attachment is closed")
            return list(self._views)

    @property
    def refcount(self) -> int:
        with self._lock:
            return self._refcount

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._views is None

    def acquire(self) -> "ShmAttachment":
        """Register one more user of the mapping."""
        with self._lock:
            if self._views is None:
                raise RuntimeError("attachment is closed")
            self._refcount += 1
        return self

    def release(self) -> bool:
        """Drop one user; closes the mapping at zero.  Returns ``closed?``."""
        with self._lock:
            if self._views is None:
                return True
            self._refcount -= 1
            if self._refcount > 0:
                return False
        self.close()
        return True

    def close(self) -> None:
        """Drop the views and unmap (idempotent; deferred if views escaped)."""
        with self._lock:
            if self._views is None:
                return
            self._views = None
            self._refcount = 0
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - caller kept a view alive
            # numpy views into the buffer still exist somewhere; the mapping
            # is reclaimed at process exit instead.  Not a segment leak: the
            # name is the parent's to unlink.
            pass


def attach_sweep(descriptor: SweepDescriptor) -> ShmAttachment:
    """Attach a published sweep read-only (raises ``FileNotFoundError`` when
    the parent has already invalidated it)."""
    return ShmAttachment(descriptor)
