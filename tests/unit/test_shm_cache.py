"""Unit tests for the shared-memory weight-sweep store and the sweep caches.

Covers the parent-owns-segments lifecycle (publish idempotence, invalidate
on deploy/rollback, close), the worker-side attachment discipline
(read-only views, refcounts, crash safety: a dying attacher must never
unlink the parent's live segment), the structural sub-linear-RSS property
(N attachers share ONE segment), plus regression locks on the in-process
``EpsilonCache`` LRU (promote-on-get) and on
``TileExecutor.install_sweep`` schedule / sample-count validation.
"""

from __future__ import annotations

import glob
import multiprocessing
import os

import numpy as np
import pytest

from repro.core.streams import StreamOrderError
from repro.models.zoo import get_model
from repro.serve.executor import (
    EpsilonCache,
    SamplingConfig,
    TileExecutor,
    materialize_epsilon_sweep,
    materialize_weight_sweep,
)
from repro.serve.shm_cache import (
    SharedEpsilonStore,
    attach_sweep,
    sweep_nbytes,
)

# conv and dense weight shapes in one sweep
MODEL = get_model("B-LeNet", reduced=True).build_bayesian(seed=21)
SHAPES = [layer.weight_posterior.shape for layer in MODEL.bayesian_layers()]
CONFIG = SamplingConfig(n_samples=4, seed=11)


def _expected_sweep(model=MODEL, config=CONFIG) -> list[np.ndarray]:
    """The scalar sampler's expression over the standalone epsilon sweep."""
    posteriors = [layer.weight_posterior for layer in model.bayesian_layers()]
    epsilons = materialize_epsilon_sweep([p.shape for p in posteriors], config)
    return [
        posterior.mu.value + epsilon * posterior.sigma
        for posterior, epsilon in zip(posteriors, epsilons)
    ]


def _segment_path(descriptor) -> str:
    return f"/dev/shm/{descriptor.segment}"


# ----------------------------------------------------------------------
# store lifecycle
# ----------------------------------------------------------------------
def test_publish_round_trips_the_materialised_sweep():
    with SharedEpsilonStore() as store:
        descriptor = store.publish("v1", CONFIG, MODEL)
        assert descriptor.nbytes == sweep_nbytes(SHAPES, CONFIG.n_samples)
        attachment = attach_sweep(descriptor)
        expected = _expected_sweep()
        got = attachment.weights
        assert len(got) == len(expected)
        for view, ref in zip(got, expected):
            assert view.shape == ref.shape
            assert view.tobytes() == ref.tobytes()
        attachment.release()


def test_views_are_read_only():
    with SharedEpsilonStore() as store:
        attachment = attach_sweep(store.publish("v1", CONFIG, MODEL))
        view = attachment.weights[0]
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0, 0, 0] = 1.0
        attachment.release()


def test_publish_is_idempotent_per_key_and_distinct_per_config():
    with SharedEpsilonStore() as store:
        first = store.publish("v1", CONFIG, MODEL)
        assert store.publish("v1", CONFIG, MODEL) is first
        other = store.publish("v1", SamplingConfig(n_samples=4, seed=99), MODEL)
        assert other.segment != first.segment
        assert other.generation > first.generation
        assert len(store.descriptors()) == 2


def test_invalidate_unlinks_only_that_version():
    with SharedEpsilonStore() as store:
        v1 = store.publish("v1", CONFIG, MODEL)
        v2 = store.publish("v2", CONFIG, MODEL)
        assert store.invalidate("v1") == 1
        assert not os.path.exists(_segment_path(v1))
        assert os.path.exists(_segment_path(v2))
        with pytest.raises(FileNotFoundError):
            attach_sweep(v1)  # fresh attaches fail fast -> private fallback
        attach_sweep(v2).release()
        assert [d.version for d in store.descriptors()] == ["v2"]


def test_close_unlinks_everything_and_refuses_new_publishes():
    store = SharedEpsilonStore()
    descriptor = store.publish("v1", CONFIG, MODEL)
    store.close()
    assert not os.path.exists(_segment_path(descriptor))
    assert store.descriptors() == []
    store.close()  # idempotent
    with pytest.raises(RuntimeError):
        store.publish("v1", CONFIG, MODEL)


# ----------------------------------------------------------------------
# attachment refcounts
# ----------------------------------------------------------------------
def test_attachment_refcounting():
    with SharedEpsilonStore() as store:
        attachment = attach_sweep(store.publish("v1", CONFIG, MODEL))
        assert attachment.refcount == 1 and not attachment.closed
        assert attachment.acquire() is attachment
        assert attachment.refcount == 2
        assert attachment.release() is False  # still one user
        assert not attachment.closed
        assert attachment.release() is True  # last user: unmapped
        assert attachment.closed
        with pytest.raises(RuntimeError):
            _ = attachment.weights
        with pytest.raises(RuntimeError):
            attachment.acquire()
        assert attachment.release() is True  # further releases are no-ops


def test_attachment_close_is_idempotent():
    with SharedEpsilonStore() as store:
        attachment = attach_sweep(store.publish("v1", CONFIG, MODEL))
        attachment.close()
        attachment.close()
        assert attachment.closed and attachment.refcount == 0


# ----------------------------------------------------------------------
# crash safety + shared-copy structure
# ----------------------------------------------------------------------
def _attach_check_and_die(descriptor, expected_bytes, ok_queue):
    attachment = attach_sweep(descriptor)
    blobs = [view.tobytes() for view in attachment.weights]
    ok_queue.put(blobs == expected_bytes)
    ok_queue.close()
    ok_queue.join_thread()  # flush: _exit would race the feeder thread
    # die WITHOUT detaching or running any cleanup: a crashed worker must
    # not take the parent's segment down with it
    os._exit(0)


def test_worker_crash_cannot_unlink_or_leak_the_segment():
    ctx = multiprocessing.get_context("fork")
    before = set(glob.glob("/dev/shm/psm_*"))
    with SharedEpsilonStore() as store:
        descriptor = store.publish("v1", CONFIG, MODEL)
        expected = [block.tobytes() for block in _expected_sweep()]
        ok_queue = ctx.Queue()
        worker = ctx.Process(
            target=_attach_check_and_die, args=(descriptor, expected, ok_queue)
        )
        worker.start()
        assert ok_queue.get(timeout=30) is True
        worker.join(timeout=30)
        # the parent's segment survived the attacher's abrupt death...
        assert os.path.exists(_segment_path(descriptor))
        attach_sweep(descriptor).release()
    # ...and close() still owned (and removed) it: nothing leaked
    assert set(glob.glob("/dev/shm/psm_*")) - before == set()


def test_n_attachers_share_one_physical_segment():
    # the structural form of the sub-linear-RSS claim: however many workers
    # attach, exactly ONE segment of sweep bytes exists on the machine
    # (each worker maps it instead of materialising a private copy); the
    # serving benchmark records the resulting RSS behaviour
    ctx = multiprocessing.get_context("fork")
    before = set(glob.glob("/dev/shm/psm_*"))
    with SharedEpsilonStore() as store:
        descriptor = store.publish("v1", CONFIG, MODEL)
        expected = [block.tobytes() for block in _expected_sweep()]
        ok_queue = ctx.Queue()
        workers = [
            ctx.Process(
                target=_attach_check_and_die, args=(descriptor, expected, ok_queue)
            )
            for _ in range(3)
        ]
        for worker in workers:
            worker.start()
        assert all(ok_queue.get(timeout=30) for _ in workers)
        for worker in workers:
            worker.join(timeout=30)
        assert len(set(glob.glob("/dev/shm/psm_*")) - before) == 1
    assert set(glob.glob("/dev/shm/psm_*")) - before == set()


# ----------------------------------------------------------------------
# TileExecutor.install_sweep (the worker-side adoption hook)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mlp_executor():
    spec = get_model("B-MLP", reduced=True)
    return spec, TileExecutor(spec.build_bayesian(seed=21))


def test_install_sweep_serves_identical_bytes(mlp_executor):
    spec, executor = mlp_executor
    config = SamplingConfig(n_samples=4, seed=5)
    reference = TileExecutor(spec.build_bayesian(seed=21))
    x = np.random.default_rng(0).standard_normal((6, 196))
    want = reference.execute_one(x, config)  # private materialisation
    executor.install_sweep(
        config, materialize_weight_sweep(spec.build_bayesian(seed=21), config)
    )
    hits = executor.cache.hits
    got = executor.execute_one(x, config)
    assert executor.cache.hits == hits + 1  # replayed, not rebuilt
    assert got.tobytes() == want.tobytes()


def test_materialised_weights_are_read_only_and_match_the_scalar_expression():
    sweep = materialize_weight_sweep(MODEL, CONFIG)
    for block, ref in zip(sweep, _expected_sweep()):
        assert not block.flags.writeable
        assert block.tobytes() == ref.tobytes()


def test_install_sweep_rejects_schedule_mismatch(mlp_executor):
    spec, executor = mlp_executor
    config = SamplingConfig(n_samples=4, seed=6)
    with pytest.raises(StreamOrderError):
        executor.install_sweep(config, materialize_weight_sweep(MODEL, config))
    with pytest.raises(StreamOrderError):
        # right schedule, wrong sample count
        wrong = materialize_weight_sweep(
            spec.build_bayesian(seed=21), SamplingConfig(n_samples=2, seed=6)
        )
        executor.install_sweep(config, wrong)
    assert executor.cache.get(config) is None  # nothing rejected was adopted


# ----------------------------------------------------------------------
# EpsilonCache LRU regression (promote-on-get)
# ----------------------------------------------------------------------
def test_epsilon_cache_get_promotes_entry():
    # regression lock: eviction order must be least-RECENTLY-USED, i.e. a
    # get() refreshes the entry -- an insertion-order cache would evict the
    # hottest config under a rotating set of cold ones
    cache = EpsilonCache(max_entries=2)
    hot = SamplingConfig(seed=1)
    cold_a = SamplingConfig(seed=2)
    cold_b = SamplingConfig(seed=3)
    cache.put(hot, [np.zeros(1)])
    cache.put(cold_a, [np.zeros(1)])
    assert cache.get(hot) is not None  # touch: hot becomes most recent
    cache.put(cold_b, [np.zeros(1)])  # evicts cold_a, NOT hot
    assert cache.get(hot) is not None
    assert cache.get(cold_a) is None
    assert cache.get(cold_b) is not None


def test_epsilon_cache_put_refreshes_and_bounds():
    cache = EpsilonCache(max_entries=2)
    a, b, c = (SamplingConfig(seed=s) for s in (1, 2, 3))
    cache.put(a, [np.zeros(1)])
    cache.put(b, [np.zeros(1)])
    cache.put(a, [np.ones(1)])  # refresh moves a to most-recent
    cache.put(c, [np.zeros(1)])  # evicts b
    assert cache.get(b) is None
    entry = cache.get(a)
    assert entry is not None and entry[0][0] == 1.0
    assert len(cache) == 2
