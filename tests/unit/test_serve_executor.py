"""Unit tests for the executor's sweep materialisation and sweep cache.

Covers the read-only sampled-weight sweep that ``TileExecutor`` caches and
replays (byte-equal to the scalar ``mu + eps * sigma`` expression), the
``EpsilonCache`` LRU (promote-on-get, refresh on put, bounded size), and the
per-version isolation of ``MultiVersionExecutor`` (private caches,
invalidation, load/unload, per-request version errors).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import mc_predict
from repro.core import StreamOrderError
from repro.models.zoo import ReplicaSpec, get_model
from repro.obs.trace import StageRecorder
from repro.serve.executor import (
    EpsilonCache,
    MultiVersionExecutor,
    SamplingConfig,
    TileExecutor,
    materialize_epsilon_sweep,
    materialize_weight_sweep,
)
from repro.serve.registry import UnknownVersionError

# conv and dense weight shapes in one sweep
MODEL = get_model("B-LeNet", reduced=True).build_bayesian(seed=21)
CONFIG = SamplingConfig(n_samples=4, seed=11)


def _expected_sweep(model=MODEL, config=CONFIG) -> list[np.ndarray]:
    """The scalar sampler's expression over the standalone epsilon sweep."""
    posteriors = [layer.weight_posterior for layer in model.bayesian_layers()]
    epsilons = materialize_epsilon_sweep([p.shape for p in posteriors], config)
    return [
        posterior.mu.value + epsilon * posterior.sigma
        for posterior, epsilon in zip(posteriors, epsilons)
    ]


def test_materialised_weights_are_read_only_and_match_the_scalar_expression():
    sweep = materialize_weight_sweep(MODEL, CONFIG)
    for block, ref in zip(sweep, _expected_sweep()):
        assert not block.flags.writeable
        assert block.tobytes() == ref.tobytes()


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


@pytest.mark.parametrize("bound", [0, -1])
def test_epsilon_cache_refuses_a_non_positive_bound(bound):
    with pytest.raises(ValueError, match="max_entries"):
        EpsilonCache(max_entries=bound)


def test_epsilon_cache_clear_drops_entries_but_keeps_counters():
    cache = EpsilonCache(max_entries=2)
    config = SamplingConfig(seed=1)
    cache.put(config, [np.zeros(1)])
    assert cache.get(config) is not None
    cache.clear()
    assert len(cache) == 0
    assert cache.get(config) is None
    assert (cache.hits, cache.misses) == (1, 1)


# ----------------------------------------------------------------------
# TileExecutor sweep cache: built once per config, replayed read-only
# ----------------------------------------------------------------------
def _replica(seed: int) -> ReplicaSpec:
    spec = get_model("B-LeNet", reduced=True)
    return ReplicaSpec.capture(spec, spec.build_bayesian(seed=seed))


def _inputs(rows: int = 5) -> np.ndarray:
    shape = (rows,) + tuple(get_model("B-LeNet", reduced=True).input_shape)
    return np.random.default_rng(2).normal(size=shape)


def _mc_reference(replica: ReplicaSpec, x: np.ndarray, config=CONFIG) -> np.ndarray:
    return mc_predict(
        replica.build(),
        x,
        n_samples=config.n_samples,
        seed=config.seed,
        grng_stride=config.grng_stride,
    ).sample_probabilities


def test_second_request_replays_the_cached_sweep_read_only():
    replica = _replica(3)
    executor = TileExecutor(replica.build())
    x = _inputs()
    cold = executor.execute_one(x, CONFIG)
    (sweep,) = executor.cache._entries.values()
    warm = executor.execute_one(x, CONFIG)
    assert (executor.cache.hits, executor.cache.misses) == (1, 1)
    (replayed,) = executor.cache._entries.values()
    assert replayed is sweep  # the same tensors, not a rebuild
    assert all(not block.flags.writeable for block in sweep)
    reference = _mc_reference(replica, x)
    assert cold.tobytes() == warm.tobytes() == reference.tobytes()


def test_a_sweep_the_forward_pass_does_not_consume_is_refused():
    executor = TileExecutor(_replica(3).build())
    sweep = materialize_weight_sweep(executor.model, CONFIG)
    executor.cache.put(CONFIG, sweep + sweep[-1:])
    with pytest.raises(StreamOrderError, match="consumed 4 of the cached sweep's 5"):
        executor.execute_one(_inputs(), CONFIG)



def test_a_sweep_shorter_than_the_forward_pass_is_refused():
    executor = TileExecutor(_replica(3).build())
    sweep = materialize_weight_sweep(executor.model, CONFIG)
    executor.cache.put(CONFIG, sweep[:-1])
    with pytest.raises(StreamOrderError, match="more blocks than the cached schedule"):
        executor.execute_one(_inputs(), CONFIG)


def test_a_sweep_block_of_the_wrong_shape_is_refused():
    executor = TileExecutor(_replica(3).build())
    sweep = materialize_weight_sweep(executor.model, CONFIG)
    executor.cache.put(CONFIG, sweep[1:] + sweep[:1])
    with pytest.raises(StreamOrderError, match="cached weight block has shape"):
        executor.execute_one(_inputs(), CONFIG)

def test_sweep_cache_holds_one_entry_per_config():
    executor = TileExecutor(_replica(3).build())
    x = _inputs()
    other = SamplingConfig(n_samples=4, seed=12)
    first = executor.execute_one(x, CONFIG)
    second = executor.execute_one(x, other)
    again = executor.execute_one(x, CONFIG)
    assert len(executor.cache) == 2
    assert (executor.cache.hits, executor.cache.misses) == (1, 2)
    assert first.tobytes() == again.tobytes()
    assert first.tobytes() != second.tobytes()


# ----------------------------------------------------------------------
# MultiVersionExecutor: one private executor (and cache) per version
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def replicas() -> dict[str, ReplicaSpec]:
    return {"v1": _replica(3), "v2": _replica(4)}


def test_multi_version_executor_refuses_an_empty_replica_map():
    with pytest.raises(ValueError, match="at least one"):
        MultiVersionExecutor({})


def test_same_config_on_two_versions_answers_with_each_versions_bytes(replicas):
    executor = MultiVersionExecutor(replicas)
    x = _inputs()
    outcomes = executor.execute([(x, CONFIG, "v1"), (x, CONFIG, "v2")])
    for version, (probabilities, error) in zip(replicas, outcomes):
        assert error is None
        assert probabilities.tobytes() == _mc_reference(replicas[version], x).tobytes()
        cache = executor.executor_for(version).cache
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)
    assert outcomes[0][0].tobytes() != outcomes[1][0].tobytes()


def test_invalidate_drops_only_that_versions_sweeps(replicas):
    executor = MultiVersionExecutor(replicas)
    x = _inputs()
    executor.execute([(x, CONFIG, "v1"), (x, CONFIG, "v2")])
    executor.invalidate("v1")
    executor.invalidate("v9")  # unknown versions are a no-op
    assert len(executor.executor_for("v1").cache) == 0
    assert len(executor.executor_for("v2").cache) == 1
    # the dropped sweep regenerates to the same bytes
    ((probabilities, error),) = executor.execute([(x, CONFIG, "v1")])
    assert error is None
    assert probabilities.tobytes() == _mc_reference(replicas["v1"], x).tobytes()


def test_request_for_an_unloaded_version_fails_alone(replicas):
    executor = MultiVersionExecutor({"v1": replicas["v1"]})
    x = _inputs()
    outcomes = executor.execute(
        [(x, CONFIG, "v1"), (x, CONFIG, "v2"), (x, CONFIG, "v1")]
    )
    assert outcomes[0][1] is None and outcomes[2][1] is None
    assert isinstance(outcomes[1][1], UnknownVersionError)
    assert outcomes[1][0] is None
    assert outcomes[0][0].tobytes() == outcomes[2][0].tobytes()


def test_load_is_idempotent_and_unload_forgets_the_version(replicas):
    executor = MultiVersionExecutor({"v1": replicas["v1"]})
    executor.load("v2", replicas["v2"])
    installed = executor.executor_for("v2")
    executor.load("v2", replicas["v2"])
    assert executor.executor_for("v2") is installed
    assert executor.versions() == ["v1", "v2"]
    executor.unload("v2")
    executor.unload("v2")  # unloading twice is harmless
    assert executor.versions() == ["v1"]
    with pytest.raises(UnknownVersionError):
        executor.executor_for("v2")


def test_versions_loaded_later_inherit_the_attached_stage_recorder(replicas):
    executor = MultiVersionExecutor({"v1": replicas["v1"]})
    recorder = StageRecorder()
    executor.attach_stage_recorder(recorder)
    executor.load("v2", replicas["v2"])
    assert executor.executor_for("v1").stage_recorder is recorder
    assert executor.executor_for("v2").stage_recorder is recorder
    executor.attach_stage_recorder(None)
    assert executor.executor_for("v2").stage_recorder is None
