"""Bit-exactness of the serving subsystem against per-request ``mc_predict``.

The serving front-end's contract is that pooling, caching and worker
sharding change throughput, never bytes: for every request, the served
answer equals ``mc_predict`` run standalone on the same model and sampling
configuration.  These tests check that equality across

* pool sizes 0 (inline), 1 and 2 workers (the union-of-workers property),
* mixed request batch sizes pooled into shared tiles,
* multiple interleaved sampling configurations (distinct seeds / sample
  counts hitting different sweep-cache entries),
* dense and convolutional models,
* a trained (not just initialised) model, and
* deploy / rollback between versions that share a sampling configuration
  (a version's cached sampled weights are never replayed for another).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bnn import ShiftBNNTrainer, TrainerConfig, mc_predict
from repro.datasets import BatchLoader, synthetic_mnist
from repro.models import ReplicaSpec, get_model
from repro.serve import (
    ModelRegistry,
    PredictionServer,
    SamplingConfig,
    ServerConfig,
    TileExecutor,
)
from repro.serve.executor import MultiVersionExecutor
from repro.serve.shm_cache import SharedEpsilonStore, attach_sweep


def _serve_all(replica, requests, n_workers):
    """Submit every request concurrently and gather results in order."""
    config = ServerConfig(
        n_workers=n_workers, max_batch_rows=48, max_wait_ms=2.0
    )
    with PredictionServer(replica, config) as server:
        futures = [server.submit(x, cfg) for x, cfg in requests]
        return [future.result(timeout=120.0) for future in futures]


def _reference(model, requests):
    return [
        mc_predict(
            model,
            x,
            n_samples=cfg.n_samples,
            seed=cfg.seed,
            grng_stride=cfg.grng_stride,
            lfsr_bits=cfg.lfsr_bits,
        )
        for x, cfg in requests
    ]


@pytest.mark.parametrize("n_workers", [0, 1, 2])
def test_served_answers_equal_mc_predict_dense(n_workers):
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=21)
    rng = np.random.default_rng(77)
    cfg_a = SamplingConfig(n_samples=4, seed=2, grng_stride=64)
    cfg_b = SamplingConfig(n_samples=6, seed=9, grng_stride=64)
    requests = [
        (rng.normal(size=(rows, 196)), cfg)
        for rows, cfg in [
            (16, cfg_a),
            (8, cfg_a),
            (24, cfg_b),
            (16, cfg_a),
            (4, cfg_b),
            (40, cfg_a),  # larger than one tile's leftover space
        ]
    ]
    expected = _reference(model, requests)
    served = _serve_all(ReplicaSpec.capture(spec, model), requests, n_workers)
    for result, reference in zip(served, expected):
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )
        # the uncertainty path is the same predictive_entropy code
        assert np.array_equal(result.entropy, reference.entropy)
        assert np.array_equal(result.predictions, reference.predictions)


@pytest.mark.parametrize("n_workers", [0, 2])
def test_served_answers_equal_mc_predict_conv(n_workers):
    spec = get_model("B-LeNet", reduced=True)
    model = spec.build_bayesian(seed=4)
    rng = np.random.default_rng(13)
    cfg = SamplingConfig(n_samples=3, seed=1, grng_stride=64)
    requests = [(rng.normal(size=(rows, 3, 16, 16)), cfg) for rows in (4, 6, 2)]
    expected = _reference(model, requests)
    served = _serve_all(ReplicaSpec.capture(spec, model), requests, n_workers)
    for result, reference in zip(served, expected):
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )


def test_trained_model_serves_bit_exactly_through_workers():
    """Replica capture -> worker rebuild preserves a *trained* parameter set."""
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(n_train=96, n_test=32, image_size=14, seed=3)
    trainer = ShiftBNNTrainer(
        spec.build_bayesian(seed=8),
        TrainerConfig(n_samples=2, learning_rate=5e-3, seed=1, grng_stride=64),
    )
    trainer.fit(BatchLoader(train, batch_size=32, flatten=True).batches(), epochs=1)
    model = trainer.model
    rng = np.random.default_rng(5)
    cfg = SamplingConfig(n_samples=4, seed=0, grng_stride=64)
    requests = [(rng.normal(size=(8, 196)), cfg) for _ in range(3)]
    expected = _reference(model, requests)
    served = _serve_all(ReplicaSpec.capture(spec, model), requests, n_workers=2)
    for result, reference in zip(served, expected):
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )


def test_mc_predict_out_buffer_is_bit_identical():
    """The ``out=`` reuse path changes allocations, never bytes."""
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=21)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 196))
    plain = mc_predict(model, x, n_samples=4, seed=2, grng_stride=64)
    buffer = np.full((4, 8, 10), np.nan)
    reused = mc_predict(model, x, n_samples=4, seed=2, grng_stride=64, out=buffer)
    assert reused.sample_probabilities is buffer
    assert np.array_equal(buffer, plain.sample_probabilities)
    # the per-sample escape hatch honours out= identically
    sequential = mc_predict(
        model, x, n_samples=4, seed=2, grng_stride=64, batched=False,
        out=np.empty_like(buffer),
    )
    assert np.array_equal(sequential.sample_probabilities, buffer)


def test_tile_executor_cache_hits_do_not_change_bytes():
    """Cold (generate) and warm (cached replay) answers are identical."""
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=21)
    executor = TileExecutor(spec.build_bayesian(seed=21))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(8, 196))
    cfg = SamplingConfig(n_samples=4, seed=2, grng_stride=64)
    cold = executor.execute_one(x, cfg)
    assert executor.cache.misses == 1
    warm = executor.execute_one(x, cfg)
    assert executor.cache.hits == 1
    assert np.array_equal(cold, warm)
    reference = mc_predict(model, x, n_samples=4, seed=2, grng_stride=64)
    assert np.array_equal(cold, reference.sample_probabilities)


def _request_shape(spec) -> tuple[int, ...]:
    if spec.flatten_input:
        return (int(np.prod(spec.input_shape)),)
    return tuple(spec.input_shape)


@pytest.mark.parametrize("fused", ["auto", "0"])
@pytest.mark.parametrize("n_workers", [0, 2])
@pytest.mark.parametrize("name", ["B-MLP", "B-LeNet"])
def test_weight_sweeps_never_cross_versions(name, n_workers, fused, monkeypatch):
    """Same config, different parameters: every answer is its own version's.

    The cached sweep is ``mu + sigma * eps`` -- it depends on the version,
    not only on the config -- so a deploy / rollback / canary sequence that
    keeps reusing ONE config is the adversarial case: v1's weights replayed
    for v2 would still have the right shapes.
    """
    monkeypatch.setenv("REPRO_FUSED", fused)  # forked workers inherit it
    # the draw (build seeds, config, rows) differs per case but is reproducible
    rng = np.random.default_rng([n_workers, len(name), len(fused)])
    seed_v1, seed_v2 = (int(s) for s in rng.choice(2**16, size=2, replace=False))
    spec = get_model(name, reduced=True)
    config = SamplingConfig(
        n_samples=int(rng.integers(1, 5)),
        seed=int(rng.integers(2**31)),
        grng_stride=int(rng.choice([64, 256])),
    )
    xs = [
        rng.standard_normal((int(rows),) + _request_shape(spec))
        for rows in rng.integers(1, 9, size=3)
    ]
    oracle = {
        "v1": [r.sample_probabilities for r in _reference(
            spec.build_bayesian(seed=seed_v1), [(x, config) for x in xs])],
        "v2": [r.sample_probabilities for r in _reference(
            spec.build_bayesian(seed=seed_v2), [(x, config) for x in xs])],
    }
    assert not np.array_equal(oracle["v1"][0], oracle["v2"][0])
    registry = ModelRegistry()
    registry.register(
        "v1", ReplicaSpec.capture(spec, spec.build_bayesian(seed=seed_v1))
    )
    registry.register(
        "v2", ReplicaSpec.capture(spec, spec.build_bayesian(seed=seed_v2))
    )
    registry.deploy("v1")

    def check(server, expected_version, pin=None):
        futures = [server.submit(x, config, version=pin) for x in xs]
        for future, want in zip(futures, oracle[expected_version]):
            got = future.result(timeout=120.0).sample_probabilities
            assert np.array_equal(got, want), f"not {expected_version}'s bytes"

    server_config = ServerConfig(n_workers=n_workers, max_batch_rows=48, max_wait_ms=2.0)
    with PredictionServer(registry, server_config) as server:
        check(server, "v1")  # cold miss
        check(server, "v1")  # warm hit
        if n_workers:
            # the parent built ONE shared sweep and every worker adopted it
            (descriptor,) = server._shm_store.descriptors()
            assert descriptor.key() == ("v1", config)
            assert server._pool.last_control_error is None
        server.deploy("v2")
        check(server, "v2")  # v1's sweep for this config must not be reused
        check(server, "v1", pin="v1")  # demoted + invalidated: rebuilt from v1
        check(server, "v2")
        server.rollback()
        check(server, "v1")
        check(server, "v2", pin="v2")
        fusion = server.stats().fusion
    if fused == "0":
        assert fusion["fused_requests"] == 0 and fusion["fallback_disabled"] > 0


def test_attached_shared_sweep_is_replayed_not_rebuilt():
    """Pool mode in one process: publish -> attach -> install -> warm hit."""
    spec = get_model("B-LeNet", reduced=True)
    replicas = {
        "v1": ReplicaSpec.capture(spec, spec.build_bayesian(seed=3)),
        "v2": ReplicaSpec.capture(spec, spec.build_bayesian(seed=4)),
    }
    config = SamplingConfig(n_samples=3, seed=8, grng_stride=64)
    x = np.random.default_rng(2).normal(size=(5,) + tuple(spec.input_shape))
    executor = MultiVersionExecutor(replicas)
    with SharedEpsilonStore() as store:
        attachments = []
        for version, replica in replicas.items():
            published = replica.build()
            published.freeze()
            attachment = attach_sweep(store.publish(version, config, published))
            executor.install_sweep(version, config, attachment.weights)
            attachments.append(attachment)
        outcomes = executor.execute([(x, config, "v1"), (x, config, "v2")])
        for attachment in attachments:
            executor.invalidate(attachment.descriptor.version)
            attachment.release()
    for version, (probabilities, error) in zip(replicas, outcomes):
        assert error is None
        cache = executor.executor_for(version).cache
        assert (cache.hits, cache.misses) == (1, 0)  # the segment was replayed
        reference = mc_predict(
            replicas[version].build(), x, n_samples=3, seed=8, grng_stride=64
        )
        assert np.array_equal(probabilities, reference.sample_probabilities)
    assert not np.array_equal(outcomes[0][0], outcomes[1][0])


def test_training_model_is_never_frozen_by_serving_its_capture():
    """Capture + serve, keep training: the model updates, the server does not."""
    spec = get_model("B-MLP", reduced=True)
    train, _ = synthetic_mnist(n_train=64, n_test=32, image_size=14, seed=3)
    batches = list(BatchLoader(train, batch_size=32, flatten=True).batches())
    model = spec.build_bayesian(seed=8)
    trainer = ShiftBNNTrainer(
        model, TrainerConfig(n_samples=2, learning_rate=5e-3, seed=1, grng_stride=64)
    )
    trainer.train_step(*batches[0])
    cfg = SamplingConfig(n_samples=4, seed=0, grng_stride=64)
    x = np.random.default_rng(5).normal(size=(8, 196))
    captured = mc_predict(model, x, n_samples=4, seed=0, grng_stride=64)
    with PredictionServer(ReplicaSpec.capture(spec, model)) as server:
        first = server.predict(x, cfg)
        snapshot = [parameter.value.copy() for parameter in model.parameters()]
        trainer.train_step(*batches[1])  # raises if serving froze the model
        second = server.predict(x, cfg)
    for parameter, before in zip(model.parameters(), snapshot):
        assert parameter.value.flags.writeable
        assert not np.array_equal(parameter.value, before)
    moved = mc_predict(model, x, n_samples=4, seed=0, grng_stride=64)
    assert not np.array_equal(moved.sample_probabilities, captured.sample_probabilities)
    for served in (first, second):
        assert np.array_equal(
            served.sample_probabilities, captured.sample_probabilities
        )
