"""Bit-exactness of the serving subsystem against per-request ``mc_predict``.

The serving front-end's contract is that pooling and caching change
throughput, never bytes: for every request, the served
answer equals ``mc_predict`` run standalone on the same model and sampling
configuration.  These tests check that equality across

* mixed request batch sizes pooled into shared tiles,
* multiple interleaved sampling configurations (distinct seeds / sample
  counts hitting different sweep-cache entries),
* dense and convolutional models,
* a trained (not just initialised) model, and
* deploy / rollback between versions that share a sampling configuration
  (a version's cached sampled weights are never replayed for another).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from conftest import sequential_mc_predict
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


def _serve_all(replica, requests):
    """Submit every request concurrently and gather results in order."""
    config = ServerConfig(max_batch_rows=48, max_wait_ms=2.0)
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


def test_served_answers_equal_mc_predict_dense():
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
    served = _serve_all(ReplicaSpec.capture(spec, model), requests)
    for result, reference in zip(served, expected):
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )
        # the uncertainty path is the same predictive_entropy code
        assert np.array_equal(result.entropy, reference.entropy)
        assert np.array_equal(result.predictions, reference.predictions)


def test_served_answers_equal_mc_predict_conv():
    spec = get_model("B-LeNet", reduced=True)
    model = spec.build_bayesian(seed=4)
    rng = np.random.default_rng(13)
    cfg = SamplingConfig(n_samples=3, seed=1, grng_stride=64)
    requests = [(rng.normal(size=(rows, 3, 16, 16)), cfg) for rows in (4, 6, 2)]
    expected = _reference(model, requests)
    served = _serve_all(ReplicaSpec.capture(spec, model), requests)
    for result, reference in zip(served, expected):
        assert np.array_equal(
            result.sample_probabilities, reference.sample_probabilities
        )


@pytest.mark.parametrize("stride", [1, 256])
def test_concurrent_clients_pool_and_stay_bit_exact(stride):
    """Eight client threads, four 16-row requests each, all at once."""
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=42)
    rng = np.random.default_rng(7)
    cfg = SamplingConfig(n_samples=8, seed=0, grng_stride=stride)
    groups = [[rng.normal(size=(16, 196)) for _ in range(4)] for _ in range(8)]
    expected = [_reference(model, [(x, cfg) for x in group]) for group in groups]
    answers: dict[int, list] = {}
    # a generous wait: every tile fills to its 64 rows before the deadline
    config = ServerConfig(max_batch_rows=64, max_wait_ms=50.0, max_pending_rows=512)
    with PredictionServer(ReplicaSpec.capture(spec, model), config) as server:
        start = threading.Barrier(len(groups))

        def client(index: int) -> None:
            start.wait(timeout=30.0)
            futures = [server.submit(x, cfg) for x in groups[index]]
            answers[index] = [future.result(timeout=120.0) for future in futures]

        threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        snapshot = server.stats()
    for index, group in enumerate(expected):
        for result, reference in zip(answers[index], group):
            assert (
                result.sample_probabilities.tobytes()
                == reference.sample_probabilities.tobytes()
            )
    assert snapshot.requests_completed == 32
    assert snapshot.mean_batch_occupancy > 1.0  # separate clients pooled


def test_trained_model_serves_bit_exactly():
    """Replica capture -> rebuild preserves a *trained* parameter set."""
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
    served = _serve_all(ReplicaSpec.capture(spec, model), requests)
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
    # and the samples one at a time agree
    sequential = sequential_mc_predict(model, x, n_samples=4, seed=2, grng_stride=64)
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
@pytest.mark.parametrize("name", ["B-MLP", "B-LeNet"])
def test_weight_sweeps_never_cross_versions(name, fused, monkeypatch):
    """Same config, different parameters: every answer is its own version's.

    The cached sweep is ``mu + sigma * eps`` -- it depends on the version,
    not only on the config -- so a deploy / rollback / canary sequence that
    keeps reusing ONE config is the adversarial case: v1's weights replayed
    for v2 would still have the right shapes.
    """
    monkeypatch.setenv("REPRO_FUSED", fused)
    # the draw (build seeds, config, rows) differs per case but is reproducible
    rng = np.random.default_rng([0, len(name), len(fused)])
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

    server_config = ServerConfig(max_batch_rows=48, max_wait_ms=2.0)
    with PredictionServer(registry, server_config) as server:
        check(server, "v1")  # cold miss
        check(server, "v1")  # warm hit
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
        trainer.train_step(*batches[1])
        second = server.predict(x, cfg)
    for parameter, before in zip(model.parameters(), snapshot):
        # still the optimizer's to write (an arena parameter cannot be frozen)
        assert parameter.arena is trainer.optimizer.arena
        assert not np.array_equal(parameter.value, before)
    moved = mc_predict(model, x, n_samples=4, seed=0, grng_stride=64)
    assert not np.array_equal(moved.sample_probabilities, captured.sample_probabilities)
    for served in (first, second):
        assert np.array_equal(
            served.sample_probabilities, captured.sample_probabilities
        )
