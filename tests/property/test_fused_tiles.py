"""Property tests for fused serving tiles: bit-exactness and honest fallback.

The serving contract is that pooling NEVER changes bytes: every request's
probabilities must equal a standalone ``mc_predict`` with the same sampling
configuration.  Tile fusion (one folded forward per same-config group)
re-derives that contract from the runtime row-stability proof, so these
tests pin both sides of it:

* when the probe passes, fused tiles are byte-identical to per-request
  ``mc_predict`` -- including adversarial 1-row requests and conv models;
* when fusion cannot run (``REPRO_FUSED=0``, or a force-failed stability
  verdict), the executor falls back to the per-request path, the bytes stay
  identical, and the fallback is COUNTED in the fusion events -- never
  silent;
* the cached sampled-weight sweep a tile replays never changes bytes through
  its whole life (cold miss, warm hit, LRU eviction, re-materialisation),
  costs a warm tile no weight build at all, and cannot go stale: the served
  replica is frozen.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bnn import posteriors
from repro.bnn.predict import mc_predict
from repro.core import stability
from repro.core.sampler import BatchedWeightSampler
from repro.core.stability import RowStabilityProbe
from repro.models.zoo import get_model
from repro.serve.executor import SamplingConfig, TileExecutor

CONFIG = SamplingConfig(n_samples=6, seed=1234)


def _mlp_requests():
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=21)
    rng = np.random.default_rng(7)
    # adversarial row mix: 1-row requests, primes, a larger block
    xs = [rng.standard_normal((rows, 196)) for rows in (1, 5, 16, 1, 7)]
    return model, xs


def _lenet_requests():
    spec = get_model("B-LeNet", reduced=True)
    model = spec.build_bayesian(seed=21)
    rng = np.random.default_rng(8)
    xs = [
        rng.standard_normal((rows,) + spec.input_shape) for rows in (1, 3, 4, 2)
    ]
    return model, xs


def _reference(model, x, config):
    return mc_predict(
        model,
        x,
        n_samples=config.n_samples,
        seed=config.seed,
        grng_stride=config.grng_stride,
        lfsr_bits=config.lfsr_bits,
    ).sample_probabilities


def _assert_tile_matches_mc_predict(model, xs, executor=None):
    executor = executor or TileExecutor(model)
    outcomes = executor.execute([(x, CONFIG) for x in xs])
    for x, (probabilities, error) in zip(xs, outcomes):
        assert error is None
        assert (
            probabilities.tobytes() == _reference(model, x, CONFIG).tobytes()
        ), "pooled result diverged from standalone mc_predict"
    return executor.consume_fusion_events()


@pytest.mark.parametrize("build", [_mlp_requests, _lenet_requests], ids=["mlp", "lenet"])
def test_fused_tile_is_byte_identical_to_mc_predict(monkeypatch, build):
    monkeypatch.setenv("REPRO_FUSED", "auto")
    if not stability.probe.verdict().ok:  # pragma: no cover - platform guard
        pytest.skip("this BLAS fails the row-stability verdict; fusion is off")
    model, xs = build()
    events = _assert_tile_matches_mc_predict(model, xs)
    # the proof passed, so the tile must actually have fused
    assert events is not None and events["fused_tiles"] == 1
    assert events["fused_requests"] == len(xs)
    assert events["fallback_requests"] == 0


def test_mixed_configs_fuse_per_group(monkeypatch):
    monkeypatch.setenv("REPRO_FUSED", "auto")
    if not stability.probe.verdict().ok:  # pragma: no cover - platform guard
        pytest.skip("this BLAS fails the row-stability verdict; fusion is off")
    model, xs = _mlp_requests()
    other = SamplingConfig(n_samples=4, seed=77)
    requests = [(x, CONFIG) for x in xs[:3]] + [(xs[3], other)]
    executor = TileExecutor(model)
    outcomes = executor.execute(requests)
    for (x, config), (probabilities, error) in zip(requests, outcomes):
        assert error is None
        reference = mc_predict(model, x, n_samples=config.n_samples, seed=config.seed)
        assert probabilities.tobytes() == reference.sample_probabilities.tobytes()
    events = executor.consume_fusion_events()
    # the 3-request group fused; the lone different-config request ran solo
    assert events["fused_groups"] == 1
    assert events["fused_requests"] == 3
    assert events["solo_requests"] == 1


def test_disabled_fusion_falls_back_with_counted_marker(monkeypatch):
    monkeypatch.setenv("REPRO_FUSED", "0")
    model, xs = _mlp_requests()
    events = _assert_tile_matches_mc_predict(model, xs)
    assert events is not None and events["fused_tiles"] == 0
    assert events["fallback_tiles"] == 1
    assert events["fallback_disabled"] == len(xs)  # counted, not silent


def test_force_failed_probe_falls_back_with_counted_marker(monkeypatch):
    # simulate an unstable BLAS: the probe's GEMM funnel is monkeypatched to
    # be nondeterministic, so the stability verdict fails and auto mode must
    # take the per-request path -- with identical bytes and a counted marker
    class UnstableProbe(RowStabilityProbe):
        calls = 0

        def _gemm(self, a, b, out=None):
            UnstableProbe.calls += 1
            result = np.matmul(a, b, out=out)
            if UnstableProbe.calls % 2:
                result = result * (1.0 + np.finfo(result.dtype).eps)
                if out is not None:
                    out[...] = result
            return result

    monkeypatch.setenv("REPRO_FUSED", "auto")
    monkeypatch.setattr(stability, "probe", UnstableProbe())
    assert not stability.probe.verdict().ok
    model, xs = _mlp_requests()
    events = _assert_tile_matches_mc_predict(model, xs)
    assert events is not None and events["fused_tiles"] == 0
    assert events["fallback_tiles"] == 1
    assert events["fallback_probe"] == len(xs)  # counted, not silent


def test_forced_on_with_failed_verdict_still_serves_correct_bytes(monkeypatch):
    class BrokenProbe(RowStabilityProbe):
        def _probe_gemm_determinism(self):
            return False

    monkeypatch.setenv("REPRO_FUSED", "1")
    monkeypatch.setattr(stability, "probe", BrokenProbe())
    model, xs = _mlp_requests()
    with pytest.warns(RuntimeWarning, match="row-stability verdict"):
        events = _assert_tile_matches_mc_predict(model, xs)
    # even under REPRO_FUSED=1 a failed proof must not fuse
    assert events is not None and events["fused_tiles"] == 0
    assert events["fallback_probe"] == len(xs)


def test_fused_serving_end_to_end(monkeypatch):
    # full server path (inline executor): pooled, fused, byte-exact, counted
    from repro.models.zoo import ReplicaSpec
    from repro.serve.server import PredictionServer, ServerConfig

    monkeypatch.setenv("REPRO_FUSED", "auto")
    if not stability.probe.verdict().ok:  # pragma: no cover - platform guard
        pytest.skip("this BLAS fails the row-stability verdict; fusion is off")
    spec = get_model("B-MLP", reduced=True)
    model = spec.build_bayesian(seed=21)
    replica = ReplicaSpec.capture(spec, model, build_seed=21)
    rng = np.random.default_rng(5)
    xs = [rng.standard_normal((rows, 196)) for rows in (16, 16, 1, 7)]
    with PredictionServer(
        replica, ServerConfig(n_workers=0, max_batch_rows=64, max_wait_ms=5.0)
    ) as server:
        futures = [server.submit(x, sampling=CONFIG) for x in xs]
        results = [future.result(timeout=60) for future in futures]
        snapshot = server.stats()
    for x, result in zip(xs, results):
        reference = mc_predict(model, x, n_samples=CONFIG.n_samples, seed=CONFIG.seed)
        assert (
            result.sample_probabilities.tobytes()
            == reference.sample_probabilities.tobytes()
        )
    assert snapshot.fusion["mode"] == "auto"
    assert snapshot.fusion["fused_requests"] + snapshot.fusion["solo_requests"] + snapshot.fusion[
        "fallback_requests"
    ] == len(xs)
    assert snapshot.fusion["fused_tiles"] >= 1


# ----------------------------------------------------------------------
# the cached weight sweep: cold miss -> warm hit -> eviction -> rebuild
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(["B-MLP", "B-LeNet"]),
    build_seed=st.integers(0, 2**16),
    n_samples=st.integers(1, 5),
    seed=st.integers(0, 2**31 - 1),
    grng_stride=st.sampled_from([64, 256]),
    rows=st.lists(st.integers(1, 6), min_size=2, max_size=4),
    fused=st.sampled_from(["auto", "0"]),
)
def test_weight_sweep_lifecycle_is_byte_identical(
    name, build_seed, n_samples, seed, grng_stride, rows, fused
):
    spec = get_model(name, reduced=True)
    # the oracle model is built independently of the served (frozen) replica
    oracle = spec.build_bayesian(seed=build_seed)
    executor = TileExecutor(spec.build_bayesian(seed=build_seed))
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal((n,) + _request_shape(spec)) for n in rows]
    configs = [
        SamplingConfig(n_samples=n_samples, seed=seed + k, grng_stride=grng_stride)
        for k in range(9)
    ]

    def serve_and_check(config):
        outcomes = executor.execute([(x, config) for x in xs])
        for x, (probabilities, error) in zip(xs, outcomes):
            assert error is None
            assert probabilities.tobytes() == _reference(oracle, x, config).tobytes()

    cache = executor.cache
    with mock.patch.dict("os.environ", {"REPRO_FUSED": fused}):
        serve_and_check(configs[0])  # cold miss
        assert cache.misses == 1
        hits = cache.hits  # an unfused tile looks the sweep up per request
        serve_and_check(configs[0])  # warm hit
        assert cache.misses == 1 and cache.hits > hits
        for config in configs[1:]:  # nine configs through eight entries
            serve_and_check(config)
        assert len(cache) == 8 and cache.misses == 9
        serve_and_check(configs[0])  # evicted above: rebuilt, same bytes
        assert cache.misses == 10
        serve_and_check(configs[-1])  # still resident
        assert cache.misses == 10


def _request_shape(spec) -> tuple[int, ...]:
    if spec.flatten_input:
        return (int(np.prod(spec.input_shape)),)
    return tuple(spec.input_shape)


def test_warm_tile_builds_no_weights_and_runs_no_softplus(monkeypatch):
    monkeypatch.setenv("REPRO_FUSED", "auto")
    calls = {"build_weights": 0, "softplus": 0}
    real_build = BatchedWeightSampler._build_weights
    real_softplus = posteriors.softplus

    def counting_build(*args, **kwargs):
        calls["build_weights"] += 1
        return real_build(*args, **kwargs)

    def counting_softplus(rho):
        calls["softplus"] += 1
        return real_softplus(rho)

    monkeypatch.setattr(
        BatchedWeightSampler, "_build_weights", staticmethod(counting_build)
    )
    monkeypatch.setattr(posteriors, "softplus", counting_softplus)

    model, xs = _mlp_requests()
    n_layers = len(model.bayesian_layers())
    executor = TileExecutor(model)
    assert calls["softplus"] == n_layers  # sigma memoised once, at the freeze
    tile = [(x, CONFIG) for x in xs]
    cold = executor.execute(tile)
    assert calls["build_weights"] >= n_layers  # the miss built the sweep
    assert calls["softplus"] == n_layers
    calls["build_weights"] = 0
    warm = executor.execute(tile)  # fused (or per-request fallback) replay
    solo = executor.execute_one(xs[0], CONFIG)
    assert calls == {"build_weights": 0, "softplus": n_layers}
    for (a, _), (b, _) in zip(cold, warm):
        assert a.tobytes() == b.tobytes()
    assert solo.tobytes() == cold[0][0].tobytes()


@pytest.mark.parametrize("build", [_mlp_requests, _lenet_requests], ids=["mlp", "lenet"])
def test_served_replica_is_frozen(build):
    model, xs = build()
    executor = TileExecutor(model)
    before = executor.execute_one(xs[0], CONFIG)
    for layer in model.bayesian_layers():
        posterior = layer.weight_posterior
        with pytest.raises(ValueError, match="read-only"):
            posterior.mu.value[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            posterior.rho.value += 1.0
        with pytest.raises(ValueError, match="read-only"):
            posterior.sigma[...] = 1.0
    for parameter in model.parameters():
        assert not parameter.value.flags.writeable
    # the cached sweep is read-only too, and nothing above got through
    for block in executor.cache.get(CONFIG):
        assert not block.flags.writeable
    assert executor.execute_one(xs[0], CONFIG).tobytes() == before.tobytes()
