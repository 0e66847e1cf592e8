"""Quickstart: train a Bayesian MLP with Shift-BNN-style epsilon retrieval.

This is the smallest end-to-end use of the library:

1. pick a model spec from the zoo (the reduced B-MLP),
2. build synthetic MNIST-shaped data,
3. train with :class:`ShiftBNNTrainer` (epsilons regenerated by LFSR reversal,
   never stored), and
4. evaluate the Monte-Carlo predictive accuracy and look at the uncertainty.

Later sections tour the serving stack (the async batching server, the HTTP
gateway with hot version swap, distributed training), the kernel-backend
dispatch layer -- how to inspect and force the backends every hot kernel
runs on (section 9) -- fused serving tiles behind the runtime BLAS
row-stability proof plus the shared-memory epsilon sweeps (section 10),
and finish with the observability layer: request tracing and the
Prometheus metrics endpoint (section 11).

Training and prediction run the *batched* Monte-Carlo engine by default: all
``S`` weight samples execute as one ``(S, batch, ...)`` pass, with every
layer's epsilon block for every sample produced by a single generator-bank
kernel call.  ``batched=False`` (on :class:`TrainerConfig` and ``train_step``)
trains through the per-sample loop instead -- the result is bit-identical
either way, only the wall-clock time changes.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro.bnn import ShiftBNNTrainer, TrainerConfig, mc_predict
from repro.datasets import BatchLoader, synthetic_mnist
from repro.models import ReplicaSpec, get_model
from repro.serve import PredictionServer, SamplingConfig, ServerConfig


def main() -> None:
    # 1. model specification (reduced variant: trains in seconds on a CPU)
    spec = get_model("B-MLP", reduced=True)
    print(f"Model: {spec.name} with {spec.weight_count} Bayesian weights")

    # 2. synthetic MNIST-shaped data (28x28 real MNIST is not available offline)
    train, test = synthetic_mnist(n_train=512, n_test=256, image_size=14, seed=7)
    batches = BatchLoader(train, batch_size=64, flatten=True).batches()

    # 3. Shift-BNN training: S Monte-Carlo samples per step, executed as one
    #    batched (S, batch, ...) pass; epsilons are retrieved by reversed LFSR
    #    shifting instead of being stored.
    config = TrainerConfig(n_samples=4, learning_rate=5e-3, seed=1, grng_stride=64)
    trainer = ShiftBNNTrainer(spec.build_bayesian(seed=42), config)
    trainer.fit(batches, epochs=6, validation=(test.flatten_images(), test.labels), verbose=True)

    # 4. evaluation and uncertainty
    accuracy = trainer.evaluate(test.flatten_images(), test.labels)
    prediction = mc_predict(trainer.model, test.flatten_images()[:8], n_samples=8, grng_stride=64)
    print(f"\nvalidation accuracy: {accuracy:.3f}")
    print(f"epsilon bytes spilled to off-chip storage: {trainer.epsilon_offchip_bytes()}")
    print("predictive entropy of the first 8 test examples:")
    for index, entropy in enumerate(prediction.entropy):
        marker = "*" if prediction.predictions[index] == test.labels[index] else " "
        print(f"  example {index}: H = {entropy:.3f} nats {marker}")

    # 5. the batched engine vs the per-sample escape hatch (same bits, faster):
    #    one training step of two twins from the same initial model
    x_step, y_step = batches[0]
    for batched in (False, True):
        twin = ShiftBNNTrainer(spec.build_bayesian(seed=42), config)
        start = time.perf_counter()
        report = twin.train_step(x_step, y_step, kl_weight=1.0 / len(batches), batched=batched)
        elapsed = (time.perf_counter() - start) * 1e3
        label = "batched " if batched else "per-sample"
        print(f"train_step {label} S=4: {elapsed:6.1f} ms (loss {report.total:.12f})")
    x = test.flatten_images()

    # 6. serving API: the async front-end pools concurrent requests into
    #    (S, batch) tiles, replays one cached epsilon sweep per sampling
    #    config, and answers through futures -- bit-identically to the
    #    standalone mc_predict calls above.
    replica = ReplicaSpec.capture(spec, trainer.model)
    sampling = SamplingConfig(n_samples=8, seed=0, grng_stride=64)
    with PredictionServer(replica, ServerConfig(max_batch_rows=64)) as server:
        futures = [server.submit(x[i : i + 16], sampling) for i in range(0, 64, 16)]
        answers = [future.result(timeout=60.0) for future in futures]
        stats = server.stats()
    standalone = mc_predict(trainer.model, x[:16], n_samples=8, grng_stride=64)
    exact = (answers[0].sample_probabilities == standalone.sample_probabilities).all()
    print(f"\nserving API: {stats.requests_completed} requests in "
          f"{stats.tiles_executed} tiles, p50 latency "
          f"{stats.latency_p50_ms:.2f} ms, bit-exact vs mc_predict: {exact}")
    if not exact:
        # CI runs this script as a smoke step; equivalence must fail loudly
        raise SystemExit("serving answers diverged from standalone mc_predict")

    # 7. distributed training: the same fit sharded across worker processes.
    #    Each step's S Monte-Carlo samples split over the workers; per-sample
    #    gradient contributions are reduced in canonical order, so the
    #    parameter trajectory is bit-for-bit the single-process one (and a
    #    crashed worker's shard is re-executed from its seeds, never lost).
    #    See examples/distrib_demo.py for checkpoint/resume and crash drills.
    from repro.distrib import distributed_trainer

    with distributed_trainer(
        spec, config, n_workers=2, policy="reversible", build_seed=42
    ) as distributed:
        distributed.fit(batches, epochs=1)
        reference = ShiftBNNTrainer(spec.build_bayesian(seed=42), config)
        reference.fit(batches, epochs=1)
        same = all(
            (a.value == b.value).all()
            for a, b in zip(reference.model.parameters(), distributed.model.parameters())
        )
        print(f"distributed fit (2 workers): {distributed.step_count} steps, "
              f"bit-exact vs single-process: {same}")
        if not same:
            raise SystemExit("distributed trajectory diverged from single-process")

    # 8. HTTP gateway: the versioned /v1 wire API in front of the serving
    #    stack, with hot swap and admission control.  Register trained models
    #    under version names in a ModelRegistry, deploy one, and clients POST
    #    JSON to /v1/predict (the GatewayClient SDK wraps the whole surface)
    #    -- responses round-trip float64 exactly, so the wire answer is
    #    byte-identical to mc_predict too.  POST /v1/models/deploy swaps
    #    versions under live traffic (in-flight requests finish on the
    #    version they were admitted with); /v1/models, /v1/healthz and
    #    /v1/stats expose fingerprints, rollout state, per-version counters
    #    and the admission/tenant/coalescing telemetry.  Overloaded requests
    #    shed with 429 + Retry-After, which the SDK retries for you.  See
    #    examples/gateway_demo.py for the full rollout story.
    from repro.serve import GatewayClient, ModelRegistry, ServingGateway

    registry = ModelRegistry()
    registry.register("v1", replica)  # the replica captured in section 6
    registry.deploy("v1")
    with ServingGateway(registry, ServerConfig(max_batch_rows=64)) as gateway:
        with GatewayClient(gateway.url, tenant="quickstart") as sdk:
            wire = sdk.predict(
                x[:8], sampling={"n_samples": 8, "seed": 0, "grng_stride": 64}
            )
    import numpy as np

    wire_exact = np.array_equal(
        np.asarray(wire["sample_probabilities"], dtype=np.float64),
        mc_predict(trainer.model, x[:8], n_samples=8, grng_stride=64).sample_probabilities,
    )
    print(f"HTTP gateway: served version {wire['version']} "
          f"(generation {wire['generation']}), bit-exact through JSON: {wire_exact}")
    if not wire_exact:
        raise SystemExit("gateway answers diverged from standalone mc_predict")

    # 9. kernel backends: every hot kernel with a choice of implementation
    #    (the GRNG block, window popcounts, im2col, ...) dispatches through
    #    the registry in repro.core.backend; the ones with a single body (LFSR
    #    stepping, CLT standardisation, per-sample matmul) are plain functions
    #    counted under the same names.  A backend only becomes eligible
    #    after passing a conformance gate that proves it bit-identical to the
    #    NumPy reference oracle, so selection (REPRO_BACKEND env var, e.g.
    #    "reference" or "grng_block=reference", or backend.set_backend)
    #    changes speed, never results.  Inspect the registry from the shell:
    #        python -m repro.core --list
    #        python -m repro.core --verify
    import repro.core.backend as kernel_backend

    print("\nkernel-backend dispatch (everything above ran through it):")
    for kernel, info in sorted(kernel_backend.stats_snapshot().items()):
        used = ", ".join(
            f"{name} ({c['calls']} calls, {c['rows']} rows)"
            for name, c in sorted(info["backends"].items())
        ) or "unused"
        print(f"  {kernel:18s} selection={info['selection']:<10s} {used}")
    with kernel_backend.using("window_popcounts", "reference"):
        forced = mc_predict(trainer.model, x[:8], n_samples=8, grng_stride=64)
    oracle_exact = np.array_equal(
        forced.sample_probabilities,
        mc_predict(trainer.model, x[:8], n_samples=8, grng_stride=64).sample_probabilities,
    )
    print(f"mc_predict with the oracle forced == default backends: {oracle_exact}")
    if not oracle_exact:
        raise SystemExit("backend selection changed the predictive bits")

    # 10. fused tiles behind the runtime row-stability proof: pooled
    #     same-config requests concatenate into ONE folded forward per tile
    #     -- but only where repro.core.stability has measured, on THIS
    #     host's BLAS, that folded GEMM rows are byte-identical to their
    #     standalone counterparts (adversarial battery: 1-row folds, prime
    #     splits, cache-line-straddling offsets).  REPRO_FUSED=0 forces the
    #     per-request fallback; either way the served bytes equal
    #     mc_predict, and the stats "fusion" block counts fused vs fallback
    #     tiles -- a fallback is never silent.  Inspect the proof:
    #         python -m repro.core.stability --report
    from repro.core import stability

    verdict = stability.probe.verdict()
    print(f"\nrow-stability verdict on this BLAS: ok={verdict.ok} "
          f"({', '.join(f'{k}={v}' for k, v in sorted(verdict.components.items()))})")
    # a generous batching window so all four requests pool into one tile
    fused_config = ServerConfig(max_batch_rows=64, max_wait_ms=50.0)
    with PredictionServer(replica, fused_config) as server:
        futures = [server.submit(x[i : i + 16], sampling) for i in range(0, 64, 16)]
        fused_answers = [future.result(timeout=60.0) for future in futures]
        fusion = server.stats().fusion
    fused_exact = np.array_equal(
        fused_answers[0].sample_probabilities, standalone.sample_probabilities
    )
    print(f"fused serving: mode={fusion['mode']} fused_tiles={fusion['fused_tiles']} "
          f"fallback_tiles={fusion['fallback_tiles']}, bit-exact vs mc_predict: "
          f"{fused_exact}")
    if not fused_exact:
        raise SystemExit("fused serving diverged from standalone mc_predict")
    if verdict.ok and stability.fused_mode() == "auto" and not fusion["fused_tiles"]:
        raise SystemExit("proof passed but no tile fused -- telemetry is lying")

    # 11. observability: every admitted request gets a trace ID (returned as
    #     the X-Request-Id header and surfaced by the SDK), its span tree is
    #     assembled across admission -> waiting room -> tile execution ->
    #     serialization, and GET /v1/metrics renders Prometheus text fed by
    #     pull-model collectors over the serving counters.  Tracing is a
    #     side channel: response bytes are identical with REPRO_OBS=0.
    registry11 = ModelRegistry()
    registry11.register("v1", replica)
    registry11.deploy("v1")
    with ServingGateway(registry11, ServerConfig(max_batch_rows=64)) as gateway:
        with GatewayClient(gateway.url, tenant="quickstart") as sdk:
            traced = sdk.predict(
                x[:8], sampling={"n_samples": 8, "seed": 0, "grng_stride": 64}
            )
            request_id = sdk.last_request_id
            trace = sdk.trace(request_id)
            metrics_text = sdk.metrics()
    obs_exact = np.array_equal(
        np.asarray(traced["sample_probabilities"], dtype=np.float64),
        np.asarray(wire["sample_probabilities"], dtype=np.float64),
    )
    stages = [span["name"] for span in trace["spans"]]
    print(f"\nobservability: request {request_id} traced through {stages} "
          f"in {trace['duration_ms']:.2f} ms")
    families = sorted(
        line.split("{")[0].split(" ")[0]
        for line in metrics_text.splitlines()
        if line and not line.startswith("#") and line.startswith("repro_requests")
    )
    print(f"/v1/metrics exposes e.g. {families[0]}; "
          f"traced response identical to section 8: {obs_exact}")
    if not obs_exact or "execute" not in stages:
        raise SystemExit("observability must never change served bytes")


if __name__ == "__main__":
    main()
