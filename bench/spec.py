"""Names the benchmark defines: workloads, end-to-end metrics, per-layer metrics.

This is the single place a name is spelled.  ``BENCHMARK.json`` at the repo
root is :func:`contract` serialised (``python3 bench/run.py --emit-contract``);
the contract test fails when the two drift.  A later performance issue cites
these names: *which* metric it claims to move, on *which* workload, and where
it predicts no change.
"""

from __future__ import annotations

from dataclasses import dataclass

RUN_SECONDS = 12
COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str
    loop: str


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    #: ``(end_to_end metric, workload)`` pairs this number should move.
    moves: tuple[tuple[str, str], ...]
    #: Workloads on which the prediction is *no change* (value ~ 0 or flat).
    flat_on: tuple[str, ...] = ()
    #: Workloads on which this is an exact count: it must repeat bit for bit
    #: between runs with the same seed.
    exact_on: tuple[str, ...] = ()
    definition: str = ""


DENSE, CONV, POOL, HTTP, BURST = (
    "train_dense_rev",
    "train_conv_stored",
    "distrib_dense_pool2",
    "serve_http_closed",
    "serve_inproc_burst",
)

WORKLOADS = (
    Workload(
        DENSE,
        "The paper's Shift-BNN path: core does most of the step (forward "
        "epsilon generation + regeneration), so LFSR/popcount/CLT kernel "
        "changes show here first; nn/bnn do little.",
        "one BNNTrainer.train_step (reduced B-MLP, S=8, batch 16, reversible)",
        "single-thread closed loop over 4 cycled batches",
    ),
    Workload(
        CONV,
        "The paper's stored-epsilon baseline and the compute-bound path: "
        "im2col + per-sample GEMM in nn/bnn dominate, core writes/reads the "
        "store; a pure reverse-path change must show no change here.",
        "one BNNTrainer.train_step (reduced B-LeNet 16x16, S=4, batch 64, stored)",
        "single-thread closed loop over 4 cycled batches",
    ),
    Workload(
        POOL,
        "Same model/data as train_dense_rev through DistributedBackend(2 "
        "workers, 4 shards x 2 row blocks, delta shipping): isolates "
        "fingerprint/encode/pickle/queue/reduce cost against a stated base.",
        "one distributed train_step (8 tasks on 2 worker processes)",
        "single-thread closed loop over 4 cycled batches",
    ),
    Workload(
        HTTP,
        "What an SDK caller sees: HTTP parse, admission, the 2 ms waiting "
        "room and JSON dominate; tile fusion and epsilon generation do "
        "almost nothing, so kernel changes predict no change here.",
        "one GatewayClient.predict round trip (16 rows, S=8)",
        "closed loop, 2 keep-alive connections on 2 threads",
    ),
    Workload(
        BURST,
        "The batching engine with HTTP bypassed: bursts of 32 4-row requests "
        "fuse into tiles; 1 burst in 40 brings an evicted sampling config, so "
        "sweep materialisation (core) and cache policy both show.",
        "one PredictionServer request, timed from its burst's start",
        "single-thread bursts of 32 un-awaited submits, then gather",
    ),
)

END_TO_END = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "process start to first timed op (imports, build, oracle references, "
        "workers, lazy gates, warm-up ops); median over fresh processes",
    ),
    EndToEnd(
        "ops_per_s", "1/s", "higher", 0.25,
        "median of the rates of 5 equal-count segments of the timed window",
    ),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25, "median op latency"),
    EndToEnd("op_p90_ms", "ms", "lower", 0.25, "90th-percentile op latency"),
    EndToEnd(
        "cpu_s_per_op", "s", "lower", 0.25,
        "user+sys CPU of the benchmark process and its worker processes over "
        "the window / ops",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.10,
        "sum of VmHWM over the process tree at window end",
    ),
)

_TRAIN = (DENSE, CONV, POOL)
_SERVE = (HTTP, BURST)


def _speed(workload: str) -> tuple[tuple[str, str], ...]:
    return (("ops_per_s", workload), ("op_p50_ms", workload))


def _layer(layer, name, unit, moves, flat_on=(), exact_on=(), better="lower", definition=""):
    return PerLayer(name, unit, better, layer, tuple(moves), tuple(flat_on), tuple(exact_on),
                    definition)


_ENGINE_STAGES = ("queue_wait", "tile_assembly", "epsilon_replay", "forward")
_KERNELS = ("lfsr_step_block", "window_popcounts", "clt_standardise", "sample_matmul", "im2col")

PER_LAYER = (
    # ---------------------------------------------------------------- core
    _layer("core", "core.eps_forward_ms", "ms",
           _speed(DENSE) + (("cpu_s_per_op", DENSE),) + _speed(POOL),
           definition="sampler prefetch_forward + sample spans per step"),
    _layer("core", "core.eps_retrieve_ms", "ms",
           _speed(DENSE) + (("cpu_s_per_op", DENSE),) + _speed(POOL), flat_on=(CONV,),
           definition="sampler resample spans per step (regeneration or store read)"),
    _layer("core", "core.eps_forward_ns_per_eps", "ns", _speed(DENSE)),
    _layer("core", "core.eps_retrieve_ns_per_eps", "ns", _speed(DENSE), flat_on=(CONV,)),
    _layer("core", "core.eps_per_step", "count", _speed(DENSE), exact_on=_TRAIN,
           definition="epsilons generated per step (StreamUsage)"),
    _layer("core", "core.finish_iteration_ms", "ms", _speed(DENSE)),
    _layer("core", "core.grng_block_forward_ms", "ms", _speed(DENSE),
           definition="direct GrngBank.epsilon_blocks at the step's rows x count"),
    _layer("core", "core.grng_block_reverse_ms", "ms", _speed(DENSE), flat_on=(CONV,),
           definition="direct GrngBank.epsilon_blocks_reverse, same shape"),
    *(
        _layer("core", f"core.kernel.{kernel}.{what}_per_op", "count",
               _speed(CONV if kernel in ("sample_matmul", "im2col") else DENSE),
               exact_on=(DENSE, CONV),
               definition="backend dispatch counter over the traced window / ops "
                          "(benchmark process only)")
        for kernel in _KERNELS
        for what in ("calls", "rows")
    ),
    _layer("core", "core.sweep_materialize_ms", "ms",
           (("setup_s", HTTP), ("setup_s", BURST), ("ops_per_s", BURST)), flat_on=(HTTP,),
           definition="direct materialize_epsilon_sweep for one sampling config"),
    _layer("core", "eps_offchip_bytes_per_op", "bytes", (("cpu_s_per_op", CONV),),
           flat_on=(DENSE, POOL), exact_on=_TRAIN,
           definition="BNNTrainer.epsilon_offchip_bytes() / steps: the paper's "
                      "headline quantity (0 under reversible)"),
    _layer("core", "eps_footprint_bytes", "bytes", (("peak_rss_mb", CONV),), exact_on=_TRAIN,
           definition="BNNTrainer.epsilon_footprint_bytes() at window end (Fig. 14)"),
    # ----------------------------------------------------------------- bnn
    _layer("bnn", "bnn.forward_self_ms", "ms", _speed(CONV), flat_on=(DENSE,),
           definition="forward_samples span minus its sampler children"),
    _layer("bnn", "bnn.backward_self_ms", "ms", _speed(CONV), flat_on=(DENSE,),
           definition="backward_samples span minus its sampler children"),
    _layer("bnn", "bnn.step_other_ms", "ms", _speed(CONV),
           definition="train()/zero_grad() + ELBO report spans per step"),
    _layer("bnn", "bnn.mc_predict_ms", "ms", _speed(BURST) + _speed(HTTP),
           definition="direct mc_predict on one serving request (serving floor)"),
    # ------------------------------------------------------------------ nn
    _layer("nn", "nn.loss_ms", "ms", _speed(CONV)),
    _layer("nn", "nn.optimizer_step_ms", "ms", _speed(DENSE),
           definition="gradient scaling + Optimizer.step"),
    _layer("nn", "nn.im2col_ms", "ms", _speed(CONV), flat_on=(DENSE,),
           definition="direct nn.functional.im2col at the conv shapes x calls/step"),
    # --------------------------------------------------------------- serve
    _layer("serve", "serve.client_rtt_ms", "ms", _speed(HTTP)),
    *(
        _layer("serve", f"serve.stage.{stage}_ms", "ms",
               _speed(HTTP) + (_speed(BURST) if stage in _ENGINE_STAGES else ()),
               flat_on=() if stage in _ENGINE_STAGES else (BURST,),
               definition=f"median '{stage}' span of the product's trace tree"
               if stage != "tile_assembly"
               else "median 'execute' span minus the 'forward' span inside it")
        for stage in ("admission", *_ENGINE_STAGES, "serialization")
    ),
    _layer("serve", "serve.http_overhead_ms", "ms", _speed(HTTP) + (("op_p90_ms", HTTP),),
           flat_on=(BURST,), definition="median client RTT minus server root span"),
    _layer("serve", "serve.submit_ms", "ms", _speed(BURST)),
    _layer("serve", "serve.result_wait_ms", "ms", _speed(BURST) + (("op_p90_ms", BURST),)),
    _layer("serve", "serve.tile_execute_ms", "ms", _speed(BURST), flat_on=(HTTP,),
           definition="direct TileExecutor.execute on one full same-config tile"),
    _layer("serve", "serve.execute_one_ms", "ms", _speed(BURST),
           definition="the same tile through execute_one per request (unfused floor)"),
    _layer("serve", "serve.requests_per_tile", "count", _speed(BURST), flat_on=(HTTP,),
           better="higher"),
    _layer("serve", "serve.rows_per_tile", "count", _speed(BURST), better="higher"),
    _layer("serve", "serve.tiles_per_op", "count", _speed(BURST)),
    _layer("serve", "serve.fused_request_share", "ratio", _speed(BURST), flat_on=(HTTP,),
           better="higher", definition="fused requests / requests completed"),
    _layer("serve", "serve.cold_config_share", "ratio", (("ops_per_s", BURST),), exact_on=_SERVE,
           definition="requests whose sampling config was not cached / requests"),
    _layer("serve", "serve.shed_share", "ratio", (("ops_per_s", HTTP),),
           definition="429 responses / requests attempted"),
    # ------------------------------------------------------------- distrib
    _layer("distrib", "distrib.run_step_ms", "ms", _speed(POOL)),
    *(
        _layer("distrib", f"distrib.phase.{phase}_ms", "ms",
               _speed(POOL) + ((("op_p90_ms", POOL),) if phase == "compute" else ()),
               definition="repro_distrib_step_phase_ms histogram sum / steps")
        for phase in ("ship", "compute", "replay_reduce")
    ),
    _layer("distrib", "distrib.coordinator_apply_ms", "ms", _speed(POOL),
           definition="train_step minus run_step"),
    _layer("distrib", "distrib.inline_step_ms", "ms", _speed(POOL),
           definition="same plan with n_workers=0; inline - pooled isolates IPC"),
    _layer("distrib", "distrib.fingerprint_ms", "ms", (("op_p50_ms", POOL),),
           definition="direct tensor_fingerprint over one step's slots"),
    _layer("distrib", "distrib.encode_ms", "ms", (("op_p50_ms", POOL),),
           definition="direct warm DeltaEncoder.encode of one task's slots"),
    _layer("distrib", "distrib.payload_pickle_ms", "ms", (("op_p50_ms", POOL),)),
    _layer("distrib", "distrib.payload_pickle_bytes", "bytes", (("op_p50_ms", POOL),),
           exact_on=(POOL,)),
    _layer("distrib", "wire_bytes_per_op", "bytes", (("op_p50_ms", POOL),), exact_on=(POOL,),
           definition="backend.bytes_shipped / steps"),
    _layer("distrib", "distrib.wire_bytes_full_equiv_per_step", "bytes",
           (("op_p50_ms", POOL),), exact_on=(POOL,)),
    _layer("distrib", "distrib.delta_reduction_ratio", "ratio", (("op_p50_ms", POOL),),
           exact_on=(POOL,), better="higher",
           definition="full-equivalent bytes / bytes shipped"),
    _layer("distrib", "distrib.tasks_per_step", "count", (("op_p90_ms", POOL),), exact_on=(POOL,)),
    *(
        _layer("distrib", f"distrib.{name}", "count", (("ops_per_s", POOL),), exact_on=(POOL,),
               definition="must be 0 on a clean run")
        for name in ("resyncs", "replans", "respawns")
    ),
    _layer("distrib", "distrib.worker_cpu_share", "ratio", (("cpu_s_per_op", POOL),),
           better="higher", definition="worker CPU / (worker + coordinator CPU)"),
    _layer("distrib", "distrib.speedup_vs_single", "ratio", (("ops_per_s", POOL),),
           better="higher",
           definition="pooled steps/s / single-process train_step steps/s, same run"),
    # ----------------------------------------------------------------- obs
    _layer("obs", "obs.metrics_scrape_ms", "ms", (), flat_on=(HTTP,),
           definition="GET /v1/metrics from the client; off the request path"),
    _layer("obs", "obs.trace_fetch_ms", "ms", (), flat_on=(HTTP,),
           definition="GET /v1/trace/<id> from the client"),
    # --------------------------------------------------------------- bench
    *(
        _layer("bench", name, unit, tuple(("ops_per_s", w.name) for w in WORKLOADS),
               better=better, definition=definition)
        for name, unit, better, definition in (
            ("bench.trace_overhead_ratio", "ratio", "lower",
             "untraced ops/s / traced ops/s within the traced run"),
            ("bench.span_coverage", "ratio", "higher",
             "sum of child spans / root spans; outside 0.95-1.05 on train_* is invalid"),
            ("bench.op_tail_ms", "ms", "lower",
             "highest percentile with >= 10 samples beyond it"),
            ("bench.op_tail_pct", "%", "higher", "which percentile that was"),
            ("bench.segment_spread", "ratio", "lower",
             "(max - min) / median of the 5 segment rates"),
            ("bench.samples", "count", "higher", "ops in the traced run's untraced window"),
            ("bench.machine_speed", "ratio", "lower",
             "calibration kernel time / its reference: what every time was divided by"),
            ("failed_share", "ratio", "lower",
             "(errors + refusals + byte mismatches) / ops attempted; must be 0"),
        )
    ),
)


def contract() -> dict:
    """The ``BENCHMARK.json`` document, in the driver's exact key set."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
