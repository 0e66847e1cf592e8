"""Run the benchmark.

One measured run (what the benchmark driver calls)::

    python3 bench/run.py --workload train_dense_rev --seed 0 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of stdout,
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` --
the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1`` (which also dumps the spans to ``bench/out/trace-<workload>.json``).

A run-set (every workload, timed then traced, each in a fresh process)::

    python3 bench/run.py --run-set --seed 0 --out bench/out/ledger.json

writes the ledger ``bench/compare.py`` reads.  ``--quick`` shrinks it to about
a second per workload, in-process, and writes nothing.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")
#: fresh-process set-ups measured besides the run's own (median of all three)
SETUP_REPEATS = 2
QUICK_SECONDS = 0.4


def _bootstrap() -> None:
    """Make ``repro`` and ``bench`` importable; refuse to run without the program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"bench: the program under test is missing ({source}/repro)", file=sys.stderr)
        raise SystemExit(2)
    for path in (source, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def _workload(name: str, seed: int, trace: bool, quick: bool = False):
    from bench import serving, spec, training

    module = training if name in (spec.DENSE, spec.CONV, spec.POOL) else serving
    return module.build(name, seed, trace, quick)


def _child_setup_s(name: str, seed: int) -> float:
    """Set the workload up in a fresh process; returns its ``setup_s``."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _setup_seconds(workload, since: float) -> float:
    """Wall time since ``since``, at reference machine speed (see Calibrator)."""
    raw = time.perf_counter() - since
    return raw / statistics.median(workload.calibrator.speed() for _ in range(3))


def _result(workload, measured: dict, metrics) -> dict:
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            m.name: {"value": float(measured.get(m.name, 0.0)), "unit": m.unit}
            for m in metrics
        },
    }


def timed_leg(workload, seconds: float, setup_samples: list[float]) -> dict:
    """The timed run: product defaults, no benchmark spans; end-to-end metrics."""
    from bench import spec
    from bench.harness import tree_peak_rss_mb, window_metrics

    measured = window_metrics(workload.timed(seconds))
    measured["peak_rss_mb"] = tree_peak_rss_mb(workload.worker_pids())
    measured["setup_s"] = statistics.median(setup_samples)
    return _result(workload, measured, spec.END_TO_END)


def traced_leg(workload, seconds: float) -> dict:
    """The traced run: spans around each layer's public calls; per-layer metrics.

    A metric that does not apply to the workload (``distrib.*`` on a serving
    run) reads 0: the driver wants every per-layer metric from every run.
    """
    from bench import spec

    measured = workload.traced(seconds)
    measured["failed_share"] = workload.failed / workload.attempted
    # span- and call-derived times are raw; bring them to reference machine
    # speed like the window-derived ones (the tail already is)
    speed = measured["bench.machine_speed"] = workload.calibrator.median_speed()
    for metric in spec.PER_LAYER:
        if metric.unit in ("ms", "ns") and metric.name in measured:
            if metric.name != "bench.op_tail_ms":
                measured[metric.name] /= speed
    return _result(workload, measured, spec.PER_LAYER)


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Driver mode: set one workload up in this process and run one leg."""
    workload = _workload(name, seed, trace, quick)
    try:
        workload.setup()
        setup_samples = [_setup_seconds(workload, PROCESS_START)]
        if trace:
            result = traced_leg(workload, seconds)
        else:
            if not quick:
                setup_samples += [_child_setup_s(name, seed) for _ in range(SETUP_REPEATS)]
            result = timed_leg(workload, seconds, setup_samples)
        return {"result": result, "info": workload.info(), "spans": workload.spans}
    finally:
        workload.close()


def setup_only(name: str, seed: int) -> float:
    """What a fresh process pays before its first timed op."""
    workload = _workload(name, seed, trace=False)
    try:
        workload.setup()
        return _setup_seconds(workload, PROCESS_START)
    finally:
        workload.close()


def _print_metrics(name: str, result: dict) -> None:
    print(f"# {name}: attempted {result['attempted']}, failed {result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"{metric:<48s} {entry['value']:>16.6g} {entry['unit']}")


def run_driver(args: argparse.Namespace) -> int:
    from bench.harness import machine_block

    if args.setup_only:
        print(repr(setup_only(args.workload, args.seed)))
        return 0
    trace = bool(args.trace)
    outcome = measure(args.workload, args.seed, args.seconds, trace)
    result = outcome["result"]
    _print_metrics(args.workload, result)
    if trace:
        outcome["spans"].dump(
            os.path.join(OUT_DIR, f"trace-{args.workload}.json"), args.workload
        )
    if args.detail:
        os.makedirs(os.path.dirname(os.path.abspath(args.detail)), exist_ok=True)
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump(
                {"result": result, "info": outcome["info"], "machine": machine_block()},
                handle,
            )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# run-sets
# ----------------------------------------------------------------------
def quick_run_set(seed: int, seconds: float = QUICK_SECONDS, workloads=None) -> dict:
    """Every workload timed then traced for a moment, in this process.

    One set-up serves both legs (through the traced run's oracle path), which
    is what keeps the contract test inside its time budget.
    """
    from bench import spec

    runs = {}
    for name in workloads or [w.name for w in spec.WORKLOADS]:
        workload = _workload(name, seed, trace=True, quick=True)
        try:
            started = time.perf_counter()
            workload.setup()
            runs[name] = {
                "timed": timed_leg(workload, seconds, [_setup_seconds(workload, started)]),
                "traced": traced_leg(workload, seconds),
                "info": workload.info(),
                "spans": workload.spans,
            }
        finally:
            workload.close()
    return runs


def _child_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    detail = os.path.join(OUT_DIR, f"detail-{name}-t{trace}.json")
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--detail", detail],
        cwd=ROOT, text=True, stdout=subprocess.PIPE, timeout=600,
    )
    if done.returncode != 0:
        print(done.stdout, file=sys.stderr)
        raise SystemExit(f"bench: {name} (trace {trace}) failed its oracle or crashed")
    with open(detail, encoding="utf-8") as handle:
        return json.load(handle)


def run_set(args: argparse.Namespace) -> int:
    from bench import spec

    if args.quick:
        only = [args.workload] if args.workload else None
        for name, runs in quick_run_set(args.seed, workloads=only).items():
            for kind in ("timed", "traced"):
                _print_metrics(f"{name} ({kind}, quick)", runs[kind])
        return 0
    ledger = {
        "schema": 1,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "repeat": args.repeat,
        "machine": None,
        "workloads": {},
    }
    chosen = [w for w in spec.WORKLOADS if args.workload in (None, w.name)]
    for workload in chosen:
        ledger["workloads"][workload.name] = {
            "why": workload.why, "op": workload.op, "loop": workload.loop,
            "attempted": 0, "failed": 0, "info": None,
            "end_to_end": {
                m.name: {"unit": m.unit, "better": m.better, "bound": m.bound, "values": []}
                for m in spec.END_TO_END
            },
            "per_layer": {
                m.name: {"unit": m.unit, "better": m.better,
                         "exact": workload.name in m.exact_on, "values": []}
                for m in spec.PER_LAYER
            },
        }
    # whole run-sets back to back, so a metric's repeats are minutes apart and
    # their spread includes the machine's drift
    for _ in range(args.repeat):
        for workload in chosen:
            entry = ledger["workloads"][workload.name]
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                detail = _child_run(workload.name, args.seed, args.seconds, trace)
                result = detail["result"]
                _print_metrics(f"{workload.name} (trace {trace})", result)
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["info"] = detail["info"]
                ledger["machine"] = detail["machine"]
                for name, metric in result["metrics"].items():
                    entry[section][name]["values"].append(metric["value"])
    for entry in ledger["workloads"].values():
        for section in ("end_to_end", "per_layer"):
            for metric in entry[section].values():
                metric["median"] = statistics.median(metric["values"])
    out = os.path.abspath(args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1)
        handle.write("\n")
    print(f"# ledger written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (alone: one measured run)")
    parser.add_argument("--seed", type=int, default=0, help="drives every generated input")
    parser.add_argument("--seconds", type=float, default=None, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--detail", help="also write result + provenance JSON here")
    parser.add_argument("--run-set", action="store_true", help="all workloads, timed + traced")
    parser.add_argument("--quick", action="store_true", help="run-set in ~1 s per workload")
    parser.add_argument("--repeat", type=int, default=1, help="run-sets per ledger")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "ledger.json"))
    parser.add_argument("--emit-contract", action="store_true",
                        help="print BENCHMARK.json as bench/spec.py defines it")
    args = parser.parse_args(argv)
    if args.emit_contract:
        sys.path.insert(0, ROOT)
        from bench import spec

        print(json.dumps(spec.contract(), indent=2))
        return 0
    _bootstrap()
    from bench import spec

    if args.seconds is None:
        args.seconds = spec.RUN_SECONDS
    if args.workload and args.workload not in [w.name for w in spec.WORKLOADS]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.workload and not (args.run_set or args.quick):
        return run_driver(args)
    return run_set(args)


if __name__ == "__main__":
    raise SystemExit(main())
