"""Measurement plumbing shared by every workload: spans, windows, /proc readers."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

N_SEGMENTS = 5
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# spans (the benchmark's own tracer; the program under test is not touched)
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log: name, start, end, parent; one id per op.

    Spans nest through a per-thread-free stack, so one instance serves one
    thread; concurrent clients each own an instance and :meth:`extend` merges
    them before the dump.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[dict] = []
        self._op = 0

    def next_op(self) -> int:
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name: str, op: int | None = None) -> Iterator[dict]:
        parent = self._stack[-1] if self._stack else None
        record = {
            "op": op if op is not None else (parent["op"] if parent else None),
            "name": name,
            "parent": parent["name"] if parent else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.records.append(record)

    def add(self, name: str, start: float, end: float, parent: str | None, op: int) -> None:
        """Adopt a span measured elsewhere (the product's own trace tree)."""
        self.records.append(
            {"op": op, "name": name, "parent": parent, "start": start, "end": end}
        )

    def extend(self, other: "Spans") -> None:
        """Merge another thread's log, keeping op ids distinct."""
        for record in other.records:
            self.records.append(dict(record, op=record["op"] + self._op))
        self._op += other._op

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def children_ms(self, parent: str) -> float:
        return 1e3 * sum(
            r["end"] - r["start"] for r in self.records if r["parent"] == parent
        )

    def dump(self, path: str, workload: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload, "spans": self.records}, handle)


# ----------------------------------------------------------------------
# machine-speed calibration
# ----------------------------------------------------------------------
class Calibrator:
    """A fixed NumPy kernel whose wall time tracks how fast the machine is now.

    A shared sandbox drifts by 15-20 % over minutes (noisy neighbours), far
    more than the regressions the bounds are meant to catch, and the drift is
    common to everything CPU-bound in the same period.  Every window therefore
    interleaves this kernel with the workload and reports times *divided by*
    (and rates multiplied by) ``kernel time / REFERENCE_S`` -- "ms at
    reference machine speed".  The kernel is the benchmark's own code (integer
    bit ops over 0.5 MB, float multiply-add over 1.6 MB) and shares nothing
    with the program under test, so a faster program cannot hide in it.  It
    calls no BLAS: a threaded GEMM leaves OpenBLAS workers spinning into the
    next slice, which would bill the workload for the calibration.
    """

    #: the kernel's median on the 2-core reference container in a quiet period
    REFERENCE_S = 0.010

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._bits = rng.integers(0, 2**63, size=65536, dtype=np.uint64)
        self._x = rng.standard_normal(200_000)
        self._y = rng.standard_normal(200_000)
        self.speeds: list[float] = []

    def speed(self) -> float:
        """Run the kernel once; > 1 means the machine is slower than reference."""
        one, seven = np.uint64(1), np.uint64(7)
        start = time.perf_counter()
        word = self._bits
        for _ in range(36):
            word = (word << one) ^ (word >> seven) & self._bits
        for _ in range(12):
            np.add(np.multiply(self._x, self._y), self._x)
        self.speeds.append((time.perf_counter() - start) / self.REFERENCE_S)
        return self.speeds[-1]

    def median_speed(self) -> float:
        return statistics.median(self.speeds)


# ----------------------------------------------------------------------
# timed windows
# ----------------------------------------------------------------------
@dataclass
class Slice:
    """One uninterrupted stretch of ops between two calibration runs."""

    duration: float
    latencies: list[float]
    speed: float


@dataclass
class Window:
    """Per-op samples of one measurement window (times in seconds)."""

    slices: list[Slice] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # of the open slice
    attempted: int = 0
    failed: int = 0
    shed: int = 0
    cpu_s: float = 0.0  # this process and its workers, over the slices
    own_cpu_s: float = 0.0  # this process alone

    def record(self, start: float, end: float) -> None:
        """A completed op (its output may still fail verification)."""
        self.attempted += 1
        self.latencies.append(end - start)

    def refuse(self, shed: bool = False) -> None:
        """An op that errored or was refused: attempted, failed, no latency."""
        self.attempted += 1
        self.failed += 1
        self.shed += shed

    def close_slice(self, duration: float, speed: float) -> None:
        self.slices.append(Slice(duration, self.latencies, speed))
        self.latencies = []

    @property
    def ops(self) -> int:
        return sum(len(piece.latencies) for piece in self.slices)


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(latencies_ms: Sequence[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(latencies_ms)
    pct = max(50.0, 100.0 * (1.0 - 10.0 / n)) if n else 50.0
    return pct, percentile(latencies_ms, pct)


def window_metrics(window: Window) -> dict[str, float]:
    """Every number derived from a window, at reference machine speed.

    The slices are cut into ``N_SEGMENTS`` contiguous groups; each group is
    normalised by the median calibration speed of its own slices, so a
    neighbour's burst moves one segment, not the run.
    """
    slices = window.slices
    rates, latencies_ms = [], []
    for segment in range(N_SEGMENTS):
        group = slices[len(slices) * segment // N_SEGMENTS : len(slices) * (segment + 1) // N_SEGMENTS]
        if not group:
            continue
        speed = statistics.median(piece.speed for piece in group)
        ops = sum(len(piece.latencies) for piece in group)
        rates.append(ops / sum(piece.duration for piece in group) * speed)
        latencies_ms += [
            1e3 * latency / speed for piece in group for latency in piece.latencies
        ]
    tail_pct, tail_ms = tail(latencies_ms)
    median_rate = statistics.median(rates)
    run_speed = statistics.median(piece.speed for piece in slices)
    return {
        "ops_per_s": median_rate,
        "op_p50_ms": percentile(latencies_ms, 50),
        "op_p90_ms": percentile(latencies_ms, 90),
        "cpu_s_per_op": window.cpu_s / window.ops / run_speed,
        "bench.op_tail_ms": tail_ms,
        "bench.op_tail_pct": tail_pct,
        "bench.segment_spread": (max(rates) - min(rates)) / median_rate,
        "bench.samples": float(window.ops),
        "bench.machine_speed": run_speed,
    }


def run_cycles(
    cycle: Callable[[Window], None],
    seconds: float,
    calibrator: Calibrator,
    pids: Iterable[int] = (),
) -> Window:
    """Repeat ``cycle`` (a fixed op sequence) until ``seconds`` have elapsed.

    Whole cycles only, so per-op counts are exact ratios whatever the run
    length.  The calibration kernel runs between cycles (the load is idle
    then); CPU is read around each cycle for this process and ``pids``.
    """
    pids = list(pids)
    window = Window()
    deadline = time.perf_counter() + seconds
    speed = calibrator.speed()
    while True:
        own_before, workers_before = time.process_time(), workers_cpu_s(pids)
        start = time.perf_counter()
        cycle(window)
        duration = time.perf_counter() - start
        window.own_cpu_s += time.process_time() - own_before
        window.cpu_s += workers_cpu_s(pids) - workers_before
        after = calibrator.speed()
        window.close_slice(duration, (speed + after) / 2)
        speed = after
        if time.perf_counter() >= deadline:
            window.cpu_s += window.own_cpu_s
            return window


def kernel_counts_per_op(counters: dict, ops: int) -> dict[str, float]:
    """``repro.core.backend.counters_snapshot()`` as per-op dispatch counts."""
    return {
        f"core.kernel.{kernel}.{what}_per_op": sum(e[what] for e in backends.values()) / ops
        for kernel, backends in counters.items()
        for what in ("calls", "rows")
    }


def median_ms(call: Callable[[], object], budget_s: float, min_reps: int = 3) -> float:
    """Median wall time of ``call`` over as many reps as fit the budget."""
    samples: list[float] = []
    deadline = time.perf_counter() + budget_s
    while len(samples) < min_reps or (time.perf_counter() < deadline and len(samples) < 200):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
def _proc_cpu_s(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def workers_cpu_s(pids: Iterable[int]) -> float:
    """user+sys CPU seconds of the given worker processes."""
    return sum(_proc_cpu_s(pid) for pid in pids)


def _proc_status_kb(pid: int | str, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(worker_pids: Iterable[int]) -> float:
    kb = _proc_status_kb("self", "VmHWM") + sum(
        _proc_status_kb(pid, "VmHWM") for pid in worker_pids
    )
    return kb / 1024.0


# ----------------------------------------------------------------------
# provenance
# ----------------------------------------------------------------------
def digest_arrays(arrays: Iterable[np.ndarray]) -> str:
    """Content digest of generated inputs (seed -> inputs must be a function)."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode() + repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def machine_block() -> dict:
    """What a ledger must match on before two of them may be compared."""
    from repro.core import backend as kernel_backend
    from repro.core import stability

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # recorded, never overridden: the benchmark measures the product's defaults
        "blas_threads_env": {
            key: os.environ[key]
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if key in os.environ
        },
        "process_threads": _proc_status_kb("self", "Threads"),
        "kernel_backends": {
            kernel: entry["selection"]
            for kernel, entry in kernel_backend.stats_snapshot().items()
        },
        "fused_tiles_ok": bool(stability.probe.verdict().ok),
        "platform": sys.platform,
    }
