"""Runtime BLAS row-stability prover for fused serving tiles.

Serving tiles pool many requests, but PR 3 deliberately ran one
``mc_forward`` per request: BLAS libraries select different micro-kernels
for different GEMM M dimensions, so the folded ``(sum_rows, features)``
product is **not** guaranteed to be byte-identical per row to the
standalone per-request products.  On the container this repo develops on,
OpenBLAS really does diverge: 1-row blocks always take a different (gemv)
path, and some (K, N) classes are unstable at *every* block size.

This module turns that hazard into a runtime proof:

* :class:`RowStabilityProbe` empirically tests, per
  ``(kind, dtype, K, N, splits)`` shape class, whether the folded GEMM is
  byte-identical to the per-request blocks recomputed from fresh
  contiguous operands -- including adversarial patterns (1-row blocks,
  prime sizes, cache-line straddles).  Verdicts are cached per process
  under a signature that covers the numpy version, the battery version
  and the active kernel-backend selection, so switching backends
  invalidates them.
* The ``fused`` backend of the ``fused_sample_matmul`` dispatch point in
  :mod:`repro.core.backend` consults the probe from its ``supports`` hook,
  and its conformance gate *is* the probe contract: the reference
  implementation recomputes every request block standalone, so any fused
  result that survives the gate is bit-exact by construction.  Where the
  probe rejects a class, dispatch silently takes the per-block reference
  path -- still fused at the tile level, never wrong.  A fused conv tile
  unfolds all its requests in one ``im2col``; the verdict's
  ``folded_im2col_gate`` proves that equal to the per-request unfolds.
* :func:`folded_splits` / :func:`scaled_active_splits` carry the
  per-request row counts of a fused tile down to :mod:`repro.nn.functional`
  through a thread-local, so layer code needs no signature changes.

``REPRO_FUSED`` is a kill switch: ``0`` disables tile fusion; anything
else -- including unset -- means ``auto`` (fuse exactly when the verdict
passes).

CLI::

    python -m repro.core.stability --report
"""

from __future__ import annotations

import argparse
import hashlib
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping

import numpy as np

from . import backend as _backend

__all__ = [
    "RowStabilityProbe",
    "StabilityVerdict",
    "probe",
    "fused_mode",
    "folded_splits",
    "active_splits",
    "scaled_active_splits",
    "main",
]


# ----------------------------------------------------------------------
# fusion mode (REPRO_FUSED)
# ----------------------------------------------------------------------
def fused_mode() -> str:
    """The tile-fusion mode: ``"off"`` or ``"auto"``.

    Read from ``REPRO_FUSED`` on every call so tests and operators can flip
    it without restarting the process.
    """
    raw = os.environ.get("REPRO_FUSED", "").strip().lower()
    if raw in ("0", "off", "false", "never"):
        return "off"
    return "auto"


# ----------------------------------------------------------------------
# folded-splits context (threaded down to nn.functional)
# ----------------------------------------------------------------------
_context = threading.local()


@contextmanager
def folded_splits(splits) -> Iterator[None]:
    """Mark the enclosed forward pass as a fused tile of ``splits`` rows."""
    normalised = tuple(int(s) for s in splits)
    if not normalised or any(s < 1 for s in normalised):
        raise ValueError(f"splits must be positive row counts, got {splits!r}")
    previous = getattr(_context, "splits", None)
    _context.splits = normalised
    try:
        yield
    finally:
        _context.splits = previous


def active_splits() -> tuple[int, ...] | None:
    """The per-request row counts of the active fused tile, if any."""
    return getattr(_context, "splits", None)


def scaled_active_splits(m_total: int) -> tuple[int, ...] | None:
    """Active splits rescaled to an ``m_total``-row folded dimension.

    Layers see different M dimensions for the same tile (a conv column
    matrix has ``rows * out_h * out_w`` rows); as long as ``m_total`` is an
    integer multiple of the tile's row total, every request's span scales
    with it.  Returns ``None`` when no tile is active or the dimension does
    not divide evenly (the caller then runs the unfused path).
    """
    splits = active_splits()
    if splits is None or len(splits) < 2:
        return None
    base = sum(splits)
    if base <= 0 or m_total % base:
        return None
    scale = m_total // base
    if scale == 1:
        return splits
    return tuple(s * scale for s in splits)


# ----------------------------------------------------------------------
# shape classes
# ----------------------------------------------------------------------
def bucket_rows(m_total: int) -> int:
    """Bucket a folded row count to the next power of two (min 1)."""
    if m_total <= 1:
        return 1
    return 1 << (int(m_total) - 1).bit_length()


@dataclass(frozen=True)
class ShapeClass:
    """One probed GEMM class: ``kind`` is ``"nn"`` (``A @ B``) or ``"nt"``
    (``A @ B.T``, the conv column idiom)."""

    kind: str
    dtype: str
    k: int
    n: int
    splits: tuple[int, ...]

    @property
    def m_total(self) -> int:
        return sum(self.splits)

    @property
    def bucket(self) -> int:
        return bucket_rows(self.m_total)

    def bucket_key(self) -> tuple[str, str, int, int, int]:
        """Coarse key used for report aggregation."""
        return (self.kind, self.dtype, self.k, self.n, self.bucket)


@dataclass(frozen=True)
class StabilityVerdict:
    """The signed per-process verdict over the generic fusion machinery."""

    ok: bool
    components: Mapping[str, bool]
    signature: str
    details: tuple[str, ...] = ()


def _case_rng(*key: Any) -> np.random.Generator:
    # hash() is salted per process; derive a stable seed so probe data is
    # reproducible across processes and runs
    digest = hashlib.sha256(repr(key).encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


#: (x_shape, kernel, stride, padding, splits, dtype) of the im2col check:
#: all-1-item requests, prime splits, a single-request tile, float32
_IM2COL_GATE_CASES = (
    ((6, 2, 6, 6), 3, 1, 1, (1, 1, 1, 1, 1, 1), np.float64),
    ((13, 1, 5, 5), 3, 2, 0, (1, 2, 3, 7), np.float64),
    ((7, 3, 8, 8), 3, 1, 1, (2, 5), np.float64),
    ((5, 2, 4, 4), 2, 2, 0, (5,), np.float64),
    ((7, 3, 8, 8), 3, 1, 1, (3, 4), np.float32),
)


class RowStabilityProbe:
    """Empirical per-shape-class row-stability prover (cached per process)."""

    #: bump when the battery changes; invalidates cached verdict signatures
    BATTERY_VERSION = 1

    def __init__(self, max_cached_classes: int = 512) -> None:
        self._lock = threading.RLock()
        self._classes: OrderedDict[ShapeClass, bool] = OrderedDict()
        self._max_cached_classes = int(max_cached_classes)
        self._verdicts: dict[str, StabilityVerdict] = {}
        self._battery_runs = 0  # probing effort, exposed for tests/report

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def signature(self) -> str:
        """A short digest naming what the cached verdicts are valid for."""
        payload = repr(
            (
                self.BATTERY_VERSION,
                np.__version__,
                # covers both channels: explicit pins and REPRO_BACKEND,
                # which the registry folds into the selection at import
                sorted(_backend.current_selection().items()),
            )
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def clear(self) -> None:
        """Drop all cached class verdicts and process verdicts (tests)."""
        with self._lock:
            self._classes.clear()
            self._verdicts.clear()

    # ------------------------------------------------------------------
    # the single GEMM funnel -- every probe matmul goes through here, so a
    # test can monkeypatch one method to simulate an unstable BLAS
    # ------------------------------------------------------------------
    def _gemm(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    # ------------------------------------------------------------------
    # per-shape-class battery
    # ------------------------------------------------------------------
    def splits_ok(self, kind: str, dtype, k: int, n: int, splits) -> bool:
        """Is the folded GEMM byte-identical to its per-request blocks?

        Probes the *exact* runtime configuration -- ``kind`` (``"nn"`` or
        ``"nt"``), dtype, inner/output dimensions and the exact ordered
        split pattern -- with synthetic data (two independent draws).
        Rounding behaviour depends on shapes, strides and kernel selection,
        not on operand values, so a synthetic pass transfers to the served
        bytes; the conformance gate and the property suite re-check that
        transfer end to end.
        """
        cls = ShapeClass(
            kind=str(kind),
            dtype=np.dtype(dtype).str,
            k=int(k),
            n=int(n),
            splits=tuple(int(s) for s in splits),
        )
        if cls.kind not in ("nn", "nt"):
            raise ValueError(f"unknown GEMM kind {cls.kind!r}")
        with self._lock:
            cached = self._classes.get(cls)
            if cached is not None:
                self._classes.move_to_end(cls)
                return cached
        ok = self._run_class_battery(cls)
        with self._lock:
            self._classes[cls] = ok
            self._classes.move_to_end(cls)
            while len(self._classes) > self._max_cached_classes:
                self._classes.popitem(last=False)
        return ok

    def _run_class_battery(self, cls: ShapeClass) -> bool:
        with self._lock:
            self._battery_runs += 1
        dtype = np.dtype(cls.dtype)
        m = cls.m_total
        for draw in range(2):
            rng = _case_rng("row-stability", cls, draw)
            a = rng.standard_normal((m, cls.k)).astype(dtype)
            if cls.kind == "nn":
                b = rng.standard_normal((cls.k, cls.n)).astype(dtype)
                b_op = b
            else:
                b = rng.standard_normal((cls.n, cls.k)).astype(dtype)
                b_op = b.T
            whole = self._gemm(a, b_op)
            # call-to-call determinism rides along: a nondeterministic BLAS
            # (or monkeypatched funnel) must fail the class, not fuse
            again = self._gemm(a, b_op)
            if whole.tobytes() != again.tobytes():
                return False
            lo = 0
            for rows in cls.splits:
                hi = lo + rows
                block = self._gemm(np.ascontiguousarray(a[lo:hi]), b_op)
                if whole[lo:hi].tobytes() != block.tobytes():
                    return False
                lo = hi
        return True

    # ------------------------------------------------------------------
    # generic fusion verdict (the tile-level gate)
    # ------------------------------------------------------------------
    def verdict(self) -> StabilityVerdict:
        """The cached per-process verdict over the generic fused machinery.

        ``ok`` gates *tile* fusion (concatenation + folded forward + output
        slicing).  Individual GEMM classes that the probe rejects do NOT
        fail this verdict -- they simply run per-block inside the fused
        tile via the ``fused_sample_matmul`` reference path.
        """
        signature = self.signature()
        with self._lock:
            cached = self._verdicts.get(signature)
        if cached is not None:
            return cached
        components: dict[str, bool] = {}
        details: list[str] = []
        for name, check in (
            ("gemm_determinism", self._probe_gemm_determinism),
            ("elementwise_offsets", self._probe_elementwise),
            ("softmax_rows", self._probe_softmax),
            ("folded_matmul_gate", self._probe_matmul_gate),
            ("folded_im2col_gate", self._probe_im2col_gate),
        ):
            try:
                ok = bool(check())
            except Exception as exc:  # a crashing battery is a failed one
                ok = False
                details.append(f"{name}: {type(exc).__name__}: {exc}")
            components[name] = ok
        verdict = StabilityVerdict(
            ok=all(components.values()),
            components=components,
            signature=signature,
            details=tuple(details),
        )
        with self._lock:
            self._verdicts[signature] = verdict
        return verdict

    def allows(self) -> bool:
        """Should the executor fuse tiles right now (mode + verdict)?"""
        return fused_mode() != "off" and self.verdict().ok

    def _probe_gemm_determinism(self) -> bool:
        # same operands, repeated calls, fresh copies and out= variants must
        # all agree -- the baseline assumption behind per-block recomposition
        for dtype in (np.float64, np.float32):
            rng = _case_rng("determinism", np.dtype(dtype).str)
            a = rng.standard_normal((37, 64)).astype(dtype)
            b = rng.standard_normal((64, 10)).astype(dtype)
            first = self._gemm(a, b)
            if first.tobytes() != self._gemm(a, b).tobytes():
                return False
            if first.tobytes() != self._gemm(a.copy(), b.copy()).tobytes():
                return False
            out = np.empty_like(first)
            self._gemm(a, b, out=out)
            if first.tobytes() != out.tobytes():
                return False
        return True

    def _probe_elementwise(self) -> bool:
        # exp / add / mul / maximum are exact per-element IEEE operations:
        # a row computed inside a folded slab must match the same row
        # computed in a standalone block at any offset
        rng = _case_rng("elementwise")
        x = rng.standard_normal((40, 8))
        bias = rng.standard_normal(8)
        for fn in (
            np.exp,
            lambda v: v + bias,
            lambda v: v * 1.7,
            lambda v: np.maximum(v, 0.0),
        ):
            whole = fn(x)
            for lo, hi in ((0, 1), (3, 8), (17, 40), (39, 40)):
                block = fn(np.ascontiguousarray(x[lo:hi]))
                if whole[lo:hi].tobytes() != block.tobytes():
                    return False
        return True

    def _probe_softmax(self) -> bool:
        # the served probabilities come from softmax over a folded
        # (S, rows, classes) slab; row spans must match standalone blocks,
        # and the out= variant must match the allocating one
        from ..nn import functional as F

        rng = _case_rng("softmax")
        x = rng.standard_normal((2, 29, 10))
        whole = F.softmax(x)
        lo = 0
        for rows in (1, 2, 3, 5, 7, 11):
            hi = lo + rows
            block = F.softmax(np.ascontiguousarray(x[:, lo:hi]))
            if np.ascontiguousarray(whole[:, lo:hi]).tobytes() != block.tobytes():
                return False
            lo = hi
        out = np.empty_like(x)
        F.softmax_into(x, out)
        return out.tobytes() == whole.tobytes()

    def _probe_matmul_gate(self) -> bool:
        try:
            return _backend.verify_backend("fused_sample_matmul", "fused")
        except _backend.BackendConformanceError:
            return False

    def _probe_im2col_gate(self) -> bool:
        # a fused conv tile unfolds every request in one im2col; the column
        # matrix must equal the per-request unfolds -- each from a fresh
        # contiguous block, as a standalone forward makes it -- stacked
        from ..nn import functional as F

        rng = np.random.default_rng(0xF0_CAB)
        for x_shape, kernel, stride, padding, splits, dtype in _IM2COL_GATE_CASES:
            x = rng.standard_normal(x_shape).astype(dtype)
            whole, out_h, out_w = F.im2col(x, kernel, stride, padding)
            blocks = []
            lo = 0
            for items in splits:
                cols, block_h, block_w = F.im2col(
                    np.ascontiguousarray(x[lo : lo + items]), kernel, stride, padding
                )
                if (block_h, block_w) != (out_h, out_w):
                    return False
                blocks.append(cols)
                lo += items
            stacked = np.concatenate(blocks, axis=0)
            if whole.dtype != stacked.dtype or whole.shape != stacked.shape:
                return False
            if np.ascontiguousarray(whole).tobytes() != stacked.tobytes():
                return False
        return True

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def class_report(self) -> list[dict[str, Any]]:
        """Probed classes aggregated into coarse shape buckets."""
        with self._lock:
            entries = list(self._classes.items())
        buckets: OrderedDict[tuple, dict[str, Any]] = OrderedDict()
        for cls, ok in entries:
            key = cls.bucket_key()
            row = buckets.get(key)
            if row is None:
                row = buckets[key] = {
                    "kind": cls.kind,
                    "dtype": cls.dtype,
                    "k": cls.k,
                    "n": cls.n,
                    "m_bucket": cls.bucket,
                    "stable_patterns": 0,
                    "unstable_patterns": 0,
                }
            row["stable_patterns" if ok else "unstable_patterns"] += 1
        return list(buckets.values())

    def report(self) -> dict[str, Any]:
        """Everything ``--report`` prints, as a dict (quickstart uses it)."""
        verdict = self.verdict()
        return {
            "signature": verdict.signature,
            "mode": fused_mode(),
            "fusion_allowed": verdict.ok and fused_mode() != "off",
            "verdict": {
                "ok": verdict.ok,
                "components": dict(verdict.components),
                "details": list(verdict.details),
            },
            "battery_runs": self._battery_runs,
            "classes": self.class_report(),
        }


#: the process-wide probe consulted by kernel dispatch and the executor
probe = RowStabilityProbe()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _demo_classes() -> list[tuple[str, str, int, int, tuple[int, ...]]]:
    # representative serving shapes: the quickstart MLP layers (196->128,
    # 128->10) and a conv column idiom, under typical and adversarial splits
    classes = []
    for kind, k, n in (("nn", 196, 128), ("nn", 128, 10), ("nt", 18, 8)):
        for dtype in ("<f8", "<f4"):
            for splits in (
                (16, 16, 16, 16),
                (1, 1, 1, 1),
                (1, 2, 3, 5, 7, 19),
            ):
                classes.append((kind, dtype, k, n, splits))
    return classes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.stability",
        description="Probe the installed BLAS for folded-GEMM row stability.",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="probe representative serving shape classes and print the "
        "fusion verdict",
    )
    args = parser.parse_args(argv)
    if not args.report:
        parser.print_help()
        return 0
    for kind, dtype, k, n, splits in _demo_classes():
        probe.splits_ok(kind, dtype, k, n, splits)
    report = probe.report()
    print(f"row-stability signature : {report['signature']}")
    print(f"REPRO_FUSED mode        : {report['mode']}")
    print(f"tile fusion allowed     : {report['fusion_allowed']}")
    print("verdict components:")
    for name, ok in report["verdict"]["components"].items():
        print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    for line in report["verdict"]["details"]:
        print(f"        {line}")
    print("probed GEMM classes (aggregated by shape bucket):")
    header = f"  {'kind':<5}{'dtype':<7}{'K':>5}{'N':>5}{'M<=':>6}  stable/unstable patterns"
    print(header)
    for row in report["classes"]:
        print(
            f"  {row['kind']:<5}{row['dtype']:<7}{row['k']:>5}{row['n']:>5}"
            f"{row['m_bucket']:>6}  {row['stable_patterns']}/{row['unstable_patterns']}"
        )
    print(
        "note: an unstable class never blocks tile fusion -- its GEMMs run "
        "per-block inside the fused tile (bit-exact by construction)."
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI smoke
    raise SystemExit(main())
