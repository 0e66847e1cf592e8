"""Unit tests for the runtime BLAS row-stability prover.

The probe is the safety gate in front of tile fusion: these tests pin its
caching discipline (one battery per exact shape class, one verdict per
signature), its sensitivity (a monkeypatched unstable/nondeterministic GEMM
must fail the class or the verdict), the ``REPRO_FUSED`` mode parsing, and
the thread-local folded-splits plumbing that carries per-request row counts
into :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.backend as backend
from repro.core import stability
from repro.core.stability import (
    RowStabilityProbe,
    ShapeClass,
    bucket_rows,
    folded_splits,
    active_splits,
    scaled_active_splits,
)


# ----------------------------------------------------------------------
# REPRO_FUSED parsing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("0", "off"),
        ("off", "off"),
        ("FALSE", "off"),
        ("never", "off"),
        ("1", "on"),
        ("on", "on"),
        ("True", "on"),
        ("force", "on"),
        ("", "auto"),
        ("auto", "auto"),
        ("yes-please", "auto"),
    ],
)
def test_fused_mode_parsing(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_FUSED", raw)
    assert stability.fused_mode() == expected


def test_fused_mode_unset_is_auto(monkeypatch):
    monkeypatch.delenv("REPRO_FUSED", raising=False)
    assert stability.fused_mode() == "auto"


# ----------------------------------------------------------------------
# folded-splits context
# ----------------------------------------------------------------------
def test_folded_splits_context_sets_and_restores():
    assert active_splits() is None
    with folded_splits((3, 5)):
        assert active_splits() == (3, 5)
        with folded_splits((2, 2, 2)):
            assert active_splits() == (2, 2, 2)
        assert active_splits() == (3, 5)
    assert active_splits() is None


def test_folded_splits_rejects_bad_row_counts():
    with pytest.raises(ValueError):
        with folded_splits(()):
            pass
    with pytest.raises(ValueError):
        with folded_splits((3, 0)):
            pass


def test_scaled_active_splits():
    assert scaled_active_splits(10) is None  # no tile active
    with folded_splits((3, 5)):
        assert scaled_active_splits(8) == (3, 5)  # scale 1
        # conv column matrices scale by out_h * out_w
        assert scaled_active_splits(80) == (30, 50)
        assert scaled_active_splits(12) is None  # not a multiple: unfused path
    with folded_splits((7,)):
        # single-request tiles have nothing to fuse at the GEMM level
        assert scaled_active_splits(7) is None


# ----------------------------------------------------------------------
# shape-class bucketing
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("m", "bucket"), [(0, 1), (1, 1), (2, 2), (3, 4), (64, 64), (65, 128)]
)
def test_bucket_rows(m, bucket):
    assert bucket_rows(m) == bucket


def test_shape_class_bucket_key_aggregates_patterns():
    a = ShapeClass("nn", "<f8", 196, 128, (16, 16, 16, 16))
    b = ShapeClass("nn", "<f8", 196, 128, (13, 17, 19, 15))
    assert a.m_total == b.m_total == 64
    assert a.bucket_key() == b.bucket_key() == ("nn", "<f8", 196, 128, 64)
    assert ShapeClass("nn", "<f8", 196, 128, (1,)).bucket_key()[-1] == 1


# ----------------------------------------------------------------------
# per-class battery + caching
# ----------------------------------------------------------------------
def test_splits_ok_caches_per_exact_class():
    p = RowStabilityProbe()
    first = p.splits_ok("nn", np.float64, 17, 9, (4, 4))
    runs = p._battery_runs
    assert p.splits_ok("nn", np.float64, 17, 9, (4, 4)) == first
    assert p._battery_runs == runs  # cached, no re-probe
    p.splits_ok("nn", np.float64, 17, 9, (4, 5))  # different pattern: new run
    assert p._battery_runs == runs + 1


def test_splits_ok_is_deterministic_across_probe_instances():
    # the battery seeds from a sha256 of the class, not from process state,
    # so two probes (and two processes) must always agree
    args = ("nt", np.float64, 18, 8, (1, 2, 3, 7))
    assert RowStabilityProbe().splits_ok(*args) == RowStabilityProbe().splits_ok(*args)


def test_splits_ok_rejects_unknown_kind():
    with pytest.raises(ValueError):
        RowStabilityProbe().splits_ok("tn", np.float64, 4, 4, (2, 2))


def test_unstable_gemm_fails_the_class():
    # simulate a BLAS whose rounding depends on M: per-block recomputation
    # then cannot match the folded pass, and the class must be rejected
    class UnstableProbe(RowStabilityProbe):
        def _gemm(self, a, b, out=None):
            result = np.matmul(a, b, out=out)
            if a.shape[0] % 2:  # odd-M calls round "differently"
                result = result + np.finfo(result.dtype).eps * result
                if out is not None:
                    out[...] = result
            return result

    assert UnstableProbe().splits_ok("nn", np.float64, 8, 8, (3, 5)) is False


def test_nondeterministic_gemm_fails_the_class():
    class FlakyProbe(RowStabilityProbe):
        calls = 0

        def _gemm(self, a, b, out=None):
            FlakyProbe.calls += 1
            result = np.matmul(a, b, out=out)
            if FlakyProbe.calls % 2:
                result = result * (1.0 + np.finfo(result.dtype).eps)
                if out is not None:
                    out[...] = result
            return result

    assert FlakyProbe().splits_ok("nn", np.float64, 8, 8, (4, 4)) is False


def test_class_cache_is_bounded_lru():
    p = RowStabilityProbe(max_cached_classes=2)
    p.splits_ok("nn", np.float64, 3, 3, (2, 2))
    p.splits_ok("nn", np.float64, 4, 4, (2, 2))
    p.splits_ok("nn", np.float64, 3, 3, (2, 2))  # promote the first
    p.splits_ok("nn", np.float64, 5, 5, (2, 2))  # evicts (4, 4), not (3, 3)
    runs = p._battery_runs
    p.splits_ok("nn", np.float64, 3, 3, (2, 2))
    assert p._battery_runs == runs  # survived: promoted on get
    p.splits_ok("nn", np.float64, 4, 4, (2, 2))
    assert p._battery_runs == runs + 1  # evicted: re-probed


# ----------------------------------------------------------------------
# the process verdict
# ----------------------------------------------------------------------
def test_verdict_is_cached_per_signature():
    p = RowStabilityProbe()
    first = p.verdict()
    assert p.verdict() is first  # cached object, battery ran once
    assert first.signature == p.signature()
    assert set(first.components) == {
        "gemm_determinism",
        "elementwise_offsets",
        "softmax_rows",
        "folded_matmul_gate",
        "folded_im2col_gate",
    }
    p.clear()
    second = p.verdict()
    assert second is not first and second.ok == first.ok


def test_signature_covers_backend_selection():
    p = RowStabilityProbe()
    base = p.signature()
    # grng_block=native is never an explicit pin of the ambient selection
    # (the default pins nothing, REPRO_BACKEND=reference and
    # REPRO_BACKEND=grng_block=reference pin the oracle), so this pin always
    # names a different verdict domain -- in every CI leg
    with backend.using("grng_block", "native"):
        pinned = p.signature()
    assert p.signature() == base
    assert pinned != base


def test_failed_verdict_blocks_fusion_and_warns_once_when_forced(monkeypatch):
    class BrokenProbe(RowStabilityProbe):
        def _probe_gemm_determinism(self):
            return False

    p = BrokenProbe()
    monkeypatch.setenv("REPRO_FUSED", "auto")
    assert p.allows() is False
    monkeypatch.setenv("REPRO_FUSED", "1")
    with pytest.warns(RuntimeWarning, match="row-stability verdict"):
        assert p.allows() is False
    # warned once per signature, not once per tile
    import warnings as _warnings

    with _warnings.catch_warnings():
        _warnings.simplefilter("error")
        assert p.allows() is False


def test_mode_off_blocks_without_running_the_battery(monkeypatch):
    p = RowStabilityProbe()
    monkeypatch.setenv("REPRO_FUSED", "0")
    assert p.allows() is False
    assert p._verdicts == {}  # never even probed


def test_real_blas_verdict_passes_here():
    # the container's BLAS passes the generic battery (the fused serving
    # benchmarks depend on it); a platform where this fails would serve
    # correctly through the per-request fallback, but we pin our CI truth
    verdict = stability.probe.verdict()
    assert verdict.ok, verdict


# ----------------------------------------------------------------------
# report / CLI
# ----------------------------------------------------------------------
def test_report_shape():
    p = RowStabilityProbe()
    p.splits_ok("nn", np.float64, 6, 4, (2, 3))
    report = p.report()
    assert report["signature"] == p.signature()
    assert report["mode"] in ("off", "on", "auto")
    assert report["battery_runs"] >= 1
    assert any(row["k"] == 6 and row["n"] == 4 for row in report["classes"])


def test_cli_report_smoke(capsys):
    assert stability.main(["--report"]) == 0
    out = capsys.readouterr().out
    assert "row-stability signature" in out
    assert "tile fusion allowed" in out
    assert "PASS" in out or "FAIL" in out
