"""Unit tests of the kernel-backend registry (repro.core.backend)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.backend as backend
from repro.core.backend import (
    BackendConformanceError,
    BackendImpl,
    KernelBackendError,
    KernelRegistry,
    UnknownBackendError,
)
from repro.models import ReplicaSpec, get_model

KERNELS = {
    "lfsr_step_block",
    "window_popcounts",
    "clt_standardise",
    "grng_block",
    "sample_matmul",
    "im2col",
    "col2im",
    "maxpool2d_forward",
    "maxpool2d_backward",
}


# ----------------------------------------------------------------------
# a toy registry, so failure paths never touch the real dispatch points
# ----------------------------------------------------------------------
def _toy_registry(**backends: BackendImpl) -> KernelRegistry:
    reg = KernelRegistry()
    reg.register_kernel(
        "double",
        doc="multiply a vector by two",
        chain=(*backends, "reference"),
        rows_of=lambda x: x.size,
        conformance_cases=lambda: [
            {"x": np.arange(5, dtype=np.float64)},
            {"x": np.zeros(0, dtype=np.float64)},
        ],
        check=_check_double,
    )
    reg.register_backend(
        "double", BackendImpl("reference", lambda x: x * 2.0)
    )
    for impl in backends.values():
        reg.register_backend("double", impl)
    return reg


def _check_double(case, expected, got):
    if expected.tobytes() != got.tobytes():
        raise AssertionError("not bit-identical")


def _liar(x):
    return x * 2.0 + 1.0  # deliberately nonconformant


class TestConformanceGate:
    def test_forced_nonconformant_backend_raises(self):
        reg = _toy_registry(liar=BackendImpl("liar", _liar))
        reg.set_backend("double", "liar")
        with pytest.raises(BackendConformanceError, match="liar.*double"):
            reg.call("double", np.ones(3))

    def test_chain_skips_nonconformant_backend(self):
        # 'liar' heads the chain but fails the gate; dispatch must answer
        # from the oracle, bit-exactly, without raising
        reg = _toy_registry(liar=BackendImpl("liar", _liar))
        out = reg.call("double", np.arange(3, dtype=np.float64))
        assert np.array_equal(out, [0.0, 2.0, 4.0])
        assert reg.counters_snapshot()["double"] == {
            "reference": {"calls": 1, "rows": 3}
        }

    def test_verify_backend_reports_the_failing_case(self):
        reg = _toy_registry(liar=BackendImpl("liar", _liar))
        with pytest.raises(BackendConformanceError, match="case 0"):
            reg.verify_backend("double", "liar")

    def test_unavailable_backend_is_skipped_and_verify_raises(self):
        impl = BackendImpl("liar", _liar, available=lambda: False)
        reg = _toy_registry(liar=impl)
        out = reg.call("double", np.arange(2, dtype=np.float64))
        assert np.array_equal(out, [0.0, 2.0])
        with pytest.raises(KernelBackendError, match="not available"):
            reg.verify_backend("double", "liar")

    def test_forced_unavailable_backend_warns_and_uses_chain(self):
        impl = BackendImpl("liar", _liar, available=lambda: False)
        reg = _toy_registry(liar=impl)
        reg.set_backend("double", "liar")
        with pytest.warns(RuntimeWarning, match="not available"):
            out = reg.call("double", np.arange(2, dtype=np.float64))
        assert np.array_equal(out, [0.0, 2.0])

    def test_forced_backend_outside_support_answers_from_oracle(self):
        # conformant but only supports even-sized inputs: a forced odd-size
        # call silently falls back to the (bit-identical) oracle
        impl = BackendImpl(
            "fragile", lambda x: x * 2.0, supports=lambda x: x.size % 2 == 0
        )
        reg = _toy_registry(fragile=impl)
        reg.set_backend("double", "fragile")
        odd = reg.call("double", np.arange(3, dtype=np.float64))
        even = reg.call("double", np.arange(4, dtype=np.float64))
        assert np.array_equal(odd, [0.0, 2.0, 4.0])
        assert np.array_equal(even, [0.0, 2.0, 4.0, 6.0])
        counters = reg.counters_snapshot()["double"]
        assert counters["reference"]["calls"] == 1
        assert counters["fragile"]["calls"] == 1

    def test_duplicate_registration_rejected(self):
        reg = _toy_registry()
        with pytest.raises(KernelBackendError, match="already registered"):
            reg.register_backend("double", BackendImpl("reference", _liar))

    def test_unknown_names_raise(self):
        reg = _toy_registry()
        with pytest.raises(UnknownBackendError):
            reg.set_backend("double", "nope")
        with pytest.raises(UnknownBackendError):
            reg.call("nope", np.ones(1))
        with pytest.raises(UnknownBackendError):
            reg.dispatch("nope")


class TestSelection:
    def test_using_restores_previous_selection(self, restore_selection):
        backend.set_backend("window_popcounts", "reference")
        with backend.using("window_popcounts", "cumsum16"):
            assert backend.current_selection()["window_popcounts"] == "cumsum16"
        assert backend.current_selection()["window_popcounts"] == "reference"
        backend.set_backend("window_popcounts", None)
        assert "window_popcounts" not in backend.current_selection()

    def test_apply_selection_replaces_wholesale(self, restore_selection):
        backend.apply_selection({"clt_standardise": "reference"})
        backend.apply_selection({"sample_matmul": "dot_loop"})
        assert backend.current_selection() == {"sample_matmul": "dot_loop"}
        with pytest.raises(UnknownBackendError):
            backend.apply_selection({"im2col": "nope"})
        # a rejected selection must not have been half-applied
        assert backend.current_selection() == {"sample_matmul": "dot_loop"}

    def test_load_env_kernel_pairs_and_bare_names(self, restore_selection):
        backend.registry.load_env("window_popcounts=cumsum16")
        assert backend.current_selection() == {"window_popcounts": "cumsum16"}
        # a bare backend name applies to every kernel that registers it --
        # 'reference' exists everywhere, so it forces the oracle globally
        backend.registry.load_env("reference")
        assert backend.current_selection() == {
            kernel: "reference" for kernel in backend.kernel_names()
        }
        backend.registry.load_env("")
        assert backend.current_selection() == {}

    def test_load_env_ignores_unknown_tokens(self, restore_selection):
        with pytest.warns(RuntimeWarning, match="unknown selection"):
            backend.registry.load_env("window_popcounts=bogus_name_xyz")
        assert backend.current_selection() == {}
        with pytest.warns(RuntimeWarning, match="no kernel registers"):
            backend.registry.load_env("bogus_backend_xyz,clt_standardise=reference")
        # the typo is dropped, the valid token still lands
        assert backend.current_selection() == {"clt_standardise": "reference"}


class TestIntrospection:
    def test_registry_covers_the_hot_kernels(self):
        assert KERNELS <= set(backend.kernel_names())

    def test_counters_track_calls_and_rows(self):
        reg = _toy_registry()
        run = reg.dispatch("double")
        run(np.ones(7))
        run(np.ones(5))
        assert reg.counters_snapshot() == {
            "double": {"reference": {"calls": 2, "rows": 12}}
        }
        reg.reset_counters()
        assert reg.counters_snapshot() == {}

    def test_stats_snapshot_reports_selection(self):
        reg = _toy_registry()
        reg.call("double", np.ones(4))
        reg.set_backend("double", "reference")
        stats = reg.stats_snapshot()
        assert stats["double"]["selection"] == "reference"
        assert stats["double"]["backends"]["reference"]["rows"] == 4
        reg.set_backend("double", None)
        assert reg.stats_snapshot()["double"]["selection"] == "auto"

    def test_list_backends_shape(self):
        listing = backend.list_backends()
        by_kernel = {entry["kernel"]: entry for entry in listing}
        assert KERNELS <= set(by_kernel)
        popcounts = by_kernel["window_popcounts"]
        assert popcounts["chain"][-1] == "reference"
        names = {b["name"] for b in popcounts["backends"]}
        assert {"reference", "cumsum16", "packed_bitcount"} <= names
        for entry in listing:
            reference = next(
                b for b in entry["backends"] if b["name"] == "reference"
            )
            assert reference["available"]
            assert reference["conformance"] == "oracle"

    def test_optional_backend_lists_its_availability(self):
        # grng_block/native is the registry's one toolchain-dependent backend:
        # listed everywhere, available only where the C kernel builds
        entry = next(e for e in backend.list_backends() if e["kernel"] == "grng_block")
        assert entry["chain"] == ["native", "reference"]
        listed = next(b for b in entry["backends"] if b["name"] == "native")
        assert listed["available"] == (backend.native.library.load() is not None)
        if not listed["available"]:
            with pytest.raises(KernelBackendError, match="not available"):
                backend.verify_backend("grng_block", "native")

    def test_cli_list_and_verify(self, capsys):
        assert backend.main(["--list"]) == 0
        out = capsys.readouterr().out
        for kernel in KERNELS:
            assert kernel in out
        assert backend.main(["--verify"]) == 0
        out = capsys.readouterr().out
        assert "ORACLE" in out and "PASS (bit-identical)" in out
        assert "FAIL" not in out


class TestReplicaSpecSelection:
    def test_capture_records_and_build_applies_selection(self, restore_selection):
        spec = get_model("B-MLP", reduced=True)
        with backend.using("window_popcounts", "cumsum16"):
            replica = ReplicaSpec.structural(spec)
        assert ("window_popcounts", "cumsum16") in replica.backend_selection
        backend.apply_selection({})
        replica.build()
        assert backend.current_selection()["window_popcounts"] == "cumsum16"

    def test_legacy_spec_without_selection_changes_nothing(self, restore_selection):
        spec = get_model("B-MLP", reduced=True)
        replica = ReplicaSpec(spec=spec)  # pre-PR-6 pickles carry None
        assert replica.backend_selection is None
        backend.apply_selection({"clt_standardise": "reference"})
        replica.build()
        assert backend.current_selection() == {"clt_standardise": "reference"}

    def test_selection_is_not_part_of_the_fingerprint(self, restore_selection):
        spec = get_model("B-MLP", reduced=True)
        plain = ReplicaSpec.structural(spec)
        with backend.using("sample_matmul", "dot_loop"):
            forced = ReplicaSpec.structural(spec)
        # all backends are bit-identical, so the replica identity (and any
        # registry version check built on it) must not depend on selection
        assert plain.fingerprint() == forced.fingerprint()
