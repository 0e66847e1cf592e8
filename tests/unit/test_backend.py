"""Unit tests of the kernel-backend registry (repro.core.backend)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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
from repro.bnn import BNNTrainer, TrainerConfig
from repro.bnn.serialization import load_replica, save_replica
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.models import ReplicaSpec, get_model

#: Every dispatch point's default chain: the order its backends register in.
DEFAULT_CHAINS = {
    "window_popcounts": ["packed_bitcount", "cumsum16", "reference"],
    "fused_sample_matmul": ["fused", "reference"],
    **{
        kernel: ["native", "reference"]
        for kernel in (
            "grng_block",
            "im2col",
            "col2im",
            "maxpool2d_forward",
            "maxpool2d_backward",
            "posterior_gc",
            "json_dumps_f64",
            "json_loads_f64",
        )
    },
}
KERNELS = set(DEFAULT_CHAINS)

#: The kernels with one implementation: plain functions, not dispatch points.
COUNTED = ("clt_standardise", "lfsr_step_block", "sample_matmul")

SRC = Path(__file__).resolve().parents[2] / "src"


# ----------------------------------------------------------------------
# a toy registry, so failure paths never touch the real dispatch points
# ----------------------------------------------------------------------
def _register_double(reg: KernelRegistry, *backends: BackendImpl) -> None:
    reg.register(
        "double",
        doc="multiply a vector by two",
        rows_of=lambda x: x.size,
        cases=lambda: [
            {"x": np.arange(5, dtype=np.float64)},
            {"x": np.zeros(0, dtype=np.float64)},
        ],
        check=_check_double,
        backends=backends,
    )


def _toy_registry(*backends: BackendImpl) -> KernelRegistry:
    reg = KernelRegistry()
    _register_double(reg, *backends, BackendImpl("reference", lambda x: x * 2.0))
    return reg


def _check_double(case, expected, got):
    if expected.tobytes() != got.tobytes():
        raise AssertionError("not bit-identical")


def _liar(x):
    return x * 2.0 + 1.0  # deliberately nonconformant


class TestConformanceGate:
    def test_forced_nonconformant_backend_raises(self):
        reg = _toy_registry(BackendImpl("liar", _liar))
        reg.set_backend("double", "liar")
        with pytest.raises(BackendConformanceError, match="liar.*double"):
            reg.call("double", np.ones(3))

    def test_chain_skips_nonconformant_backend(self):
        # 'liar' heads the chain but fails the gate; dispatch must answer
        # from the oracle, bit-exactly, without raising
        reg = _toy_registry(BackendImpl("liar", _liar))
        out = reg.call("double", np.arange(3, dtype=np.float64))
        assert np.array_equal(out, [0.0, 2.0, 4.0])
        assert reg.counters_snapshot()["double"] == {
            "reference": {"calls": 1, "rows": 3}
        }

    def test_verify_backend_reports_the_failing_case(self):
        reg = _toy_registry(BackendImpl("liar", _liar))
        with pytest.raises(BackendConformanceError, match="case 0"):
            reg.verify_backend("double", "liar")

    def test_unavailable_backend_is_skipped_and_verify_raises(self):
        impl = BackendImpl("liar", _liar, available=lambda: False)
        reg = _toy_registry(impl)
        out = reg.call("double", np.arange(2, dtype=np.float64))
        assert np.array_equal(out, [0.0, 2.0])
        with pytest.raises(KernelBackendError, match="not available"):
            reg.verify_backend("double", "liar")

    def test_forced_unavailable_backend_warns_and_uses_chain(self):
        impl = BackendImpl("liar", _liar, available=lambda: False)
        reg = _toy_registry(impl)
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
        reg = _toy_registry(impl)
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
            _register_double(reg, BackendImpl("reference", _liar))

    def test_backends_must_end_in_the_reference(self):
        reg = KernelRegistry()
        liar, reference = BackendImpl("liar", _liar), BackendImpl("reference", _liar)
        for backends in ((), (liar,), (reference, liar)):
            with pytest.raises(KernelBackendError, match="must end in 'reference'"):
                _register_double(reg, *backends)
        assert reg.kernel_names() == ()  # a rejected point is not half-registered

    def test_a_repeated_backend_name_is_rejected(self):
        reg = KernelRegistry()
        liar, reference = BackendImpl("liar", _liar), BackendImpl("reference", _liar)
        with pytest.raises(KernelBackendError, match="repeats a backend"):
            _register_double(reg, liar, liar, reference)
        assert reg.kernel_names() == ()

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
        backend.set_backend("grng_block", "native")
        with backend.using("grng_block", "reference"):
            assert backend.current_selection()["grng_block"] == "reference"
        assert backend.current_selection()["grng_block"] == "native"
        backend.set_backend("grng_block", None)
        assert "grng_block" not in backend.current_selection()

    def test_apply_selection_replaces_wholesale(self, restore_selection):
        backend.apply_selection({"window_popcounts": "reference"})
        backend.apply_selection({"grng_block": "reference"})
        assert backend.current_selection() == {"grng_block": "reference"}
        with pytest.raises(UnknownBackendError):
            backend.apply_selection({"im2col": "nope"})
        # a rejected selection must not have been half-applied
        assert backend.current_selection() == {"grng_block": "reference"}

    def test_load_env_kernel_pairs_and_bare_names(self, restore_selection):
        backend.registry.load_env("grng_block=reference")
        assert backend.current_selection() == {"grng_block": "reference"}
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
            backend.registry.load_env("bogus_backend_xyz,im2col=reference")
        # the typo is dropped, the valid token still lands
        assert backend.current_selection() == {"im2col": "reference"}

    def test_load_env_ignores_a_retired_kernel(self, restore_selection):
        # clt_standardise is a plain function now: nothing to select
        with pytest.warns(RuntimeWarning, match="unknown selection"):
            backend.registry.load_env("clt_standardise=reference,grng_block=reference")
        assert backend.current_selection() == {"grng_block": "reference"}


# ----------------------------------------------------------------------
# each dispatch point resolves its chain once per selection version
# ----------------------------------------------------------------------
def _grng_call(reg: KernelRegistry, rows: int = 3) -> dict:
    """One ``grng_block`` call through ``reg``: how its counters moved."""
    before = reg.counters_snapshot().get("grng_block", {})
    state = backend._random_state_words(np.random.default_rng(rows), rows, 256)
    out = np.empty((rows, 5))
    reg.call("grng_block", state, 256, (246, 251, 254, 256), 256, 5, 128.0, 8.0, out)
    after = reg.counters_snapshot()["grng_block"]
    return {
        name: {key: count - before.get(name, {}).get(key, 0) for key, count in ran.items()}
        for name, ran in after.items()
        if ran != before.get(name)
    }


def _ran(name: str, rows: int = 3) -> dict:
    return {name: {"calls": 1, "rows": rows}}


def _nonconformant(impl: BackendImpl) -> BackendImpl:
    """``impl`` with the lowest bit of its first epsilon flipped."""

    def fn(*args, **kwargs):
        out, *rest = impl.fn(*args, **kwargs)
        out[0, 0] = np.nextafter(out[0, 0], np.inf)
        return (out, *rest)

    return BackendImpl(impl.name, fn, impl.description, impl.supports, impl.available)


class TestCachedRoutes:
    """A call takes its point's route, rebuilt only when the selection
    version moves: every writer of the forced choices, and verify_backend."""

    @pytest.mark.parametrize(
        "how", ["set_backend", "using", "load_env", "apply_selection", "verify_backend"]
    )
    def test_a_selection_change_reroutes_the_very_next_call(self, how):
        if backend.native.library.load() is None:
            pytest.skip("the compiled grng_block is unavailable here")
        reg = KernelRegistry()  # a fresh registry: no REPRO_BACKEND, no gates run
        backend._register_builtin(reg)
        assert _grng_call(reg) == _ran("native")
        assert _grng_call(reg, rows=2) == _ran("native", rows=2)  # the cached route
        if how == "using":
            with reg.using("grng_block", "reference"):
                assert _grng_call(reg) == _ran("reference")
            assert _grng_call(reg) == _ran("native")
            return
        if how == "verify_backend":
            backends = reg._kernels["grng_block"].backends
            honest = backends["native"]
            backends["native"] = _nonconformant(honest)
            with pytest.raises(BackendConformanceError):
                reg.verify_backend("grng_block", "native")
            assert _grng_call(reg) == _ran("reference")
            backends["native"] = honest
            assert reg.verify_backend("grng_block", "native")
        elif how == "set_backend":
            reg.set_backend("grng_block", "reference")
            assert _grng_call(reg) == _ran("reference")
            reg.set_backend("grng_block", None)
        elif how == "load_env":
            reg.load_env("reference")
            assert _grng_call(reg) == _ran("reference")
            reg.load_env("")
        else:
            reg.apply_selection({"grng_block": "reference"})
            assert _grng_call(reg) == _ran("reference")
            reg.apply_selection({})
        assert _grng_call(reg) == _ran("native")

    def test_a_route_is_built_once_per_selection_version(self):
        checks = []
        impl = BackendImpl(
            "even", lambda x: x * 2.0,
            supports=lambda x: x.size % 2 == 0,
            available=lambda: checks.append(1) or True,
        )
        reg = _toy_registry(impl)
        for size in (2, 3, 4, 5):
            reg.call("double", np.arange(size, dtype=np.float64))
        # availability and the gate once; supports on every call, and the
        # calls it declines counted against the oracle, as before
        assert len(checks) == 1
        assert reg.counters_snapshot()["double"] == {
            "even": {"calls": 2, "rows": 6},
            "reference": {"calls": 2, "rows": 8},
        }
        reg.set_backend("double", None)
        reg.call("double", np.ones(2))
        assert len(checks) == 2


class TestIntrospection:
    def test_registry_covers_the_hot_kernels(self):
        # each of the ten dispatch points on its pinned default chain
        listing = backend.list_backends()
        assert {entry["kernel"]: entry["chain"] for entry in listing} == DEFAULT_CHAINS

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
        assert popcounts["chain"] == ["packed_bitcount", "cumsum16", "reference"]
        names = {b["name"] for b in popcounts["backends"]}
        assert names == {"reference", "cumsum16", "packed_bitcount"}
        assert not set(COUNTED) & set(by_kernel)  # plain functions, not listed
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


    def test_cli_runs_on_the_one_registry(self):
        # a fresh process: the package CLI must not execute the registry
        # module a second time, which runpy would warn about
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.core", "--list"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        listed = [
            line.split()[0] for line in done.stdout.splitlines() if "(selection:" in line
        ]
        assert len(listed) == 10
        assert sorted(listed) == sorted(backend.kernel_names())

    def test_former_cli_module_points_at_the_package(self):
        done = subprocess.run(
            [sys.executable, "-m", "repro.core.backend", "--verify"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            timeout=120,
        )
        # never a silent pass: a script still running the old spelling fails
        assert done.returncode == 1
        assert "python -m repro.core" in done.stderr
        assert done.stdout == ""

    def test_stats_snapshot_lists_the_counted_functions(self):
        stats = backend.stats_snapshot()
        assert set(stats) == set(backend.kernel_names()) | set(COUNTED)
        for name in COUNTED:
            assert stats[name]["selection"] == "reference"


class TestCountedFunctions:
    """The three plain functions count exactly what their dispatch points did.

    The pinned numbers are one warm ``train_step``'s ``(calls, rows)`` per
    function, read when the three were still dispatch points (a compiled
    ``grng_block`` never steps an LFSR or standardises in NumPy; its
    reference composes both per sequence chunk).  The reference rows were
    re-read when that chunk went from 2 MiB to 512 KiB: 10 and 4 chunks per
    step became 24 and 6, the rows standardised unchanged.  Since a chunk
    continues its predecessor's sequence, only the first chunk of a
    ``grng_block`` call steps through ``lfsr_step_block``, and a reference
    rewind adds one short run: per step one call per layer forward, and on
    ``reversible`` two per layer replay (B-MLP: 4 + 2 x 4 = 12; B-LeNet: 4);
    ``clt_standardise`` still counts every chunk.
    """

    PINNED = {
        ("B-MLP", "reversible", "native"): {"sample_matmul": (11, 88)},
        ("B-MLP", "reversible", "reference"): {
            "clt_standardise": (24, 342016),
            "lfsr_step_block": (12, 96),
            "sample_matmul": (11, 88),
        },
        ("B-LeNet", "stored", "native"): {"sample_matmul": (6, 24)},
        ("B-LeNet", "stored", "reference"): {
            "clt_standardise": (6, 42024),
            "lfsr_step_block": (4, 16),
            "sample_matmul": (6, 24),
        },
    }

    @pytest.mark.parametrize(
        ("model", "policy", "grng"),
        sorted(PINNED),
        ids=["-".join(key) for key in sorted(PINNED)],
    )
    def test_a_train_step_counts_what_the_dispatch_points_did(
        self, restore_selection, model, policy, grng
    ):
        if grng == "native" and backend.native.library.load() is None:
            pytest.skip("the compiled grng_block is unavailable here")
        if model == "B-MLP":
            train, _ = synthetic_mnist(n_train=32, n_test=16, image_size=14, seed=0)
            batches = BatchLoader(train, batch_size=16, flatten=True).batches()
            n_samples = 8
        else:
            train, _ = synthetic_cifar10(n_train=16, n_test=16, image_size=16, seed=0)
            batches = BatchLoader(train, batch_size=8).batches()
            n_samples = 4
        backend.apply_selection({"grng_block": grng})
        trainer = BNNTrainer(
            get_model(model, reduced=True).build_bayesian(seed=1),
            TrainerConfig(n_samples=n_samples, seed=2),
            policy=policy,
        )
        trainer.train_step(*batches[0], kl_weight=1 / 32)
        backend.reset_counters()
        trainer.train_step(*batches[1], kl_weight=1 / 32)
        counters = backend.counters_snapshot()
        got = {
            name: (counters[name]["reference"]["calls"], counters[name]["reference"]["rows"])
            for name in COUNTED
            if name in counters
        }
        assert got == self.PINNED[(model, policy, grng)]
        assert all(set(counters[name]) == {"reference"} for name in got)


class TestReplicaSpecSelection:
    def test_capture_records_and_build_applies_selection(self, restore_selection):
        spec = get_model("B-MLP", reduced=True)
        with backend.using("grng_block", "reference"):
            replica = ReplicaSpec.structural(spec)
        assert ("grng_block", "reference") in replica.backend_selection
        backend.apply_selection({})
        replica.build()
        assert backend.current_selection()["grng_block"] == "reference"

    def test_legacy_spec_without_selection_changes_nothing(self, restore_selection):
        spec = get_model("B-MLP", reduced=True)
        replica = ReplicaSpec(spec=spec)  # pre-PR-6 pickles carry None
        assert replica.backend_selection is None
        backend.apply_selection({"im2col": "reference"})
        replica.build()
        assert backend.current_selection() == {"im2col": "reference"}

    def test_selection_is_not_part_of_the_fingerprint(self, restore_selection):
        spec = get_model("B-MLP", reduced=True)
        plain = ReplicaSpec.structural(spec)
        with backend.using("grng_block", "reference"):
            forced = ReplicaSpec.structural(spec)
        # all backends are bit-identical, so the replica identity (and any
        # registry version check built on it) must not depend on selection
        assert plain.fingerprint() == forced.fingerprint()

    def test_selection_naming_a_retired_kernel_still_builds(
        self, restore_selection, tmp_path
    ):
        # captured while these were dispatch points; the retired names are
        # skipped, the live pin still applies -- from a pickle or an archive
        selection = (
            ("clt_standardise", "reference"),
            ("fused_im2col", "fused"),
            ("grng_block", "reference"),
            ("lfsr_step_block", "reference"),
            ("sample_matmul", "reference"),
        )
        replica = ReplicaSpec(spec=get_model("B-MLP", reduced=True), backend_selection=selection)
        restored = load_replica(save_replica(replica, tmp_path / "replica.npz"))
        assert restored.backend_selection == selection
        for candidate in (replica, restored):
            backend.apply_selection({})
            candidate.build()
            assert backend.current_selection() == {"grng_block": "reference"}
