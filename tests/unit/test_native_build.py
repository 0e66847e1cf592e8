"""Build and fallback robustness of the compiled ``native`` backends.

``repro.core.native`` builds ``_grng.c``, ``_conv.c`` and ``_gc.c`` lazily
into one shared object with the system compiler and caches it per user.  Every way
that can go wrong -- no compiler, a corrupt cache entry, two first users
racing, a replica captured where the build worked and rebuilt where it does
not -- must end in the NumPy kernels answering with the same bytes, never in
an exception or a crash.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest

import repro.core.backend as backend
import repro.core.native as native
from repro.bnn import BNNTrainer, TrainerConfig
from repro.datasets import BatchLoader, synthetic_cifar10, synthetic_mnist
from repro.models import ReplicaSpec, get_model

SRC = Path(backend.__file__).resolve().parents[2]

#: Every dispatch point with a compiled backend.
NATIVE_KERNELS = (
    "grng_block", "im2col", "col2im", "maxpool2d_forward", "maxpool2d_backward",
    "posterior_gc",
)


@pytest.fixture
def no_toolchain(monkeypatch, tmp_path):
    """A process in which compiler discovery finds nothing."""
    monkeypatch.setattr(native, "find_compiler", lambda: None)
    monkeypatch.setattr(native, "library", native.NativeLibrary(cache_dir=tmp_path))
    # the registry warns once per message per process; start from a clean slate
    monkeypatch.setattr(backend.registry, "_warned", set())


def needs_compiler() -> None:
    if native.find_compiler() is None:
        pytest.skip("no C compiler on PATH")


def train_two_steps(model_name: str = "B-MLP") -> tuple[str, dict]:
    """(parameter fingerprint, dispatch counters) of two default steps."""
    spec = get_model(model_name, reduced=True)
    if model_name == "B-MLP":
        train, _ = synthetic_mnist(n_train=32, n_test=16, image_size=14, seed=3)
        batches = BatchLoader(train, batch_size=16, flatten=True).batches()
    else:
        train, _ = synthetic_cifar10(n_train=16, n_test=16, image_size=16, seed=3)
        batches = BatchLoader(train, batch_size=8).batches()
    model = spec.build_bayesian(seed=5)
    trainer = BNNTrainer(
        model, TrainerConfig(n_samples=3, learning_rate=5e-3, seed=11), policy="reversible"
    )
    backend.reset_counters()
    for x, y in batches[:2]:
        trainer.train_step(x, y)
    return ReplicaSpec.capture(spec, model).fingerprint(), backend.counters_snapshot()


def native_listing(kernel: str = "grng_block") -> dict:
    listing = next(e for e in backend.list_backends() if e["kernel"] == kernel)
    return next(b for b in listing["backends"] if b["name"] == "native")


def unavailable_warnings(caught) -> list[str]:
    return [str(w.message) for w in caught if "native kernels unavailable" in str(w.message)]


@contextmanager
def using_everywhere(name: str | None):
    """Every native-backed dispatch point forced onto one backend (None = chain)."""
    with ExitStack() as stack:
        for kernel in NATIVE_KERNELS:
            stack.enter_context(backend.using(kernel, name))
        yield


class TestNoToolchain:
    def test_one_warning_and_the_reference_bytes(self, no_toolchain, restore_selection):
        with using_everywhere("reference"):
            want = train_two_steps()
        # the default chain, whatever REPRO_BACKEND this leg of CI forces
        with warnings.catch_warnings(record=True) as caught, using_everywhere(None):
            warnings.simplefilter("always")
            got = train_two_steps()
            again = train_two_steps()
        assert len(unavailable_warnings(caught)) == 1
        assert "no C compiler" in unavailable_warnings(caught)[0]
        assert not native_listing()["available"]
        assert got == want and again == want
        assert set(want[1]["grng_block"]) == {"reference"}

    def test_one_warning_covers_every_native_dispatch_point(
        self, no_toolchain, restore_selection
    ):
        # B-LeNet's step runs every native-backed kernel
        with using_everywhere("reference"):
            want = train_two_steps("B-LeNet")
        with warnings.catch_warnings(record=True) as caught, using_everywhere(None):
            warnings.simplefilter("always")
            got = train_two_steps("B-LeNet")
            again = train_two_steps("B-LeNet")
        assert len(unavailable_warnings(caught)) == 1
        assert got == want and again == want
        for kernel in NATIVE_KERNELS:
            assert not native_listing(kernel)["available"]
            assert set(want[1][kernel]) == {"reference"}, kernel

    def test_replica_captured_on_native_rebuilds_on_the_default_chain(
        self, no_toolchain, restore_selection
    ):
        spec = get_model("B-MLP", reduced=True)
        with backend.using("grng_block", "native"):
            replica = ReplicaSpec.structural(spec)
        assert ("grng_block", "native") in replica.backend_selection
        backend.apply_selection({})
        replica.build()  # re-applies the captured selection
        assert backend.current_selection()["grng_block"] == "native"
        with using_everywhere("reference"):
            want = train_two_steps()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = train_two_steps()
            again = train_two_steps()
        forced = [
            str(w.message) for w in caught
            if "'native' for kernel 'grng_block' is not available" in str(w.message)
        ]
        assert len(forced) == 1 and len(unavailable_warnings(caught)) == 1
        assert got == want and again == want


#: Builds (or finds) the library in ``argv[1]`` once the clock passes ``argv[2]``.
CHILD = """
import sys, time
from pathlib import Path
import repro.core.native as native
while time.time() < float(sys.argv[2]):
    pass
lib = native.NativeLibrary(cache_dir=Path(sys.argv[1])).load()
print('loaded' if lib is not None else 'unavailable')
"""


def start_child(cache_dir: Path, start_at: float = 0.0) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, str(cache_dir), str(start_at)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def finish_child(child: subprocess.Popen) -> None:
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err
    assert out.strip() == "loaded", err


def truncate_the_cached_build(cache_dir: Path, keep: int) -> bytes:
    """Build in a child (so this process never maps the file), then cut it."""
    finish_child(start_child(cache_dir))
    (cached,) = cache_dir.iterdir()
    good = cached.read_bytes()
    cached.write_bytes(good[:keep])  # dlopen would SIGBUS on this, not raise
    return good


class TestBuildCache:
    def test_fresh_build_is_cached_and_memoised(self, tmp_path):
        needs_compiler()
        first = native.NativeLibrary(cache_dir=tmp_path)
        handle = first.load()
        assert handle is not None and first.load() is handle
        built = sorted(tmp_path.iterdir())
        assert len(built) == 1 and built[0].suffix == ".so"
        stamp = built[0].stat().st_mtime_ns
        assert native.NativeLibrary(cache_dir=tmp_path).load() is not None
        assert [p.stat().st_mtime_ns for p in tmp_path.iterdir()] == [stamp]

    def test_truncated_cache_entry_is_rebuilt(self, tmp_path):
        needs_compiler()
        good = truncate_the_cached_build(tmp_path, keep=8000)
        assert native.NativeLibrary(cache_dir=tmp_path).load() is not None
        assert [p.read_bytes() for p in tmp_path.iterdir()] == [good]

    def test_truncated_entry_and_failing_rebuild_is_cleanly_unavailable(
        self, monkeypatch, tmp_path, restore_selection
    ):
        needs_compiler()
        truncate_the_cached_build(tmp_path, keep=1000)

        def failing_compile(compiler, flags, directory, key):
            raise subprocess.CalledProcessError(1, [compiler, *flags])

        broken = native.NativeLibrary(cache_dir=tmp_path)
        monkeypatch.setattr(broken, "_compile", failing_compile)
        monkeypatch.setattr(native, "library", broken)
        with using_everywhere("reference"):
            want = train_two_steps()
        with pytest.warns(RuntimeWarning, match="native kernels unavailable"):
            with using_everywhere(None):
                got = train_two_steps()
        assert got == want
        assert not native_listing()["available"]
        assert list(tmp_path.iterdir()) == []  # the corrupt entry is gone

    def test_two_processes_racing_the_first_build(self, tmp_path):
        needs_compiler()
        start_at = time.time() + 1.0
        racers = [start_child(tmp_path, start_at) for _ in range(2)]
        for racer in racers:
            finish_child(racer)  # each loaded a file whose digest it verified
        (left,) = tmp_path.iterdir()
        assert left.suffix == ".so"
        assert native._digest(left.read_bytes()) == left.stem.rpartition("-")[2]

    @pytest.mark.parametrize("edited", range(len(native.SOURCES)))
    def test_editing_any_source_changes_the_key(self, monkeypatch, tmp_path, edited):
        needs_compiler()
        assert {source.name for source in native.SOURCES} == {"_grng.c", "_conv.c", "_gc.c"}
        cache = tmp_path / "cache"
        cache.mkdir()
        assert native.NativeLibrary(cache_dir=cache).load() is not None
        copies = [Path(shutil.copy(source, tmp_path)) for source in native.SOURCES]
        with copies[edited].open("a") as handle:
            handle.write("/* edited */\n")
        monkeypatch.setattr(native, "SOURCES", tuple(copies))
        assert native.NativeLibrary(cache_dir=cache).load() is not None
        keys = {path.name.split("-")[1] for path in cache.iterdir()}
        assert len(keys) == 2  # one shared object per key, both kept


def test_no_vector_isa_in_the_library_flags():
    # AVX-512 code generation for the whole object slows the conv kernels;
    # the GRNG lane body enables it for that one function instead
    flags = native.compile_flags()
    assert not [flag for flag in flags if flag.startswith("-mavx512")], flags
    assert not [flag for flag in flags if flag.startswith(("-march", "-mtune"))], flags


def test_one_library_serves_every_native_backend():
    if not native_listing()["available"]:
        pytest.skip("native backends unavailable: no C compiler, or the build failed")
    lib = native.library.load()
    for symbol in (
        "grng_forward", "grng_forward_rows", "grng_lane_width", "conv_im2col",
        "conv_maxpool_backward", "posterior_gc",
    ):
        assert hasattr(lib, symbol)  # one shared object holds every source
    assert lib.grng_lane_width() in (1, 8)
    for kernel in NATIVE_KERNELS:
        assert backend.verify_backend(kernel, "native")


def test_native_and_reference_agree_on_a_train_step(restore_selection):
    if not native_listing()["available"]:
        pytest.skip("grng_block/native unavailable: no C compiler, or the build failed")
    # the lazy gate runs the NumPy chain once; keep it out of the counters below
    backend.verify_backend("grng_block", "native")
    with backend.using("grng_block", "reference"):
        want, reference_counters = train_two_steps()
    with backend.using("grng_block", "native"):
        got, native_counters = train_two_steps()
    assert got == want
    # forward span + whole-span replay per step, nothing left on the NumPy chain
    assert native_counters["grng_block"] == {"native": {"calls": 4, "rows": 12}}
    assert "lfsr_step_block" not in native_counters
    assert reference_counters["lfsr_step_block"]["reference"]["calls"] >= 4
