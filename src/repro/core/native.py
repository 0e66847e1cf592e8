"""Lazy build and ``ctypes`` loading of the in-tree C kernels.

Only :mod:`repro.core.backend` imports this module: the compiled kernels
(``_grng.c``, ``_conv.c``, ``_gc.c``, ``_json.c``) are ``native`` backends of
their dispatch points, reachable only through the registry and its
bit-exactness gate.  Nothing happens at import.  The first availability check
compiles every source into one shared object with the system compiler (or
finds the cached build), loads it and memoises the outcome; every failure --
no compiler, a failed or timed-out build, an unloadable file -- ends in "not
available" plus one :class:`RuntimeWarning` per process, never in an
exception, and the dispatch layer answers from the NumPy kernels instead.

The shared object is cached per user in a 0700 directory under
``$XDG_CACHE_HOME`` (or ``~/.cache``; failing that under the system temp
directory, failing that in a per-process one), keyed by the SHA-256 of every
source, compiler version, flags and machine, so nothing is ever written into the
package or the working directory.  Builds go to a temporary name and are
``os.replace``d into place: concurrent first users (forked workers, parallel
test runs) can never observe a half-written file.  The file name also carries
the digest of the file's own bytes, checked before every load, because
``dlopen`` does not reject a truncated library -- it maps it and the process
dies of SIGBUS; a cached file that fails the check is deleted and rebuilt.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import warnings
from pathlib import Path

__all__ = ["NativeLibrary", "compile_flags", "find_compiler", "library"]

#: Compiled, in this order, into the one library.
SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("_grng.c", "_conv.c", "_gc.c", "_json.c")
)

#: Instruction-set flags enabled only when the CPU reports the feature
#: (``/proc/cpuinfo`` name, compiler option).  The flags are part of the cache
#: key, so a cache shared between machines never serves a foreign build.  No
#: vector ISA belongs here: ``_grng.c``'s AVX-512 lane body enables it for that
#: one function and checks the CPU at run time, because AVX-512 code generation
#: across the whole library slows the conv kernels.
_CPU_FLAGS = (("popcnt", "-mpopcnt"), ("bmi2", "-mbmi2"))

_SIZE, _PTR, _DOUBLE = ctypes.c_size_t, ctypes.c_void_p, ctypes.c_double
# state, new_state, rows, n_words, shifts, stride_words, count, mean, std,
# out, mu, sigma, w, jump, start
_FORWARD = [_PTR, _PTR, _SIZE, _SIZE, _PTR, _SIZE, _SIZE, _DOUBLE, _DOUBLE,
            _PTR, _PTR, _PTR, _PTR, _PTR, _PTR]
_SIGNATURES = {
    # the _conv.c kernels: data pointer(s) around one int64 geometry vector
    "conv_im2col": [_PTR, _PTR, _PTR],
    "conv_col2im": [_PTR, _PTR, _PTR],
    "conv_maxpool_forward": [_PTR, _PTR, _PTR, _PTR],
    "conv_maxpool_backward": [_PTR, _PTR, _PTR, _PTR, _PTR, _PTR],  # ..., out, mask, sums
    "grng_forward": _FORWARD,
    "grng_forward_rows": _FORWARD,  # the row body alone, whatever the CPU
    "grng_lane_width": [],
    # g, eps, p, sigma, sgrad, samples, n, kl, prior_scale, entropy, stacks,
    # mu_grad, rho_grad
    "posterior_gc": [_PTR, _PTR, _PTR, _PTR, _PTR, _SIZE, _SIZE, _DOUBLE,
                     _DOUBLE, ctypes.c_int, ctypes.c_int, _PTR, _PTR],
    # data, shape, ndim, out, written
    "json_dumps_f64": [_PTR, _PTR, _SIZE, _PTR, _PTR],
    # text, len, offset, out, cap, info
    "json_loads_f64": [ctypes.c_char_p, _SIZE, _SIZE, _PTR, _SIZE, _PTR],
}


def find_compiler() -> str | None:
    """The system C compiler (``cc``, else ``gcc``), or ``None``."""
    return shutil.which("cc") or shutil.which("gcc")


def _cpu_flags() -> list[str]:
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        return []
    for line in cpuinfo.splitlines():
        if line.startswith("flags"):
            reported = set(line.partition(":")[2].split())
            return [option for name, option in _CPU_FLAGS if name in reported]
    return []


def compile_flags() -> list[str]:
    """The compiler flags of the one library (part of its cache key)."""
    # no -ffast-math, no fused multiply-add: float results are the bytes
    # the NumPy reference produces
    return ["-O2", "-ffp-contract=off", "-shared", "-fPIC", *_cpu_flags()]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:20]


def _private_dir(path: str) -> Path | None:
    """``path`` as a directory we own and nobody else can write, or ``None``."""
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        status = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(status.st_mode)  # lstat: a planted symlink is refused
        or status.st_uid != os.getuid()
        or status.st_mode & 0o022
    ):
        return None  # never dlopen from a directory someone else can write
    return Path(path)


def _user_cache_dir() -> Path | None:
    """The per-user cache: under the home directory, else under the temp dir."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    candidates = [os.path.join(base, "repro-shift-bnn")] if os.path.isabs(base) else []
    candidates.append(
        os.path.join(tempfile.gettempdir(), f"repro-shift-bnn-{os.getuid()}")
    )
    for candidate in candidates:
        found = _private_dir(candidate)
        if found is not None:
            return found
    return None


class NativeLibrary:
    """The compiled kernels: built on first use, then a memoised handle."""

    def __init__(self, cache_dir: Path | None = None) -> None:
        self._cache_dir = cache_dir
        self._own_tmp: tempfile.TemporaryDirectory | None = None
        self._lib: ctypes.CDLL | None = None
        self._tried = False

    def load(self) -> ctypes.CDLL | None:
        """The loaded library, or ``None`` when it cannot be built here."""
        if not self._tried:
            try:
                self._lib = self._build_and_load()
            except (OSError, subprocess.SubprocessError) as exc:
                warnings.warn(
                    f"native kernels unavailable ({exc}); "
                    "using the NumPy kernels",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._tried = True
        return self._lib

    def _directory(self) -> Path:
        if self._cache_dir is None:
            self._cache_dir = _user_cache_dir()
        if self._cache_dir is None:
            self._own_tmp = tempfile.TemporaryDirectory(prefix="repro-native-")
            self._cache_dir = Path(self._own_tmp.name)
        return self._cache_dir

    def _build_and_load(self) -> ctypes.CDLL:
        compiler = find_compiler()
        if compiler is None:
            raise OSError("no C compiler (cc or gcc) on PATH")
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout
        flags = compile_flags()
        key = _digest(
            "\0".join(
                [*(source.read_text() for source in SOURCES), version, *flags,
                 platform.machine()]
            ).encode()
        )
        directory = self._directory()
        path = self._verified(directory, key) or self._compile(
            compiler, flags, directory, key
        )
        return self._open(path)

    @staticmethod
    def _verified(directory: Path, key: str) -> Path | None:
        """A cached build whose bytes still hash to the digest in its name."""
        for path in sorted(directory.glob(f"native-{key}-*.so")):
            if _digest(path.read_bytes()) == path.stem.rpartition("-")[2]:
                return path
            path.unlink(missing_ok=True)
        return None

    @staticmethod
    def _compile(compiler: str, flags: list[str], directory: Path, key: str) -> Path:
        handle, scratch = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(handle)
        try:
            subprocess.run(
                [compiler, *flags, "-o", scratch, *map(str, SOURCES)],
                capture_output=True, timeout=120, check=True,
            )
            path = directory / f"native-{key}-{_digest(Path(scratch).read_bytes())}.so"
            os.replace(scratch, path)
            return path
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)

    @staticmethod
    def _open(path: Path) -> ctypes.CDLL:
        lib = ctypes.CDLL(str(path))
        for name, argtypes in _SIGNATURES.items():
            function = getattr(lib, name)
            function.argtypes = argtypes
            function.restype = ctypes.c_int
        return lib


#: The process-wide handle every ``native`` backend uses.
library = NativeLibrary()
