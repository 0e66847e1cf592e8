"""Pluggable kernel-backend dispatch with a bit-exactness conformance gate.

Every hot kernel of the engine that has a choice of implementation -- strided
window popcounts, the fused GRNG block, the conv data movement (im2col,
col2im, max-pool forward and backward), the posterior's GC stage, the
float64 <-> JSON text codec of the serving wire and the tile-fused per-sample
matmul -- is a named *dispatch point* in this registry.
The NumPy (or stdlib) code the repo grew up with is registered under the name
``"reference"`` for each point and is the always-available oracle;
alternative implementations (a different NumPy strategy, or the in-tree C
kernels ``_grng.c`` / ``_conv.c`` / ``_gc.c`` / ``_json.c`` that
:mod:`repro.core.native` builds lazily with
the system compiler and loads through ``ctypes``) register against the same
dispatch point and become *eligible* only after passing that point's
conformance gate: a fixed battery of inputs spanning the kernel's
domain (dtypes, strides 1 and 256, degenerate shapes) on which the candidate
must reproduce the oracle **bit for bit**.  The repo's crown-jewel contract --
served and distributed answers byte-identical to the standalone engine -- is
thereby preserved by construction: a backend that would change a single bit
can never be dispatched to.

Kernels with one implementation are plain functions, not dispatch points:
:func:`lfsr_step_block` (packed LFSR stepping), :func:`clt_standardise` (CLT
standardisation) and :func:`sample_matmul` (per-sample matmul).  There is
nothing to select or gate, but each counts its calls and rows under its name
and ``"reference"``, exactly as a dispatched call is counted.

Selection
---------
Per-kernel selection is explicit and observable:

* the environment variable ``REPRO_BACKEND`` (read once at import, reloadable
  via :meth:`KernelRegistry.load_env`) accepts a comma-separated list of
  ``kernel=backend`` pairs and/or bare backend names; a bare name applies to
  every dispatch point that registers it, so ``REPRO_BACKEND=reference``
  forces the oracle everywhere;
* :func:`set_backend` / :func:`using` force a backend programmatically (tests
  and benchmarks);
* without a forced choice each dispatch point walks its *default chain* --
  an ordered preference list -- and picks the first backend that is available,
  gate-eligible and whose :attr:`BackendImpl.supports` predicate accepts the
  call's actual arguments.  Domain-restricted fast paths (the word-aligned
  packed popcount, the compiled GRNG block) therefore fall back per call,
  exactly like the hand-written branches they replaced.

Availability and the gates do not change from call to call, so each dispatch
point resolves them into a *route* -- the backends a call may take, in order
-- once per selection version, which every change of the forced choices and
every :meth:`~KernelRegistry.verify_backend` moves on.  A call then runs only
the ``supports`` predicates on its route, which check what can differ between
two calls (dtypes, shapes, contiguity, writability); the last backend on a
route takes every call.

The active selection is captured in
:class:`~repro.models.zoo.ReplicaSpec` so serving and distributed workers
rebuild replicas on the same backends as the process that captured them, and
per-(kernel, backend) call/row counters feed ``ServerStats`` and the gateway's
``GET /v1/stats`` so operators can see which implementations actually ran.

``python -m repro.core --list`` prints the registry; ``--verify`` runs every
available backend through its conformance gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from . import bitops, native

__all__ = [
    "BackendConformanceError",
    "BackendImpl",
    "KernelBackendError",
    "KernelRegistry",
    "UnknownBackendError",
    "apply_selection",
    "clt_standardise",
    "counters_snapshot",
    "current_selection",
    "dispatch",
    "kernel_names",
    "lfsr_step_block",
    "list_backends",
    "registry",
    "reset_counters",
    "sample_matmul",
    "set_backend",
    "stats_snapshot",
    "using",
    "verify_backend",
]


class KernelBackendError(RuntimeError):
    """Base error for kernel-backend registry problems."""


class UnknownBackendError(KernelBackendError):
    """An unregistered kernel or backend name was requested."""


class BackendConformanceError(KernelBackendError):
    """A backend failed its bit-exactness conformance gate.

    Raised when a forced backend is not bit-identical to the reference oracle
    on the gate's input battery; such a backend is never dispatched to.
    """


#: The kernels with one implementation, plain functions that count their
#: calls under these names.
_COUNTED_FUNCTIONS = ("clt_standardise", "lfsr_step_block", "sample_matmul")

#: Former dispatch points: the counted functions, and ``fused_im2col``, whose
#: whole-tile unfold is now the fused forward's own ``im2col`` call.  A
#: selection naming one -- a replica captured while it was a dispatch point --
#: still applies: the name is skipped, and the bytes are the ones it selected.
_RETIRED_KERNELS = frozenset({*_COUNTED_FUNCTIONS, "fused_im2col"})


@dataclass(frozen=True)
class BackendImpl:
    """One registered implementation of a dispatch point.

    ``fn`` takes the kernel's canonical arguments.  ``supports`` (called with
    the same arguments) narrows the input domain the backend handles --
    unsupported calls fall through to the next backend in the chain.
    ``available`` gates on the environment (e.g. an importable toolchain);
    unavailable backends self-skip everywhere, including the conformance
    suite, so the compiled registration costs nothing in containers without
    a C compiler.
    """

    name: str
    fn: Callable[..., Any]
    description: str = ""
    supports: Callable[..., bool] | None = field(default=None, repr=False)
    available: Callable[[], bool] | None = field(default=None, repr=False)

    def is_available(self) -> bool:
        if self.available is None:
            return True
        try:
            return bool(self.available())
        except Exception:  # pragma: no cover - defensive
            return False


@dataclass
class _Kernel:
    """A dispatch point: its backends, default chain and conformance gate."""

    name: str
    doc: str
    chain: tuple[str, ...]
    rows_of: Callable[..., int]
    cases: Callable[[], list[dict[str, Any]]]
    check: Callable[[dict[str, Any], Any, Any], None]
    backends: dict[str, BackendImpl]

    #: ``(selection version, backends a call tries in order)``, or None.
    route: tuple[int, tuple[BackendImpl, ...]] | None = None

    #: Name every kernel's oracle is registered under.
    REFERENCE = "reference"


def _copy_case(case: Mapping[str, Any]) -> dict[str, Any]:
    """Deep-copy the array arguments of a conformance case.

    Each backend (and the oracle) runs on its own copies, so kernels that
    write into an ``out`` argument (one array, or a tuple of them) cannot
    leak state between runs.  ``copy`` keeps a strided view's layout.
    """

    def copied(value: Any) -> Any:
        if isinstance(value, np.ndarray):
            return value.copy(order="K")
        if isinstance(value, tuple):
            return tuple(copied(item) for item in value)
        return value

    return {key: copied(value) for key, value in case.items()}


class KernelRegistry:
    """Thread-safe registry of dispatch points and their backends."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._kernels: dict[str, _Kernel] = {}
        self._forced: dict[str, str] = {}
        # moved on by every write of _forced and by verify_backend: a route
        # built under an older version is rebuilt on its next call
        self._version = 0
        # (kernel, backend) -> True | the stored gate failure.  The gate runs
        # lazily on a backend's first non-reference dispatch and is cached.
        self._eligibility: dict[tuple[str, str], Any] = {}
        self._counters: dict[tuple[str, str], list[int]] = {}
        self._warned: set[str] = set()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        doc: str,
        rows_of: Callable[..., int],
        cases: Callable[[], list[dict[str, Any]]],
        check: Callable[[dict[str, Any], Any, Any], None],
        backends: Sequence[BackendImpl],
    ) -> None:
        """Declare dispatch point ``name``: its gate (``check`` over the
        battery ``cases`` builds) and its ``backends``, whose order is the
        default chain -- so the ``reference`` oracle, the last resort, ends it.
        """
        chain = tuple(impl.name for impl in backends)
        if not chain or chain[-1] != _Kernel.REFERENCE:
            raise KernelBackendError(
                f"kernel {name!r}: the backends {chain} must end in "
                f"{_Kernel.REFERENCE!r}"
            )
        if len(set(chain)) != len(chain):
            raise KernelBackendError(f"kernel {name!r} repeats a backend: {chain}")
        with self._lock:
            if name in self._kernels:
                raise KernelBackendError(f"kernel {name!r} is already registered")
            self._kernels[name] = _Kernel(
                name, doc, chain, rows_of, cases, check,
                {impl.name: impl for impl in backends},
            )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def _kernel(self, name: str) -> _Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise UnknownBackendError(
                f"unknown kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None

    def kernel_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._kernels))

    def backend_names(self, kernel: str) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._kernel(kernel).backends))

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def set_backend(self, kernel: str, backend: str | None) -> None:
        """Force ``kernel`` onto ``backend`` (``None`` restores the chain)."""
        with self._lock:
            entry = self._kernel(kernel)
            if backend is None:
                self._forced.pop(kernel, None)
            elif backend not in entry.backends:
                raise UnknownBackendError(
                    f"unknown backend {backend!r} for kernel {kernel!r}; "
                    f"registered: {sorted(entry.backends)}"
                )
            else:
                self._forced[kernel] = backend
            self._version += 1

    @contextmanager
    def using(self, kernel: str, backend: str | None) -> Iterator[None]:
        """Temporarily force a backend (benchmarks and tests)."""
        with self._lock:
            previous = self._forced.get(kernel)
        self.set_backend(kernel, backend)
        try:
            yield
        finally:
            self.set_backend(kernel, previous)

    def current_selection(self) -> dict[str, str]:
        """The explicitly forced ``{kernel: backend}`` choices (may be empty)."""
        with self._lock:
            return dict(self._forced)

    def apply_selection(self, selection: Mapping[str, str]) -> None:
        """Replace the forced choices wholesale (replica rebuilds use this)."""
        items = {
            kernel: backend
            for kernel, backend in selection.items()
            if kernel not in _RETIRED_KERNELS
        }
        with self._lock:
            for kernel, backend in items.items():
                entry = self._kernel(kernel)
                if backend not in entry.backends:
                    raise UnknownBackendError(
                        f"unknown backend {backend!r} for kernel {kernel!r}"
                    )
            self._forced = items
            self._version += 1

    def load_env(self, value: str | None = None) -> None:
        """Parse ``REPRO_BACKEND`` into forced selections.

        ``value=None`` reads the environment variable.  The format is a
        comma-separated list of ``kernel=backend`` pairs and/or bare backend
        names; a bare name is applied to every kernel that registers a
        backend of that name.  Unknown names warn and are skipped (a typo in
        the environment must not take the engine down).
        """
        if value is None:
            value = os.environ.get("REPRO_BACKEND", "")
        selection: dict[str, str] = {}
        for token in value.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                kernel, _, backend = token.partition("=")
                kernel, backend = kernel.strip(), backend.strip()
                with self._lock:
                    entry = self._kernels.get(kernel)
                if entry is None or backend not in entry.backends:
                    self._warn_once(
                        f"REPRO_BACKEND: ignoring unknown selection {token!r}"
                    )
                    continue
                selection[kernel] = backend
            else:
                matched = False
                with self._lock:
                    for kernel, entry in self._kernels.items():
                        if token in entry.backends:
                            selection[kernel] = token
                            matched = True
                if not matched:
                    self._warn_once(
                        f"REPRO_BACKEND: no kernel registers a backend "
                        f"named {token!r}; ignoring"
                    )
        with self._lock:
            self._forced = selection
            self._version += 1

    def _warn_once(self, message: str) -> None:
        with self._lock:
            if message in self._warned:
                return
            self._warned.add(message)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    # ------------------------------------------------------------------
    # conformance gate
    # ------------------------------------------------------------------
    def verify_backend(self, kernel: str, backend: str) -> bool:
        """Run the conformance gate for ``backend`` now (bypassing the cache).

        Returns ``True`` on a bit-identical pass; raises
        :class:`BackendConformanceError` on any mismatch and
        :class:`KernelBackendError` when the backend is unavailable in this
        environment.
        """
        entry = self._kernel(kernel)
        if backend not in entry.backends:
            raise UnknownBackendError(
                f"unknown backend {backend!r} for kernel {kernel!r}"
            )
        impl = entry.backends[backend]
        if not impl.is_available():
            raise KernelBackendError(
                f"backend {backend!r} for kernel {kernel!r} is not available "
                "in this environment"
            )
        outcome = self._run_conformance(entry, impl)
        with self._lock:
            self._eligibility[(kernel, backend)] = outcome
            self._version += 1
        if outcome is not True:
            raise outcome
        return True

    def _run_conformance(
        self, kernel: _Kernel, impl: BackendImpl
    ) -> Any:
        """Gate ``impl`` against the oracle; return ``True`` or the failure."""
        reference = kernel.backends[_Kernel.REFERENCE]
        for index, case in enumerate(kernel.cases()):
            if impl.supports is not None and not impl.supports(**_copy_case(case)):
                continue
            # the battery's NaN / inf inputs are deliberate: no warnings
            with np.errstate(all="ignore"):
                expected = reference.fn(**_copy_case(case))
                try:
                    got = impl.fn(**_copy_case(case))
                    kernel.check(case, expected, got)
                except Exception as exc:
                    shapes = {
                        key: (value.shape, str(value.dtype))
                        if isinstance(value, np.ndarray)
                        else value
                        for key, value in case.items()
                    }
                    return BackendConformanceError(
                        f"backend {impl.name!r} failed the {kernel.name!r} "
                        f"conformance gate on case {index} ({shapes}): {exc}"
                    )
        return True

    def _is_eligible(self, kernel: _Kernel, impl: BackendImpl) -> bool:
        """Lazily gate ``impl``; the reference oracle is eligible by fiat."""
        if impl.name == _Kernel.REFERENCE:
            return True
        key = (kernel.name, impl.name)
        with self._lock:
            outcome = self._eligibility.get(key)
        if outcome is None:
            outcome = self._run_conformance(kernel, impl)
            with self._lock:
                self._eligibility[key] = outcome
        return outcome is True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _route(self, kernel: _Kernel) -> tuple[BackendImpl, ...]:
        """The backends a call of ``kernel`` tries, in order, under the
        current selection; built once per selection version."""
        route = kernel.route
        if route is not None and route[0] == self._version:
            return route[1]
        with self._lock:
            version, forced = self._version, self._forced.get(kernel.name)
        reference = kernel.backends[_Kernel.REFERENCE]
        impl = None if forced is None else kernel.backends[forced]
        if impl is not None and not impl.is_available():
            self._warn_once(
                f"backend {forced!r} for kernel {kernel.name!r} is not "
                "available in this environment; using the default chain"
            )
            impl = None
        if impl is not None:
            if not self._is_eligible(kernel, impl):
                # An explicitly selected backend that fails the gate is a
                # hard error: silently answering from the oracle would mask
                # the nonconformance the selection was probing.
                with self._lock:
                    raise self._eligibility[(kernel.name, impl.name)]
            # Forced but outside the backend's input domain: the oracle
            # answers (bit-identical by definition of eligibility).
            backends = (impl,) if impl.supports is None else (impl, reference)
        else:
            backends = ()
            for name in kernel.chain:
                impl = kernel.backends[name]
                if impl.is_available() and self._is_eligible(kernel, impl):
                    backends += (impl,)
                    if impl.supports is None:
                        break  # it takes every call: nothing after it runs
        kernel.route = (version, backends)
        return backends

    def call(self, kernel_name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Dispatch one kernel call through the selected backend."""
        return self._call(self._kernel(kernel_name), args, kwargs)

    def _call(self, kernel: _Kernel, args: tuple, kwargs: dict) -> Any:
        for impl in self._route(kernel):
            if impl.supports is None or impl.supports(*args, **kwargs):
                break
        self._count(kernel.name, impl.name, kernel.rows_of(*args, **kwargs))
        return impl.fn(*args, **kwargs)

    def _count(self, kernel: str, backend: str, rows: int) -> None:
        """Count one call of ``rows`` rows against ``(kernel, backend)``."""
        key = (kernel, backend)
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = [0, 0]
            counter[0] += 1
            counter[1] += int(rows)

    def dispatch(self, kernel: str) -> Callable[..., Any]:
        """A callable bound to ``kernel``: each call takes its route."""
        entry = self._kernel(kernel)  # fail fast on typos at import time

        def run(*args: Any, **kwargs: Any) -> Any:
            return self._call(entry, args, kwargs)

        run.__name__ = kernel
        run.__qualname__ = f"dispatch({kernel!r})"
        run.__doc__ = entry.doc
        return run

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def reset_counters(self) -> None:
        with self._lock:
            self._counters.clear()

    def counters_snapshot(self) -> dict[str, dict[str, dict[str, int]]]:
        """``{kernel: {backend: {"calls", "rows"}}}`` for backends that ran."""
        with self._lock:
            snapshot: dict[str, dict[str, dict[str, int]]] = {}
            for (kernel, backend), (calls, rows) in sorted(self._counters.items()):
                snapshot.setdefault(kernel, {})[backend] = {
                    "calls": calls,
                    "rows": rows,
                }
            return snapshot

    def stats_snapshot(self) -> dict[str, dict[str, Any]]:
        """The selection and counters per kernel, for ``ServerStats``.

        ``selection`` is the forced backend name or ``"auto"`` (default
        chain); ``backends`` holds the call/row counters of every backend
        that actually ran in this process.
        """
        counters = self.counters_snapshot()
        with self._lock:
            return {
                name: {
                    "selection": self._forced.get(name, "auto"),
                    "backends": counters.get(name, {}),
                }
                for name in sorted(self._kernels)
            }

    def list_backends(self) -> list[dict[str, Any]]:
        """Registry contents for the CLI and tests (no gate side effects)."""
        with self._lock:
            listing = []
            for name in sorted(self._kernels):
                kernel = self._kernels[name]
                backends = []
                for backend_name in sorted(kernel.backends):
                    impl = kernel.backends[backend_name]
                    outcome = self._eligibility.get((name, backend_name))
                    if backend_name == _Kernel.REFERENCE:
                        verified = "oracle"
                    elif outcome is True:
                        verified = "passed"
                    elif outcome is not None:
                        verified = "failed"
                    else:
                        verified = "unverified"
                    backends.append(
                        {
                            "name": backend_name,
                            "description": impl.description,
                            "available": impl.is_available(),
                            "conformance": verified,
                        }
                    )
                listing.append(
                    {
                        "kernel": name,
                        "doc": kernel.doc,
                        "selection": self._forced.get(name, "auto"),
                        "chain": list(kernel.chain),
                        "backends": backends,
                    }
                )
            return listing


# ----------------------------------------------------------------------
# built-in kernels
# ----------------------------------------------------------------------
# -- kernels with one implementation: plain functions ---------------------
# Nothing to select or gate; each counts ``(name, "reference")`` exactly as
# ``KernelRegistry.call`` counts a dispatched call.
def lfsr_step_block(state_words, n_bits, count, offsets):
    """Run ``count`` packed forward LFSR recurrence steps per register row.

    Returns ``(seq_words, new_state_words)`` (``bitops.run_lfsr_block_packed``:
    the word-aligned leapfrog fill).
    """
    registry._count("lfsr_step_block", _Kernel.REFERENCE, state_words.shape[0])
    return bitops.run_lfsr_block_packed(state_words, n_bits, count, offsets)


def clt_standardise(popcounts, mean, std):
    """Standardise pattern popcounts to CLT Gaussians: float64
    ``(popcounts - mean) / std`` over a fresh array."""
    popcounts = np.asarray(popcounts)
    registry._count("clt_standardise", _Kernel.REFERENCE, popcounts.size)
    return (popcounts - mean) / std


def sample_matmul(a, b, out):
    """Per-sample 2-D matrix products over a leading Monte-Carlo sample axis,
    into the preallocated ``out``.

    One 2-D matmul per sample: each slice is then byte-identical to the
    sequential per-sample call (a stacked 3-D matmul may take a different
    BLAS path and is not guaranteed to round identically).
    """
    registry._count("sample_matmul", _Kernel.REFERENCE, b.shape[0])
    shared_a = a.ndim == 2
    for s in range(b.shape[0]):
        np.matmul(a if shared_a else a[s], b[s], out=out[s])
    return out


# -- result checks ------------------------------------------------------
# A gate runs the oracle and the candidate on copies of each case and hands
# both results to the point's check, which raises on any difference.
def _check_same(case, expected, got) -> None:
    """The shared check: each result equals the oracle's -- arrays in dtype,
    shape and bytes, ``bytes`` byte for byte, anything else by ``==``."""
    if not isinstance(expected, tuple):
        expected, got = (expected,), (got,)
    if len(got) != len(expected):
        raise AssertionError(f"{len(got)} results, oracle {len(expected)}")
    for index, (exp, out) in enumerate(zip(expected, got)):
        if isinstance(exp, np.ndarray):
            if (out.dtype, out.shape) != (exp.dtype, exp.shape):
                raise AssertionError(
                    f"result {index} is {out.dtype}{out.shape}, oracle "
                    f"{exp.dtype}{exp.shape}"
                )
            if np.ascontiguousarray(exp).tobytes() != np.ascontiguousarray(out).tobytes():
                raise AssertionError(f"result {index} is not byte-identical")
        elif isinstance(exp, bytes):
            if out != exp:
                at = next(
                    (i for i, (a, b) in enumerate(zip(exp, out)) if a != b),
                    min(len(exp), len(out)),
                )
                raise AssertionError(
                    f"result {index} differs at byte {at}: "
                    f"{out[at:at + 32]!r} != {exp[at:at + 32]!r}"
                )
        elif out != exp:
            raise AssertionError(f"result {index}: {out!r} != oracle {exp!r}")


def _nan_canonical(array: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(array), np.nan, array)


# -- window_popcounts --------------------------------------------------
#: Shifts per row that one step of the popcount reference unpacks, rounded
#: to whole words and strides.
_REFERENCE_WINDOW_BITS = 1024


def _window_popcounts_reference(seq_words, n_bits, count, stride):
    # Dense per-shift int64 running sum, then slice the emitted positions:
    # the simplest arithmetic over the widest dtype is the oracle.  It walks
    # the sequence one word- and stride-aligned window at a time, carrying
    # the sum, so no count-wide integer array sits beside the packed words
    # (one whole 2 MiB chunk at once peaked at ~280 MiB traced).
    align = math.lcm(64, stride)
    window = align * max(1, _REFERENCE_WINDOW_BITS // align)
    popcounts = np.empty((seq_words.shape[0], count // stride), dtype=np.int64)
    head = seq_words[:, : bitops.words_for_bits(n_bits)]
    running = bitops.unpack_bits(head, n_bits).sum(axis=1, dtype=np.int64)
    for start in range(0, count, window):
        size = min(window, count - start)
        word = start >> 6
        words = seq_words[:, word : word + bitops.words_for_bits(n_bits + size)]
        seq = bitops.unpack_bits(words, n_bits + size)
        sums = np.cumsum(seq[:, n_bits:].astype(np.int64) - seq[:, :size], axis=1)
        sums += running[:, None]
        running = sums[:, -1]
        emitted = sums[:, stride - 1 :: stride]
        popcounts[:, start // stride : start // stride + emitted.shape[1]] = emitted
    return popcounts


def _window_popcounts_cumsum(seq_words, n_bits, count, stride):
    seq = bitops.unpack_bits(seq_words, n_bits + count)
    rows = seq.shape[0]
    if stride == 1:
        # One narrow cumsum instead of two wide ones; int16 is exact because
        # every intermediate is bounded by the register width (<= 256).
        delta = seq[:, n_bits:].astype(np.int16)
        delta -= seq[:, :count]
        popcounts = np.cumsum(delta, axis=1, out=delta)
        popcounts += seq[:, :n_bits].sum(axis=1, dtype=np.int16)[:, None]
        return popcounts
    # Per emitted position only the *block* sums of entering/leaving bits are
    # needed: two reductions plus a cumsum over count/stride entries.
    blocks = count // stride
    delta = seq[:, n_bits:].reshape(rows, blocks, stride).sum(axis=2, dtype=np.int32)
    delta -= seq[:, :count].reshape(rows, blocks, stride).sum(axis=2, dtype=np.int32)
    popcounts = np.cumsum(delta, axis=1, out=delta)
    popcounts += seq[:, :n_bits].sum(axis=1, dtype=np.int32)[:, None]
    return popcounts


def _block_popcounts(word_pc, words_per_block):
    # One strided add per word of the block: a reduce over the short
    # (stride // 64)-long axis costs several times the adds it replaces.
    sums = word_pc[:, ::words_per_block].astype(np.int32)
    for lane in range(1, words_per_block):
        sums += word_pc[:, lane::words_per_block]
    return sums


def _window_popcounts_packed(seq_words, n_bits, count, stride):
    # Word-aligned strided emission: popcount the packed words directly --
    # no per-bit unpack of the sequence at all.  The window after shift
    # ``k * stride`` covers bits ``[k * stride, k * stride + n_bits)``.
    word_pc = np.bitwise_count(seq_words[:, : (n_bits + count) // 64])
    words_per_block = stride // 64
    if n_bits == stride:
        # Each window is exactly one stride block: the block sums past the
        # initial pattern are the answer.
        return _block_popcounts(word_pc, words_per_block)[:, 1:]
    # Otherwise: running sum of (entering - leaving) block sums on top of
    # the initial pattern.
    n_words = n_bits // 64
    delta = _block_popcounts(word_pc[:, n_words:], words_per_block)
    delta -= _block_popcounts(word_pc[:, : count // 64], words_per_block)
    popcounts = np.cumsum(delta, axis=1, out=delta)
    popcounts += word_pc[:, :n_words].sum(axis=1, dtype=np.int32)[:, None]
    return popcounts


def _window_popcounts_packed_supports(seq_words, n_bits, count, stride):
    return stride > 1 and n_bits % 64 == 0 and stride % 64 == 0


def _random_seq_words(rng, rows: int, total_bits: int) -> np.ndarray:
    n_words = bitops.words_for_bits(total_bits) + 2
    words = rng.integers(0, 1 << 64, size=(rows, n_words), dtype=np.uint64)
    full, tail = total_bits >> 6, total_bits & 63
    words[:, full + (1 if tail else 0) :] = 0
    if tail:
        words[:, full] &= np.uint64((1 << tail) - 1)
    return words


def _window_popcounts_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xBEEF)
    cases = []
    for n_bits, count, stride, rows in (
        (256, 1024, 1, 1),
        (256, 1024, 1, 3),
        (256, 1024, 256, 3),  # the paper's strided emission (packed-eligible)
        (256, 256, 256, 1),  # degenerate: a single emitted position
        (256, 512, 64, 2),  # word-aligned, narrower stride
        (256, 768, 3, 2),  # non-word-aligned stride
        (16, 96, 1, 2),  # register width not word-aligned
        (8, 40, 4, 1),
    ):
        cases.append(
            {
                "seq_words": _random_seq_words(rng, rows, n_bits + count),
                "n_bits": n_bits,
                "count": count,
                "stride": stride,
            }
        )
    return cases


def _check_window_popcounts(case, expected, got) -> None:
    # Backends may pick any integer dtype (int16 cumsum vs int32 block sums);
    # popcounts are exact small integers, so the float64 epsilon values
    # downstream are byte-identical whenever the integer values agree.
    if got.dtype.kind not in "iu":
        raise AssertionError(f"popcounts must be integers, got {got.dtype}")
    _check_same(case, expected.astype(np.int64), got.astype(np.int64))

# -- grng_block --------------------------------------------------------
#: Upper bound on the packed bit sequence one *reference* kernel call
#: materialises at a time (``rows * shifts / 8`` bytes); chunks continue the
#: same register stream and are bit-identical.  This bounds transient memory,
#: it is not a locality knob: multi-MiB transients raise glibc's dynamic
#: mmap/trim thresholds for the whole process -- measured as +7 % peak RSS
#: and slower small-array work on the in-process serving benchmark.  At
#: 512 KiB a chunk stays below the layer it feeds at the training step's
#: shape, so a ``reversible`` step's regeneration peaks no higher than the
#: backward pass (at 1 MiB and up the chunk set the step's traced peak, above
#: ``stored``'s).  Each chunk after the first starts from the last
#: ``n_bits << 6`` bits of the one before (``bitops.lfsr_history``), so only
#: the first climbs the leapfrog's squaring levels.  The compiled backend
#: never stores the sequence, so the cap does not apply to it.
_KERNEL_SEQ_BYTES = 1 << 19

#: Limits compiled into ``_grng.c``: GRNG_MAX_WORDS, and its three tap slots.
_NATIVE_MAX_WORDS = 16
_NATIVE_TAPS = 3


def _rewound(state_words, n_bits, offsets, shifts):
    """The registers ``shifts`` shifts before ``state_words``: per row, the
    XOR of the windows ``bitops.jump_terms`` names of one ``n_bits - 1``-shift
    forward run (each row's windows end before its sequence does, so all
    rows go at once, as one Python integer)."""
    seq_words, _ = lfsr_step_block(state_words, n_bits, n_bits - 1, offsets)
    rows, row_words = seq_words.shape
    sequence = int.from_bytes(seq_words.astype("<u8").tobytes(), "little")
    windows = 0
    for i in bitops.jump_terms(n_bits, offsets, shifts):
        windows ^= sequence >> i
    packed = np.frombuffer(windows.to_bytes(rows * row_words * 8, "little"), "<u8")
    return bitops.register_words(packed.reshape(rows, row_words), 0, n_bits)


def _grng_block_reference(
    state_words, n_bits, offsets, stride, count, mean, std, out,
    mu=None, sigma=None, w_out=None, rewind=0,
):
    # The jump back (if any), then the three NumPy stages in sequence, one
    # pass per byte-capped chunk (the popcounts through the registry, so
    # their selection, gate and counters keep applying); for a fused call,
    # each chunk's epsilons then become the sampler's ``mu + eps * sigma``
    # (a multiply, then an add into the product) straight into ``w_out``, so
    # no whole epsilon block is ever allocated.
    if w_out is not None and np.any(sigma < 0):
        raise ValueError("sigma must be non-negative")
    start = _rewound(state_words, n_bits, offsets, rewind) if rewind else None
    words = state_words if start is None else start
    chunk = max(1, _KERNEL_SEQ_BYTES * 8 // (state_words.shape[0] * stride))
    history, head, done = None, 0, 0
    while done < count:
        size = min(chunk, count - done)
        span, shifts = slice(done, done + size), size * stride
        if history is None:
            seq_words, words = lfsr_step_block(words, n_bits, shifts, offsets)
        else:
            seq_words = bitops.continue_lfsr_sequence(
                history, head, n_bits, shifts, offsets
            )
        popcounts = registry.call(
            "window_popcounts", seq_words[:, head:], n_bits, shifts, stride
        )
        if done + size < count:
            history, head = bitops.lfsr_history(
                seq_words, (head << 6) + n_bits + shifts, n_bits
            )
        elif history is not None:
            words = bitops.register_words(seq_words, (head << 6) + shifts, n_bits)
        del seq_words  # one chunk's sequence alive at a time, not two
        values = clt_standardise(popcounts, mean, std)
        if out is not None:
            out[:, span] = values
        if w_out is not None:
            np.multiply(values, sigma[span], out=w_out[:, span])
            w_out[:, span] += mu[span]
        done += size
        del popcounts, values  # nor does a chunk's output live into the next
    return out, words, w_out, start


@lru_cache(maxsize=64)
def _native_geometry(n_bits: int, offsets: tuple[int, ...], stride: int):
    """The C kernel's ``(shift table, its address)``; ``None`` outside its domain.

    Strides are whole words, and every tap besides the tail sits within a
    word of it (shift ``n_bits - p < 64``, on a register of at least two
    words).  The kernel has three tap slots; a two-tap polynomial fills them
    with one tap three times (``x ^ x ^ x == x``).
    """
    inner = [p for p in offsets if p != n_bits]
    n_words, tail = divmod(n_bits, 64)
    if (
        tail or stride % 64 or not 2 <= n_words <= _NATIVE_MAX_WORDS
        or len(inner) + 1 != len(offsets)
    ):
        return None
    if len(inner) == 1:
        inner = inner * _NATIVE_TAPS
    shifts = [n_bits - p for p in inner]
    if len(shifts) != _NATIVE_TAPS or not all(0 < shift < 64 for shift in shifts):
        return None
    table = np.array(shifts, dtype=np.int32)
    table.flags.writeable = False  # shared by every caller of the cache
    return table, table.ctypes.data


@lru_cache(maxsize=64)
def _native_jump(n_bits: int, offsets: tuple[int, ...], shifts: int):
    """``bitops.jump_terms`` as the C kernel's packed ``x^-shifts mod P``:
    ``(words, their address)``, bit ``i`` the coefficient of ``x^i``."""
    power = sum(1 << i for i in bitops.jump_terms(n_bits, offsets, shifts))
    words = bitops.pack_int_rows([power], n_bits)[0]
    words.flags.writeable = False
    return words, words.ctypes.data


def _c_array(array, dtype, shape, writable=False) -> bool:
    """An aligned C-contiguous ``dtype`` array of ``shape`` (cheaper than
    ``_strided``, for the checks the per-layer calls pay 8x a step)."""
    if not isinstance(array, np.ndarray):
        return False
    flags = array.flags
    return (
        array.dtype == dtype
        and array.shape == shape
        and flags.c_contiguous
        and flags.aligned
        and (flags.writeable or not writable)
    )


def _grng_block_native_supports(
    state_words, n_bits, offsets, stride, count, mean, std, out,
    mu=None, sigma=None, w_out=None, rewind=0,
):
    shape = (state_words.shape[0], count)
    if w_out is None:
        outputs = _c_array(out, np.float64, shape, True)
    else:
        outputs = (
            (out is None or _c_array(out, np.float64, shape, True))
            and _c_array(w_out, np.float64, shape, True)
            and _c_array(mu, np.float64, (count,))
            and _c_array(sigma, np.float64, (count,))
        )
    return (
        outputs
        and count >= 1
        and _c_array(state_words, np.uint64, (shape[0], n_bits // 64))
        and _native_geometry(n_bits, tuple(offsets), stride) is not None
    )


def _grng_block_native(
    state_words, n_bits, offsets, stride, count, mean, std, out,
    mu=None, sigma=None, w_out=None, rewind=0,
):
    offsets = tuple(offsets)
    shifts = _native_geometry(n_bits, offsets, stride)
    jump = _native_jump(n_bits, offsets, rewind) if rewind else (None, None)
    rows, n_words = state_words.shape
    # the end registers and the start registers in one block: one allocation
    # and one address per call
    block = np.empty((2, rows, n_words), dtype=np.uint64)
    new_state = block[0]
    start = block[1] if rewind else None
    address = block.ctypes.data
    fused = (None,) * 3 if w_out is None else (
        mu.ctypes.data, sigma.ctypes.data, w_out.ctypes.data
    )
    status = native.library.load().grng_forward(
        state_words.ctypes.data, address, rows, n_words, shifts[1], stride // 64,
        count, float(mean), float(std), None if out is None else out.ctypes.data,
        *fused, jump[1], address + 8 * rows * n_words,
    )
    if status == -2:
        raise ValueError("sigma must be non-negative")
    if status:
        raise KernelBackendError(f"native grng_block rejected its arguments ({status})")
    return out, new_state, w_out, start


def _random_state_words(rng, rows: int, n_bits: int) -> np.ndarray:
    words = rng.integers(
        0, 1 << 64, size=(rows, bitops.words_for_bits(n_bits)), dtype=np.uint64
    )
    tail = n_bits & 63
    if tail:
        words[:, -1] &= np.uint64((1 << tail) - 1)
    words[:, 0] |= np.uint64(1)  # the all-zero state is a recurrence fixed point
    return words


def _grng_block_cases() -> list[dict[str, Any]]:
    from . import lfsr  # deferred: lfsr imports this module

    rng = np.random.default_rng(0x6B46)
    cases = []
    # tests/property/test_lfsr_bitserial_oracle.py holds the long cases.
    # ``fused`` cases also pass (mu, sigma, w_out) and ask for the weights
    # with ("eps") or without ("w") the epsilons; ``rewind`` cases first jump
    # back that many shifts (a retrieval's replay: its count times the
    # stride, or the jump's edges 1, n - 1 and n).  Both ride on existing
    # geometries, so the gate makes no extra NumPy pass.
    for n_bits, stride, count, rows, fused, rewind in (
        (256, 256, 700, 3, None, 700 * 256),  # the paper's GRNG; odd row count
        (256, 256, 1, 1, "eps", 1),  # degenerate: one value
        (256, 64, 40, 2, "eps", 255),  # stride narrower than the register
        (256, 512, 40, 2, "w", 256),  # stride wider than the register
        # past the reference path's byte cap: split calls continue one
        # register stream; the C scratch window wraps 70 times per row
        (256, 256, 9000, 8, None, 9000 * 256),
        # one group of eight vector lanes plus a lone row, two full groups
        (256, 256, 300, 9, "eps", 300 * 256),
        (256, 256, 120, 16, None, 0),
        # std = sqrt(128)/2 is not a power of two
        (128, 128, 300, 3, "w", 127),
        (192, 192, 100, 2, None, (1 << 20) + 3),
    ):
        case = {
            "state_words": _random_state_words(rng, rows, n_bits),
            "n_bits": n_bits,
            "offsets": lfsr.normalise_taps(n_bits, None),
            "stride": stride,
            "count": count,
            "mean": n_bits / 2.0,
            "std": math.sqrt(n_bits / 4.0),
            "out": np.zeros((rows, count), dtype=np.float64),
            "rewind": rewind,
        }
        if fused:
            # IEEE specials in both; sigma's are the non-negative ones
            mu, sigma = rng.standard_normal(count), rng.random(count)
            if count > 1:
                _plant_specials(rng, mu)
                sigma[rng.integers(0, count, size=4)] = (0.0, -0.0, np.inf, 5e-324)
                sigma[rng.integers(0, count)] = np.nan
            case.update(mu=mu, sigma=sigma, w_out=np.zeros((rows, count)))
            if fused == "w":
                case["out"] = None
        cases.append(case)
    return cases


def _check_grng_block(case, expected, got) -> None:
    # The weights compare by NaN-ness, not NaN payload bits: the compiler may
    # swap the operands of a commutative vector op, and x86 propagates the
    # first NaN.
    def canonical(out, state, w_out, start):
        return out, state, None if w_out is None else _nan_canonical(w_out), start

    _check_same(case, canonical(*expected), canonical(*got))


# -- conv data movement: im2col, col2im, max pooling ---------------------
# The ``reference`` bodies are the NumPy code ``nn/functional.py`` grew up
# with; ``out=`` lets the batched training pass hand in a reused buffer.  The
# ``native`` backends (``_conv.c``) take float64 tensors through element
# strides, so NCHW-contiguous input and NCHW views of channels-last storage
# both go through without a copy; everything else falls to the reference.
def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


def _cols_shape(x_shape, kernel: int, stride: int, padding: int) -> tuple[int, int]:
    """Shape of the column matrix an ``x_shape`` tensor lowers to."""
    batch, channels, height, width = x_shape
    out_h = _conv_out_size(height, kernel, stride, padding)
    out_w = _conv_out_size(width, kernel, stride, padding)
    return batch * out_h * out_w, channels * kernel * kernel


def _channels_last(alloc, shape, dtype) -> np.ndarray:
    """An ``alloc``-ated (``np.zeros`` / ``np.empty``) NCHW view of NHWC storage."""
    batch, channels, height, width = shape
    return alloc((batch, height, width, channels), dtype=dtype).transpose(0, 3, 1, 2)


def _require_out(out: np.ndarray, shape, dtype) -> None:
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(
            f"out is {out.dtype}{out.shape}, the result is "
            f"{np.dtype(dtype)}{tuple(shape)}"
        )


def _strided(array, dtype, shape=None) -> bool:
    """Whether the C kernels can address ``array`` through element strides."""
    return (
        isinstance(array, np.ndarray)
        and array.dtype == dtype
        and array.flags.aligned
        and not any(step % array.itemsize for step in array.strides)
        and (shape is None or array.shape == tuple(shape))
    )


def _writable(out, dtype, shape) -> bool:
    return _strided(out, dtype, shape) and out.flags.writeable


def _window_geometry_ok(x_shape, kernel: int, stride: int, padding: int) -> bool:
    return (
        len(x_shape) == 4
        and kernel >= 1
        and stride >= 1
        and padding >= 0
        and _conv_out_size(x_shape[2], kernel, stride, padding) >= 1
        and _conv_out_size(x_shape[3], kernel, stride, padding) >= 1
    )


def _geometry(*fields) -> np.ndarray:
    """The int64 vector a ``_conv.c`` kernel reads its shapes and strides from."""
    flat: list[int] = []
    for item in fields:
        if isinstance(item, np.ndarray):
            flat.extend(step // item.itemsize for step in item.strides)
        elif isinstance(item, tuple):
            flat.extend(item)
        else:
            flat.append(item)
    return np.array(flat, dtype=np.int64)


def _im2col_reference(x, kernel, stride, padding, out=None):
    batch, channels, height, width = x.shape
    out_h = _conv_out_size(height, kernel, stride, padding)
    out_w = _conv_out_size(width, kernel, stride, padding)
    if padding:
        padded = np.zeros(
            (batch, channels, height + 2 * padding, width + 2 * padding),
            dtype=x.dtype,
        )
        padded[:, :, padding:-padding, padding:-padding] = x
        x = padded
    cols = np.empty((batch, channels, kernel, kernel, out_h, out_w), dtype=x.dtype)
    for row in range(kernel):
        row_end = row + stride * out_h
        for col in range(kernel):
            col_end = col + stride * out_w
            cols[:, :, row, col, :, :] = x[:, :, row:row_end:stride, col:col_end:stride]
    cols = cols.transpose(0, 4, 5, 1, 2, 3)
    if out is not None:
        _require_out(out, (batch * out_h * out_w, channels * kernel * kernel), x.dtype)
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        out.reshape(cols.shape)[...] = cols
        return out, out_h, out_w
    cols = cols.reshape(batch * out_h * out_w, channels * kernel * kernel)
    # The reshape can legally return a *view* with exotic strides (batch=1 is
    # the common case), and BLAS rounds `strided_A @ B` differently from
    # `contiguous_A @ B`.  Normalising the layout here pins one operand class
    # for every caller -- standalone, per-request-block and fused-tile conv
    # paths then all feed the GEMM identically-strided matrices, which is a
    # precondition of the row-stability proof in ``repro.core.stability``.
    return np.ascontiguousarray(cols), out_h, out_w


def _im2col_native_supports(x, kernel, stride, padding, out=None):
    if not (_strided(x, np.float64) and _window_geometry_ok(x.shape, kernel, stride, padding)):
        return False
    return out is None or (
        _writable(out, np.float64, _cols_shape(x.shape, kernel, stride, padding))
        and out.flags.c_contiguous
    )


def _im2col_native(x, kernel, stride, padding, out=None):
    out_h = _conv_out_size(x.shape[2], kernel, stride, padding)
    out_w = _conv_out_size(x.shape[3], kernel, stride, padding)
    if out is None:
        out = np.empty(_cols_shape(x.shape, kernel, stride, padding), dtype=np.float64)
    geometry = _geometry(x.shape, x, kernel, stride, padding)
    native.library.load().conv_im2col(
        x.ctypes.data, geometry.ctypes.data, out.ctypes.data
    )
    return out, out_h, out_w


def _as_channels_last(x: np.ndarray) -> np.ndarray:
    """The same NCHW tensor backed by channels-last storage."""
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def _strided_inputs(rng, shape) -> list[np.ndarray]:
    """One tensor in the layouts the conv step meets: NCHW, channels-last."""
    x = rng.standard_normal(shape)
    return [x, _as_channels_last(x)]


def _im2col_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xCAB)
    cases = []
    for x_shape, kernel, stride, padding, dtype in (
        ((2, 3, 8, 8), 3, 1, 1, np.float64),
        ((1, 1, 5, 5), 1, 1, 0, np.float64),  # pointwise kernel
        ((2, 2, 9, 9), 3, 2, 0, np.float64),  # strided window
        ((1, 2, 3, 3), 3, 1, 0, np.float64),  # window exactly covers the input
        ((0, 2, 6, 6), 3, 1, 1, np.float64),  # degenerate empty batch
        ((2, 3, 8, 8), 3, 1, 1, np.float32),
    ):
        x = rng.standard_normal(x_shape).astype(dtype)
        cases.append({"x": x, "kernel": kernel, "stride": stride, "padding": padding})
    # channels-last storage, padding wider than one ring, a garbage-filled out
    for x in _strided_inputs(rng, (2, 5, 7, 6)):
        cases.append({"x": x, "kernel": 4, "stride": 3, "padding": 2})
        cases.append(
            {"x": x, "kernel": 3, "stride": 1, "padding": 1,
             "out": rng.standard_normal((2 * 7 * 6, 5 * 9))}
        )
    return cases


# col2im: the adjoint of im2col.  Each element receives its window
# contributions in (row, col) order, accumulated into +0.0.
def _col2im_reference(cols, x_shape, kernel, stride, padding, out=None):
    batch, channels, height, width = x_shape
    out_h = _conv_out_size(height, kernel, stride, padding)
    out_w = _conv_out_size(width, kernel, stride, padding)
    cols = cols.reshape(batch, out_h, out_w, channels, kernel, kernel).transpose(
        0, 3, 4, 5, 1, 2
    )
    if out is not None:
        _require_out(out, x_shape, cols.dtype)
    direct = out is not None and not padding
    if direct:
        padded = out
        padded[...] = 0.0
    else:
        padded = _channels_last(
            np.zeros,
            (batch, channels, height + 2 * padding, width + 2 * padding),
            cols.dtype,
        )
    for row in range(kernel):
        row_end = row + stride * out_h
        for col in range(kernel):
            col_end = col + stride * out_w
            padded[:, :, row:row_end:stride, col:col_end:stride] += cols[:, :, row, col, :, :]
    if padding:
        padded = padded[:, :, padding:-padding, padding:-padding]
    if out is None or direct:
        return padded
    out[...] = padded
    return out


def _col2im_native_supports(cols, x_shape, kernel, stride, padding, out=None):
    x_shape = tuple(x_shape)
    if not _window_geometry_ok(x_shape, kernel, stride, padding):
        return False
    return (
        _strided(cols, np.float64, _cols_shape(x_shape, kernel, stride, padding))
        and cols.flags.c_contiguous
        and (out is None or _writable(out, np.float64, x_shape))
    )


def _col2im_native(cols, x_shape, kernel, stride, padding, out=None):
    if out is None:
        out = _channels_last(np.empty, x_shape, np.float64)
    geometry = _geometry(tuple(x_shape), out, kernel, stride, padding)
    native.library.load().conv_col2im(
        cols.ctypes.data, geometry.ctypes.data, out.ctypes.data
    )
    return out


def _col2im_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xC01)
    cases = []
    for x_shape, kernel, stride, padding, dtype, with_out in (
        ((2, 3, 8, 8), 3, 1, 1, np.float64, False),
        ((2, 3, 8, 8), 3, 1, 1, np.float64, True),
        ((1, 1, 5, 5), 1, 1, 0, np.float64, False),  # pointwise kernel
        ((2, 2, 9, 9), 3, 2, 0, np.float64, True),  # accumulates straight into out
        ((2, 3, 8, 8), 3, 2, 1, np.float64, True),  # stride 2 over padding
        ((1, 2, 6, 5), 2, 1, 1, np.float64, False),  # stride 1, even kernel, padded
        ((2, 5, 7, 6), 4, 3, 2, np.float64, False),  # positions no window covers
        ((0, 2, 6, 6), 3, 1, 1, np.float64, False),  # degenerate empty batch
        ((2, 3, 8, 8), 3, 1, 1, np.float32, False),
    ):
        cols = rng.standard_normal(
            _cols_shape(x_shape, kernel, stride, padding)
        ).astype(dtype)
        cols[rng.random(cols.shape) < 0.2] = -0.0  # what relu_grad hands over
        case = {"cols": cols, "x_shape": x_shape, "kernel": kernel, "stride": stride,
                "padding": padding}
        if with_out:
            case["out"] = _strided_inputs(rng, x_shape)[1]
        cases.append(case)
    return cases


# max pooling.  Strict `>` keeps the first window position on ties, exactly
# like np.argmax; np.argmax also treats NaN as the maximum (first NaN wins).
def _pool_window(x: np.ndarray, k: int, pool: int, stride: int, out_h: int, out_w: int):
    """Strided view of window position ``k`` (row-major in the window)."""
    row, col = divmod(k, pool)
    return x[:, :, row : row + stride * out_h : stride, col : col + stride * out_w : stride]


def _maxpool2d_forward_fresh(x, pool, stride):
    batch, channels, height, width = x.shape
    out_h = _conv_out_size(height, pool, stride, 0)
    out_w = _conv_out_size(width, pool, stride, 0)
    # the running compare does not see NaN as the maximum, so inputs holding
    # one take the gathered-window reduce instead (as does a 1x1 window, whose
    # running maximum would be a view of ``x`` rather than a fresh array)
    if pool == 1 or np.isnan(x).any():
        windows = np.empty((batch, channels, out_h, out_w, pool * pool), dtype=x.dtype)
        for k in range(pool * pool):
            windows[..., k] = _pool_window(x, k, pool, stride, out_h, out_w)
        argmax = windows.argmax(axis=-1)
        out = np.take_along_axis(windows, argmax[..., None], axis=-1)[..., 0]
        return out, argmax
    out = _pool_window(x, 0, pool, stride, out_h, out_w)
    argmax = np.zeros_like(out, dtype=np.intp)
    for k in range(1, pool * pool):
        candidate = _pool_window(x, k, pool, stride, out_h, out_w)
        better = candidate > out
        argmax = np.where(better, k, argmax)
        out = np.where(better, candidate, out)
    return out, argmax


def _maxpool2d_forward_reference(x, pool, stride, out=None, rectify=False):
    if rectify:
        x = np.maximum(x, 0.0)  # the ReLU the pool follows
    pooled, argmax = _maxpool2d_forward_fresh(x, pool, stride)
    if out is None:
        return pooled, argmax
    _require_out(out[0], pooled.shape, pooled.dtype)
    _require_out(out[1], argmax.shape, argmax.dtype)
    np.copyto(out[0], pooled)
    np.copyto(out[1], argmax)
    return out[0], out[1]


def _pooled_shape(x_shape, pool: int, stride: int) -> tuple[int, ...]:
    return tuple(x_shape[:2]) + tuple(
        _conv_out_size(size, pool, stride, 0) for size in x_shape[2:]
    )


def _maxpool2d_forward_native_supports(x, pool, stride, out=None, rectify=False):
    if not (_strided(x, np.float64) and _window_geometry_ok(x.shape, pool, stride, 0)):
        return False
    if out is None:
        return True
    shape = _pooled_shape(x.shape, pool, stride)
    return (
        isinstance(out, tuple)
        and len(out) == 2
        and _writable(out[0], np.float64, shape)
        and _writable(out[1], np.int64, shape)
    )


def _maxpool2d_forward_native(x, pool, stride, out=None, rectify=False):
    if out is None:
        # the results keep x's memory layout, as the NumPy reduce's do
        shape = _pooled_shape(x.shape, pool, stride)
        nhwc = x.strides[1] < x.strides[3]
        empty = partial(_channels_last, np.empty) if nhwc else np.empty
        out = (empty(shape, np.float64), empty(shape, np.int64))
    pooled, argmax = out
    geometry = _geometry(x.shape, x, pool, stride, pooled, argmax, int(rectify))
    native.library.load().conv_maxpool_forward(
        x.ctypes.data, geometry.ctypes.data, pooled.ctypes.data, argmax.ctypes.data
    )
    return pooled, argmax


def _post_relu(rng, shape) -> np.ndarray:
    """Tie-heavy data shaped like a ReLU output, signed zeros included."""
    x = np.maximum(rng.standard_normal(shape), 0.0)
    x[rng.random(shape) < 0.15] = -0.0
    return x


def _pre_relu(rng, shape) -> np.ndarray:
    """A conv output as a fused ReLU meets it: ties, signed zeros, infinities
    and NaN of several payloads (a signalling one too)."""
    special = np.array([0x8000000000000000, 0, 0x7FF0000000000000, 0xFFF0000000000000,
                        0x7FF8000000000000, 0xFFF8000000000123, 0x7FF0000000000005], np.uint64)
    x = rng.standard_normal(shape).round(1)
    where = rng.random(shape) < 0.15
    x[where] = rng.choice(special, int(where.sum())).view(np.float64)
    return x


#: (x_shape, pool, stride) of both max-pool gates.
_MAXPOOL_GEOMETRIES = (
    ((3, 4, 8, 8), 2, 2),
    ((2, 5, 6, 4), 2, 2),  # odd channel count: a lone last channel
    ((2, 3, 9, 10), 2, 3),  # stride > pool: gaps no window covers
    ((2, 3, 7, 7), 3, 2),  # overlapping windows
    ((2, 2, 5, 5), 1, 1),  # degenerate 1x1 window
    ((0, 2, 6, 6), 2, 2),  # degenerate empty batch
)


def _maxpool2d_forward_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0x9001)
    cases = []
    for x_shape, pool, stride in _MAXPOOL_GEOMETRIES:
        shape = _pooled_shape(x_shape, pool, stride)
        # rectify: the ReLU before the pool, in the same pass
        for x, rectify in ((_post_relu(rng, x_shape), False), (_pre_relu(rng, x_shape), True)):
            cases.append({"x": x, "pool": pool, "stride": stride, "rectify": rectify})
            cases.append(
                {"x": _as_channels_last(x), "pool": pool, "stride": stride,
                 "rectify": rectify,
                 "out": (_channels_last(np.ones, shape, np.float64),
                         _channels_last(np.ones, shape, np.intp))}
            )
    # NaN first, in the middle, last, and filling a window
    x = _post_relu(rng, (1, 2, 4, 6))
    x[0, 0, 0, 0] = x[0, 1, 0, 3] = x[0, 0, 3, 5] = np.nan
    x[0, 1, 2:4, 0:2] = np.nan
    cases.append({"x": x, "pool": 2, "stride": 2})
    cases.append({"x": x.astype(np.float32), "pool": 2, "stride": 2})
    return cases


def _maxpool2d_backward_reference(
    grad_out, argmax, x_shape, pool, stride, out=None, mask=None, channel_sums=None
):
    if out is None:
        grad_input = _channels_last(np.zeros, x_shape, grad_out.dtype)
    else:
        _require_out(out, x_shape, grad_out.dtype)
        grad_input = out
        grad_input[...] = 0.0
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    if stride >= pool:
        # Non-overlapping windows give every input position at most one
        # contribution, so the scatter is pool**2 masked writes.  The `+ 0.0`
        # keeps them bit-identical to accumulating into zeros: a -0.0
        # gradient (relu_grad emits them routinely) lands as +0.0.
        grad_out = grad_out + 0.0
        for k in range(pool * pool):
            _pool_window(grad_input, k, pool, stride, out_h, out_w)[...] = np.where(
                argmax == k, grad_out, 0.0
            )
    else:
        batch, channels, _, _ = x_shape
        index = (
            np.arange(batch)[:, None, None, None],
            np.arange(channels)[None, :, None, None],
            np.arange(out_h)[None, None, :, None] * stride + argmax // pool,
            np.arange(out_w)[None, None, None, :] * stride + argmax % pool,
        )
        np.add.at(grad_input, index, grad_out)
    if mask is not None:  # relu_grad of the ReLU before the pool
        np.multiply(grad_input, mask > 0.0, out=grad_input)
    if channel_sums is None:
        return grad_input, None
    # the conv bias gradient: each sample slice's grad_flat.sum(axis=0)
    n_samples, channels = channel_sums.shape
    if x_shape[0] % n_samples or channels != x_shape[1]:
        raise ValueError(f"channel_sums {channel_sums.shape} does not fit {x_shape}")
    per = x_shape[0] // n_samples
    for s in range(n_samples):
        rows = grad_input[s * per : (s + 1) * per].transpose(0, 2, 3, 1)
        channel_sums[s] = rows.reshape(-1, channels).sum(axis=0)
    return grad_input, channel_sums


def _maxpool2d_backward_native_supports(
    grad_out, argmax, x_shape, pool, stride, out=None, mask=None, channel_sums=None
):
    x_shape = tuple(x_shape)
    if not _window_geometry_ok(x_shape, pool, stride, 0):
        return False
    shape = _pooled_shape(x_shape, pool, stride)
    return (
        _strided(grad_out, np.float64, shape)
        and _strided(argmax, np.int64, shape)
        and (out is None or _writable(out, np.float64, x_shape))
        and (mask is None or _strided(mask, np.float64, x_shape))
        and (channel_sums is None or _channel_sums_ok(channel_sums, x_shape))
    )


def _channel_sums_ok(channel_sums, x_shape) -> bool:
    # NumPy sums a lone column pairwise, not row by row: C == 1 stays NumPy's
    return (
        _writable(channel_sums, np.float64, None)
        and channel_sums.flags.c_contiguous
        and channel_sums.ndim == 2
        and channel_sums.shape[1] == x_shape[1] != 1
        and channel_sums.shape[0] >= 1
        and x_shape[0] % channel_sums.shape[0] == 0
    )


def _maxpool2d_backward_native(
    grad_out, argmax, x_shape, pool, stride, out=None, mask=None, channel_sums=None
):
    if out is None:
        out = _channels_last(np.empty, x_shape, np.float64)
    geometry = _geometry(
        tuple(x_shape), grad_out, pool, stride, argmax, out,
        (0,) * 4 if mask is None else mask,
        0 if channel_sums is None else channel_sums.shape[0],
    )
    native.library.load().conv_maxpool_backward(
        grad_out.ctypes.data, argmax.ctypes.data, geometry.ctypes.data,
        out.ctypes.data, None if mask is None else mask.ctypes.data,
        None if channel_sums is None else channel_sums.ctypes.data,
    )
    return out, channel_sums


def _maxpool2d_backward_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0x9002)
    cases = []
    for x_shape, pool, stride in _MAXPOOL_GEOMETRIES:
        _, argmax = _maxpool2d_forward_fresh(_post_relu(rng, x_shape), pool, stride)
        for grad_out in _strided_inputs(rng, argmax.shape):
            # what relu_grad hands over: exact zeros of both signs
            grad_out[rng.random(argmax.shape) < 0.3] = -0.0
            grad_out[rng.random(argmax.shape) < 0.2] = 0.0
            case = {"grad_out": grad_out, "argmax": argmax, "x_shape": x_shape,
                    "pool": pool, "stride": stride}
            if grad_out.flags.c_contiguous:
                case["out"] = _channels_last(np.ones, x_shape, np.float64)
            cases.append(case)
            # the ReLU before the pool, in the same pass (inf * 0.0 is NaN)
            grad_out = grad_out.copy(order="K")
            grad_out[rng.random(argmax.shape) < 0.1] = rng.choice([np.inf, np.nan])
            mask = _pre_relu(rng, x_shape)
            for layout in (mask, _as_channels_last(mask)):
                cases.append(dict(case, grad_out=grad_out, mask=layout))
    # channel_sums: one slice per image, and the whole batch as one slice,
    # into garbage-filled buffers
    for case in list(cases):
        batch, channels = case["x_shape"][:2]
        for n_samples in sorted({1, batch or 1}):
            sums = rng.standard_normal((n_samples, channels))
            cases.append(dict(case, channel_sums=sums))
    # 1x1 windows: an all -0.0 channel (a negative gradient the mask zeroes),
    # which NumPy sums to +0.0, beside NaN payloads and infinities meeting in
    # one sum; even C tiles, odd C takes the general path, C == 1 is NumPy's
    # pairwise sum
    for channels in (4, 3, 1):
        x_shape = (4, channels, 4, 6)
        grad_out = _pre_relu(rng, x_shape)
        mask = np.abs(rng.standard_normal(x_shape))
        if channels > 1:
            grad_out[:, 0] = -0.5 - rng.random(x_shape[:1] + x_shape[2:])
            mask[:, 0] *= -1.0
        else:
            grad_out = rng.standard_normal(x_shape)
        cases.append(
            {"grad_out": grad_out, "argmax": np.zeros(x_shape, np.intp),
             "x_shape": x_shape, "pool": 1, "stride": 1, "mask": mask,
             "channel_sums": rng.standard_normal((2, channels))}
        )
    cases.append(
        {"grad_out": np.ones((1, 1, 2, 2), np.float32),
         "argmax": np.zeros((1, 1, 2, 2), np.intp), "x_shape": (1, 1, 4, 4),
         "pool": 2, "stride": 2}
    )
    return cases


# -- posterior_gc ------------------------------------------------------
# The GC stage of a mean-field Gaussian posterior over (S, *shape) sample
# stacks.  The ``reference`` body is the NumPy code ``GaussianPosterior`` grew
# up with; ``sigma`` and ``sigmoid_rho`` (softplus(rho) and its derivative)
# arrive computed, so the transcendentals stay in NumPy on every backend.
# ``mu_grad`` / ``rho_grad`` shaped like the parameter are accumulated into;
# shaped like the (S, *shape) stacks (the distributed tape path) they are
# overwritten with the per-sample contributions instead.  The prior gradient
# is ``prior_nll_grad * prior_scale``: a Gaussian prior passes the weights
# and ``1 / sigma_c^2``, any other prior its gradient and 1.0.
def _posterior_gc_reference(
    grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
    include_entropy_term, mu_grad, rho_grad, prior_scale=1.0,
):
    total_w_grad = grad_weight + kl_weight * (prior_nll_grad * prior_scale)
    sigma_grad = epsilon * total_w_grad
    if include_entropy_term:
        sigma_grad = sigma_grad - kl_weight / sigma
    rho_stack = sigma_grad * sigmoid_rho
    if mu_grad.ndim == grad_weight.ndim:
        mu_grad[...], rho_grad[...] = total_w_grad, rho_stack
        return mu_grad, rho_grad
    # Per-sample accumulation in sample order: float addition is not
    # associative, and the sequential trainers add one sample at a time.
    for s in range(grad_weight.shape[0]):
        mu_grad += total_w_grad[s]
        rho_grad += rho_stack[s]
    return mu_grad, rho_grad


def _posterior_gc_native_supports(
    grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
    include_entropy_term, mu_grad, rho_grad, prior_scale=1.0,
):
    if not isinstance(grad_weight, np.ndarray) or not isinstance(mu_grad, np.ndarray):
        return False
    stacks, shape = grad_weight.shape, grad_weight.shape[1:]
    out = stacks if mu_grad.ndim == grad_weight.ndim else shape
    return (
        isinstance(kl_weight, (float, int)) and not isinstance(kl_weight, bool)
        and isinstance(prior_scale, (float, int)) and not isinstance(prior_scale, bool)
        and _c_array(grad_weight, np.float64, stacks)
        and _c_array(epsilon, np.float64, stacks)
        and _c_array(prior_nll_grad, np.float64, stacks)
        and _c_array(sigma, np.float64, shape)
        and _c_array(sigmoid_rho, np.float64, shape)
        and _c_array(mu_grad, np.float64, out, True)
        and _c_array(rho_grad, np.float64, out, True)
    )


def _posterior_gc_native(
    grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
    include_entropy_term, mu_grad, rho_grad, prior_scale=1.0,
):
    native.library.load().posterior_gc(
        grad_weight.ctypes.data, epsilon.ctypes.data, prior_nll_grad.ctypes.data,
        sigma.ctypes.data, sigmoid_rho.ctypes.data, grad_weight.shape[0],
        sigma.size, float(kl_weight), float(prior_scale),
        int(bool(include_entropy_term)),
        int(mu_grad.ndim == grad_weight.ndim), mu_grad.ctypes.data,
        rho_grad.ctypes.data,
    )
    return mu_grad, rho_grad


def _plant_specials(rng, array: np.ndarray) -> None:
    """Plant NaN, +-inf and -0.0 at random positions of ``array``."""
    flat = array.reshape(-1)
    for value in (np.nan, np.inf, -np.inf, -0.0):
        flat[rng.integers(0, flat.size, size=max(1, flat.size // 16))] = value


def _posterior_gc_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0x6C)
    cases = []
    # the battery twice: into accumulators, then into the tape's (S, *shape)
    # destinations -- pre-filled with garbage that must be overwritten
    for stacks in (False, True):
        # a prior_scale other than 1 is a Gaussian prior's 1 / sigma_c^2
        for samples, shape, kl_weight, entropy, prefilled, specials, scale in (
            (8, (24, 10), 0.01, True, False, False, 4.0),  # a dense layer's step
            (3, (4, 2, 3, 3), 0.5, True, True, False, 1.0),  # conv, pre-filled grads
            (1, (7,), 0.0, False, True, False, 1.0),
            (5, (6, 5), 0, True, False, True, 1.0),  # kl 0 with the entropy term: -0/sigma
            (4, (9, 3), 1e-3, False, True, True, 1 / 0.3**2),
        ):
            stack = (samples, *shape)
            out = stack if stacks else shape
            garbage = rng.standard_normal(out) if stacks else np.full(out, -0.0)
            case = {
                "grad_weight": rng.standard_normal(stack),
                "epsilon": rng.standard_normal(stack),
                "prior_nll_grad": rng.standard_normal(stack),
                "kl_weight": kl_weight,
                "sigma": np.logaddexp(0.0, rng.standard_normal(shape)),
                "sigmoid_rho": rng.random(shape),
                "include_entropy_term": entropy,
                "mu_grad": rng.standard_normal(out) if prefilled else np.zeros(out),
                "rho_grad": garbage if prefilled else np.zeros(out),
                "prior_scale": scale,
            }
            if specials:
                for value in case.values():
                    if isinstance(value, np.ndarray):
                        _plant_specials(rng, value)
            cases.append(case)
    return cases


def _check_posterior_gc(case, expected, got) -> None:
    # NaN-ness is checked, NaN payload bits are not: NumPy's own payload
    # depends on whether its SIMD body or its scalar tail met the element
    _check_same(
        case, tuple(map(_nan_canonical, expected)), tuple(map(_nan_canonical, got))
    )


# -- json_dumps_f64 / json_loads_f64 -----------------------------------
# Float64 <-> JSON text at both ends of /v1/predict.  The references are the
# stdlib calls the wire always made; the compiled codec (core/_json.c) writes
# their bytes and reads their values.  ctypes releases the GIL around it.
_JSON_DECODER = json.JSONDecoder()
_JSON_MAX_DIMS = 32  # core/_json.c declines deeper nesting


def _json_dumps_f64_reference(array):
    return json.dumps(array.tolist()).encode()


def _json_dumps_f64_native_supports(array):
    return (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and array.flags.c_contiguous
        and array.flags.aligned
    )


def _json_dumps_f64_native(array):
    shape = np.array(array.shape, dtype=np.int64)
    lists = sum(math.prod(array.shape[:depth]) for depth in range(array.ndim))
    # worst case: a 24-byte repr and ", " per value; "[", "]" and ", " per list
    out = np.empty(26 * array.size + 4 * lists + 24, dtype=np.uint8)
    written = np.empty(1, dtype=np.int64)
    native.library.load().json_dumps_f64(
        array.ctypes.data, shape.ctypes.data, array.ndim, out.ctypes.data,
        written.ctypes.data,
    )
    return out[: written[0]].tobytes()


def _json_loads_f64_reference(text, offset):
    value, end = _JSON_DECODER.raw_decode(text.decode("ascii"), offset)
    return np.asarray(value, dtype=np.float64), end


def _json_loads_f64_native_supports(text, offset):
    return 0 <= offset < len(text)  # the C parser starts reading at text[offset]


def _json_loads_f64_native(text, offset):
    library = native.library.load()
    # n values take at least 2n - 1 characters
    capacity = min((len(text) - offset + 1) // 2, 1 << 20)
    info = np.empty(3 + _JSON_MAX_DIMS, dtype=np.int64)
    while True:
        out = np.empty(capacity, dtype=np.float64)
        if library.json_loads_f64(
            text, len(text), offset, out.ctypes.data, capacity, info.ctypes.data
        ):
            # declined (ragged, not all numbers, a long integer, bad grammar):
            # the reference answers, or raises what json / NumPy raise
            return _json_loads_f64_reference(text, offset)
        ndim, end, count = (int(value) for value in info[:3])
        if count <= capacity:
            break
        capacity = count
    out.resize(count, refcheck=False)  # shrinks in place: nothing else holds it
    return out.reshape(tuple(info[3 : 3 + ndim].tolist())), end


def _json_edge_values() -> np.ndarray:
    """A few hundred float64s across the formatter's edge classes."""
    rng = np.random.default_rng(0x150)
    finfo = np.finfo(np.float64)
    decades = 10.0 ** np.arange(-6, 19)  # both sides of repr's exponent switch
    return np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, finfo.tiny,
         finfo.max, -finfo.max, 0.1, 1 / 3, 2.0**53, 2.0**-1074 * 3],
        decades, np.nextafter(decades, 0), -np.nextafter(decades, np.inf),
        np.ldexp(1.0, rng.integers(-1074, 1024, 64)),
        rng.standard_normal(64) * 10.0 ** rng.integers(-30, 30, 64),
        rng.integers(0, 2**64, 64, dtype=np.uint64).view(np.float64),
        rng.random(32),  # what serving writes: probabilities
    ])


def _json_dumps_f64_cases() -> list[dict[str, Any]]:
    values = _json_edge_values()
    return [
        {"array": array}
        for array in (
            values,
            values[:240].reshape(2, 3, 4, 10),
            values[:36].reshape(6, 6),
            np.array(values[7]),
            np.empty(0),
            np.empty((2, 0, 3)),
            np.empty((3, 0)),
            values[-32:].astype(np.float32),  # outside the compiled domain
            values[::2],
        )
    ]


def _json_loads_f64_cases() -> list[dict[str, Any]]:
    cases = [
        {"text": _json_dumps_f64_reference(case["array"]), "offset": 0}
        for case in _json_dumps_f64_cases()
    ]
    for text, offset in (
        (b'{"x": [[1, -0, 1E5, 1e+05, -2.5e-3], [99999999999999999999, 0, '
         b'9007199254740993, -1.0, 9999999999999999999]]}', 6),
        (b"[\n 1 ,\t2\r]", 0),
        (b"[[true, null], [1, 2]]", 0),  # declined: the reference decides
        (b"[[], []]", 0),
        (b"[NaN, Infinity, -Infinity, -0.0]", 0),
        # the Eisel-Lemire fast path's edges: 19 / 20 significant digits
        # (leading zeros do not count), q = -342 / -343 / 308 / 309, exact
        # ties (q in [-4, 23]), the subnormal edge and overflow
        (b"[0.1234567890123456789, 0.12345678901234567891, 1234567890123456789.0, "
         b"12345678901234567891.0, 0.0000000000001234567890123456789, "
         b"0.00000000000012345678901234567891, 0.000000000000000000000000000]", 0),
        (b"[1e-342, 1e-343, 1e308, 1e309, 9999999999999999999e-342, "
         b"17976931348623157e292, 4.9406564584124654e-324, 1e-0000000000000000001]", 0),
        (b"[9007199254740993.0, 9007199254740995.0, 1e23, 2.4703282292062327e-324, "
         b"2.4703282292062328e-324, 1.7976931348623159e308, -0.0, 0e5, -0E-0]", 0),
    ):
        cases.append({"text": text, "offset": offset})
    return cases


# -- fused folded kernels (serving-tile fusion behind the stability probe) --
def _validate_splits(total: int, splits) -> tuple[int, ...]:
    splits = tuple(int(s) for s in splits)
    if not splits or any(s < 1 for s in splits):
        raise ValueError(f"splits must be positive row counts, got {splits!r}")
    if sum(splits) != total:
        raise ValueError(
            f"splits {splits!r} sum to {sum(splits)}, expected {total}"
        )
    return splits


def _fused_sample_matmul_reference(a, b, out, splits, trans_b=False):
    # The per-request oracle: each split block is computed from *fresh
    # contiguous* operands into a fresh output, exactly the byte sequence a
    # standalone per-request forward performs -- so "reference" here IS the
    # unfused serving path, by construction rather than by comparison.
    splits = _validate_splits(out.shape[-2], splits)
    shared_a = a.ndim == 2
    lo = 0
    for rows in splits:
        hi = lo + rows
        if trans_b:
            # conv idiom: `cols @ flat_weights[s].T` with a fresh result
            for s in range(b.shape[0]):
                a_blk = np.ascontiguousarray(a[lo:hi] if shared_a else a[s, lo:hi])
                out[s, lo:hi] = a_blk @ b[s].T
        else:
            a_blk = np.ascontiguousarray(a[lo:hi] if shared_a else a[:, lo:hi])
            out_blk = np.empty(
                (b.shape[0], rows, b.shape[-1]), dtype=out.dtype
            )
            sample_matmul(a_blk, b, out_blk)
            out[:, lo:hi] = out_blk
        lo = hi
    return out


def _fused_sample_matmul_fused(a, b, out, splits, trans_b=False):
    # One whole-M pass per sample: the folded GEMM the probe proves safe.
    _validate_splits(out.shape[-2], splits)
    if trans_b:
        shared_a = a.ndim == 2
        for s in range(b.shape[0]):
            out[s] = (a if shared_a else a[s]) @ b[s].T
        return out
    return sample_matmul(a, b, out)


def _fused_sample_matmul_supports(a, b, out, splits, trans_b=False):
    splits = tuple(int(s) for s in splits)
    if len(splits) < 2:
        # a single block is its own standalone computation; fusing is free
        return True
    from . import stability  # deferred: stability imports this module

    kind = "nt" if trans_b else "nn"
    return stability.probe.splits_ok(
        kind, np.dtype(out.dtype), int(b.shape[-2] if not trans_b else b.shape[-1]),
        int(out.shape[-1]), splits
    )


def _fused_sample_matmul_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xF0_5ED)
    cases = []
    for a_shape, n, splits, trans_b, dtype in (
        # adversarial splits: all-1-row, primes summing to a prime total,
        # and a cache-line straddle (K=17 float64 rows are 136 bytes)
        ((2, 6, 8), 4, (1, 1, 1, 1, 1, 1), False, np.float64),
        ((2, 37, 17), 5, (1, 2, 3, 5, 7, 19), False, np.float64),
        ((3, 16, 196), 128, (5, 11), False, np.float64),
        ((16, 196), 128, (7, 9), False, np.float64),  # shared-a broadcast
        ((2, 37, 17), 5, (1, 2, 3, 5, 7, 19), True, np.float64),
        ((3, 24, 64), 10, (8, 8, 8), True, np.float64),
        ((2, 13, 9), 12, (2, 4, 7), False, np.float32),
        ((2, 13, 9), 12, (13,), False, np.float64),  # single-block identity
    ):
        k = a_shape[-1]
        n_samples = a_shape[0] if len(a_shape) == 3 else 3
        a = rng.standard_normal(a_shape).astype(dtype)
        b_shape = (n_samples, n, k) if trans_b else (n_samples, k, n)
        b = rng.standard_normal(b_shape).astype(dtype)
        out = np.empty((n_samples, a_shape[-2], n), dtype=dtype)
        cases.append(
            {"a": a, "b": b, "out": out, "splits": splits, "trans_b": trans_b}
        )
    return cases


# ----------------------------------------------------------------------
# registry construction
# ----------------------------------------------------------------------
registry = KernelRegistry()


def _native(fn, supports, description: str) -> BackendImpl:
    """A compiled backend: available once ``native.library`` builds and loads
    (resolved at call time: tests swap ``native.library``)."""
    return BackendImpl(
        "native", fn, description, supports, lambda: native.library.load() is not None
    )


def _register_builtin(reg: KernelRegistry) -> None:
    reg.register(
        "window_popcounts",
        doc="Pattern popcounts after every `stride`-th of `count` shifts, "
        "from the packed bit sequence.",
        rows_of=lambda seq_words, n_bits, count, stride: seq_words.shape[0],
        cases=_window_popcounts_cases,
        check=_check_window_popcounts,
        # The two NumPy fast paths of this chain stay for speed: 21,376
        # values per row at S = 8 take ~9 ms on packed_bitcount, ~38 ms on
        # cumsum16 and 240-315 ms on the windowed reference.  (Memory no
        # longer tells them apart: the gate and an off-geometry sweep trace
        # ~3.6 and ~6 MiB on either; tests/unit/test_gate_memory.py.)
        backends=(
            BackendImpl(
                "packed_bitcount", _window_popcounts_packed,
                "np.bitwise_count on the packed words, windows as differences "
                "of stride-block sums (word-aligned strides only)",
                _window_popcounts_packed_supports,
                lambda: hasattr(np, "bitwise_count"),
            ),
            # cumsum16 serves what the compiled grng_block declines -- a
            # /v1/predict `grng_stride` that is not a multiple of 64, an
            # `lfsr_bits` that is not a whole number of words.
            BackendImpl(
                "cumsum16", _window_popcounts_cumsum,
                "unpacked narrow cumsum (int16 at stride 1, int32 block sums "
                "otherwise)",
            ),
            BackendImpl(
                "reference", _window_popcounts_reference,
                "dense per-shift int64 running sum per 1,024-shift window, "
                "sliced to the emitted positions",
            ),
        ),
    )
    reg.register(
        "grng_block",
        doc="One fused forward GRNG pass per register row: `count` "
        "standardised float64 epsilons of `stride` shifts each, written into "
        "`out`; given per-column `mu` and `sigma`, also the sampled weights "
        "mu + eps * sigma into `w_out` (then `out` may be None); given "
        "`rewind`, the pass starts that many shifts before `state_words` "
        "(a jump back, then forward); returns (out, new_state_words, "
        "w_out, start_words), start_words None without a rewind.",
        rows_of=lambda state_words, *args, **kwargs: state_words.shape[0],
        cases=_grng_block_cases,
        check=_check_grng_block,
        backends=(
            _native(
                _grng_block_native, _grng_block_native_supports,
                "compiled streaming kernel (core/_grng.c via ctypes), the "
                "jump back included: word-aligned widths and strides, "
                "polynomials of up to four taps",
            ),
            BackendImpl(
                "reference", _grng_block_reference,
                "window XOR of an lfsr_step_block run for the jump, then "
                "lfsr_step_block > window_popcounts > clt_standardise in "
                "512 KiB sequence chunks, weights written per chunk",
            ),
        ),
    )
    reg.register(
        "im2col",
        doc="Unfold (N, C, H, W) into the (N*out_h*out_w, C*k*k) column "
        "matrix; returns (cols, out_h, out_w).",
        rows_of=lambda x, kernel, stride, padding, out=None: x.shape[0],
        cases=_im2col_cases,
        check=_check_same,
        backends=(
            _native(
                _im2col_native, _im2col_native_supports,
                "compiled single-pass gather (core/_conv.c): float64 "
                "through element strides, straight into the column matrix",
            ),
            BackendImpl(
                "reference", _im2col_reference,
                "per-kernel-position strided slice gather",
            ),
        ),
    )
    reg.register(
        "col2im",
        doc="Fold a (N*out_h*out_w, C*k*k) column matrix back into an NCHW "
        "view of channels-last storage (adjoint of im2col), window "
        "contributions added in (row, col) order.",
        rows_of=lambda cols, x_shape, kernel, stride, padding, out=None: x_shape[0],
        cases=_col2im_cases,
        check=_check_same,
        backends=(
            _native(
                _col2im_native, _col2im_native_supports,
                "compiled single-pass gather (core/_conv.c): each "
                "element sums its windows once, no padded buffer, no zero fill",
            ),
            BackendImpl(
                "reference", _col2im_reference,
                "k*k strided `+=` passes over a zeroed padded tensor",
            ),
        ),
    )
    reg.register(
        "maxpool2d_forward",
        doc="Max pooling over (N, C, H, W); returns (pooled, argmax) with the "
        "first window position winning ties and NaN treated as np.argmax "
        "does.",
        rows_of=lambda x, pool, stride, out=None, rectify=False: x.shape[0],
        cases=_maxpool2d_forward_cases,
        check=_check_same,
        backends=(
            _native(
                _maxpool2d_forward_native, _maxpool2d_forward_native_supports,
                "compiled single pass (core/_conv.c): maximum, argmax "
                "and the NaN rule inline, no isnan pre-pass; rectify=True "
                "pools the ReLU of x in the same pass",
            ),
            BackendImpl(
                "reference", _maxpool2d_forward_reference,
                "running pairwise `>` over the pool**2 strided window "
                "views (gathered-window argmax when a NaN is present); "
                "rectify=True pools np.maximum(x, 0.0)",
            ),
        ),
    )
    reg.register(
        "maxpool2d_backward",
        doc="Scatter the pooled gradient back to the argmax positions of an "
        "NCHW view of channels-last storage, accumulated into +0.0; returns "
        "(grad, channel_sums), an (S, C) channel_sums= buffer filled with "
        "each of S batch slices' per-channel sum of grad (else None).",
        rows_of=lambda grad_out, argmax, x_shape, pool, stride, **kwargs: grad_out.shape[0],
        cases=_maxpool2d_backward_cases,
        check=_check_same,
        backends=(
            _native(
                _maxpool2d_backward_native, _maxpool2d_backward_native_supports,
                "compiled zero fill + `+=` scatter (core/_conv.c), "
                "overlapping windows included, one write per position when "
                "windows tile; mask= multiplies by (mask > 0.0) and "
                "channel_sums= adds (n, h, w) rows onto +0.0 in the pass "
                "(C == 1 declined)",
            ),
            BackendImpl(
                "reference", _maxpool2d_backward_reference,
                "pool**2 masked writes (np.add.at when windows overlap); "
                "mask= is relu_grad(mask, scatter); channel_sums= is each "
                "slice's grad_flat.sum(axis=0)",
            ),
        ),
    )
    reg.register(
        "posterior_gc",
        doc="GC stage of a Gaussian posterior: fold (S, *shape) sample "
        "gradients into mu_grad / rho_grad in sample order (or, given "
        "(S, *shape) mu_grad / rho_grad, write the per-sample contributions "
        "into them).",
        rows_of=lambda grad_weight, *args, **kwargs: grad_weight.shape[0],
        cases=_posterior_gc_cases,
        check=_check_posterior_gc,
        backends=(
            _native(
                _posterior_gc_native, _posterior_gc_native_supports,
                "compiled one-pass loop (core/_gc.c): the reference's "
                "IEEE operations in its operand order, float64 C-contiguous only",
            ),
            BackendImpl(
                "reference", _posterior_gc_reference,
                "NumPy passes over the (S, *shape) stacks, then S "
                "in-place row adds per gradient (or one assignment per stack)",
            ),
        ),
    )
    reg.register(
        "json_dumps_f64",
        doc="json.dumps(array.tolist()).encode(): float64 values as repr "
        "writes them, nested as json.dumps nests lists.",
        rows_of=lambda array: len(array) if np.ndim(array) else 1,
        cases=_json_dumps_f64_cases,
        check=_check_same,
        backends=(
            _native(
                _json_dumps_f64_native, _json_dumps_f64_native_supports,
                "compiled Ryu shortest digits in repr's layout "
                "(core/_json.c), C-contiguous float64 only",
            ),
            BackendImpl(
                "reference", _json_dumps_f64_reference,
                "tolist() then the stdlib json encoder (repr per float)",
            ),
        ),
    )
    reg.register(
        "json_loads_f64",
        doc="Parse the JSON array at text[offset] (ASCII bytes) into float64: "
        "returns (array, end) as JSONDecoder.raw_decode + np.asarray would.",
        rows_of=lambda text, offset: 1,
        cases=_json_loads_f64_cases,
        check=_check_same,
        backends=(
            _native(
                _json_loads_f64_native, _json_loads_f64_native_supports,
                "compiled parse of rectangular number arrays "
                "(core/_json.c: Eisel-Lemire for float tokens of <= 19 significant "
                "digits, strtod_l in the C locale for the rest); declined "
                "documents go to the reference",
            ),
            BackendImpl(
                "reference", _json_loads_f64_reference,
                "JSONDecoder.raw_decode, then np.asarray(..., float64)",
            ),
        ),
    )
    reg.register(
        "fused_sample_matmul",
        doc="Per-sample matmul over a tile of concatenated requests "
        "(row `splits`); the reference recomputes each request block "
        "standalone, so fusing is correct only where the conformance gate "
        "-- the runtime row-stability probe -- proves the folded GEMM "
        "byte-identical.",
        rows_of=lambda a, b, out, splits, trans_b=False: out.shape[-2],
        cases=_fused_sample_matmul_cases,
        check=_check_same,
        backends=(
            BackendImpl(
                "fused", _fused_sample_matmul_fused,
                "one whole-tile GEMM per sample; supports() consults "
                "the RowStabilityProbe per (kind, dtype, K, N, splits) class",
                _fused_sample_matmul_supports,
            ),
            BackendImpl(
                "reference", _fused_sample_matmul_reference,
                "per-request blocks from fresh contiguous operands "
                "(the unfused serving path, by construction)",
            ),
        ),
    )


_register_builtin(registry)
registry.load_env()

# Fork safety (the distributed coordinator prefers fork-start workers): the registry lock is taken on every kernel call
# from arbitrary threads, so a fork racing a dispatch would hand the child a
# lock that is held forever.  The stdlib-logging protocol makes the fork
# atomic with respect to the lock: hold it across the fork in the parent and
# hand the child a fresh one.
if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX containers
    os.register_at_fork(
        before=lambda: registry._lock.acquire(),
        after_in_parent=lambda: registry._lock.release(),
        after_in_child=lambda: setattr(registry, "_lock", threading.RLock()),
    )


# ----------------------------------------------------------------------
# module-level conveniences over the default registry
# ----------------------------------------------------------------------
# The default registry's methods, bound under their own names.
dispatch = registry.dispatch
set_backend = registry.set_backend
using = registry.using
current_selection = registry.current_selection
apply_selection = registry.apply_selection
counters_snapshot = registry.counters_snapshot
reset_counters = registry.reset_counters
list_backends = registry.list_backends
kernel_names = registry.kernel_names
verify_backend = registry.verify_backend


def stats_snapshot() -> dict[str, dict[str, Any]]:
    """Selection plus counters per kernel (feeds ``ServerStats``).

    The plain functions are listed beside the dispatch points, their
    selection reading ``"reference"``: the one body they have.
    """
    snapshot = registry.stats_snapshot()
    counters = registry.counters_snapshot()
    for name in _COUNTED_FUNCTIONS:
        snapshot[name] = {
            "selection": _Kernel.REFERENCE,
            "backends": counters.get(name, {}),
        }
    return dict(sorted(snapshot.items()))


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: inspect the registry and run conformance gates on demand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core",
        description="Inspect the kernel-backend registry.",
    )
    parser.add_argument(
        "--list", action="store_true", help="list kernels and backends (default)"
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="run every available backend through its conformance gate",
    )
    args = parser.parse_args(argv)

    failures = 0
    if args.list or not args.verify:
        for entry in list_backends():
            print(f"{entry['kernel']}  (selection: {entry['selection']}, "
                  f"chain: {' > '.join(entry['chain'])})")
            for backend in entry["backends"]:
                status = "available" if backend["available"] else "unavailable"
                print(
                    f"  {backend['name']:16s} {status:12s} "
                    f"conformance={backend['conformance']:10s} "
                    f"{backend['description']}"
                )
                if (entry["kernel"], backend["name"]) == ("grng_block", "native") and (
                    backend["available"]
                ):
                    # which forward body this CPU runs: the vector lanes or rows
                    width = native.library.load().grng_lane_width()
                    print(f"  {'':16s} grng_lane_width={width}")
    if args.verify:
        for entry in list_backends():
            kernel = entry["kernel"]
            for backend in entry["backends"]:
                name = backend["name"]
                if name == _Kernel.REFERENCE:
                    print(f"{kernel:18s} {name:16s} ORACLE")
                    continue
                if not backend["available"]:
                    print(f"{kernel:18s} {name:16s} SKIP (unavailable)")
                    continue
                try:
                    verify_backend(kernel, name)
                except BackendConformanceError as exc:
                    failures += 1
                    print(f"{kernel:18s} {name:16s} FAIL  {exc}")
                else:
                    print(f"{kernel:18s} {name:16s} PASS (bit-identical)")
        if not failures:
            print("all available backends are bit-identical to the oracle")
    return 1 if failures else 0


if __name__ == "__main__":  # the former spelling of the command
    raise SystemExit("the registry CLI is `python -m repro.core` now")
