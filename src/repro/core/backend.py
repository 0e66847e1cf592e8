"""Pluggable kernel-backend dispatch with a bit-exactness conformance gate.

Every hot kernel of the engine -- packed LFSR stepping, strided window
popcounts, CLT standardisation, the fused GRNG block that composes those
three, per-sample matmul, the conv data movement (im2col, col2im, max-pool
forward and backward), the posterior's GC stage and the float64 <-> JSON text
codec of the serving wire -- is a named *dispatch point* in this registry.
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

The active selection is captured in
:class:`~repro.models.zoo.ReplicaSpec` so serving and distributed workers
rebuild replicas on the same backends as the process that captured them, and
per-(kernel, backend) call/row counters feed ``ServerStats`` and the gateway's
``GET /stats`` so operators can see which implementations actually ran.

``python -m repro.core.backend --list`` prints the registry; ``--verify``
runs every available backend through its conformance gate.
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
    "counters_snapshot",
    "current_selection",
    "dispatch",
    "kernel_names",
    "list_backends",
    "registry",
    "reset_counters",
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
    conformance_cases: Callable[[], list[dict[str, Any]]]
    check: Callable[[dict[str, Any], Any, Any], None]
    backends: dict[str, BackendImpl] = field(default_factory=dict)

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
        # (kernel, backend) -> True | the stored gate failure.  The gate runs
        # lazily on a backend's first non-reference dispatch and is cached.
        self._eligibility: dict[tuple[str, str], Any] = {}
        self._counters: dict[tuple[str, str], list[int]] = {}
        self._warned: set[str] = set()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_kernel(
        self,
        name: str,
        *,
        doc: str,
        chain: Sequence[str],
        rows_of: Callable[..., int],
        conformance_cases: Callable[[], list[dict[str, Any]]],
        check: Callable[[dict[str, Any], Any, Any], None],
    ) -> None:
        with self._lock:
            if name in self._kernels:
                raise KernelBackendError(f"kernel {name!r} is already registered")
            self._kernels[name] = _Kernel(
                name=name,
                doc=doc,
                chain=tuple(chain),
                rows_of=rows_of,
                conformance_cases=conformance_cases,
                check=check,
            )

    def register_backend(self, kernel: str, impl: BackendImpl) -> None:
        with self._lock:
            entry = self._kernel(kernel)
            if impl.name in entry.backends:
                raise KernelBackendError(
                    f"backend {impl.name!r} is already registered for {kernel!r}"
                )
            entry.backends[impl.name] = impl

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
                return
            if backend not in entry.backends:
                raise UnknownBackendError(
                    f"unknown backend {backend!r} for kernel {kernel!r}; "
                    f"registered: {sorted(entry.backends)}"
                )
            self._forced[kernel] = backend

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
        items = dict(selection)
        with self._lock:
            for kernel, backend in items.items():
                entry = self._kernel(kernel)
                if backend not in entry.backends:
                    raise UnknownBackendError(
                        f"unknown backend {backend!r} for kernel {kernel!r}"
                    )
            self._forced = items

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
        if outcome is not True:
            raise outcome
        return True

    def _run_conformance(
        self, kernel: _Kernel, impl: BackendImpl
    ) -> Any:
        """Gate ``impl`` against the oracle; return ``True`` or the failure."""
        reference = kernel.backends[_Kernel.REFERENCE]
        for index, case in enumerate(kernel.conformance_cases()):
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
    def _resolve(self, kernel: _Kernel, args: tuple, kwargs: dict) -> BackendImpl:
        with self._lock:
            forced = self._forced.get(kernel.name)
        if forced is not None:
            impl = kernel.backends.get(forced)
            if impl is None:  # pragma: no cover - set_backend validates
                raise UnknownBackendError(
                    f"unknown backend {forced!r} for kernel {kernel.name!r}"
                )
            if impl.is_available():
                if not self._is_eligible(kernel, impl):
                    # An explicitly selected backend that fails the gate is a
                    # hard error: silently answering from the oracle would
                    # mask the nonconformance the selection was probing.
                    with self._lock:
                        raise self._eligibility[(kernel.name, impl.name)]
                if impl.supports is None or impl.supports(*args, **kwargs):
                    return impl
                # Forced but outside the backend's input domain: the oracle
                # answers (bit-identical by definition of eligibility).
            else:
                self._warn_once(
                    f"backend {forced!r} for kernel {kernel.name!r} is not "
                    "available in this environment; using the default chain"
                )
                return self._resolve_chain(kernel, args, kwargs)
            return kernel.backends[_Kernel.REFERENCE]
        return self._resolve_chain(kernel, args, kwargs)

    def _resolve_chain(
        self, kernel: _Kernel, args: tuple, kwargs: dict
    ) -> BackendImpl:
        for name in kernel.chain:
            impl = kernel.backends[name]
            if not impl.is_available():
                continue
            if not self._is_eligible(kernel, impl):
                continue
            if impl.supports is not None and not impl.supports(*args, **kwargs):
                continue
            return impl
        return kernel.backends[_Kernel.REFERENCE]

    def call(self, kernel_name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Dispatch one kernel call through the selected backend."""
        kernel = self._kernel(kernel_name)
        impl = self._resolve(kernel, args, kwargs)
        rows = kernel.rows_of(*args, **kwargs)
        key = (kernel_name, impl.name)
        with self._lock:
            counter = self._counters.get(key)
            if counter is None:
                counter = self._counters[key] = [0, 0]
            counter[0] += 1
            counter[1] += int(rows)
        return impl.fn(*args, **kwargs)

    def dispatch(self, kernel: str) -> Callable[..., Any]:
        """A callable bound to ``kernel`` that resolves its backend per call."""
        self._kernel(kernel)  # fail fast on typos at import time

        def run(*args: Any, **kwargs: Any) -> Any:
            return self.call(kernel, *args, **kwargs)

        run.__name__ = kernel
        run.__qualname__ = f"dispatch({kernel!r})"
        run.__doc__ = self._kernels[kernel].doc
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
# built-in dispatch points
# ----------------------------------------------------------------------
# -- lfsr_step_block ---------------------------------------------------
def _lfsr_step_block_reference(state_words, n_bits, count, offsets, reverse):
    return bitops.run_lfsr_block_packed(state_words, n_bits, count, offsets, reverse)


def _lfsr_taps(n_bits: int) -> tuple[int, ...]:
    # Ascending, as the kernel contract (and normalise_taps) requires.
    taps = {
        8: (4, 5, 6, 8),
        16: (4, 13, 15, 16),
        64: (60, 61, 63, 64),
        128: (99, 101, 126, 128),
        192: (177, 178, 190, 192),
        256: (246, 251, 254, 256),
    }
    return taps[n_bits]


def _mirrored(n_bits: int, taps: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted({n_bits - p for p in taps if p != n_bits} | {n_bits}))


def _random_state_words(rng, rows: int, n_bits: int) -> np.ndarray:
    words = rng.integers(
        0, 1 << 64, size=(rows, bitops.words_for_bits(n_bits)), dtype=np.uint64
    )
    tail = n_bits & 63
    if tail:
        words[:, -1] &= np.uint64((1 << tail) - 1)
    words[:, 0] |= np.uint64(1)  # the all-zero state is a recurrence fixed point
    return words


def _lfsr_step_block_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xC0FFEE)
    cases = []
    for n_bits, count, rows, reverse in (
        (256, 512, 1, False),
        (256, 640, 3, True),
        (256, 64, 2, False),  # count < n_bits
        # past level 6 (position 256 << 6), where chunks become whole-word
        # slice XORs, ending on a sub-word tail
        (256, (256 << 6) + 4096 + 37, 2, False),
        (256, (256 << 6) + 4096 + 37, 2, True),
        (16, 100, 2, False),
        (16, 96, 2, True),
        (8, 3, 1, False),  # degenerate: tiny block
    ):
        taps = _lfsr_taps(n_bits)
        offsets = _mirrored(n_bits, taps) if reverse else taps
        cases.append(
            {
                "state_words": _random_state_words(rng, rows, n_bits),
                "n_bits": n_bits,
                "count": count,
                "offsets": offsets,
                "reverse": reverse,
            }
        )
    return cases


def _check_lfsr_step_block(case, expected, got) -> None:
    total = case["n_bits"] + case["count"]
    exp_seq, exp_state = expected
    got_seq, got_state = got
    if got_seq.dtype != np.uint64 or got_state.dtype != np.uint64:
        raise AssertionError("sequence and state words must be uint64")
    if got_seq.shape[1] < bitops.words_for_bits(total):
        raise AssertionError("sequence buffer too small for the produced bits")
    if not np.array_equal(
        bitops.unpack_bits(exp_seq, total), bitops.unpack_bits(got_seq, total)
    ):
        raise AssertionError("produced bit sequence differs from the oracle")
    if np.any(bitops.unpack_bits(got_seq, got_seq.shape[1] * 64)[:, total:]):
        raise AssertionError("bits beyond n_bits + count must be zero")
    if not np.array_equal(exp_state, got_state):
        raise AssertionError("end-of-block register state differs from the oracle")


# -- window_popcounts --------------------------------------------------
def _window_popcounts_reference(seq_words, n_bits, count, stride):
    # Dense per-shift int64 running sum, then slice the emitted positions:
    # the simplest arithmetic over the widest dtype is the oracle.
    seq = bitops.unpack_bits(seq_words, n_bits + count)
    delta = seq[:, n_bits:].astype(np.int64) - seq[:, :count]
    popcounts = np.cumsum(delta, axis=1)
    popcounts += seq[:, :n_bits].sum(axis=1, dtype=np.int64)[:, None]
    return popcounts[:, stride - 1 :: stride]


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
    if got.shape != expected.shape:
        raise AssertionError(f"shape {got.shape} != oracle {expected.shape}")
    if not np.array_equal(np.asarray(expected, np.int64), np.asarray(got, np.int64)):
        raise AssertionError("popcount values differ from the oracle")


# -- clt_standardise ---------------------------------------------------
def _clt_standardise_reference(popcounts, mean, std):
    return (np.asarray(popcounts) - mean) / std


def _clt_standardise_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xFACADE)
    n = 256
    mean, std = n / 2.0, float(np.sqrt(n / 4.0))
    pops32 = rng.integers(0, n + 1, size=(4, 96), dtype=np.int32)
    return [
        {"popcounts": pops32, "mean": mean, "std": std},
        {"popcounts": pops32.astype(np.int16), "mean": mean, "std": std},
        {"popcounts": pops32.astype(np.int64), "mean": mean, "std": std},
        {"popcounts": pops32[0].astype(np.float64), "mean": mean, "std": std},
        {"popcounts": pops32[0, :7], "mean": mean, "std": std},
        {"popcounts": np.int64(137), "mean": mean, "std": std},  # scalar path
        {"popcounts": np.zeros((3, 0), dtype=np.int16), "mean": mean, "std": std},
        {"popcounts": rng.integers(0, 17, size=33, dtype=np.int16), "mean": 8.0,
         "std": 2.0},
    ]


def _check_clt_standardise(case, expected, got) -> None:
    expected, got = np.asarray(expected), np.asarray(got)
    if got.dtype != np.float64:
        raise AssertionError(f"epsilon values must be float64, got {got.dtype}")
    if got.shape != expected.shape:
        raise AssertionError(f"shape {got.shape} != oracle {expected.shape}")
    if expected.tobytes() != got.tobytes():
        raise AssertionError("standardised values are not byte-identical")


# -- grng_block --------------------------------------------------------
#: Upper bound on the packed bit sequence one *reference* kernel call
#: materialises (``rows * shifts / 8`` bytes); split calls continue the same
#: register stream and are bit-identical.  This bounds transient memory, it is
#: not a locality knob: a whole span in one call is ~25 % faster at the
#: training step's shape (every call re-climbs the leapfrog's squaring
#: levels), but multi-MiB transients raise glibc's dynamic mmap/trim
#: thresholds for the whole process -- measured as +7 % peak RSS and slower
#: small-array work on the in-process serving benchmark.  The compiled
#: backend never stores the sequence, so the cap does not apply to it.
_KERNEL_SEQ_BYTES = 1 << 21

#: Limits compiled into ``_grng.c``: GRNG_MAX_WORDS, and its three tap slots.
_NATIVE_MAX_WORDS = 16
_NATIVE_TAPS = 3


def _grng_block_reference(
    state_words, n_bits, offsets, stride, count, reverse, mean, std, out
):
    # Exactly the three NumPy dispatch points in sequence, one pass per
    # byte-capped chunk, each through the registry so its own selection,
    # gate and counters keep applying.
    chunk = max(1, _KERNEL_SEQ_BYTES * 8 // (state_words.shape[0] * stride))
    done = 0
    while done < count:
        size = min(chunk, count - done)
        seq_words, state_words = registry.call(
            "lfsr_step_block", state_words, n_bits, size * stride, offsets, reverse
        )
        popcounts = registry.call(
            "window_popcounts", seq_words, n_bits, size * stride, stride
        )
        out[:, done : done + size] = (
            popcounts
            if reverse
            else registry.call("clt_standardise", popcounts, mean, std)
        )
        done += size
    return out, state_words, popcounts[:, -1]


@lru_cache(maxsize=64)
def _native_geometry(n_bits: int, offsets: tuple[int, ...], reverse: bool):
    """The C kernel's shift tables for a tap tuple; ``None`` outside its domain.

    Forward, every tap besides the tail must sit within a word of it (shift
    ``n_bits - p < 64``, on a register of at least two words); reversed, the
    mirrored taps must reach less than a word back, so the in-word solve
    ``(1 + q)^-1 = PROD_k (1 + q^(2^k))`` applies -- one list of left shifts
    ``m << k`` (those still below 64) per squaring level.  The kernel has
    three tap slots; a two-tap polynomial fills them with one tap three
    times (``x ^ x ^ x == x``).
    """
    inner = [p for p in offsets if p != n_bits]
    n_words, tail = divmod(n_bits, 64)
    if tail or n_words > _NATIVE_MAX_WORDS or len(inner) + 1 != len(offsets):
        return None
    if len(inner) == 1:
        inner = inner * _NATIVE_TAPS
    if len(inner) != _NATIVE_TAPS:
        return None
    if not reverse:
        shifts = [n_bits - p for p in inner]
        if n_words < 2 or not all(0 < s < 64 for s in shifts):
            return None
        tables = [shifts]
    else:
        if not all(0 < m < 64 for m in inner):
            return None
        levels = []
        while min(inner) << len(levels) < 64:
            k = len(levels)
            levels.append([m << k for m in inner if m << k < 64])
        tables = [
            [64 - m for m in inner],
            [shift for level in levels for shift in level],
            [len(level) for level in levels],
        ]
    arrays = tuple(np.array(table, dtype=np.int32) for table in tables)
    for array in arrays:
        array.flags.writeable = False  # shared by every caller of the cache
    return arrays


def _grng_block_native_supports(
    state_words, n_bits, offsets, stride, count, reverse, mean, std, out
):
    return (
        stride % 64 == 0
        and count >= 1
        and _native_geometry(n_bits, tuple(offsets), bool(reverse)) is not None
        and state_words.dtype == np.uint64
        and state_words.shape[1:] == (n_bits // 64,)
        and out.dtype == (np.int32 if reverse else np.float64)
        and out.shape == (state_words.shape[0], count)
        and out.flags.c_contiguous
        and out.flags.writeable
    )


def _grng_block_native(
    state_words, n_bits, offsets, stride, count, reverse, mean, std, out
):
    lib = native.library.load()
    tables = _native_geometry(n_bits, tuple(offsets), bool(reverse))
    # every buffer stays referenced by a local until the call returns
    state = np.ascontiguousarray(state_words)
    rows, n_words = state.shape
    new_state = np.empty_like(state)
    last = np.empty(rows, dtype=np.int64)
    head = (state.ctypes.data, new_state.ctypes.data, last.ctypes.data, rows, n_words)
    if reverse:
        carries, level_shifts, level_sizes = tables
        status = lib.grng_reverse(
            *head, carries.ctypes.data, level_shifts.ctypes.data,
            level_sizes.ctypes.data, len(level_sizes), stride // 64, count,
            out.ctypes.data,
        )
    else:
        status = lib.grng_forward(
            *head, tables[0].ctypes.data, stride // 64, count,
            float(mean), float(std), out.ctypes.data,
        )
    if status:
        raise KernelBackendError(f"native grng_block rejected its arguments ({status})")
    return out, new_state, last


def _grng_block_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0x6B46)
    cases = []
    # The NumPy reverse path costs ~10 ms a call whatever the size and the
    # gate runs in every process that first dispatches here, so the reverse
    # cases are few and short; tests/property/test_lfsr_bitserial_oracle.py
    # holds the long ones.
    for n_bits, stride, count, rows, reverse in (
        (256, 256, 700, 3, False),  # the paper's GRNG; odd row count
        (256, 256, 150, 3, True),  # literal reverse, un-paired last row
        (256, 256, 1, 1, False),  # degenerate: one value
        (256, 64, 40, 2, False),  # stride narrower than the register
        (256, 512, 40, 2, False),  # stride wider than the register
        (256, 512, 9, 1, True),
        # past the reference path's byte cap: split calls continue one
        # register stream; the C scratch window wraps 70 times per row
        (256, 256, 9000, 8, False),
        # one group of eight vector lanes plus a lone row, two full groups
        (256, 256, 300, 9, False),
        (256, 256, 120, 16, False),
        (128, 128, 300, 3, False),  # std = sqrt(128)/2 is not a power of two
        (128, 64, 24, 2, True),
        (192, 192, 100, 2, False),
        (64, 64, 24, 2, True),  # one-word register (reverse form only)
    ):
        taps = _lfsr_taps(n_bits)
        cases.append(
            {
                "state_words": _random_state_words(rng, rows, n_bits),
                "n_bits": n_bits,
                "offsets": _mirrored(n_bits, taps) if reverse else taps,
                "stride": stride,
                "count": count,
                "reverse": reverse,
                "mean": n_bits / 2.0,
                "std": math.sqrt(n_bits / 4.0),
                "out": np.zeros(
                    (rows, count), dtype=np.int32 if reverse else np.float64
                ),
            }
        )
    return cases


def _check_grng_block(case, expected, got) -> None:
    exp_out, exp_state, exp_last = expected
    got_out, got_state, got_last = got
    if got_out.dtype != exp_out.dtype or got_out.shape != exp_out.shape:
        raise AssertionError(
            f"out is {got_out.dtype}{got_out.shape}, oracle "
            f"{exp_out.dtype}{exp_out.shape}"
        )
    if exp_out.tobytes() != got_out.tobytes():
        raise AssertionError("emitted values are not byte-identical")
    if got_state.dtype != np.uint64 or not np.array_equal(exp_state, got_state):
        raise AssertionError("end-of-block register state differs from the oracle")
    if not np.array_equal(
        np.asarray(exp_last, np.int64), np.asarray(got_last, np.int64)
    ):
        raise AssertionError("last popcounts differ from the oracle")


# -- sample_matmul -----------------------------------------------------
def _sample_matmul_reference(a, b, out):
    # One 2-D matmul per sample: each slice is then byte-identical to the
    # sequential per-sample call (a stacked 3-D matmul may take a different
    # BLAS path and is not guaranteed to round identically).
    shared_a = a.ndim == 2
    for s in range(b.shape[0]):
        np.matmul(a if shared_a else a[s], b[s], out=out[s])
    return out


def _sample_matmul_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xD00D)
    cases = []
    for a_shape, b_shape, dtype in (
        ((3, 4, 5), (3, 5, 2), np.float64),
        ((4, 5), (3, 5, 2), np.float64),  # shared operand broadcast
        ((1, 7, 7), (1, 7, 7), np.float64),  # single sample
        ((2, 4, 0), (2, 0, 3), np.float64),  # degenerate inner dimension
        ((2, 0, 5), (2, 5, 3), np.float64),  # degenerate row count
        ((3, 4, 5), (3, 5, 2), np.float32),
    ):
        a = rng.standard_normal(a_shape).astype(dtype)
        b = rng.standard_normal(b_shape).astype(dtype)
        out = np.empty((b.shape[0], a.shape[-2], b.shape[-1]), dtype=dtype)
        cases.append({"a": a, "b": b, "out": out})
    return cases


def _check_sample_matmul(case, expected, got) -> None:
    if got.dtype != expected.dtype:
        raise AssertionError(f"dtype {got.dtype} != oracle {expected.dtype}")
    if got.shape != expected.shape:
        raise AssertionError(f"shape {got.shape} != oracle {expected.shape}")
    if expected.tobytes() != got.tobytes():
        raise AssertionError("per-sample products are not byte-identical")


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


def _check_same_bytes(expected, got, what: str) -> None:
    if got.dtype != expected.dtype:
        raise AssertionError(f"dtype {got.dtype} != oracle {expected.dtype}")
    if got.shape != expected.shape:
        raise AssertionError(f"shape {got.shape} != oracle {expected.shape}")
    if np.ascontiguousarray(expected).tobytes() != np.ascontiguousarray(got).tobytes():
        raise AssertionError(f"{what} are not byte-identical")


def _check_im2col(case, expected, got) -> None:
    exp_cols, exp_h, exp_w = expected
    got_cols, got_h, got_w = got
    if (got_h, got_w) != (exp_h, exp_w):
        raise AssertionError(f"output size {(got_h, got_w)} != {(exp_h, exp_w)}")
    _check_same_bytes(exp_cols, got_cols, "column matrices")


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


def _check_folded(case, expected, got) -> None:
    _check_same_bytes(expected, got, "folded tensors")


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


def _maxpool2d_forward_reference(x, pool, stride, out=None):
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


def _maxpool2d_forward_native_supports(x, pool, stride, out=None):
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


def _maxpool2d_forward_native(x, pool, stride, out=None):
    if out is None:
        # the results keep x's memory layout, as the NumPy reduce's do
        shape = _pooled_shape(x.shape, pool, stride)
        nhwc = x.strides[1] < x.strides[3]
        empty = partial(_channels_last, np.empty) if nhwc else np.empty
        out = (empty(shape, np.float64), empty(shape, np.int64))
    pooled, argmax = out
    geometry = _geometry(x.shape, x, pool, stride, pooled, argmax)
    native.library.load().conv_maxpool_forward(
        x.ctypes.data, geometry.ctypes.data, pooled.ctypes.data, argmax.ctypes.data
    )
    return pooled, argmax


def _post_relu(rng, shape) -> np.ndarray:
    """Tie-heavy data shaped like a ReLU output, signed zeros included."""
    x = np.maximum(rng.standard_normal(shape), 0.0)
    x[rng.random(shape) < 0.15] = -0.0
    return x


#: (x_shape, pool, stride) of both max-pool gates.
_MAXPOOL_GEOMETRIES = (
    ((3, 4, 8, 8), 2, 2),
    ((2, 3, 9, 10), 2, 3),  # stride > pool: gaps no window covers
    ((2, 3, 7, 7), 3, 2),  # overlapping windows
    ((2, 2, 5, 5), 1, 1),  # degenerate 1x1 window
    ((0, 2, 6, 6), 2, 2),  # degenerate empty batch
)


def _maxpool2d_forward_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0x9001)
    cases = []
    for x_shape, pool, stride in _MAXPOOL_GEOMETRIES:
        x = _post_relu(rng, x_shape)
        shape = _pooled_shape(x_shape, pool, stride)
        cases.append({"x": x, "pool": pool, "stride": stride})
        cases.append(
            {"x": _as_channels_last(x), "pool": pool, "stride": stride,
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


def _check_maxpool2d_forward(case, expected, got) -> None:
    _check_same_bytes(expected[0], got[0], "pooled maxima")
    _check_same_bytes(expected[1], got[1], "argmax maps")


def _maxpool2d_backward_reference(grad_out, argmax, x_shape, pool, stride, out=None):
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
        return grad_input
    batch, channels, _, _ = x_shape
    rows = argmax // pool
    cols = argmax % pool
    base_r = np.arange(out_h)[None, None, :, None] * stride
    base_c = np.arange(out_w)[None, None, None, :] * stride
    abs_r = base_r + rows
    abs_c = base_c + cols
    batch_idx = np.arange(batch)[:, None, None, None]
    chan_idx = np.arange(channels)[None, :, None, None]
    np.add.at(grad_input, (batch_idx, chan_idx, abs_r, abs_c), grad_out)
    return grad_input


def _maxpool2d_backward_native_supports(
    grad_out, argmax, x_shape, pool, stride, out=None
):
    x_shape = tuple(x_shape)
    if not _window_geometry_ok(x_shape, pool, stride, 0):
        return False
    shape = _pooled_shape(x_shape, pool, stride)
    return (
        _strided(grad_out, np.float64, shape)
        and _strided(argmax, np.int64, shape)
        and (out is None or _writable(out, np.float64, x_shape))
    )


def _maxpool2d_backward_native(grad_out, argmax, x_shape, pool, stride, out=None):
    if out is None:
        out = _channels_last(np.empty, x_shape, np.float64)
    geometry = _geometry(tuple(x_shape), grad_out, pool, stride, argmax, out)
    native.library.load().conv_maxpool_backward(
        grad_out.ctypes.data, argmax.ctypes.data, geometry.ctypes.data,
        out.ctypes.data,
    )
    return out


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
# With ``mu_grad=None`` (the distributed tape path) it hands back the two
# per-sample contribution stacks instead of accumulating them.
def _posterior_gc_reference(
    grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
    include_entropy_term, mu_grad, rho_grad,
):
    total_w_grad = grad_weight + kl_weight * prior_nll_grad
    sigma_grad = epsilon * total_w_grad
    if include_entropy_term:
        sigma_grad = sigma_grad - kl_weight / sigma
    rho_stack = sigma_grad * sigmoid_rho
    if mu_grad is None:
        return total_w_grad, rho_stack
    # Per-sample accumulation in sample order: float addition is not
    # associative, and the sequential trainers add one sample at a time.
    for s in range(grad_weight.shape[0]):
        mu_grad += total_w_grad[s]
        rho_grad += rho_stack[s]
    return mu_grad, rho_grad


def _posterior_gc_native_supports(
    grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
    include_entropy_term, mu_grad, rho_grad,
):
    if mu_grad is None or not isinstance(grad_weight, np.ndarray):
        return False  # the tape path records the stacks themselves
    shape = mu_grad.shape
    stacks = grad_weight.shape[:1] + shape
    inputs = [(grad_weight, stacks), (epsilon, stacks), (prior_nll_grad, stacks),
              (sigma, shape), (sigmoid_rho, shape)]
    return (
        isinstance(kl_weight, (float, int))
        and not isinstance(kl_weight, bool)
        and all(
            _strided(a, np.float64, want) and a.flags.c_contiguous
            for a, want in inputs
        )
        and all(
            _writable(a, np.float64, shape) and a.flags.c_contiguous
            for a in (mu_grad, rho_grad)
        )
    )


def _posterior_gc_native(
    grad_weight, epsilon, prior_nll_grad, kl_weight, sigma, sigmoid_rho,
    include_entropy_term, mu_grad, rho_grad,
):
    native.library.load().posterior_gc(
        grad_weight.ctypes.data, epsilon.ctypes.data, prior_nll_grad.ctypes.data,
        sigma.ctypes.data, sigmoid_rho.ctypes.data, grad_weight.shape[0],
        mu_grad.size, float(kl_weight), int(bool(include_entropy_term)),
        mu_grad.ctypes.data, rho_grad.ctypes.data,
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
    for samples, shape, kl_weight, entropy, prefilled, specials in (
        (8, (24, 10), 0.01, True, False, False),  # a dense layer's step
        (3, (4, 2, 3, 3), 0.5, True, True, False),  # conv weights, pre-filled grads
        (1, (7,), 0.0, False, True, False),
        (5, (6, 5), 0, True, False, True),  # kl 0 with the entropy term: -0/sigma
        (4, (9, 3), 1e-3, False, True, True),
    ):
        stack = (samples, *shape)
        case = {
            "grad_weight": rng.standard_normal(stack),
            "epsilon": rng.standard_normal(stack),
            "prior_nll_grad": rng.standard_normal(stack),
            "kl_weight": kl_weight,
            "sigma": np.logaddexp(0.0, rng.standard_normal(shape)),
            "sigmoid_rho": rng.random(shape),
            "include_entropy_term": entropy,
            "mu_grad": rng.standard_normal(shape) if prefilled else np.zeros(shape),
            "rho_grad": np.full(shape, -0.0) if prefilled else np.zeros(shape),
        }
        if specials:
            for value in case.values():
                if isinstance(value, np.ndarray):
                    _plant_specials(rng, value)
        cases.append(case)
    return cases


def _nan_canonical(array: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(array), np.nan, array)


def _check_posterior_gc(case, expected, got) -> None:
    # NaN-ness is checked, NaN payload bits are not: NumPy's own payload
    # depends on whether its SIMD body or its scalar tail met the element
    for exp, out in zip(expected, got):
        _check_same_bytes(_nan_canonical(exp), _nan_canonical(out), "gradients")


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
    ):
        cases.append({"text": text, "offset": offset})
    return cases


def _check_json_dumps_f64(case, expected, got) -> None:
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
            min(len(expected), len(got)),
        )
        raise AssertionError(
            f"JSON text differs from json.dumps at byte {at}: "
            f"{got[at:at + 32]!r} != {expected[at:at + 32]!r}"
        )


def _check_json_loads_f64(case, expected, got) -> None:
    (exp_array, exp_end), (got_array, got_end) = expected, got
    if got_end != exp_end:
        raise AssertionError(f"end {got_end} != oracle {exp_end}")
    _check_same_bytes(exp_array, got_array, "parsed values")


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
            registry.call("sample_matmul", a_blk, b, out_blk)
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
    return registry.call("sample_matmul", a, b, out)


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


def _fused_im2col_reference(x, kernel, stride, padding, splits):
    # Per-request oracle: each batch block is unfolded standalone from a
    # fresh contiguous copy, then the column matrices are stacked.
    splits = _validate_splits(x.shape[0], splits)
    blocks = []
    out_h = out_w = 0
    lo = 0
    for items in splits:
        hi = lo + items
        cols, out_h, out_w = registry.call(
            "im2col", np.ascontiguousarray(x[lo:hi]), kernel, stride, padding
        )
        blocks.append(cols)
        lo = hi
    return np.concatenate(blocks, axis=0), out_h, out_w


def _fused_im2col_fused(x, kernel, stride, padding, splits):
    _validate_splits(x.shape[0], splits)
    return registry.call("im2col", x, kernel, stride, padding)


def _fused_im2col_cases() -> list[dict[str, Any]]:
    rng = np.random.default_rng(0xF0_CAB)
    cases = []
    for x_shape, kernel, stride, padding, splits, dtype in (
        ((6, 2, 6, 6), 3, 1, 1, (1, 1, 1, 1, 1, 1), np.float64),
        ((13, 1, 5, 5), 3, 2, 0, (1, 2, 3, 7), np.float64),
        ((7, 3, 8, 8), 3, 1, 1, (2, 5), np.float64),
        ((5, 2, 4, 4), 2, 2, 0, (5,), np.float64),  # single-block identity
        ((7, 3, 8, 8), 3, 1, 1, (3, 4), np.float32),
    ):
        x = rng.standard_normal(x_shape).astype(dtype)
        cases.append(
            {
                "x": x,
                "kernel": kernel,
                "stride": stride,
                "padding": padding,
                "splits": splits,
            }
        )
    return cases


# ----------------------------------------------------------------------
# registry construction
# ----------------------------------------------------------------------
registry = KernelRegistry()


def _native_available() -> bool:
    # resolved at call time: tests swap ``native.library``
    return native.library.load() is not None


def _register_builtin(reg: KernelRegistry) -> None:
    reg.register_kernel(
        "lfsr_step_block",
        doc="Run `count` packed LFSR recurrence steps per register row; "
        "returns (seq_words, new_state_words).",
        chain=("reference",),
        rows_of=lambda state_words, n_bits, count, offsets, reverse: (
            state_words.shape[0]
        ),
        conformance_cases=_lfsr_step_block_cases,
        check=_check_lfsr_step_block,
    )
    reg.register_backend(
        "lfsr_step_block",
        BackendImpl(
            "reference",
            _lfsr_step_block_reference,
            description="word-aligned leapfrog fill (bitops.run_lfsr_block_packed)",
        ),
    )

    reg.register_kernel(
        "window_popcounts",
        doc="Pattern popcounts after every `stride`-th of `count` shifts, "
        "from the packed bit sequence.",
        chain=("packed_bitcount", "cumsum16", "reference"),
        rows_of=lambda seq_words, n_bits, count, stride: seq_words.shape[0],
        conformance_cases=_window_popcounts_cases,
        check=_check_window_popcounts,
    )
    reg.register_backend(
        "window_popcounts",
        BackendImpl(
            "reference",
            _window_popcounts_reference,
            description="dense per-shift int64 running sum, sliced to the "
            "emitted positions",
        ),
    )
    # The two NumPy fast paths of this chain stay for measured reasons; on the
    # dense int64 reference a 2 MiB sequence chunk peaks at ~280 MiB traced.
    # cumsum16 serves what the compiled grng_block declines -- a /v1/predict
    # `grng_stride` that is not a multiple of 64, an `lfsr_bits` that is not
    # a whole number of words -- at ~19 MiB traced per served sweep instead
    # of ~297 MiB (tests/unit/test_gate_memory.py).
    reg.register_backend(
        "window_popcounts",
        BackendImpl(
            "cumsum16",
            _window_popcounts_cumsum,
            description="unpacked narrow cumsum (int16 at stride 1, int32 "
            "block sums otherwise)",
        ),
    )
    # packed_bitcount keeps the grng_block/native gate's oracle runs at
    # ~4.6 MiB instead of ~276 MiB, in the set-up of every process that
    # dispatches grng_block (same test file).
    reg.register_backend(
        "window_popcounts",
        BackendImpl(
            "packed_bitcount",
            _window_popcounts_packed,
            description="np.bitwise_count on the packed words, windows as "
            "differences of stride-block sums (word-aligned strides only)",
            supports=_window_popcounts_packed_supports,
            available=lambda: hasattr(np, "bitwise_count"),
        ),
    )

    # One backend, like sample_matmul: the dispatch point stays for its
    # counters, which the benchmark's core.kernel.clt_standardise.* metrics
    # read.
    reg.register_kernel(
        "clt_standardise",
        doc="Standardise pattern popcounts to CLT Gaussians: "
        "(popcounts - mean) / std as float64.",
        chain=("reference",),
        rows_of=lambda popcounts, mean, std: int(np.asarray(popcounts).size),
        conformance_cases=_clt_standardise_cases,
        check=_check_clt_standardise,
    )
    reg.register_backend(
        "clt_standardise",
        BackendImpl(
            "reference",
            _clt_standardise_reference,
            description="subtract-then-divide over a fresh array",
        ),
    )
    reg.register_kernel(
        "grng_block",
        doc="One fused GRNG pass per register row: `count` values of "
        "`stride` shifts each -- standardised float64 epsilons (forward) or "
        "int32 popcounts of the earlier patterns (reverse) -- written into "
        "`out`; returns (out, new_state_words, last_popcounts).",
        chain=("native", "reference"),
        rows_of=lambda state_words, *args, **kwargs: state_words.shape[0],
        conformance_cases=_grng_block_cases,
        check=_check_grng_block,
    )
    reg.register_backend(
        "grng_block",
        BackendImpl(
            "reference",
            _grng_block_reference,
            description="lfsr_step_block > window_popcounts > clt_standardise "
            "through the registry, in 2 MiB sequence chunks",
        ),
    )
    reg.register_backend(
        "grng_block",
        BackendImpl(
            "native",
            _grng_block_native,
            description="compiled streaming kernel (core/_grng.c via ctypes): "
            "word-aligned widths and strides, polynomials of up to four taps",
            supports=_grng_block_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "sample_matmul",
        doc="Per-sample 2-D matrix products over a leading Monte-Carlo "
        "sample axis, into a preallocated output.",
        chain=("reference",),
        rows_of=lambda a, b, out: b.shape[0],
        conformance_cases=_sample_matmul_cases,
        check=_check_sample_matmul,
    )
    reg.register_backend(
        "sample_matmul",
        BackendImpl(
            "reference",
            _sample_matmul_reference,
            description="np.matmul loop, one 2-D product per sample",
        ),
    )

    reg.register_kernel(
        "im2col",
        doc="Unfold (N, C, H, W) into the (N*out_h*out_w, C*k*k) column "
        "matrix; returns (cols, out_h, out_w).",
        chain=("native", "reference"),
        rows_of=lambda x, kernel, stride, padding, out=None: x.shape[0],
        conformance_cases=_im2col_cases,
        check=_check_im2col,
    )
    reg.register_backend(
        "im2col",
        BackendImpl(
            "reference",
            _im2col_reference,
            description="per-kernel-position strided slice gather",
        ),
    )
    reg.register_backend(
        "im2col",
        BackendImpl(
            "native",
            _im2col_native,
            description="compiled single-pass gather (core/_conv.c): float64 "
            "through element strides, straight into the column matrix",
            supports=_im2col_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "col2im",
        doc="Fold a (N*out_h*out_w, C*k*k) column matrix back into an NCHW "
        "view of channels-last storage (adjoint of im2col), window "
        "contributions added in (row, col) order.",
        chain=("native", "reference"),
        rows_of=lambda cols, x_shape, kernel, stride, padding, out=None: x_shape[0],
        conformance_cases=_col2im_cases,
        check=_check_folded,
    )
    reg.register_backend(
        "col2im",
        BackendImpl(
            "reference",
            _col2im_reference,
            description="k*k strided `+=` passes over a zeroed padded tensor",
        ),
    )
    reg.register_backend(
        "col2im",
        BackendImpl(
            "native",
            _col2im_native,
            description="compiled single-pass gather (core/_conv.c): each "
            "element sums its windows once, no padded buffer, no zero fill",
            supports=_col2im_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "maxpool2d_forward",
        doc="Max pooling over (N, C, H, W); returns (pooled, argmax) with the "
        "first window position winning ties and NaN treated as np.argmax "
        "does.",
        chain=("native", "reference"),
        rows_of=lambda x, pool, stride, out=None: x.shape[0],
        conformance_cases=_maxpool2d_forward_cases,
        check=_check_maxpool2d_forward,
    )
    reg.register_backend(
        "maxpool2d_forward",
        BackendImpl(
            "reference",
            _maxpool2d_forward_reference,
            description="running pairwise `>` over the pool**2 strided window "
            "views (gathered-window argmax when a NaN is present)",
        ),
    )
    reg.register_backend(
        "maxpool2d_forward",
        BackendImpl(
            "native",
            _maxpool2d_forward_native,
            description="compiled single pass (core/_conv.c): maximum, argmax "
            "and the NaN rule inline, no isnan pre-pass",
            supports=_maxpool2d_forward_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "maxpool2d_backward",
        doc="Scatter the pooled gradient back to the argmax positions of an "
        "NCHW view of channels-last storage, accumulated into +0.0.",
        chain=("native", "reference"),
        rows_of=lambda grad_out, argmax, x_shape, pool, stride, out=None: (
            grad_out.shape[0]
        ),
        conformance_cases=_maxpool2d_backward_cases,
        check=_check_folded,
    )
    reg.register_backend(
        "maxpool2d_backward",
        BackendImpl(
            "reference",
            _maxpool2d_backward_reference,
            description="pool**2 masked writes (np.add.at when windows overlap)",
        ),
    )
    reg.register_backend(
        "maxpool2d_backward",
        BackendImpl(
            "native",
            _maxpool2d_backward_native,
            description="compiled zero fill + `+=` scatter (core/_conv.c), "
            "overlapping windows included",
            supports=_maxpool2d_backward_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "posterior_gc",
        doc="GC stage of a Gaussian posterior: fold (S, *shape) sample "
        "gradients into mu_grad / rho_grad in sample order (or, with "
        "mu_grad=None, return the two per-sample contribution stacks).",
        chain=("native", "reference"),
        rows_of=lambda grad_weight, *args, **kwargs: grad_weight.shape[0],
        conformance_cases=_posterior_gc_cases,
        check=_check_posterior_gc,
    )
    reg.register_backend(
        "posterior_gc",
        BackendImpl(
            "reference",
            _posterior_gc_reference,
            description="NumPy passes over the (S, *shape) stacks, then S "
            "in-place row adds per gradient",
        ),
    )
    reg.register_backend(
        "posterior_gc",
        BackendImpl(
            "native",
            _posterior_gc_native,
            description="compiled one-pass loop (core/_gc.c): the reference's "
            "IEEE operations in its operand order, float64 C-contiguous only",
            supports=_posterior_gc_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "json_dumps_f64",
        doc="json.dumps(array.tolist()).encode(): float64 values as repr "
        "writes them, nested as json.dumps nests lists.",
        chain=("native", "reference"),
        rows_of=lambda array: len(array) if np.ndim(array) else 1,
        conformance_cases=_json_dumps_f64_cases,
        check=_check_json_dumps_f64,
    )
    reg.register_backend(
        "json_dumps_f64",
        BackendImpl(
            "reference",
            _json_dumps_f64_reference,
            description="tolist() then the stdlib json encoder (repr per float)",
        ),
    )
    reg.register_backend(
        "json_dumps_f64",
        BackendImpl(
            "native",
            _json_dumps_f64_native,
            description="compiled Ryu shortest digits in repr's layout "
            "(core/_json.c), C-contiguous float64 only",
            supports=_json_dumps_f64_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "json_loads_f64",
        doc="Parse the JSON array at text[offset] (ASCII bytes) into float64: "
        "returns (array, end) as JSONDecoder.raw_decode + np.asarray would.",
        chain=("native", "reference"),
        rows_of=lambda text, offset: 1,
        conformance_cases=_json_loads_f64_cases,
        check=_check_json_loads_f64,
    )
    reg.register_backend(
        "json_loads_f64",
        BackendImpl(
            "reference",
            _json_loads_f64_reference,
            description="JSONDecoder.raw_decode, then np.asarray(..., float64)",
        ),
    )
    reg.register_backend(
        "json_loads_f64",
        BackendImpl(
            "native",
            _json_loads_f64_native,
            description="compiled parse of rectangular number arrays "
            "(core/_json.c, strtod_l in the C locale); declined documents "
            "go to the reference",
            supports=_json_loads_f64_native_supports,
            available=_native_available,
        ),
    )

    reg.register_kernel(
        "fused_sample_matmul",
        doc="Per-sample matmul over a tile of concatenated requests "
        "(row `splits`); the reference recomputes each request block "
        "standalone, so fusing is correct only where the conformance gate "
        "-- the runtime row-stability probe -- proves the folded GEMM "
        "byte-identical.",
        chain=("fused", "reference"),
        rows_of=lambda a, b, out, splits, trans_b=False: out.shape[-2],
        conformance_cases=_fused_sample_matmul_cases,
        check=_check_sample_matmul,
    )
    reg.register_backend(
        "fused_sample_matmul",
        BackendImpl(
            "reference",
            _fused_sample_matmul_reference,
            description="per-request blocks from fresh contiguous operands "
            "(the unfused serving path, by construction)",
        ),
    )
    reg.register_backend(
        "fused_sample_matmul",
        BackendImpl(
            "fused",
            _fused_sample_matmul_fused,
            description="one whole-tile GEMM per sample; supports() consults "
            "the RowStabilityProbe per (kind, dtype, K, N, splits) class",
            supports=_fused_sample_matmul_supports,
        ),
    )

    reg.register_kernel(
        "fused_im2col",
        doc="im2col over a tile of concatenated requests (batch `splits`); "
        "the reference unfolds each request block standalone and stacks "
        "the column matrices.",
        chain=("fused", "reference"),
        rows_of=lambda x, kernel, stride, padding, splits: x.shape[0],
        conformance_cases=_fused_im2col_cases,
        check=_check_im2col,
    )
    reg.register_backend(
        "fused_im2col",
        BackendImpl(
            "reference",
            _fused_im2col_reference,
            description="per-request unfold from fresh contiguous blocks, "
            "rows stacked",
        ),
    )
    reg.register_backend(
        "fused_im2col",
        BackendImpl(
            "fused",
            _fused_im2col_fused,
            description="whole-tile unfold (pure data movement; the gate "
            "proves the stacking property)",
        ),
    )


_register_builtin(registry)
registry.load_env()

# Fork safety (the serve worker pool and the distributed coordinator both
# prefer fork-start workers): the registry lock is taken on every kernel call
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
def dispatch(kernel: str) -> Callable[..., Any]:
    """A callable for ``kernel`` that re-resolves its backend on every call."""
    return registry.dispatch(kernel)


def set_backend(kernel: str, backend: str | None) -> None:
    """Force ``kernel`` onto ``backend`` (``None`` restores the default chain)."""
    registry.set_backend(kernel, backend)


def using(kernel: str, backend: str | None):
    """Context manager temporarily forcing a backend."""
    return registry.using(kernel, backend)


def current_selection() -> dict[str, str]:
    """The explicitly forced ``{kernel: backend}`` choices."""
    return registry.current_selection()


def apply_selection(selection: Mapping[str, str]) -> None:
    """Replace the forced choices wholesale (used by replica rebuilds)."""
    registry.apply_selection(selection)


def counters_snapshot() -> dict[str, dict[str, dict[str, int]]]:
    """Per-(kernel, backend) call/row counters for backends that ran."""
    return registry.counters_snapshot()


def reset_counters() -> None:
    """Zero the per-backend call/row counters."""
    registry.reset_counters()


def stats_snapshot() -> dict[str, dict[str, Any]]:
    """Selection plus counters per kernel (feeds ``ServerStats``)."""
    return registry.stats_snapshot()


def list_backends() -> list[dict[str, Any]]:
    """Registry contents: kernels, chains, backend availability/conformance."""
    return registry.list_backends()


def kernel_names() -> tuple[str, ...]:
    """The registered dispatch-point names."""
    return registry.kernel_names()


def verify_backend(kernel: str, backend: str) -> bool:
    """Run the conformance gate now; raise on mismatch or unavailability."""
    return registry.verify_backend(kernel, backend)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: inspect the registry and run conformance gates on demand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.backend",
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


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
