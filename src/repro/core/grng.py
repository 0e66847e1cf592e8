"""Gaussian random number generation from LFSR patterns.

The Shift-BNN accelerator (like VIBNN before it) synthesises Gaussian random
variables from uniformly-distributed LFSR bits using the Central Limit
Theorem: the number of ones among ``n`` independent fair bits follows
``B(n, 0.5)``, which approximates ``N(0.5 n, 0.25 n)`` for large ``n``.  The
paper's GRNG tracks the pattern bit-sum incrementally (adding the head-bit
update and subtracting the dropped bit) instead of re-counting with an adder
tree.

:class:`LfsrGaussianRNG` models that unit: it owns one
:class:`~repro.core.lfsr.FibonacciLFSR`, converts pattern popcounts into
standardised Gaussian variables, and supports the three operating modes the
paper describes (forward, reverse, idle).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .backend import clt_standardise
from .lfsr import FibonacciLFSR

__all__ = ["GRNGMode", "LfsrGaussianRNG"]


class GRNGMode(Enum):
    """Operating modes of the GRNG (Section 6.2 of the paper)."""

    FORWARD = "forward"
    REVERSE = "reverse"
    IDLE = "idle"


class LfsrGaussianRNG:
    """CLT-based Gaussian random number generator over a Fibonacci LFSR.

    Each generated variable corresponds to one LFSR pattern: the register is
    shifted once, the pattern's bit-sum is updated incrementally, and the sum
    is standardised to ``eps = (sum - n/2) / sqrt(n/4)`` so that ``eps`` is
    approximately ``N(0, 1)``.

    Parameters
    ----------
    n_bits:
        LFSR width; the paper uses 256-bit registers.
    seed_index:
        Deterministic seed selector; distinct GRNG instances (one per PE slice
        in the hardware, one per Monte-Carlo sample in the software trainer)
        should use distinct indices.
    taps:
        Optional explicit tap positions forwarded to the LFSR.
    stride:
        Number of register shifts per emitted variable.  ``1`` matches the
        hardware exactly (one pattern per weight) but makes consecutive
        variables a slow random walk because neighbouring patterns share
        ``n_bits - 1`` bits.  ``n_bits`` uses non-overlapping patterns and
        yields effectively independent variables; the functional BNN trainer
        defaults to that mode.  LFSR reversal retrieves the identical values
        for any stride.
    """

    def __init__(
        self,
        n_bits: int = 256,
        seed_index: int = 0,
        taps: tuple[int, ...] | None = None,
        stride: int = 1,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be at least 1 shift per variable")
        self._lfsr = FibonacciLFSR.from_seed_index(n_bits, seed_index, taps=taps)
        self._n = n_bits
        self._stride = stride
        self._mean = n_bits / 2.0
        self._std = math.sqrt(n_bits / 4.0)
        self._mode = GRNGMode.IDLE
        # The hardware keeps the running bit-sum in a register seeded with the
        # popcount of the initial pattern; we model the same register.
        self._sum_register = self._lfsr.popcount
        self._generated = 0
        self._retrieved = 0

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def lfsr(self) -> FibonacciLFSR:
        """The underlying shift register (exposed for tests and checkpoints)."""
        return self._lfsr

    @property
    def n_bits(self) -> int:
        """Width of the LFSR pattern used per Gaussian variable."""
        return self._n

    @property
    def mode(self) -> GRNGMode:
        """Current operating mode (forward / reverse / idle)."""
        return self._mode

    @property
    def resolution(self) -> float:
        """Smallest representable step between two Gaussian values."""
        return 1.0 / self._std

    @property
    def stride(self) -> int:
        """Register shifts performed per emitted variable."""
        return self._stride

    @property
    def generated_count(self) -> int:
        """Number of variables produced in forward mode."""
        return self._generated

    @property
    def retrieved_count(self) -> int:
        """Number of variables retrieved in reverse mode."""
        return self._retrieved

    @property
    def sum_register(self) -> int:
        """The running pattern bit-sum register (the hardware accumulator)."""
        return self._sum_register

    @sum_register.setter
    def sum_register(self, value: int) -> None:
        self._sum_register = int(value)

    # ------------------------------------------------------------------
    # mode control
    # ------------------------------------------------------------------
    def set_mode(self, mode: GRNGMode) -> None:
        """Switch the operating mode (models the controller's mode signal)."""
        if not isinstance(mode, GRNGMode):
            raise TypeError(f"expected GRNGMode, got {type(mode).__name__}")
        self._mode = mode

    # ------------------------------------------------------------------
    # scalar (hardware-faithful) interface
    # ------------------------------------------------------------------
    def _standardise(self, popcount: float | np.ndarray) -> float | np.ndarray:
        return clt_standardise(popcount, self._mean, self._std)

    def next_epsilon(self) -> float:
        """Generate one Gaussian variable by ``stride`` forward shifts."""
        if self._mode is not GRNGMode.FORWARD:
            self._mode = GRNGMode.FORWARD
        for _ in range(self._stride):
            before_tail = (self._lfsr.state >> (self._n - 1)) & 1
            head = self._lfsr.shift_forward()
            # Incremental bit-update: the sum changes by (new head - dropped tail).
            self._sum_register += head - before_tail
        self._generated += 1
        return float(self._standardise(self._sum_register))

    def previous_epsilon(self) -> float:
        """Retrieve the most recent Gaussian variable by ``stride`` reverse shifts.

        The value returned equals the one :meth:`next_epsilon` produced for
        that pattern; the register is left ``stride`` patterns earlier.
        """
        if self._mode is not GRNGMode.REVERSE:
            self._mode = GRNGMode.REVERSE
        current = float(self._standardise(self._sum_register))
        for _ in range(self._stride):
            head_before = self._lfsr.state & 1
            tail = self._lfsr.shift_reverse()
            self._sum_register += tail - head_before
        self._retrieved += 1
        return current

    # ------------------------------------------------------------------
    # block (vectorised) interface
    # ------------------------------------------------------------------
    def epsilon_block(self, count: int) -> np.ndarray:
        """Generate ``count`` Gaussian variables with vectorised shifting.

        Equivalent to ``count`` calls to :meth:`next_epsilon` but orders of
        magnitude faster; used by the software training substrate.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        self._mode = GRNGMode.FORWARD
        popcounts = self._lfsr.window_popcounts(count * self._stride)
        self._sum_register = int(popcounts[-1])
        self._generated += count
        emitted = popcounts[self._stride - 1 :: self._stride]
        return self._standardise(emitted.astype(np.float64))

    def epsilon_block_reverse(self, count: int) -> np.ndarray:
        """Retrieve the previous ``count`` Gaussian variables (newest first).

        ``epsilon_block_reverse(k)`` returns exactly
        ``epsilon_block(k)[::-1]`` for the block that was generated last, and
        leaves the register where it was before that block was generated.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return np.zeros(0, dtype=np.float64)
        self._mode = GRNGMode.REVERSE
        # The current pattern's value is emitted first, then the register steps
        # back; vectorise by recovering the dropped tail bits in one pass.
        n = self._n
        steps = count * self._stride
        head_bits = self._lfsr.state_bits().astype(np.int64)  # R1..Rn, current
        current_sum = self._sum_register
        recovered = self._lfsr.generate_bits_reverse(steps).astype(np.int64)
        # Stepping back from pattern t to t-1 changes the sum by
        # (recovered tail of t-1) - (head of t).  Heads of successive earlier
        # patterns are the register contents R1, R2, ... of the current one,
        # continuing into the recovered tail stream once the window is exceeded.
        heads = np.empty(steps, dtype=np.int64)
        limit = min(steps, n)
        heads[:limit] = head_bits[:limit]
        if steps > n:
            heads[n:] = recovered[: steps - n]
        delta = np.cumsum(recovered - heads)
        sums = np.empty(steps, dtype=np.int64)
        sums[0] = current_sum
        if steps > 1:
            sums[1:] = current_sum + delta[:-1]
        self._sum_register = int(current_sum + delta[-1])
        self._retrieved += count
        emitted = sums[:: self._stride]
        return self._standardise(emitted.astype(np.float64))

    def resync_sum_register(self) -> None:
        """Reload the running bit-sum from the current pattern.

        Needed after the register state is overwritten externally (e.g. when a
        stream restores its forward frontier).
        """
        self._sum_register = self._lfsr.popcount

    # ------------------------------------------------------------------
    # copying and diagnostics
    # ------------------------------------------------------------------
    def copy(self) -> "LfsrGaussianRNG":
        """Return an independent generator with identical state and counters.

        All scalar attributes are carried over wholesale (so newly added
        fields can never silently desync) and the underlying LFSR is cloned.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone._lfsr = self._lfsr.copy()
        return clone

    def distribution_summary(self, count: int = 4096) -> dict[str, float]:
        """Generate ``count`` variables from a copy and summarise their moments.

        Used by tests and by the GRNG-width ablation; the generator itself is
        not advanced.
        """
        samples = self.copy().epsilon_block(count)
        return {
            "mean": float(np.mean(samples)),
            "std": float(np.std(samples)),
            "skew": float(_skewness(samples)),
            "min": float(np.min(samples)),
            "max": float(np.max(samples)),
        }

    def __repr__(self) -> str:
        return (
            f"LfsrGaussianRNG(n_bits={self._n}, mode={self._mode.value}, "
            f"generated={self._generated}, retrieved={self._retrieved})"
        )


def _skewness(samples: np.ndarray) -> float:
    centred = samples - samples.mean()
    std = samples.std()
    if std == 0:
        return 0.0
    return float(np.mean(centred**3) / std**3)
