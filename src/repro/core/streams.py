"""Epsilon stream policies: store-and-fetch (baseline) vs. LFSR retrieval.

BNN training needs every Gaussian random variable ``eps`` twice: once in the
forward stage to sample ``w = mu + eps * sigma`` and once during the backward /
gradient-calculation stages to reconstruct the weight and to form the gradient
of ``sigma``.  How the second use is served is the whole difference between the
baseline accelerators and Shift-BNN:

* :class:`StoredGaussianStream` materialises every generated block and serves
  retrievals from that store -- the software analogue of spilling ``eps`` to
  DRAM (the dominant traffic source the paper measures in Fig. 3).
* :class:`ReversibleGaussianStream` stores nothing but the LFSR state; blocks
  are regenerated on retrieval by rewinding the LFSR, exactly reproducing the
  forward values.

Both classes implement the same :class:`EpsilonStream` interface and keep byte
accounting so that functional training runs can report the traffic that each
policy would have induced.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .grng_bank import BankedGaussianRNG

__all__ = [
    "EpsilonStream",
    "StreamUsage",
    "StoredGaussianStream",
    "ReversibleGaussianStream",
    "StreamOrderError",
]


class StreamOrderError(RuntimeError):
    """Raised when blocks are retrieved in an order the policy cannot serve."""


@dataclass
class StreamUsage:
    """Book-keeping of a stream's traffic, in epsilon counts and bytes.

    ``bytes_per_value`` follows the accelerator's 16-bit fixed-point datapath
    by default so that functional runs and the analytic simulator agree on
    volumes.
    """

    bytes_per_value: int = 2
    generated_values: int = 0
    retrieved_values: int = 0
    stored_values_peak: int = 0
    stored_values_current: int = 0

    def record_generate(self, count: int) -> None:
        self.generated_values += count

    def record_retrieve(self, count: int) -> None:
        self.retrieved_values += count

    def record_store(self, count: int) -> None:
        self.stored_values_current += count
        self.stored_values_peak = max(self.stored_values_peak, self.stored_values_current)

    def record_release(self, count: int) -> None:
        self.stored_values_current = max(0, self.stored_values_current - count)

    # ------------------------------------------------------------------
    # state capture (distributed per-step deltas and training checkpoints)
    # ------------------------------------------------------------------
    _COUNTER_FIELDS = (
        "generated_values",
        "retrieved_values",
        "stored_values_peak",
        "stored_values_current",
    )

    def reset(self) -> None:
        """Zero every counter (``bytes_per_value`` is configuration, not state).

        The distributed workers reset their shard streams' usage at each step
        boundary so the counters they ship back are pure per-step deltas.
        """
        for name in self._COUNTER_FIELDS:
            setattr(self, name, 0)

    def state_dict(self) -> dict[str, int]:
        """All counters as a plain dict (checkpoint / wire format)."""
        state = {name: int(getattr(self, name)) for name in self._COUNTER_FIELDS}
        state["bytes_per_value"] = self.bytes_per_value
        return state

    def load_state_dict(self, state: dict[str, int]) -> None:
        """Restore counters captured by :meth:`state_dict` (exact, in place).

        Keys this record does not count are ignored, so training
        checkpoints that carry counters of older versions still load.
        """
        for name in self._COUNTER_FIELDS:
            setattr(self, name, int(state[name]))

    def merge_delta(self, delta: dict[str, int]) -> None:
        """Fold one iteration's per-step delta counters into this record.

        Valid at iteration boundaries, where ``stored_values_current`` has
        returned to zero: the additive counters sum and the peaks take the
        running maximum, which reproduces exactly the evolution a
        single-process run's counters would have followed.
        """
        self.generated_values += int(delta["generated_values"])
        self.retrieved_values += int(delta["retrieved_values"])
        self.stored_values_current += int(delta["stored_values_current"])
        self.stored_values_peak = max(
            self.stored_values_peak, int(delta["stored_values_peak"])
        )

    @property
    def offchip_write_bytes(self) -> int:
        """Bytes written to backing storage for later reuse."""
        return self.stored_values_peak * self.bytes_per_value

    @property
    def offchip_read_bytes(self) -> int:
        """Bytes read back from backing storage."""
        return self.retrieved_values * self.bytes_per_value if self.stored_values_peak else 0

    @property
    def footprint_bytes(self) -> int:
        """Peak memory footprint attributable to epsilon storage.

        The high-water mark of stored values, not the momentary count: a
        completed iteration releases every block, but the storage the policy
        had to provision is the peak.  Zero under LFSR reversal, as in the
        analytic footprint model.
        """
        return self.stored_values_peak * self.bytes_per_value


class EpsilonStream(abc.ABC):
    """Common interface of the two epsilon-management policies.

    The forward pass calls :meth:`forward_block` once per layer (per sample);
    the backward pass calls :meth:`retrieve_block` for the same layers in the
    reverse order, passing the same shapes.  Implementations must return, for
    each retrieval, exactly the array that the matching forward call returned.
    """

    def __init__(self, grng: "BankedGaussianRNG", bytes_per_value: int = 2) -> None:
        self._grng = grng
        self.usage = StreamUsage(bytes_per_value=bytes_per_value)

    @property
    def grng(self) -> "BankedGaussianRNG":
        """The Gaussian generator backing this stream."""
        return self._grng

    @abc.abstractmethod
    def forward_block(self, shape: tuple[int, ...]) -> np.ndarray:
        """Generate a block of epsilons of ``shape`` for the forward stage."""

    @abc.abstractmethod
    def retrieve_block(self, shape: tuple[int, ...]) -> np.ndarray:
        """Return the epsilon block of the most recent un-retrieved layer."""

    @abc.abstractmethod
    def reset_epoch(self) -> None:
        """Prepare the stream for the next training iteration."""

    @staticmethod
    def _block_size(shape: tuple[int, ...]) -> int:
        size = 1
        for dim in shape:
            if dim <= 0:
                raise ValueError(f"block shape must be positive, got {shape}")
            size *= int(dim)
        return size


class StoredGaussianStream(EpsilonStream):
    """Baseline policy: keep every generated block until it is consumed.

    This is what a conventional training accelerator (or a GPU) has to do:
    epsilons cannot be recomputed, so they are written out after the forward
    stage and read back during backward / gradient calculation.  The stored
    blocks live in a LIFO because backpropagation walks the layers in reverse.
    """

    def __init__(self, grng: "BankedGaussianRNG", bytes_per_value: int = 2) -> None:
        super().__init__(grng, bytes_per_value)
        self._blocks: list[np.ndarray] = []

    def forward_block(self, shape: tuple[int, ...]) -> np.ndarray:
        count = self._block_size(shape)
        values = self._grng.epsilon_block(count).reshape(shape)
        self._blocks.append(values)
        self.usage.record_generate(count)
        self.usage.record_store(count)
        return values

    def retrieve_block(self, shape: tuple[int, ...]) -> np.ndarray:
        if not self._blocks:
            raise StreamOrderError("no stored epsilon block left to retrieve")
        block = self._blocks[-1]
        if block.shape != tuple(shape):
            raise StreamOrderError(
                f"retrieval shape {tuple(shape)} does not match stored block "
                f"shape {block.shape}; backward order must mirror forward order"
            )
        self._blocks.pop()  # only once checked: a refused retrieval keeps it
        self.usage.record_retrieve(block.size)
        self.usage.record_release(block.size)
        return block

    def reset_epoch(self) -> None:
        if self._blocks:
            raise StreamOrderError(
                f"{len(self._blocks)} stored epsilon block(s) were never retrieved"
            )

    @property
    def pending_blocks(self) -> int:
        """Number of generated blocks not yet consumed by the backward pass."""
        return len(self._blocks)


class ReversibleGaussianStream(EpsilonStream):
    """Shift-BNN policy: regenerate blocks by rewinding the LFSR.

    Nothing but the LFSR register (and, per outstanding layer, a block-size
    counter) is kept between the forward and backward stages.  Retrieval
    rewinds the register with the generator's ``epsilon_block_reverse`` (a
    jump back and a forward replay of the bank row) and reproduces the
    forward values bit exactly because the LFSR recurrence is reversible.  A
    retrieval must start on the register the stream last left; anything
    else means the register was written outside the stream.
    """

    def __init__(self, grng: "BankedGaussianRNG", bytes_per_value: int = 2) -> None:
        super().__init__(grng, bytes_per_value)
        self._pending: list[_BlockRecord] = []
        # The farthest pattern the forward stage reached.  After the backward
        # stage has rewound the register, this pattern is restored so the next
        # iteration draws *fresh* variables -- exactly what the baseline's
        # free-running LFSR does.  In hardware this is one extra n-bit register
        # per GRNG, not an off-chip store.
        self._resume_state: int | None = None
        # The register the stream last left, where the next retrieval starts.
        self._position: int | None = None

    def forward_block(self, shape: tuple[int, ...]) -> np.ndarray:
        count = self._block_size(shape)
        values = self._grng.epsilon_block(count).reshape(shape)
        self._pending.append(_BlockRecord(shape=tuple(shape), count=count))
        self._resume_state = self._position = self._grng.lfsr.state
        self.usage.record_generate(count)
        return values

    def retrieve_block(self, shape: tuple[int, ...]) -> np.ndarray:
        if not self._pending:
            raise StreamOrderError("no outstanding epsilon block to retrieve")
        record = self._pending[-1]
        if record.shape != tuple(shape):
            raise StreamOrderError(
                f"retrieval shape {tuple(shape)} does not match outstanding block "
                f"shape {record.shape}; backward order must mirror forward order"
            )
        if self._grng.lfsr.state != self._position:
            raise StreamOrderError(
                "the register is not where the stream left it; it was "
                "modified outside the stream"
            )
        self._pending.pop()  # only once checked: a refused retrieval keeps it
        reversed_values = self._grng.epsilon_block_reverse(record.count)
        self._position = self._grng.lfsr.state
        self.usage.record_retrieve(record.count)
        # Reverse shifting yields the block newest-value-first; restore the
        # generation order so callers see exactly the forward block.
        return reversed_values[::-1].reshape(record.shape)

    def reset_epoch(self) -> None:
        if self._pending:
            raise StreamOrderError(
                f"{len(self._pending)} epsilon block(s) were never retrieved"
            )
        if self._resume_state is not None:
            # Resume from the farthest pattern of the forward stage so the next
            # iteration's epsilons are fresh and identical to the stored-policy
            # baseline's.
            self._grng.lfsr.state = self._resume_state
            self._grng.resync_sum_register()
            self._resume_state = None

    @property
    def pending_blocks(self) -> int:
        """Number of generated blocks not yet regenerated by the backward pass."""
        return len(self._pending)


@dataclass(frozen=True)
class _BlockRecord:
    """Metadata of one outstanding forward block (no epsilon values!)."""

    shape: tuple[int, ...]
    count: int
