"""Epsilon traffic accounting and the retrieval-order error.

BNN training needs every Gaussian random variable ``eps`` twice: once in the
forward stage to sample ``w = mu + eps * sigma`` and once during the backward /
gradient-calculation stages to reconstruct the weight and to form the gradient
of ``sigma``.  How the second use is served is the whole difference between the
baseline accelerators and Shift-BNN: the ``"stored"`` policy keeps every
generated block until the backward pass reads it back -- the software analogue
of spilling ``eps`` to DRAM (the dominant traffic source the paper measures in
Fig. 3) -- while the ``"reversible"`` policy keeps nothing and regenerates the
block from the LFSR.  Both policies live in
:class:`~repro.core.sampler.BatchedWeightSampler`; this module holds what they
report:

* :class:`StreamUsage` -- one sample's traffic, in epsilon counts and bytes,
  so functional training runs can report what each policy would have moved;
* :class:`StreamOrderError` -- a retrieval the policy cannot serve.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StreamUsage", "StreamOrderError"]


class StreamOrderError(RuntimeError):
    """Raised when blocks are retrieved in an order the policy cannot serve."""


@dataclass
class StreamUsage:
    """Book-keeping of one sample's epsilon traffic, in counts and bytes.

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

        The distributed workers reset their shard banks' usage at each step
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
