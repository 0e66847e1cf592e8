"""Per-sample gradient capture for the distributed training engine.

The GC stage accumulates every parameter's gradient **one Monte-Carlo sample
at a time, in sample order** (float addition is not associative, and the
sequential trainers add one sample at a time -- see
:meth:`~repro.bnn.posteriors.GaussianPosterior.accumulate_sample_gradients`
and the bias loops in :mod:`repro.bnn.bayes_layers`).  That discipline is
what lets the batched engine stay on the sequential trajectory bit for bit;
it is also exactly what makes data-parallel training reducible without
losing bit-exactness: if a worker captures the *individual* per-sample
contributions instead of its shard's partial sum, the coordinator can replay
``param.grad += contribution[s]`` in canonical sample order across all
shards and obtain the identical left-to-right sum the single-process run
computes.  (Shard-level partial sums would not reduce exactly:
``(c0 + c1) + (c2 + c3)`` rounds differently from ``((c0 + c1) + c2) + c3``.)

A :class:`SampleGradientTape` is installed as a context manager around one
FW/BW/GC pass.  While active, the accumulation sites *record* each
parameter's ``(S, *shape)`` contribution stack on the tape instead of adding
it into ``param.grad``; the shard's parameter gradients are then reduced by
whoever owns the canonical sample order (the distributed coordinator).
"""

from __future__ import annotations

import numpy as np

__all__ = ["SampleGradientTape", "active_tape"]

#: The currently-installed tape (module-level: the FW/BW/GC pass of one step
#: is single-threaded and the accumulation call sites are deep inside layer
#: code, so threading a handle through every signature would buy nothing).
_ACTIVE: list["SampleGradientTape"] = []


def active_tape() -> "SampleGradientTape | None":
    """The innermost active tape, or ``None`` when gradients accumulate normally."""
    return _ACTIVE[-1] if _ACTIVE else None


class SampleGradientTape:
    """Records per-parameter, per-sample gradient contribution stacks.

    While the tape is active (used as a context manager), the GC-stage
    accumulation sites call :meth:`record` with the ``(S, *shape)`` stack of
    contributions that would otherwise have been added into ``param.grad``
    sample by sample -- and skip the accumulation.  After the pass,
    :attr:`contributions` maps parameter name to its stack; slice ``[s]`` is
    bit-for-bit the array the sequential trainer would have added for
    Monte-Carlo sample ``s``.
    """

    def __init__(self) -> None:
        self.contributions: dict[str, np.ndarray] = {}

    def destination(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Float64 memory to write ``name``'s stack into before recording it."""
        return np.empty(shape)

    def record(self, name: str, stack: np.ndarray) -> None:
        """Store the ``(S, *shape)`` contribution stack of parameter ``name``."""
        if name in self.contributions:
            raise ValueError(
                f"parameter {name!r} was recorded twice in one pass; "
                "parameter names must be unique per step"
            )
        self.contributions[name] = np.asarray(stack)

    def __enter__(self) -> "SampleGradientTape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.pop()
