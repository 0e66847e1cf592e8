"""Gradient-descent optimisers operating on :class:`~repro.nn.layers.Parameter`.

An optimiser packs its parameters into a :class:`ParameterArena`: one
float64 buffer per role (values, gradients, each optimiser slot) in
parameter order, so an update is a fixed handful of ufuncs over whole
buffers.  Each writes into scratch allocated once, and every element sees
the IEEE operations of the textbook per-tensor update in the same order,
so the bytes equal that loop's.
"""

from __future__ import annotations

import itertools

import numpy as np

from .layers import Parameter

__all__ = ["ParameterArena", "Optimizer", "SGD", "Adam"]

_generations = itertools.count()


class ParameterArena:
    """Parameters packed into one float64 buffer per role.

    ``value`` and ``grad`` are flat buffers in ``parameters`` order; each
    parameter's ``.value`` and ``.grad`` become views into them and its
    ``.arena`` names this arena.  The value views are read-only.  Only the
    arena's writers change values -- an optimiser step (which writes
    ``value`` directly) and :meth:`assign` -- and each calls :meth:`touch`,
    which moves :attr:`generation` on.  Whatever is derived from the values
    (a posterior's sigma pin) keys on the generation.  Generations are
    unique across arenas, so a key from another arena never matches.
    """

    def __init__(self, parameters: list[Parameter]) -> None:
        self.parameters = list(parameters)
        if len({id(param) for param in self.parameters}) != len(self.parameters):
            raise ValueError("a parameter appears twice")
        for param in self.parameters:
            if param.value.dtype != np.float64:
                raise ValueError(f"{param.name} is {param.value.dtype}, not float64")
        ends = np.cumsum([0] + [param.value.size for param in self.parameters])
        self._bounds = list(zip(ends[:-1], ends[1:]))
        self.value = np.empty(ends[-1])
        self.grad = np.empty_like(self.value)
        self._writable: dict[int, np.ndarray] = {}
        views = zip(self.parameters, self.split(self.value), self.split(self.grad))
        for param, value, grad in views:
            value[...] = param.value
            grad[...] = param.grad
            self._writable[id(param)] = value
            param.value, param.grad, param.arena = value.view(), grad, self
            param.value.flags.writeable = False
        self.touch()

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views of a flat buffer laid out like :attr:`value`."""
        return [
            flat[start:stop].reshape(param.value.shape)
            for param, (start, stop) in zip(self.parameters, self._bounds)
        ]

    def touch(self) -> None:
        """Record a write to :attr:`value`: a new :attr:`generation`."""
        self.generation = next(_generations)

    def assign(self, param: Parameter, value: np.ndarray) -> None:
        """Overwrite one parameter's value: the writer for checkpoint and
        state loads (:meth:`Parameter.assign` lands here)."""
        self._writable[id(param)][...] = value
        self.touch()


class Optimizer:
    """Base optimiser: owns a parameter list and applies updates in place."""

    def __init__(
        self, parameters: list[Parameter], learning_rate: float, weight_decay: float = 0.0
    ) -> None:
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not parameters:
            raise ValueError("optimizer needs at least one parameter")
        self.arena = ParameterArena(parameters)
        self.parameters = self.arena.parameters
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self._decayed = np.empty_like(self.arena.value) if weight_decay else None

    def zero_grad(self) -> None:
        """Clear every parameter's accumulated gradient."""
        self.arena.grad.fill(0.0)

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        arena = self.arena
        if any(param.arena is not arena for param in self.parameters):
            raise RuntimeError("another optimizer has taken over these parameters")
        grad = arena.grad
        if self.weight_decay:
            grad = np.multiply(arena.value, self.weight_decay, out=self._decayed)
            np.add(arena.grad, grad, out=grad)
        self._update(arena.value, grad)
        arena.touch()

    def _update(self, value: np.ndarray, grad: np.ndarray) -> None:
        """Write one update into the flat ``value`` buffer."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def slot_arrays(self) -> dict[str, list[np.ndarray]]:
        """Per-parameter optimiser slot tensors, keyed by slot name.

        Each value is a list aligned with :attr:`parameters`; subclasses
        override.  Resuming a run from a checkpoint restores these exactly --
        momentum / moment estimates are part of the parameter trajectory.
        """
        return {}

    def state_dict(self) -> dict:
        """Optimiser state in checkpoint form (slot tensors + step counter)."""
        return {
            "type": type(self).__name__.lower(),
            "slots": {
                slot: [array.copy() for array in arrays]
                for slot, arrays in self.slot_arrays().items()
            },
            "step_count": getattr(self, "_step_count", 0),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (exact, in place)."""
        if state.get("type") != type(self).__name__.lower():
            raise ValueError(
                f"optimizer state is for {state.get('type')!r}, "
                f"this optimizer is {type(self).__name__.lower()!r}"
            )
        slots = self.slot_arrays()
        saved = state.get("slots", {})
        if set(saved) != set(slots):
            raise ValueError(
                f"optimizer slots do not match: checkpoint {sorted(saved)}, "
                f"optimizer {sorted(slots)}"
            )
        # every count and shape is checked before the first write
        for slot, arrays in slots.items():
            stored = saved[slot]
            if len(stored) != len(arrays):
                raise ValueError(
                    f"slot {slot!r} carries {len(stored)} tensors for "
                    f"{len(arrays)} parameters"
                )
            for array, value in zip(arrays, stored):
                if array.shape != value.shape:
                    raise ValueError(
                        f"slot {slot!r} shape mismatch: checkpoint "
                        f"{value.shape}, optimizer {array.shape}"
                    )
        for slot, arrays in slots.items():
            for array, value in zip(arrays, saved[slot]):
                array[...] = value
        if hasattr(self, "_step_count"):
            self._step_count = int(state.get("step_count", 0))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        super().__init__(parameters, learning_rate, weight_decay)
        self.momentum = momentum
        self._velocity_flat = np.zeros_like(self.arena.value)
        self._velocity = self.arena.split(self._velocity_flat)
        self._step = np.empty_like(self.arena.value)

    def slot_arrays(self) -> dict[str, list[np.ndarray]]:
        return {"velocity": self._velocity}

    def _update(self, value: np.ndarray, grad: np.ndarray) -> None:
        if self.momentum:
            velocity = self._velocity_flat
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        value -= np.multiply(grad, self.learning_rate, out=self._step)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: list[Parameter],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        super().__init__(parameters, learning_rate, weight_decay)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        self._m_flat, self._v_flat, self._step, self._denominator = (
            np.zeros_like(self.arena.value) for _ in range(4)
        )
        self._m = self.arena.split(self._m_flat)
        self._v = self.arena.split(self._v_flat)

    def slot_arrays(self) -> dict[str, list[np.ndarray]]:
        return {"m": self._m, "v": self._v}

    def _update(self, value: np.ndarray, grad: np.ndarray) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        m, v, step, denominator = self._m_flat, self._v_flat, self._step, self._denominator
        m *= self.beta1
        m += np.multiply(grad, 1.0 - self.beta1, out=step)
        v *= self.beta2
        np.multiply(grad, 1.0 - self.beta2, out=step)
        step *= grad
        v += step
        # value -= lr * (m / bias1) / (sqrt(v / bias2) + epsilon)
        np.divide(m, bias1, out=step)
        step *= self.learning_rate
        np.divide(v, bias2, out=denominator)
        np.sqrt(denominator, out=denominator)
        denominator += self.epsilon
        step /= denominator
        value -= step
