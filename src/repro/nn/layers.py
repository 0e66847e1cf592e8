"""Deterministic (non-Bayesian) layers of the NumPy substrate.

These layers implement the classical DNN counterparts of the Bayesian layers
in :mod:`repro.bnn.bayes_layers`.  They are used for three purposes:

* as the non-Bayesian baselines that Fig. 2 of the paper normalises against;
* as building blocks inside Bayesian layers (the convolution arithmetic is
  identical once a weight sample has been drawn);
* for the substrate's own test suite (gradient checks, training sanity runs).

Every layer follows the same protocol: ``forward(x)`` caches what backward
needs, ``backward(grad)`` returns the gradient w.r.t. the input and fills
``grads`` for each entry of ``params``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import functional as F
from .initializers import HeNormal, Initializer, Zeros
from .tensor_utils import Workspace, check_2d, check_4d, conv_output_size

if TYPE_CHECKING:
    from .optim import ParameterArena

__all__ = [
    "Parameter",
    "Layer",
    "Dense",
    "Conv2D",
    "ReLU",
    "Flatten",
    "MaxPool2D",
    "AvgPool2D",
    "Dropout",
]


@dataclass
class Parameter:
    """A named trainable array with its accumulated gradient.

    Once an optimiser owns it, ``value`` and ``grad`` are views into that
    optimiser's :class:`~repro.nn.optim.ParameterArena` (``arena``), and
    ``value`` is read-only: :meth:`assign` is how anything else writes it.
    """

    name: str
    value: np.ndarray
    grad: np.ndarray = field(init=False)
    arena: "ParameterArena | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient in place."""
        self.grad.fill(0.0)

    def freeze(self) -> None:
        """Make the value read-only for good (not in an arena: it writes them)."""
        if self.arena is not None:
            raise ValueError(f"{self.name} is in a parameter arena and cannot be frozen")
        self.value.flags.writeable = False

    def assign(self, value: np.ndarray) -> None:
        """Overwrite the value in place (through the arena, when one owns it)."""
        if self.arena is None:
            self.value[...] = value
        else:
            self.arena.assign(self, value)

    @property
    def size(self) -> int:
        """Number of scalar elements."""
        return int(self.value.size)


class Layer:
    """Base class for all layers (deterministic and Bayesian)."""

    def __init__(self, name: str | None = None) -> None:
        self.name = name or type(self).__name__
        self.training = True
        # lent by a batched training pass for its duration (BayesianNetwork);
        # without one every result is a fresh array
        self._workspace: Workspace | None = None

    # -- protocol ------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (empty for stateless layers)."""
        return []

    # -- convenience ----------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> None:
        """Enable training-time behaviour (e.g. dropout)."""
        self.training = True

    def eval(self) -> None:
        """Enable inference-time behaviour."""
        self.training = False

    @property
    def parameter_count(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(param.size for param in self.parameters())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully-connected layer ``y = x W + b`` with input shape ``(N, in)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        weight_init: Initializer | None = None,
        bias: bool = True,
        name: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng(0)
        weight_init = weight_init or HeNormal()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter("weight", weight_init((in_features, out_features), rng))
        self.bias = Parameter("bias", Zeros()((out_features,), rng)) if bias else None
        self._cache_input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        check_2d(x)
        if x.shape[1] != self.in_features:
            raise ValueError(
                f"{self.name}: expected {self.in_features} input features, got {x.shape[1]}"
            )
        self._cache_input = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        x = self._cache_input
        self.weight.grad += x.T @ grad_out
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class Conv2D(Layer):
    """2-D convolution over ``(N, C, H, W)`` inputs with square kernels."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        weight_init: Initializer | None = None,
        bias: bool = True,
        name: str | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name)
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ValueError("invalid convolution geometry")
        rng = rng or np.random.default_rng(0)
        weight_init = weight_init or HeNormal()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter("weight", weight_init(shape, rng))
        self.bias = Parameter("bias", Zeros()((out_channels,), rng)) if bias else None
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        check_4d(x)
        bias_value = self.bias.value if self.bias is not None else None
        out, cols = F.conv2d_forward(
            x, self.weight.value, bias_value, self.stride, self.padding
        )
        self._cache = (cols, x.shape)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        cols, x_shape = self._cache
        grad_in, grad_w, grad_b = F.conv2d_backward(
            grad_out, cols, x_shape, self.weight.value, self.stride, self.padding
        )
        self.weight.grad += grad_w
        if self.bias is not None:
            self.bias.grad += grad_b
        return grad_in

    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def output_shape(self, input_shape: tuple[int, int, int]) -> tuple[int, int, int]:
        """Spatial output shape ``(C, H, W)`` for a given input shape."""
        _, height, width = input_shape
        out_h = conv_output_size(height, self.kernel_size, self.stride, self.padding)
        out_w = conv_output_size(width, self.kernel_size, self.stride, self.padding)
        return (self.out_channels, out_h, out_w)


class ReLU(Layer):
    """Element-wise rectifier."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._cache_input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache_input = x
        return F.relu(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_input is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return F.relu_grad(self._cache_input, grad_out)


class Flatten(Layer):
    """Reshape ``(N, C, H, W)`` activations to ``(N, C*H*W)``."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._cache_shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return grad_out.reshape(self._cache_shape)


class MaxPool2D(Layer):
    """Max pooling with a square window (``rectify`` / ``mask``: the fused
    stage of a ReLU before it, see BayesianNetwork.forward_samples;
    ``channel_sums``: the bias gradient of the conv before that)."""

    def __init__(self, pool_size: int, stride: int | None = None, name: str | None = None) -> None:
        super().__init__(name)
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self.stride = stride or pool_size
        self._cache: tuple[np.ndarray, tuple[int, int, int, int]] | None = None

    def forward(self, x: np.ndarray, *, rectify: bool = False) -> np.ndarray:
        buffers = None
        if self._workspace is not None:
            check_4d(x)
            shape = x.shape[:2] + tuple(
                conv_output_size(size, self.pool_size, self.stride, 0)
                for size in x.shape[2:]
            )
            buffers = (
                self._workspace.take(self, "pooled", shape, x.dtype, nhwc=True),
                self._workspace.take(self, "argmax", shape, np.intp, nhwc=True),
            )
        out, argmax = F.maxpool2d_forward(
            x, self.pool_size, self.stride, out=buffers, rectify=rectify
        )
        self._cache = (argmax, x.shape)
        return out

    def backward(
        self, grad_out: np.ndarray, *, mask: np.ndarray | None = None,
        channel_sums: np.ndarray | None = None,
    ) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        argmax, x_shape = self._cache
        buffer = None
        if self._workspace is not None:
            buffer = self._workspace.take(
                self, "grad_input", x_shape, grad_out.dtype, nhwc=True
            )
        return F.maxpool2d_backward(
            grad_out, argmax, x_shape, self.pool_size, self.stride, out=buffer,
            mask=mask, channel_sums=channel_sums,
        )


class AvgPool2D(Layer):
    """Average pooling with a square window."""

    def __init__(self, pool_size: int, stride: int | None = None, name: str | None = None) -> None:
        super().__init__(name)
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self.stride = stride or pool_size
        self._cache_shape: tuple[int, int, int, int] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache_shape = x.shape
        return F.avgpool2d_forward(x, self.pool_size, self.stride)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_shape is None:
            raise RuntimeError(f"{self.name}: backward called before forward")
        return F.avgpool2d_backward(grad_out, self._cache_shape, self.pool_size, self.stride)


class Dropout(Layer):
    """Inverted dropout; a no-op in evaluation mode.

    Dropout randomness uses an internal seeded generator so results are
    reproducible and independent of the Bayesian sampling streams.
    """

    def __init__(self, rate: float, seed: int = 0, name: str | None = None) -> None:
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._cache_mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._cache_mask = None
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep) / keep
        self._cache_mask = mask
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache_mask is None:
            return grad_out
        return grad_out * self._cache_mask
