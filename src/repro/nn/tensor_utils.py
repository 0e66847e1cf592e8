"""Small tensor helpers shared across the NumPy neural-network substrate."""

from __future__ import annotations

import numpy as np

__all__ = [
    "one_hot",
    "check_4d",
    "check_2d",
    "conv_output_size",
    "channels_last",
    "Workspace",
]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Encode integer class labels as one-hot rows.

    Parameters
    ----------
    labels:
        Integer array of shape ``(batch,)`` with values in ``[0, num_classes)``.
    num_classes:
        Width of the encoding.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = np.zeros((labels.shape[0], num_classes), dtype=np.float64)
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def check_4d(x: np.ndarray, name: str = "input") -> None:
    """Require an ``(N, C, H, W)`` activation tensor."""
    if x.ndim != 4:
        raise ValueError(f"{name} must be 4-D (N, C, H, W), got shape {x.shape}")


def check_2d(x: np.ndarray, name: str = "input") -> None:
    """Require an ``(N, features)`` activation matrix."""
    if x.ndim != 2:
        raise ValueError(f"{name} must be 2-D (N, features), got shape {x.shape}")


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output collapses to {out} "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


def channels_last(alloc, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An ``alloc``-ated (``np.zeros`` / ``np.empty``) NCHW view of NHWC storage."""
    batch, channels, height, width = shape
    return alloc((batch, height, width, channels), dtype=dtype).transpose(0, 3, 1, 2)


class Workspace:
    """Arrays a batched training pass reuses from one step to the next.

    A buffer is identified by the layer that fills it and a role, allocated
    on first use and kept while the requested shape and dtype stay the same.
    Contents are never preserved or cleared between uses: every kernel that
    is handed one overwrites all of it.
    """

    def __init__(self) -> None:
        self._held: dict[tuple[int, str], np.ndarray] = {}

    def take(
        self, owner: object, role: str, shape, dtype, nhwc: bool = False
    ) -> np.ndarray:
        """The ``(owner, role)`` buffer; ``nhwc`` selects channels-last storage."""
        key, shape, dtype = (id(owner), role), tuple(shape), np.dtype(dtype)
        held = self._held.get(key)
        if held is None or held.shape != shape or held.dtype != dtype:
            held = channels_last(np.empty, shape, dtype) if nhwc else np.empty(shape, dtype)
            self._held[key] = held
        return held

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` may alias a held buffer (bounds overlap: never a false no)."""
        return any(np.may_share_memory(array, held) for held in self._held.values())
