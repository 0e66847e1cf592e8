"""Functional building blocks: im2col convolution, pooling, softmax.

These are the raw array operations behind the layer classes in
:mod:`repro.nn.layers`.  They are deliberately free of state so that both the
deterministic DNN layers and the Bayesian layers (which re-sample their weights
per Monte-Carlo sample) can share the exact same arithmetic.

**Sample-axis conventions.**  The batched Monte-Carlo pipeline carries an
extra leading sample axis ``S`` through the network: activations travel
*folded* as ``(S * batch, ...)`` (so element-wise layers and im2col work
unchanged), while per-sample weight tensors are ``(S, *weight_shape)``.  The
``*_samples`` helpers here consume that layout.  Matrix products are computed
with one 2-D matmul per sample (:func:`sample_matmul`) rather than a stacked
3-D matmul: each sample's operands are then byte-identical to the sequential
path's, which is what guarantees the bit-exact batched/sequential equivalence
the Fig. 9 experiments rely on.

The one activation that does *not* travel folded is the network's input: the
minibatch is identical for every sample, so a leading convolution takes it
un-folded (``conv2d_forward_samples(..., shared_input=True)``), lowers it once
and feeds the same column matrix to every sample's GEMM -- byte-identical
operands to ``S`` lowerings of ``S`` copies.  Its output is folded like every
other activation.

**Layouts.**  4-D tensors are indexed NCHW but conv outputs, and the gradients
flowing back through pooling and :func:`col2im`, are *stored* channels-last
under a transposed view, so element-wise ops meet same-layout operands and
the conv backward's ``grad_flat`` is a free view (``docs/architecture.md``,
"Tensor layouts").

**Buffers.**  The data-movement kernels (:func:`im2col`, :func:`col2im`,
:func:`maxpool2d_forward`, :func:`maxpool2d_backward`) are dispatch points of
:mod:`repro.core.backend` and accept ``out=``: a caller that owns a buffer of
the result's shape and dtype gets the same bytes written into it instead of a
fresh array.  Nothing here keeps a buffer of its own -- serving threads share
these functions.
"""

from __future__ import annotations

import numpy as np

from ..core import stability as _stability
from ..core.backend import dispatch
from ..core.backend import sample_matmul as _per_sample_matmul
from .tensor_utils import channels_last, check_4d, conv_output_size

_im2col_kernel = dispatch("im2col")
_col2im_kernel = dispatch("col2im")
_maxpool2d_forward_kernel = dispatch("maxpool2d_forward")
_maxpool2d_backward_kernel = dispatch("maxpool2d_backward")
# Tile-fused matmul: active only inside a `stability.folded_splits` context
# (the serving executor opens one around a fused multi-request forward).  Its
# `fused` backend consults the row-stability probe per shape class and falls
# back to per-request-block computation -- bit-exact by construction --
# wherever the probe rejects the folded GEMM.
_fused_sample_matmul_kernel = dispatch("fused_sample_matmul")

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "conv2d_forward_samples",
    "conv2d_backward_samples",
    "sample_matmul",
    "maxpool2d_forward",
    "maxpool2d_backward",
    "avgpool2d_forward",
    "avgpool2d_backward",
    "softmax",
    "softmax_into",
    "relu",
    "relu_grad",
]


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * kernel * kernel)``.

    Returns the column matrix and the output spatial dimensions.  This is the
    standard lowering that turns convolution into one large matrix multiply,
    mirroring how the PE arrays in the modelled accelerators consume a stream
    of (input window, weight) pairs.  The gather itself is a registered
    dispatch point (``im2col`` in :mod:`repro.core.backend`); every eligible
    backend is pure, bit-identical data movement.  ``out``, when given, is a
    C-contiguous buffer of the column matrix's shape and dtype to fill.
    """
    check_4d(x)
    _, _, height, width = x.shape
    # Validate the window geometry up front (raises on collapsed outputs);
    # the dispatched kernels recompute the same sizes arithmetically.
    conv_output_size(height, kernel, stride, padding)
    conv_output_size(width, kernel, stride, padding)
    return _im2col_kernel(x, kernel, stride, padding, out=out)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Fold a column matrix back into an ``(N, C, H, W)`` tensor (adjoint of im2col).

    The result is an NCHW *view* of channels-last storage: that is the layout
    the conv forward stores its activations in, so the ReLU gradient that
    consumes it multiplies same-layout operands and the next conv backward's
    ``grad_flat`` is a free view.  Each element receives its window
    contributions in ``(row, col)`` order, added into ``+0.0`` (the ``col2im``
    dispatch point of :mod:`repro.core.backend`).  ``out``, when given, is an
    ``x_shape`` buffer to fill; whatever it held is overwritten.
    """
    _, _, height, width = x_shape
    conv_output_size(height, kernel, stride, padding)
    conv_output_size(width, kernel, stride, padding)
    return _col2im_kernel(cols, x_shape, kernel, stride, padding, out=out)


def conv2d_forward(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray]:
    """2-D convolution.  Returns the output and the cached column matrix.

    ``weights`` has shape ``(M, N, K, K)`` -- output channels, input channels,
    kernel height, kernel width -- matching the 7-dimension loop of Fig. 1(b).
    """
    out_channels, in_channels, k_h, k_w = weights.shape
    if k_h != k_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but the kernel expects {in_channels}"
        )
    cols, out_h, out_w = im2col(x, k_h, stride, padding)
    flat_weights = weights.reshape(out_channels, -1)
    out = cols @ flat_weights.T
    if bias is not None:
        out += bias
    batch = x.shape[0]
    out = out.reshape(batch, out_h, out_w, out_channels).transpose(0, 3, 1, 2)
    return out, cols


def conv2d_backward(
    grad_out: np.ndarray,
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    weights: np.ndarray,
    stride: int,
    padding: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_input, grad_weights, grad_bias)``.  The input gradient is
    the transposed convolution the paper's BW stage performs with 180-degree
    rotated kernels; lowering through the column matrix realises the same
    arithmetic.
    """
    out_channels = weights.shape[0]
    kernel = weights.shape[2]
    grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, out_channels)
    grad_weights = (grad_flat.T @ cols).reshape(weights.shape)
    grad_bias = grad_flat.sum(axis=0)
    grad_cols = grad_flat @ weights.reshape(out_channels, -1)
    grad_input = col2im(grad_cols, x_shape, kernel, stride, padding)
    return grad_input, grad_weights, grad_bias


def sample_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-sample matrix product over a leading Monte-Carlo sample axis.

    ``a`` is ``(S, m, k)`` (or a shared ``(m, k)`` broadcast to every sample)
    and ``b`` is ``(S, k, n)``; the result is ``(S, m, n)`` with
    ``result[s] = a[s] @ b[s]``.  The product is computed as ``S`` separate
    2-D matmuls so each slice is bit-identical to the sequential per-sample
    call -- a stacked 3-D matmul may take a different BLAS path and is not
    guaranteed to round identically.  The loop body is
    :func:`repro.core.backend.sample_matmul`, which counts its calls.
    """
    if b.ndim != 3:
        raise ValueError(f"b must be (S, k, n), got shape {b.shape}")
    n_samples = b.shape[0]
    shared_a = a.ndim == 2
    if not shared_a and a.shape[0] != n_samples:
        raise ValueError(
            f"sample axes disagree: a has {a.shape[0]}, b has {n_samples}"
        )
    if out is None:
        out = np.empty(
            (n_samples, a.shape[-2], b.shape[-1]),
            dtype=np.result_type(a, b),
        )
    splits = _stability.scaled_active_splits(a.shape[-2])
    if splits is not None:
        return _fused_sample_matmul_kernel(a, b, out, splits)
    return _per_sample_matmul(a, b, out)


def conv2d_forward_samples(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    n_samples: int,
    shared_input: bool = False,
    cols_out: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched-sample 2-D convolution over folded activations.

    ``x`` is the folded ``(S * batch, C, H, W)`` input and ``weights`` the
    per-sample kernels ``(S, M, C, K, K)``.  The im2col lowering and matrix
    product run per sample over the folded slices -- each sample's column
    matrix then goes through exactly :func:`conv2d_forward`'s arithmetic (and
    stays cache-resident between the lowering and its matmul, which a single
    whole-batch im2col copy would not).  With ``shared_input`` set, ``x`` is
    instead the one ``(batch, C, H, W)`` minibatch every sample sees: it is
    lowered once and the same column matrix (byte-identical to each sample's
    own lowering of its folded copy) meets every sample's kernel.  Returns the
    folded output ``(S * batch, M, out_h, out_w)`` and the per-sample column
    matrices for the backward pass (``S`` aliases of one array when shared).
    ``cols_out`` optionally provides the buffers the lowerings fill (``S`` of
    them, one when shared; see :func:`im2col`); a fused serving tile ignores it.
    """
    if weights.ndim != 5 or weights.shape[0] != n_samples:
        raise ValueError(
            f"weights must be (S, M, C, K, K) with S={n_samples}, "
            f"got shape {weights.shape}"
        )
    _, out_channels, in_channels, k_h, k_w = weights.shape
    if k_h != k_w:
        raise ValueError("only square kernels are supported")
    if x.shape[1] != in_channels:
        raise ValueError(
            f"input has {x.shape[1]} channels but the kernel expects {in_channels}"
        )
    if not shared_input and x.shape[0] % n_samples:
        raise ValueError(
            f"folded batch of {x.shape[0]} does not divide into {n_samples} samples"
        )
    batch = x.shape[0] if shared_input else x.shape[0] // n_samples
    out_h = conv_output_size(x.shape[2], k_h, stride, padding)
    out_w = conv_output_size(x.shape[3], k_h, stride, padding)
    flat_weights = weights.reshape(n_samples, out_channels, -1)
    # inside a fused tile, each request owns `splits[i]` of the `batch` items
    # per sample; the column matrix scales every span by out_h * out_w
    splits = _stability.scaled_active_splits(batch)
    # NHWC storage with an NCHW transposed view, exactly like conv2d_forward
    # returns: each sample's GEMM lands in its (batch * oh * ow, M) rows
    out = np.empty(
        (n_samples * batch, out_h, out_w, out_channels),
        dtype=np.result_type(x.dtype, weights.dtype),
    )
    cols_per_sample: list[np.ndarray] = []
    tiled_bias = None if bias is None else np.tile(bias, out_h * out_w)
    for s in range(n_samples):
        if s == 0 or not shared_input:
            x_s = x if shared_input else x[s * batch : (s + 1) * batch]
            # a fused tile unfolds all its requests at once: the row-stability
            # verdict's folded_im2col_gate proves that equal to stacking the
            # per-request unfolds
            buffer = cols_out[s] if cols_out and splits is None else None
            cols_s, _, _ = im2col(x_s, k_h, stride, padding, out=buffer)
        cols_per_sample.append(cols_s)
        out_s = out[s * batch : (s + 1) * batch]
        if splits is None:
            np.matmul(cols_s, flat_weights[s].T, out=out_s.reshape(-1, out_channels))
        else:
            col_splits = tuple(rows * out_h * out_w for rows in splits)
            _fused_sample_matmul_kernel(
                cols_s[None], flat_weights[s][None],
                out_s.reshape(1, -1, out_channels), col_splits, trans_b=True,
            )
        if tiled_bias is not None:
            # `out_s += bias` as the same adds over long (batch, oh * ow * M) rows
            out_s.reshape(batch, tiled_bias.size)[...] += tiled_bias
    return out.transpose(0, 3, 1, 2), cols_per_sample


def conv2d_backward_samples(
    grad_out: np.ndarray,
    cols: list[np.ndarray],
    x_shape: tuple[int, int, int, int],
    weights: np.ndarray,
    stride: int,
    padding: int,
    n_samples: int,
    need_input_grad: bool = True,
    out: np.ndarray | None = None,
    grad_bias: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv2d_forward_samples`.

    ``cols`` is the per-sample column-matrix list the forward pass cached.
    Returns ``(grad_input, grad_weights, grad_bias)`` where ``grad_input`` is
    folded ``(S * batch, C, H, W)``, ``grad_weights`` is per-sample
    ``(S, M, C, K, K)`` and ``grad_bias`` is ``(S, M)`` -- callers accumulate
    the per-sample slices in sample order to match the sequential trainers'
    float summation order exactly.  With ``need_input_grad`` cleared (the
    network's first layer: nobody consumes d loss / d data) the
    ``grad_flat @ W`` product and its :func:`col2im` are skipped and
    ``grad_input`` is ``None``.  ``out`` optionally provides the folded
    ``x_shape`` buffer ``grad_input`` is written into.  ``grad_bias``, when
    given, is the ``(S, M)`` bias gradient already summed (the fused
    max-pool backward's ``channel_sums``) and is returned as it is.
    """
    out_channels = weights.shape[1]
    kernel = weights.shape[3]
    batch = grad_out.shape[0] // n_samples
    sample_x_shape = (batch,) + tuple(x_shape[1:])
    grad_weights = np.empty(weights.shape, dtype=np.result_type(grad_out, weights))
    summed = grad_bias is not None
    if not summed:
        grad_bias = np.empty((n_samples, out_channels), dtype=grad_weights.dtype)
    grad_input: np.ndarray | None = None
    if need_input_grad:
        # every sample's col2im folds straight into its slice of the result
        grad_input = (
            channels_last(np.empty, x_shape, grad_weights.dtype) if out is None else out
        )
    flat_weights = weights.reshape(n_samples, out_channels, -1)
    for s in range(n_samples):
        # a free view when the gradient arrives channels-last (col2im,
        # maxpool2d_backward and relu_grad all keep it so); a copy otherwise
        grad_flat = (
            grad_out[s * batch : (s + 1) * batch]
            .transpose(0, 2, 3, 1)
            .reshape(-1, out_channels)
        )
        np.matmul(grad_flat.T, cols[s], out=grad_weights[s].reshape(out_channels, -1))
        if not summed:
            grad_bias[s] = grad_flat.sum(axis=0)
        if not need_input_grad:
            continue
        col2im(
            grad_flat @ flat_weights[s], sample_x_shape, kernel, stride, padding,
            out=grad_input[s * batch : (s + 1) * batch],
        )
    return grad_input, grad_weights, grad_bias


def maxpool2d_forward(
    x: np.ndarray,
    pool: int,
    stride: int,
    out: tuple[np.ndarray, np.ndarray] | None = None,
    rectify: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Max pooling.  Returns the output and the argmax mask needed for backward.

    Ties keep the first window position (row-major) and a NaN counts as the
    maximum, first NaN first -- ``np.argmax``'s rules; the results keep ``x``'s
    memory layout (the ``maxpool2d_forward`` dispatch point of
    :mod:`repro.core.backend`).  ``out``, when given, is the ``(pooled,
    argmax)`` pair of buffers to fill (``x``'s dtype and ``np.intp``).
    ``rectify`` pools :func:`relu` ``(x)`` in the same pass.
    """
    check_4d(x)
    _, _, height, width = x.shape
    conv_output_size(height, pool, stride, 0)
    conv_output_size(width, pool, stride, 0)
    return _maxpool2d_forward_kernel(x, pool, stride, out=out, rectify=rectify)


def maxpool2d_backward(
    grad_out: np.ndarray,
    argmax: np.ndarray,
    x_shape: tuple[int, int, int, int],
    pool: int,
    stride: int,
    out: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    channel_sums: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter the output gradient back to the argmax positions.

    The result is an NCHW view of channels-last storage (see :func:`col2im`),
    accumulated into ``+0.0``: a ``-0.0`` gradient (``relu_grad`` emits them
    routinely) lands as ``+0.0`` and overlapping windows add up in ``(row,
    col)`` order of the output (the ``maxpool2d_backward`` dispatch point of
    :mod:`repro.core.backend`).  ``out``, when given, is an ``x_shape``
    buffer to fill; whatever it held is overwritten.  ``mask`` (a ReLU's
    input) returns ``relu_grad(mask, ...)`` of the scatter, in the same pass.
    ``channel_sums``, an ``(S, C)`` buffer, receives each of the ``S`` equal
    batch slices' per-channel sum of the result -- what
    :func:`conv2d_backward_samples` sums as a conv's bias gradient (each
    slice's ``grad_flat.sum(axis=0)``), byte for byte.
    """
    grad_input, _ = _maxpool2d_backward_kernel(
        grad_out, argmax, x_shape, pool, stride, out=out, mask=mask,
        channel_sums=channel_sums,
    )
    return grad_input


def avgpool2d_forward(x: np.ndarray, pool: int, stride: int) -> np.ndarray:
    """Average pooling over non-overlapping (or strided) windows."""
    check_4d(x)
    batch, channels, height, width = x.shape
    out_h = conv_output_size(height, pool, stride, 0)
    out_w = conv_output_size(width, pool, stride, 0)
    out = np.zeros((batch, channels, out_h, out_w), dtype=x.dtype)
    for row in range(pool):
        for col in range(pool):
            out += x[
                :, :, row : row + stride * out_h : stride, col : col + stride * out_w : stride
            ]
    return out / (pool * pool)


def avgpool2d_backward(
    grad_out: np.ndarray, x_shape: tuple[int, int, int, int], pool: int, stride: int
) -> np.ndarray:
    """Spread the output gradient uniformly over each pooling window.

    Like :func:`col2im` and :func:`maxpool2d_backward`, the result is an NCHW
    view of channels-last storage, so a conv backward that follows reads its
    ``grad_flat`` as a free view.
    """
    grad_input = channels_last(np.zeros, x_shape, grad_out.dtype)
    out_h, out_w = grad_out.shape[2], grad_out.shape[3]
    share = grad_out / (pool * pool)
    for row in range(pool):
        for col in range(pool):
            grad_input[
                :, :, row : row + stride * out_h : stride, col : col + stride * out_w : stride
            ] += share
    return grad_input


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically-stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def softmax_into(logits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`softmax` written into a caller-provided buffer.

    Performs the identical sequence of element-wise operations (subtract the
    row maximum, exponentiate, divide by the row sum), so the result is
    bit-identical to :func:`softmax`; the only difference is that every stage
    lands in ``out`` instead of a fresh temporary.  The serving tile executor
    uses this to reuse one scratch buffer across tiles instead of allocating
    three intermediates per request.
    """
    if out.shape != logits.shape:
        raise ValueError(
            f"out shape {out.shape} does not match logits shape {logits.shape}"
        )
    expected = (
        logits.dtype
        if np.issubdtype(logits.dtype, np.floating)
        else np.dtype(np.float64)
    )
    if out.dtype != expected:
        raise ValueError(
            f"out dtype {out.dtype} would not be bit-identical to the "
            f"softmax result dtype {expected}"
        )
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    np.divide(out, out.sum(axis=-1, keepdims=True), out=out)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient of ReLU with respect to its input."""
    return grad_out * (x > 0.0)
