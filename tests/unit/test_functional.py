"""Unit tests for the raw convolution / pooling / softmax operations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F


def naive_conv2d(x, weights, bias, stride, padding):
    """Reference convolution implemented with explicit loops."""
    batch, in_channels, height, width = x.shape
    out_channels, _, kernel, _ = weights.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kernel) // stride + 1
    out_w = (x.shape[3] - kernel) // stride + 1
    out = np.zeros((batch, out_channels, out_h, out_w))
    for b in range(batch):
        for m in range(out_channels):
            for i in range(out_h):
                for j in range(out_w):
                    window = x[b, :, i * stride : i * stride + kernel, j * stride : j * stride + kernel]
                    out[b, m, i, j] = np.sum(window * weights[m])
            if bias is not None:
                out[b, m] += bias[m]
    return out


class TestConvolution:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (2, 2)])
    def test_forward_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        weights = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=4)
        fast, _ = F.conv2d_forward(x, weights, bias, stride, padding)
        slow = naive_conv2d(x, weights, bias, stride, padding)
        assert np.allclose(fast, slow)

    def test_forward_without_bias(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        weights = rng.normal(size=(3, 2, 3, 3))
        fast, _ = F.conv2d_forward(x, weights, None, 1, 0)
        slow = naive_conv2d(x, weights, None, 1, 0)
        assert np.allclose(fast, slow)

    def test_channel_mismatch_rejected(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        weights = rng.normal(size=(3, 4, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, weights, None, 1, 0)

    def test_non_square_kernel_rejected(self, rng):
        x = rng.normal(size=(1, 2, 5, 5))
        weights = rng.normal(size=(3, 2, 3, 2))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, weights, None, 1, 0)

    def test_backward_weight_gradient_numerically(self, rng, numeric_gradient):
        x = rng.normal(size=(2, 2, 5, 5))
        weights = rng.normal(size=(2, 2, 3, 3))
        grad_out_seed = rng.normal(size=(2, 2, 3, 3))

        def loss():
            out, _ = F.conv2d_forward(x, weights, None, 1, 0)
            return float(np.sum(out * grad_out_seed))

        out, cols = F.conv2d_forward(x, weights, None, 1, 0)
        _, grad_w, _ = F.conv2d_backward(grad_out_seed, cols, x.shape, weights, 1, 0)
        numeric = numeric_gradient(loss, weights)
        assert np.allclose(grad_w, numeric, atol=1e-5)

    def test_backward_input_gradient_numerically(self, rng, numeric_gradient):
        x = rng.normal(size=(1, 2, 5, 5))
        weights = rng.normal(size=(2, 2, 3, 3))
        grad_out_seed = rng.normal(size=(1, 2, 5, 5))

        def loss():
            out, _ = F.conv2d_forward(x, weights, None, 1, 1)
            return float(np.sum(out * grad_out_seed))

        out, cols = F.conv2d_forward(x, weights, None, 1, 1)
        grad_x, _, _ = F.conv2d_backward(grad_out_seed, cols, x.shape, weights, 1, 1)
        numeric = numeric_gradient(loss, x)
        assert np.allclose(grad_x, numeric, atol=1e-5)

    def test_backward_bias_gradient(self, rng):
        x = rng.normal(size=(2, 2, 4, 4))
        weights = rng.normal(size=(3, 2, 3, 3))
        out, cols = F.conv2d_forward(x, weights, np.zeros(3), 1, 0)
        grad_out = rng.normal(size=out.shape)
        _, _, grad_b = F.conv2d_backward(grad_out, cols, x.shape, weights, 1, 0)
        assert np.allclose(grad_b, grad_out.sum(axis=(0, 2, 3)))


    def test_forward_matches_naive_at_a_conv_layer_shape(self, rng):
        x = rng.normal(size=(8, 16, 16, 16))
        weights = rng.normal(size=(32, 16, 3, 3))
        fast, _ = F.conv2d_forward(x, weights, None, 1, 1)
        assert fast.shape == (8, 32, 16, 16)
        assert np.allclose(fast, naive_conv2d(x, weights, None, 1, 1))


class TestIm2Col:
    def test_im2col_shape(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        cols, out_h, out_w = F.im2col(x, 3, 1, 0)
        assert (out_h, out_w) == (4, 4)
        assert cols.shape == (2 * 16, 3 * 9)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        # <im2col(x), y> == <x, col2im(y)> for all x, y
        x = rng.normal(size=(2, 2, 5, 5))
        cols, out_h, out_w = F.im2col(x, 3, 2, 1)
        y = rng.normal(size=cols.shape)
        left = float(np.sum(cols * y))
        right = float(np.sum(x * F.col2im(y, x.shape, 3, 2, 1)))
        assert left == pytest.approx(right, rel=1e-10)

    def test_requires_4d_input(self, rng):
        with pytest.raises(ValueError):
            F.im2col(rng.normal(size=(3, 6, 6)), 3, 1, 0)

    def test_kernel_larger_than_input_rejected(self, rng):
        with pytest.raises(ValueError):
            F.im2col(rng.normal(size=(1, 1, 2, 2)), 3, 1, 0)


class TestPooling:
    def test_maxpool_forward_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        assert np.array_equal(out[0, 0], np.array([[5.0, 7.0], [13.0, 15.0]]))
        assert argmax.shape == (1, 1, 2, 2)

    def test_maxpool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out, argmax = F.maxpool2d_forward(x, 2, 2)
        grad = np.ones_like(out)
        grad_x = F.maxpool2d_backward(grad, argmax, x.shape, 2, 2)
        assert grad_x.sum() == out.size
        assert grad_x[0, 0, 1, 1] == 1.0  # position of value 5
        assert grad_x[0, 0, 0, 0] == 0.0

    def test_maxpool_backward_numeric(self, rng, numeric_gradient):
        x = rng.normal(size=(1, 2, 4, 4))
        seed = rng.normal(size=(1, 2, 2, 2))

        def loss():
            out, _ = F.maxpool2d_forward(x, 2, 2)
            return float(np.sum(out * seed))

        out, argmax = F.maxpool2d_forward(x, 2, 2)
        grad_x = F.maxpool2d_backward(seed, argmax, x.shape, 2, 2)
        assert np.allclose(grad_x, numeric_gradient(loss, x), atol=1e-5)

    def test_avgpool_forward(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = F.avgpool2d_forward(x, 2, 2)
        assert out[0, 0, 0, 0] == pytest.approx((0 + 1 + 4 + 5) / 4)

    def test_avgpool_backward_distributes_uniformly(self):
        x = np.zeros((1, 1, 4, 4))
        grad_out = np.ones((1, 1, 2, 2))
        grad_x = F.avgpool2d_backward(grad_out, x.shape, 2, 2)
        assert np.allclose(grad_x, 0.25)

    @pytest.mark.parametrize("pool,stride", [(2, 2), (3, 2), (2, 3)])
    def test_avgpool_backward_is_channels_last_with_the_nchw_bytes(self, rng, pool, stride):
        # the NCHW-contiguous accumulation it used to be, as the oracle
        x_shape = (3, 5, 9, 8)
        out_h = (x_shape[2] - pool) // stride + 1
        out_w = (x_shape[3] - pool) // stride + 1
        grad_out = rng.normal(size=(3, 5, out_h, out_w))
        want = np.zeros(x_shape)
        share = grad_out / (pool * pool)
        for row in range(pool):
            for col in range(pool):
                want[
                    :, :, row : row + stride * out_h : stride,
                    col : col + stride * out_w : stride,
                ] += share
        got = F.avgpool2d_backward(grad_out, x_shape, pool, stride)
        assert got.shape == x_shape and got.dtype == want.dtype
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()
        # an NCHW view of channels-last storage, like col2im and
        # maxpool2d_backward: the next conv backward's grad_flat is a free view
        assert got.transpose(0, 2, 3, 1).flags.c_contiguous
        flat = got.transpose(0, 2, 3, 1).reshape(-1, x_shape[1])
        assert np.shares_memory(flat, got)


class TestActivations:
    def test_softmax_rows_sum_to_one(self, rng):
        probs = F.softmax(rng.normal(size=(5, 7)))
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_softmax_shift_invariance(self, rng):
        logits = rng.normal(size=(3, 4))
        assert np.allclose(F.softmax(logits), F.softmax(logits + 100.0))

    def test_softmax_handles_large_values(self):
        probs = F.softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(probs).all()

    def test_relu_and_grad(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert np.array_equal(F.relu(x), np.array([0.0, 0.0, 2.0]))
        grad = F.relu_grad(x, np.ones_like(x))
        assert np.array_equal(grad, np.array([0.0, 0.0, 1.0]))


class TestSoftmaxInto:
    def test_bit_identical_to_softmax(self, rng):
        logits = rng.normal(size=(4, 6, 9)) * 10.0
        out = np.full_like(logits, np.nan)
        result = F.softmax_into(logits, out)
        assert result is out
        assert np.array_equal(out, F.softmax(logits))

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.softmax_into(rng.normal(size=(2, 3)), np.empty((3, 2)))

    def test_buffer_reuse_across_calls(self, rng):
        out = np.empty((5, 7))
        first = rng.normal(size=(5, 7))
        second = rng.normal(size=(5, 7))
        F.softmax_into(first, out)
        F.softmax_into(second, out)
        assert np.array_equal(out, F.softmax(second))
