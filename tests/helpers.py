"""Shared test utilities: finite-difference gradient checking and
independent references for the conv, pooling and batch-norm kernels.

The conv kernels under test (:func:`repro.nn.functional.batched_conv2d`
and its E = 1 case :func:`repro.nn.functional.conv2d`, likewise for the
transposed conv) all share one im2col lowering, so a parity test between
them checks the stacking but not the lowering.  :func:`direct_conv2d` and
:func:`direct_conv_transpose2d` are the independent reference: float64
loops over the kernel taps, no im2col, no col2im, no shared helper;
:func:`direct_conv2d_input_grad` and :func:`direct_conv2d_weight_grad`
are the same loop run as the two adjoints, and :func:`direct_resnet_body`
runs a whole served ResNet body on :func:`direct_conv2d`.

The grad-mode kernels have references written the other way round from
the library: :func:`argmax_max_pool2d` picks each window's winner with
``argmax`` and scatters with ``np.add.at`` (the library reduces tap
views), and :func:`composed_batch_norm2d_train` builds training-mode
batch norm from autograd primitives (the library's backward is closed
form).

:func:`reference_backward` is the tape without ownership: it copies every
first gradient, keeps every ``.grad`` and hands each closure a copy, so a
closure that consumes its gradient in place or a gradient adopted without
a copy cannot change what it computes.
"""

from __future__ import annotations

from unittest import mock

import numpy as np

from repro import nn
from repro.nn.tensor import Tensor, _sum_to_shape


def numerical_grad(fn, tensor: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``fn() -> scalar Tensor`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn().data)
        flat[i] = original - eps
        minus = float(fn().data)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def assert_gradients_close(fn, tensors: list[Tensor], rtol: float = 1e-4, atol: float = 1e-6):
    """Check autograd gradients of ``fn`` against finite differences.

    ``fn`` must be a zero-argument callable returning a scalar Tensor built
    from ``tensors`` (all float64, requires_grad=True).
    """
    for t in tensors:
        t.grad = None
        assert t.dtype == np.float64, "gradient checks must run in float64"
    out = fn()
    out.backward()
    for t in tensors:
        expected = numerical_grad(fn, t)
        actual = t.grad if t.grad is not None else np.zeros_like(t.data)
        np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)


def rand_tensor(rng: np.random.Generator, *shape: int, scale: float = 1.0) -> Tensor:
    """Float64 random tensor with gradients enabled (for gradcheck)."""
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True, dtype=np.float64)


def direct_conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlation of NCHW ``x`` with ``(out_c, in_c, kh, kw)`` weights,
    summed tap by tap in float64."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, h, w = x.shape
    out_c, _, kh, kw = weight.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding:padding + h, padding:padding + w] = x
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((n, out_c, out_h, out_w))
    for i in range(kh):
        for j in range(kw):
            tap = padded[:, :, i:i + stride * (out_h - 1) + 1:stride,
                         j:j + stride * (out_w - 1) + 1:stride]
            out += np.einsum("nchw,oc->nohw", tap, weight[:, :, i, j])
    if bias is not None:
        out += np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return out


def direct_resnet_body(body, x) -> np.ndarray:
    """Eval forward of a :class:`~repro.models.resnet.ResNetBody` on NCHW
    ``x`` in float64: :func:`direct_conv2d` for every conv, batch norm from
    its running statistics (not folded into the convs), residual blocks
    and global average pooling written out.  Returns ``(N, C)``."""
    def conv(layer, h):
        bias = None if layer.bias is None else layer.bias.data
        return direct_conv2d(h, layer.weight.data, bias, layer.stride, layer.padding)

    def bn(layer, h):
        scale = layer.gamma.data.astype(np.float64) / np.sqrt(
            layer.running_var.astype(np.float64) + layer.eps)
        shift = layer.beta.data - layer.running_mean * scale
        return h * scale[:, None, None] + shift[:, None, None]

    h = np.asarray(x, dtype=np.float64)
    for stage in body.stages:
        for block in stage:
            out = np.maximum(bn(block.bn1, conv(block.conv1, h)), 0)
            out = bn(block.bn2, conv(block.conv2, out))
            if not isinstance(block.shortcut, nn.Identity):  # conv + batch norm
                h = bn(block.shortcut[1], conv(block.shortcut[0], h))
            h = np.maximum(out + h, 0)
    return h.mean(axis=(2, 3))


def direct_conv_transpose2d(x, weight, bias=None, stride: int = 1, padding: int = 0,
                            output_padding: int = 0) -> np.ndarray:
    """Transposed conv of NCHW ``x`` with ``(in_c, out_c, kh, kw)`` weights:
    every input pixel scatters its tap-weighted copy, in float64."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, _, h, w = x.shape
    _, out_c, kh, kw = weight.shape
    full = np.zeros((n, out_c, (h - 1) * stride + kh + output_padding,
                     (w - 1) * stride + kw + output_padding))
    for i in range(kh):
        for j in range(kw):
            full[:, :, i:i + stride * (h - 1) + 1:stride,
                 j:j + stride * (w - 1) + 1:stride] += np.einsum(
                     "nchw,co->nohw", x, weight[:, :, i, j])
    out_h = (h - 1) * stride - 2 * padding + kh + output_padding
    out_w = (w - 1) * stride - 2 * padding + kw + output_padding
    out = full[:, :, padding:padding + out_h, padding:padding + out_w]
    if bias is not None:
        out = out + np.asarray(bias, dtype=np.float64)[None, :, None, None]
    return out


def direct_conv2d_input_grad(upstream, weight, x_shape, stride: int = 1,
                             padding: int = 0) -> np.ndarray:
    """Gradient of :func:`direct_conv2d` w.r.t. its NCHW input of shape
    ``x_shape``: every output gradient scatters its tap-weighted copy back
    over the window it read, in float64."""
    upstream = np.asarray(upstream, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    n, c, h, w = x_shape
    _, _, kh, kw = weight.shape
    _, _, out_h, out_w = upstream.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for i in range(kh):
        for j in range(kw):
            padded[:, :, i:i + stride * (out_h - 1) + 1:stride,
                   j:j + stride * (out_w - 1) + 1:stride] += np.einsum(
                       "nohw,oc->nchw", upstream, weight[:, :, i, j])
    return padded[:, :, padding:padding + h, padding:padding + w]


def direct_conv2d_weight_grad(upstream, x, kernel_size: int, stride: int = 1,
                              padding: int = 0) -> np.ndarray:
    """Gradient of :func:`direct_conv2d` w.r.t. its ``(out_c, in_c, k, k)``
    weights: each tap correlates ``upstream`` with the input window it
    read, summed over the batch and the output positions in float64."""
    upstream = np.asarray(upstream, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    _, out_c, out_h, out_w = upstream.shape
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    padded[:, :, padding:padding + h, padding:padding + w] = x
    grad = np.zeros((out_c, c, kernel_size, kernel_size))
    for i in range(kernel_size):
        for j in range(kernel_size):
            tap = padded[:, :, i:i + stride * (out_h - 1) + 1:stride,
                         j:j + stride * (out_w - 1) + 1:stride]
            grad[:, :, i, j] = np.einsum("nohw,nchw->oc", upstream, tap)
    return grad


def argmax_max_pool2d(x, kernel_size: int, stride: int | None = None,
                      padding: int = 0, upstream=None):
    """Max pooling of NCHW ``x`` by window ``argmax`` (the first maximum,
    or the first NaN of a window holding one), and the gradient that routes
    ``upstream`` to each window's winner with ``np.add.at``.

    Returns ``(out, grad)``; ``grad`` is ``None`` without ``upstream``.
    """
    x = np.asarray(x)
    stride = kernel_size if stride is None else stride
    n, c, h, w = x.shape
    kh = kw = kernel_size
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding:
        x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                       constant_values=-np.inf)
    else:
        x_pad = x
    s0, s1, s2, s3 = x_pad.strides
    windows = np.lib.stride_tricks.as_strided(
        x_pad,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    flat = windows.reshape(n, c, out_h, out_w, kh * kw)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    if upstream is None:
        return out, None
    upstream = np.asarray(upstream)
    grad_pad = np.zeros_like(x_pad, dtype=upstream.dtype)
    oi, oj = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
    h_idx = oi[None, None] * stride + arg // kw  # (N, C, out_h, out_w)
    w_idx = oj[None, None] * stride + arg % kw
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    np.add.at(grad_pad, (ni, ci, h_idx, w_idx), upstream)
    if padding:
        grad_pad = grad_pad[:, :, padding:-padding, padding:-padding]
    return out, grad_pad


def composed_batch_norm2d_train(x: Tensor, gamma: Tensor, beta: Tensor,
                                running_mean: np.ndarray, running_var: np.ndarray,
                                momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Training-mode stacked batch norm composed of autograd primitives.

    Same contract as ``batched_batch_norm2d(..., training=True)``: ``(E, C)``
    affine parameters and running statistics (updated in place), a shared
    4-D or per-member 5-D input, an ``(E, N, C, H, W)`` output.  The
    gradient is whatever the tape of mean, var, sqrt and divide yields.
    """
    e, c = gamma.shape
    shared = x.ndim == 4
    members = 1 if shared else e
    axes = (0, 2, 3) if shared else (1, 3, 4)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    batch = x.size // (members * c)
    unbiased = var.data * batch / max(batch - 1, 1)
    rows = (1, c) if shared else (e, c)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.data.reshape(rows)
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased.reshape(rows)
    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * gamma.reshape(e, 1, c, 1, 1) + beta.reshape(e, 1, c, 1, 1)


def reference_backward(root: Tensor, gradient=None) -> None:
    """Backpropagate ``root`` the way a tape that owns nothing does.

    Every first gradient a tensor receives is copied, every tensor keeps
    its ``.grad`` (non-leaves too), and each closure runs on a copy of its
    node's gradient.  The closures run in :meth:`Tensor.backward`'s order,
    so leaf gradients must come out bit-equal to it.
    """
    def accumulate(self, grad, borrowed=False):
        if not self.requires_grad:
            return
        grad = _sum_to_shape(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    with mock.patch.object(Tensor, "_accumulate", accumulate):
        root._accumulate(np.ones_like(root.data) if gradient is None else gradient)
        for node in reversed(root._topological_order()):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad.copy())
