"""Shared test utilities: finite-difference gradient checking and
direct-sum convolution references.

The conv kernels under test (:func:`repro.nn.functional.batched_conv2d`
and its E = 1 case :func:`repro.nn.functional.conv2d`, likewise for the
transposed conv) all share one im2col lowering, so a parity test between
them checks the stacking but not the lowering.  :func:`direct_conv2d` and
:func:`direct_conv_transpose2d` are the independent reference: float64
loops over the kernel taps, no im2col, no col2im, no shared helper.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


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
