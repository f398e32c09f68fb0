"""Neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Convolution is implemented with the classic im2col/col2im lowering so that the
heavy lifting happens inside BLAS matmuls; everything else composes existing
autograd primitives where possible and falls back to hand-written backward
closures where composition would be wasteful (pooling).
"""

from __future__ import annotations

import numpy as np

from repro.nn import profiling
from repro.nn.tensor import Tensor, concat, is_grad_enabled  # noqa: F401  (concat re-exported)

# ----------------------------------------------------------------------
# im2col / col2im
# ----------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Lower padded NCHW input to column form ``(N, C*kh*kw, out_h*out_w)``."""
    n, c, h, w = x.shape
    out_h = (h - kh) // stride + 1
    out_w = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, out_h, out_w),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, out_h * out_w)


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    out_h: int,
    out_w: int,
) -> np.ndarray:
    """Scatter-add column gradients back to input layout (inverse of im2col)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    x_pad = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            x_pad[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j]
    if padding:
        return x_pad[:, :, padding:-padding, padding:-padding]
    return x_pad


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.
    """
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"weight expects {in_c} input channels, got {c}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"convolution output would be empty for input {x.shape}")

    x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = _im2col(x_pad, kh, kw, stride)  # (N, C*kh*kw, L)
    w2 = weight.data.reshape(out_c, -1)  # (out_c, C*kh*kw)
    out = np.matmul(w2[None, :, :], cols).reshape(n, out_c, out_h, out_w)
    profiling.record("conv2d", 2 * n * out_c * out_h * out_w * in_c * kh * kw)
    if bias is not None:
        out = out + bias.data.reshape(1, out_c, 1, 1)
        profiling.record("bias", n * out_c * out_h * out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(n, out_c, -1)  # (N, out_c, L)
        if weight.requires_grad:
            dw = np.einsum("nol,nkl->ok", g2, cols, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            dcols = np.matmul(w2.T[None, :, :], g2)  # (N, C*kh*kw, L)
            dx = _col2im(dcols, x.shape, kh, kw, stride, padding, out_h, out_w)
            x._accumulate(dx)

    return Tensor._make(out, parents, backward)


def dilate2d(x: Tensor, stride: int) -> Tensor:
    """Insert ``stride - 1`` zeros between spatial elements (for transposed conv)."""
    if stride == 1:
        return x
    n, c, h, w = x.shape
    out = np.zeros((n, c, (h - 1) * stride + 1, (w - 1) * stride + 1), dtype=x.data.dtype)
    out[:, :, ::stride, ::stride] = x.data

    def backward(g: np.ndarray) -> None:
        x._accumulate(g[:, :, ::stride, ::stride])

    return Tensor._make(out, (x,), backward)


def conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """Transposed 2-D convolution (a.k.a. deconvolution).

    ``weight`` has shape ``(in_channels, out_channels, kh, kw)`` following the
    PyTorch convention.  Implemented directly as the adjoint of the strided
    convolution: one ``(out_c*kh*kw, in_c)`` matmul over the *input*
    positions followed by a strided col2im scatter — the column buffer is
    ``stride²`` times smaller than the classic dilate-then-convolve lowering
    (whose im2col runs over the zero-dilated map), which matters on the
    fused decoder-training hot path.
    """
    n, c, h, w = x.shape
    in_c, out_c, kh, kw = weight.shape
    if c != in_c:
        raise ValueError(f"weight expects {in_c} input channels, got {c}")
    if padding > kh - 1 or padding > kw - 1:
        raise ValueError("padding must be at most kernel_size - 1")
    if output_padding >= stride:
        raise ValueError("output_padding must be smaller than stride")
    out_h = (h - 1) * stride - 2 * padding + kh + output_padding
    out_w = (w - 1) * stride - 2 * padding + kw + output_padding
    k = out_c * kh * kw
    length = h * w
    x_flat = x.data.reshape(n, c, length)
    w2 = weight.data.reshape(in_c, k)
    cols = np.matmul(w2.T[None, :, :], x_flat)  # (N, K, L)
    out = _col2im(cols, (n, out_c, out_h, out_w), kh, kw, stride, padding, h, w)
    profiling.record("conv2d", 2 * n * c * k * length)
    if bias is not None:
        out = out + bias.data.reshape(1, out_c, 1, 1)
        profiling.record("bias", n * out_c * out_h * out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(0, 2, 3)))
        # The im2col windows cover exactly the positions the forward
        # scattered to; the output_padding margin is constant zero, so its
        # incoming gradient is dropped (count stays h*w since op < stride).
        g_pad = np.pad(g, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        gcols = _im2col(g_pad, kh, kw, stride)  # (N, K, L)
        if weight.requires_grad:
            dw = np.einsum("ncl,nkl->ck", x_flat, gcols, optimize=True)
            weight._accumulate(dw.reshape(weight.shape))
        if x.requires_grad:
            dx = np.matmul(w2[None, :, :], gcols)  # (N, C, L)
            x._accumulate(dx.reshape(x.shape))

    return Tensor._make(out, parents, backward)


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over NCHW input; supports overlapping windows.

    When no backward will be wired the ``kh·kw`` strided tap views are
    reduced with ``np.maximum``: no window array, no argmax.  Taps run
    last to first because ``np.maximum`` returns its second operand on a
    tie, so equal-valued ``±0`` resolve to the first tap as argmax does —
    the output is bit-identical to the grad path's.
    """
    stride = kernel_size if stride is None else stride
    n, c, h, w = x.shape
    kh = kw = kernel_size
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding:
        x_pad = np.pad(
            x.data,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            constant_values=-np.inf,
        )
    else:
        x_pad = x.data
    profiling.record("max_pool", n * c * out_h * out_w * kh * kw)
    if not (is_grad_enabled() and x.requires_grad):
        out = None
        for i in reversed(range(kh)):
            for j in reversed(range(kw)):
                tap = x_pad[:, :, i:i + stride * (out_h - 1) + 1:stride,
                            j:j + stride * (out_w - 1) + 1:stride]
                out = tap.copy() if out is None else np.maximum(out, tap, out=out)
        return Tensor(out, dtype=out.dtype)
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

    def backward(g: np.ndarray) -> None:
        grad_pad = np.zeros_like(x_pad, dtype=g.dtype)
        oi, oj = np.meshgrid(np.arange(out_h), np.arange(out_w), indexing="ij")
        h_idx = oi[None, None] * stride + arg // kw  # (N, C, out_h, out_w)
        w_idx = oj[None, None] * stride + arg % kw
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(grad_pad, (ni, ci, h_idx, w_idx), g)
        if padding:
            grad_pad = grad_pad[:, :, padding:-padding, padding:-padding]
        x._accumulate(grad_pad)

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Average pooling over NCHW input (count includes padding, as in PyTorch)."""
    stride = kernel_size if stride is None else stride
    n, c, h, w = x.shape
    kh = kw = kernel_size
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    s0, s1, s2, s3 = x_pad.strides
    windows = np.lib.stride_tricks.as_strided(
        x_pad,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    profiling.record("avg_pool", n * c * out_h * out_w * kh * kw)
    out = windows.mean(axis=(-1, -2))
    scale = 1.0 / (kh * kw)

    def backward(g: np.ndarray) -> None:
        grad_pad = np.zeros_like(x_pad, dtype=g.dtype)
        gs = g * scale
        for i in range(kh):
            i_end = i + stride * out_h
            for j in range(kw):
                j_end = j + stride * out_w
                grad_pad[:, :, i:i_end:stride, j:j_end:stride] += gs
        if padding:
            grad_pad = grad_pad[:, :, padding:-padding, padding:-padding]
        x._accumulate(grad_pad)

    return Tensor._make(out, (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions, returning ``(N, C)``."""
    return x.mean(axis=(2, 3))


def upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling by an integer factor."""
    n, c, h, w = x.shape
    out = np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g.reshape(n, c, h, scale, w, scale).sum(axis=(3, 5)))

    return Tensor._make(out, (x,), backward)


# ----------------------------------------------------------------------
# Linear / normalisation / regularisation
# ----------------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in)."""
    profiling.record("linear", 2 * int(np.prod(x.shape[:-1])) * weight.shape[0] * weight.shape[1])
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over (N, H, W) per channel.

    In training mode batch statistics are used and running statistics are
    updated in place; in eval mode the running statistics are used.
    """
    profiling.record("batch_norm", 4 * x.size)
    if not training:
        # Fold mean/var/affine into one per-channel scale-and-shift pair, so
        # the full-size tensor is touched twice instead of four times.
        # Gradients to gamma/beta flow through the small (C,) precompute.
        dtype = x.data.dtype
        inv_std = Tensor(1.0 / np.sqrt(running_var + eps), dtype=dtype)
        scale = gamma * inv_std
        shift = beta - Tensor(running_mean, dtype=dtype) * scale
        return x * scale.reshape(1, -1, 1, 1) + shift.reshape(1, -1, 1, 1)
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    var = x.var(axis=(0, 2, 3), keepdims=True)
    batch = x.shape[0] * x.shape[2] * x.shape[3]
    unbiased = var.data * batch / max(batch - 1, 1)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.data.reshape(-1)
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased.reshape(-1)
    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p)."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * mask)

    return Tensor._make(x.data * mask, (x,), backward)


# ----------------------------------------------------------------------
# Activations / classification heads
# ----------------------------------------------------------------------


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, max(x, 0)."""
    profiling.record("activation", x.size)
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU: x for x > 0, ``negative_slope * x`` otherwise."""
    mask = x.data > 0
    out = np.where(mask, x.data, negative_slope * x.data)

    def backward(g: np.ndarray) -> None:
        x._accumulate(g * np.where(mask, 1.0, negative_slope))

    return Tensor._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits ``(N, C)`` and integer labels ``(N,)``."""
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError("targets must be a 1-D array of class indices")
    n = logits.shape[0]
    log_probs = log_softmax(logits, axis=1)
    picked = log_probs[np.arange(n), targets]
    return -picked.mean()


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood given log-probabilities."""
    targets = np.asarray(targets)
    n = log_probs.shape[0]
    return -log_probs[np.arange(n), targets].mean()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    diff = prediction - target
    return (diff * diff).mean()


def l1_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements."""
    return (prediction - target).abs().mean()


def cosine_similarity(a: Tensor, b: Tensor, axis: int = 1, eps: float = 1e-8) -> Tensor:
    """Cosine similarity along ``axis`` (used by the Eq. 3 regulariser)."""
    dot = (a * b).sum(axis=axis)
    norm_a = (a * a).sum(axis=axis).sqrt()
    norm_b = (b * b).sum(axis=axis).sqrt()
    return dot / (norm_a * norm_b + eps)
