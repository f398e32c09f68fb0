"""Batched-ensemble execution: run E architecturally identical modules at once.

Ensembler's protocol requires the server to run *all* N bodies per query so
the client's selection stays secret.  Executing them as a Python loop over N
independent graphs pays N× interpreter and im2col overhead; this module
instead stacks the N parameter sets along a leading **ensemble axis** and
runs all members in one fused NumPy pass, so the heavy lifting stays inside
a single wide (or batched) BLAS matmul per layer.

Conventions
-----------
Activations carry a leading ensemble axis ``E``: convolutional features are
``(E, N, C, H, W)`` and pooled features are ``(E, N, C)``.  A plain NCHW
(4-D) or NC (2-D) input is interpreted as *shared* across all members — the
common entry case, since every body receives the same uploaded features.
The first parametric layer then lowers the shared input once (one im2col)
and applies one ``(E·out_c, C·kh·kw)`` matmul, after which activations are
per-member.

Stacking
--------
:func:`stack_modules` compiles a list of architecturally identical modules
into a mirrored ``Stacked*`` tree via a type registry; composite layers
(e.g. residual blocks) register their own stackers with
:func:`register_stacker`.  :class:`StackedBodies` wraps the compiled tree
and adds ``sync_from`` / ``unstack_to`` so loop-trained checkpoints and the
stacked engine stay interchangeable.  All batched ops support autograd, so
joint fine-tuning can run through the stacked graph as well; modules that
cannot be stacked raise :class:`UnstackableError`, which callers use to fall
back to the looped path.

Registry extension points
-------------------------
The registry covers every topology the reproduction executes hot: the
classifier stack (``Conv2d``/``Linear``/``BatchNorm2d``/pooling/``ReLU``),
the *decoder* stack used by the inversion attacks
(``ConvTranspose2d``/``UpsampleNearest2d``/``Sigmoid``), and the composite
model pieces which register themselves next to their definitions
(``BasicBlock``/``ResNetHead``/… in :mod:`repro.models.resnet`,
``ShadowHead`` in :mod:`repro.models.shadow`, ``FixedGaussianNoise`` in
:mod:`repro.core.noise`).  To make a new layer stackable:

1. decorate a ``StackedModule`` subclass with
   ``@register_stacker(MyLayer)``; its ``__init__`` receives the member
   list and must set ``num_stacked``;
2. stack parameters with :func:`_stacked_parameter` (leading ensemble
   axis) and validate shared hyper-parameters with :func:`common_attr`;
3. express ``forward`` in the ``batched_*`` functional ops (or
   :func:`_fold_spatial` for per-sample NCHW ops) so a shared 4-D input
   and a per-member 5-D input both work;
4. leave ``sync_from`` / ``unstack_to`` alone if the stacked module only
   holds stacked children — the structural defaults recurse; override them
   only on parameter-holding leaves.

Training through a stacked tree is supported end to end: per-member losses
(:func:`batched_cross_entropy`, :func:`batched_mse`) reduce to an ``(E,)``
vector whose sum backpropagates each member's own gradient into the stacked
parameters, and the stacked optimisers in :mod:`repro.nn.optim` keep
per-member state along the same leading axis.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.nn import profiling
from repro.nn.arena import active_arena
from repro.nn.functional import _col2im, _im2col
from repro.nn import functional as F
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    UpsampleNearest2d,
)
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.nn.tensor import stack as tensor_stack


class UnstackableError(TypeError):
    """Raised when a list of modules cannot be compiled into a stacked pass."""


# ----------------------------------------------------------------------
# Functional ops (ensemble axis leading)
# ----------------------------------------------------------------------


def unbind(stacked: Tensor) -> list[Tensor]:
    """Split a stacked ``(E, ...)`` tensor into E per-member tensors.

    Gradient routing is preserved, so downstream per-member consumers (the
    selector, per-net losses) compose with the fused forward.
    """
    return [stacked[i] for i in range(stacked.shape[0])]


def batched_linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map for E members at once; ``weight`` is ``(E, out, in)``.

    ``x`` is ``(E, N, in)`` (per-member) or ``(N, in)`` (shared input); the
    result is always ``(E, N, out)`` via one batched matmul.
    """
    e, out_features, in_features = weight.shape
    rows = int(np.prod(x.shape[:-1]))
    members = 1 if x.ndim == 3 else e
    profiling.record("linear", 2 * rows * members * out_features * in_features)
    out = x @ weight.transpose(0, 2, 1)
    if bias is not None:
        out = out + bias.reshape(e, 1, out_features)
    return out


def _pad_spatial(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the trailing two (spatial) axes.

    Equivalent to ``np.pad`` but a plain alloc-and-assign: ``np.pad``'s
    generic machinery costs more Python time than a whole small conv layer
    on the fused hot path.
    """
    if padding == 0:
        return x
    shape = x.shape[:-2] + (x.shape[-2] + 2 * padding, x.shape[-1] + 2 * padding)
    out = np.zeros(shape, dtype=x.dtype)
    out[..., padding:-padding, padding:-padding] = x
    return out


#: Bytes of lowered columns one block of the no-grad convolution kernel
#: may hold.  Half a MiB leaves room in a 2 MiB per-core L2 for the
#: block's pad canvas and GEMM result next to its columns, so the GEMM
#: reads columns the lowering has just written to cache.
BLOCK_BYTES = 1 << 19


def _conv2d_nograd(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None, stride: int, padding: int,
                   out_h: int, out_w: int, arena) -> np.ndarray:
    """Forward-only stacked convolution, lowered and multiplied per block.

    ``x`` is a shared ``(N, C, H, W)`` or per-member ``(E, N, C, H, W)``
    array.  Images are processed in blocks whose im2col columns fit in
    :data:`BLOCK_BYTES`; per block the kernel pads, lowers and runs one
    GEMM per image — ``(E·out_c, K)`` for a shared input, the member's own
    ``(out_c, K)`` otherwise — and writes the result, plus ``bias``, into
    the fresh output while the block is still in cache.  A block holds
    images of one member, or whole members when they fit.

    Stride-1 kernels lower whole padded rows: the column row of kernel tap
    ``(i, j)`` is the run of ``(oh−1)·wp + ow`` floats starting at padded
    offset ``i·wp + j``, so the GEMM yields ``wp``-wide output rows whose
    last ``wp − ow`` entries (which straddle a row break) are cropped.  A
    1x1 stride-1 pad-0 kernel lowers nothing: its block is the input.

    Scratch (pad canvas, columns, pre-crop GEMM result) is block-shaped,
    so its shape depends on the layer alone, not on the batch; it comes
    from ``arena`` when one is active and is freshly allocated otherwise.
    Either way the arithmetic is the same, so outputs are bit-equal.
    """
    e, out_c, in_c, kh, kw = weight.shape
    shared = x.ndim == 4
    x = np.ascontiguousarray(x)
    n, c, h, w = x.shape[-4:]
    members = 1 if shared else e
    images = x.reshape(members * n, c, h, w)
    hp, wp = h + 2 * padding, w + 2 * padding
    k = in_c * kh * kw
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    run_w = wp if stride == 1 and not pointwise else out_w
    length = out_h * run_w
    crop = run_w != out_w
    dtype = np.result_type(weight.dtype, x.dtype)
    rows = e * out_c if shared else out_c
    wmat = weight.reshape(members, 1, rows, k)
    if bias is not None:
        bias = bias.reshape(members, 1, rows, 1)
    out = np.empty((e, n, out_c, out_h, out_w), dtype=dtype)
    block = max(1, BLOCK_BYTES // (k * length * x.itemsize))

    def scratch(tag, shape, dt):
        if arena is None:
            return np.empty(shape, dtype=dt)
        return arena.take(tag, shape, dt)

    if padding:
        # Borders are zeroed once; blocks only overwrite the interior.
        canvas = scratch("pad", (block, c, hp, wp), x.dtype)
        canvas.fill(0)
    cols = None if pointwise else scratch("cols", (block, k, length), x.dtype)
    mm = scratch("mm", (block, rows, length), dtype) if shared or crop else None

    # (first member, members, first image, images) of every block
    if shared or block < n:
        spans = [(m, 1, n0, min(block, n - n0))
                 for m in range(members) for n0 in range(0, n, block)]
    else:
        per = block // n
        spans = [(m, min(per, members - m), 0, n)
                 for m in range(0, members, per)]
    for m, me, n0, nb in spans:
        f0, count = m * n + n0, me * nb
        src = images[f0:f0 + count]
        if padding:
            canvas[:count, :, padding:-padding, padding:-padding] = src
            src = canvas[:count]
        if pointwise:
            lowered = src
        else:
            lowered = cols[:count]
            s0, s1, s2, s3 = src.strides
            taps = lowered.reshape(count, c, kh, kw, length)
            # Tap views over the contiguous block, built with the ndarray
            # constructor: ``as_strided`` costs ~15 µs of Python per call.
            if stride == 1:
                run = (out_h - 1) * wp + out_w
                np.copyto(taps[..., :run], np.ndarray(
                    (count, c, kh, kw, run), src.dtype, src, 0,
                    (s0, s1, s2, s3, s3)))
                taps[..., run:] = 0  # feeds cropped outputs only
            else:
                np.copyto(taps.reshape(count, c, kh, kw, out_h, out_w),
                          np.ndarray((count, c, kh, kw, out_h, out_w),
                                     src.dtype, src, 0,
                                     (s0, s1, s2, s3, s2 * stride,
                                      s3 * stride)))
        lowered = lowered.reshape(me, nb, k, length)
        dst = out[:, n0:n0 + nb] if shared else out[m:m + me, n0:n0 + nb]
        direct = not (shared or crop)
        res = np.matmul(wmat[m:m + me], lowered,
                        out=(dst if direct else mm[:count]).reshape(
                            me, nb, rows, length))
        if bias is not None:
            res += bias[m:m + me]
        if direct:
            continue
        if shared:
            res = res.reshape(nb, e, out_c, out_h, run_w).transpose(1, 0, 2, 3, 4)
        else:
            res = res.reshape(me, nb, out_c, out_h, run_w)
        np.copyto(dst, res[..., :out_w])
    return out


def batched_conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution for E members in one fused pass.

    ``weight`` is ``(E, out_c, in_c, kh, kw)``.  For a shared 4-D input the
    image is lowered once and all E kernels apply as a single
    ``(E·out_c, C·kh·kw)`` matmul; for a per-member 5-D input each member
    contracts with its own kernel.  Output is ``(E, N, out_c, oh, ow)``.

    When no backward will be wired (gradients disabled, or no operand
    requires them) the op runs the cache-blocked kernel of
    :func:`_conv2d_nograd`, with its scratch from the active
    :class:`~repro.nn.arena.TensorArena` if there is one.  Otherwise the
    full im2col columns are built once and captured for backward.
    """
    e, out_c, in_c, kh, kw = weight.shape
    shared = x.ndim == 4
    if shared:
        n, c, h, w = x.shape
    elif x.ndim == 5:
        xe, n, c, h, w = x.shape
        if xe != e:
            raise ValueError(f"input carries {xe} members, weight has {e}")
    else:
        raise ValueError(f"expected 4-D (shared) or 5-D input, got {x.shape}")
    if c != in_c:
        raise ValueError(f"weight expects {in_c} input channels, got {c}")
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"convolution output would be empty for input {x.shape}")
    k = in_c * kh * kw
    length = out_h * out_w
    hp, wp = h + 2 * padding, w + 2 * padding

    parents = (x, weight) if bias is None else (x, weight, bias)
    wired = is_grad_enabled() and any(p.requires_grad for p in parents)
    if not wired:
        out = _conv2d_nograd(x.data, weight.data,
                             None if bias is None else bias.data,
                             stride, padding, out_h, out_w, active_arena())
    elif shared:
        cols = _im2col(_pad_spatial(x.data, padding), kh, kw, stride)  # (N, K, L)
        w2 = weight.data.reshape(e * out_c, k)
        out = np.matmul(w2[None, :, :], cols)  # (N, E*out_c, L)
        out = np.ascontiguousarray(
            out.reshape(n, e, out_c, out_h, out_w).transpose(1, 0, 2, 3, 4)
        )
    else:
        x_pad = _pad_spatial(x.data, padding)
        cols = _im2col(x_pad.reshape(e * n, c, hp, wp), kh, kw, stride)
        cols = cols.reshape(e, n, k, length)
        w2 = weight.data.reshape(e, out_c, k)
        out = np.matmul(w2[:, None, :, :], cols).reshape(e, n, out_c, out_h, out_w)
    profiling.record("conv2d", 2 * e * n * out_c * out_h * out_w * in_c * kh * kw)
    if bias is not None:
        if wired:
            # ``out`` is freshly materialised just above (contiguous copy
            # on the shared path, matmul product on the 5-D path), so the
            # bias lands in place — no extra full-tensor temporary.
            out += bias.data.reshape(e, 1, out_c, 1, 1)
        profiling.record("bias", e * n * out_c * out_h * out_w)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 3, 4)))
        if shared:
            g2 = np.ascontiguousarray(g.transpose(1, 0, 2, 3, 4)).reshape(
                n, e * out_c, length
            )
            if weight.requires_grad:
                dw = np.einsum("nol,nkl->ok", g2, cols, optimize=True)
                weight._accumulate(dw.reshape(weight.shape))
            if x.requires_grad:
                dcols = np.matmul(w2.T[None, :, :], g2)  # (N, K, L)
                x._accumulate(
                    _col2im(dcols, x.shape, kh, kw, stride, padding, out_h, out_w)
                )
        else:
            g2 = g.reshape(e, n, out_c, length)
            if weight.requires_grad:
                # (E·N, O, L) x (E·N, L, K) batched GEMM, then reduce the
                # batch axis: ~2x faster than the equivalent einsum, which
                # falls off the fast BLAS path for this contraction.
                dw = np.matmul(g2.reshape(e * n, out_c, length),
                               cols.reshape(e * n, k, length).transpose(0, 2, 1))
                dw = dw.reshape(e, n, out_c, k).sum(axis=1)
                weight._accumulate(dw.reshape(weight.shape))
            if x.requires_grad:
                dcols = np.matmul(w2.transpose(0, 2, 1)[:, None, :, :], g2)
                dx = _col2im(
                    dcols.reshape(e * n, k, length), (e * n, c, h, w),
                    kh, kw, stride, padding, out_h, out_w,
                )
                x._accumulate(dx.reshape(e, n, c, h, w))

    return Tensor._make(out, parents, backward)


def batched_conv_transpose2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """Transposed 2-D convolution for E members in one fused pass.

    ``weight`` is ``(E, in_c, out_c, kh, kw)`` (the stacked PyTorch layout).
    Mirrors :func:`repro.nn.functional.conv_transpose2d` per member: one
    batched matmul over the input positions followed by a strided col2im
    scatter.  A shared 4-D input is lowered once and all E kernels apply as
    a single ``(E·out_c·kh·kw, in_c)`` matmul; a per-member 5-D input uses
    one batched matmul.  Output is ``(E, N, out_c, oh, ow)``.
    """
    e, in_c, out_c, kh, kw = weight.shape
    if padding > kh - 1 or padding > kw - 1:
        raise ValueError("padding must be at most kernel_size - 1")
    if output_padding >= stride:
        raise ValueError("output_padding must be smaller than stride")
    shared = x.ndim == 4
    if shared:
        n, c, h, w = x.shape
    elif x.ndim == 5:
        xe, n, c, h, w = x.shape
        if xe != e:
            raise ValueError(f"input carries {xe} members, weight has {e}")
    else:
        raise ValueError(f"expected 4-D (shared) or 5-D input, got {x.shape}")
    if c != in_c:
        raise ValueError(f"weight expects {in_c} input channels, got {c}")
    out_h = (h - 1) * stride - 2 * padding + kh + output_padding
    out_w = (w - 1) * stride - 2 * padding + kw + output_padding
    k = out_c * kh * kw
    length = h * w
    w2 = weight.data.reshape(e, in_c, k)

    if shared:
        x_flat = x.data.reshape(n, c, length)
        wt = w2.transpose(0, 2, 1).reshape(e * k, in_c)
        cols = np.matmul(wt[None, :, :], x_flat)  # (N, E*K, L)
        cols = np.ascontiguousarray(
            cols.reshape(n, e, k, length).transpose(1, 0, 2, 3))
    else:
        x_flat = x.data.reshape(e, n, c, length)
        cols = np.matmul(w2.transpose(0, 2, 1)[:, None, :, :], x_flat)  # (E,N,K,L)
    out = _col2im(cols.reshape(e * n, k, length), (e * n, out_c, out_h, out_w),
                  kh, kw, stride, padding, h, w).reshape(e, n, out_c, out_h, out_w)
    profiling.record("conv2d", 2 * e * n * c * k * length)
    if bias is not None:
        out = out + bias.data.reshape(e, 1, out_c, 1, 1)
        profiling.record("bias", e * n * out_c * out_h * out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 3, 4)))
        g_pad = _pad_spatial(g, padding)
        gcols = _im2col(g_pad.reshape(e * n, out_c, *g_pad.shape[-2:]),
                        kh, kw, stride).reshape(e, n, k, length)
        if weight.requires_grad:
            if shared:
                dw = np.einsum("ncl,enkl->eck", x_flat, gcols, optimize=True)
            else:
                dw = np.matmul(x_flat.reshape(e * n, c, length),
                               gcols.reshape(e * n, k, length).transpose(0, 2, 1))
                dw = dw.reshape(e, n, c, k).sum(axis=1)
            weight._accumulate(dw.reshape(weight.shape))
        if x.requires_grad:
            dx = np.matmul(w2[:, None, :, :], gcols)  # (E, N, C, L)
            if shared:
                x._accumulate(dx.sum(axis=0).reshape(n, c, h, w))
            else:
                x._accumulate(dx.reshape(e, n, c, h, w))

    return Tensor._make(out, parents, backward)


def batched_upsample_nearest2d(x: Tensor, scale: int) -> Tensor:
    """Nearest-neighbour upsampling over ``(E, N, C, H, W)`` (or NCHW) input."""
    return _fold_spatial(x, lambda t: F.upsample_nearest2d(t, scale))


def batched_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-member cross-entropy: ``(E, N, C)`` logits, ``(E, N)`` labels -> ``(E,)``.

    Member ``e``'s entry equals ``F.cross_entropy(logits[e], targets[e])``, so
    the sum of the vector backpropagates each member's own gradient — the
    reduction every fused multi-net training uses.
    """
    targets = np.asarray(targets)
    if logits.ndim != 3 or targets.shape != logits.shape[:2]:
        raise ValueError(f"expected (E, N, C) logits with (E, N) targets, got "
                         f"{logits.shape} and {targets.shape}")
    e, n, _ = logits.shape
    log_probs = F.log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(e)[:, None], np.arange(n)[None, :], targets]
    return -picked.mean(axis=1)


def batched_mse(prediction: Tensor, target: Tensor) -> Tensor:
    """Per-member mean squared error over stacked ``(E, ...)`` tensors -> ``(E,)``."""
    if prediction.shape != target.shape:
        raise ValueError(f"shape mismatch: {prediction.shape} vs {target.shape}")
    diff = prediction - target
    return (diff * diff).mean(axis=tuple(range(1, prediction.ndim)))


def batched_batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation with per-member affine/statistics ``(E, C)``.

    Matches :func:`repro.nn.functional.batch_norm2d` per member: batch
    statistics and in-place running-stat updates in training mode, running
    statistics in eval mode.  A shared 4-D input broadcasts against the
    per-member parameters, so the output always carries the ensemble axis.
    """
    e, c = gamma.shape
    shared = x.ndim == 4
    members = 1 if shared else e
    profiling.record("batch_norm", 4 * e * (x.size // members))
    if not training:
        # Eval hot path: fold mean/var/affine into one scale-and-shift pair,
        # so the full-size tensor is touched twice instead of four times.
        # Gradients to gamma/beta flow through the small (E, C) precompute.
        inv_std = Tensor(1.0 / np.sqrt(running_var + eps))
        scale = gamma * inv_std
        shift = beta - Tensor(running_mean) * scale
        return x * scale.reshape(e, 1, c, 1, 1) + shift.reshape(e, 1, c, 1, 1)
    axes = (0, 2, 3) if shared else (1, 3, 4)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    if shared:
        batch = x.shape[0] * x.shape[2] * x.shape[3]
    else:
        batch = x.shape[1] * x.shape[3] * x.shape[4]
    unbiased = var.data * batch / max(batch - 1, 1)
    rows = (1, c) if shared else (e, c)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.data.reshape(rows)
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased.reshape(rows)
    x_hat = (x - mean) / (var + eps).sqrt()
    return x_hat * gamma.reshape(e, 1, c, 1, 1) + beta.reshape(e, 1, c, 1, 1)


def _fold_spatial(x: Tensor, op: Callable[[Tensor], Tensor]) -> Tensor:
    """Apply a per-sample NCHW op by folding the ensemble axis into the batch."""
    if x.ndim == 4:
        return op(x)
    e, n = x.shape[0], x.shape[1]
    out = op(x.reshape(e * n, *x.shape[2:]))
    return out.reshape(e, n, *out.shape[1:])


def batched_max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
                       padding: int = 0) -> Tensor:
    """Max pooling over ``(E, N, C, H, W)`` (or shared NCHW) input."""
    return _fold_spatial(x, lambda t: F.max_pool2d(t, kernel_size, stride, padding))


def batched_avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None,
                       padding: int = 0) -> Tensor:
    """Average pooling over ``(E, N, C, H, W)`` (or shared NCHW) input."""
    return _fold_spatial(x, lambda t: F.avg_pool2d(t, kernel_size, stride, padding))


def batched_global_avg_pool2d(x: Tensor) -> Tensor:
    """Spatial global average pooling; ``(E, N, C, H, W)`` -> ``(E, N, C)``."""
    return x.mean(axis=(-2, -1))


# ----------------------------------------------------------------------
# Stacking registry
# ----------------------------------------------------------------------

_STACKERS: dict[type, Callable[[list[Module]], "StackedModule"]] = {}


def register_stacker(module_type: type):
    """Register the stacked counterpart of ``module_type``.

    The decorated callable receives the list of source modules and returns
    the stacked module; composite layers outside this package (residual
    blocks, full bodies) use this to plug into :func:`stack_modules`.
    """

    def decorator(factory):
        _STACKERS[module_type] = factory
        return factory

    return decorator


def stack_modules(modules: Iterable[Module]) -> "StackedModule":
    """Compile architecturally identical modules into one stacked module.

    Raises :class:`UnstackableError` for heterogeneous lists or module types
    without a registered stacker — callers treat that as "use the looped
    path", never as a hard failure.
    """
    modules = list(modules)
    if not modules:
        raise ValueError("need at least one module to stack")
    first_type = type(modules[0])
    if any(type(m) is not first_type for m in modules):
        names = sorted({type(m).__name__ for m in modules})
        raise UnstackableError(f"heterogeneous module types: {names}")
    factory = _STACKERS.get(first_type)
    if factory is None:
        raise UnstackableError(f"no stacker registered for {first_type.__name__}")
    return factory(modules)


def common_attr(modules: list[Module], name: str):
    """The shared value of ``name`` across members, or :class:`UnstackableError`."""
    values = {getattr(m, name) for m in modules}
    if len(values) != 1:
        raise UnstackableError(f"members disagree on {name}: {sorted(values, key=repr)}")
    return values.pop()


class StackedModule(Module):
    """Base class for modules mirroring E identical source modules.

    ``sync_from`` pulls the source modules' parameters/buffers into the
    stacked arrays; ``unstack_to`` writes them back.  The default
    implementations recurse structurally — stacked children are matched to
    same-named attributes of the source modules — so only parameter-holding
    leaves override them.
    """

    num_stacked: int = 0

    def _check_arity(self, modules: list[Module]) -> list[Module]:
        modules = list(modules)
        if len(modules) != self.num_stacked:
            raise ValueError(f"expected {self.num_stacked} modules, got {len(modules)}")
        return modules

    def sync_from(self, modules: list[Module]) -> "StackedModule":
        modules = self._check_arity(modules)
        for name, child in self._modules.items():
            child.sync_from([getattr(m, name) for m in modules])
        return self

    def unstack_to(self, modules: list[Module]) -> "StackedModule":
        modules = self._check_arity(modules)
        for name, child in self._modules.items():
            child.unstack_to([getattr(m, name) for m in modules])
        return self


# ----------------------------------------------------------------------
# Stacked leaves
# ----------------------------------------------------------------------


def _stacked_parameter(tensors: list[Tensor]) -> Parameter:
    shapes = {t.shape for t in tensors}
    if len(shapes) != 1:
        raise UnstackableError(f"parameter shapes differ: {sorted(shapes)}")
    param = Parameter(np.stack([t.data for t in tensors]))
    param.requires_grad = any(t.requires_grad for t in tensors)
    return param


@register_stacker(Conv2d)
class StackedConv2d(StackedModule):
    """E convolutions fused into one :func:`batched_conv2d` call."""

    def __init__(self, convs: list[Conv2d]):
        super().__init__()
        self.num_stacked = len(convs)
        self.stride = common_attr(convs, "stride")
        self.padding = common_attr(convs, "padding")
        if len({conv.bias is None for conv in convs}) != 1:
            raise UnstackableError("members disagree on conv bias")
        self.weight = _stacked_parameter([conv.weight for conv in convs])
        self.bias = (_stacked_parameter([conv.bias for conv in convs])
                     if convs[0].bias is not None else None)
        # Eval-time BN fold for bias-free convs: the folded shift lives in
        # a plain (non-parameter) tensor so ``parameters()`` / state_dict
        # are unchanged by folding.  ``None`` whenever unfolded.
        self._fold_bias: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        bias = self.bias if self._fold_bias is None else self._fold_bias
        return batched_conv2d(x, self.weight, bias, stride=self.stride,
                              padding=self.padding)

    def sync_from(self, convs: list[Conv2d]) -> "StackedConv2d":
        convs = self._check_arity(convs)
        self.weight.data = np.stack([conv.weight.data for conv in convs])
        self.weight.requires_grad = any(conv.weight.requires_grad for conv in convs)
        if self.bias is not None:
            self.bias.data = np.stack([conv.bias.data for conv in convs])
            self.bias.requires_grad = any(conv.bias.requires_grad for conv in convs)
        return self

    def unstack_to(self, convs: list[Conv2d]) -> "StackedConv2d":
        convs = self._check_arity(convs)
        for i, conv in enumerate(convs):
            conv.weight.data = self.weight.data[i].copy()
            if self.bias is not None:
                conv.bias.data = self.bias.data[i].copy()
        return self


@register_stacker(Linear)
class StackedLinear(StackedModule):
    """E affine layers fused into one :func:`batched_linear` call."""

    def __init__(self, linears: list[Linear]):
        super().__init__()
        self.num_stacked = len(linears)
        self.in_features = common_attr(linears, "in_features")
        self.out_features = common_attr(linears, "out_features")
        if len({lin.bias is None for lin in linears}) != 1:
            raise UnstackableError("members disagree on linear bias")
        self.weight = _stacked_parameter([lin.weight for lin in linears])
        self.bias = (_stacked_parameter([lin.bias for lin in linears])
                     if linears[0].bias is not None else None)

    def forward(self, x: Tensor) -> Tensor:
        return batched_linear(x, self.weight, self.bias)

    def sync_from(self, linears: list[Linear]) -> "StackedLinear":
        linears = self._check_arity(linears)
        self.weight.data = np.stack([lin.weight.data for lin in linears])
        self.weight.requires_grad = any(lin.weight.requires_grad for lin in linears)
        if self.bias is not None:
            self.bias.data = np.stack([lin.bias.data for lin in linears])
            self.bias.requires_grad = any(lin.bias.requires_grad for lin in linears)
        return self

    def unstack_to(self, linears: list[Linear]) -> "StackedLinear":
        linears = self._check_arity(linears)
        for i, lin in enumerate(linears):
            lin.weight.data = self.weight.data[i].copy()
            if self.bias is not None:
                lin.bias.data = self.bias.data[i].copy()
        return self


@register_stacker(BatchNorm2d)
class StackedBatchNorm2d(StackedModule):
    """E batch-norm layers with stacked ``(E, C)`` affine and running stats.

    ``record_batch_stats`` mirrors :class:`repro.nn.modules.BatchNorm2d`:
    when enabled, each forward stores the input's differentiable per-member
    batch mean/variance — ``(E, C)`` each for a per-member 5-D input — in
    ``recorded_stats`` without changing the output.  The fused
    DeepInversion-style BN prior of the multi-attack engine reads them.
    """

    def __init__(self, bns: list[BatchNorm2d]):
        super().__init__()
        self.num_stacked = len(bns)
        self.num_features = common_attr(bns, "num_features")
        self.momentum = common_attr(bns, "momentum")
        self.eps = common_attr(bns, "eps")
        self.gamma = _stacked_parameter([bn.gamma for bn in bns])
        self.beta = _stacked_parameter([bn.beta for bn in bns])
        self.register_buffer("running_mean", np.stack([bn.running_mean for bn in bns]))
        self.register_buffer("running_var", np.stack([bn.running_var for bn in bns]))
        self.record_batch_stats = False
        self.recorded_stats: tuple[Tensor, Tensor] | None = None
        # True while this layer's affine map is folded into the preceding
        # stacked conv (see :class:`StackedBodies`): the forward is then a
        # pass-through.  Only ever set in eval mode; ``train()`` unfolds.
        self._folded = False

    def forward(self, x: Tensor) -> Tensor:
        if self._folded and not self.training:
            return x
        if self.record_batch_stats:
            axes = (0, 2, 3) if x.ndim == 4 else (1, 3, 4)
            self.recorded_stats = (x.mean(axis=axes), x.var(axis=axes))
        return batched_batch_norm2d(x, self.gamma, self.beta, self.running_mean,
                                    self.running_var, training=self.training,
                                    momentum=self.momentum, eps=self.eps)

    def sync_from(self, bns: list[BatchNorm2d]) -> "StackedBatchNorm2d":
        bns = self._check_arity(bns)
        self.gamma.data = np.stack([bn.gamma.data for bn in bns])
        self.gamma.requires_grad = any(bn.gamma.requires_grad for bn in bns)
        self.beta.data = np.stack([bn.beta.data for bn in bns])
        self.beta.requires_grad = any(bn.beta.requires_grad for bn in bns)
        self.running_mean[...] = np.stack([bn.running_mean for bn in bns])
        self.running_var[...] = np.stack([bn.running_var for bn in bns])
        return self

    def unstack_to(self, bns: list[BatchNorm2d]) -> "StackedBatchNorm2d":
        bns = self._check_arity(bns)
        for i, bn in enumerate(bns):
            bn.gamma.data = self.gamma.data[i].copy()
            bn.beta.data = self.beta.data[i].copy()
            bn.running_mean[...] = self.running_mean[i]
            bn.running_var[...] = self.running_var[i]
        return self


# ----------------------------------------------------------------------
# Stateless stacked layers
# ----------------------------------------------------------------------


@register_stacker(ConvTranspose2d)
class StackedConvTranspose2d(StackedModule):
    """E transposed convolutions fused into one :func:`batched_conv_transpose2d`.

    The stacker the inversion decoders compile through — with it (plus
    :class:`StackedUpsampleNearest2d` / :class:`StackedSigmoid`) a
    ``build_decoder`` tree stacks end to end.
    """

    def __init__(self, convs: list[ConvTranspose2d]):
        super().__init__()
        self.num_stacked = len(convs)
        self.stride = common_attr(convs, "stride")
        self.padding = common_attr(convs, "padding")
        self.output_padding = common_attr(convs, "output_padding")
        if len({conv.bias is None for conv in convs}) != 1:
            raise UnstackableError("members disagree on conv bias")
        self.weight = _stacked_parameter([conv.weight for conv in convs])
        self.bias = (_stacked_parameter([conv.bias for conv in convs])
                     if convs[0].bias is not None else None)

    def forward(self, x: Tensor) -> Tensor:
        return batched_conv_transpose2d(x, self.weight, self.bias,
                                        stride=self.stride, padding=self.padding,
                                        output_padding=self.output_padding)

    def sync_from(self, convs: list[ConvTranspose2d]) -> "StackedConvTranspose2d":
        convs = self._check_arity(convs)
        self.weight.data = np.stack([conv.weight.data for conv in convs])
        self.weight.requires_grad = any(conv.weight.requires_grad for conv in convs)
        if self.bias is not None:
            self.bias.data = np.stack([conv.bias.data for conv in convs])
            self.bias.requires_grad = any(conv.bias.requires_grad for conv in convs)
        return self

    def unstack_to(self, convs: list[ConvTranspose2d]) -> "StackedConvTranspose2d":
        convs = self._check_arity(convs)
        for i, conv in enumerate(convs):
            conv.weight.data = self.weight.data[i].copy()
            if self.bias is not None:
                conv.bias.data = self.bias.data[i].copy()
        return self


@register_stacker(ReLU)
class StackedReLU(StackedModule):
    def __init__(self, mods: list[ReLU]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


@register_stacker(Sigmoid)
class StackedSigmoid(StackedModule):
    def __init__(self, mods: list[Sigmoid]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


@register_stacker(Tanh)
class StackedTanh(StackedModule):
    def __init__(self, mods: list[Tanh]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


@register_stacker(UpsampleNearest2d)
class StackedUpsampleNearest2d(StackedModule):
    def __init__(self, mods: list[UpsampleNearest2d]):
        super().__init__()
        self.num_stacked = len(mods)
        self.scale = common_attr(mods, "scale")

    def forward(self, x: Tensor) -> Tensor:
        return batched_upsample_nearest2d(x, self.scale)


@register_stacker(Identity)
class StackedIdentity(StackedModule):
    def __init__(self, mods: list[Identity]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return x


@register_stacker(MaxPool2d)
class StackedMaxPool2d(StackedModule):
    def __init__(self, mods: list[MaxPool2d]):
        super().__init__()
        self.num_stacked = len(mods)
        self.kernel_size = common_attr(mods, "kernel_size")
        self.stride = common_attr(mods, "stride")
        self.padding = common_attr(mods, "padding")

    def forward(self, x: Tensor) -> Tensor:
        return batched_max_pool2d(x, self.kernel_size, self.stride, self.padding)


@register_stacker(AvgPool2d)
class StackedAvgPool2d(StackedModule):
    def __init__(self, mods: list[AvgPool2d]):
        super().__init__()
        self.num_stacked = len(mods)
        self.kernel_size = common_attr(mods, "kernel_size")
        self.stride = common_attr(mods, "stride")
        self.padding = common_attr(mods, "padding")

    def forward(self, x: Tensor) -> Tensor:
        return batched_avg_pool2d(x, self.kernel_size, self.stride, self.padding)


@register_stacker(GlobalAvgPool2d)
class StackedGlobalAvgPool2d(StackedModule):
    def __init__(self, mods: list[GlobalAvgPool2d]):
        super().__init__()
        self.num_stacked = len(mods)

    def forward(self, x: Tensor) -> Tensor:
        return batched_global_avg_pool2d(x)


@register_stacker(Flatten)
class StackedFlatten(StackedModule):
    """Flatten per member; a 5-D input keeps its leading ensemble axis."""

    def __init__(self, mods: list[Flatten]):
        super().__init__()
        self.num_stacked = len(mods)
        self.start_dim = common_attr(mods, "start_dim")

    def forward(self, x: Tensor) -> Tensor:
        start = self.start_dim + 1 if x.ndim == 5 else self.start_dim
        return x.flatten(start)


@register_stacker(Sequential)
class StackedSequential(StackedModule):
    """Child-wise stacking of E equally long sequential containers."""

    def __init__(self, seqs: list[Sequential]):
        super().__init__()
        self.num_stacked = len(seqs)
        lengths = {len(seq) for seq in seqs}
        if len(lengths) != 1:
            raise UnstackableError(f"sequential lengths differ: {sorted(lengths)}")
        for i in range(lengths.pop()):
            setattr(self, str(i), stack_modules([seq[i] for seq in seqs]))

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._modules.values():
            x = layer(x)
        return x


# ----------------------------------------------------------------------
# Eval-time BN fold + padding-safety analysis
# ----------------------------------------------------------------------


def find_fold_pairs(module: Module) -> "list[tuple[StackedConv2d, StackedBatchNorm2d]]":
    """Adjacent ``(StackedConv2d, StackedBatchNorm2d)`` pairs, dataflow order.

    Walks the stacked tree and pairs each conv with the batch-norm layer
    registered *immediately after it* in its parent's ``_modules`` order,
    provided the channel counts agree.  Every composite this package (and
    the model registry) ships declares its children in forward-dataflow
    order, which is what makes adjacency a faithful proxy for "the BN is
    applied straight after the conv"; a composite whose attribute order
    diverges from its dataflow must set ``fold_adjacent = False`` on its
    class to opt out of pairing at its own level (children still recurse).
    """
    pairs: list[tuple[StackedConv2d, StackedBatchNorm2d]] = []
    children = list(module._modules.values())
    for child in children:
        pairs.extend(find_fold_pairs(child))
    if not getattr(module, "fold_adjacent", True):
        return pairs
    for first, second in zip(children, children[1:]):
        if (isinstance(first, StackedConv2d)
                and isinstance(second, StackedBatchNorm2d)
                and first.weight.shape[1] == second.num_features):
            pairs.append((first, second))
    return pairs


#: stacked leaves that are pointwise in every coordinate (value may depend
#: on the element only), hence trivially safe under spatial padding.
_POINTWISE_LEAVES = (StackedReLU, StackedSigmoid, StackedTanh, StackedIdentity)


def padding_safe(module: Module) -> bool:
    """True iff zero-padding the spatial border cannot perturb the output
    on the unpadded extent.

    This is the precondition for speculative canvas batching: requests of
    mixed spatial sizes may share one padded canvas pass — each output
    cropped back to its own extent — only when every op in the tree is
    *spatially pointwise*: activations, eval-mode batch norm (per-channel
    affine), and 1x1 / stride-1 / pad-0 convolutions.  Anything with a
    spatial receptive field (wider kernels, pooling) lets border garbage
    contaminate the interior, so it is reported unsafe and the service
    falls back to one exact sub-pass per coalesce key.

    Composites participate by setting ``pointwise_composite = True`` on
    their class, asserting their ``forward`` combines children with
    pointwise arithmetic only (residual adds, activations).
    """
    if isinstance(module, StackedBatchNorm2d):
        # Eval BN is a per-channel affine map; train-mode BN reduces over
        # the spatial axes (padding would shift the batch statistics), and
        # a stat-recording BN must observe its true input extent.
        return not module.training and not module.record_batch_stats
    if isinstance(module, StackedConv2d):
        kh, kw = int(module.weight.shape[3]), int(module.weight.shape[4])
        return (kh == 1 and kw == 1 and module.stride == 1
                and module.padding == 0)
    if isinstance(module, _POINTWISE_LEAVES):
        return True
    if module._modules and getattr(module, "pointwise_composite", False):
        return all(padding_safe(child) for child in module._modules.values())
    return False


# StackedSequential composes its children in sequence with no spatial
# arithmetic of its own, so it is padding-safe iff its children are.
StackedSequential.pointwise_composite = True


# ----------------------------------------------------------------------
# StackedBodies — the server's fused N-body pass
# ----------------------------------------------------------------------


class StackedBodies(StackedModule):
    """All N server bodies compiled into one fused batched forward.

    ``forward`` takes the shared uploaded features ``(N, C, H, W)`` and
    returns the stacked outputs ``(E, N, ...)``; ``forward_list`` unbinds
    them into the per-body list the protocol transmits.  The stacked
    parameters are a *copy* of the source bodies' — call :meth:`sync_from`
    after mutating the bodies (or :meth:`unstack_to` after fine-tuning the
    stacked copy) to keep the two representations interchangeable.

    Eval-time BN fold
    -----------------
    With ``fold_bn=True`` (the default), switching to eval mode folds
    every adjacent conv→batch-norm pair (:func:`find_fold_pairs`) into
    the conv's own weights and bias::

        scale = gamma / sqrt(running_var + eps)        # (E, C)
        W'    = W * scale                              # per out-channel
        b'    = beta - running_mean * scale + b * scale

    after which the batch-norm forward is a pass-through — the eval hot
    path drops two full-tensor touches (and two allocations) per BN
    layer.  The fold is a pure ``.data`` swap: the original weight/bias
    arrays are stashed by object identity, ``train()`` restores them
    bit-exactly (optimizer steps always run on the unfolded tree), and
    ``sync_from`` / ``unstack_to`` / ``state_dict`` / ``load_state_dict``
    transparently unfold around their work so the folded representation
    never leaks out of the engine.  Pairs whose BN is recording batch
    statistics at fold time are left unfolded (the recorder must observe
    its true input).  The fold also yields to autograd: a forward with
    gradients enabled transparently unfolds first (BN parameters must
    participate in the graph) and the next ``no_grad`` forward re-folds.
    Folded outputs match unfolded outputs to float32 rounding (≪ 1e-5);
    the differential parity suite pins this down.
    """

    #: forward only composes the stacked tree (padding safety delegates).
    pointwise_composite = True

    def __init__(self, bodies: list[Module], fold_bn: bool = True):
        super().__init__()
        bodies = list(bodies)
        if not bodies:
            raise ValueError("need at least one body to stack")
        self.num_stacked = len(bodies)
        self.stacked = stack_modules(bodies)
        # Stacked trees with any state (parameters OR buffers, e.g. a pure
        # FixedGaussianNoise ensemble) emit the ensemble axis themselves;
        # only fully stateless trees pass the shared input through unchanged.
        self._parametric = (len(self.stacked.parameters()) > 0
                            or next(self.stacked.named_buffers(), None) is not None)
        self.fold_bn = fold_bn
        self._fold_pairs = find_fold_pairs(self.stacked) if fold_bn else []
        self._fold_state: list[dict] = []
        self._folded = False

    @classmethod
    def try_build(cls, bodies: list[Module], eval_mode: bool | None = None,
                  fold_bn: bool = True) -> "StackedBodies | None":
        """Build a stacked engine, or ``None`` when the bodies can't be fused.

        The standard construct-or-fall-back used everywhere a batched backend
        is optional.  ``eval_mode`` forces train/eval on the result; ``None``
        inherits the first body's mode.  ``fold_bn`` controls the eval-time
        conv←BN fold (on by default; see the class docstring).
        """
        try:
            stacked = cls(bodies, fold_bn=fold_bn)
        except UnstackableError:
            return None
        mode = bodies[0].training if eval_mode is None else not eval_mode
        stacked.train(mode)
        return stacked

    @property
    def num_bodies(self) -> int:
        return self.num_stacked

    @property
    def folded(self) -> bool:
        """True while conv←BN pairs are folded (eval mode, ``fold_bn``)."""
        return self._folded

    def padding_safe(self) -> bool:
        """Whether the compiled tree admits speculative canvas batching."""
        return padding_safe(self.stacked)

    # -- fold state machine ---------------------------------------------

    def train(self, mode: bool = True) -> "StackedBodies":
        if mode:
            self._unfold()
        super().train(mode)
        if not mode and self.fold_bn:
            self._fold()
        return self

    def _fold(self) -> None:
        if self._folded:
            return
        for conv, bn in self._fold_pairs:
            if bn.record_batch_stats:
                continue  # the recorder must observe its true input
            scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)  # (E, C)
            shift = bn.beta.data - bn.running_mean * scale
            self._fold_state.append({
                "conv": conv, "bn": bn, "weight": conv.weight.data,
                "bias": None if conv.bias is None else conv.bias.data,
            })
            conv.weight.data = conv.weight.data * scale[:, :, None, None, None]
            if conv.bias is not None:
                conv.bias.data = shift + conv.bias.data * scale
            else:
                conv._fold_bias = Tensor(shift)
            bn._folded = True
        self._folded = True

    def _unfold(self) -> None:
        if not self._folded:
            return
        for state in self._fold_state:
            conv, bn = state["conv"], state["bn"]
            conv.weight.data = state["weight"]  # original array objects:
            if state["bias"] is not None:       # bit-exact restoration
                conv.bias.data = state["bias"]
            conv._fold_bias = None
            bn._folded = False
        self._fold_state = []
        self._folded = False

    def _unfolded_call(self, fn):
        """Run ``fn`` on the unfolded tree, re-folding afterwards.

        Weight traffic (sync, unstack, checkpoints) must always see the
        true parameters; the re-fold recomputes from whatever ``fn``
        wrote, so a sync while serving folded stays correct.
        """
        refold = self._folded
        self._unfold()
        try:
            return fn()
        finally:
            if refold and not self.training and self.fold_bn:
                self._fold()

    # -- forward / weight traffic ---------------------------------------

    def forward(self, features: Tensor) -> Tensor:
        if self.fold_bn and not self.training:
            # The fold only holds while gradients are off: a grad-recording
            # eval pass (attack replays, fine-tuning probes) must see the
            # true conv/BN parameters so their gradients flow.  Both calls
            # are no-ops when the state already matches.
            if is_grad_enabled():
                self._unfold()
            else:
                self._fold()
        out = self.stacked(features)
        if not self._parametric:
            # Degenerate all-stateless ensemble: the shared input passed
            # through untouched, so materialise the ensemble axis explicitly.
            out = tensor_stack([out] * self.num_stacked)
        return out

    def forward_list(self, features: Tensor) -> list[Tensor]:
        return unbind(self.forward(features))

    def sync_from(self, bodies: list[Module]) -> "StackedBodies":
        bodies = self._check_arity(bodies)
        self._unfolded_call(lambda: self.stacked.sync_from(bodies))
        return self

    def unstack_to(self, bodies: list[Module]) -> "StackedBodies":
        bodies = self._check_arity(bodies)
        self._unfolded_call(lambda: self.stacked.unstack_to(bodies))
        return self

    def state_dict(self) -> dict[str, np.ndarray]:
        return self._unfolded_call(lambda: super(StackedBodies, self).state_dict())

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self._unfolded_call(
            lambda: super(StackedBodies, self).load_state_dict(state))
