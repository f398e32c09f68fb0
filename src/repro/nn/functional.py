"""Neural-network operations on :class:`~repro.nn.tensor.Tensor`.

Convolution is implemented with the classic im2col/col2im lowering so that the
heavy lifting happens inside BLAS matmuls; everything else composes existing
autograd primitives where possible and falls back to hand-written backward
closures where composition would be wasteful.  The grad-mode hot spots of a
training step all have one: training-mode batch norm (closed-form backward
in place of a chain of mean/var/sqrt/divide nodes), max pooling (per-tap
masks in place of argmax and a scatter) and the stride-1 conv input
gradient (a conv of the output gradient on the blocked no-grad kernel in
place of a col2im scatter).

Convolution, transposed convolution and batch norm each have one kernel,
written for E members stacked on a leading axis (:func:`batched_conv2d`,
:func:`batched_conv_transpose2d`, :func:`batched_batch_norm2d`); the
per-net :func:`conv2d`, :func:`conv_transpose2d` and :func:`batch_norm2d`
are their E = 1 case, so client heads, per-net training and the stacked
server pass share one lowering.
"""

from __future__ import annotations

import numpy as np

from repro.nn import profiling
from repro.nn.arena import active_arena
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


def _col2im(cols: np.ndarray, x_shape: tuple[int, ...], stride: int,
            padding: int) -> np.ndarray:
    """Scatter-add column gradients ``(..., C, kh, kw, oh, ow)`` (any
    strides) back to input layout ``x_shape`` (inverse of im2col)."""
    kh, kw, out_h, out_w = cols.shape[-4:]
    h, w = x_shape[-2:]
    x_pad = np.zeros(x_shape[:-2] + (h + 2 * padding, w + 2 * padding),
                     dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            x_pad[..., i:i_end:stride, j:j_end:stride] += cols[..., i, j, :, :]
    if padding:
        return x_pad[..., padding:-padding, padding:-padding]
    return x_pad


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
    ``(out_c, K)`` otherwise — and writes the result into the fresh output
    while the block is still in cache.  A block holds images of one
    member, or whole members when they fit.  The bias rides in the GEMM:
    the columns carry a row of ones and the weight matrix a bias column.

    Each channel's pad canvas is flat, with rows ``wp = max(w + p, ow)``
    floats wide, so a row's right pad is the next row's left pad: a tap
    reads at most ``p`` floats past a row's end, all in that left pad.
    The canvas ends with the last row's right pad.  Stride-1 kernels lower
    whole rows: the column row of kernel tap ``(i, j)`` is the run of
    ``(oh−1)·wp + ow`` floats starting at offset ``i·wp + j``, so the GEMM
    yields ``wp``-wide output rows whose last ``wp − ow`` entries (which
    straddle a row break) are cropped.  A 1x1 stride-1 pad-0 kernel lowers
    nothing: its block is the input, and its bias is a separate add.

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
    hp = h + 2 * padding
    wp = max(w + padding, out_w)
    plane = hp * wp + w + 2 * padding - wp  # one channel's flat canvas
    pointwise = kh == kw == 1 and stride == 1 and padding == 0
    fused = bias is not None and not pointwise
    k = in_c * kh * kw
    kb = k + fused  # column rows, the ones row included
    run_w = wp if stride == 1 else out_w
    length = out_h * run_w
    crop = run_w != out_w
    dtype = np.result_type(weight.dtype, x.dtype)
    rows = e * out_c if shared else out_c
    wmat = weight.reshape(members, 1, rows, k)
    if bias is not None:
        bias = bias.reshape(members, 1, rows, 1)
    if fused:  # a bias column; only a pointwise kernel adds the bias after
        wmat = np.concatenate((wmat, bias), axis=-1, dtype=wmat.dtype)
        bias = None
    out = np.empty((e, n, out_c, out_h, out_w), dtype=dtype)
    block = max(1, BLOCK_BYTES // (kb * length * x.itemsize))

    def scratch(tag, shape, dt):
        if arena is None:
            return np.empty(shape, dtype=dt)
        return arena.take(tag, shape, dt)

    if padding:
        # Borders are zeroed once; blocks only overwrite the interior.
        canvas = scratch("pad", (block, c, plane), x.dtype)
        canvas.fill(0)
        interior = canvas[..., :hp * wp].reshape(block, c, hp, wp)[
            ..., padding:padding + h, padding:padding + w]
    cols = None if pointwise else scratch("cols", (block, kb, length), x.dtype)
    # Blocks write only the taps' runs; the rest of the columns is set
    # here, on every call, since arena scratch is undefined.
    run = (out_h - 1) * wp + out_w  # a stride-1 tap's run
    if stride == 1 and not pointwise:
        # feeds cropped outputs only; zeros keep stale bits (denormals
        # are slow) out of the GEMM
        cols[:, :k, run:] = 0
    if fused:
        cols[:, k] = 1
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
            interior[:count] = src
            src = canvas[:count]
        if pointwise:
            lowered = src
        else:
            lowered = cols[:count]
            s0, s1 = src.strides[:2]
            s2, s3 = wp * src.itemsize, src.itemsize
            taps = lowered[:, :k].reshape(count, c, kh, kw, length)
            # Tap views over the contiguous block, built with the ndarray
            # constructor: ``as_strided`` costs ~15 µs of Python per call.
            if stride == 1:
                np.copyto(taps[..., :run], np.ndarray(
                    (count, c, kh, kw, run), src.dtype, src, 0,
                    (s0, s1, s2, s3, s3)))
            else:
                np.copyto(taps.reshape(count, c, kh, kw, out_h, out_w),
                          np.ndarray((count, c, kh, kw, out_h, out_w),
                                     src.dtype, src, 0,
                                     (s0, s1, s2, s3, s2 * stride,
                                      s3 * stride)))
        lowered = lowered.reshape(me, nb, kb, length)
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


# ----------------------------------------------------------------------
# Convolution
# ----------------------------------------------------------------------


def _member_input(x: Tensor, e: int, in_c: int) -> tuple[bool, tuple[int, ...]]:
    """Whether a stacked-conv input is shared, and its per-member NCHW shape."""
    if x.ndim not in (4, 5):
        raise ValueError(f"expected 4-D (shared) or 5-D input, got {x.shape}")
    if x.ndim == 5 and x.shape[0] != e:
        raise ValueError(f"input carries {x.shape[0]} members, weight has {e}")
    if x.shape[-3] != in_c:
        raise ValueError(f"weight expects {in_c} input channels, got {x.shape[-3]}")
    return x.ndim == 4, x.shape[-4:]


def _conv_weight_grad(x: np.ndarray, g: np.ndarray, kh: int, kw: int,
                      stride: int, padding: int) -> np.ndarray:
    """Weight gradient ``(E, out_c, C, kh, kw)`` of a stacked convolution.

    ``x`` is the input, shared ``(N, C, H, W)`` or per-member
    ``(E, N, C, H, W)``; ``g`` is the output gradient
    ``(E, N, out_c, oh, ow)``.  The input is padded and lowered again one
    member at a time into reused buffers (a shared input once, its GEMM
    rows covering every member's kernels).

    Where an image has at most half as many output positions as a column
    has taps (the 8x8-and-smaller body convs), the contraction over the
    batch and the output positions is one GEMM per member of inner
    dimension N·oh·ow: over 10 members an 8x8 conv with 144 taps takes
    1.6 ms that way and 4.1 ms per image.  Its ``(N·oh·ow, kh·kw·C)`` rows
    come from a channels-last canvas, so each copied run is ``kw·C``
    floats long rather than ``ow``.  Elsewhere per-image GEMMs over
    ``(C·kh·kw, oh·ow)`` columns are summed over the batch in image order;
    for the 3-channel 16x16 stem (27 taps, 256 positions) that is the
    faster form, 1.2 ms against 2.8 ms as one GEMM.
    """
    e, n, out_c, out_h, out_w = g.shape
    members = 1 if x.ndim == 4 else e
    c, h, w = x.shape[-3:]
    k, length = c * kh * kw, out_h * out_w
    rows = out_c * e // members
    g = g.reshape(e, n, out_c, length)
    if members < e:  # (1, N, E·out_c, L): one input, every member's rows
        g = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(1, n, rows, length)
    images = x.reshape(members, n, c, h, w)
    per_image = 2 * length > k
    hp, wp = h + 2 * padding, w + 2 * padding
    # zero borders, written once; each member overwrites the interior
    if per_image:
        canvas = np.zeros((n, c, hp, wp), dtype=x.dtype)
        interior = canvas[:, :, padding:padding + h, padding:padding + w]
        lowered = np.empty((n, c, kh, kw, out_h, out_w), dtype=x.dtype)
    else:
        canvas = np.zeros((n, hp, wp, c), dtype=x.dtype)
        interior = canvas[:, padding:padding + h, padding:padding + w]
        lowered = np.empty((n, out_h, out_w, kh, kw, c), dtype=x.dtype)
        g_t = np.empty((rows, n, length), dtype=g.dtype)
    s0, s1, s2, s3 = canvas.strides
    windows = np.ndarray(lowered.shape, x.dtype, canvas, 0,
                         (s0, s1, s2, s3, s2 * stride, s3 * stride) if per_image
                         else (s0, s1 * stride, s2 * stride, s1, s2, s3))
    dw = np.empty((members, rows, k), dtype=g.dtype)
    for m in range(members):
        np.copyto(interior, images[m] if per_image else images[m].transpose(0, 2, 3, 1))
        np.copyto(lowered, windows)
        if per_image:
            np.matmul(g[m], lowered.reshape(n, k, length).transpose(0, 2, 1)).sum(
                axis=0, out=dw[m])
        else:
            np.copyto(g_t, g[m].transpose(1, 0, 2))
            np.matmul(g_t.reshape(rows, n * length), lowered.reshape(n * length, k),
                      out=dw[m])
    if per_image:
        return dw.reshape(e, out_c, c, kh, kw)
    return dw.reshape(e, out_c, kh, kw, c).transpose(0, 1, 4, 2, 3)


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

    The forward always runs the cache-blocked kernel of
    :func:`_conv2d_nograd`, which sums the bias inside its GEMM (a 1x1
    stride-1 pad-0 conv adds it after).  Its scratch comes from the active
    :class:`~repro.nn.arena.TensorArena` only when no backward will be
    wired (gradients disabled, or no operand requires them); a wired op
    takes fresh scratch and keeps nothing but its operands.

    The backward lowers the input again for the weight gradient (see
    :func:`_conv_weight_grad`).  The input gradient of a stride-1 square
    kernel with padding ≤ k − 1 is the stride-1 conv of the output
    gradient, padded by k − 1 − p, with the flipped kernels and in/out
    channels swapped; it runs on :func:`_conv2d_nograd` with fresh scratch
    (never the arena's), on rows ``ow + k − 1 − p`` wide that share their
    pad columns, and a shared input folds the E members into the channel
    axis so one GEMM also sums over members.  Strided kernels
    scatter tap by tap in a channels-last canvas: per tap one GEMM per
    member (one over E·out_c for a shared input) maps the output gradient
    to whole ``(N, C)`` rows, so each scatter-add runs over N·C contiguous
    floats rather than a ``ow``-wide row.
    """
    e, out_c, in_c, kh, kw = weight.shape
    shared, (n, c, h, w) = _member_input(x, e, in_c)
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(f"convolution output would be empty for input {x.shape}")

    parents = (x, weight) if bias is None else (x, weight, bias)
    wired = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = _conv2d_nograd(x.data, weight.data, None if bias is None else bias.data,
                         stride, padding, out_h, out_w,
                         None if wired else active_arena())
    profiling.record("conv2d", 2 * e * n * out_c * out_h * out_w * in_c * kh * kw)
    if bias is not None:
        profiling.record("bias", e * n * out_c * out_h * out_w)
    if not wired:
        return Tensor(out, dtype=out.dtype)

    adjoint = stride == 1 and kh == kw and padding <= kh - 1  # see docstring

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 3, 4)))
        if weight.requires_grad:
            weight._accumulate(_conv_weight_grad(x.data, g, kh, kw, stride, padding))
        if not x.requires_grad:
            return
        if adjoint:
            flipped = weight.data[..., ::-1, ::-1]
            if shared:  # members fold into channels: one GEMM sums over E
                wt = flipped.transpose(2, 0, 1, 3, 4).reshape(
                    1, in_c, e * out_c, kh, kw)
                g_in = np.ascontiguousarray(g.transpose(1, 0, 2, 3, 4)).reshape(
                    n, e * out_c, out_h, out_w)
            else:
                wt, g_in = flipped.transpose(0, 2, 1, 3, 4), g
            dx = _conv2d_nograd(g_in, np.ascontiguousarray(wt), None, 1,
                                kh - 1 - padding, h, w, None)
            x._accumulate(dx.reshape(x.shape))
            return
        members = 1 if shared else e
        g_cl = np.ascontiguousarray(g.transpose(3, 4, 1, 0, 2)).reshape(
            out_h * out_w * n, e, out_c)
        if shared:
            g_cl = g_cl.reshape(1, -1, e * out_c)
            taps = weight.data.reshape(1, e * out_c, in_c, kh, kw)
        else:
            g_cl = g_cl.transpose(1, 0, 2)
            taps = weight.data
        x_pad = np.zeros((members, h + 2 * padding, w + 2 * padding, n, c), dtype=g.dtype)
        for i in range(kh):
            for j in range(kw):
                x_pad[:, i:i + stride * out_h:stride, j:j + stride * out_w:stride] += \
                    np.matmul(g_cl, taps[..., i, j]).reshape(members, out_h, out_w, n, c)
        dx = x_pad[:, padding:padding + h, padding:padding + w].transpose(0, 3, 4, 1, 2)
        x._accumulate(dx.reshape(x.shape))

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
    Implemented directly as the adjoint of the strided convolution: one
    batched matmul over the *input* positions followed by a strided col2im
    scatter — the column buffer is ``stride²`` times smaller than the
    classic dilate-then-convolve lowering (whose im2col runs over the
    zero-dilated map), which matters on the fused decoder-training hot
    path.  A shared 4-D input is lowered once and all E kernels apply as a
    single ``(E·out_c·kh·kw, in_c)`` matmul; a per-member 5-D input uses
    one batched matmul.  Output is ``(E, N, out_c, oh, ow)``.
    """
    e, in_c, out_c, kh, kw = weight.shape
    if padding > kh - 1 or padding > kw - 1:
        raise ValueError("padding must be at most kernel_size - 1")
    if output_padding >= stride:
        raise ValueError("output_padding must be smaller than stride")
    shared, (n, c, h, w) = _member_input(x, e, in_c)
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
    out = _col2im(cols.reshape(e, n, out_c, kh, kw, h, w),
                  (e, n, out_c, out_h, out_w), stride, padding)
    profiling.record("conv2d", 2 * e * n * c * k * length)
    if bias is not None:  # in place: ``out`` is the fresh col2im canvas
        out += bias.data.reshape(e, 1, out_c, 1, 1)
        profiling.record("bias", e * n * out_c * out_h * out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g: np.ndarray) -> None:
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 3, 4)))
        # The im2col windows cover exactly the positions the forward
        # scattered to; the output_padding margin is constant zero, so its
        # incoming gradient is dropped (count stays h*w since op < stride).
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


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)``.  The
    one-member case of :func:`batched_conv2d`.
    """
    out = batched_conv2d(x, weight.reshape(1, *weight.shape),
                         None if bias is None else bias.reshape(1, -1),
                         stride, padding)
    return out.reshape(out.shape[1:])


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
                     stride: int = 1, padding: int = 0,
                     output_padding: int = 0) -> Tensor:
    """Transposed 2-D convolution (a.k.a. deconvolution).

    ``weight`` has shape ``(in_channels, out_channels, kh, kw)`` following the
    PyTorch convention.  The one-member case of
    :func:`batched_conv_transpose2d`.
    """
    out = batched_conv_transpose2d(x, weight.reshape(1, *weight.shape),
                                   None if bias is None else bias.reshape(1, -1),
                                   stride, padding, output_padding)
    return out.reshape(out.shape[1:])


# ----------------------------------------------------------------------
# Pooling
# ----------------------------------------------------------------------


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None, padding: int = 0) -> Tensor:
    """Max pooling over the trailing two axes (NCHW, or any leading axes);
    supports overlapping windows.

    The ``kh·kw`` strided tap views are reduced with ``np.maximum``, with
    or without gradients: no window array, no argmax.  Taps run last to
    first because ``np.maximum`` returns its second operand on a tie, so
    equal-valued ``±0`` resolve to the first tap as argmax does.

    The backward routes each window's gradient to its first tap equal to
    the max, or to its first NaN in a window holding one (``np.maximum``
    propagates NaN), walking the taps in order with a mask of windows
    still open.  Overlapping windows add ``g·mask`` into each tap's
    strided view of a zeroed gradient, so they sum a shared input's
    contributions tap by tap, not window by window.  When kernel ==
    stride and padding is 0 the tap views tile the input: each is written
    once into an uninitialised gradient (as ``g·mask + 0``, the value the
    zeroed sum would hold, signed zeros included) and only the margin no
    window covers is zeroed.
    """
    stride = kernel_size if stride is None else stride
    h, w = x.shape[-2:]
    kh = kw = kernel_size
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding:
        pad = ((0, 0),) * (x.ndim - 2) + ((padding, padding),) * 2
        x_pad = np.pad(x.data, pad, constant_values=-np.inf)
    else:
        x_pad = x.data
    profiling.record("max_pool", x.size // (h * w) * out_h * out_w * kh * kw)

    def tap(i: int, j: int) -> tuple[slice, slice]:
        return (slice(i, i + stride * (out_h - 1) + 1, stride),
                slice(j, j + stride * (out_w - 1) + 1, stride))

    out = None
    for i in reversed(range(kh)):
        for j in reversed(range(kw)):
            view = x_pad[(..., *tap(i, j))]
            out = view.copy() if out is None else np.maximum(out, view, out=out)
    if not (is_grad_enabled() and x.requires_grad):
        return Tensor(out, dtype=out.dtype)

    def backward(g: np.ndarray) -> None:
        tiled = stride == kernel_size and not padding
        if tiled:  # every input is in at most one window
            grad_pad = np.empty_like(x_pad, dtype=g.dtype)
            grad_pad[..., stride * out_h:, :] = 0
            grad_pad[..., :stride * out_h, stride * out_w:] = 0
        else:
            grad_pad = np.zeros_like(x_pad, dtype=g.dtype)
        nan = bool(np.isnan(out).any())
        # g·mask is ~4x faster than np.where but spreads a non-finite g
        finite = bool(np.isfinite(g).all())
        open_ = np.ones(out.shape, dtype=bool)  # windows not yet routed
        for i in range(kh):
            for j in range(kw):
                view = (..., *tap(i, j))
                first = x_pad[view] == out
                if nan:  # a NaN window routes to its first NaN
                    first |= np.isnan(x_pad[view])
                first &= open_
                open_ ^= first
                routed = g * first if finite else np.where(first, g, 0)
                if tiled:
                    np.add(routed, 0, out=grad_pad[view])
                else:
                    grad_pad[view] += routed
        if padding:
            grad_pad = grad_pad[..., padding:-padding, padding:-padding]
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

    Batch statistics and in-place running-stat updates in training mode,
    running statistics in eval mode.  A shared 4-D input broadcasts against
    the per-member parameters, so the output always carries the ensemble
    axis.

    Training mode is one op: the forward keeps x̂ = (x − μ)/σ and σ, and
    the backward is closed form — dβ = Σg, dγ = Σg·x̂ and, with ĝ = g·γ,
    dx = (ĝ − mean ĝ − x̂·mean(ĝ·x̂))/σ, where ĝ is summed over E first
    for a shared input.  The statistics, x̂, dγ and dβ are computed as the
    autograd chain of mean, var, sqrt and divide computes them, so the
    affine gradients agree with it even where Σg·x̂ cancels.  Each pass
    allocates at most one full-size temporary: the forward squares into
    its output buffer, and a per-member dx is built in place in the
    gradient the tape hands over.
    """
    e, c = gamma.shape
    shared = x.ndim == 4
    members = 1 if shared else e
    profiling.record("batch_norm", 4 * e * (x.size // members))
    if not training:
        # Eval hot path: fold mean/var/affine into one scale-and-shift pair,
        # so the full-size tensor is touched twice instead of four times.
        # Gradients to gamma/beta flow through the small (E, C) precompute,
        # which takes the input's dtype so float64 gradchecks stay exact.
        dtype = x.data.dtype
        inv_std = Tensor(1.0 / np.sqrt(running_var + eps), dtype=dtype)
        scale = gamma * inv_std
        shift = beta - Tensor(running_mean, dtype=dtype) * scale
        return x * scale.reshape(e, 1, c, 1, 1) + shift.reshape(e, 1, c, 1, 1)
    axes = (0, 2, 3) if shared else (1, 3, 4)
    mean = x.data.mean(axis=axes, keepdims=True)
    x_hat = x.data - mean
    out = np.empty((e,) + x_hat.shape[-4:], dtype=np.result_type(x_hat, gamma.data))
    squares = out[0] if shared else out  # scratch until ``out`` is written
    var = np.multiply(x_hat, x_hat, out=squares).mean(axis=axes, keepdims=True)
    batch = x.size // (members * c)
    unbiased = var * batch / max(batch - 1, 1)
    rows = (1, c) if shared else (e, c)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.reshape(rows)
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased.reshape(rows)
    std = np.sqrt(var + eps)
    x_hat /= std
    np.multiply(x_hat, gamma.data.reshape(e, 1, c, 1, 1), out=out)
    out += beta.data.reshape(e, 1, c, 1, 1)

    def backward(g: np.ndarray) -> None:
        g_sum = g.sum(axis=(1, 3, 4))
        # one full-size scratch: g·x̂ for dγ, then x̂·slope for dx
        scratch = np.multiply(g, x_hat)
        gx_sum = scratch.sum(axis=(1, 3, 4))
        if beta.requires_grad:
            beta._accumulate(g_sum)
        if gamma.requires_grad:
            gamma._accumulate(gx_sum)
        if not x.requires_grad:
            return
        # dx = (ĝ − mean ĝ − x̂·mean(ĝ·x̂)) / σ; both means are γ times the
        # (E, C) sums above over the batch count, and 1/σ folds into the
        # three per-channel coefficients.
        scale = gamma.data / std.reshape(rows)
        shift = scale * g_sum / batch
        slope = scale * gx_sum / batch
        if shared:  # x̂ feeds every member: sum ĝ over E first
            dx = (g * scale.reshape(e, 1, c, 1, 1)).sum(axis=0)
            shift, slope = shift.sum(axis=0), slope.sum(axis=0)
            fitted = np.multiply(x_hat, slope.reshape(std.shape), out=scratch[0])
        else:  # the tape hands ``g`` over, so dx is built in it
            dx = np.multiply(g, scale.reshape(e, 1, c, 1, 1), out=g)
            fitted = np.multiply(x_hat, slope.reshape(std.shape), out=scratch)
        dx -= shift.reshape(std.shape)
        dx -= fitted
        x._accumulate(dx)

    return Tensor._make(out, (x, gamma, beta), backward)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray,
                 running_var: np.ndarray, training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalisation over (N, H, W) per channel.

    In training mode batch statistics are used and running statistics are
    updated in place; in eval mode the running statistics are used.  The
    one-member case of :func:`batched_batch_norm2d`.
    """
    # A 1-D buffer reshapes to a view, so the running-stat update lands in it.
    out = batched_batch_norm2d(x, gamma.reshape(1, -1), beta.reshape(1, -1),
                               running_mean.reshape(1, -1), running_var.reshape(1, -1),
                               training, momentum, eps)
    return out.reshape(x.shape)


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
