"""Differential tests for the no-grad conv kernel and the eval max-pool.

:func:`repro.nn.functional.batched_conv2d` runs one cache-blocked kernel
whenever no backward will be wired: it pads onto a canvas whose
neighbouring rows share their pad columns, lowers (whole rows for
stride-1 kernels) and multiplies a block of images at a time, with the
bias summed inside the GEMM and scratch from the active arena or
freshly allocated.  The per-net :func:`repro.nn.functional.conv2d` is
its E = 1 case.  Checked here over random layer geometries, with the
block budget shrunk so that batches fall on both sides of a block
boundary:

* a NaN-poisoned arena is bit-equal to no arena (the kernel is the
  same, only its scratch moves);
* every entry point — per-net and stacked, grad and no-grad, shared and
  per-member input — agrees with the direct-sum reference of
  :mod:`tests.helpers` (float64 tap loops, no im2col) to 1e-5, at the op
  level, and the stacked ``Server`` agrees with ``Server(backend="looped")``;
* the grad path (the same kernel on fresh scratch; its weight gradient
  lowers the input again, so nothing is kept between forward and
  backward) matches the per-net ops in outputs and gradients, and never
  touches the arena.

:func:`repro.nn.functional.max_pool2d` reduces the strided tap views
with ``np.maximum`` in grad and no-grad mode alike; both must be
bit-identical to the window-argmax reference of :mod:`tests.helpers`,
NaNs and signed zeros included.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ci.pipeline import Server
from repro.nn import batched
from repro.nn import functional as F
from repro.nn.arena import TensorArena, use_arena
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng
from tests.helpers import argmax_max_pool2d, direct_conv2d


def images_per_block_budget(in_c, k, stride, padding, h, w, images, bias):
    """``BLOCK_BYTES`` that makes one block hold exactly ``images`` images.

    Mirrors the kernel's column block: stride-1 kernels lower whole rows
    ``max(w + p, ow)`` wide (neighbouring rows share their pad columns),
    strided ones ``ow``-wide output rows, and a bias adds a row of ones
    wherever the kernel lowers at all (not for a 1x1 stride-1 pad-0 one).
    """
    out_h = (h + 2 * padding - k) // stride + 1
    out_w = (w + 2 * padding - k) // stride + 1
    pointwise = k == 1 and stride == 1 and padding == 0
    row = max(w + padding, out_w) if stride == 1 else out_w
    rows = in_c * k * k + (bias and not pointwise)
    return images * rows * out_h * row * 4


@contextlib.contextmanager
def threads(workers):
    """Run every multi-block no-grad conv call on ``workers`` threads:
    patch the worker count and drop the dispatch bound."""
    with mock.patch.object(F, "kernel_workers", return_value=workers), \
            mock.patch.object(F, "PARALLEL_BYTES", 0):
        yield


def looped_conv(x, w, b, stride, padding):
    """Per-member direct-sum reference, stacked to ``(E, N, ...)``."""
    return np.stack([direct_conv2d(x if x.ndim == 4 else x[m], w[m], b[m],
                                   stride, padding)
                     for m in range(w.shape[0])])


@st.composite
def geometry(draw):
    """A layer and a batch one short of, at or past a block boundary.

    Padding runs to k, so stride-1 layers fall on both sides of the row
    rule ``max(w + p, ow)`` (``p ≤ k − 1`` gives rows ``w + p`` wide, wider
    padding rows ``ow`` wide), on non-square inputs whose rows go down to
    one pixel.
    """
    k = draw(st.sampled_from([1, 2, 3, 5]))
    padding = draw(st.integers(0, k))
    least = max(1, k - 2 * padding)  # an output at least 1x1
    return {
        "shared": draw(st.booleans()),
        "k": k,
        "stride": draw(st.sampled_from([1, 2])),
        "padding": padding,
        "members": draw(st.integers(1, 3)),
        "in_c": draw(st.integers(1, 4)),
        "out_c": draw(st.integers(1, 4)),
        "h": draw(st.integers(least, 7)),
        "w": draw(st.integers(least, 7)),
        "block": draw(st.integers(1, 3)),
        # batch relative to the block: one short, exact, one over, two+ blocks
        "offset": draw(st.sampled_from([-1, 0, 1, None])),
        "seed": draw(st.integers(0, 10_000)),
    }


def make_case(g):
    block = g["block"]
    n = 2 * block + 1 if g["offset"] is None else max(1, block + g["offset"])
    rng = np.random.default_rng(g["seed"])
    e = g["members"]
    lead = (n,) if g["shared"] else (e, n)
    x = rng.standard_normal(lead + (g["in_c"], g["h"], g["w"])).astype(np.float32)
    w = (0.3 * rng.standard_normal((e, g["out_c"], g["in_c"], g["k"], g["k"])
                                   )).astype(np.float32)
    b = rng.standard_normal((e, g["out_c"])).astype(np.float32)
    budget = images_per_block_budget(g["in_c"], g["k"], g["stride"], g["padding"],
                                     g["h"], g["w"], block, bias=True)
    return x, w, b, budget


class TestNoGradConvKernel:
    @settings(max_examples=80, deadline=None)
    @given(g=geometry())
    def test_arena_is_bit_equal_and_matches_looped(self, g):
        x, w, b, budget = make_case(g)
        s, p = g["stride"], g["padding"]
        with mock.patch.object(F, "BLOCK_BYTES", budget), no_grad():
            plain = F.batched_conv2d(Tensor(x), Tensor(w), Tensor(b), s, p).data
            arena = TensorArena()
            for _ in range(2):  # allocate, poison, then run on stale NaNs
                with use_arena(arena):
                    pooled = F.batched_conv2d(
                        Tensor(x), Tensor(w), Tensor(b), s, p).data
                arena.poison()
        # only a per-member pointwise conv runs without scratch
        pointwise = g["k"] == s == 1 and p == 0
        assert (arena.num_buffers == 0) == (pointwise and not g["shared"])
        np.testing.assert_array_equal(pooled, plain)
        np.testing.assert_allclose(plain, looped_conv(x, w, b, s, p), atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(g=geometry())
    def test_grad_path_matches_looped_and_skips_arena(self, g):
        x, w, b, budget = make_case(g)
        s, p = g["stride"], g["padding"]
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        arena = TensorArena()
        with mock.patch.object(F, "BLOCK_BYTES", budget):
            with use_arena(arena):
                out = F.batched_conv2d(xt, wt, bt, s, p)
            with no_grad():
                fast = F.batched_conv2d(Tensor(x), Tensor(w), Tensor(b), s, p)
        assert out.requires_grad and arena.num_buffers == 0
        np.testing.assert_allclose(out.data, fast.data, atol=1e-5)
        upstream = np.random.default_rng(g["seed"] + 1).standard_normal(
            out.shape).astype(np.float32)
        out.backward(upstream)

        # looped reference gradients, member by member
        dx = np.zeros_like(x)
        for m in range(w.shape[0]):
            xm = Tensor(x if x.ndim == 4 else x[m], requires_grad=True)
            wm, bm = Tensor(w[m], requires_grad=True), Tensor(b[m], requires_grad=True)
            F.conv2d(xm, wm, bm, s, p).backward(upstream[m])
            np.testing.assert_allclose(wt.grad[m], wm.grad, atol=1e-4)
            np.testing.assert_allclose(bt.grad[m], bm.grad, atol=1e-4)
            if x.ndim == 4:
                dx += xm.grad
            else:
                dx[m] = xm.grad
        np.testing.assert_allclose(xt.grad, dx, atol=1e-4)

    def test_scratch_is_block_shaped(self):
        """Slot shapes depend on the layer and the thread count, not on
        the batch size: each tag is one slot of one block per thread."""
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32))
        budget = images_per_block_budget(3, 3, 1, 1, 6, 6, 2, bias=False)
        for workers in (1, 2):
            arena = RecordingArena()
            with mock.patch.object(F, "BLOCK_BYTES", budget), no_grad(), \
                    threads(workers):
                for n in (5, 1, 2, 3, 5):
                    x = Tensor(rng.standard_normal((2, n, 3, 6, 6)).astype(np.float32))
                    with use_arena(arena):
                        F.batched_conv2d(x, w, None, 1, 1)
            assert arena.misses == 3  # pad, cols, mm: allocated once
            assert arena.hits == 4 * 3
            # the first call (six blocks) takes one block of rows per thread
            assert [shape[0] for _, shape in arena.requests[:3]] == [2 * workers] * 3


class RecordingArena(TensorArena):
    """An arena that remembers every scratch request's tag and shape."""

    def __init__(self):
        super().__init__()
        self.requests = []

    def take(self, tag, shape, dtype):
        self.requests.append((tag, tuple(shape)))
        return super().take(tag, shape, dtype)


multi_block = st.fixed_dictionaries({
    "k": st.sampled_from([1, 2, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1]),
    "members": st.integers(1, 3),
    "in_c": st.integers(1, 4),
    "out_c": st.integers(1, 4),
    "hw": st.integers(3, 7),
    "block": st.integers(1, 3),
    # batch = whole blocks + extra images: one over, two, two plus one
    "past": st.sampled_from([(1, 1), (2, 0), (2, 1)]),
    "seed": st.integers(0, 10_000),
})


@settings(max_examples=60, deadline=None)
@given(g=multi_block)
def test_every_entry_point_matches_direct_reference(g):
    """``F.conv2d`` with and without grad, and ``batched_conv2d`` on a
    shared and a per-member input, all stay within 1e-5 of the direct-sum
    reference while the no-grad calls run over more than one block, on
    one thread and on two."""
    k, s, p, block = g["k"], g["stride"], g["padding"], g["block"]
    assume(not k == s == 1 or p)  # a pointwise kernel lowers nothing
    full, extra = g["past"]
    e, n = g["members"], full * block + extra
    rng = np.random.default_rng(g["seed"])
    shared = rng.standard_normal((n, g["in_c"], g["hw"], g["hw"])).astype(np.float32)
    per_member = rng.standard_normal((e,) + shared.shape).astype(np.float32)
    w = (0.3 * rng.standard_normal((e, g["out_c"], g["in_c"], k, k))).astype(np.float32)
    b = rng.standard_normal((e, g["out_c"])).astype(np.float32)
    budget = images_per_block_budget(g["in_c"], k, s, p, g["hw"], g["hw"], block,
                                     bias=True)
    expected = {"stacked shared": looped_conv(shared, w, b, s, p)}
    for name in ("stacked per-member", "per-net no-grad", "per-net grad"):
        expected[name] = looped_conv(per_member, w, b, s, p)
    for workers in (1, 2):
        arena = RecordingArena()
        with mock.patch.object(F, "BLOCK_BYTES", budget), threads(workers):
            with use_arena(arena), no_grad():
                outs = {"stacked shared": F.batched_conv2d(
                            Tensor(shared), Tensor(w), Tensor(b), s, p).data,
                        "stacked per-member": F.batched_conv2d(
                            Tensor(per_member), Tensor(w), Tensor(b), s, p).data,
                        "per-net no-grad": np.stack([F.conv2d(
                            Tensor(per_member[m]), Tensor(w[m]), Tensor(b[m]), s, p).data
                            for m in range(e)])}
            graded = [F.conv2d(Tensor(per_member[m], requires_grad=True),
                               Tensor(w[m], requires_grad=True), Tensor(b[m]), s, p)
                      for m in range(e)]
        assert all(out.requires_grad for out in graded)
        outs["per-net grad"] = np.stack([out.data for out in graded])
        # one cols slot per no-grad call, a block per thread, each block
        # smaller than the batch: more than one block ran (a stale patch
        # target fails here)
        blocks = [shape[0] for tag, shape in arena.requests if tag == "cols"]
        assert blocks == [workers * block] * (2 + e) and block < n
        for name, out in outs.items():
            np.testing.assert_allclose(out, expected[name], atol=1e-5,
                                       err_msg=f"{name}, {workers} thread(s)")


def make_bodies(num_nets=3):
    """Conv bodies mixing every kernel branch: a shared padded 3x3 stem,
    then per-member unpadded 3x3, max-pool, stride-2 3x3, strided 1x1
    and pointwise 1x1 layers."""
    bodies = []
    for i in range(num_nets):
        rng = new_rng(70 + i)
        body = nn.Sequential(
            nn.Conv2d(3, 4, 3, padding=1, rng=rng), nn.BatchNorm2d(4), nn.ReLU(),
            nn.Conv2d(4, 5, 3, rng=rng), nn.ReLU(), nn.MaxPool2d(3, 2, 1),
            nn.Conv2d(5, 6, 3, stride=2, padding=1, rng=rng), nn.ReLU(),
            nn.Conv2d(6, 6, 1, stride=2, rng=rng), nn.ReLU(),
            nn.Conv2d(6, 5, 1, rng=rng))
        body.train()
        with no_grad():
            body(Tensor(rng.standard_normal((4, 3, 12, 12)).astype(np.float32)))
        bodies.append(body.eval())
    return bodies


@pytest.mark.parametrize("block_bytes", [1, 4096, F.BLOCK_BYTES])
@pytest.mark.parametrize("batch", [1, 5])
def test_server_matches_looped_backend(block_bytes, batch):
    bodies = make_bodies()
    feats = np.random.default_rng(batch).standard_normal(
        (batch, 3, 12, 12)).astype(np.float32)
    with mock.patch.object(F, "BLOCK_BYTES", block_bytes):
        fast = Server(bodies).compute(feats)
    slow = Server(bodies, backend="looped").compute(feats)
    for a, b in zip(fast, slow):
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestEvalMaxPool:
    @staticmethod
    def both_paths(x, kernel, stride, padding, op=F.max_pool2d):
        graded = op(Tensor(x, requires_grad=True), kernel, stride, padding)
        assert graded.requires_grad  # the backward is wired
        with no_grad():
            fast = op(Tensor(x), kernel, stride, padding)
        assert not fast.requires_grad
        return fast.data, graded.data

    @staticmethod
    def assert_bits_equal(a, b):
        assert a.dtype == b.dtype and a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000),
           case=st.sampled_from([(2, None, 0), (3, 2, 1), (3, 2, 0),
                                 (2, 2, 1), (3, 1, 1)]),
           hw=st.integers(4, 9), nan=st.booleans(), zeros=st.booleans())
    def test_bit_identical_to_argmax_path(self, seed, case, hw, nan, zeros):
        """Both modes share one forward, so each is checked against the
        independent window-argmax reference, not against the other."""
        kernel, stride, padding = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, hw, hw + 1)).astype(np.float32)
        if zeros:  # ties between +0 and -0 must resolve to the first tap
            x[rng.random(x.shape) < 0.5] = 0.0
            x[rng.random(x.shape) < 0.5] = -0.0
            x[x > 0] *= -1
        if nan:
            x[rng.random(x.shape) < 0.1] = np.nan
        expected, _ = argmax_max_pool2d(x, kernel, stride, padding)
        for out in self.both_paths(x, kernel, stride, padding):
            self.assert_bits_equal(out, expected)

    def test_padding_fills_with_negative_infinity(self):
        x = -np.ones((1, 1, 3, 3), dtype=np.float32)
        for out in self.both_paths(x, 3, 2, 1):
            self.assert_bits_equal(out, argmax_max_pool2d(x, 3, 2, 1)[0])
            assert (out == -1).all()

    def test_stacked_pool_is_bit_identical(self):
        x = np.random.default_rng(7).standard_normal(
            (3, 2, 4, 6, 6)).astype(np.float32)
        x[0, 0, 0, :2, :2] = np.nan
        expected, _ = argmax_max_pool2d(x.reshape(6, 4, 6, 6), 3, 2, 1)
        for out in self.both_paths(x, 3, 2, 1, op=batched.batched_max_pool2d):
            self.assert_bits_equal(out, expected.reshape(out.shape))

    def test_grad_mode_routes_gradient_to_first_max(self):
        x = np.array([[[[1.0, 3.0, 3.0, 0.0],
                        [2.0, 0.0, 1.0, 5.0]]]], dtype=np.float32)
        xt = Tensor(x, requires_grad=True)
        F.max_pool2d(xt, 2).sum().backward()
        np.testing.assert_array_equal(
            xt.grad, [[[[0, 1, 0, 0], [0, 0, 0, 1]]]])
