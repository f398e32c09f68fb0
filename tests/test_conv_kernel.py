"""Differential tests for the no-grad conv kernel and the eval max-pool.

:func:`repro.nn.batched.batched_conv2d` runs one cache-blocked kernel
whenever no backward will be wired: it pads, lowers (whole padded rows
for stride-1 kernels) and multiplies a block of images at a time, with
scratch from the active arena or freshly allocated.  Checked here over
random layer geometries, with the block budget shrunk so that batches
fall on both sides of a block boundary:

* a NaN-poisoned arena is bit-equal to no arena (the kernel is the
  same, only its scratch moves);
* the kernel agrees with the per-member looped reference to 1e-5, at
  the op level and through ``Server(backend="looped")``;
* the grad path (full columns captured for backward) still matches the
  looped reference in outputs and gradients, and never touches the
  arena.

:func:`repro.nn.functional.max_pool2d` without a backward reduces the
strided tap views with ``np.maximum``; it must be bit-identical to the
argmax path, NaNs and signed zeros included.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ci.pipeline import Server
from repro.nn import batched
from repro.nn import functional as F
from repro.nn.arena import TensorArena, use_arena
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng


def images_per_block_budget(in_c, k, stride, padding, hw, images):
    """``BLOCK_BYTES`` that makes one block hold exactly ``images`` images."""
    out = (hw + 2 * padding - k) // stride + 1
    pointwise = k == 1 and stride == 1 and padding == 0
    run_w = hw + 2 * padding if stride == 1 and not pointwise else out
    return images * in_c * k * k * out * run_w * 4


def looped_conv(x, w, b, stride, padding):
    """Per-member ``F.conv2d`` reference, stacked to ``(E, N, ...)``."""
    outs = []
    for m in range(w.shape[0]):
        xm = x if x.ndim == 4 else x[m]
        outs.append(F.conv2d(Tensor(xm), Tensor(w[m]), Tensor(b[m]),
                             stride, padding).data)
    return np.stack(outs)


geometry = st.fixed_dictionaries({
    "shared": st.booleans(),
    "k": st.sampled_from([1, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.sampled_from([0, 1]),
    "members": st.integers(1, 3),
    "in_c": st.integers(1, 4),
    "out_c": st.integers(1, 4),
    "hw": st.integers(3, 7),
    "block": st.integers(1, 3),
    # batch relative to the block: one short, exact, one over, two+ blocks
    "offset": st.sampled_from([-1, 0, 1, None]),
    "seed": st.integers(0, 10_000),
})


def make_case(g):
    block = g["block"]
    n = 2 * block + 1 if g["offset"] is None else max(1, block + g["offset"])
    rng = np.random.default_rng(g["seed"])
    e = g["members"]
    lead = (n,) if g["shared"] else (e, n)
    x = rng.standard_normal(lead + (g["in_c"], g["hw"], g["hw"])).astype(np.float32)
    w = (0.3 * rng.standard_normal((e, g["out_c"], g["in_c"], g["k"], g["k"])
                                   )).astype(np.float32)
    b = rng.standard_normal((e, g["out_c"])).astype(np.float32)
    budget = images_per_block_budget(g["in_c"], g["k"], g["stride"],
                                     g["padding"], g["hw"], block)
    return x, w, b, budget


class TestNoGradConvKernel:
    @settings(max_examples=80, deadline=None)
    @given(g=geometry)
    def test_arena_is_bit_equal_and_matches_looped(self, g):
        x, w, b, budget = make_case(g)
        s, p = g["stride"], g["padding"]
        with mock.patch.object(batched, "BLOCK_BYTES", budget), no_grad():
            plain = batched.batched_conv2d(Tensor(x), Tensor(w), Tensor(b), s, p).data
            arena = TensorArena()
            for _ in range(2):  # allocate, poison, then run on stale NaNs
                with use_arena(arena):
                    pooled = batched.batched_conv2d(
                        Tensor(x), Tensor(w), Tensor(b), s, p).data
                arena.poison()
        # only a per-member pointwise conv runs without scratch
        pointwise = g["k"] == s == 1 and p == 0
        assert (arena.num_buffers == 0) == (pointwise and not g["shared"])
        np.testing.assert_array_equal(pooled, plain)
        np.testing.assert_allclose(plain, looped_conv(x, w, b, s, p), atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(g=geometry)
    def test_grad_path_matches_looped_and_skips_arena(self, g):
        x, w, b, budget = make_case(g)
        s, p = g["stride"], g["padding"]
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        arena = TensorArena()
        with mock.patch.object(batched, "BLOCK_BYTES", budget):
            with use_arena(arena):
                out = batched.batched_conv2d(xt, wt, bt, s, p)
            with no_grad():
                fast = batched.batched_conv2d(Tensor(x), Tensor(w), Tensor(b), s, p)
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
        """Slot shapes depend on the layer, not on the batch size."""
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((2, 4, 3, 3, 3)).astype(np.float32))
        arena = TensorArena()
        budget = images_per_block_budget(3, 3, 1, 1, 6, 2)
        with mock.patch.object(batched, "BLOCK_BYTES", budget), no_grad():
            for n in (5, 1, 2, 3, 5):
                x = Tensor(rng.standard_normal((2, n, 3, 6, 6)).astype(np.float32))
                with use_arena(arena):
                    batched.batched_conv2d(x, w, None, 1, 1)
        assert arena.misses == 3  # pad, cols, mm: allocated once
        assert arena.hits == 4 * 3


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


@pytest.mark.parametrize("block_bytes", [1, 4096, batched.BLOCK_BYTES])
@pytest.mark.parametrize("batch", [1, 5])
def test_server_matches_looped_backend(block_bytes, batch):
    bodies = make_bodies()
    feats = np.random.default_rng(batch).standard_normal(
        (batch, 3, 12, 12)).astype(np.float32)
    with mock.patch.object(batched, "BLOCK_BYTES", block_bytes):
        fast = Server(bodies).compute(feats)
    slow = Server(bodies, backend="looped").compute(feats)
    for a, b in zip(fast, slow):
        np.testing.assert_allclose(a, b, atol=1e-5)


class TestEvalMaxPool:
    @staticmethod
    def both_paths(x, kernel, stride, padding, op=F.max_pool2d):
        graded = op(Tensor(x, requires_grad=True), kernel, stride, padding)
        assert graded.requires_grad  # the argmax path wired its backward
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
        kernel, stride, padding = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, hw, hw + 1)).astype(np.float32)
        if zeros:  # ties between +0 and -0 must resolve to the first tap
            x[rng.random(x.shape) < 0.5] = 0.0
            x[rng.random(x.shape) < 0.5] = -0.0
            x[x > 0] *= -1
        if nan:
            x[rng.random(x.shape) < 0.1] = np.nan
        self.assert_bits_equal(*self.both_paths(x, kernel, stride, padding))

    def test_padding_fills_with_negative_infinity(self):
        x = -np.ones((1, 1, 3, 3), dtype=np.float32)
        fast, graded = self.both_paths(x, 3, 2, 1)
        self.assert_bits_equal(fast, graded)
        assert (fast == -1).all()

    def test_stacked_pool_is_bit_identical(self):
        x = np.random.default_rng(7).standard_normal(
            (3, 2, 4, 6, 6)).astype(np.float32)
        x[0, 0, 0, :2, :2] = np.nan
        self.assert_bits_equal(
            *self.both_paths(x, 3, 2, 1, op=batched.batched_max_pool2d))

    def test_grad_mode_routes_gradient_to_first_max(self):
        x = np.array([[[[1.0, 3.0, 3.0, 0.0],
                        [2.0, 0.0, 1.0, 5.0]]]], dtype=np.float32)
        xt = Tensor(x, requires_grad=True)
        F.max_pool2d(xt, 2).sum().backward()
        np.testing.assert_array_equal(
            xt.grad, [[[[0, 1, 0, 0], [0, 0, 0, 1]]]])
