"""Differential tests for the grad-mode kernels against independent references.

Each grad-mode hot spot of :mod:`repro.nn.functional` is checked against a
reference in :mod:`tests.helpers` that computes the same thing another way:

* :func:`repro.nn.functional.max_pool2d` reduces tap views and routes the
  gradient with per-tap masks; :func:`tests.helpers.argmax_max_pool2d`
  takes the window ``argmax`` and scatters with ``np.add.at``.  Outputs
  must be bit-equal in grad and no-grad mode; gradients bit-equal where
  windows do not overlap (signed zeros included) and within 1e-6 of the
  gradient's scale where they do (the two sum a shared input's contributions in different order).
* :func:`repro.nn.functional.batched_batch_norm2d` in training mode has a
  closed-form backward; :func:`tests.helpers.composed_batch_norm2d_train`
  lets the tape differentiate mean, var, sqrt and divide.
* :func:`repro.nn.functional.batched_conv2d` computes a stride-1 input
  gradient as a conv of the output gradient on the blocked no-grad kernel;
  :func:`tests.helpers.direct_conv2d_input_grad` scatters tap by tap.  Its
  weight gradient re-lowers the input in the backward, as one GEMM over
  the batch or as per-image GEMMs; :func:`tests.helpers.
  direct_conv2d_weight_grad` correlates tap by tap.
"""

from functools import partial
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from tests.helpers import (
    argmax_max_pool2d,
    assert_gradients_close,
    composed_batch_norm2d_train,
    direct_conv2d_input_grad,
    direct_conv2d_weight_grad,
    rand_tensor,
)


def assert_close_to_scale(actual, expected, rtol):
    """``actual`` within ``rtol`` of ``expected``, relative to its largest
    finite entry (entries near zero come from cancellation)."""
    scale = np.nanmax(np.abs(expected)) if np.isfinite(expected).any() else 1.0
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale)


class TestMaxPoolGrad:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000),
           case=st.sampled_from([(2, None, 0), (2, 2, 1), (3, 3, 0),
                                 (3, 2, 1), (3, 2, 0), (2, 1, 0), (3, 1, 1)]),
           hw=st.integers(4, 9), nan=st.booleans(), zeros=st.booleans(),
           bad_upstream=st.booleans())
    def test_matches_argmax_reference(self, seed, case, hw, nan, zeros,
                                      bad_upstream):
        kernel, stride, padding = case
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, 3, hw, hw + 1)).astype(np.float32)
        if zeros:  # ties between +0 and -0 must resolve to the first tap
            x[rng.random(x.shape) < 0.5] = 0.0
            x[rng.random(x.shape) < 0.5] = -0.0
            x[x > 0] *= -1
        if nan:  # a NaN window routes to its first NaN
            x[rng.random(x.shape) < 0.1] = np.nan
        expected, _ = argmax_max_pool2d(x, kernel, stride, padding)
        upstream = rng.standard_normal(expected.shape).astype(np.float32)
        if bad_upstream:  # a non-finite gradient reaches its winner only
            upstream[rng.random(upstream.shape) < 0.1] = np.nan
        _, expected_grad = argmax_max_pool2d(x, kernel, stride, padding, upstream)

        xt = Tensor(x, requires_grad=True)
        graded = F.max_pool2d(xt, kernel, stride, padding)
        graded.backward(upstream)
        with no_grad():
            fast = F.max_pool2d(Tensor(x), kernel, stride, padding)
        for out in (graded.data, fast.data):
            assert out.dtype == expected.dtype and out.shape == expected.shape
            np.testing.assert_array_equal(out.view(np.uint32),
                                          expected.view(np.uint32))
        if stride in (None, kernel):  # bit for bit, signed zeros included
            np.testing.assert_array_equal(xt.grad.view(np.uint32),
                                          expected_grad.view(np.uint32))
        else:
            assert_close_to_scale(xt.grad, expected_grad, 1e-6)


bn_case = st.fixed_dictionaries({
    "shared": st.booleans(),
    "members": st.sampled_from([1, 3]),
    "momentum": st.sampled_from([0.1, 1.0]),
    "dtype": st.sampled_from([np.float32, np.float64]),
    "n": st.integers(2, 4),
    "c": st.integers(1, 4),
    "hw": st.integers(2, 4),
    "seed": st.integers(0, 10_000),
})


def bn_inputs(g):
    rng = np.random.default_rng(g["seed"])
    e, c, dtype = g["members"], g["c"], g["dtype"]
    lead = (g["n"],) if g["shared"] else (e, g["n"])
    x = rng.normal(1.0, 2.0, lead + (c, g["hw"], g["hw"])).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, (e, c)).astype(dtype)
    beta = rng.normal(size=(e, c)).astype(dtype)
    stats = (rng.normal(size=(e, c)).astype(np.float32),
             rng.uniform(0.5, 2.0, (e, c)).astype(np.float32))
    upstream = rng.standard_normal((e, g["n"], c, g["hw"], g["hw"])).astype(dtype)
    return x, gamma, beta, stats, upstream


class TestBatchNormTrain:
    @settings(max_examples=60, deadline=None)
    @given(g=bn_case)
    def test_matches_composed_reference(self, g):
        x, gamma, beta, (mean, var), upstream = bn_inputs(g)
        results = []
        for op in (partial(F.batched_batch_norm2d, training=True),
                   composed_batch_norm2d_train):
            xt, gt, bt = (Tensor(a, requires_grad=True, dtype=a.dtype)
                          for a in (x, gamma, beta))
            running = (mean.copy(), var.copy())
            out = op(xt, gt, bt, *running, momentum=g["momentum"])
            out.backward(upstream)
            results.append((out.data, xt.grad, gt.grad, bt.grad) + running)
        rtol = 1e-5 if g["dtype"] == np.float32 else 1e-10
        names = ("output", "dx", "dgamma", "dbeta", "running_mean", "running_var")
        for name, actual, expected in zip(names, *results):
            assert actual.dtype == expected.dtype, name
            assert_close_to_scale(actual, expected, rtol)

    @staticmethod
    def gradcheck(x):
        rng = np.random.default_rng(x.ndim)
        e, c = 3, x.shape[-3]
        gamma = Tensor(rng.uniform(0.5, 1.5, (e, c)), requires_grad=True,
                       dtype=np.float64)
        beta = Tensor(rng.normal(size=(e, c)), requires_grad=True, dtype=np.float64)
        mean, var = np.zeros((e, c)), np.ones((e, c))
        # the normalised output sums to ~0 whatever x is: weight it
        weights = Tensor(rng.normal(size=(e,) + x.shape[-4:]), dtype=np.float64)

        def weighted():
            mean[:], var[:] = 0, 1  # repeated calls stay pure
            out = F.batched_batch_norm2d(x, gamma, beta, mean, var, training=True)
            return (out * weights).sum()

        assert_gradients_close(weighted, [x, gamma, beta], rtol=1e-3, atol=1e-6)

    def test_gradcheck_per_member_input(self):
        self.gradcheck(rand_tensor(np.random.default_rng(1), 3, 4, 2, 3, 3))

    def test_gradcheck_shared_input(self):
        self.gradcheck(rand_tensor(np.random.default_rng(2), 4, 2, 3, 3))


conv_case = st.fixed_dictionaries({
    "shared": st.booleans(),
    "k": st.sampled_from([1, 2, 3]),
    "stride": st.sampled_from([1, 2]),
    "padding": st.integers(0, 2),  # clipped to k − 1
    "members": st.integers(1, 3),
    "in_c": st.integers(1, 4),
    "out_c": st.integers(1, 4),
    "hw": st.integers(3, 7),
    "block": st.integers(1, 2),
    "extra": st.integers(1, 2),  # images past the first block
    "seed": st.integers(0, 10_000),
})


def adjoint_block_budget(g, padding, out_hw):
    """``BLOCK_BYTES`` that makes one block of the stride-1 input-gradient
    conv hold ``g["block"]`` images: it lowers the output gradient, padded
    by k − 1 − p, into ``C·k²`` rows (no bias) of whole rows that share
    their pad columns, ``out_hw + k − 1 − p`` wide."""
    k = g["k"]
    channels = g["out_c"] * (g["members"] if g["shared"] else 1)
    run_w = out_hw + k - 1 - padding
    return g["block"] * channels * k * k * g["hw"] * run_w * 4


class TestConvInputGrad:
    @settings(max_examples=80, deadline=None)
    @given(g=conv_case)
    def test_matches_direct_adjoint(self, g):
        k, s, e = g["k"], g["stride"], g["members"]
        p = min(g["padding"], k - 1)
        n = g["block"] + g["extra"]  # the pass spans several blocks
        rng = np.random.default_rng(g["seed"])
        lead = (n,) if g["shared"] else (e, n)
        x = rng.standard_normal(lead + (g["in_c"], g["hw"], g["hw"])).astype(np.float32)
        w = (0.3 * rng.standard_normal((e, g["out_c"], g["in_c"], k, k))
             ).astype(np.float32)
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = F.batched_conv2d(xt, wt, None, s, p)
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        budget = adjoint_block_budget(g, p, out.shape[-1])
        with mock.patch.object(F, "BLOCK_BYTES", budget), \
                mock.patch.object(F, "_conv2d_nograd",
                                  wraps=F._conv2d_nograd) as blocked:
            out.backward(upstream)
        # stride 1 takes the blocked kernel, without arena scratch
        assert blocked.call_count == (s == 1)
        if s == 1:
            assert blocked.call_args.args[-1] is None
        member_x = [x if g["shared"] else x[m] for m in range(e)]
        grads = [direct_conv2d_input_grad(upstream[m], w[m], member_x[m].shape, s, p)
                 for m in range(e)]
        expected = sum(grads) if g["shared"] else np.stack(grads)
        np.testing.assert_allclose(xt.grad, expected, rtol=1e-5, atol=1e-5)


class TestConvWeightGrad:
    """Both forms of the weight gradient — one GEMM over the batch where an
    image has at most half as many output positions as a column has taps,
    per-image GEMMs elsewhere — against the direct correlation."""

    @settings(max_examples=80, deadline=None)
    @given(shared=st.booleans(), k=st.sampled_from([1, 2, 3]), stride=st.sampled_from([1, 2]),
           padding=st.integers(0, 2), members=st.integers(1, 3), in_c=st.integers(1, 8),
           out_c=st.integers(1, 4), hw=st.integers(3, 8), seed=st.integers(0, 10_000))
    def test_matches_direct_correlation(self, shared, k, stride, padding, members, in_c,
                                        out_c, hw, seed):
        p = min(padding, k - 1)
        rng = np.random.default_rng(seed)
        lead = (3,) if shared else (members, 3)
        x = rng.standard_normal(lead + (in_c, hw, hw)).astype(np.float32)
        w = (0.3 * rng.standard_normal((members, out_c, in_c, k, k))).astype(np.float32)
        wt = Tensor(w, requires_grad=True)
        out = F.batched_conv2d(Tensor(x), wt, None, stride, p)
        upstream = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(upstream)
        for m in range(members):
            expected = direct_conv2d_weight_grad(upstream[m], x if shared else x[m],
                                                 k, stride, p)
            assert_close_to_scale(wt.grad[m], expected, 1e-5)
