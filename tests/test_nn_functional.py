"""Unit tests for repro.nn.functional: conv, pooling, norm, losses."""

import numpy as np
import pytest
from scipy import signal

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.helpers import assert_gradients_close, rand_tensor

rng = np.random.default_rng(99)


def reference_conv2d(x, w, b, stride, padding):
    """Direct-loop conv used as an oracle (scipy correlate per channel pair)."""
    n, c, h, wd = x.shape
    oc, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for i in range(n):
        for o in range(oc):
            acc = np.zeros((h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1))
            for ci in range(c):
                acc += signal.correlate2d(xp[i, ci], w[o, ci], mode="valid")
            out[i, o] = acc[::stride, ::stride]
            if b is not None:
                out[i, o] += b[o]
    return out


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 3), (1, 1, 3), (2, 1, 3), (2, 0, 2), (1, 2, 5)])
    def test_forward_matches_scipy(self, stride, padding, k):
        x = rng.normal(size=(2, 3, 9, 9))
        w = rng.normal(size=(4, 3, k, k))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64),
                       Tensor(b, dtype=np.float64), stride=stride, padding=padding)
        expected = reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_gradients(self, stride, padding):
        x = rand_tensor(rng, 2, 2, 6, 6)
        w = rand_tensor(rng, 3, 2, 3, 3, scale=0.5)
        b = rand_tensor(rng, 3)
        assert_gradients_close(
            lambda: F.conv2d(x, w, b, stride=stride, padding=padding).sum(), [x, w, b],
            rtol=1e-3, atol=1e-6)

    def test_no_bias(self):
        x = rand_tensor(rng, 1, 1, 4, 4)
        w = rand_tensor(rng, 2, 1, 3, 3)
        out = F.conv2d(x, w, None, padding=1)
        assert out.shape == (1, 2, 4, 4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_empty_output_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)))
        w = Tensor(np.zeros((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_output_shape_formula(self):
        x = Tensor(np.zeros((1, 3, 32, 32)))
        w = Tensor(np.zeros((64, 3, 3, 3)))
        assert F.conv2d(x, w, stride=1, padding=1).shape == (1, 64, 32, 32)
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 64, 16, 16)


class TestConvTranspose2d:
    def test_inverts_conv_shape(self):
        # conv stride 2 halves; transpose with same params restores the size.
        x = Tensor(rng.normal(size=(2, 4, 8, 8)), dtype=np.float64)
        w = Tensor(rng.normal(size=(4, 3, 4, 4)), dtype=np.float64)
        out = F.conv_transpose2d(x, w, stride=2, padding=1)
        assert out.shape == (2, 3, 16, 16)

    def test_stride1_equals_full_correlation(self):
        x = rng.normal(size=(1, 1, 5, 5))
        w = rng.normal(size=(1, 1, 3, 3))
        out = F.conv_transpose2d(Tensor(x, dtype=np.float64), Tensor(w, dtype=np.float64))
        # Transposed conv with stride 1, no padding == full convolution.
        expected = signal.convolve2d(x[0, 0], w[0, 0], mode="full")
        np.testing.assert_allclose(out.data[0, 0], expected, rtol=1e-6, atol=1e-9)

    def test_output_padding(self):
        x = Tensor(np.zeros((1, 2, 5, 5)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        out = F.conv_transpose2d(x, w, stride=2, padding=1, output_padding=1)
        assert out.shape == (1, 1, 10, 10)

    def test_gradients(self):
        x = rand_tensor(rng, 1, 2, 4, 4)
        w = rand_tensor(rng, 2, 2, 3, 3, scale=0.5)
        b = rand_tensor(rng, 2)
        assert_gradients_close(
            lambda: F.conv_transpose2d(x, w, b, stride=2, padding=1).sum(), [x, w, b],
            rtol=1e-3, atol=1e-6)

    def test_invalid_padding_raises(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError):
            F.conv_transpose2d(x, w, padding=3)
        with pytest.raises(ValueError):
            F.conv_transpose2d(x, w, stride=2, output_padding=2)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data, [[[[4.0]]]])

    def test_max_pool_overlapping_shape(self):
        x = Tensor(np.zeros((1, 2, 8, 8)))
        assert F.max_pool2d(x, 3, 2, 1).shape == (1, 2, 4, 4)

    def test_max_pool_grad(self):
        x = rand_tensor(rng, 2, 2, 6, 6)
        assert_gradients_close(lambda: F.max_pool2d(x, 2).sum(), [x], rtol=1e-3)

    def test_max_pool_overlap_grad(self):
        x = rand_tensor(rng, 1, 2, 7, 7)
        assert_gradients_close(lambda: F.max_pool2d(x, 3, 2, 1).sum(), [x], rtol=1e-3)

    def test_max_pool_padding_uses_neg_inf(self):
        # All-negative input: padded zeros must not win the max.
        x = Tensor(-np.ones((1, 1, 2, 2)))
        out = F.max_pool2d(x, 3, 2, 1)
        assert float(out.data.max()) == pytest.approx(-1.0)

    def test_avg_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        np.testing.assert_allclose(F.avg_pool2d(x, 2).data, [[[[2.5]]]])

    def test_avg_pool_grad(self):
        x = rand_tensor(rng, 2, 3, 4, 4)
        assert_gradients_close(lambda: F.avg_pool2d(x, 2).sum(), [x])

    def test_avg_pool_overlap_grad(self):
        x = rand_tensor(rng, 1, 1, 5, 5)
        assert_gradients_close(lambda: F.avg_pool2d(x, 3, 2, 1).sum(), [x])

    def test_global_avg_pool(self):
        x = Tensor(np.ones((2, 5, 4, 4)))
        out = F.global_avg_pool2d(x)
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.data, 1.0)

    def test_upsample_nearest_values_and_grad(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True, dtype=np.float64)
        out = F.upsample_nearest2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        np.testing.assert_allclose(out.data[0, 0, :2, :2], 1.0)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [[[[4.0, 4.0], [4.0, 4.0]]]])


class TestBatchNorm:
    def test_train_normalises_batch(self):
        x = Tensor(rng.normal(3.0, 2.0, size=(8, 4, 5, 5)), dtype=np.float64)
        gamma = Tensor(np.ones(4), dtype=np.float64)
        beta = Tensor(np.zeros(4), dtype=np.float64)
        mean = np.zeros(4)
        var = np.ones(4)
        out = F.batch_norm2d(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self):
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 4, 4)), dtype=np.float64)
        gamma, beta = Tensor(np.ones(2)), Tensor(np.zeros(2))
        mean, var = np.zeros(2), np.ones(2)
        F.batch_norm2d(x, gamma, beta, mean, var, training=True, momentum=1.0)
        np.testing.assert_allclose(mean, 5.0, atol=0.2)

    def test_eval_uses_running_stats(self):
        x = Tensor(np.full((2, 1, 2, 2), 10.0), dtype=np.float64)
        gamma, beta = Tensor(np.ones(1)), Tensor(np.zeros(1))
        mean, var = np.full(1, 10.0), np.ones(1)
        out = F.batch_norm2d(x, gamma, beta, mean, var, training=False)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-5)

    def test_gradients(self):
        x = rand_tensor(rng, 4, 2, 3, 3)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True, dtype=np.float64)
        beta = Tensor(rng.normal(size=2), requires_grad=True, dtype=np.float64)
        mean, var = np.zeros(2), np.ones(2)

        def fn():
            # Reset running stats so repeated finite-difference calls are pure.
            mean[:] = 0
            var[:] = 1
            return F.batch_norm2d(x, gamma, beta, mean, var, training=True).sum()

        # Sum of normalised output is ~0 regardless of x, so use a weighted sum.
        weights = Tensor(rng.normal(size=(4, 2, 3, 3)), dtype=np.float64)

        def weighted():
            mean[:] = 0
            var[:] = 1
            out = F.batch_norm2d(x, gamma, beta, mean, var, training=True)
            return (out * weights).sum()

        assert_gradients_close(weighted, [x, gamma, beta], rtol=1e-3, atol=1e-6)

    @staticmethod
    def eval_case():
        x = Tensor(rng.normal(2.0, 3.0, size=(3, 4, 5, 5)), requires_grad=True,
                   dtype=np.float64)
        gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True, dtype=np.float64)
        beta = Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)
        mean = rng.normal(1.0, 2.0, size=4)
        var = rng.uniform(0.2, 5.0, size=4)
        return x, gamma, beta, mean, var

    def test_eval_matches_four_pass_formula(self):
        """Eval folds (x - mean) / sqrt(var + eps) * gamma + beta into one
        scale and shift per channel; the values must not move."""
        x, gamma, beta, mean, var = self.eval_case()
        out = F.batch_norm2d(x, gamma, beta, mean, var, training=False, eps=1e-5)
        col = (1, -1, 1, 1)
        expected = ((x.data - mean.reshape(col)) / np.sqrt(var.reshape(col) + 1e-5)
                    * gamma.data.reshape(col) + beta.data.reshape(col))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-6)

    def test_eval_gradients(self):
        x, gamma, beta, mean, var = self.eval_case()
        weights = Tensor(rng.normal(size=x.shape), dtype=np.float64)
        stats = (mean.copy(), var.copy())

        def weighted():
            out = F.batch_norm2d(x, gamma, beta, mean, var, training=False)
            return (out * weights).sum()

        assert_gradients_close(weighted, [x, gamma, beta], rtol=1e-3, atol=1e-6)
        np.testing.assert_array_equal(mean, stats[0])
        np.testing.assert_array_equal(var, stats[1])


class TestActivationsLosses:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng.normal(size=(4, 7)), dtype=np.float64)
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, rtol=1e-6)

    def test_softmax_stable_for_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]), dtype=np.float64)
        out = F.softmax(x, axis=1)
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rng.normal(size=(3, 5)), dtype=np.float64)
        np.testing.assert_allclose(F.log_softmax(x).data, np.log(F.softmax(x).data), rtol=1e-6)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((4, 10)), dtype=np.float64)
        loss = F.cross_entropy(logits, np.zeros(4, dtype=int))
        assert float(loss.data) == pytest.approx(np.log(10.0))

    def test_cross_entropy_grad(self):
        logits = rand_tensor(rng, 5, 4)
        targets = np.array([0, 1, 2, 3, 0])
        assert_gradients_close(lambda: F.cross_entropy(logits, targets), [logits], rtol=1e-3)

    def test_cross_entropy_grad_is_softmax_minus_onehot(self):
        logits = rand_tensor(rng, 3, 4)
        targets = np.array([1, 0, 3])
        loss = F.cross_entropy(logits, targets)
        loss.backward()
        probs = F.softmax(logits.detach(), axis=1).data
        onehot = np.eye(4)[targets]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 3, rtol=1e-5, atol=1e-8)

    def test_cross_entropy_rejects_2d_targets(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))

    def test_nll_matches_cross_entropy(self):
        logits = Tensor(rng.normal(size=(4, 6)), dtype=np.float64)
        targets = np.array([0, 5, 2, 3])
        ce = F.cross_entropy(logits, targets)
        nll = F.nll_loss(F.log_softmax(logits, axis=1), targets)
        assert float(ce.data) == pytest.approx(float(nll.data), rel=1e-6)

    def test_mse_loss(self):
        a = Tensor(np.array([1.0, 2.0]), dtype=np.float64)
        b = Tensor(np.array([0.0, 0.0]), dtype=np.float64)
        assert float(F.mse_loss(a, b).data) == pytest.approx(2.5)

    def test_l1_loss_grad(self):
        a = rand_tensor(rng, 6)
        b = Tensor(rng.normal(size=6), dtype=np.float64)
        assert_gradients_close(lambda: F.l1_loss(a, b), [a], rtol=1e-3)

    def test_cosine_similarity_identical_is_one(self):
        a = Tensor(rng.normal(size=(3, 8)), dtype=np.float64)
        sim = F.cosine_similarity(a, a)
        np.testing.assert_allclose(sim.data, 1.0, rtol=1e-5)

    def test_cosine_similarity_orthogonal_is_zero(self):
        a = Tensor(np.array([[1.0, 0.0]]), dtype=np.float64)
        b = Tensor(np.array([[0.0, 1.0]]), dtype=np.float64)
        assert F.cosine_similarity(a, b).item() == pytest.approx(0.0, abs=1e-7)

    def test_cosine_similarity_grad(self):
        a, b = rand_tensor(rng, 2, 5), rand_tensor(rng, 2, 5)
        assert_gradients_close(lambda: F.cosine_similarity(a, b).sum(), [a, b], rtol=1e-3)


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(rng.normal(size=(10, 10)))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_p_is_identity(self):
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out.data, x.data)

    def test_expected_scale_preserved(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.3, np.random.default_rng(0), training=True)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0), training=True)

    def test_grad_respects_mask(self):
        x = Tensor(np.ones((50, 50)), requires_grad=True, dtype=np.float64)
        out = F.dropout(x, 0.5, np.random.default_rng(7), training=True)
        out.sum().backward()
        zero_out = out.data == 0
        assert np.all(x.grad[zero_out] == 0)
        assert np.all(x.grad[~zero_out] == pytest.approx(2.0))
