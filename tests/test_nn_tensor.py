"""Unit tests for the autograd Tensor: arithmetic, reductions, shape ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor, concat, no_grad, stack, where
from tests.helpers import assert_gradients_close, rand_tensor, reference_backward

rng = np.random.default_rng(1234)


class TestTensorBasics:
    def test_default_dtype_is_float32(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float32

    def test_explicit_dtype_preserved(self):
        t = Tensor([1.0, 2.0], dtype=np.float64)
        assert t.dtype == np.float64

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_detach_breaks_graph(self):
        a = rand_tensor(rng, 3)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._parents == ()

    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_shape_mismatch_raises(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            t.backward(np.ones(3))

    def test_no_grad_blocks_tape(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 3
        assert not b.requires_grad

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_grad_accumulates_across_backward_calls(self):
        a = Tensor([2.0], requires_grad=True, dtype=np.float64)
        (a * 3).sum().backward()
        (a * 3).sum().backward()
        np.testing.assert_allclose(a.grad, [6.0])


class TestArithmetic:
    def test_add_values(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_scalar_radd(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_add_grad(self):
        a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 3, 4)
        assert_gradients_close(lambda: (a + b).sum(), [a, b])

    def test_sub_grad(self):
        a, b = rand_tensor(rng, 2, 3), rand_tensor(rng, 2, 3)
        assert_gradients_close(lambda: (a - b * 2).sum(), [a, b])

    def test_rsub(self):
        a = Tensor([1.0])
        np.testing.assert_allclose((5.0 - a).data, [4.0])

    def test_mul_grad(self):
        a, b = rand_tensor(rng, 4), rand_tensor(rng, 4)
        assert_gradients_close(lambda: (a * b).sum(), [a, b])

    def test_div_grad(self):
        a = rand_tensor(rng, 5)
        b = Tensor(rng.uniform(0.5, 2.0, 5), requires_grad=True, dtype=np.float64)
        assert_gradients_close(lambda: (a / b).sum(), [a, b])

    def test_broadcast_add_grad(self):
        a = rand_tensor(rng, 4, 3)
        b = rand_tensor(rng, 3)
        assert_gradients_close(lambda: (a + b).sum(), [a, b])

    def test_broadcast_mul_keepdims_grad(self):
        a = rand_tensor(rng, 2, 3, 4)
        b = rand_tensor(rng, 2, 1, 4)
        assert_gradients_close(lambda: (a * b).sum(), [a, b])

    def test_neg_grad(self):
        a = rand_tensor(rng, 3)
        assert_gradients_close(lambda: (-a).sum(), [a])

    def test_pow_grad(self):
        a = Tensor(rng.uniform(0.5, 2.0, 4), requires_grad=True, dtype=np.float64)
        assert_gradients_close(lambda: (a**3).sum(), [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_matmul_2d_grad(self):
        a, b = rand_tensor(rng, 3, 4), rand_tensor(rng, 4, 5)
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched_grad(self):
        a, b = rand_tensor(rng, 2, 3, 4), rand_tensor(rng, 2, 4, 5)
        assert_gradients_close(lambda: (a @ b).sum(), [a, b])

    def test_matmul_values(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        b = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = Tensor(a, dtype=np.float64) @ Tensor(b, dtype=np.float64)
        np.testing.assert_allclose(out.data, a @ b)

    def test_comparison_returns_ndarray(self):
        mask = Tensor([1.0, -1.0]) > 0
        assert isinstance(mask, np.ndarray)
        np.testing.assert_array_equal(mask, [True, False])


class TestElementwise:
    @pytest.mark.parametrize("name", ["exp", "tanh", "sigmoid", "relu", "abs"])
    def test_unary_grad(self, name):
        a = rand_tensor(rng, 3, 3)
        assert_gradients_close(lambda: getattr(a, name)().sum(), [a])

    def test_log_sqrt_grad_positive_domain(self):
        a = Tensor(rng.uniform(0.5, 3.0, (3, 3)), requires_grad=True, dtype=np.float64)
        assert_gradients_close(lambda: a.log().sum(), [a])
        assert_gradients_close(lambda: a.sqrt().sum(), [a])

    def test_relu_values(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_clip_grad_masks_out_of_range(self):
        a = Tensor([-2.0, 0.0, 2.0], requires_grad=True, dtype=np.float64)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis_grad(self):
        a = rand_tensor(rng, 3, 4, 2)
        assert_gradients_close(lambda: a.sum(axis=1).sum(), [a])

    def test_sum_keepdims_shape(self):
        a = Tensor(np.ones((2, 3)))
        assert a.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_grad(self):
        a = rand_tensor(rng, 4, 5)
        assert_gradients_close(lambda: a.mean(), [a])

    def test_mean_axis_tuple_grad(self):
        a = rand_tensor(rng, 2, 3, 4)
        assert_gradients_close(lambda: a.mean(axis=(0, 2)).sum(), [a])

    def test_var_matches_numpy(self):
        data = rng.normal(size=(4, 6))
        t = Tensor(data, dtype=np.float64)
        np.testing.assert_allclose(t.var(axis=1).data, data.var(axis=1), rtol=1e-6)

    def test_max_grad_unique(self):
        a = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 3.0, 4.0]]), requires_grad=True,
                   dtype=np.float64)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1, 0], [1, 0, 0]])

    def test_max_grad_splits_ties(self):
        a = Tensor(np.array([2.0, 2.0]), requires_grad=True, dtype=np.float64)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])

    def test_min_matches_numpy(self):
        data = rng.normal(size=(3, 5))
        np.testing.assert_allclose(Tensor(data, dtype=np.float64).min(axis=0).data,
                                   data.min(axis=0))


class TestShapeOps:
    def test_reshape_grad(self):
        a = rand_tensor(rng, 2, 6)
        assert_gradients_close(lambda: (a.reshape(3, 4) * 2).sum(), [a])

    def test_flatten(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.flatten().shape == (2, 12)
        assert a.flatten(start_dim=0).shape == (24,)

    def test_transpose_grad(self):
        a = rand_tensor(rng, 2, 3, 4)
        assert_gradients_close(lambda: a.transpose(2, 0, 1).sum(), [a])

    def test_transpose_default_reverses(self):
        a = Tensor(np.zeros((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)
        assert a.T.shape == (4, 3, 2)

    def test_getitem_slice_grad(self):
        a = rand_tensor(rng, 4, 4)
        assert_gradients_close(lambda: a[1:3, ::2].sum(), [a])

    def test_getitem_fancy_index_accumulates_duplicates(self):
        a = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        idx = np.array([0, 0, 2])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0])

    def test_pad_grad(self):
        a = rand_tensor(rng, 2, 3)
        assert_gradients_close(lambda: a.pad(((1, 1), (0, 2))).sum(), [a])

    def test_pad_values(self):
        a = Tensor(np.ones((1, 1)))
        out = a.pad(((1, 0), (0, 1)))
        np.testing.assert_allclose(out.data, [[0, 0], [1, 0]])


class TestMultiInput:
    def test_concat_values_and_grad(self):
        a, b = rand_tensor(rng, 2, 3), rand_tensor(rng, 2, 2)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        assert_gradients_close(lambda: (concat([a, b], axis=1) * 2).sum(), [a, b])

    def test_stack_grad(self):
        a, b = rand_tensor(rng, 3), rand_tensor(rng, 3)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        assert_gradients_close(lambda: stack([a, b], axis=1).sum(), [a, b])

    def test_where_grad_routing(self):
        cond = np.array([True, False, True])
        a = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        b = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1, 0, 1])
        np.testing.assert_allclose(b.grad, [0, 1, 0])


class TestGraph:
    def test_diamond_graph_grad(self):
        # d = (a*b) + (a+b): gradient of a is b + 1.
        a = Tensor([2.0], requires_grad=True, dtype=np.float64)
        b = Tensor([3.0], requires_grad=True, dtype=np.float64)
        ((a * b) + (a + b)).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])
        np.testing.assert_allclose(b.grad, [3.0])

    def test_reused_tensor_accumulates(self):
        a = Tensor([1.5], requires_grad=True, dtype=np.float64)
        (a * a * a).sum().backward()  # d/da a^3 = 3a^2
        np.testing.assert_allclose(a.grad, [3 * 1.5**2])

    def test_deep_chain_does_not_overflow(self):
        a = Tensor([1.0], requires_grad=True)
        x = a
        for _ in range(2000):
            x = x + 0.001
        x.sum().backward()  # iterative topo sort: no RecursionError
        np.testing.assert_allclose(a.grad, [1.0])


@settings(max_examples=25, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**16),
)
def test_property_add_mul_grads(shape, seed):
    """For random shapes/values, autograd matches finite differences."""
    local = np.random.default_rng(seed)
    a = Tensor(local.normal(size=shape), requires_grad=True, dtype=np.float64)
    b = Tensor(local.normal(size=shape), requires_grad=True, dtype=np.float64)
    assert_gradients_close(lambda: (a * b + a).mean(), [a, b])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_property_sum_of_parts_equals_whole(seed):
    """Splitting a tensor and summing parts equals summing the whole."""
    local = np.random.default_rng(seed)
    data = local.normal(size=(6, 3))
    t = Tensor(data, dtype=np.float64)
    whole = t.sum().item()
    parts = t[:3].sum().item() + t[3:].sum().item()
    assert whole == pytest.approx(parts, rel=1e-9)


# ----------------------------------------------------------------------
# The tape contract: adopted and freed gradients change no leaf gradient
# ----------------------------------------------------------------------
SHAPE = (2, 3, 4, 4)

#: shape-preserving ops over (2, 3, 4, 4) tensors; ``p`` holds the leaf
#: parameters and the batch-norm running statistics
GRAPH_OPS = {
    "add": lambda a, b, p: a + b,
    "sub": lambda a, b, p: a - b,
    "mul": lambda a, b, p: a * b,
    "relu": lambda a, b, p: a.relu(),
    "reshape": lambda a, b, p: a.reshape(2, -1).reshape(SHAPE),
    "transpose": lambda a, b, p: a.transpose(0, 2, 3, 1).transpose(0, 3, 1, 2),
    "concat": lambda a, b, p: (lambda c: c[:, :3] * c[:, 3:])(concat([a, b], axis=1)),
    "stack": lambda a, b, p: stack([a, b]).sum(axis=0),
    "getitem": lambda a, b, p: a[:, ::-1],
    "conv": lambda a, b, p: F.conv2d(a, p["weight"], padding=1),
    "stacked_conv": lambda a, b, p: F.batched_conv2d(a, p["stacked"], padding=1).mean(axis=0),
    "strided": lambda a, b, p: F.conv_transpose2d(
        F.conv2d(a, p["weight"], stride=2, padding=1), p["weight_t"], p["bias"],
        stride=2, padding=1, output_padding=1),
    "batch_norm": lambda a, b, p: F.batch_norm2d(a, p["gamma"], p["beta"], *p["running"],
                                                 training=True),
    "stacked_batch_norm": lambda a, b, p: F.batched_batch_norm2d(
        stack([a, b]), p["gammas"], p["betas"], *p["stacked_running"],
        training=True).mean(axis=0),
    "pool": lambda a, b, p: F.upsample_nearest2d(F.max_pool2d(a, 2), 2),
}


def build_graph(seed, ops):
    """Leaves, non-leaf nodes and the scalar loss of a random graph."""
    rng = np.random.default_rng(seed)

    def leaf(*shape, scale=1.0):
        return Tensor((scale * rng.standard_normal(shape)).astype(np.float32),
                      requires_grad=True)

    x0, x1 = leaf(*SHAPE), leaf(*SHAPE)
    params = {"weight": leaf(3, 3, 3, 3, scale=0.3), "weight_t": leaf(3, 3, 3, 3, scale=0.3),
              "stacked": leaf(2, 3, 3, 3, 3, scale=0.3), "bias": leaf(3),
              "gamma": leaf(3), "beta": leaf(3), "gammas": leaf(2, 3), "betas": leaf(2, 3),
              "running": (np.zeros(3, np.float32), np.ones(3, np.float32)),
              "stacked_running": (np.zeros((2, 3), np.float32), np.ones((2, 3), np.float32))}
    nodes = [x0, x1]
    for name, i, j in ops:
        nodes.append(GRAPH_OPS[name](nodes[i % len(nodes)], nodes[j % len(nodes)], params))
    weights = [Tensor(rng.standard_normal(SHAPE).astype(np.float32)) for _ in nodes[2:]]
    loss = sum((node * w).sum() for node, w in zip(nodes[2:], weights))
    leaves = [x0, x1] + [v for v in params.values() if isinstance(v, Tensor)]
    return leaves, loss


def leaf_grads(leaves):
    return [None if t.grad is None else t.grad.copy() for t in leaves]


def assert_bit_equal(actual, expected):
    for a, b in zip(actual, expected):
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))


graph_ops = st.lists(st.tuples(st.sampled_from(sorted(GRAPH_OPS)),
                               st.integers(0, 8), st.integers(0, 8)),
                     min_size=1, max_size=6)


class TestTapeContract:
    """``Tensor.backward`` adopts fresh gradients, copies borrowed ones and
    frees non-leaf gradients as it goes; :func:`reference_backward` copies
    every first gradient and keeps every ``.grad``.  Leaf gradients must be
    bit-equal between the two, own their memory, and accumulate over
    repeated passes."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=graph_ops)
    def test_matches_reference_tape(self, seed, ops):
        leaves, loss = build_graph(seed, ops)
        reference_backward(loss)
        expected = leaf_grads(leaves)

        leaves, loss = build_graph(seed, ops)
        tape = loss._topological_order()
        loss.backward()
        assert_bit_equal(leaf_grads(leaves), expected)
        assert all(node.grad is None for node in tape if node._backward is not None)
        grads = [t.grad for t in leaves if t.grad is not None]
        forward = [node.data for node in tape]
        for index, grad in enumerate(grads):
            for other in grads[index + 1:] + forward:
                assert not np.shares_memory(grad, other)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), ops=graph_ops)
    def test_repeated_backward_accumulates(self, seed, ops):
        leaves, loss = build_graph(seed, ops)
        reference_backward(loss)
        once = leaf_grads(leaves)
        for node in loss._topological_order():
            if node._backward is not None:  # a fresh pass starts from the root
                node.grad = None
        reference_backward(loss)
        twice = leaf_grads(leaves)

        leaves, loss = build_graph(seed, ops)
        loss.backward()
        loss.backward()
        assert_bit_equal(leaf_grads(leaves), twice)
        for t in leaves:  # a used graph still yields the first pass's gradients
            t.grad = None
        loss.backward()
        assert_bit_equal(leaf_grads(leaves), once)
