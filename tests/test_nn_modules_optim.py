"""Unit tests for Module system, layers, optimisers and schedulers."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.optim import SGD, Adam
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

rng = np.random.default_rng(7)


def make_mlp(rng_seed=0):
    r = new_rng(rng_seed)
    return nn.Sequential(
        nn.Linear(4, 8, rng=r), nn.ReLU(), nn.Linear(8, 3, rng=r))


class TestModuleSystem:
    def test_parameter_registration(self):
        layer = nn.Linear(3, 2, rng=new_rng(0))
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_nested_parameter_names(self):
        model = make_mlp()
        names = [n for n, _ in model.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_num_parameters(self):
        layer = nn.Linear(3, 2, rng=new_rng(0))
        assert layer.num_parameters() == 3 * 2 + 2

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = make_mlp()
        out = model(Tensor(rng.normal(size=(2, 4)).astype(np.float32)))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_requires_grad_freeze(self):
        model = make_mlp()
        model.requires_grad_(False)
        out = model(Tensor(rng.normal(size=(2, 4)).astype(np.float32)))
        assert not out.requires_grad

    def test_state_dict_roundtrip(self):
        a = make_mlp(rng_seed=1)
        b = make_mlp(rng_seed=2)
        b.load_state_dict(a.state_dict())
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        np.testing.assert_array_equal(a(x).data, b(x).data)

    def test_state_dict_missing_key_raises(self):
        a = make_mlp()
        state = a.state_dict()
        state.pop("0.weight")
        with pytest.raises(KeyError):
            a.load_state_dict(state)

    def test_state_dict_shape_mismatch_raises(self):
        a = make_mlp()
        state = a.state_dict()
        state["0.weight"] = np.zeros((1, 1), dtype=np.float32)
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_state_dict_includes_buffers(self):
        bn = nn.BatchNorm2d(3)
        assert "running_mean" in bn.state_dict()

    def test_copy_from(self):
        a, b = make_mlp(1), make_mlp(2)
        b.copy_from(a)
        np.testing.assert_array_equal(a.state_dict()["0.weight"], b.state_dict()["0.weight"])

    def test_module_list(self):
        ml = nn.ModuleList([nn.ReLU(), nn.Tanh()])
        assert len(ml) == 2
        ml.append(nn.Sigmoid())
        assert len(ml) == 3
        with pytest.raises(RuntimeError):
            ml(Tensor(np.zeros(2)))

    def test_sequential_indexing_and_append(self):
        model = nn.Sequential(nn.ReLU())
        model.append(nn.Tanh())
        assert isinstance(model[1], nn.Tanh)
        assert len(model) == 2


class TestLayers:
    def test_linear_shapes(self):
        layer = nn.Linear(6, 4, rng=new_rng(0))
        out = layer(Tensor(np.zeros((5, 6), dtype=np.float32)))
        assert out.shape == (5, 4)

    def test_linear_no_bias(self):
        layer = nn.Linear(6, 4, bias=False, rng=new_rng(0))
        assert layer.bias is None
        assert len(list(layer.named_parameters())) == 1

    def test_conv_layer_shapes(self):
        layer = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=new_rng(0))
        out = layer(Tensor(np.zeros((2, 3, 16, 16), dtype=np.float32)))
        assert out.shape == (2, 8, 8, 8)

    def test_conv_transpose_layer_shapes(self):
        layer = nn.ConvTranspose2d(8, 3, 4, stride=2, padding=1, rng=new_rng(0))
        out = layer(Tensor(np.zeros((2, 8, 8, 8), dtype=np.float32)))
        assert out.shape == (2, 3, 16, 16)

    def test_batchnorm_layer_updates_in_train_only(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(rng.normal(4.0, 1.0, size=(8, 2, 3, 3)).astype(np.float32))
        bn(x)
        after_train = bn.running_mean.copy()
        bn.eval()
        bn(x)
        np.testing.assert_array_equal(bn.running_mean, after_train)
        assert after_train.sum() != 0

    def test_flatten_layer(self):
        out = nn.Flatten()(Tensor(np.zeros((2, 3, 4, 4))))
        assert out.shape == (2, 48)

    def test_identity(self):
        x = Tensor(np.ones(3))
        assert nn.Identity()(x) is x

    def test_dropout_layer_train_vs_eval(self):
        layer = nn.Dropout(0.5, rng=new_rng(3))
        x = Tensor(np.ones((100, 100)))
        assert (layer(x).data == 0).any()
        layer.eval()
        np.testing.assert_array_equal(layer(x).data, x.data)

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)

    def test_global_avg_pool_layer(self):
        out = nn.GlobalAvgPool2d()(Tensor(np.ones((2, 3, 5, 5))))
        assert out.shape == (2, 3)

    def test_upsample_layer(self):
        out = nn.UpsampleNearest2d(2)(Tensor(np.ones((1, 1, 3, 3))))
        assert out.shape == (1, 1, 6, 6)


class TestInit:
    def test_kaiming_normal_std(self):
        from repro.nn.init import kaiming_normal
        w = kaiming_normal((256, 128, 3, 3), new_rng(0))
        expected_std = np.sqrt(2.0 / (128 * 9))
        assert w.std() == pytest.approx(expected_std, rel=0.05)

    def test_xavier_uniform_bound(self):
        from repro.nn.init import xavier_uniform
        w = xavier_uniform((100, 200), new_rng(0))
        bound = np.sqrt(6.0 / 300)
        assert np.abs(w).max() <= bound + 1e-7

    def test_fan_requires_2d(self):
        from repro.nn.init import kaiming_normal
        with pytest.raises(ValueError):
            kaiming_normal((10,), new_rng(0))

    def test_deterministic_given_rng(self):
        from repro.nn.init import kaiming_normal
        a = kaiming_normal((4, 4), new_rng(42))
        b = kaiming_normal((4, 4), new_rng(42))
        np.testing.assert_array_equal(a, b)


class QuadraticProblem:
    """min ||W x - y||^2 over a fixed batch; convex, known optimum."""

    def __init__(self, seed=0):
        r = np.random.default_rng(seed)
        self.x = Tensor(r.normal(size=(32, 6)).astype(np.float32))
        self.w_true = r.normal(size=(4, 6)).astype(np.float32)
        self.y = Tensor((self.x.data @ self.w_true.T).astype(np.float32))
        self.layer = nn.Linear(6, 4, bias=False, rng=new_rng(seed))

    def loss(self):
        return F.mse_loss(self.layer(self.x), self.y)


class TestOptim:
    def test_sgd_converges(self):
        problem = QuadraticProblem()
        opt = SGD(self.params(problem), lr=0.1)
        self.run(problem, opt, steps=200)
        assert float(problem.loss().data) < 1e-3

    def test_sgd_momentum_converges_faster(self):
        plain, momentum = QuadraticProblem(), QuadraticProblem()
        opt_plain = SGD(self.params(plain), lr=0.05)
        opt_momentum = SGD(self.params(momentum), lr=0.05, momentum=0.9)
        self.run(plain, opt_plain, 50)
        self.run(momentum, opt_momentum, 50)
        assert float(momentum.loss().data) < float(plain.loss().data)

    def test_nesterov_requires_momentum(self):
        problem = QuadraticProblem()
        with pytest.raises(ValueError):
            SGD(self.params(problem), lr=0.1, nesterov=True)

    def test_adam_converges(self):
        problem = QuadraticProblem()
        opt = Adam(self.params(problem), lr=0.05)
        self.run(problem, opt, 300)
        assert float(problem.loss().data) < 1e-3

    def test_weight_decay_shrinks_weights(self):
        layer = nn.Linear(4, 4, bias=False, rng=new_rng(0))
        opt = SGD(layer.parameters(), lr=0.1, weight_decay=0.5)
        norm_before = np.linalg.norm(layer.weight.data)
        # No data gradient: only decay acts.
        layer.weight.grad = np.zeros_like(layer.weight.data)
        for _ in range(10):
            opt.step()
        assert np.linalg.norm(layer.weight.data) < norm_before

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr_raises(self):
        layer = nn.Linear(2, 2, rng=new_rng(0))
        with pytest.raises(ValueError):
            SGD(layer.parameters(), lr=0.0)

    def test_step_skips_none_grads(self):
        layer = nn.Linear(2, 2, rng=new_rng(0))
        before = layer.weight.data.copy()
        SGD(layer.parameters(), lr=0.1).step()
        np.testing.assert_array_equal(layer.weight.data, before)

    def test_zero_grad_clears(self):
        problem = QuadraticProblem()
        opt = SGD(self.params(problem), lr=0.1)
        problem.loss().backward()
        opt.zero_grad()
        assert all(p.grad is None for p in opt.params)

    @staticmethod
    def params(problem):
        return problem.layer.parameters()

    @staticmethod
    def run(problem, opt, steps):
        for _ in range(steps):
            opt.zero_grad()
            loss = problem.loss()
            loss.backward()
            opt.step()


class TestEndToEndTraining:
    def test_small_classifier_learns_xor(self):
        """A 2-layer MLP must fit XOR — exercises the full training loop."""
        r = new_rng(5)
        x = Tensor(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.float32))
        y = np.array([0, 1, 1, 0])
        model = nn.Sequential(nn.Linear(2, 16, rng=r), nn.Tanh(), nn.Linear(16, 2, rng=r))
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            loss = F.cross_entropy(model(x), y)
            loss.backward()
            opt.step()
        pred = model(x).data.argmax(axis=1)
        np.testing.assert_array_equal(pred, y)

    def test_conv_classifier_learns_constant_patterns(self):
        """A tiny CNN separates bright vs dark images."""
        r = new_rng(6)
        local = np.random.default_rng(0)
        bright = local.normal(1.0, 0.1, size=(16, 1, 6, 6))
        dark = local.normal(-1.0, 0.1, size=(16, 1, 6, 6))
        x = Tensor(np.concatenate([bright, dark]).astype(np.float32))
        y = np.array([0] * 16 + [1] * 16)
        model = nn.Sequential(
            nn.Conv2d(1, 4, 3, padding=1, rng=r), nn.ReLU(),
            nn.GlobalAvgPool2d(), nn.Linear(4, 2, rng=r))
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(60):
            opt.zero_grad()
            loss = F.cross_entropy(model(x), y)
            loss.backward()
            opt.step()
        accuracy = (model(x).data.argmax(axis=1) == y).mean()
        assert accuracy == 1.0
