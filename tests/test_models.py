"""Tests for the model zoo: ResNets, splits, decoders, shadow nets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import (
    ResNet,
    ResNetConfig,
    ShadowHead,
    SplitModel,
    build_decoder,
    build_shadow_tail,
    client_fraction_of_parameters,
    resnet8,
    resnet10,
    resnet18,
)
from repro.nn import functional as F
from repro.nn.batched import stack_modules
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng

rng = np.random.default_rng(11)


def tiny_config(num_classes=4, use_maxpool=True):
    return ResNetConfig(
        num_classes=num_classes, stem_channels=8, stage_channels=(8, 16),
        blocks_per_stage=(1, 1), use_maxpool=use_maxpool)


def image_batch(n=2, size=16):
    return Tensor(rng.random((n, 3, size, size)).astype(np.float32))


class TestResNetConfig:
    def test_mismatched_stages_raise(self):
        with pytest.raises(ValueError):
            ResNetConfig(stage_channels=(8, 16), blocks_per_stage=(1,))

    def test_too_few_classes_raise(self):
        with pytest.raises(ValueError):
            ResNetConfig(num_classes=1)

    def test_feature_dim(self):
        assert tiny_config().feature_dim == 16
        assert ResNetConfig().feature_dim == 512

    def test_intermediate_shape_with_maxpool(self):
        # CIFAR-10 setting of the paper: [64 x 16 x 16] for 32x32 input.
        assert ResNetConfig().intermediate_shape(32) == (64, 16, 16)

    def test_intermediate_shape_without_maxpool(self):
        # CIFAR-100 setting: [64 x 32 x 32]; CelebA: [64 x 64 x 64].
        config = ResNetConfig(use_maxpool=False)
        assert config.intermediate_shape(32) == (64, 32, 32)
        assert config.intermediate_shape(64) == (64, 64, 64)


class TestResNet:
    def test_forward_shape(self):
        model = ResNet(tiny_config(), rng=new_rng(0)).eval()
        with no_grad():
            out = model(image_batch())
        assert out.shape == (2, 4)

    def test_paper_scale_builds(self):
        model = resnet18(num_classes=10)
        # ResNet-18 has ~11.2M parameters at width 64.
        assert 10_000_000 < model.num_parameters() < 12_500_000

    def test_resnet10_smaller_than_resnet18(self):
        assert resnet10().num_parameters() < resnet18().num_parameters()

    def test_resnet8_forward_no_maxpool(self):
        model = resnet8(num_classes=3, use_maxpool=False, rng=new_rng(0)).eval()
        with no_grad():
            out = model(image_batch(size=16))
        assert out.shape == (2, 3)

    def test_head_output_matches_config(self):
        config = tiny_config()
        model = ResNet(config, rng=new_rng(0)).eval()
        with no_grad():
            features = model.head(image_batch(size=16))
        assert features.shape[1:] == config.intermediate_shape(16)

    def test_gradients_reach_every_parameter(self):
        model = ResNet(tiny_config(), rng=new_rng(0))
        out = model(image_batch())
        out.sum().backward()
        missing = [n for n, p in model.named_parameters() if p.grad is None]
        assert missing == []

    def test_train_eval_changes_bn_behaviour(self):
        model = ResNet(tiny_config(), rng=new_rng(0))
        x = image_batch()
        model.train()
        with no_grad():
            model(x)
        model.eval()
        with no_grad():
            out1 = model(x)
            out2 = model(x)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_deterministic_given_seed(self):
        a = ResNet(tiny_config(), rng=new_rng(7)).eval()
        b = ResNet(tiny_config(), rng=new_rng(7)).eval()
        x = image_batch()
        with no_grad():
            np.testing.assert_array_equal(a(x).data, b(x).data)


class TestSplitModel:
    def test_split_matches_full_forward(self):
        model = ResNet(tiny_config(), rng=new_rng(0)).eval()
        split = SplitModel.from_resnet(model)
        x = image_batch()
        with no_grad():
            np.testing.assert_allclose(split(x).data, model(x).data, rtol=1e-6)

    def test_client_holds_small_fraction(self):
        # Section I: the client keeps a minimal portion of the network.
        split = SplitModel.from_resnet(resnet18())
        assert client_fraction_of_parameters(split) < 0.01

    def test_client_server_parameter_partition(self):
        split = SplitModel.from_resnet(ResNet(tiny_config(), rng=new_rng(0)))
        client = {id(p) for p in split.client_parameters()}
        server = {id(p) for p in split.server_parameters()}
        assert not client & server
        assert len(client) + len(server) == len(split.parameters())

    def test_intermediate_is_head_output(self):
        model = ResNet(tiny_config(), rng=new_rng(0)).eval()
        split = SplitModel.from_resnet(model)
        x = image_batch()
        with no_grad():
            np.testing.assert_array_equal(split.intermediate(x).data, model.head(x).data)


class TestDecoder:
    def test_reconstruction_shape_factor2(self):
        decoder = build_decoder((8, 8, 8), (3, 16, 16), rng=new_rng(0)).eval()
        with no_grad():
            out = decoder(Tensor(rng.random((2, 8, 8, 8)).astype(np.float32)))
        assert out.shape == (2, 3, 16, 16)

    def test_reconstruction_shape_factor1(self):
        decoder = build_decoder((8, 16, 16), (3, 16, 16), rng=new_rng(0)).eval()
        with no_grad():
            out = decoder(Tensor(rng.random((1, 8, 16, 16)).astype(np.float32)))
        assert out.shape == (1, 3, 16, 16)

    def test_output_in_unit_range(self):
        decoder = build_decoder((4, 8, 8), (3, 16, 16), rng=new_rng(0)).eval()
        with no_grad():
            out = decoder(Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32)))
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_upsample_variant(self):
        decoder = build_decoder((4, 8, 8), (3, 16, 16), use_transposed=False,
                                rng=new_rng(0)).eval()
        with no_grad():
            out = decoder(Tensor(rng.random((1, 4, 8, 8)).astype(np.float32)))
        assert out.shape == (1, 3, 16, 16)

    def test_invalid_factor_raises(self):
        with pytest.raises(ValueError):
            build_decoder((4, 5, 5), (3, 16, 16), rng=new_rng(0))
        with pytest.raises(ValueError):
            build_decoder((4, 5, 5), (3, 15, 15), rng=new_rng(0))


class TestShadow:
    def test_shadow_head_matches_intermediate_shape(self):
        config = tiny_config()
        shadow = ShadowHead(config, rng=new_rng(0)).eval()
        with no_grad():
            out = shadow(image_batch(size=16))
        assert out.shape[1:] == config.intermediate_shape(16)

    def test_shadow_head_is_three_convs(self):
        shadow = ShadowHead(tiny_config(), rng=new_rng(0))
        convs = [m for m in shadow.modules() if isinstance(m, nn.Conv2d)]
        assert len(convs) == 3

    def test_shadow_tail_shape(self):
        config = tiny_config(num_classes=5)
        tail = build_shadow_tail(config, rng=new_rng(0))
        with no_grad():
            out = tail(Tensor(np.zeros((2, config.feature_dim), dtype=np.float32)))
        assert out.shape == (2, 5)

    def test_shadow_tail_multiplier(self):
        config = tiny_config()
        tail = build_shadow_tail(config, in_multiplier=3, rng=new_rng(0))
        assert tail.weight.shape == (config.num_classes, 3 * config.feature_dim)


class TestHeadReluAfterPool:
    """The ResNet and shadow heads apply their first ReLU after the
    max-pool, on a 4x smaller map.  Max and ReLU commute exactly, so the
    outputs are bit-equal (sign bits included) to the relu-then-pool
    order and the gradients equal."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), zeros=st.booleans(), nan=st.booleans())
    def test_pool_and_relu_commute(self, seed, zeros, nan):
        local = np.random.default_rng(seed)
        x = local.standard_normal((2, 3, 6, 6)).astype(np.float32)
        if zeros:  # ties, and ±0 on both sides of the ReLU
            x[local.random(x.shape) < 0.4] = 0.0
            x[local.random(x.shape) < 0.3] = -0.0
        if nan:
            x[local.random(x.shape) < 0.1] = np.nan
        upstream = local.standard_normal((2, 3, 3, 3)).astype(np.float32)
        results = []
        for order in (lambda t: F.max_pool2d(t, 2).relu(),
                      lambda t: F.max_pool2d(t.relu(), 2)):
            xt = Tensor(x, requires_grad=True)
            out = order(xt)
            out.backward(upstream)
            results.append((out.data, xt.grad))
        (new, new_grad), (old, old_grad) = results
        np.testing.assert_array_equal(new.view(np.uint32), old.view(np.uint32))
        np.testing.assert_array_equal(new_grad, old_grad)

    @pytest.mark.parametrize("shadow", [False, True])
    def test_heads_match_relu_then_pool(self, shadow):
        config = tiny_config()
        heads = [ShadowHead(config, rng=new_rng(i)) if shadow
                 else ResNet(config, rng=new_rng(i)).head for i in range(2)]

        def relu_then_pool(head, x):
            if not shadow:
                return head.pool(head.bn(head.conv(x)).relu())
            out = head.pool(head.bn1(head.conv1(x)).relu())
            out = head.bn2(head.conv2(out)).relu()
            return head.bn3(head.conv3(out)).relu()

        x = image_batch(4)
        for module in (heads[0], stack_modules(heads)):
            module.train()
            runs = []
            for forward in (module, lambda t: relu_then_pool(module, t)):
                for param in module.parameters():
                    param.grad = None
                out = forward(x)
                out.backward(np.random.default_rng(0).standard_normal(out.shape)
                             .astype(np.float32))
                runs.append((out.data, [param.grad for param in module.parameters()]))
            (new, new_grads), (old, old_grads) = runs
            np.testing.assert_array_equal(new.view(np.uint32), old.view(np.uint32))
            for new_grad, old_grad in zip(new_grads, old_grads):
                np.testing.assert_array_equal(new_grad, old_grad)
