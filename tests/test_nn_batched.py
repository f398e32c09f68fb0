"""Tests for the batched-ensemble execution engine (repro.nn.batched).

The contract under test: for any ensemble of architecturally identical
bodies, the fused stacked pass and the looped reference produce the same
outputs (≤1e-5), the same gradients, and interchangeable parameters via
``sync_from`` / ``unstack_to``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.ci import Channel, Client, EnsembleCIPipeline, Server
from repro.core import FixedGaussianNoise, Selector
from repro.core.training import recalibrate_batchnorm
from repro.models import ResNet, ResNetConfig
from repro.models.resnet import ResNetBody, ResNetHead, ResNetTail
from repro.nn import functional as F
from repro.nn.batched import (
    StackedBodies,
    UnstackableError,
    batched_batch_norm2d,
    batched_conv2d,
    batched_cross_entropy,
    batched_linear,
    batched_mse,
    stack_modules,
    unbind,
)
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng
from tests.helpers import direct_conv2d, direct_conv_transpose2d

rng = np.random.default_rng(77)


def body_config(width: int, stages: int = 2) -> ResNetConfig:
    return ResNetConfig(num_classes=4, stem_channels=width,
                        stage_channels=tuple(width * 2**i for i in range(stages)),
                        blocks_per_stage=(1,) * stages, use_maxpool=True)


def make_bodies(num_nets: int, width: int = 8, seed: int = 0) -> list[ResNetBody]:
    config = body_config(width)
    bodies = [ResNetBody(config, new_rng(seed + i)) for i in range(num_nets)]
    for body in bodies:
        body.eval()
    return bodies


def features_for(width: int, batch: int = 2, spatial: int = 8) -> np.ndarray:
    return rng.random((batch, width, spatial, spatial)).astype(np.float32)


class TestBatchedOps:
    def test_batched_linear_matches_loop(self):
        linears = [nn.Linear(6, 3, rng=new_rng(i)) for i in range(4)]
        stacked = stack_modules(linears)
        x = Tensor(rng.random((5, 6)).astype(np.float32))
        out = stacked(x)
        assert out.shape == (4, 5, 3)
        for i, lin in enumerate(linears):
            np.testing.assert_allclose(out.data[i], lin(x).data, atol=1e-6)

    def test_batched_linear_per_member_input(self):
        linears = [nn.Linear(6, 3, rng=new_rng(i)) for i in range(3)]
        stacked = stack_modules(linears)
        xs = rng.random((3, 5, 6)).astype(np.float32)
        out = stacked(Tensor(xs))
        for i, lin in enumerate(linears):
            np.testing.assert_allclose(out.data[i], lin(Tensor(xs[i])).data, atol=1e-6)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), members=st.integers(1, 6))
    def test_batched_conv2d_matches_loop(self, seed, members):
        """Property: the fused conv equals E independent direct-sum convs, any E."""
        local = np.random.default_rng(seed)
        convs = [nn.Conv2d(3, 5, 3, padding=1, rng=new_rng(seed + i))
                 for i in range(members)]
        stacked = stack_modules(convs)
        x = Tensor(local.random((2, 3, 6, 6)).astype(np.float32))
        out = stacked(x)
        assert out.shape == (members, 2, 5, 6, 6)
        for i, conv in enumerate(convs):
            np.testing.assert_allclose(out.data[i], direct_conv2d(
                x.data, conv.weight.data, conv.bias.data, 1, 1), atol=1e-5)

    def test_batched_conv2d_per_member_input(self):
        convs = [nn.Conv2d(3, 4, 3, stride=2, padding=1, rng=new_rng(i))
                 for i in range(3)]
        stacked = stack_modules(convs)
        xs = rng.random((3, 2, 3, 8, 8)).astype(np.float32)
        out = stacked(Tensor(xs))
        for i, conv in enumerate(convs):
            np.testing.assert_allclose(out.data[i], direct_conv2d(
                xs[i], conv.weight.data, conv.bias.data, 2, 1), atol=1e-5)

    def test_batched_batch_norm_eval_matches_loop(self):
        bns = [nn.BatchNorm2d(4) for _ in range(3)]
        for i, bn in enumerate(bns):
            bn.gamma.data = rng.random(4).astype(np.float32) + 0.5
            bn.beta.data = rng.random(4).astype(np.float32)
            bn.running_mean[...] = rng.random(4).astype(np.float32)
            bn.running_var[...] = rng.random(4).astype(np.float32) + 0.5
            bn.eval()
        stacked = stack_modules(bns)
        stacked.eval()
        x = Tensor(rng.random((2, 4, 5, 5)).astype(np.float32))
        out = stacked(x)
        for i, bn in enumerate(bns):
            np.testing.assert_allclose(out.data[i], bn(x).data, atol=1e-5)

    def test_batched_batch_norm_train_updates_running_stats(self):
        bns = [nn.BatchNorm2d(4) for _ in range(2)]
        stacked = stack_modules(bns)
        stacked.train()
        xs = rng.random((2, 3, 4, 5, 5)).astype(np.float32)
        stacked(Tensor(xs))
        for i, bn in enumerate(bns):
            bn.train()
            bn(Tensor(xs[i]))
            np.testing.assert_allclose(stacked.running_mean[i], bn.running_mean,
                                       atol=1e-6)
            np.testing.assert_allclose(stacked.running_var[i], bn.running_var,
                                       atol=1e-6)

    def test_unstackable_types_raise(self):
        with pytest.raises(UnstackableError):
            stack_modules([nn.Dropout(0.5), nn.Dropout(0.5)])
        with pytest.raises(UnstackableError):
            stack_modules([nn.ReLU(), nn.Identity()])
        with pytest.raises(UnstackableError):
            stack_modules([nn.Linear(4, 2, rng=new_rng(0)),
                           nn.Linear(8, 2, rng=new_rng(1))])


# Every (ensemble size, width) combination the experiment presets and the
# benchmarks exercise: tiny preset N=4/width 8, small preset N=10/width 16,
# bench N ∈ {5, 8}, plus N=3.
EXPERIMENT_SHAPES = [(3, 8), (4, 8), (5, 8), (8, 8), (10, 16)]


class TestStackedBodies:
    @pytest.mark.parametrize("num_nets,width", EXPERIMENT_SHAPES)
    def test_batched_matches_looped(self, num_nets, width):
        bodies = make_bodies(num_nets, width)
        stacked = StackedBodies(bodies)
        stacked.eval()
        x = Tensor(features_for(width))
        with no_grad():
            fused = stacked(x)
            looped = [body(x) for body in bodies]
        assert fused.shape[0] == num_nets
        for i in range(num_nets):
            assert np.abs(fused.data[i] - looped[i].data).max() <= 1e-5

    def test_gradient_parity_with_loop(self):
        """Input and parameter gradients agree between the two backends."""
        bodies = make_bodies(3)
        x_loop = Tensor(features_for(8), requires_grad=True)
        x_fused = Tensor(x_loop.data.copy(), requires_grad=True)

        nn.stack([body(x_loop) for body in bodies]).sum().backward()

        stacked = StackedBodies(bodies)
        stacked.eval()
        stacked(x_fused).sum().backward()

        np.testing.assert_allclose(x_fused.grad, x_loop.grad, atol=1e-4)
        stacked_params = dict(stacked.stacked.named_parameters())
        for i, body in enumerate(bodies):
            for name, param in body.named_parameters():
                assert name in stacked_params
                np.testing.assert_allclose(stacked_params[name].grad[i],
                                           param.grad, atol=1e-4,
                                           err_msg=f"grad mismatch: body {i}, {name}")

    def test_frozen_bodies_get_no_parameter_gradients(self):
        bodies = make_bodies(2)
        for body in bodies:
            body.requires_grad_(False)
        stacked = StackedBodies(bodies)
        stacked.eval()
        x = Tensor(features_for(8), requires_grad=True)
        stacked(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is None for p in stacked.parameters())

    def test_sync_from_roundtrip_state_dict(self):
        """bodies -> stack -> unstack_to(clones) reproduces every array."""
        bodies = make_bodies(3, seed=0)
        clones = make_bodies(3, seed=50)  # different weights, same architecture
        stacked = StackedBodies(bodies)
        stacked.unstack_to(clones)
        for body, clone in zip(bodies, clones):
            original = body.state_dict()
            restored = clone.state_dict()
            assert set(original) == set(restored)
            for key in original:
                np.testing.assert_array_equal(original[key], restored[key])

    def test_sync_from_tracks_mutation(self):
        bodies = make_bodies(2)
        stacked = StackedBodies(bodies)
        stacked.eval()
        x = Tensor(features_for(8))
        for param in bodies[0].parameters():
            param.data = param.data + 0.01
        stacked.sync_from(bodies)
        with no_grad():
            fused = stacked(x)
            looped = [body(x) for body in bodies]
        for i in range(2):
            assert np.abs(fused.data[i] - looped[i].data).max() <= 1e-5

    def test_buffer_only_ensemble_keeps_single_axis(self):
        """Stateful-but-parameterless stackers already emit the ensemble
        axis; StackedBodies must not stack it a second time."""
        noises = [FixedGaussianNoise((4, 5, 5), 0.1, new_rng(i)) for i in range(3)]
        stacked = StackedBodies(noises)
        x = Tensor(rng.random((2, 4, 5, 5)).astype(np.float32))
        with no_grad():
            out = stacked(x)
        assert out.shape == (3, 2, 4, 5, 5)
        for i, noise in enumerate(noises):
            np.testing.assert_allclose(out.data[i], noise(x).data, atol=1e-6)

    def test_stacked_parameters_do_not_alias_bodies(self):
        bodies = make_bodies(2)
        stacked = StackedBodies(bodies)
        body_arrays = {id(p.data) for body in bodies for p in body.parameters()}
        stacked_arrays = {id(p.data) for p in stacked.parameters()}
        assert not body_arrays & stacked_arrays


class TestServerBackend:
    def test_compute_backend_parity(self):
        bodies = make_bodies(4)
        features = features_for(8)
        fused = Server(bodies, backend="batched").compute(features)
        looped = Server(bodies, backend="looped").compute(features)
        assert len(fused) == len(looped) == 4
        for a, b in zip(fused, looped):
            assert np.abs(a - b).max() <= 1e-5

    def test_single_body_uses_loop(self):
        server = Server(make_bodies(1))
        assert server.backend == "looped"

    def test_heterogeneous_bodies_fall_back(self):
        bodies = [*make_bodies(1), nn.Sequential(nn.GlobalAvgPool2d())]
        server = Server(bodies)
        assert server.backend == "looped"
        assert len(server.compute(features_for(8))) == 2

    def test_sync_refreshes_after_mutation(self):
        bodies = make_bodies(2)
        server = Server(bodies)
        assert server.backend == "batched"
        for param in bodies[1].parameters():
            param.data = param.data + 0.02
        server.sync()
        features = features_for(8)
        fused = server.compute(features)
        looped = Server(bodies, backend="looped").compute(features)
        for a, b in zip(fused, looped):
            assert np.abs(a - b).max() <= 1e-5

    def test_pipeline_infer_backend_parity(self):
        config = body_config(8)
        nets = [ResNet(config, rng=new_rng(i)) for i in range(3)]
        for net in nets:
            net.eval()
        selector = Selector(3, (0, 2))
        head = ResNetHead(config, new_rng(20))
        tail = ResNetTail(config, new_rng(21), in_multiplier=2)
        head.eval()
        tail.eval()
        images = rng.random((2, 3, 16, 16)).astype(np.float32)
        logits = {}
        for backend in ("batched", "looped"):
            client = Client(head, tail, selector=selector)
            server = Server([net.body for net in nets], backend=backend)
            logits[backend] = EnsembleCIPipeline(client, server, Channel()).infer(images)
        np.testing.assert_allclose(logits["batched"], logits["looped"], atol=1e-5)


class TestStackedRecalibration:
    def test_recalibrate_batchnorm_accepts_stacked(self):
        """A fused replay recalibrates every member's BN stats like N loops."""
        nets = [ResNet(body_config(8), rng=new_rng(i)) for i in range(3)]
        clones = [ResNet(body_config(8), rng=new_rng(50 + i)) for i in range(3)]
        for net, clone in zip(nets, clones):
            clone.load_state_dict(net.state_dict())
        images = rng.random((12, 3, 16, 16)).astype(np.float32)

        for net in nets:
            recalibrate_batchnorm([net], lambda imgs, net=net: net(Tensor(imgs)),
                                  images, batch_size=4)

        stacked = stack_modules(clones)
        recalibrate_batchnorm([stacked], lambda imgs: stacked(Tensor(imgs)),
                              images, batch_size=4)
        stacked.unstack_to(clones)

        for net, clone in zip(nets, clones):
            for (name, buf), (_, clone_buf) in zip(net.named_buffers(),
                                                   clone.named_buffers()):
                np.testing.assert_allclose(clone_buf, buf, atol=1e-4,
                                           err_msg=f"buffer {name} diverged")


class TestDecoderStackers:
    """Fused-vs-looped parity for the decoder-topology stacker ops; the
    conv-transpose outputs are checked against the direct-sum reference."""

    def _grads(self, module):
        return [p.grad.copy() for p in module.parameters()]

    def test_stacked_conv_transpose_shared_input(self):
        convs = [nn.ConvTranspose2d(4, 5, 4, stride=2, padding=1, rng=new_rng(i))
                 for i in range(3)]
        stacked = stack_modules(convs)
        x = Tensor(rng.random((2, 4, 6, 6)).astype(np.float32))
        out = stacked(x)
        assert out.shape == (3, 2, 5, 12, 12)
        for i, conv in enumerate(convs):
            np.testing.assert_allclose(out.data[i], direct_conv_transpose2d(
                x.data, conv.weight.data, conv.bias.data, 2, 1), atol=1e-5)

    def test_stacked_conv_transpose_per_member_gradients(self):
        convs = [nn.ConvTranspose2d(3, 4, 4, stride=2, padding=1, rng=new_rng(i))
                 for i in range(3)]
        stacked = stack_modules(convs)
        xs = rng.random((3, 2, 3, 5, 5)).astype(np.float32)
        x = Tensor(xs, requires_grad=True)
        out = stacked(x)
        (out * out).sum().backward()
        stacked_grads = self._grads(stacked)
        for i, conv in enumerate(convs):
            xi = Tensor(xs[i], requires_grad=True)
            (lambda o: (o * o).sum().backward())(conv(xi))
            for got, ref in zip(stacked_grads, self._grads(conv)):
                np.testing.assert_allclose(got[i], ref, atol=1e-4)
            np.testing.assert_allclose(x.grad[i], xi.grad, atol=1e-4)

    def test_stacked_conv_transpose_output_padding(self):
        convs = [nn.ConvTranspose2d(2, 3, 3, stride=2, padding=1, output_padding=1,
                                    rng=new_rng(i)) for i in range(2)]
        stacked = stack_modules(convs)
        x = Tensor(rng.random((2, 2, 4, 4)).astype(np.float32))
        out = stacked(x)
        assert out.shape == (2, 2, 3, 8, 8)
        for i, conv in enumerate(convs):
            np.testing.assert_allclose(out.data[i], direct_conv_transpose2d(
                x.data, conv.weight.data, conv.bias.data, 2, 1, 1), atol=1e-5)

    def test_stacked_upsample_and_sigmoid(self):
        ups = stack_modules([nn.UpsampleNearest2d(2) for _ in range(2)])
        xs = rng.random((2, 3, 2, 4, 4)).astype(np.float32)
        out = ups(Tensor(xs))
        assert out.shape == (2, 3, 2, 8, 8)
        np.testing.assert_allclose(out.data[1], np.repeat(np.repeat(
            xs[1], 2, axis=2), 2, axis=3), atol=1e-6)
        sig = stack_modules([nn.Sigmoid() for _ in range(2)])
        out = sig(Tensor(xs))
        np.testing.assert_allclose(out.data, 1.0 / (1.0 + np.exp(-xs)), atol=1e-6)

    def test_full_decoder_tree_parity_both_variants(self):
        from repro.models.decoder import build_decoder
        for use_transposed in (True, False):
            decoders = [build_decoder((4, 4, 4), (3, 8, 8), width=4,
                                      use_transposed=use_transposed,
                                      rng=new_rng(10 + i)) for i in range(3)]
            stacked = stack_modules(decoders)
            xs = rng.random((3, 2, 4, 4, 4)).astype(np.float32)
            out = stacked(Tensor(xs))
            (out * out).sum().backward()
            stacked_grads = self._grads(stacked)
            for i, decoder in enumerate(decoders):
                o = decoder(Tensor(xs[i]))
                np.testing.assert_allclose(out.data[i], o.data, atol=1e-5)
                (o * o).sum().backward()
                for got, ref in zip(stacked_grads, self._grads(decoder)):
                    np.testing.assert_allclose(got[i], ref, atol=1e-4)

    def test_stacked_conv_transpose_unstack_roundtrip(self):
        convs = [nn.ConvTranspose2d(2, 2, 4, stride=2, padding=1, rng=new_rng(i))
                 for i in range(2)]
        stacked = stack_modules(convs)
        stacked.weight.data += 1.0
        stacked.bias.data += 0.5
        stacked.unstack_to(convs)
        for i, conv in enumerate(convs):
            np.testing.assert_allclose(conv.weight.data, stacked.weight.data[i])
            np.testing.assert_allclose(conv.bias.data, stacked.bias.data[i])
        stacked2 = stack_modules(convs)
        np.testing.assert_allclose(stacked2.weight.data, stacked.weight.data)

    def test_stacked_conv_transpose_rejects_mixed_stride(self):
        convs = [nn.ConvTranspose2d(2, 2, 4, stride=2, rng=new_rng(0)),
                 nn.ConvTranspose2d(2, 2, 4, stride=1, rng=new_rng(1))]
        with pytest.raises(UnstackableError):
            stack_modules(convs)

    def test_stacked_shadow_head_parity(self):
        from repro.models.shadow import ShadowHead
        config = body_config(8)
        heads = [ShadowHead(config, rng=new_rng(i)) for i in range(3)]
        for head in heads:
            head.eval()
        stacked = stack_modules(heads)
        stacked.eval()
        x = Tensor(rng.random((2, 3, 8, 8)).astype(np.float32))
        out = stacked(x)
        for i, head in enumerate(heads):
            np.testing.assert_allclose(out.data[i], head(x).data, atol=1e-5)


class TestPerMemberLosses:
    def test_batched_cross_entropy_matches_loop(self):
        logits = Tensor(rng.random((3, 5, 4)).astype(np.float32))
        targets = rng.integers(0, 4, size=(3, 5))
        losses = batched_cross_entropy(logits, targets)
        assert losses.shape == (3,)
        for i in range(3):
            ref = F.cross_entropy(Tensor(logits.data[i]), targets[i])
            np.testing.assert_allclose(losses.data[i], ref.data, atol=1e-6)

    def test_batched_cross_entropy_gradient_is_per_member(self):
        data = rng.random((2, 4, 3)).astype(np.float32)
        targets = rng.integers(0, 3, size=(2, 4))
        logits = Tensor(data, requires_grad=True)
        batched_cross_entropy(logits, targets).sum().backward()
        for i in range(2):
            member = Tensor(data[i], requires_grad=True)
            F.cross_entropy(member, targets[i]).backward()
            np.testing.assert_allclose(logits.grad[i], member.grad, atol=1e-6)

    def test_batched_cross_entropy_validates_shapes(self):
        with pytest.raises(ValueError):
            batched_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((2, 3)))

    def test_batched_mse_matches_loop(self):
        a = Tensor(rng.random((3, 2, 4, 5, 5)).astype(np.float32))
        b = Tensor(rng.random((3, 2, 4, 5, 5)).astype(np.float32))
        losses = batched_mse(a, b)
        assert losses.shape == (3,)
        for i in range(3):
            ref = F.mse_loss(Tensor(a.data[i]), Tensor(b.data[i]))
            np.testing.assert_allclose(losses.data[i], ref.data, atol=1e-6)

    def test_batched_mse_validates_shapes(self):
        with pytest.raises(ValueError):
            batched_mse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))


class TestStackedBatchNormRecording:
    def test_recorded_stats_are_per_member(self):
        bns = [nn.BatchNorm2d(4) for _ in range(3)]
        for bn in bns:
            bn.eval()
        stacked = stack_modules(bns)
        stacked.eval()
        stacked.record_batch_stats = True
        xs = rng.random((3, 2, 4, 5, 5)).astype(np.float32)
        stacked(Tensor(xs))
        rec_mean, rec_var = stacked.recorded_stats
        assert rec_mean.shape == (3, 4)
        for i in range(3):
            np.testing.assert_allclose(rec_mean.data[i], xs[i].mean(axis=(0, 2, 3)),
                                       atol=1e-6)
