"""Tests for fused multi-net training: stacked optimisers + run_stacked_sgd.

The contract: ``run_stacked_sgd`` over E stacked members with per-member RNG
streams matches E independent ``run_sgd`` runs on the same streams — same
final parameters, same loss histories — for both optimisers, and the fused
stage-1 path of ``EnsemblerTrainer`` matches its per-net fallback loop exactly.
"""

import numpy as np
import pytest

from repro import nn
from repro.core.training import (
    EnsemblerConfig,
    EnsemblerTrainer,
    TrainingConfig,
    run_sgd,
    run_stacked_sgd,
)
from repro.data.datasets import ArrayDataset
from repro.data.synthetic import cifar10_like
from repro.models.resnet import ResNetConfig
from repro.nn import functional as F
from repro.nn.batched import UnstackableError, batched_cross_entropy, stack_modules
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng

rng = np.random.default_rng(5)


def tiny_dataset(n: int = 40) -> ArrayDataset:
    images = rng.random((n, 3, 6, 6)).astype(np.float32)
    labels = rng.integers(0, 4, n)
    return ArrayDataset(images, labels)


def make_members(count: int, seed: int = 100) -> list[nn.Module]:
    return [nn.Sequential(nn.Flatten(), nn.Linear(3 * 6 * 6, 4, rng=new_rng(seed + i)))
            for i in range(count)]


class TestStackedOptimizers:
    def test_rejects_wrong_leading_axis(self):
        params = [nn.Parameter(np.zeros((3, 4), dtype=np.float32))]
        with pytest.raises(ValueError):
            nn.StackedSGD(params, num_stacked=2, lr=0.1)
        with pytest.raises(ValueError):
            nn.StackedAdam(params, num_stacked=2)

    def test_member_state_carries_ensemble_axis(self):
        params = [nn.Parameter(np.zeros((3, 4, 2), dtype=np.float32))]
        sgd = nn.StackedSGD(params, num_stacked=3, lr=0.1, momentum=0.9)
        assert sgd.member_state(1)[0].shape == (4, 2)
        adam = nn.StackedAdam(params, num_stacked=3)
        m, v = adam.member_state(2)[0]
        assert m.shape == (4, 2) and v.shape == (4, 2)

    @pytest.mark.parametrize("optimizer", ["sgd", "adam"])
    def test_stacked_step_equals_member_steps(self, optimizer):
        """One elementwise stacked step == E independent optimiser steps."""
        e = 3
        data = rng.random((e, 4, 2)).astype(np.float32)
        grads = rng.random((e, 4, 2)).astype(np.float32)
        stacked = nn.Parameter(data.copy())
        stacked.grad = grads.copy()
        config = TrainingConfig(lr=0.05, momentum=0.9, optimizer=optimizer)
        opt = config.build_stacked_optimizer([stacked], e)
        opt.step()
        for i in range(e):
            member = nn.Parameter(data[i].copy())
            member.grad = grads[i].copy()
            config.build_optimizer([member]).step()
            np.testing.assert_allclose(stacked.data[i], member.data, atol=1e-6)


class TestRunStackedSgd:
    @pytest.mark.parametrize("optimizer,lr", [("sgd", 0.05), ("adam", 1e-3)])
    def test_matches_independent_runs(self, optimizer, lr):
        """Fused E-member training == E looped runs on the same RNG streams."""
        config = TrainingConfig(epochs=3, batch_size=8, lr=lr, optimizer=optimizer)
        dataset = tiny_dataset()
        k = 3

        looped = make_members(k)
        looped_histories = []
        for i, member in enumerate(looped):
            def loss_fn(images, labels, member=member):
                return F.cross_entropy(member(Tensor(images)), labels)

            looped_histories.append(run_sgd(member.parameters(), loss_fn, dataset,
                                            config, new_rng(500 + i)))

        fused = make_members(k)
        stacked = stack_modules(fused)

        def stacked_loss(images, labels):
            return batched_cross_entropy(stacked(Tensor(images)), labels)

        fused_histories = run_stacked_sgd(stacked.parameters(), stacked_loss,
                                          dataset, config,
                                          [new_rng(500 + i) for i in range(k)])
        stacked.unstack_to(fused)

        for ref, got in zip(looped, fused):
            for p_ref, p_got in zip(ref.parameters(), got.parameters()):
                np.testing.assert_allclose(p_got.data, p_ref.data, atol=1e-5)
        np.testing.assert_allclose(np.array(fused_histories),
                                   np.array(looped_histories), atol=1e-5)

    def test_requires_member_rngs(self):
        stacked = stack_modules(make_members(2))
        with pytest.raises(ValueError):
            run_stacked_sgd(stacked.parameters(), lambda i, l: None,
                            tiny_dataset(), TrainingConfig(), [])

    def test_rejects_scalar_loss(self):
        stacked = stack_modules(make_members(2))

        def bad_loss(images, labels):
            return batched_cross_entropy(stacked(Tensor(images)), labels).sum()

        with pytest.raises(ValueError):
            run_stacked_sgd(stacked.parameters(), bad_loss, tiny_dataset(),
                            TrainingConfig(epochs=1), [new_rng(0), new_rng(1)])


def _refuse_to_stack(modules):
    raise UnstackableError("forced per-net fallback")


class TestFusedStage1:
    def test_backends_agree(self, monkeypatch):
        """Fused multi-net stage-1 == looped stage-1 on identical streams.

        The looped arm forces the real fallback: ``stack_modules`` raises
        :class:`UnstackableError`, as it does for DR-N's dropout noise.
        """
        bundle = cifar10_like(size=8, train_per_class=4, test_per_class=2,
                              num_classes=4, rng=new_rng(1))
        model_config = ResNetConfig(num_classes=4, stem_channels=8,
                                    stage_channels=(8, 16), blocks_per_stage=(1, 1))
        train = TrainingConfig(epochs=2, batch_size=8, lr=0.05)
        states = {}
        histories = {}
        config = EnsemblerConfig(num_nets=3, num_active=2, stage1=train, stage3=train)
        for backend in ("looped", "batched"):
            with monkeypatch.context() as patch:
                if backend == "looped":
                    patch.setattr("repro.core.training.stack_modules", _refuse_to_stack)
                trainer = EnsemblerTrainer(model_config, 8, config, rng=new_rng(42))
                nets, _, hist = trainer.train_stage1(bundle.train)
            states[backend] = [net.state_dict() for net in nets]
            histories[backend] = hist
        np.testing.assert_allclose(np.array(histories["batched"]),
                                   np.array(histories["looped"]), atol=1e-4)
        for looped_net, fused_net in zip(states["looped"], states["batched"]):
            for name, value in looped_net.items():
                np.testing.assert_allclose(fused_net[name], value, atol=1e-4,
                                           err_msg=f"stage-1 divergence in {name}")

    def test_unstackable_noise_falls_back(self):
        """A dropout noise factory cannot stack; stage 1 must still train."""
        bundle = cifar10_like(size=8, train_per_class=4, test_per_class=2,
                              num_classes=4, rng=new_rng(2))
        model_config = ResNetConfig(num_classes=4, stem_channels=8,
                                    stage_channels=(8, 16), blocks_per_stage=(1, 1))
        train = TrainingConfig(epochs=1, batch_size=8, lr=0.05)
        config = EnsemblerConfig(num_nets=2, num_active=1, stage1=train, stage3=train)
        trainer = EnsemblerTrainer(
            model_config, 8, config, rng=new_rng(3),
            noise_factory=lambda shape, noise_rng: nn.Dropout(0.1, rng=noise_rng))
        nets, noises, hist = trainer.train_stage1(bundle.train)
        assert len(nets) == 2 and len(hist) == 2
        assert all(len(h) == 1 for h in hist)


class TestStepMemory:
    """A stacked ResNet step at the ``small`` preset, under ``tracemalloc``
    (NumPy reports its array allocations to it).  The forward keeps each
    op's output and at most one saved array of the same size (batch norm's
    x̂), not im2col columns; the backward frees each non-leaf gradient once
    its closure has run, so its peak stays below the total of the non-leaf
    gradients that a tape holding every gradient would keep."""

    def test_backward_peak_below_non_leaf_gradients(self):
        import tracemalloc

        from repro.experiments.common import get_preset
        from repro.models.resnet import ResNet

        preset = get_preset("small")
        config = preset.dataset("cifar10").model_config
        local = np.random.default_rng(0)
        stacked = stack_modules([ResNet(config, rng=new_rng(i))
                                 for i in range(preset.num_nets)])
        stacked.train(True)
        images = local.standard_normal((preset.num_nets, 8, 3, 16, 16)).astype(np.float32)
        labels = local.integers(0, config.num_classes, (preset.num_nets, 8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loss = batched_cross_entropy(stacked(Tensor(images)), labels).sum()
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        non_leaf = sum(node.data.nbytes for node in loss._topological_order()
                       if node._backward is not None)
        assert start - before < 2 * non_leaf
        assert peak - start < non_leaf
