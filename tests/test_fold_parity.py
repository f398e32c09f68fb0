"""Differential parity suite for the eval-time conv←BN fold.

:func:`repro.nn.batched.fold_batch_norm` rewrites every adjacent
conv→batch-norm pair of an eval engine into the conv's own weights, once
and in place.  It must be invisible to whatever the engine serves:

* **numerics** — folded eval outputs match the unfolded engine and the
  looped per-body reference to ≤ 1e-5 across a seeded sweep of kernel
  sizes, strides, paddings, channel counts and ensemble sizes N;
* **one-way fold** — the source bodies stay bit-unchanged, and folding
  twice equals folding once;
* **serving engines** — ``Server`` rebuilds its folded engines when the
  bodies change (``sync()`` or a train-mode pass), ``FittedDefense``
  serves its folded pass like the loop, and ``Server(fold_bn=False)`` is
  the plain unfolded engine.
"""

import numpy as np
import pytest

from repro import nn
from repro.ci.pipeline import Server
from repro.core.selector import Selector
from repro.defenses.base import FittedDefense
from repro.models.resnet import ResNetBody, ResNetConfig, ResNetHead, ResNetTail
from repro.nn.batched import StackedBodies, find_fold_pairs, fold_batch_norm
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng


def make_conv_bn_bodies(num_nets: int, in_channels: int, out_channels: int,
                        kernel_size: int, stride: int, padding: int,
                        bias: bool, spatial: int, seed: int,
                        depth: int = 2) -> list[nn.Module]:
    """N conv→BN→ReLU stacks with warmed-up (non-trivial) BN statistics."""
    bodies = []
    for i in range(num_nets):
        rng = new_rng(seed * 97 + i)
        layers = []
        channels = in_channels
        for _ in range(depth):
            layers += [
                nn.Conv2d(channels, out_channels, kernel_size, stride=stride,
                          padding=padding, bias=bias, rng=rng),
                nn.BatchNorm2d(out_channels),
                nn.ReLU(),
            ]
            channels = out_channels
        body = nn.Sequential(*layers)
        warm_up_batch_norm(body, rng.standard_normal(
            (4, in_channels, spatial, spatial)).astype(np.float32))
        bodies.append(body)
    return bodies


def warm_up_batch_norm(module: nn.Module, batch: np.ndarray) -> None:
    """One train-mode batch moves running_mean/var off their init values
    so the fold has statistics to absorb; the module ends in eval mode."""
    module.train()
    with no_grad():
        module(Tensor(batch))
    module.eval()


def folded_engine(bodies: list[nn.Module]) -> StackedBodies:
    engine = StackedBodies.try_build(bodies, eval_mode=True)
    assert engine is not None
    return fold_batch_norm(engine)


def sweep_case(seed: int) -> dict:
    """One seeded draw over the fold's whole configuration space."""
    rng = np.random.default_rng(seed)
    kernel_size = int(rng.choice([1, 3, 5]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1, 2]))
    # Smallest drawn spatial size that survives both strided conv layers.
    def out_size(size: int) -> int:
        for _ in range(2):
            size = (size + 2 * padding - kernel_size) // stride + 1
        return size

    spatial = next(s for s in [int(rng.choice([6, 8, 11])), 11, 16, 24]
                   if out_size(s) >= 1)
    return {
        "num_nets": int(rng.choice([2, 3, 5, 8])),
        "in_channels": int(rng.integers(1, 6)),
        "out_channels": int(rng.integers(1, 9)),
        "kernel_size": kernel_size,
        "stride": stride,
        "padding": padding,
        "bias": bool(rng.integers(0, 2)),
        "spatial": spatial,
        "seed": seed,
    }


def small_bodies(seed: int = 5) -> list[nn.Module]:
    return make_conv_bn_bodies(num_nets=3, in_channels=3, out_channels=8,
                               kernel_size=3, stride=1, padding=1, bias=True,
                               spatial=8, seed=seed)


def small_features(seed: int = 6) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (2, 3, 8, 8)).astype(np.float32)


def looped(bodies: list[nn.Module], features: np.ndarray) -> list[np.ndarray]:
    return Server(bodies, backend="looped").compute(features)


class TestFoldedEvalParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_sweep_folded_matches_unfolded_and_looped(self, seed):
        """Folded eval ≡ unfolded engine ≡ looped bodies, ≤ 1e-5."""
        case = sweep_case(seed)
        bodies = make_conv_bn_bodies(**case)
        rng = np.random.default_rng(1000 + seed)
        x = Tensor(rng.standard_normal(
            (3, case["in_channels"], case["spatial"], case["spatial"])
        ).astype(np.float32))
        folded = folded_engine(bodies)
        unfolded = StackedBodies.try_build(bodies, eval_mode=True)
        assert all(bn.folded for _, bn in find_fold_pairs(folded))
        assert not any(bn.folded for _, bn in find_fold_pairs(unfolded))
        with no_grad():
            out_folded = folded(x).data
            out_unfolded = unfolded(x).data
            out_looped = np.stack([body(x).data for body in bodies])
        np.testing.assert_allclose(out_folded, out_unfolded, atol=1e-5,
                                   rtol=0)
        np.testing.assert_allclose(out_folded, out_looped, atol=1e-5, rtol=0)

    @pytest.mark.parametrize("backend", ["batched", "looped"])
    def test_server_backends_agree_with_fold(self, backend):
        """Both Server backends serve fold-compatible outputs ≤ 1e-5."""
        bodies = small_bodies()
        features = small_features()
        server = Server(bodies, backend=backend, fold_bn=True)
        reference = Server(bodies, backend="looped", fold_bn=False)
        for out, ref in zip(server.compute(features),
                            reference.compute(features)):
            np.testing.assert_allclose(out, ref, atol=1e-5, rtol=0)

    def test_resnet_bodies_fold_parity(self):
        """The fold holds on real residual topologies, not just chains."""
        from repro.models.resnet import resnet8

        bodies = []
        for i in range(3):
            body = resnet8(width=8, rng=new_rng(40 + i))
            warm_up_batch_norm(body, np.random.default_rng(50 + i)
                               .standard_normal((2, 3, 8, 8))
                               .astype(np.float32))
            bodies.append(body)
        folded = folded_engine(bodies)
        unfolded = StackedBodies.try_build(bodies, eval_mode=True)
        assert len(find_fold_pairs(folded)) > 0
        x = Tensor(np.random.default_rng(60).standard_normal(
            (2, 3, 8, 8)).astype(np.float32))
        with no_grad():
            np.testing.assert_allclose(folded(x).data, unfolded(x).data,
                                       atol=1e-5, rtol=0)


class TestOneWayFold:
    def test_fold_leaves_source_bodies_bit_unchanged(self):
        bodies = make_conv_bn_bodies(num_nets=3, in_channels=2,
                                     out_channels=5, kernel_size=3, stride=1,
                                     padding=1, bias=False, spatial=6,
                                     seed=21)
        before = [{k: v.copy() for k, v in body.state_dict().items()}
                  for body in bodies]
        folded_engine(bodies)
        for body, snapshot in zip(bodies, before):
            after = body.state_dict()
            assert after.keys() == snapshot.keys()
            for key in snapshot:
                np.testing.assert_array_equal(after[key], snapshot[key])

    def test_folding_twice_equals_folding_once(self):
        bodies = small_bodies(seed=22)
        engine = folded_engine(bodies)
        once = {k: v.copy() for k, v in engine.state_dict().items()}
        x = Tensor(small_features(seed=23))
        with no_grad():
            out_once = engine(x).data
            fold_batch_norm(engine)
            out_twice = engine(x).data
        twice = engine.state_dict()
        assert twice.keys() == once.keys()
        for key in once:
            np.testing.assert_array_equal(twice[key], once[key])
        np.testing.assert_array_equal(out_twice, out_once)


class TestServingEngines:
    def test_server_sync_serves_new_body_weights(self):
        bodies = make_conv_bn_bodies(num_nets=2, in_channels=2,
                                     out_channels=3, kernel_size=1, stride=1,
                                     padding=0, bias=True, spatial=5, seed=33)
        features = np.random.default_rng(34).standard_normal(
            (2, 2, 5, 5)).astype(np.float32)
        server = Server(bodies)
        assert server.backend == "batched"
        stale = server.compute(features)
        with no_grad():
            for body in bodies:
                for param in body.parameters():
                    param.data = param.data + 0.25
        server.sync()
        served = server.compute(features)
        for out, ref, old in zip(served, looped(bodies, features), stale):
            np.testing.assert_allclose(out, ref, atol=1e-5, rtol=0)
            assert np.abs(out - old).max() > 1e-3

    @pytest.mark.parametrize("num_bodies", [None, 2])
    def test_train_mode_compute_then_eval_serves_updated_stats(self,
                                                               num_bodies):
        """A train-mode pass moves the bodies' BN statistics; the next eval
        pass (full engine or k-prefix engine) must serve the new ones."""
        bodies = small_bodies(seed=35)
        features = small_features(seed=36)
        server = Server(bodies)
        before = server.compute(features, num_bodies=num_bodies)
        for body in bodies:
            body.train()
        server.compute(features * 3.0 + 1.0)  # looped, moves running stats
        for body in bodies:
            body.eval()
        served = server.compute(features, num_bodies=num_bodies)
        reference = looped(bodies, features)
        assert len(served) == len(before)
        for out, ref, old in zip(served, reference, before):
            np.testing.assert_allclose(out, ref, atol=1e-5, rtol=0)
            assert np.abs(out - old).max() > 1e-3

    def test_unfolded_server_is_bit_equal_to_unfolded_engine(self):
        bodies = small_bodies(seed=37)
        features = small_features(seed=38)
        served = Server(bodies, fold_bn=False).compute(features)
        engine = StackedBodies.try_build(bodies, eval_mode=True)
        with no_grad():
            expected = engine(Tensor(features)).data
        for i, out in enumerate(served):
            np.testing.assert_array_equal(out, expected[i])

    def test_fitted_defense_stacked_predict_matches_looped(self):
        config = ResNetConfig(num_classes=4, stem_channels=8,
                              stage_channels=(8, 16), blocks_per_stage=(1, 1))
        rng = new_rng(39)
        images = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        head = ResNetHead(config, rng).eval()
        with no_grad():
            features = head(Tensor(images)).data
        bodies = []
        for _ in range(4):
            body = ResNetBody(config, rng)
            warm_up_batch_norm(body, features)
            bodies.append(body)
        selector = Selector(4, (0, 2, 3))
        tail = ResNetTail(config, rng, in_multiplier=selector.num_active)
        defense = FittedDefense("fold", head, bodies, tail, nn.Identity(),
                                config, selector=selector)
        assert defense._stacked_active is not None
        stacked = defense.predict(images)
        defense._stacked_active = None  # force the per-body loop
        np.testing.assert_allclose(stacked, defense.predict(images),
                                   atol=1e-5, rtol=0)
