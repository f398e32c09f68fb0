"""Tests for the defense implementations behind the uniform FittedDefense API."""

import numpy as np
import pytest

from repro import nn
from repro.core import EnsemblerConfig, TrainingConfig
from repro.data import cifar10_like
from repro.defenses import (
    REGISTRY,
    AlwaysOnDropout,
    FittedDefense,
    ShredderNoise,
    fit_dropout_ensemble,
    fit_dropout_single,
    fit_ensembler,
    fit_no_defense,
    fit_shredder,
    fit_single,
)
from repro.models import ResNetConfig
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import new_rng

rng = np.random.default_rng(71)

TINY_MODEL = ResNetConfig(num_classes=4, stem_channels=8, stage_channels=(8, 16),
                          blocks_per_stage=(1, 1), use_maxpool=True)
TINY_TRAIN = TrainingConfig(epochs=2, batch_size=16, lr=0.05)
TINY_ENSEMBLE = EnsemblerConfig(num_nets=3, num_active=2, sigma=0.1, lambda_reg=1.0,
                                stage1=TINY_TRAIN, stage3=TINY_TRAIN)


@pytest.fixture(scope="module")
def bundle():
    return cifar10_like(size=16, train_per_class=8, test_per_class=4, num_classes=4)


class TestFittedDefense:
    def test_requires_bodies(self):
        with pytest.raises(ValueError):
            FittedDefense("x", nn.Identity(), [], nn.Identity(), nn.Identity(), TINY_MODEL)

    def test_selector_arity_checked(self, bundle):
        from repro.core import Selector
        defense = fit_no_defense(bundle, TINY_MODEL, training=TINY_TRAIN, rng=new_rng(0))
        with pytest.raises(ValueError):
            FittedDefense("x", defense.head, defense.bodies, defense.tail, defense.noise,
                          TINY_MODEL, selector=Selector(3, (0,)))

    def test_predict_shape(self, bundle):
        defense = fit_no_defense(bundle, TINY_MODEL, training=TINY_TRAIN, rng=new_rng(0))
        logits = defense.predict(bundle.test.images[:4])
        assert logits.shape == (4, 4)

    def test_intermediate_is_noised_head(self, bundle):
        defense = fit_single(bundle, TINY_MODEL, sigma=0.3, training=TINY_TRAIN,
                             rng=new_rng(0))
        images = bundle.test.images[:2]
        with no_grad():
            clean = defense.head(Tensor(images)).data
        noised = defense.intermediate(images)
        expected = np.broadcast_to(defense.noise.noise, noised.shape)
        np.testing.assert_allclose(noised - clean, expected, atol=1e-5)

    def test_accuracy_in_unit_range(self, bundle):
        defense = fit_no_defense(bundle, TINY_MODEL, training=TINY_TRAIN, rng=new_rng(0))
        assert 0.0 <= defense.accuracy(bundle.test) <= 1.0


class TestBaselines:
    def test_no_defense_has_identity_noise(self, bundle):
        defense = fit_no_defense(bundle, TINY_MODEL, training=TINY_TRAIN, rng=new_rng(0))
        assert defense.name == "none"
        assert isinstance(defense.noise, nn.Identity)
        assert len(defense.bodies) == 1
        assert defense.selector is None

    def test_single_uses_fixed_gaussian(self, bundle):
        from repro.core import FixedGaussianNoise
        defense = fit_single(bundle, TINY_MODEL, sigma=0.1, training=TINY_TRAIN,
                             rng=new_rng(0))
        assert isinstance(defense.noise, FixedGaussianNoise)
        assert defense.extras["sigma"] == 0.1

    def test_training_history_recorded(self, bundle):
        defense = fit_single(bundle, TINY_MODEL, training=TINY_TRAIN, rng=new_rng(0))
        assert len(defense.extras["history"]) == TINY_TRAIN.epochs

    def test_dropout_single_noise_active_in_eval(self, bundle):
        defense = fit_dropout_single(bundle, TINY_MODEL, p=0.5, training=TINY_TRAIN,
                                     rng=new_rng(0))
        assert isinstance(defense.noise, AlwaysOnDropout)
        a = defense.intermediate(bundle.test.images[:1])
        b = defense.intermediate(bundle.test.images[:1])
        assert not np.array_equal(a, b)  # dropout still randomises at inference

    def test_always_on_dropout_validation(self):
        with pytest.raises(ValueError):
            AlwaysOnDropout(1.0)


class TestShredder:
    @pytest.fixture(scope="class")
    def shredder(self, bundle):
        return fit_shredder(bundle, TINY_MODEL, bank_size=2, training=TINY_TRAIN,
                            noise_training=TINY_TRAIN, rng=new_rng(0))

    def test_noise_bank_size(self, shredder):
        assert isinstance(shredder.noise, ShredderNoise)
        assert shredder.noise.bank_size == 2

    def test_bank_tensors_differ(self, shredder):
        a = shredder.noise.noise_0
        b = shredder.noise.noise_1
        assert not np.array_equal(a, b)

    def test_learned_noise_is_larger_than_init(self, bundle):
        """The magnitude bonus must grow the noise beyond its init scale."""
        defense = fit_shredder(bundle, TINY_MODEL, bank_size=1, init_sigma=0.1, mu=0.5,
                               training=TINY_TRAIN,
                               noise_training=TrainingConfig(epochs=4, batch_size=16, lr=0.05),
                               rng=new_rng(1))
        learned = np.abs(defense.noise.noise_0).mean()
        assert learned > 0.08  # grew from |N(0, 0.1)| mean ~= 0.08

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            ShredderNoise([])

    def test_intermediate_uses_sampled_noise(self, shredder, bundle):
        values = {shredder.intermediate(bundle.test.images[:1]).tobytes()
                  for _ in range(8)}
        assert len(values) >= 2  # different bank entries get sampled


class TestEnsembleDefenses:
    @pytest.fixture(scope="class")
    def ensembler(self, bundle):
        return fit_ensembler(bundle, TINY_MODEL, config=TINY_ENSEMBLE, rng=new_rng(0))

    def test_ensembler_shape(self, ensembler):
        assert ensembler.name == "ensembler"
        assert len(ensembler.bodies) == 3
        assert ensembler.selector is not None
        assert ensembler.selector.num_active == 2

    def test_ensembler_predicts(self, ensembler, bundle):
        assert ensembler.predict(bundle.test.images[:4]).shape == (4, 4)

    def test_ensembler_keeps_training_result(self, ensembler):
        result = ensembler.extras["training_result"]
        assert len(result.stage1_nets) == 3

    @staticmethod
    def reference_logits(ensembler, images):
        """The trained EnsemblerModel, which evaluates bodies one by one."""
        with no_grad():
            return ensembler.extras["training_result"].model(Tensor(images)).data

    def test_fused_predict_matches_reference_model(self, ensembler, bundle):
        """predict() runs the P selected bodies as one stacked pass."""
        assert ensembler._stacked_active is not None
        images = bundle.test.images[:8]
        np.testing.assert_allclose(ensembler.predict(images),
                                   self.reference_logits(ensembler, images),
                                   rtol=0, atol=1e-5)

    def test_unstackable_selected_bodies_match_reference_model(self, ensembler, bundle):
        """Wrapping one selected body makes the selection heterogeneous, so
        predict() takes its per-body fallback; logits must not move."""
        bodies = list(ensembler.bodies)
        wrapped = ensembler.selector.indices[0]
        bodies[wrapped] = nn.Sequential(bodies[wrapped])
        defense = FittedDefense("wrapped", ensembler.head, bodies, ensembler.tail,
                                ensembler.noise, TINY_MODEL, selector=ensembler.selector)
        assert defense._stacked_active is None
        images = bundle.test.images[:8]
        np.testing.assert_allclose(defense.predict(images),
                                   self.reference_logits(ensembler, images),
                                   rtol=0, atol=1e-5)

    def test_dropout_ensemble_removes_stage1_noise(self, bundle):
        defense = fit_dropout_ensemble(bundle, TINY_MODEL, config=TINY_ENSEMBLE, p=0.2,
                                       rng=new_rng(1))
        assert defense.name == "dr-3"
        config = defense.extras["config"]
        assert config.sigma == 0.0
        assert config.lambda_reg == 0.0
        assert isinstance(defense.noise, AlwaysOnDropout)

    def test_registry_complete(self):
        assert set(REGISTRY) == {"none", "single", "shredder", "dr-single",
                                 "dr-ensemble", "ensembler"}
