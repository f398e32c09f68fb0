"""Scale presets and dataset specifications shared by every experiment.

The paper's experiments run ResNet-18 (width 64) on full CIFAR-10/100 and
CelebA-HQ with N=10 server nets; that takes GPU-days.  The presets keep the
*structure* of every experiment — the h=1/t=1 split, the ensemble size N,
the per-dataset selector sizes P={4,3,5}, the noise σ=0.1, both attack
constructions — while scaling width, image size and dataset size so the whole
table regenerates on a CPU:

* ``tiny``  — unit/integration tests (N=4, seconds per experiment);
* ``small`` — benchmark + EXPERIMENTS.md scale (N=10, minutes per table);
* ``paper`` — the paper's configuration (runs, but budget hours per stage).
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.attacks.mia import AttackConfig
from repro.core.training import EnsemblerConfig, TrainingConfig
from repro.data.datasets import DatasetBundle
from repro.data.synthetic import celeba_hq_like, cifar10_like, cifar100_like
from repro.models.resnet import ResNetConfig


@dataclasses.dataclass(frozen=True)
class DatasetSpec:
    """One benchmark dataset plus its paper-prescribed configuration."""

    key: str
    bundle_factory: Callable[[np.random.Generator], DatasetBundle]
    model_config: ResNetConfig
    num_active: int  # the paper's P for this dataset


@dataclasses.dataclass(frozen=True)
class ExperimentPreset:
    """Everything an experiment runner needs at one scale."""

    name: str
    datasets: tuple[DatasetSpec, ...]
    num_nets: int
    sigma: float
    lambda_reg: float
    train: TrainingConfig
    stage3: TrainingConfig
    attack: AttackConfig
    probe_size: int
    traffic_size: int

    def dataset(self, key: str) -> DatasetSpec:
        for spec in self.datasets:
            if spec.key == key:
                return spec
        raise KeyError(f"preset '{self.name}' has no dataset '{key}'")

    def ensembler_config(self, spec: DatasetSpec) -> EnsemblerConfig:
        return EnsemblerConfig(
            num_nets=self.num_nets,
            num_active=spec.num_active,
            sigma=self.sigma,
            lambda_reg=self.lambda_reg,
            stage1=self.train,
            stage3=self.stage3,
        )


def _stages(width: int, num_stages: int) -> tuple[int, ...]:
    return tuple(width * 2**i for i in range(num_stages))


def _tiny_preset() -> ExperimentPreset:
    def cifar10(rng):
        return cifar10_like(size=16, train_per_class=8, test_per_class=4, num_classes=4,
                            rng=rng)

    def cifar100(rng):
        return cifar100_like(size=16, train_per_class=4, test_per_class=2, num_classes=8,
                             rng=rng)

    def celeba(rng):
        return celeba_hq_like(size=16, num_identities=4, train_per_identity=8,
                              test_per_identity=4, rng=rng)

    def config(classes, maxpool):
        return ResNetConfig(num_classes=classes, stem_channels=8,
                            stage_channels=_stages(8, 2), blocks_per_stage=(1, 1),
                            use_maxpool=maxpool)

    train = TrainingConfig(epochs=2, batch_size=16, lr=0.05)
    return ExperimentPreset(
        name="tiny",
        datasets=(
            DatasetSpec("cifar10", cifar10, config(4, True), num_active=2),
            DatasetSpec("cifar100", cifar100, config(8, False), num_active=2),
            DatasetSpec("celeba", celeba, config(4, False), num_active=2),
        ),
        num_nets=4,
        sigma=0.1,
        lambda_reg=1.0,
        train=train,
        stage3=train,
        attack=AttackConfig(
            shadow=TrainingConfig(epochs=3, batch_size=16, lr=2e-3, optimizer="adam"),
            decoder=TrainingConfig(epochs=3, batch_size=16, lr=3e-3, optimizer="adam"),
            decoder_width=16,
        ),
        probe_size=8,
        traffic_size=32,
    )


def _small_preset() -> ExperimentPreset:
    def cifar10(rng):
        return cifar10_like(size=16, train_per_class=32, test_per_class=8,
                            num_classes=10, rng=rng)

    def cifar100(rng):
        # The 100-class set scaled to 20 classes (same classes-per-sample
        # ratio); the paper's no-maxpool variant is preserved.
        return cifar100_like(size=16, train_per_class=16, test_per_class=4,
                             num_classes=20, rng=rng)

    def celeba(rng):
        return celeba_hq_like(size=16, num_identities=8, train_per_identity=40,
                              test_per_identity=8, rng=rng)

    def config(classes, maxpool):
        return ResNetConfig(num_classes=classes, stem_channels=16,
                            stage_channels=_stages(16, 2), blocks_per_stage=(1, 1),
                            use_maxpool=maxpool)

    train = TrainingConfig(epochs=5, batch_size=32, lr=0.05)
    return ExperimentPreset(
        name="small",
        datasets=(
            DatasetSpec("cifar10", cifar10, config(10, True), num_active=4),
            DatasetSpec("cifar100", cifar100, config(20, False), num_active=3),
            DatasetSpec("celeba", celeba, config(8, False), num_active=5),
        ),
        num_nets=10,
        sigma=0.1,
        lambda_reg=1.0,
        train=train,
        stage3=train,
        attack=AttackConfig(
            shadow=TrainingConfig(epochs=12, batch_size=32, lr=2e-3, optimizer="adam"),
            decoder=TrainingConfig(epochs=10, batch_size=32, lr=3e-3, optimizer="adam"),
            decoder_width=32,
        ),
        probe_size=16,
        traffic_size=256,
    )


def _paper_preset() -> ExperimentPreset:
    def cifar10(rng):
        return cifar10_like(size=32, train_per_class=5000, test_per_class=1000, rng=rng)

    def cifar100(rng):
        return cifar100_like(size=32, train_per_class=500, test_per_class=100, rng=rng)

    def celeba(rng):
        return celeba_hq_like(size=64, num_identities=30, train_per_identity=150,
                              test_per_identity=30, rng=rng)

    train = TrainingConfig(epochs=30, batch_size=128, lr=0.1)
    return ExperimentPreset(
        name="paper",
        datasets=(
            DatasetSpec("cifar10", cifar10, ResNetConfig(num_classes=10), num_active=4),
            DatasetSpec("cifar100", cifar100,
                        ResNetConfig(num_classes=100, use_maxpool=False), num_active=3),
            DatasetSpec("celeba", celeba,
                        ResNetConfig(num_classes=30, use_maxpool=False), num_active=5),
        ),
        num_nets=10,
        sigma=0.1,
        lambda_reg=1.0,
        train=train,
        stage3=train,
        attack=AttackConfig(
            shadow=TrainingConfig(epochs=30, batch_size=128, lr=2e-3, optimizer="adam"),
            decoder=TrainingConfig(epochs=30, batch_size=128, lr=3e-3, optimizer="adam"),
            decoder_width=64,
        ),
        probe_size=64,
        traffic_size=1024,
    )


_PRESET_FACTORIES = {
    "tiny": _tiny_preset,
    "small": _small_preset,
    "paper": _paper_preset,
}


def get_preset(name: str) -> ExperimentPreset:
    """Look up a scale preset by name ('tiny', 'small' or 'paper')."""
    try:
        return _PRESET_FACTORIES[name]()
    except KeyError:
        raise KeyError(f"unknown preset '{name}'; choose from {sorted(_PRESET_FACTORIES)}")
