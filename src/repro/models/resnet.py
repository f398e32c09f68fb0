"""ResNet family used throughout the paper (He et al., 2016).

The paper runs ResNet-18 with the CIFAR-style stem: a single 3x3 convolution
(this is the one layer the client keeps, ``h = 1``), an optional max-pool
(present for CIFAR-10, removed for CIFAR-100 and CelebA-HQ so the intermediate
feature map matches the sizes quoted in Section IV-A), four residual stages,
global average pooling, and one fully-connected layer (the client's tail,
``t = 1``).

``ResNetConfig`` exposes width/depth so the same topology runs at paper scale
(ResNet-18, width 64) or at CPU-friendly scale for tests and benchmarks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import nn
from repro.nn import batched
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.utils.config import FrozenConfig
from repro.utils.rng import new_rng, spawn_rng


@dataclasses.dataclass(frozen=True)
class ResNetConfig(FrozenConfig):
    """Architecture hyper-parameters for :class:`ResNet`.

    ``stem_channels`` is the channel count of the client's single head
    convolution; the paper uses 64 for every dataset.  ``use_maxpool``
    controls the stem max-pool (True for CIFAR-10, False for CIFAR-100 /
    CelebA-HQ per Section IV-A).
    """

    num_classes: int = 10
    in_channels: int = 3
    stem_channels: int = 64
    stage_channels: tuple[int, ...] = (64, 128, 256, 512)
    blocks_per_stage: tuple[int, ...] = (2, 2, 2, 2)
    use_maxpool: bool = True

    def __post_init__(self):
        if len(self.stage_channels) != len(self.blocks_per_stage):
            raise ValueError("stage_channels and blocks_per_stage must align")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def feature_dim(self) -> int:
        """Dimensionality of the pooled feature handed to the tail FC."""
        return self.stage_channels[-1]

    def intermediate_shape(self, image_hw: int) -> tuple[int, int, int]:
        """Shape (C, H, W) of the head output for a square input image."""
        spatial = image_hw // 2 if self.use_maxpool else image_hw
        return (self.stem_channels, spatial, spatial)


class BasicBlock(nn.Module):
    """Standard two-conv residual block with identity or projection shortcut."""

    def __init__(self, in_channels: int, out_channels: int, stride: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv1 = nn.Conv2d(in_channels, out_channels, 3, stride=stride, padding=1,
                               bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(out_channels)
        self.conv2 = nn.Conv2d(out_channels, out_channels, 3, stride=1, padding=1,
                               bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(out_channels)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = nn.Sequential(
                nn.Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, rng=rng),
                nn.BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.bn1(self.conv1(x)).relu()
        out = self.bn2(self.conv2(out))
        return (out + self.shortcut(x)).relu()


def _make_stage(in_channels: int, out_channels: int, blocks: int, stride: int,
                rng: np.random.Generator) -> nn.Sequential:
    layers = [BasicBlock(in_channels, out_channels, stride, rng)]
    for _ in range(blocks - 1):
        layers.append(BasicBlock(out_channels, out_channels, 1, rng))
    return nn.Sequential(*layers)


class ResNetHead(nn.Module):
    """The client's head ``M_c,h``: one 3x3 conv (+BN/ReLU and optional pool).

    This is the private layer the model-inversion attacker tries to emulate.
    """

    def __init__(self, config: ResNetConfig, rng: np.random.Generator):
        super().__init__()
        self.conv = nn.Conv2d(config.in_channels, config.stem_channels, 3, stride=1,
                              padding=1, bias=False, rng=rng)
        self.bn = nn.BatchNorm2d(config.stem_channels)
        self.pool = nn.MaxPool2d(2) if config.use_maxpool else nn.Identity()

    def forward(self, x: Tensor) -> Tensor:
        # max and ReLU commute, so ReLU runs on the 4x smaller pooled map
        return self.pool(self.bn(self.conv(x))).relu()


class ResNetBody(nn.Module):
    """The server's body ``M_s``: residual stages plus global average pooling."""

    def __init__(self, config: ResNetConfig, rng: np.random.Generator):
        super().__init__()
        stages = []
        in_channels = config.stem_channels
        for index, (channels, blocks) in enumerate(
                zip(config.stage_channels, config.blocks_per_stage)):
            stride = 1 if index == 0 else 2
            stages.append(_make_stage(in_channels, channels, blocks, stride, rng))
            in_channels = channels
        self.stages = nn.Sequential(*stages)
        self.pool = nn.GlobalAvgPool2d()

    def forward(self, x: Tensor) -> Tensor:
        return self.pool(self.stages(x))


class ResNetTail(nn.Module):
    """The client's tail ``M_c,t``: the final fully-connected classifier.

    ``in_multiplier`` widens the input for Ensembler, whose selector
    concatenates P normalised feature vectors (Eq. 1).
    """

    def __init__(self, config: ResNetConfig, rng: np.random.Generator,
                 in_multiplier: int = 1):
        super().__init__()
        self.fc = nn.Linear(config.feature_dim * in_multiplier, config.num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(x)


class ResNet(nn.Module):
    """Full classification network ``M = {M_c,h, M_s, M_c,t}``."""

    def __init__(self, config: ResNetConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else new_rng()
        self.config = config
        self.head = ResNetHead(config, spawn_rng(rng))
        self.body = ResNetBody(config, spawn_rng(rng))
        self.tail = ResNetTail(config, spawn_rng(rng))

    def forward(self, x: Tensor) -> Tensor:
        return self.tail(self.body(self.head(x)))


# ----------------------------------------------------------------------
# Batched-ensemble stackers: let N identical ResNets (or their pieces) run
# as one fused pass through repro.nn.batched.StackedBodies.
# ----------------------------------------------------------------------


@batched.register_stacker(BasicBlock)
class StackedBasicBlock(batched.StackedModule):
    """E residual blocks executed as one fused pass (same dataflow as
    :class:`BasicBlock`, with the shortcut broadcasting over the ensemble
    axis when the input is still shared)."""

    def __init__(self, blocks: list[BasicBlock]):
        super().__init__()
        self.num_stacked = len(blocks)
        self.conv1 = batched.stack_modules([b.conv1 for b in blocks])
        self.bn1 = batched.stack_modules([b.bn1 for b in blocks])
        self.conv2 = batched.stack_modules([b.conv2 for b in blocks])
        self.bn2 = batched.stack_modules([b.bn2 for b in blocks])
        self.shortcut = batched.stack_modules([b.shortcut for b in blocks])

    def forward(self, x: Tensor) -> Tensor:
        if is_grad_enabled():
            out = self.bn1(self.conv1(x)).relu()
            out = self.bn2(self.conv2(out))
            return (out + self.shortcut(x)).relu()
        # No backward will read the conv outputs, which are fresh arrays,
        # so the activation and the residual add write into them: the same
        # arithmetic in the same order, minus two full-size copies.
        out = self.bn1(self.conv1(x)).relu(inplace=True)
        out = self.bn2(self.conv2(out))
        out.data += self.shortcut(x).data
        return out.relu(inplace=True)


@batched.register_stacker(ResNetHead)
class StackedResNetHead(batched.StackedModule):
    def __init__(self, heads: list[ResNetHead]):
        super().__init__()
        self.num_stacked = len(heads)
        self.conv = batched.stack_modules([h.conv for h in heads])
        self.bn = batched.stack_modules([h.bn for h in heads])
        self.pool = batched.stack_modules([h.pool for h in heads])

    def forward(self, x: Tensor) -> Tensor:
        return self.pool(self.bn(self.conv(x))).relu()


@batched.register_stacker(ResNetBody)
class StackedResNetBody(batched.StackedModule):
    def __init__(self, bodies: list[ResNetBody]):
        super().__init__()
        self.num_stacked = len(bodies)
        self.stages = batched.stack_modules([b.stages for b in bodies])
        self.pool = batched.stack_modules([b.pool for b in bodies])

    def forward(self, x: Tensor) -> Tensor:
        return self.pool(self.stages(x))


@batched.register_stacker(ResNetTail)
class StackedResNetTail(batched.StackedModule):
    def __init__(self, tails: list[ResNetTail]):
        super().__init__()
        self.num_stacked = len(tails)
        self.fc = batched.stack_modules([t.fc for t in tails])

    def forward(self, x: Tensor) -> Tensor:
        return self.fc(x)


@batched.register_stacker(ResNet)
class StackedResNet(batched.StackedModule):
    """E complete networks fused end to end (stage-1 BN recalibration runs
    all N replays as one pass through this)."""

    def __init__(self, models: list["ResNet"]):
        super().__init__()
        self.num_stacked = len(models)
        self.head = batched.stack_modules([m.head for m in models])
        self.body = batched.stack_modules([m.body for m in models])
        self.tail = batched.stack_modules([m.tail for m in models])

    def forward(self, x: Tensor) -> Tensor:
        return self.tail(self.body(self.head(x)))


def resnet18(num_classes: int = 10, use_maxpool: bool = True,
             rng: np.random.Generator | None = None) -> ResNet:
    """Paper-scale ResNet-18 (width 64, 2-2-2-2 blocks)."""
    config = ResNetConfig(num_classes=num_classes, use_maxpool=use_maxpool)
    return ResNet(config, rng=rng)


def resnet10(num_classes: int = 10, width: int = 16, use_maxpool: bool = True,
             rng: np.random.Generator | None = None) -> ResNet:
    """Reduced ResNet (1-1-1-1 blocks) for benchmark-scale experiments."""
    config = ResNetConfig(
        num_classes=num_classes,
        stem_channels=width,
        stage_channels=(width, 2 * width, 4 * width, 8 * width),
        blocks_per_stage=(1, 1, 1, 1),
        use_maxpool=use_maxpool,
    )
    return ResNet(config, rng=rng)


def resnet8(num_classes: int = 10, width: int = 8, use_maxpool: bool = True,
            rng: np.random.Generator | None = None) -> ResNet:
    """Minimal two-stage ResNet used by the unit tests."""
    config = ResNetConfig(
        num_classes=num_classes,
        stem_channels=width,
        stage_channels=(width, 2 * width),
        blocks_per_stage=(1, 1),
        use_maxpool=use_maxpool,
    )
    return ResNet(config, rng=rng)
