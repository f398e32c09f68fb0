"""Shadow networks for the model-inversion attacker.

Per Section IV-A, the adversarial server "constructs a shadow network
``~M_c,h`` consisting of three convolutional layers with 64 channels each,
with the first one simulating the unknown ``M_c,h``, and the other two
simulating the Gaussian noise added to the intermediate output", plus a shadow
tail ``~M_c,t`` with the same shape as the client's tail.
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.models.resnet import ResNetConfig
from repro.nn import batched
from repro.utils.rng import new_rng


class ShadowHead(nn.Module):
    """Three-conv shadow of the client head (channels follow the target stem).

    The output passes through a final ReLU so the shadow features live in the
    same non-negative range as the victim's post-ReLU intermediate features —
    without it the inversion decoder trains on a signed distribution and does
    not transfer to intercepted traffic.
    """

    def __init__(self, config: ResNetConfig, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else new_rng()
        channels = config.stem_channels
        self.conv1 = nn.Conv2d(config.in_channels, channels, 3, padding=1, bias=False, rng=rng)
        self.bn1 = nn.BatchNorm2d(channels)
        self.pool = nn.MaxPool2d(2) if config.use_maxpool else nn.Identity()
        # Two extra convs absorb the (unknown) additive noise transformation.
        self.conv2 = nn.Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng)
        self.bn2 = nn.BatchNorm2d(channels)
        self.conv3 = nn.Conv2d(channels, channels, 3, padding=1, bias=False, rng=rng)
        self.bn3 = nn.BatchNorm2d(channels)

    def forward(self, x):
        out = self.pool(self.bn1(self.conv1(x))).relu()
        out = self.bn2(self.conv2(out)).relu()
        return self.bn3(self.conv3(out)).relu()


@batched.register_stacker(ShadowHead)
class StackedShadowHead(batched.StackedModule):
    """K paper-mode shadow heads executed as one fused pass.

    Lets the multi-attack engine (``InversionAttack.train_shadows``) fuse
    ``shadow_mode='paper'`` heads exactly like the matched
    :class:`~repro.models.resnet.ResNetHead` ones.
    """

    def __init__(self, heads: list[ShadowHead]):
        super().__init__()
        self.num_stacked = len(heads)
        self.conv1 = batched.stack_modules([h.conv1 for h in heads])
        self.bn1 = batched.stack_modules([h.bn1 for h in heads])
        self.pool = batched.stack_modules([h.pool for h in heads])
        self.conv2 = batched.stack_modules([h.conv2 for h in heads])
        self.bn2 = batched.stack_modules([h.bn2 for h in heads])
        self.conv3 = batched.stack_modules([h.conv3 for h in heads])
        self.bn3 = batched.stack_modules([h.bn3 for h in heads])

    def forward(self, x):
        out = self.pool(self.bn1(self.conv1(x))).relu()
        out = self.bn2(self.conv2(out)).relu()
        return self.bn3(self.conv3(out)).relu()


def build_shadow_tail(config: ResNetConfig, in_multiplier: int = 1,
                      rng: np.random.Generator | None = None) -> nn.Module:
    """Shadow tail with the same shape as the client tail ``M_c,t``."""
    rng = rng if rng is not None else new_rng()
    return nn.Linear(config.feature_dim * in_multiplier, config.num_classes, rng=rng)


def build_shadow_head(config: ResNetConfig, mode: str = "matched",
                      rng: np.random.Generator | None = None) -> nn.Module:
    """Build the attacker's shadow head.

    ``mode='paper'`` is the three-conv construction quoted in Section IV-A
    (extra capacity to absorb the victim's noise layer); ``mode='matched'``
    replicates the victim's exact head architecture — the attacker knows the
    architecture under the threat model, and the matched shadow aligns
    better when the victim adds little or no noise.
    """
    from repro.models.resnet import ResNetHead

    rng = rng if rng is not None else new_rng()
    if mode == "paper":
        return ShadowHead(config, rng=rng)
    if mode == "matched":
        return ResNetHead(config, rng=rng)
    raise ValueError(f"unknown shadow mode '{mode}'")
