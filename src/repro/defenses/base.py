"""Common interface every defense produces, so attacks and experiment
runners can evaluate all of them uniformly.

A fitted defense is the client/server deployment of Section II-B: a private
head, one or more server bodies (the attacker's knowledge), a private tail,
the split-point noise module and — for ensemble defenses — the secret
selector.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro import nn
from repro.core.selector import Selector
from repro.data.datasets import ArrayDataset
from repro.metrics.accuracy import evaluate_accuracy
from repro.models.resnet import ResNetConfig
from repro.nn.batched import StackedBodies, fold_batch_norm, unbind
from repro.nn.tensor import Tensor, no_grad


@dataclasses.dataclass
class FittedDefense:
    """A trained defense deployment.

    ``bodies`` is what the server holds (and the attacker knows); ``head``,
    ``tail``, ``noise`` and ``selector`` stay on the client.
    """

    name: str
    head: nn.Module
    bodies: list[nn.Module]
    tail: nn.Module
    noise: nn.Module
    model_config: ResNetConfig
    selector: Selector | None = None
    extras: dict[str, Any] = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if not self.bodies:
            raise ValueError("a defense must deploy at least one server body")
        if self.selector is not None and self.selector.num_nets != len(self.bodies):
            raise ValueError("selector arity must match the number of bodies")
        self.eval()
        # Fuse the selected bodies into one folded batched pass for
        # predict(); heterogeneous ensembles silently keep the looped path.
        self._stacked_active = None
        if self.selector is not None and self.selector.num_active > 1:
            self._stacked_active = StackedBodies.try_build(
                [self.bodies[i] for i in self.selector.indices], eval_mode=True)
            if self._stacked_active is not None:
                fold_batch_norm(self._stacked_active)

    def eval(self) -> "FittedDefense":
        for module in (self.head, self.tail, self.noise, *self.bodies):
            module.eval()
        return self

    def intermediate(self, images: np.ndarray) -> np.ndarray:
        """The features the client transmits: ``M_c,h(x) + noise``.

        This is exactly what a semi-honest server intercepts and feeds to its
        inversion decoder.
        """
        with no_grad():
            return self.noise(self.head(Tensor(images))).data

    def predict(self, images: np.ndarray) -> np.ndarray:
        """End-to-end logits through the (possibly ensembled) pipeline."""
        with no_grad():
            features = self.noise(self.head(Tensor(images)))
            if self.selector is None:
                logits = self.tail(self.bodies[0](features))
            elif self._stacked_active is not None:
                outputs = unbind(self._stacked_active(features))
                logits = self.tail(self.selector.apply_subset(outputs))
            else:
                outputs = [self.bodies[i](features) for i in self.selector.indices]
                logits = self.tail(self.selector.apply_subset(outputs))
        return logits.data

    def accuracy(self, dataset: ArrayDataset, batch_size: int = 64) -> float:
        """Test accuracy of the defended pipeline."""
        return evaluate_accuracy(self.predict, dataset, batch_size=batch_size)


class AlwaysOnDropout(nn.Module):
    """Dropout that stays active at inference — the DR defense of He et al.
    (2021): randomising the transmitted features degrades the attacker's
    decoder, at some accuracy cost."""

    def __init__(self, p: float, rng: np.random.Generator | None = None):
        super().__init__()
        from repro.utils.rng import new_rng
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else new_rng()

    def forward(self, x: Tensor) -> Tensor:
        from repro.nn import functional as F
        return F.dropout(x, self.p, self._rng, training=True)
