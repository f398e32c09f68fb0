"""The Ensembler model: client head/tail + N server bodies + secret selector.

This is the inference-time object of Fig. 2 (top).  ``forward`` follows the
client's view (only the P selected bodies matter); ``server_outputs`` follows
the server's view (all N bodies run, because the server cannot know which
ones are active).

The model evaluates its bodies one by one: it is the per-body reference
pipeline that training returns and tests compare against.  Deployments run
the bodies as one fused stacked pass instead — the
:class:`~repro.ci.pipeline.Server` over all N, and
:class:`~repro.defenses.base.FittedDefense` over the P selected ones — both
built from these bodies, so the model keeps no stacked copy of its weights.
"""

from __future__ import annotations

from repro import nn
from repro.core.selector import Selector
from repro.nn.tensor import Tensor


class EnsemblerModel(nn.Module):
    """Complete Ensembler pipeline.

    Parameters
    ----------
    head, tail:
        The client's private layers (``M_c,h``, ``M_c,t``); the tail input
        width must equal ``P * feature_dim`` because the selector concatenates.
    bodies:
        The N server networks ``{M_s^i}`` (trained in stage 1, frozen after).
    selector:
        The stage-2 secret selector.
    noise:
        The stage-3 fixed Gaussian noise added to the head output.
    """

    def __init__(self, head: nn.Module, bodies: list[nn.Module], tail: nn.Module,
                 selector: Selector, noise: nn.Module):
        super().__init__()
        if len(bodies) != selector.num_nets:
            raise ValueError("selector arity must match the number of bodies")
        self.head = head
        self.bodies = nn.ModuleList(bodies)
        self.tail = tail
        self.noise = noise
        self.selector = selector  # plain attribute: not a module, has no weights

    @property
    def num_nets(self) -> int:
        return len(self.bodies)

    # -- inference ------------------------------------------------------
    def intermediate(self, x: Tensor) -> Tensor:
        """What the client uploads: ``M_c,h(x) + N(0, σ)``."""
        return self.noise(self.head(x))

    def server_outputs(self, features: Tensor) -> list[Tensor]:
        """The server's honest computation: every body, in index order."""
        return [body(features) for body in self.bodies]

    def forward(self, x: Tensor) -> Tensor:
        """Client-perspective forward: only the selected bodies are evaluated."""
        features = self.intermediate(x)
        selected = [self.bodies[i](features) for i in self.selector.indices]
        return self.tail(self.selector.apply_subset(selected))

    def forward_full_protocol(self, x: Tensor) -> Tensor:
        """Protocol-faithful forward: all N bodies run, then the selector.

        Numerically identical to :meth:`forward`; used by tests to pin down
        that the client-side shortcut does not change predictions.
        """
        features = self.intermediate(x)
        outputs = self.server_outputs(features)
        return self.tail(self.selector(outputs))

    def client_parameters(self) -> list[nn.Parameter]:
        return self.head.parameters() + self.tail.parameters()

    def server_parameters(self) -> list[nn.Parameter]:
        return [p for body in self.bodies for p in body.parameters()]
