"""First-order optimisers.

The ``Stacked*`` variants drive fused multi-net training
(:mod:`repro.nn.batched`): every parameter carries a leading **ensemble
axis** ``E`` and the loss is a sum of E per-member losses, so each member's
slice of the gradient is exactly its own gradient.  Because the SGD/Adam
update rules are elementwise, applying them to the stacked tensors *is* the
per-member update — the momentum/Adam moment buffers simply inherit the
leading axis, giving every member independent optimiser state in one pass.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Parameter


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, params: list[Parameter], lr: float):
        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.params:
            param.grad = None

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum, weight decay and Nesterov."""

    def __init__(self, params: list[Parameter], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, nesterov: bool = False):
        super().__init__(params, lr)
        if nesterov and momentum <= 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = grad + self.momentum * velocity if self.nesterov else velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with optional decoupled weight decay."""

    def __init__(self, params: list[Parameter], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.decoupled = decoupled
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay and not self.decoupled:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            update = (m / bias1) / (np.sqrt(v / bias2) + self.eps)
            if self.weight_decay and self.decoupled:
                update = update + self.weight_decay * param.data
            param.data -= self.lr * update


def _check_stacked(params: list[Parameter], num_stacked: int) -> list[Parameter]:
    """Validate that every parameter carries the leading ensemble axis."""
    params = list(params)
    if num_stacked < 1:
        raise ValueError("need at least one stacked member")
    for param in params:
        if param.ndim < 1 or param.shape[0] != num_stacked:
            raise ValueError(
                f"stacked optimiser expects a leading ensemble axis of "
                f"{num_stacked}, got parameter shape {param.shape}")
    return params


class StackedSGD(SGD):
    """Momentum SGD over E stacked parameter sets in one elementwise pass.

    Exactly equivalent to E independent :class:`SGD` instances over the
    member slices (the velocity buffers carry the leading ensemble axis);
    ``member_state`` exposes one member's slices for inspection and parity
    tests.
    """

    def __init__(self, params: list[Parameter], num_stacked: int, lr: float,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 nesterov: bool = False):
        super().__init__(_check_stacked(params, num_stacked), lr,
                         momentum=momentum, weight_decay=weight_decay,
                         nesterov=nesterov)
        self.num_stacked = num_stacked

    def member_state(self, member: int) -> list[np.ndarray]:
        """The given member's velocity buffers (views, not copies)."""
        return [velocity[member] for velocity in self._velocity]


class StackedAdam(Adam):
    """Adam over E stacked parameter sets in one elementwise pass.

    The first/second moment buffers carry the leading ensemble axis; the
    bias-correction step count is shared, which matches E independent
    :class:`Adam` runs stepping in lockstep.
    """

    def __init__(self, params: list[Parameter], num_stacked: int, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0, decoupled: bool = False):
        super().__init__(_check_stacked(params, num_stacked), lr, betas=betas,
                         eps=eps, weight_decay=weight_decay, decoupled=decoupled)
        self.num_stacked = num_stacked

    def member_state(self, member: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """The given member's (m, v) moment buffers (views, not copies)."""
        return [(m[member], v[member]) for m, v in zip(self._m, self._v)]

