"""Layer and container abstractions over the functional API.

The design mirrors the familiar ``torch.nn`` surface (``Module``,
``Sequential``, named parameters, ``state_dict``) so that the models in the
paper can be expressed naturally, while staying small enough to audit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn import functional as F
from repro.nn import init
from repro.nn.tensor import Tensor
from repro.utils.rng import new_rng


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter`, :class:`Module` and NumPy-array
    buffers as attributes; registration is automatic.  ``forward`` must be
    overridden; calling the module invokes it.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration ---------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state saved in ``state_dict`` (e.g. running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- forward --------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- traversal ------------------------------------------------------
    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for child_name, child in self._modules.items():
            yield from child.named_buffers(prefix=f"{prefix}{child_name}.")

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- modes / gradients -----------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def requires_grad_(self, flag: bool = True) -> "Module":
        """Freeze (``flag=False``) or unfreeze every parameter of the module."""
        for param in self.parameters():
            param.requires_grad = flag
        return self

    # -- (de)serialisation -------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own_params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}")
            param.data = state[name].astype(param.data.dtype).copy()
        for name, buf in own_buffers.items():
            buf[...] = state[name]

    def copy_from(self, other: "Module") -> "Module":
        """Copy all parameters and buffers from a structurally identical module."""
        self.load_state_dict(other.state_dict())
        return self


class Sequential(Module):
    """Feed-forward container applying children in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        for i, layer in enumerate(layers):
            setattr(self, str(i), layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._modules.values():
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def append(self, layer: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), layer)
        return self


class ModuleList(Module):
    """Holds submodules in a list; useful for the N server nets of Ensembler."""

    def __init__(self, modules: list[Module] | None = None):
        super().__init__()
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        setattr(self, str(len(self._modules)), module)
        return self

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, *args, **kwargs):
        raise RuntimeError("ModuleList is a container and cannot be called")


class Identity(Module):
    """Pass-through layer (used for 'no noise' slots)."""
    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else new_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng, gain=1.0))
        self.bias = Parameter(init.bias_uniform(in_features, out_features, rng)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else new_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(init.bias_uniform(fan_in, out_channels, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose2d(Module):
    """Transposed 2-D convolution layer (used by inversion decoders)."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, output_padding: int = 0,
                 bias: bool = True, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng if rng is not None else new_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.output_padding = output_padding
        shape = (in_channels, out_channels, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_normal(shape, rng))
        if bias:
            fan_in = in_channels * kernel_size * kernel_size
            self.bias = Parameter(init.bias_uniform(fan_in, out_channels, rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv_transpose2d(x, self.weight, self.bias, stride=self.stride,
                                  padding=self.padding, output_padding=self.output_padding)


class BatchNorm2d(Module):
    """Batch normalisation with running statistics.

    ``record_batch_stats`` supports statistics-matching losses (DeepInversion
    style): when enabled, each forward stores the *input's* differentiable
    batch mean/variance in ``recorded_stats`` without changing the output
    (which keeps using running statistics in eval mode).
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features, dtype=np.float32))
        self.beta = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.record_batch_stats = False
        self.recorded_stats: tuple[Tensor, Tensor] | None = None

    def forward(self, x: Tensor) -> Tensor:
        if self.record_batch_stats:
            self.recorded_stats = (x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3)))
        return F.batch_norm2d(x, self.gamma, self.beta, self.running_mean, self.running_var,
                              training=self.training, momentum=self.momentum, eps=self.eps)


class ReLU(Module):
    """Rectified linear unit layer."""
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Tanh(Module):
    """Hyperbolic-tangent layer."""
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    """Logistic sigmoid layer (decoder output range)."""
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class MaxPool2d(Module):
    """Max-pooling layer over NCHW input."""
    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    """Average-pooling layer over NCHW input."""
    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class GlobalAvgPool2d(Module):
    """Spatial global average pooling to (N, C)."""
    def forward(self, x: Tensor) -> Tensor:
        return F.global_avg_pool2d(x)


class UpsampleNearest2d(Module):
    """Nearest-neighbour upsampling layer."""
    def __init__(self, scale: int):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample_nearest2d(x, self.scale)


class Flatten(Module):
    """Flatten trailing dimensions from ``start_dim``."""
    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = rng if rng is not None else new_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)
