"""``repro.nn`` — a pure-NumPy deep-learning substrate.

This subpackage replaces PyTorch for the reproduction: reverse-mode autograd
(:mod:`repro.nn.tensor`), functional ops (:mod:`repro.nn.functional`), layers
(:mod:`repro.nn.modules`), initialisers (:mod:`repro.nn.init`) and optimisers
(:mod:`repro.nn.optim`).
"""

from repro.nn import arena, functional, init, optim
from repro.nn import batched
from repro.nn.arena import TensorArena, active_arena, use_arena
from repro.nn.batched import StackedBodies, UnstackableError, stack_modules, unbind
from repro.nn.modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    ConvTranspose2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    UpsampleNearest2d,
)
from repro.nn.optim import (
    SGD,
    Adam,
    Optimizer,
    StackedAdam,
    StackedSGD,
)
from repro.nn.tensor import Tensor, concat, no_grad, ones, stack, where, zeros

__all__ = [
    "Adam",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "ConvTranspose2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Optimizer",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "StackedAdam",
    "StackedBodies",
    "StackedSGD",
    "TensorArena",
    "Tanh",
    "Tensor",
    "UnstackableError",
    "UpsampleNearest2d",
    "active_arena",
    "arena",
    "batched",
    "concat",
    "functional",
    "init",
    "no_grad",
    "ones",
    "optim",
    "stack",
    "stack_modules",
    "unbind",
    "use_arena",
    "where",
    "zeros",
]
