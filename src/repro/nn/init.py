"""Weight initialisation schemes.

All initialisers take an explicit ``numpy.random.Generator`` for determinism
and return plain NumPy arrays; layer constructors wrap them into parameters.
"""

from __future__ import annotations

import math

import numpy as np


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute fan-in/fan-out for linear (out, in) or conv (out, in, kh, kw) shapes."""
    if len(shape) < 2:
        raise ValueError("fan computation requires at least 2 dimensions")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0),
                   dtype=np.float32) -> np.ndarray:
    """He initialisation for ReLU networks: N(0, gain^2 / fan_in)."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / math.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(dtype)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = math.sqrt(2.0),
                    dtype=np.float32) -> np.ndarray:
    """He initialisation with a uniform distribution."""
    fan_in, _ = _fan_in_out(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0,
                   dtype=np.float32) -> np.ndarray:
    """Glorot initialisation with a uniform distribution."""
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def bias_uniform(fan_in: int, size: int, rng: np.random.Generator, dtype=np.float32) -> np.ndarray:
    """PyTorch-style bias init: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=size).astype(dtype)
