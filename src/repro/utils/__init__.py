"""Shared utilities: deterministic RNG management, configuration, logging."""

from repro.utils.rng import new_rng, seed_everything, spawn_rng
from repro.utils.config import FrozenConfig
from repro.utils.logging import get_logger

__all__ = [
    "FrozenConfig",
    "get_logger",
    "new_rng",
    "seed_everything",
    "spawn_rng",
]
