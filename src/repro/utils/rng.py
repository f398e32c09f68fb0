"""Deterministic random-number management.

Every stochastic component in the library (weight init, data synthesis, noise
layers, selector draws, attack initialisation) takes an explicit
``numpy.random.Generator`` so that experiments are reproducible bit-for-bit
from a single seed.  A module-level default generator exists only as a
convenience for interactive use.
"""

from __future__ import annotations

import numpy as np

_DEFAULT_SEED = 0
_default_rng = np.random.default_rng(_DEFAULT_SEED)


def seed_everything(seed: int) -> np.random.Generator:
    """Reset the library-wide default generator and return it.

    Components that were constructed earlier keep their own generators; only
    code that relies on the module default is affected.
    """
    global _default_rng
    _default_rng = np.random.default_rng(seed)
    return _default_rng


def default_rng() -> np.random.Generator:
    """Return the library-wide default generator."""
    return _default_rng


def new_rng(seed: int | None = None) -> np.random.Generator:
    """Create a fresh generator.

    With ``seed=None`` the new generator is split off the library default so
    that successive calls produce independent streams yet the whole program
    stays reproducible after :func:`seed_everything`.
    """
    if seed is not None:
        return np.random.default_rng(seed)
    return spawn_rng(_default_rng)


def spawn_rng(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``."""
    return np.random.default_rng(rng.integers(0, 2**63 - 1))
