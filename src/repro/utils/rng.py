"""Deterministic random number generation helpers.

Every stochastic component in the library (benchmark generation, initial
placement perturbation) accepts either an integer seed or an existing
``numpy.random.Generator``.  Centralizing the coercion keeps experiments
reproducible: the same seed always yields the same synthetic design and the
same placement trajectory.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a ``numpy.random.Generator``.

    Passing an existing generator returns it unchanged so that a caller can
    thread one generator through several components.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
