"""Shared utilities: geometry helpers, RNG handling, logging."""

from repro.utils.geometry import Rect
from repro.utils.rng import make_rng
from repro.utils.logging import get_logger

__all__ = [
    "Rect",
    "make_rng",
    "get_logger",
]
