"""Shared utilities: geometry helpers, RNG handling, logging."""

from repro.utils.geometry import BoundingBox, Rect, manhattan_distance, euclidean_distance
from repro.utils.rng import make_rng
from repro.utils.logging import get_logger

__all__ = [
    "BoundingBox",
    "Rect",
    "manhattan_distance",
    "euclidean_distance",
    "make_rng",
    "get_logger",
]
