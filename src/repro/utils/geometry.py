"""Geometric primitives shared by the netlist, placement, and timing packages.

The placement engine works on flat NumPy arrays; the die outline is the one
rectangle kept as an object.  All coordinates are in database units (DBU);
the library does not enforce a particular physical unit so long as the
design is self-consistent.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by its lower-left and upper-right corners."""

    xl: float
    yl: float
    xh: float
    yh: float

    def __post_init__(self) -> None:
        if self.xh < self.xl or self.yh < self.yl:
            raise ValueError(
                f"Malformed rectangle: ({self.xl}, {self.yl}, {self.xh}, {self.yh})"
            )

    @property
    def width(self) -> float:
        return self.xh - self.xl

    @property
    def height(self) -> float:
        return self.yh - self.yl

    @property
    def area(self) -> float:
        return self.width * self.height
