"""Multi-corner/multi-mode static timing analysis (MCMM).

Production timing-driven placement never signs off against a single PVT
corner: setup is checked across several corners (and constraint modes)
simultaneously, and the optimizer works on the *merged* worst slack.  The
corner axis is just one more vectorized axis of the STA engine:

* :class:`repro.timing.constraints.Corner` — one analysis scenario: a wire-RC
  scale, a cell-delay derate, and (optionally) a mode-specific
  :class:`~repro.timing.constraints.TimingConstraints`.
* :class:`MultiCornerSTA` — defined in :mod:`repro.timing.sta` next to
  :class:`~repro.timing.sta.STAEngine`, with which it shares the one
  corner-stacked propagation; re-exported here.
* :class:`MultiCornerResult` — per-corner WNS/TNS plus the merged
  (worst-over-corners) slack the flow optimizes against.

This module holds the corner presets, :func:`resolve_corners`, the result
type and the per-corner engine view used for path extraction.

Exactness contract: every corner row runs the same arithmetic as a
one-corner engine, so corner ``i`` of a multi-corner run is **bitwise
identical** to ``MultiCornerSTA(design, corners[i])``, and the single
identity corner is bitwise the plain ``STAEngine``, which keeps every
existing single-corner flow unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.timing.constraints import Corner
from repro.timing.sta import MultiCornerSTA, STAResult

__all__ = [
    "CORNER_PRESETS",
    "CornersSpec",
    "MultiCornerResult",
    "MultiCornerSTA",
    "corner_preset",
    "resolve_corners",
]

# ----------------------------------------------------------------------
# Named corner presets (CLI ``--corners fast,typ,slow``)
# ----------------------------------------------------------------------
CORNER_PRESETS: Dict[str, Corner] = {
    # Typical: the identity corner — bitwise the single-corner engine.
    "typ": Corner("typ", wire_rc_scale=1.0, cell_derate=1.0),
    # Fast (best-case) silicon and wires: everything a little quicker.
    "fast": Corner("fast", wire_rc_scale=0.85, cell_derate=0.90),
    # Slow (worst-case) silicon and wires: the setup-critical corner.
    "slow": Corner("slow", wire_rc_scale=1.15, cell_derate=1.10),
}

CornersSpec = Union[None, str, Corner, Sequence[Union[str, Corner]]]


def corner_preset(name: str) -> Corner:
    """Look up one named corner preset."""
    try:
        return CORNER_PRESETS[name.strip().lower()]
    except KeyError as exc:
        raise KeyError(
            f"Unknown corner preset {name!r}; available: "
            f"{', '.join(sorted(CORNER_PRESETS))}"
        ) from exc


def resolve_corners(spec: CornersSpec) -> Tuple[Corner, ...]:
    """Normalize a corners spec into a tuple of :class:`Corner` objects.

    Accepts ``None`` (single identity corner), a comma-separated preset
    string (``"fast,typ,slow"``), a single :class:`Corner`, or a sequence
    mixing preset names and corner objects.  Duplicate corner names are
    rejected: per-corner reports key on the name.
    """
    if spec is None:
        corners: Tuple[Corner, ...] = (CORNER_PRESETS["typ"],)
    elif isinstance(spec, Corner):
        corners = (spec,)
    elif isinstance(spec, str):
        names = [part for part in spec.replace("+", ",").split(",") if part.strip()]
        if not names:
            raise ValueError(f"Empty corners spec {spec!r}")
        corners = tuple(corner_preset(name) for name in names)
    else:
        resolved: List[Corner] = []
        for item in spec:
            resolved.append(item if isinstance(item, Corner) else corner_preset(item))
        if not resolved:
            raise ValueError("corners sequence must not be empty")
        corners = tuple(resolved)
    seen = set()
    for corner in corners:
        corner.validate()
        if corner.name in seen:
            raise ValueError(f"Duplicate corner name {corner.name!r}")
        seen.add(corner.name)
    return corners


# ----------------------------------------------------------------------
# Result
# ----------------------------------------------------------------------
@dataclass
class MultiCornerResult:
    """Snapshot of one multi-corner timing update.

    All stacked arrays carry the corner axis first.  ``wns``/``tns`` are the
    *merged* metrics (worst slack over corners per endpoint); per-corner
    values live in ``corner_wns``/``corner_tns`` and :meth:`corner_result`.
    """

    corners: Tuple[Corner, ...]
    arrival: np.ndarray            # [num_corners, num_pins]
    required: np.ndarray           # [num_corners, num_pins]
    slack: np.ndarray              # [num_corners, num_pins]
    arc_delay: np.ndarray          # [num_corners, num_arcs]
    net_load: np.ndarray           # [num_corners, num_nets]
    endpoint_pins: np.ndarray      # [num_endpoints]
    endpoint_slack: np.ndarray     # [num_corners, num_endpoints]
    corner_wns: np.ndarray         # [num_corners]
    corner_tns: np.ndarray         # [num_corners]
    wns: float                     # merged over corners
    tns: float                     # merged over corners
    _corner_results: Dict[int, STAResult] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _merged: Optional[STAResult] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_corners(self) -> int:
        return len(self.corners)

    @property
    def merged_slack(self) -> np.ndarray:
        """Per-pin worst slack over all corners."""
        return self.slack.min(axis=0)

    @property
    def merged_endpoint_slack(self) -> np.ndarray:
        """Per-endpoint worst slack over all corners."""
        if self.endpoint_slack.size == 0:
            return np.zeros(self.endpoint_slack.shape[1])
        return self.endpoint_slack.min(axis=0)

    @property
    def num_failing_endpoints(self) -> int:
        return int(np.sum(self.merged_endpoint_slack < 0))

    def corner_result(self, index: int) -> STAResult:
        """One corner's annotations as a plain :class:`STAResult` view.

        The arrays are views into the stacked result (no copy); WNS/TNS are
        that corner's own metrics.  Usable anywhere a single-corner result
        is, including path extraction.
        """
        cached = self._corner_results.get(index)
        if cached is None:
            cached = STAResult(
                arrival=self.arrival[index],
                required=self.required[index],
                slack=self.slack[index],
                arc_delay=self.arc_delay[index],
                net_load=self.net_load[index],
                endpoint_pins=self.endpoint_pins,
                endpoint_slack=self.endpoint_slack[index],
                wns=float(self.corner_wns[index]),
                tns=float(self.corner_tns[index]),
            )
            self._corner_results[index] = cached
        return cached

    @property
    def merged(self) -> STAResult:
        """Pessimistic single-corner view: worst value over corners per entry.

        ``slack`` is the exact per-pin merged slack (min over corners);
        ``arrival``/``required``/``arc_delay``/``net_load`` are the
        element-wise pessimistic bounds, so ``slack`` here is *not* the
        difference ``required - arrival`` — it is the true per-corner minimum,
        which is what net weighting should optimize against.
        """
        if self._merged is None:
            self._merged = STAResult(
                arrival=self.arrival.max(axis=0),
                required=self.required.min(axis=0),
                slack=self.merged_slack,
                arc_delay=self.arc_delay.max(axis=0),
                net_load=self.net_load.max(axis=0),
                endpoint_pins=self.endpoint_pins,
                endpoint_slack=self.merged_endpoint_slack,
                wns=self.wns,
                tns=self.tns,
            )
        return self._merged

    def per_corner_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-corner WNS/TNS/failing-endpoint report, keyed by corner name."""
        out: Dict[str, Dict[str, float]] = {}
        for index, corner in enumerate(self.corners):
            slack = self.endpoint_slack[index]
            out[corner.name] = {
                "wns": float(self.corner_wns[index]),
                "tns": float(self.corner_tns[index]),
                "failing_endpoints": int(np.sum(slack < 0)),
            }
        return out


class _CornerEngineView:
    """Adapter exposing one corner of a :class:`MultiCornerSTA` with the
    single-corner engine interface (graph / constraints / last_result),
    so reporting and path extraction work per corner unchanged."""

    def __init__(self, parent: "MultiCornerSTA", index: int) -> None:
        self._parent = parent
        self.index = index
        self.design = parent.design
        self.graph = parent.graph
        self.corner = parent.corners[index]
        self.constraints = parent.constraints[index]
        self.endpoint_pins = parent.endpoint_pins

    @property
    def last_result(self) -> Optional[STAResult]:
        result = self._parent.last_result
        return None if result is None else result.corner_result(self.index)

    def update_timing(self, *args, **kwargs) -> STAResult:
        """Run a full multi-corner update and return this corner's slice."""
        return self._parent.update_timing(*args, **kwargs).corner_result(self.index)
