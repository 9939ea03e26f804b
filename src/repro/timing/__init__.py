"""Static timing analysis substrate (OpenTimer stand-in).

The package provides:

* :class:`TimingGraph` — pin-level timing DAG (net arcs + cell arcs) with
  levelization and clock-network handling.
* :class:`CellDelayModel` / :class:`WireRCModel` — NLDM-like cell delays and
  Elmore wire delays on a star RC model of every net.
* :class:`STAEngine` — arrival/required/slack propagation, WNS/TNS.
* :func:`report_timing` / :func:`report_timing_endpoint` — critical path
  enumeration, including the paper's O(n*k) endpoint-centric extraction.
"""

from repro.timing.graph import Arc, ArcKind, TimingGraph
from repro.timing.delay_model import CellDelayModel, WireRCModel
from repro.timing.sta import STAEngine, STAResult
from repro.timing.mcmm import (
    CORNER_PRESETS,
    MultiCornerResult,
    MultiCornerSTA,
    corner_preset,
    resolve_corners,
)
from repro.timing.report import (
    PathBatch,
    TimingPath,
    report_timing,
    report_timing_endpoint,
    PathExtractionStats,
)
from repro.timing.constraints import Corner, TimingConstraints

__all__ = [
    "Arc",
    "ArcKind",
    "TimingGraph",
    "CellDelayModel",
    "WireRCModel",
    "STAEngine",
    "STAResult",
    "CORNER_PRESETS",
    "Corner",
    "MultiCornerResult",
    "MultiCornerSTA",
    "corner_preset",
    "resolve_corners",
    "PathBatch",
    "TimingPath",
    "report_timing",
    "report_timing_endpoint",
    "PathExtractionStats",
    "TimingConstraints",
]
