"""The ``sb_mini`` benchmark suite (plus the congestion-stressed designs).

Eight synthetic designs standing in for the eight ICCAD-2015 superblue cases
the paper evaluates (superblue1/3/4/5/7/10/16/18).  The parameters vary size,
logic depth, fan-out skew, utilization, and clock tightness so the suite
spans the qualitative regimes of the contest set: some designs are
wire-delay dominated (deep logic, tight clock), some have many high-fan-out
shared nets, and some are mild.  Sizes are scaled to laptop-class runtimes;
results are compared across placers as ratios, exactly as the paper reports
"Average Ratio" rows.

:data:`CONGESTION_SUITE` holds the routability workload: designs built with
the stress knobs (wide die, shared hub nets, high utilization) so that their
RUDY maps actually overflow — the cross-method timing tables keep using the
classic eight, while the routability flow and its tests load these by the
same :func:`load_benchmark` interface.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional

from repro.benchgen.synthetic import CircuitSpec, generate_circuit
from repro.netlist.design import Design
from repro.netlist.library import Library

SB_MINI_SUITE: Dict[str, CircuitSpec] = {
    "sb_mini_1": CircuitSpec(
        name="sb_mini_1", num_cells=900, sequential_fraction=0.18, logic_depth=9,
        num_primary_inputs=24, num_primary_outputs=24, fanout_alpha=1.0,
        utilization=0.65, clock_tightness=0.80, seed=101,
    ),
    "sb_mini_3": CircuitSpec(
        name="sb_mini_3", num_cells=1200, sequential_fraction=0.15, logic_depth=11,
        num_primary_inputs=32, num_primary_outputs=32, fanout_alpha=1.1,
        utilization=0.68, clock_tightness=0.78, seed=103,
    ),
    "sb_mini_4": CircuitSpec(
        name="sb_mini_4", num_cells=800, sequential_fraction=0.22, logic_depth=8,
        num_primary_inputs=20, num_primary_outputs=20, fanout_alpha=0.9,
        utilization=0.62, clock_tightness=0.82, seed=104,
    ),
    "sb_mini_5": CircuitSpec(
        name="sb_mini_5", num_cells=1400, sequential_fraction=0.14, logic_depth=13,
        num_primary_inputs=28, num_primary_outputs=28, fanout_alpha=1.2,
        utilization=0.70, clock_tightness=0.75, seed=105,
    ),
    "sb_mini_7": CircuitSpec(
        name="sb_mini_7", num_cells=1600, sequential_fraction=0.16, logic_depth=10,
        num_primary_inputs=36, num_primary_outputs=36, fanout_alpha=1.0,
        utilization=0.66, clock_tightness=0.80, seed=107,
    ),
    "sb_mini_10": CircuitSpec(
        name="sb_mini_10", num_cells=2000, sequential_fraction=0.13, logic_depth=14,
        num_primary_inputs=40, num_primary_outputs=40, fanout_alpha=1.3,
        utilization=0.72, clock_tightness=0.74, seed=110,
    ),
    "sb_mini_16": CircuitSpec(
        name="sb_mini_16", num_cells=1100, sequential_fraction=0.20, logic_depth=9,
        num_primary_inputs=24, num_primary_outputs=24, fanout_alpha=0.85,
        utilization=0.64, clock_tightness=0.83, seed=116,
    ),
    "sb_mini_18": CircuitSpec(
        name="sb_mini_18", num_cells=700, sequential_fraction=0.24, logic_depth=7,
        num_primary_inputs=16, num_primary_outputs=16, fanout_alpha=0.95,
        utilization=0.60, clock_tightness=0.85, seed=118,
    ),
}


# Routability workload: congestion-stressed designs (see the stress knobs in
# :class:`repro.benchgen.synthetic.CircuitSpec`).  Kept out of SB_MINI_SUITE
# so the paper's cross-method tables stay on the classic eight designs.
CONGESTION_SUITE: Dict[str, CircuitSpec] = {
    "sb_cong_1": CircuitSpec(
        name="sb_cong_1", num_cells=1200, sequential_fraction=0.16, logic_depth=9,
        num_primary_inputs=32, num_primary_outputs=32, fanout_alpha=0.8,
        utilization=0.88, clock_tightness=0.85, seed=201,
        aspect_ratio=4.0, hub_fraction=0.35, hub_count=16,
    ),
}


def benchmark_names() -> List[str]:
    """Names of the sb_mini suite in the paper's table order."""
    return list(SB_MINI_SUITE.keys())


def congestion_benchmark_names() -> List[str]:
    """Names of the congestion-stressed (routability) designs."""
    return list(CONGESTION_SUITE.keys())


def available_design_names() -> List[str]:
    """Every design :func:`load_benchmark` accepts (sb_mini + congestion + XL)."""
    from repro.benchgen.xl import xl_benchmark_names

    return benchmark_names() + congestion_benchmark_names() + xl_benchmark_names()


def check_scale(scale: float) -> None:
    """Reject a benchmark size multiplier that is not finite and positive."""
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale!r}")


def load_benchmark(
    name: str,
    *,
    library: Optional[Library] = None,
    scale: float = 1.0,
) -> Design:
    """Generate one sb_mini (or congestion-stressed) design.

    ``scale`` multiplies the cell count (and IO count) so tests can shrink a
    benchmark and ablations can grow one without redefining the spec; it
    must be finite and positive.
    """
    from repro.benchgen.xl import XL_SUITE, generate_xl_circuit

    check_scale(scale)
    spec = SB_MINI_SUITE.get(name) or CONGESTION_SUITE.get(name) or XL_SUITE.get(name)
    if spec is None:
        raise KeyError(
            f"Unknown benchmark {name!r}; available: "
            f"{', '.join(available_design_names())}"
        )
    if scale != 1.0:
        spec = dataclasses.replace(
            spec,
            num_cells=max(10, int(spec.num_cells * scale)),
            num_primary_inputs=max(4, int(spec.num_primary_inputs * scale)),
            num_primary_outputs=max(4, int(spec.num_primary_outputs * scale)),
        )
    if name in XL_SUITE:
        # XL sizes need the O(pins) vectorized generator; the classic
        # per-gate draw runs one O(n) cumsum per gate, O(n^2) in all
        # (about 1.6 s at 20k cells).
        return generate_xl_circuit(spec, library=library)
    return generate_circuit(spec, library=library)

