"""XL-scale synthetic benchmarks (100k–1M cells), vectorized generation.

The classic :func:`repro.benchgen.synthetic.generate_circuit` picks every
gate's drivers with a per-gate weighted draw over all earlier signals —
faithful preferential attachment, but O(n^2): about 1.6 s at 20k cells.
:func:`generate_xl_circuit` builds the same pipelined-random-logic shape
(level-0 PIs and register outputs feeding a leveled combinational cloud
captured by FF data pins and POs) with per-level vectorized draws:

* source *level* per gate input: the same exp(-0.9 * (gap - 1)) preference
  for the immediately preceding level;
* source *signal* within a level: a power-law draw ``floor(count * u**q)``
  with ``q = 1 + 1/alpha`` — low indices are picked superlinearly often, so
  early signals accumulate fan-out (the vectorized stand-in for the classic
  generator's preferential attachment), with ``fanout_alpha`` keeping its
  meaning: smaller alpha, heavier fan-out tail;
* hub rerouting (``hub_fraction``) identical in spirit to the classic
  stress knob: a fixed pool of level-0 signals absorbs a fraction of all
  gate inputs.

Everything is drawn in a fixed per-level order from one seeded generator,
so the same spec always yields the same design.  Generation is O(pins) and
array-only: the draws give the driver of every gate input, and
:func:`repro.benchgen.synthetic.build_generated_design` turns them into the
instance table and net CSR of a snapshot and builds the design from it.
That takes about 0.2 s for 100k cells and 0.5 s for 250k (2-core x86_64
host, python 3.11).

The XL designs exist for the XL-tier benchmarks (congestion / density /
GP / legalization walls at 100k+ cells); they are deliberately kept out of
the sb_mini table suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.benchgen.synthetic import (
    _GATE_CHOICES,
    CircuitSpec,
    build_generated_design,
)
from repro.netlist.design import Design
from repro.netlist.library import Library, make_generic_library
from repro.utils.rng import make_rng

__all__ = ["XL_SUITE", "generate_xl_circuit", "xl_benchmark_names"]


XL_SUITE: Dict[str, CircuitSpec] = {
    "sb_xl_1": CircuitSpec(
        name="sb_xl_1", num_cells=100_000, sequential_fraction=0.12, logic_depth=18,
        num_primary_inputs=256, num_primary_outputs=256, fanout_alpha=1.1,
        utilization=0.68, clock_tightness=0.78, seed=301,
    ),
    "sb_xl_2": CircuitSpec(
        name="sb_xl_2", num_cells=250_000, sequential_fraction=0.10, logic_depth=22,
        num_primary_inputs=384, num_primary_outputs=384, fanout_alpha=1.0,
        utilization=0.70, clock_tightness=0.76, seed=302,
    ),
}


def xl_benchmark_names() -> List[str]:
    """Names of the XL (kernel-benchmark) designs."""
    return list(XL_SUITE.keys())


def generate_xl_circuit(
    spec: CircuitSpec,
    *,
    library: Optional[Library] = None,
) -> Design:
    """Generate a finalized XL design from ``spec`` in O(pins) time."""
    rng = make_rng(spec.seed)
    lib = library if library is not None else make_generic_library()

    num_ff = max(2, int(round(spec.num_cells * spec.sequential_fraction)))
    num_comb = max(4, spec.num_cells - num_ff)

    gate_cells = [lib.cell(name) for name, _ in _GATE_CHOICES]
    gate_probs = np.array([w for _, w in _GATE_CHOICES], dtype=np.float64)
    gate_probs /= gate_probs.sum()
    comb_cell_ids = rng.choice(len(gate_cells), size=num_comb, p=gate_probs)

    gate_areas = np.array([cell.area for cell in gate_cells], dtype=np.float64)
    gate_num_inputs = np.array([len(cell.input_pins) for cell in gate_cells], dtype=np.int64)
    total_area = float(
        gate_areas[comb_cell_ids].sum() + num_ff * lib.cell("DFF_X1").area
    )

    # ------------------------------------------------------------------
    # Level structure.  Signals are indexed by creation order:
    # [PIs, FF outputs, then gate outputs grouped by level 1..depth], so
    # the signal at (level, index-within-level) is driver
    # ``level_base[level] + index``.
    # ------------------------------------------------------------------
    depth = spec.logic_depth
    level_weights = np.linspace(1.0, 0.6, depth)
    level_weights /= level_weights.sum()
    comb_levels = rng.choice(np.arange(1, depth + 1), size=num_comb, p=level_weights)
    order = np.argsort(comb_levels, kind="stable")
    sorted_levels = comb_levels[order]

    num_level0 = spec.num_primary_inputs + num_ff
    level_start = np.searchsorted(sorted_levels, np.arange(depth + 2), side="left")
    level_base = num_level0 + level_start[: depth + 1]
    level_base[0] = 0
    counts = np.zeros(depth + 1, dtype=np.int64)
    counts[0] = num_level0

    # Hub pool (congestion stress): evenly sampled level-0 signal indices.
    hub_pool: Optional[np.ndarray] = None
    if spec.hub_fraction > 0.0:
        count = min(spec.hub_count, num_level0)
        hub_pool = np.unique(np.linspace(0, num_level0 - 1, count).astype(np.int64))

    # Power-law exponent: density of picks over within-level index i falls
    # as i^(1/q - 1); q > 1 concentrates fan-out on early signals.
    q = 1.0 + 1.0 / spec.fanout_alpha

    gap_decay = np.exp(-0.9 * np.arange(depth, dtype=np.float64))

    # Driver of every gate input, gates in ``order`` and pins in input order.
    sources: List[np.ndarray] = []
    for level in range(1, depth + 1):
        members = order[level_start[level]:level_start[level + 1]]
        if members.size == 0:
            continue
        fanins = gate_num_inputs[comb_cell_ids[members]]
        total_inputs = int(fanins.sum())

        # Source level per input: exp-decayed preference for level - 1,
        # restricted to levels that actually have signals.
        cand = np.nonzero(counts[:level] > 0)[0]
        gaps = level - cand
        probs = gap_decay[gaps - 1]
        probs = probs / probs.sum()
        src_level = rng.choice(cand, size=total_inputs, p=probs)

        # Source signal within the level: power-law toward low indices.
        u = rng.random(total_inputs)
        src_idx = np.floor(counts[src_level] * u**q).astype(np.int64)
        np.minimum(src_idx, counts[src_level] - 1, out=src_idx)

        if hub_pool is not None:
            take_hub = rng.random(total_inputs) < spec.hub_fraction
            if np.any(take_hub):
                hubs = rng.choice(hub_pool, size=int(take_hub.sum()))
                src_level[take_hub] = 0
                src_idx[take_hub] = hubs

        sources.append(level_base[src_level] + src_idx)
        counts[level] = members.size

    # ------------------------------------------------------------------
    # Capture: FF data pins and POs take deep signals.
    # ------------------------------------------------------------------
    deep_levels = [
        lvl for lvl in range(max(1, depth - 2), depth + 1) if counts[lvl] > 0
    ]
    if not deep_levels:
        deep_levels = [lvl for lvl in range(depth + 1) if counts[lvl] > 0]
    deep = np.concatenate(
        [level_base[lvl] + np.arange(counts[lvl], dtype=np.int64) for lvl in deep_levels]
    )
    picks = rng.integers(0, deep.size, size=num_ff + spec.num_primary_outputs)

    return build_generated_design(
        spec,
        lib,
        total_area=total_area,
        num_ff=num_ff,
        gate_cells=gate_cells,
        comb_gate=comb_cell_ids,
        order=order,
        sources=np.concatenate(sources) if sources else np.zeros(0, dtype=np.int64),
        captures=deep[picks],
    )
