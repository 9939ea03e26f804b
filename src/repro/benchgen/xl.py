"""XL-scale synthetic benchmarks (100k–1M cells), vectorized generation.

The classic :func:`repro.benchgen.synthetic.generate_circuit` picks every
gate's drivers with a per-gate weighted draw over all earlier signals —
faithful preferential attachment, but O(n^2) and minutes-slow past ~20k
cells.  :func:`generate_xl_circuit` builds the same pipelined-random-logic
shape (level-0 PIs and register outputs feeding a leveled combinational
cloud captured by FF data pins and POs) with per-level vectorized draws:

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
so the same spec always yields the same design.  Generation is O(pins):
~2 s for 100k cells, ~6 s for 250k.

The XL designs exist for the XL-tier benchmarks (congestion / density /
GP / legalization walls at 100k+ cells); they are deliberately kept out of
the sb_mini table suite.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.benchgen.synthetic import (
    _GATE_CHOICES,
    CircuitSpec,
    _boundary_positions,
    _estimate_clock_period,
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

    gate_names = [name for name, _ in _GATE_CHOICES]
    gate_probs = np.array([w for _, w in _GATE_CHOICES], dtype=np.float64)
    gate_probs /= gate_probs.sum()
    comb_cell_ids = rng.choice(len(gate_names), size=num_comb, p=gate_probs)

    gate_areas = np.array([lib.cell(g).area for g in gate_names], dtype=np.float64)
    gate_num_inputs = np.array(
        [len(lib.cell(g).input_pins) for g in gate_names], dtype=np.int64
    )
    input_pin_names: List[List[str]] = [
        [p.name for p in lib.cell(g).input_pins] for g in gate_names
    ]

    # ------------------------------------------------------------------
    # Floorplan (same sizing rule as the classic generator).
    # ------------------------------------------------------------------
    total_area = float(
        gate_areas[comb_cell_ids].sum() + num_ff * lib.cell("DFF_X1").area
    )
    row_height = lib.cell("DFF_X1").height
    die_side = math.sqrt(total_area / spec.utilization)
    aspect = math.sqrt(spec.aspect_ratio)
    die_height = math.ceil(die_side / aspect / row_height) * row_height
    die_width = math.ceil(die_side * aspect)
    design = Design(
        spec.name,
        die=(0.0, 0.0, float(die_width), float(die_height)),
        library=lib,
        row_height=row_height,
        site_width=1.0,
    )

    # ------------------------------------------------------------------
    # Ports and instances.
    # ------------------------------------------------------------------
    boundary = _boundary_positions(
        die_width, die_height, spec.num_primary_inputs + spec.num_primary_outputs + 1
    )
    cursor = 0
    design.add_port("clk", "input", x=boundary[cursor][0], y=boundary[cursor][1])
    cursor += 1
    pi_names: List[str] = []
    for i in range(spec.num_primary_inputs):
        name = f"in{i}"
        design.add_port(name, "input", x=boundary[cursor][0], y=boundary[cursor][1])
        pi_names.append(name)
        cursor += 1
    po_names: List[str] = []
    for i in range(spec.num_primary_outputs):
        name = f"out{i}"
        design.add_port(name, "output", x=boundary[cursor][0], y=boundary[cursor][1])
        po_names.append(name)
        cursor += 1

    center_x, center_y = die_width * 0.5, die_height * 0.5
    ff_names = [f"ff{i}" for i in range(num_ff)]
    dff = lib.cell("DFF_X1")
    for name in ff_names:
        design.add_instance(name, dff, x=center_x, y=center_y)
    comb_names = [f"g{i}" for i in range(num_comb)]
    gate_cells = [lib.cell(g) for g in gate_names]
    for name, cid in zip(comb_names, comb_cell_ids):
        design.add_instance(name, gate_cells[cid], x=center_x, y=center_y)

    clock_net = design.add_net("clknet")
    design.connect(clock_net, "clk")
    for name in ff_names:
        design.connect(clock_net, name, "ck")

    # ------------------------------------------------------------------
    # Level structure.  Signals are indexed by creation order:
    # [PIs, FF outputs, then gate outputs grouped by level 1..depth].
    # ------------------------------------------------------------------
    depth = spec.logic_depth
    level_weights = np.linspace(1.0, 0.6, depth)
    level_weights /= level_weights.sum()
    comb_levels = rng.choice(np.arange(1, depth + 1), size=num_comb, p=level_weights)
    order = np.argsort(comb_levels, kind="stable")

    num_level0 = spec.num_primary_inputs + num_ff
    level0_nets = [design.add_net(f"n_{n}") for n in pi_names] + [
        design.add_net(f"n_{n}_q") for n in ff_names
    ]
    for name, net in zip(pi_names, level0_nets):
        design.connect(net, name)
    for name, net in zip(ff_names, level0_nets[len(pi_names):]):
        design.connect(net, name, "q")

    # Per-level signal tables: net objects in creation order, so a
    # (level, index-within-level) pair addresses one driver.
    nets_by_level: List[List] = [level0_nets]
    counts = np.zeros(depth + 1, dtype=np.int64)
    counts[0] = num_level0

    # Hub pool (congestion stress): evenly sampled level-0 signal indices.
    hub_pool: Optional[np.ndarray] = None
    if spec.hub_fraction > 0.0:
        count = min(spec.hub_count, num_level0)
        hub_pool = np.unique(np.linspace(0, num_level0 - 1, count).astype(np.int64))

    # Power-law exponent: density of picks over within-level index i falls
    # as i^(1/q - 1); q > 1 concentrates fan-out on early signals.
    q = 1.0 + 1.0 / max(spec.fanout_alpha, 0.1)

    gap_decay = np.exp(-0.9 * np.arange(depth, dtype=np.float64))

    for level in range(1, depth + 1):
        members = order[np.searchsorted(comb_levels[order], level, side="left"):
                        np.searchsorted(comb_levels[order], level, side="right")]
        # Register this level's output nets first so the tables stay aligned
        # even when a level has no gates.
        level_nets = []
        for idx in members:
            gate = comb_names[int(idx)]
            net = design.add_net(f"n_{gate}")
            design.connect(net, gate, "o")
            level_nets.append(net)
        nets_by_level.append(level_nets)

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

        # Connect: tight loop over precomputed picks (O(pins)).
        pos = 0
        sl = src_level.tolist()
        si = src_idx.tolist()
        for idx in members:
            cid = int(comb_cell_ids[idx])
            gate = comb_names[int(idx)]
            for pin_name in input_pin_names[cid]:
                design.connect(nets_by_level[sl[pos]][si[pos]], gate, pin_name)
                pos += 1

        counts[level] = len(level_nets)

    # ------------------------------------------------------------------
    # Capture: FF data pins and POs take deep signals.
    # ------------------------------------------------------------------
    deep_levels = [
        lvl for lvl in range(max(1, depth - 2), depth + 1) if counts[lvl] > 0
    ]
    if not deep_levels:
        deep_levels = [lvl for lvl in range(depth + 1) if counts[lvl] > 0]
    deep_nets = [net for lvl in deep_levels for net in nets_by_level[lvl]]
    picks = rng.integers(0, len(deep_nets), size=num_ff + spec.num_primary_outputs)
    for name, pick in zip(ff_names, picks[:num_ff]):
        design.connect(deep_nets[int(pick)], name, "d")
    for name, pick in zip(po_names, picks[num_ff:]):
        design.connect(deep_nets[int(pick)], name)

    design.finalize()

    period = _estimate_clock_period(design, lib, spec)
    design.clock_period = period
    design.clock_name = "clk"
    design.clock_port = "clk"
    io_delay = spec.io_delay_fraction * period
    design.input_delays = {name: io_delay for name in pi_names}
    design.output_delays = {name: io_delay for name in po_names}
    return design
