"""Deterministic synthetic gate-level circuit generator.

The generator produces pipelined random logic: primary inputs and flip-flop
outputs feed a leveled combinational cloud whose outputs are captured by
flip-flop data pins and primary outputs.  Key structural knobs:

* ``num_cells`` and ``sequential_fraction`` — design size and register count;
* ``logic_depth`` — number of combinational levels, which sets how long
  register-to-register paths are (and therefore how tight the clock is);
* ``fanout_alpha`` — skew of the driver-selection distribution: smaller
  values produce more high-fan-out nets (shared data paths), which is what
  makes net weighting over-constrain non-critical pins in the paper's Fig. 2;
* ``utilization`` — die area relative to total cell area;
* ``clock_tightness`` — clock period as a fraction of the estimated critical
  path delay; values below 1 guarantee failing endpoints for the timers.

Routability stress knobs (all default-off, leaving the classic designs
bit-identical):

* ``aspect_ratio`` — die width over height.  A wide, thin die narrows the
  vertical routing channel, so left-right traffic concentrates;
* ``hub_fraction`` / ``hub_count`` — each gate input connects, with
  probability ``hub_fraction``, to one of ``hub_count`` shared "hub"
  signals instead of its level-based driver.  Hubs become high-fan-out
  nets whose sinks are scattered across the whole logic cloud: the placer
  cannot localize them, so their bounding boxes cross the die and pile
  routing demand onto the center bins — the classic congestion pattern
  routability-driven placement papers stress.

The same seed always yields the same design, so experiments are reproducible.

Both generators (this one and :func:`repro.benchgen.xl.generate_xl_circuit`)
emit arrays, not objects: they draw the driver of every gate input, and
:func:`build_generated_design` lays out the instance table and the net CSR
(a stable sort of the connections by net, so every net lists its pins in
connect order, driver first) as a
:class:`~repro.netlist.compiled.CompiledDesign` and finishes through its
``to_design``.  No ``Instance`` / ``PinRef`` / ``Net`` object exists until
code asks for one.

Every gate here weighs every earlier signal, and :func:`_weighted_draw`
picks its distinct drivers by replaying ``Generator.choice(...,
replace=False, p=...)`` on the same stream: uniforms against the
normalized CDF, picks kept in first-occurrence order, redraws for the
remainder after zeroing the picked weights.  It skips ``choice``'s
per-call overhead (validation, ``np.unique``, the copy of ``p``), so what
is left per gate is one O(n) ``cumsum`` and a few small numpy calls.  The
gate masters and levels come from the same CDF draw with replacement
(:func:`_sample`), and the hub and capture draws are batched ``integers``
calls.  Designs therefore depend only on numpy's ``random``,
``integers``, ``cumsum`` and ``searchsorted``, not on ``choice``'s private
implementation.  The snapshot digests in ``tests/test_array_design.py``
and the parity suite in ``tests/test_benchgen_draws.py`` (against numpy's
``choice`` and a copy of the ``choice``-based generator loop) pin them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.compiled import CompiledDesign
from repro.netlist.design import Design, port_cell
from repro.netlist.library import CellType, Library, PinDirection, make_generic_library
from repro.obs import traced
from repro.utils.geometry import Rect
from repro.utils.rng import make_rng

# Combinational masters the generator draws from, with sampling weights
# roughly matching the gate mix of a mapped random-logic netlist.
_GATE_CHOICES: Tuple[Tuple[str, float], ...] = (
    ("INV_X1", 0.16),
    ("BUF_X1", 0.08),
    ("NAND2_X1", 0.22),
    ("NOR2_X1", 0.14),
    ("AND2_X1", 0.14),
    ("OR2_X1", 0.12),
    ("XOR2_X1", 0.08),
    ("MUX2_X1", 0.06),
)


@dataclass
class CircuitSpec:
    """Parameters of one synthetic design."""

    name: str = "synthetic"
    num_cells: int = 1000
    sequential_fraction: float = 0.15
    logic_depth: int = 10
    num_primary_inputs: int = 16
    num_primary_outputs: int = 16
    fanout_alpha: float = 1.2
    utilization: float = 0.65
    clock_tightness: float = 0.85
    io_delay_fraction: float = 0.05
    seed: int = 1
    # Routability stress (defaults leave the classic designs bit-identical).
    aspect_ratio: float = 1.0
    hub_fraction: float = 0.0
    hub_count: int = 16

    def __post_init__(self) -> None:
        if self.num_cells < 10:
            raise ValueError("num_cells must be at least 10")
        if not 0.0 < self.sequential_fraction < 0.9:
            raise ValueError("sequential_fraction must be in (0, 0.9)")
        if self.logic_depth < 1:
            raise ValueError("logic_depth must be >= 1")
        if self.num_primary_inputs < 0:
            raise ValueError(f"num_primary_inputs must be >= 0, got {self.num_primary_inputs}")
        if self.num_primary_outputs < 0:
            raise ValueError(
                f"num_primary_outputs must be >= 0, got {self.num_primary_outputs}"
            )
        if self.fanout_alpha < 0.1:
            raise ValueError(f"fanout_alpha must be >= 0.1, got {self.fanout_alpha}")
        if not 0.05 < self.utilization <= 0.95:
            raise ValueError("utilization must be in (0.05, 0.95]")
        if self.clock_tightness <= 0:
            raise ValueError("clock_tightness must be positive")
        if self.io_delay_fraction < 0:
            raise ValueError(f"io_delay_fraction must be >= 0, got {self.io_delay_fraction}")
        if self.aspect_ratio <= 0:
            raise ValueError("aspect_ratio must be positive")
        if not 0.0 <= self.hub_fraction < 1.0:
            raise ValueError("hub_fraction must be in [0, 1)")
        if self.hub_count < 1:
            raise ValueError("hub_count must be at least 1")


@traced("benchgen.generate")
def generate_circuit(
    spec: CircuitSpec,
    *,
    library: Optional[Library] = None,
) -> Design:
    """Generate a finalized, unplaced synthetic design from ``spec``."""
    rng = make_rng(spec.seed)
    lib = library if library is not None else make_generic_library()

    num_ff = max(2, int(round(spec.num_cells * spec.sequential_fraction)))
    num_comb = max(4, spec.num_cells - num_ff)

    gate_cells = [lib.cell(name) for name, _ in _GATE_CHOICES]
    gate_probs = np.array([w for _, w in _GATE_CHOICES], dtype=np.float64)
    gate_probs /= gate_probs.sum()
    comb_gate = _sample(rng, gate_probs, num_comb)

    # Floorplan sizing (a sequential float sum, which fixes the die bits).
    gate_areas = [cell.area for cell in gate_cells]
    total_area = float(
        sum(gate_areas[g] for g in comb_gate.tolist()) + num_ff * lib.cell("DFF_X1").area
    )

    # Assign each combinational gate a level in [1, logic_depth], weighted so
    # deeper levels have slightly fewer gates (cone-shaped logic).
    level_weights = np.linspace(1.0, 0.6, spec.logic_depth)
    level_weights /= level_weights.sum()
    comb_levels = 1 + _sample(rng, level_weights, num_comb)
    order = np.argsort(comb_levels, kind="stable")

    # Driver signals, indexed in creation order: PIs, FF outputs, then the
    # gate outputs in ``order``.  Levels are therefore non-decreasing, so a
    # gate at level L may pick from the first ``num_level0 + level_start[L]``
    # drivers (never none: there are at least two flip-flops).
    num_level0 = spec.num_primary_inputs + num_ff
    num_drivers = num_level0 + num_comb
    driver_levels = np.zeros(num_drivers, dtype=np.int64)
    driver_levels[num_level0:] = comb_levels[order]
    level_start = np.searchsorted(
        driver_levels[num_level0:], np.arange(spec.logic_depth + 2), side="left"
    ).tolist()
    fanins = np.array([len(cell.input_pins) for cell in gate_cells], dtype=np.int64)
    gate_fanin = fanins[comb_gate].tolist()

    # Selection weights are table lookups: the level-gap preference
    # exp(-0.9 * (gap - 1)) (strong for the previous level, decaying for
    # older ones) times the preferential-attachment factor
    # (1 + fanout)**exponent (existing fan-out raises the odds).
    gap_weight = np.exp(-0.9 * np.arange(spec.logic_depth, dtype=np.float64))
    fanout_weight = (1.0 + np.arange(sum(gate_fanin) + 1, dtype=np.float64)) ** (
        1.0 / spec.fanout_alpha - 1.0
    )
    # Per driver: its fan-out so far and its attachment factor at that count.
    fanout_counts = [0] * num_drivers
    attach_weight = np.full(num_drivers, fanout_weight[0])

    # Hub signals for the congestion-stressed variant: a fixed set of
    # level-0 drivers (PIs and register outputs, evenly sampled) that gate
    # inputs across every level share with probability ``hub_fraction``.
    hub_pool: Optional[np.ndarray] = None
    if spec.hub_fraction > 0.0:
        count = min(spec.hub_count, num_level0)
        hub_pool = np.unique(np.linspace(0, num_level0 - 1, count).astype(np.int64))

    sources: List[int] = []
    for level in range(1, spec.logic_depth + 1):
        eligible = num_level0 + level_start[level]
        level_weight = gap_weight[level - 1 - driver_levels[:eligible]]
        for idx in order[level_start[level]:level_start[level + 1]].tolist():
            fanin = gate_fanin[idx]
            weights = level_weight * attach_weight[:eligible]
            chosen = _weighted_draw(rng, weights, min(fanin, eligible))
            if fanin > eligible:
                chosen += rng.integers(0, eligible, fanin - eligible).tolist()
            if hub_pool is not None:
                # Reroute a fraction of the inputs to shared hub signals; the
                # extra RNG draws happen only on this (stress) path, so the
                # classic designs keep their exact generation stream.
                take_hub = np.flatnonzero(rng.random(fanin) < spec.hub_fraction).tolist()
                if take_hub:
                    hubs = hub_pool[rng.integers(0, hub_pool.size, len(take_hub))]
                    for slot, hub in zip(take_hub, hubs.tolist()):
                        chosen[slot] = hub
            for driver_idx in chosen:
                fanout_counts[driver_idx] += 1
                attach_weight[driver_idx] = fanout_weight[fanout_counts[driver_idx]]
            sources.extend(chosen)

    # Capture: flip-flop D pins and primary outputs take deep signals.
    deep_pool = np.nonzero(driver_levels >= max(1, spec.logic_depth - 2))[0]
    if deep_pool.size == 0:
        deep_pool = np.arange(num_drivers)
    captures = deep_pool[rng.integers(0, deep_pool.size, num_ff + spec.num_primary_outputs)]

    return build_generated_design(
        spec,
        lib,
        total_area=total_area,
        num_ff=num_ff,
        gate_cells=gate_cells,
        comb_gate=comb_gate,
        order=order,
        sources=np.array(sources, dtype=np.int64),
        captures=captures,
    )


def _sample(rng: np.random.Generator, p: np.ndarray, size: int) -> np.ndarray:
    """``size`` indices drawn with replacement with probabilities ``p``, as
    ``rng.choice(p.size, size, p=p)`` draws them."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(size), side="right")


def _weighted_draw(rng: np.random.Generator, weights: np.ndarray, k: int) -> List[int]:
    """``k`` distinct indices drawn with probability proportional to ``weights``.

    Replays ``rng.choice(weights.size, k, replace=False, p=weights /
    weights.sum())`` on the same stream, without its per-call overhead:
    draw ``k`` uniforms against the normalized CDF, keep the distinct picks
    in first-occurrence order, then zero their weights and redraw only the
    remainder.  ``weights`` (non-negative; overwritten) must be finite with
    at least ``k`` positive entries after normalization, or this raises
    ``ValueError`` as ``choice`` does.
    """
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(f"weights must be finite with a positive sum, got sum {total}")
    p = np.divide(weights, total, out=weights)
    picks: List[int] = []
    while True:
        picks.extend(dict.fromkeys(_sample(rng, p, k - len(picks)).tolist()))
        if len(picks) == k:
            return picks
        # A pick always lands on a positive entry, so fewer than k distinct
        # picks means duplicates, and only then can positives run short.
        p[picks] = 0.0
        if np.count_nonzero(p > 0.0) < k - len(picks):
            raise ValueError(f"fewer than {k} positive weights")


def build_generated_design(
    spec: CircuitSpec,
    lib: Library,
    *,
    total_area: float,
    num_ff: int,
    gate_cells: Sequence[CellType],
    comb_gate: np.ndarray,
    order: np.ndarray,
    sources: np.ndarray,
    captures: np.ndarray,
) -> Design:
    """Lay out one generated netlist as arrays and build its design.

    Shared by both generators.  Instances are the clock port, the PI
    ports ``in*``, the PO ports ``out*``, the flip-flops ``ff*`` and the
    gates ``g*`` (gate ``i`` has master ``gate_cells[comb_gate[i]]``).
    Driver ``d`` indexes the signals PIs, FF outputs, then the gate outputs
    in ``order``; it owns net ``d + 1`` (net 0 is the clock).
    ``sources[k]`` drives the ``k``-th gate input, gates taken in ``order``
    and pins in input-pin order; ``captures`` drive the FF ``d`` pins, then
    the POs.  Every net lists its driver first, then its sinks in that
    order (a stable sort of the connections by net), which is the order
    the object API's ``connect`` calls used to produce.
    """
    num_pi, num_po = spec.num_primary_inputs, spec.num_primary_outputs
    num_comb = comb_gate.size
    dff = lib.cell("DFF_X1")

    # Floorplan: die area from the cell area and utilization.
    row_height = dff.height
    die_side = math.sqrt(total_area / spec.utilization)
    # aspect_ratio stretches width and shrinks height at constant area;
    # sqrt(1.0) == 1.0 keeps the classic designs bit-identical.
    aspect = math.sqrt(spec.aspect_ratio)
    die_height = math.ceil(die_side / aspect / row_height) * row_height
    die_width = math.ceil(die_side * aspect)
    die = Rect(0.0, 0.0, float(die_width), float(die_height))

    # Instance table; masters are numbered [PI port, PO port, DFF, gates...].
    masters = [port_cell(PinDirection.INPUT), port_cell(PinDirection.OUTPUT), dff, *gate_cells]
    first_ff = 1 + num_pi + num_po
    first_gate = first_ff + num_ff
    num_instances = first_gate + num_comb
    inst_master = np.concatenate([
        np.zeros(1 + num_pi, dtype=np.int64),
        np.ones(num_po, dtype=np.int64),
        np.full(num_ff, 2, dtype=np.int64),
        3 + comb_gate.astype(np.int64),
    ])
    pin_count = np.array([len(m.pins) for m in masters], dtype=np.int64)
    inst_pin_offsets = np.zeros(num_instances + 1, dtype=np.int64)
    np.cumsum(pin_count[inst_master], out=inst_pin_offsets[1:])
    port_pins = inst_pin_offsets[:first_ff]
    ff_pins = inst_pin_offsets[first_ff:first_gate]
    gate_pins = inst_pin_offsets[first_gate:num_instances]

    def local(cell: CellType, *names: str) -> List[int]:
        pin_names = list(cell.pins)
        return [pin_names.index(name) for name in names]

    # Gate pins as offsets from the gate's first pin: the output, then the
    # inputs in input-pin order (one padded row per gate master).
    fanins = np.array([len(c.input_pins) for c in gate_cells], dtype=np.int64)
    out_local = np.array([local(c, "o")[0] for c in gate_cells], dtype=np.int64)
    in_local = np.zeros((len(gate_cells), int(fanins.max())), dtype=np.int64)
    for g, cell in enumerate(gate_cells):
        in_local[g, : fanins[g]] = local(cell, *(p.name for p in cell.input_pins))
    gate_fanin = fanins[comb_gate[order]]
    sink_gate = np.repeat(order, gate_fanin)
    sink_k = np.arange(sink_gate.size) - np.repeat(np.cumsum(gate_fanin) - gate_fanin, gate_fanin)
    sink_pins = gate_pins[sink_gate] + in_local[comb_gate[sink_gate], sink_k]
    ck, q, d = local(dff, "ck", "q", "d")

    # Connections in connect order: the clock net, every driver, the gate
    # inputs, then the FF D pins and the POs.
    driver_pins = np.concatenate([
        port_pins[1:1 + num_pi], ff_pins + q, gate_pins[order] + out_local[comb_gate[order]]
    ])
    num_drivers = driver_pins.size
    event_net = np.concatenate([
        np.zeros(1 + num_ff, dtype=np.int64),
        np.arange(1, num_drivers + 1, dtype=np.int64),
        sources + 1,
        captures + 1,
    ])
    event_pin = np.concatenate([
        port_pins[:1], ff_pins + ck, driver_pins, sink_pins, ff_pins + d, port_pins[1 + num_pi:]
    ])
    net_pin_offsets = np.zeros(num_drivers + 2, dtype=np.int64)
    np.cumsum(np.bincount(event_net, minlength=num_drivers + 1), out=net_pin_offsets[1:])

    # Cell masters in first-appearance order, as an incrementally built
    # design's core numbers them.
    used, first_use = np.unique(inst_master, return_index=True)
    used = used[np.argsort(first_use)]
    renumber = np.zeros(len(masters), dtype=np.int64)
    renumber[used] = np.arange(used.size)

    # Ports sit on the die boundary; cells start at the die center.
    x = np.full(num_instances, die_width * 0.5, dtype=np.float64)
    y = np.full(num_instances, die_height * 0.5, dtype=np.float64)
    boundary = _boundary_positions(die_width, die_height, 1 + num_pi + num_po)
    x[:first_ff], y[:first_ff] = np.array(boundary, dtype=np.float64).reshape(-1, 2).T
    inst_fixed = np.zeros(num_instances, dtype=bool)
    inst_fixed[:first_ff] = True

    pi_names = [f"in{i}" for i in range(num_pi)]
    po_names = [f"out{i}" for i in range(num_po)]
    ff_names = [f"ff{i}" for i in range(num_ff)]
    gate_names = [f"g{i}" for i in range(num_comb)]
    period = _estimate_clock_period(die, lib, spec)
    io_delay = spec.io_delay_fraction * period
    return CompiledDesign(
        name=spec.name,
        die=(die.xl, die.yl, die.xh, die.yh),
        row_height=row_height,
        site_width=1.0,
        clock_period=period,
        clock_name="clk",
        clock_port="clk",
        input_delays={name: io_delay for name in pi_names},
        output_delays={name: io_delay for name in po_names},
        corners=None,
        library=lib,
        cell_types=tuple(masters[m] for m in used),
        instance_names=("clk", *pi_names, *po_names, *ff_names, *gate_names),
        net_names=(
            "clknet",
            *(f"n_{name}" for name in pi_names),
            *(f"n_{name}_q" for name in ff_names),
            *(f"n_g{i}" for i in order.tolist()),
        ),
        orientations=None,
        x=x,
        y=y,
        inst_cell_id=renumber[inst_master],
        inst_fixed=inst_fixed,
        inst_is_port=inst_fixed.copy(),
        inst_pin_offsets=inst_pin_offsets,
        net_pin_offsets=net_pin_offsets,
        net_pin_index=event_pin[np.argsort(event_net, kind="stable")],
        net_weight=np.ones(num_drivers + 1, dtype=np.float64),
    ).to_design()


def _boundary_positions(width: float, height: float, count: int) -> List[Tuple[float, float]]:
    """Evenly spaced positions around the die boundary."""
    positions: List[Tuple[float, float]] = []
    perimeter = 2.0 * (width + height)
    for i in range(count):
        d = (i + 0.5) * perimeter / count
        if d < width:
            positions.append((d, 0.0))
        elif d < width + height:
            positions.append((width, d - width))
        elif d < 2 * width + height:
            positions.append((width - (d - width - height), height))
        else:
            positions.append((0.0, height - (d - 2 * width - height)))
    return positions


def _estimate_clock_period(die: Rect, lib: Library, spec: CircuitSpec) -> float:
    """Clock period = tightness * estimated critical path delay.

    The estimate assumes an average combinational stage delay (intrinsic plus
    a typical fan-out-of-2 load) and a wire delay for an average-length net on
    a spread-out placement, times the logic depth, plus the clock-to-q launch.
    Tightness below 1.0 therefore leaves endpoints failing even after a good
    placement, matching the always-violating ICCAD-2015 benchmarks.
    """
    typical_load = 2.0 * lib.cell("NAND2_X1").pin("a").capacitance
    avg_net_len = 0.12 * (die.width + die.height)
    wire_cap = lib.wire_capacitance_per_unit * avg_net_len
    wire_res = lib.wire_resistance_per_unit * avg_net_len
    stage_cell = lib.cell("NAND2_X1").arcs[0]
    stage_delay = stage_cell.delay(typical_load + wire_cap)
    wire_delay = wire_res * (0.5 * wire_cap + typical_load)
    clk_to_q = lib.cell("DFF_X1").arcs[0].delay(typical_load + wire_cap)
    critical_estimate = clk_to_q + spec.logic_depth * (stage_delay + wire_delay)
    # Empirical calibration: after a wirelength-driven placement the worst
    # path is ~1.8x this analytic estimate (longer-than-average critical nets
    # and high-fan-out loads), measured across the sb_mini suite.  Folding the
    # factor in here keeps ``clock_tightness`` interpretable as "fraction of
    # the post-placement critical delay".
    calibration = 1.8
    return float(spec.clock_tightness * calibration * critical_estimate)
