"""Writer ↔ parser round-trips: a design survives a save/load cycle.

Covers DEF (floorplan + placement + connectivity) and SDC (constraints).
Positions are snapped to 1/8 units before writing: binary fractions with
three decimal places print exactly under the writers' ``%.3f`` formatting,
so "survives" means *bit-exact*, not approximately.

Parsers rebuild instances in a different order (components before ports),
so the comparison is by name — which is also what any external tool consuming
these files would key on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.netlist.parsers.def_ import parse_def
from repro.netlist.parsers.sdc import apply_sdc, parse_sdc
from repro.netlist.writers import write_def, write_sdc
from repro.placement.initial import initial_placement


def _snap_eighths(design, seed: int = 11) -> None:
    """Spread the cells and snap to 1/8 units (exact under %.3f printing).

    Ports are snapped too (writing the core arrays directly, since
    ``set_positions`` preserves fixed cells): the generator places them at
    arbitrary boundary fractions that would not survive the writers' three
    printed decimals.
    """
    x, y = initial_placement(design, seed=seed)
    design.set_positions(np.round(x * 8.0) / 8.0, np.round(y * 8.0) / 8.0)
    core = design.core
    core.x[:] = np.round(core.x * 8.0) / 8.0
    core.y[:] = np.round(core.y * 8.0) / 8.0


@pytest.fixture()
def placed_design(library):
    spec = CircuitSpec(
        name="roundtrip",
        num_cells=120,
        sequential_fraction=0.2,
        logic_depth=5,
        num_primary_inputs=6,
        num_primary_outputs=6,
        seed=42,
    )
    design = generate_circuit(spec, library=library)
    _snap_eighths(design)
    return design


def _net_topology(design):
    """Connectivity as a name-keyed, order-preserving structure."""
    topology = {}
    for net in design.nets:
        topology[net.name] = [
            (pin.instance.name, pin.lib_pin.name) for pin in net.pins
        ]
    return topology


class TestDefRoundTrip:
    def test_positions_topology_floorplan_survive(self, placed_design, library):
        text = write_def(placed_design)
        parsed = parse_def(text, library)

        # Floorplan.
        for attr in ("xl", "yl", "xh", "yh"):
            assert getattr(parsed.die, attr) == getattr(placed_design.die, attr)
        assert parsed.site_width == placed_design.site_width
        assert parsed.row_height == placed_design.row_height
        assert parsed.name == placed_design.name

        # Instances: same names, masters, positions (bit-exact), fixedness.
        assert parsed.num_instances == placed_design.num_instances
        for inst in placed_design.instances:
            other = parsed.instance(inst.name)
            assert other.cell.name == inst.cell.name
            assert other.x == inst.x
            assert other.y == inst.y
            assert other.fixed == inst.fixed
            assert other.is_port == inst.is_port

        # Net topology: same nets, same pins in the same connection order
        # (the order fixes driver/sink semantics for the timing graph).
        assert _net_topology(parsed) == _net_topology(placed_design)

    def test_roundtrip_is_stable(self, placed_design, library):
        """write(parse(write(d))) == write(d): the DEF view is a fixpoint."""
        once = write_def(placed_design)
        twice = write_def(parse_def(once, library))
        assert once == twice

    def test_hpwl_preserved(self, placed_design, library):
        parsed = parse_def(write_def(placed_design), library)
        assert parsed.total_hpwl() == placed_design.total_hpwl()


class TestSdcRoundTrip:
    def test_constraints_survive(self, placed_design):
        constraints = parse_sdc(write_sdc(placed_design))
        assert constraints.clock_period is not None
        # %.3f formatting bounds the error; the generator's period is an
        # arbitrary float, so equality is up to the printed precision.
        assert constraints.clock_period == pytest.approx(
            placed_design.clock_period, abs=5e-4
        )
        assert constraints.clock_port == placed_design.clock_port
        assert set(constraints.input_delays) == set(placed_design.input_delays)
        assert set(constraints.output_delays) == set(placed_design.output_delays)

        fresh = generate_circuit(
            CircuitSpec(
                name="roundtrip", num_cells=120, sequential_fraction=0.2,
                logic_depth=5, num_primary_inputs=6, num_primary_outputs=6,
                seed=42,
            )
        )
        apply_sdc(fresh, constraints)
        assert fresh.clock_period == pytest.approx(
            placed_design.clock_period, abs=5e-4
        )
