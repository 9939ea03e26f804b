"""Unit tests for the Design data model."""

import numpy as np
import pytest

from repro.netlist import Design


class TestConstruction:
    def test_add_instance_and_lookup(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        inst = design.add_instance("u1", "INV_X1", x=10, y=12)
        assert design.instance("u1") is inst
        assert design.has_instance("u1")
        assert inst.width == library.cell("INV_X1").width

    def test_duplicate_instance_raises(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        with pytest.raises(ValueError):
            design.add_instance("u1", "INV_X1")

    def test_unknown_cell_raises(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        with pytest.raises(KeyError):
            design.add_instance("u1", "NOT_A_CELL")

    def test_add_port_direction(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        pi = design.add_port("in0", "input", x=0, y=5)
        po = design.add_port("out0", "output", x=100, y=5)
        assert pi.is_port and pi.fixed
        # An input port drives a net: its single pin is an output pin.
        assert next(iter(pi.cell.pins.values())).is_output
        assert next(iter(po.cell.pins.values())).is_input

    def test_connect_by_names(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        design.add_net("n1")
        pin = design.connect("n1", "u1", "a")
        assert pin.net is design.net("n1")
        assert pin in design.net("n1").pins

    def test_connect_twice_raises(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        design.add_net("n1")
        design.add_net("n2")
        design.connect("n1", "u1", "a")
        with pytest.raises(ValueError):
            design.connect("n2", "u1", "a")

    def test_finalize_rejects_multi_driver_net(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        design.add_instance("u2", "INV_X1")
        design.add_net("n1")
        design.connect("n1", "u1", "o")
        design.connect("n1", "u2", "o")
        with pytest.raises(ValueError, match="Net n1 has multiple drivers: u1/o, u2/o"):
            design.finalize()
        assert not design.finalized

    def test_connect_unknown_pin_raises(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        design.add_net("n1")
        with pytest.raises(KeyError):
            design.connect("n1", "u1", "zz")

    def test_multiple_drivers_rejected_at_finalize(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        design.add_instance("u2", "INV_X1")
        design.add_net("n1")
        design.connect("n1", "u1", "o")
        design.connect("n1", "u2", "o")
        with pytest.raises(ValueError):
            design.finalize()

    def test_mutation_after_finalize_raises(self, tiny_design):
        with pytest.raises(RuntimeError):
            tiny_design.add_net("late")


class TestQueries:
    def test_counts(self, tiny_design):
        assert tiny_design.num_instances == 7  # 4 cells + 3 ports
        assert len(tiny_design.cells) == 4
        assert len(tiny_design.ports) == 3
        assert tiny_design.num_nets == 6

    def test_pin_lookup_by_path(self, tiny_design):
        pin = tiny_design.pin("u1/a")
        assert pin.full_name == "u1/a"
        assert tiny_design.pin("u1", "a") is pin

    def test_port_pin_lookup(self, tiny_design):
        pin = tiny_design.pin("in0")
        assert pin.instance.is_port

    def test_net_driver_and_sinks(self, tiny_design):
        net = tiny_design.net("n1")
        assert net.driver.full_name == "ff1/q"
        assert [p.full_name for p in net.sinks] == ["u1/a"]

    def test_net_hpwl(self, tiny_design):
        net = tiny_design.net("n1")
        ff1 = tiny_design.instance("ff1")
        u1 = tiny_design.instance("u1")
        qx, qy = tiny_design.pin("ff1/q").position()
        ax, ay = tiny_design.pin("u1/a").position()
        assert net.hpwl() == pytest.approx(abs(qx - ax) + abs(qy - ay))

    def test_summary_keys(self, tiny_design):
        summary = tiny_design.summary()
        assert summary["num_cells"] == 4
        assert summary["num_sequential"] == 2
        assert summary["clock_period"] == 100.0

    def test_utilization_between_zero_and_one(self, small_design):
        assert 0.0 < small_design.utilization() < 1.0


class TestArraysAndPositions:
    def test_arrays_shapes(self, tiny_design):
        arrays = tiny_design.arrays
        assert arrays.inst_width.shape == (tiny_design.num_instances,)
        assert arrays.pin_instance.shape == (tiny_design.num_pins,)
        assert arrays.net_pin_offsets.shape == (tiny_design.num_nets + 1,)
        assert arrays.net_pin_index.shape == (tiny_design.num_pins,)

    def test_arrays_require_finalize(self, library):
        design = Design("d", die=(0, 0, 100, 96), library=library)
        with pytest.raises(RuntimeError):
            _ = design.arrays

    def test_net_pins_csr(self, tiny_design):
        arrays = tiny_design.arrays
        net = tiny_design.net("nclk")
        pins = arrays.net_pins(net.index)
        assert set(pins.tolist()) == {p.index for p in net.pins}

    def test_positions_roundtrip(self, tiny_design):
        x, y = tiny_design.positions()
        x2 = x.copy()
        x2[tiny_design.instance("u1").index] = 55.0
        tiny_design.set_positions(x2, y)
        assert tiny_design.instance("u1").x == 55.0

    def test_set_positions_keeps_fixed(self, tiny_design):
        x, y = tiny_design.positions()
        port_index = tiny_design.instance("in0").index
        original = tiny_design.instance("in0").x
        x[port_index] = 999.0
        tiny_design.set_positions(x, y)
        assert tiny_design.instance("in0").x == original

    def test_set_positions_wrong_shape_raises(self, tiny_design):
        with pytest.raises(ValueError):
            tiny_design.set_positions(np.zeros(3), np.zeros(3))

    def test_pin_positions_use_offsets(self, tiny_design):
        px, py = tiny_design.pin_positions()
        pin = tiny_design.pin("u1/a")
        assert px[pin.index] == pytest.approx(pin.position()[0])
        assert py[pin.index] == pytest.approx(pin.position()[1])

    def test_movable_mask_excludes_ports(self, tiny_design):
        arrays = tiny_design.arrays
        for port in tiny_design.ports:
            assert not arrays.movable_mask[port.index]


class TestRows:
    def test_rows_fill_die(self, tiny_design):
        rows = tiny_design.rows()
        assert len(rows) == 17  # 204 / 12
        assert rows[0].y == 0
        assert rows[-1].y + rows[-1].height <= tiny_design.die.yh + 1e-9

    def test_row_sites(self, tiny_design):
        row = tiny_design.rows()[0]
        assert row.num_sites == int(tiny_design.die.width)

    def test_total_hpwl_positive(self, tiny_design):
        assert tiny_design.total_hpwl() > 0
