"""Unit tests for the standard-cell library model."""

import pytest

from repro.netlist.library import (
    CellType,
    Library,
    LibraryPin,
    PinDirection,
    TimingArcSpec,
)


class TestPinDirection:
    def test_from_string_values(self):
        assert PinDirection.from_string("input") is PinDirection.INPUT
        assert PinDirection.from_string("OUTPUT") is PinDirection.OUTPUT
        assert PinDirection.from_string(" inout ") is PinDirection.INOUT
        assert PinDirection.from_string("in") is PinDirection.INPUT
        assert PinDirection.from_string("out") is PinDirection.OUTPUT

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            PinDirection.from_string("sideways")


class TestTimingArcSpec:
    def test_linear_delay(self):
        arc = TimingArcSpec("a", "o", intrinsic=10.0, load_slope=100.0)
        assert arc.delay(0.0) == 10.0
        assert arc.delay(0.02) == pytest.approx(12.0)

    def test_table_delay_interpolation(self):
        arc = TimingArcSpec("a", "o", load_table=((0.0, 10.0), (1.0, 20.0)))
        assert arc.delay(0.5) == pytest.approx(15.0)

    def test_table_extrapolation(self):
        arc = TimingArcSpec("a", "o", load_table=((0.0, 10.0), (1.0, 20.0)))
        assert arc.delay(2.0) == pytest.approx(30.0)
        assert arc.delay(-1.0) == pytest.approx(0.0)

    def test_single_point_table(self):
        arc = TimingArcSpec("a", "o", load_table=((0.5, 7.0),))
        assert arc.delay(0.1) == 7.0
        assert arc.delay(10.0) == 7.0

    def test_table_overrides_linear(self):
        arc = TimingArcSpec("a", "o", intrinsic=99.0, load_slope=99.0,
                            load_table=((0.0, 1.0), (1.0, 2.0)))
        assert arc.delay(0.0) == pytest.approx(1.0)


class TestCellType:
    def test_add_pin_and_lookup(self):
        cell = CellType("X", width=2, height=10)
        cell.add_pin(LibraryPin("a", PinDirection.INPUT, capacitance=0.01))
        assert cell.pin("a").capacitance == 0.01
        with pytest.raises(KeyError):
            cell.pin("missing")

    def test_duplicate_pin_raises(self):
        cell = CellType("X", width=2, height=10)
        cell.add_pin(LibraryPin("a", PinDirection.INPUT))
        with pytest.raises(ValueError):
            cell.add_pin(LibraryPin("a", PinDirection.INPUT))

    def test_arc_requires_existing_pins(self):
        cell = CellType("X", width=2, height=10)
        cell.add_pin(LibraryPin("a", PinDirection.INPUT))
        with pytest.raises(ValueError):
            cell.add_arc(TimingArcSpec("a", "o"))

    def test_arc_queries(self):
        cell = CellType("X", width=2, height=10)
        cell.add_pin(LibraryPin("a", PinDirection.INPUT))
        cell.add_pin(LibraryPin("b", PinDirection.INPUT))
        cell.add_pin(LibraryPin("o", PinDirection.OUTPUT))
        cell.add_arc(TimingArcSpec("a", "o"))
        cell.add_arc(TimingArcSpec("b", "o"))
        assert [(a.from_pin, a.to_pin) for a in cell.arcs] == [("a", "o"), ("b", "o")]

    def test_input_output_pin_lists(self):
        cell = CellType("X", width=2, height=10)
        cell.add_pin(LibraryPin("a", PinDirection.INPUT))
        cell.add_pin(LibraryPin("o", PinDirection.OUTPUT))
        assert [p.name for p in cell.input_pins] == ["a"]
        assert [p.name for p in cell.output_pins] == ["o"]

    def test_area(self):
        assert CellType("X", width=3, height=10).area == 30


class TestLibrary:
    def test_add_and_lookup(self):
        lib = Library("test")
        cell = CellType("X", width=1, height=1)
        lib.add_cell(cell)
        assert lib.cell("X") is cell
        assert "X" in lib
        assert len(lib) == 1

    def test_duplicate_cell_raises(self):
        lib = Library("test")
        lib.add_cell(CellType("X", width=1, height=1))
        with pytest.raises(ValueError):
            lib.add_cell(CellType("X", width=2, height=2))

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            Library("test").cell("nope")

    def test_merge(self):
        a = Library("a")
        b = Library("b")
        a.add_cell(CellType("X", width=1, height=1))
        b.add_cell(CellType("Y", width=1, height=1))
        a.merge(b)
        assert "Y" in a

    def test_merge_conflict(self):
        a = Library("a")
        b = Library("b")
        a.add_cell(CellType("X", width=1, height=1))
        b.add_cell(CellType("X", width=2, height=2))
        with pytest.raises(ValueError):
            a.merge(b)
        a.merge(b, overwrite=True)
        assert a.cell("X").width == 2


class TestGenericLibrary:
    def test_contains_expected_cells(self, library):
        for name in ["INV_X1", "NAND2_X1", "DFF_X1", "BUF_X4", "MUX2_X1"]:
            assert name in library

    def test_dff_is_sequential(self, library):
        assert library.cell("DFF_X1").is_sequential
        assert not library.cell("INV_X1").is_sequential

    def test_all_combinational_cells_have_arcs(self, library):
        for cell in library:
            if not cell.is_sequential:
                assert cell.arcs, f"{cell.name} has no timing arcs"

    def test_dff_clock_pin(self, library):
        dff = library.cell("DFF_X1")
        assert dff.pin("ck").is_clock
        assert dff.arcs[0].is_clock_to_q

    def test_cells_have_positive_footprint(self, library):
        for cell in library:
            assert cell.width > 0
            assert cell.height > 0

    def test_wire_rc_positive(self, library):
        assert library.wire_resistance_per_unit > 0
        assert library.wire_capacitance_per_unit > 0

    def test_larger_drive_has_lower_slope(self, library):
        weak = library.cell("BUF_X1").arcs[0].load_slope
        strong = library.cell("BUF_X4").arcs[0].load_slope
        assert strong < weak
