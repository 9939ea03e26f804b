"""Tests for the LEF/Liberty/DEF/Verilog/SDC parsers and writers."""

import pytest

from repro.netlist.parsers import (
    ParseError,
    apply_sdc,
    parse_def,
    parse_lef,
    parse_liberty,
    parse_sdc,
    parse_sdc_file,
    parse_verilog,
)
from repro.netlist.writers import (
    write_def,
    write_lef,
    write_sdc,
    write_verilog,
)

LEF_SAMPLE = """
VERSION 5.8 ;
SITE core
  SIZE 1.0 BY 12.0 ;
END core
MACRO INV_X1
  CLASS CORE ;
  SIZE 2.0 BY 12.0 ;
  PIN a
    DIRECTION INPUT ;
    CAPACITANCE 0.0015 ;
    PORT RECT 0.5 3.0 0.5 3.0 END
  END a
  PIN o
    DIRECTION OUTPUT ;
    PORT RECT 1.5 9.0 1.5 9.0 END
  END o
END INV_X1
"""

LIBERTY_SAMPLE = """
library (demo) {
  wire_resistance : 0.002 ;
  wire_capacitance : 0.00016 ;
  cell (INV_X1) {
    area : 2.0 ;
    pin (a) { direction : input ; capacitance : 0.0015 ; }
    pin (o) {
      direction : output ;
      timing () {
        related_pin : "a" ;
        intrinsic : 10.0 ;
        load_slope : 350.0 ;
      }
    }
  }
  cell (DFF_X1) {
    area : 10.0 ;
    ff (IQ, IQN) { }
    pin (d)  { direction : input ; capacitance : 0.0018 ; }
    pin (ck) { direction : input ; capacitance : 0.0012 ; clock : true ; }
    pin (q)  {
      direction : output ;
      timing () {
        related_pin : "ck" ;
        cell_delay (lut) {
          index_1 ("0.001, 0.01, 0.1");
          values  ("55.0, 60.0, 95.0");
        }
      }
    }
  }
}
"""

VERILOG_SAMPLE = """
// simple two-gate netlist
module top (a, b, y);
  input a, b;
  output y;
  wire n1;

  NAND2_X1 u1 (.a(a), .b(b), .o(n1));
  INV_X1   u2 (.a(n1), .o(y));
endmodule
"""

SDC_SAMPLE = """
# constraints
create_clock -name clk -period 800 [get_ports clk]
set_input_delay 50 -clock clk [get_ports in0]
set_output_delay 40 -clock clk [all_outputs]
"""


class TestLefParser:
    def test_macro_size_and_pins(self):
        lib = parse_lef(LEF_SAMPLE)
        cell = lib.cell("INV_X1")
        assert cell.width == 2.0
        assert cell.height == 12.0
        assert cell.pin("a").capacitance == pytest.approx(0.0015)
        assert cell.pin("a").offset_x == pytest.approx(0.5)
        assert cell.pin("o").is_output

    def test_site_captured(self):
        lib = parse_lef(LEF_SAMPLE)
        assert getattr(lib, "default_site_width") == 1.0

    def test_lef_writer_roundtrip(self, library):
        text = write_lef(library)
        parsed = parse_lef(text)
        assert set(parsed.cell_names) == {
            c.name for c in library if not c.name.startswith("__PORT")
        }
        assert parsed.cell("INV_X1").width == library.cell("INV_X1").width


class TestLibertyParser:
    def test_cells_and_pins(self):
        lib = parse_liberty(LIBERTY_SAMPLE)
        assert "INV_X1" in lib and "DFF_X1" in lib
        assert lib.cell("DFF_X1").is_sequential
        assert lib.cell("DFF_X1").pin("ck").is_clock

    def test_linear_arc(self):
        lib = parse_liberty(LIBERTY_SAMPLE)
        arc = lib.cell("INV_X1").arcs[0]
        assert arc.delay(0.01) == pytest.approx(10.0 + 3.5)

    def test_lut_arc(self):
        lib = parse_liberty(LIBERTY_SAMPLE)
        arc = lib.cell("DFF_X1").arcs[0]
        assert arc.delay(0.001) == pytest.approx(55.0)
        assert 60.0 < arc.delay(0.05) < 95.0

    def test_wire_rc(self):
        lib = parse_liberty(LIBERTY_SAMPLE)
        assert lib.wire_resistance_per_unit == pytest.approx(0.002)
        assert lib.wire_capacitance_per_unit == pytest.approx(0.00016)


class TestVerilogParser:
    def test_structure(self, library):
        design = parse_verilog(VERILOG_SAMPLE, library)
        assert design.name == "top"
        assert design.has_instance("u1") and design.has_instance("u2")
        assert len(design.ports) == 3
        assert design.net("n1").driver.full_name == "u1/o"
        assert {p.full_name for p in design.net("n1").sinks} == {"u2/a"}

    def test_verilog_writer_roundtrip(self, tiny_design, library):
        text = write_verilog(tiny_design)
        parsed = parse_verilog(text, library)
        assert parsed.has_instance("u1")
        assert parsed.num_nets == tiny_design.num_nets
        assert len(parsed.cells) == len(tiny_design.cells)


class TestDefRoundtrip:
    def test_roundtrip_preserves_structure(self, tiny_design, library):
        text = write_def(tiny_design)
        parsed = parse_def(text, library)
        assert parsed.name == "tiny"
        assert len(parsed.cells) == len(tiny_design.cells)
        assert len(parsed.ports) == len(tiny_design.ports)
        assert parsed.num_nets == tiny_design.num_nets
        assert parsed.die.width == tiny_design.die.width

    def test_roundtrip_preserves_positions(self, tiny_design, library):
        tiny_design.instance("u1").x = 123.0
        text = write_def(tiny_design)
        parsed = parse_def(text, library)
        assert parsed.instance("u1").x == pytest.approx(123.0)

    def test_fixed_flag_preserved(self, tiny_design, library):
        parsed = parse_def(write_def(tiny_design), library)
        assert parsed.instance("in0").fixed

    def test_connectivity_preserved(self, tiny_design, library):
        parsed = parse_def(write_def(tiny_design), library)
        net = parsed.net("n1")
        assert net.driver.full_name == "ff1/q"


class TestSdc:
    def test_parse_clock(self):
        constraints = parse_sdc(SDC_SAMPLE)
        assert constraints.clock_period == 800.0
        assert constraints.clock_name == "clk"
        assert constraints.clock_port == "clk"

    def test_parse_io_delays(self):
        constraints = parse_sdc(SDC_SAMPLE)
        assert constraints.input_delays["in0"] == 50.0
        assert constraints.default_output_delay == 40.0

    def test_apply_sdc(self, tiny_design):
        constraints = parse_sdc(SDC_SAMPLE)
        apply_sdc(tiny_design, constraints)
        assert tiny_design.clock_period == 800.0
        assert tiny_design.input_delays["in0"] == 50.0
        assert tiny_design.output_delays["out0"] == 40.0

    def test_sdc_writer_roundtrip(self, tiny_design):
        tiny_design.input_delays = {"in0": 25.0}
        tiny_design.output_delays = {"out0": 30.0}
        parsed = parse_sdc(write_sdc(tiny_design))
        assert parsed.clock_period == tiny_design.clock_period
        assert parsed.input_delays["in0"] == 25.0
        assert parsed.output_delays["out0"] == 30.0


class TestMalformedInput:
    """Malformed rows raise a located ParseError instead of being dropped."""

    @pytest.mark.parametrize(
        "components, nets, line, message",
        [
            (["- u9 NOPE_X1 + PLACED ( 0 0 ) N"], [], 4, "no cell 'NOPE_X1'"),
            (["- u1 ;"], [], 4, "COMPONENTS: truncated statement"),
            ([], ["- n1 ( zz9 a ) ( u1 a )"], 9, "no instance 'zz9'"),
            ([], ["- n1 ( u1 zz )"], 9, "INV_X1\\) has no pin 'zz'"),
            ([], ["- n1 ( u1 o )", "- n2 ( u2 o ) ( u1 o )"], 10, "u1/o is already connected to n1"),
            ([], ["- n1 ( u1 a )", "- n2 ( u1 o ) ( u2 o )"], 10, "Net n2 has multiple drivers: u1/o, u2/o"),
        ],
    )
    def test_def_statement_errors_name_the_line(self, library, components, nets, line, message):
        text = "\n".join(
            [
                "DESIGN bad ;",
                "DIEAREA ( 0 0 ) ( 100 96 ) ;",
                "COMPONENTS 3 ;",
                *(components or ["- u1 INV_X1 + PLACED ( 0 0 ) N ;"]),
                "- u2 INV_X1 + PLACED ( 10 0 ) N ;",
                "END COMPONENTS",
                "",
                "NETS 2 ;",
                *(f"{net} ;" for net in nets),
                "END NETS",
                "END DESIGN",
            ]
        )
        with pytest.raises(ParseError, match=message) as exc:
            parse_def(text, library)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "instances, line, message",
        [
            (["INV_X1 u2 (.a(n1), .zz(y));"], 6, "INV_X1\\) has no pin 'zz'"),
            (["INV_X1 u1 (.a(n1), .o(y));"], 6, "Duplicate instance name 'u1'"),
            (["/* a comment\n   over two lines */ INV_X1 u2 (.a(n1), .a(y));"], 7, "u2/a is already connected"),
            (["INV_X1 u2 (.a(a), .o(n1));"], 6, "Net n1 has multiple drivers: u1/o, u2/o"),
        ],
    )
    def test_verilog_statement_errors_name_the_line(self, library, instances, line, message):
        text = "\n".join(
            [
                "module top (a, y);",
                "  input a;",
                "  output y;",
                "  wire n1;",
                "  INV_X1 u1 (.a(a), .o(n1));",
                *instances,
                "endmodule",
            ]
        )
        with pytest.raises(ParseError, match=message) as exc:
            parse_verilog(text, library)
        assert exc.value.line == line

    def test_sdc_non_numeric_delay(self):
        text = "create_clock -name clk -period 800\nset_input_delay 5O -clock clk [get_ports in0]\n"
        with pytest.raises(ParseError, match="set_input_delay: delay '5O' is not a number") as exc:
            parse_sdc(text)
        assert exc.value.line == 2
        assert str(exc.value).startswith("line 2: ")

    def test_sdc_create_clock_period_without_value(self):
        with pytest.raises(ParseError, match="-period needs a value") as exc:
            parse_sdc("# clock\ncreate_clock -name clk -period\n")
        assert exc.value.line == 2
        assert isinstance(exc.value, ValueError)

    def test_file_entry_points_name_the_file(self, tmp_path):
        sdc = tmp_path / "bad.sdc"
        sdc.write_text("create_clock -name clk -period 800\nset_output_delay x -clock clk [all_outputs]\n")
        with pytest.raises(ParseError, match="set_output_delay") as exc:
            parse_sdc_file(str(sdc))
        assert exc.value.path == str(sdc)
        assert str(exc.value).startswith(f"{sdc}:2: ")
