"""Writers for the simplified LEF / DEF / Verilog / SDC views.

Each writer returns the text of exactly the subset the corresponding parser
in :mod:`repro.netlist.parsers` understands, so a design round-trips through
those parsers.  The DEF writer mirrors the ".def Output" step in Fig. 1 of
the paper.
"""

from __future__ import annotations

from typing import List

from repro.netlist.design import Design
from repro.netlist.library import Library


def write_def(design: Design) -> str:
    """Serialize ``design`` (floorplan, placement, connectivity) as DEF text."""
    lines: List[str] = []
    lines.append("VERSION 5.8 ;")
    lines.append(f"DESIGN {design.name} ;")
    lines.append("UNITS DISTANCE MICRONS 1000 ;")
    die = design.die
    lines.append(
        f"DIEAREA ( {_fmt(die.xl)} {_fmt(die.yl)} ) ( {_fmt(die.xh)} {_fmt(die.yh)} ) ;"
    )
    for row in design.rows():
        lines.append(
            f"ROW core_row_{row.index} core {_fmt(row.xl)} {_fmt(row.y)} N "
            f"DO {row.num_sites} BY 1 STEP {_fmt(row.site_width)} 0 ;"
        )

    cells = design.cells
    lines.append(f"COMPONENTS {len(cells)} ;")
    for inst in cells:
        status = "FIXED" if inst.fixed else "PLACED"
        lines.append(
            f"  - {inst.name} {inst.cell.name} + {status} "
            f"( {_fmt(inst.x)} {_fmt(inst.y)} ) {inst.orientation} ;"
        )
    lines.append("END COMPONENTS")

    ports = design.ports
    lines.append(f"PINS {len(ports)} ;")
    for port in ports:
        pin = design.pin(port.name)
        direction = "INPUT" if pin.is_driver else "OUTPUT"
        net_name = pin.net.name if pin.net is not None else port.name
        lines.append(
            f"  - {port.name} + NET {net_name} + DIRECTION {direction} "
            f"+ PLACED ( {_fmt(port.x)} {_fmt(port.y)} ) N ;"
        )
    lines.append("END PINS")

    lines.append(f"NETS {len(design.nets)} ;")
    for net in design.nets:
        terms = []
        for pin in net.pins:
            if pin.instance.is_port:
                terms.append(f"( PIN {pin.instance.name} )")
            else:
                terms.append(f"( {pin.instance.name} {pin.lib_pin.name} )")
        lines.append(f"  - {net.name} {' '.join(terms)} ;")
    lines.append("END NETS")
    lines.append("END DESIGN")
    return "\n".join(lines) + "\n"


def write_verilog(design: Design) -> str:
    """Serialize the design's connectivity as structural Verilog.

    Nets attached to a top-level port are emitted under the port's name (a
    Verilog port *is* the signal), so the text round-trips through
    :func:`repro.netlist.parsers.verilog.parse_verilog` with the same net
    count.
    """
    ports = design.ports
    port_names = [p.name for p in ports]
    # Map each net to its Verilog signal name: the attached port's name when
    # a port drives or loads it, the net's own name otherwise.
    signal_name = {net.name: net.name for net in design.nets}
    for pin in design.pins:
        if pin.instance.is_port and pin.net is not None:
            signal_name[pin.net.name] = pin.instance.name

    lines: List[str] = []
    lines.append(f"module {design.name} ({', '.join(port_names)});")
    inputs = [p.name for p in ports if next(iter(p.cell.pins.values())).is_output]
    outputs = [p.name for p in ports if next(iter(p.cell.pins.values())).is_input]
    if inputs:
        lines.append(f"  input {', '.join(inputs)};")
    if outputs:
        lines.append(f"  output {', '.join(outputs)};")
    wires = sorted(
        {name for name in signal_name.values() if name not in set(port_names)}
    )
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    lines.append("")
    for inst in design.cells:
        pins = (design.pin(inst.name, name) for name in inst.cell.pins)
        connections = [f".{p.name}({signal_name[p.net.name]})" for p in pins if p.net is not None]
        lines.append(f"  {inst.cell.name} {inst.name} ({', '.join(connections)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_sdc(design: Design) -> str:
    """Serialize the design's timing constraints as SDC."""
    lines: List[str] = []
    if design.clock_period is not None:
        port_ref = f" [get_ports {design.clock_port}]" if design.clock_port else ""
        lines.append(
            f"create_clock -name {design.clock_name} -period {_fmt(design.clock_period)}{port_ref}"
        )
    for port, delay in sorted(design.input_delays.items()):
        lines.append(
            f"set_input_delay {_fmt(delay)} -clock {design.clock_name} [get_ports {port}]"
        )
    for port, delay in sorted(design.output_delays.items()):
        lines.append(
            f"set_output_delay {_fmt(delay)} -clock {design.clock_name} [get_ports {port}]"
        )
    return "\n".join(lines) + "\n"


def write_lef(library: Library, *, site_width: float = 1.0, row_height: float = 12.0) -> str:
    """Serialize ``library`` masters as simplified LEF."""
    lines: List[str] = []
    lines.append("VERSION 5.8 ;")
    lines.append("SITE core")
    lines.append(f"  SIZE {_fmt(site_width)} BY {_fmt(row_height)} ;")
    lines.append("END core")
    for cell in library:
        if cell.name.startswith("__PORT"):
            continue
        lines.append(f"MACRO {cell.name}")
        lines.append(f"  CLASS {'BLOCK' if cell.is_macro else 'CORE'} ;")
        lines.append(f"  SIZE {_fmt(cell.width)} BY {_fmt(cell.height)} ;")
        for pin in cell.pins.values():
            lines.append(f"  PIN {pin.name}")
            lines.append(f"    DIRECTION {pin.direction.value.upper()} ;")
            if pin.is_clock:
                lines.append("    USE CLOCK ;")
            lines.append(f"    CAPACITANCE {pin.capacitance} ;")
            lines.append(
                f"    PORT RECT {_fmt(pin.offset_x)} {_fmt(pin.offset_y)} "
                f"{_fmt(pin.offset_x)} {_fmt(pin.offset_y)} END"
            )
            lines.append(f"  END {pin.name}")
        lines.append(f"END {cell.name}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.3f}"
