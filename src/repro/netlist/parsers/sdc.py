"""Simplified SDC (Synopsys Design Constraints) parser.

Supported commands::

    create_clock -name clk -period 800 [get_ports clk]
    set_input_delay  50 -clock clk [get_ports in0]
    set_output_delay 50 -clock clk [get_ports out0]
    set_input_delay  50 -clock clk [all_inputs]
    set_output_delay 50 -clock clk [all_outputs]

The parsed constraints can be applied to a :class:`repro.netlist.Design` with
:func:`apply_sdc`, which fills ``design.clock_period`` and the per-port
``input_delays`` / ``output_delays`` maps consumed by the STA engine.
Other commands are ignored; a malformed supported command raises
:class:`~repro.netlist.parsers.errors.ParseError`.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.netlist.design import Design
from repro.netlist.parsers.errors import ParseError


@dataclass
class SDCConstraints:
    """Parsed timing constraints."""

    clock_name: str = "clk"
    clock_period: Optional[float] = None
    clock_port: Optional[str] = None
    input_delays: Dict[str, float] = field(default_factory=dict)
    output_delays: Dict[str, float] = field(default_factory=dict)
    default_input_delay: Optional[float] = None
    default_output_delay: Optional[float] = None


def parse_sdc_file(path: str) -> SDCConstraints:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        return parse_sdc(text)
    except ParseError as exc:
        exc.path = path
        raise


def parse_sdc(text: str) -> SDCConstraints:
    """Parse SDC text into an :class:`SDCConstraints` object."""
    constraints = SDCConstraints()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line)
        if not tokens:
            continue
        command = tokens[0]
        try:
            if command == "create_clock":
                _parse_create_clock(tokens[1:], constraints)
            elif command == "set_input_delay":
                _parse_io_delay(tokens[1:], constraints, is_input=True)
            elif command == "set_output_delay":
                _parse_io_delay(tokens[1:], constraints, is_input=False)
        except ValueError as exc:
            raise ParseError(lineno, f"{command}: {exc}") from None
    return constraints


def apply_sdc(design: Design, constraints: SDCConstraints) -> Design:
    """Copy parsed constraints onto ``design`` (returns it for chaining)."""
    design.clock_name = constraints.clock_name
    design.clock_period = constraints.clock_period
    design.clock_port = constraints.clock_port
    input_ports = [
        p.name
        for p in design.ports
        if p.cell.pins and next(iter(p.cell.pins.values())).is_output
    ]
    output_ports = [
        p.name
        for p in design.ports
        if p.cell.pins and next(iter(p.cell.pins.values())).is_input
    ]
    design.input_delays = dict(constraints.input_delays)
    design.output_delays = dict(constraints.output_delays)
    if constraints.default_input_delay is not None:
        for port in input_ports:
            design.input_delays.setdefault(port, constraints.default_input_delay)
    if constraints.default_output_delay is not None:
        for port in output_ports:
            design.output_delays.setdefault(port, constraints.default_output_delay)
    return design


def _tokenize(line: str) -> List[str]:
    # Keep [...] groups as single tokens: "[get_ports clk]" etc.
    line = re.sub(r"\[\s*", "[", line)
    line = re.sub(r"\s*\]", "]", line)
    merged: List[str] = []
    for token in shlex.split(line):
        if merged and merged[-1].startswith("[") and not merged[-1].endswith("]"):
            merged[-1] = merged[-1] + " " + token
        else:
            merged.append(token)
    return merged


def _target_ports(token: str) -> Optional[List[str]]:
    """Extract port names from a ``[get_ports ...]`` style token."""
    if not token.startswith("["):
        return [token]
    inner = token.strip("[]").strip()
    if inner in {"all_inputs", "all_outputs"}:
        return None  # caller interprets as "all"
    match = re.match(r"get_ports\s+\{?([^}]*)\}?", inner)
    if match is None:
        return None
    return [p for p in match.group(1).split() if p]


def _parse_create_clock(tokens: List[str], constraints: SDCConstraints) -> None:
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token in ("-name", "-period") and i + 1 == len(tokens):
            raise ValueError(f"{token} needs a value")
        if token == "-name":
            constraints.clock_name = tokens[i + 1]
            i += 2
        elif token == "-period":
            constraints.clock_period = float(tokens[i + 1])
            i += 2
        elif token.startswith("["):
            ports = _target_ports(token)
            if ports:
                constraints.clock_port = ports[0]
            i += 1
        else:
            i += 1


def _parse_io_delay(tokens: List[str], constraints: SDCConstraints, *, is_input: bool) -> None:
    delay: Optional[float] = None
    targets: Optional[List[str]] = None
    apply_to_all = False
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "-clock":
            i += 2
        elif token in {"-max", "-min"}:
            i += 1
        elif token.startswith("["):
            inner = token.strip("[]").strip()
            if inner in {"all_inputs", "all_outputs"}:
                apply_to_all = True
            else:
                targets = _target_ports(token)
            i += 1
        else:
            try:
                delay = float(token)
            except ValueError:
                # Unsupported flags are skipped; a bare word is a bad delay.
                if not token.startswith("-"):
                    raise ValueError(f"delay {token!r} is not a number") from None
            i += 1
    if delay is None:
        raise ValueError("no delay value")
    if apply_to_all or targets is None:
        if is_input:
            constraints.default_input_delay = delay
        else:
            constraints.default_output_delay = delay
        return
    table = constraints.input_delays if is_input else constraints.output_delays
    for port in targets:
        table[port] = delay
