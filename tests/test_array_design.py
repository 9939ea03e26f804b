"""Designs built as arrays: snapshot goldens, lazy object views, and a flow
that never builds them.

* ``compile_design()`` digests of every sb_mini / sb_cong design and of both
  sb_xl designs at 1/10 scale, recorded while the generators still built
  designs through ``add_instance`` / ``add_net`` / ``connect``.  The
  generators now emit arrays and finish through
  :meth:`CompiledDesign.to_design`; the digests pin that every name, cell
  id, position and CSR entry is unchanged, also after a pickle round trip.
* One construction path: a design built through ``add_*`` and
  ``finalize()`` has the same core and snapshot as the array-built one,
  and neither builds its views until asked; the views either creates on
  first use match pin for pin.
* The timing-driven, wirelength-driven and routability flows, plus
  ``compile_design()``, run on a generated design without building its
  object graph.

The digest hashes the snapshot field by field (arrays by dtype, shape and
raw bytes; everything else by ``repr``), so it does not depend on the
pickle or zlib version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pickle

import numpy as np
import pytest

from repro.benchgen import CONGESTION_SUITE, SB_MINI_SUITE, generate_circuit, load_benchmark
from repro.benchgen.xl import XL_SUITE, generate_xl_circuit
from repro.flow import build_flow
from repro.netlist import CompiledDesign, Design, compile_design
from repro.netlist.design import port_cell
from repro.netlist.library import PinDirection

_GOLDEN = {
    "sb_mini_1": "872755acf4f0765cf4c213371394370c688421dd105e73ddce7417aba339e499",
    "sb_mini_3": "0c3f1347f9ae7d32f7cae4b9405f768c077984fca41bce15ae107a1ba81fda7b",
    "sb_mini_4": "db3dfb81b558a52f39ed0af68351d09ec79afb1b92444a1b43535d673f9c38ee",
    "sb_mini_5": "c876a4a7979deb626a63685daa2f098420d1b1d3787200b6e95ddf1fe5e285f6",
    "sb_mini_7": "7e35a94b38d0a522a9fa6e27947bdc303753a1851144c60eb3dfb95253641265",
    "sb_mini_10": "db3e1dbdc56527e9f52ecaef962cd06f5f65c0d2eaf0f9425e3cc2b9ead19162",
    "sb_mini_16": "031578b56bbcd37a33ac747353f32f31cfc626c5cbbc5dd547e84bd256add818",
    "sb_mini_18": "386bb4014ff512b2dbf1251c8ba81128d04181400e7b62a28d6c42b861575a00",
    "sb_cong_1": "be7bb91ded5729ee955ddc0857c2cb778e3a080a454b50df84aa8e84bd19a87d",
    "sb_xl_1": "304b882442a503520b42d0084ccc07908a066de13696114c39f38fddd11da473",
    "sb_xl_2": "2395dcea85267c628b9d61bc3fd9baf827462f7eed80f2b9283f2b522ed21f30",
}


def snapshot_digest(compiled: CompiledDesign) -> str:
    digest = hashlib.sha256()
    for field in dataclasses.fields(compiled):
        value = getattr(compiled, field.name)
        digest.update(field.name.encode())
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif field.name == "library":
            digest.update(
                repr((
                    value.name,
                    list(value),
                    value.wire_resistance_per_unit,
                    value.wire_capacitance_per_unit,
                )).encode()
            )
        elif isinstance(value, dict):
            digest.update(repr(sorted(value.items())).encode())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def _generate(name: str) -> Design:
    if name in XL_SUITE:
        spec = XL_SUITE[name]
        return generate_xl_circuit(dataclasses.replace(
            spec,
            num_cells=int(spec.num_cells * 0.1),
            num_primary_inputs=max(4, int(spec.num_primary_inputs * 0.1)),
            num_primary_outputs=max(4, int(spec.num_primary_outputs * 0.1)),
        ))
    return generate_circuit({**SB_MINI_SUITE, **CONGESTION_SUITE}[name])


def test_golden_covers_every_suite_design():
    assert set(_GOLDEN) == {*SB_MINI_SUITE, *CONGESTION_SUITE, *XL_SUITE}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_compile_design_matches_golden(name):
    design = _generate(name)
    compiled = compile_design(design)
    assert snapshot_digest(compiled) == _GOLDEN[name]
    rebuilt = pickle.loads(pickle.dumps(compiled)).to_design()
    assert snapshot_digest(compile_design(rebuilt)) == _GOLDEN[name]
    assert not design.views_built and not rebuilt.views_built


def _rebuild_through_api(compiled: CompiledDesign) -> Design:
    """Replay a snapshot through add_port / add_instance / add_net / connect."""
    design = Design(
        compiled.name, die=compiled.die, library=compiled.library,
        row_height=compiled.row_height, site_width=compiled.site_width,
    )
    port_in = port_cell(PinDirection.INPUT)
    for i, name in enumerate(compiled.instance_names):
        cell = compiled.cell_types[compiled.inst_cell_id[i]]
        x, y = float(compiled.x[i]), float(compiled.y[i])
        if compiled.inst_is_port[i]:
            direction = "input" if cell.name == port_in.name else "output"
            design.add_port(name, direction, x=x, y=y)
        else:
            design.add_instance(name, cell, x=x, y=y, fixed=bool(compiled.inst_fixed[i]))
    owner = np.searchsorted(compiled.inst_pin_offsets, compiled.net_pin_index, side="right") - 1
    offsets = compiled.net_pin_offsets
    for e, net_name in enumerate(compiled.net_names):
        design.add_net(net_name)
        for k in range(offsets[e], offsets[e + 1]):
            inst = int(owner[k])
            cell = compiled.cell_types[compiled.inst_cell_id[inst]]
            local = int(compiled.net_pin_index[k] - compiled.inst_pin_offsets[inst])
            design.connect(net_name, compiled.instance_names[inst], list(cell.pins)[local])
    design.clock_period = compiled.clock_period
    design.clock_name = compiled.clock_name
    design.clock_port = compiled.clock_port
    design.input_delays = dict(compiled.input_delays)
    design.output_delays = dict(compiled.output_delays)
    design.corners = compiled.corners
    return design.finalize()


class TestLazyViews:
    @pytest.fixture(scope="class")
    def pair(self):
        lazy = load_benchmark("sb_cong_1", scale=0.3)
        eager = _rebuild_through_api(compile_design(lazy))
        return lazy, eager

    def test_views_match_public_api_build(self, pair):
        lazy, eager = pair
        assert not lazy.views_built
        assert [(i.name, i.cell.name, i.is_port, i.index) for i in lazy.instances] == [
            (i.name, i.cell.name, i.is_port, i.index) for i in eager.instances
        ]
        assert lazy.views_built
        assert [(p.full_name, p.index) for p in lazy.pins] == [
            (p.full_name, p.index) for p in eager.pins
        ]
        assert [(n.name, [p.index for p in n.pins]) for n in lazy.nets] == [
            (n.name, [p.index for p in n.pins]) for n in eager.nets
        ]
        assert [p.net.name if p.net else None for p in lazy.pins] == [
            p.net.name if p.net else None for p in eager.pins
        ]
        assert lazy.summary() == eager.summary()

    def test_api_build_and_to_design_build_the_same_core(self, pair):
        lazy, _ = pair
        eager = _rebuild_through_api(compile_design(lazy))
        assert not eager.views_built
        for field in vars(eager.core):
            value = getattr(eager.core, field)
            if isinstance(value, np.ndarray):
                np.testing.assert_array_equal(getattr(lazy.core, field), value, err_msg=field)
        assert snapshot_digest(compile_design(eager)) == snapshot_digest(compile_design(lazy))
        assert not eager.views_built

    def test_hand_built_snapshot_survives_to_design(self, library):
        design = Design("hand", die=(0, 0, 60, 48), library=library)
        design.add_port("in0", "input", x=0, y=24)
        design.add_instance("u1", "INV_X1", x=12, y=12, fixed=True)
        design.add_instance("u2", "BUF_X1", x=30, y=24, orientation="FS")
        design.add_net("n0")
        design.connect("n0", "in0")
        design.connect("n0", "u1", "a")
        design.add_net("n1")
        design.connect("n1", "u1", "o")
        design.connect("n1", "u2", "a")
        compiled = compile_design(design.finalize())
        assert compiled.orientations == ("N", "N", "FS")
        assert compiled.inst_fixed.tolist() == [True, True, False]
        rebuilt = compiled.to_design()
        assert snapshot_digest(compile_design(rebuilt)) == snapshot_digest(compiled)
        assert rebuilt.instance("u1").fixed and rebuilt.instance("u2").orientation == "FS"

    def test_lookups_and_view_writes(self):
        design = load_benchmark("sb_mini_4", scale=0.2)
        assert design.instance_names[0] == "clk"
        assert design.net_names[0] == "clknet"
        assert not design.views_built
        inst = design.instance("g3")
        assert design.views_built and inst is design.instances[inst.index]
        inst.x = 12.5
        assert design.core.x[inst.index] == 12.5
        design.core.y[inst.index] = 7.0
        assert inst.y == 7.0
        pin = design.pin("g3/o")
        assert pin.instance is inst and pin is design.pins[pin.index]
        assert design.instance_names[inst.index] == "g3"

    def test_compile_reads_views_once_built(self):
        design = load_benchmark("sb_mini_4", scale=0.2)
        assert design.orientations is None
        inst = design.instance("g0")
        inst.orientation = "FS"
        rebuilt = compile_design(design).to_design()
        assert rebuilt.orientations[inst.index] == "FS"
        assert rebuilt.instance("g0").orientation == "FS"

    def test_to_design_rejects_multi_driver_net(self):
        compiled = compile_design(load_benchmark("sb_mini_4", scale=0.2))
        # Swap a sink of one net with the driver (first pin) of the next.
        offsets = compiled.net_pin_offsets
        net = int(np.flatnonzero(np.diff(offsets) >= 2)[1])
        sink, driver = offsets[net] + 1, offsets[net + 1]
        index = compiled.net_pin_index.copy()
        index[[sink, driver]] = index[[driver, sink]]
        swapped = dataclasses.replace(compiled, net_pin_index=index)
        with pytest.raises(ValueError, match="multiple drivers"):
            swapped.to_design()

    def test_from_core_checks_name_tables(self):
        design = load_benchmark("sb_mini_4", scale=0.2)
        with pytest.raises(ValueError, match="names for"):
            Design.from_core(
                design.core,
                design.library,
                instance_names=design.instance_names[:-1],
                net_names=design.net_names,
            )

    def test_to_design_rejects_pin_on_two_nets(self):
        compiled = compile_design(load_benchmark("sb_mini_4", scale=0.2))
        index = compiled.net_pin_index.copy()
        index[1] = index[0]
        with pytest.raises(RuntimeError, match="inconsistent"):
            dataclasses.replace(compiled, net_pin_index=index).to_design()


_FLOW_OVERRIDES = {
    "efficient_tdp": dict(
        max_iterations=60, timing_start_iteration=20,
        min_timing_iterations=20, timing_update_interval=10,
    ),
    "dreamplace": dict(max_iterations=60),
    "routability-gp": dict(
        max_iterations=60, refine_iterations=30,
        congestion_start=20, congestion_interval=10,
        timing_start=30, timing_interval=10,
    ),
}


@pytest.mark.parametrize("preset", sorted(_FLOW_OVERRIDES))
def test_flow_builds_no_object_graph(preset):
    design = load_benchmark("sb_cong_1", scale=0.3)
    result = build_flow(preset, **_FLOW_OVERRIDES[preset]).run(design, seed=0)
    assert result.evaluation.tns <= 0.0
    compile_design(design)
    design.summary()
    assert not design.views_built
