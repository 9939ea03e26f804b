"""The array-first design core and the CompiledDesign snapshot path.

Covers view semantics between objects and core arrays, pickle round-trip
equality, bit-identical flow results through the snapshot path, and corner
specs carried by a snapshot.
"""

import pickle

import numpy as np
import pytest

from repro.benchgen import generate_circuit, load_benchmark
from repro.flow.presets import build_flow, preset_names
from repro.netlist import CompiledDesign, compile_design

FAST = dict(
    max_iterations=60,
    timing_start_iteration=20,
    min_timing_iterations=20,
    timing_update_interval=10,
)


def _fast_overrides(preset):
    if preset == "dreamplace":
        return {"max_iterations": 60}
    if preset == "routability":
        return {"max_iterations": 60, "refine_iterations": 30}
    if preset == "routability-gp":
        # Shrink the feedback cadences so both in-loop weightings actually
        # fire inside the 60-iteration fast run.
        return {
            "max_iterations": 60, "refine_iterations": 30,
            "congestion_start": 20, "congestion_interval": 10,
            "timing_start": 30, "timing_interval": 10,
        }
    return dict(FAST)


class TestViewSemantics:
    def test_instance_write_visible_in_core(self, tiny_design):
        core = tiny_design.core
        inst = tiny_design.instance("u1")
        inst.x = 77.5
        assert core.x[inst.index] == 77.5

    def test_core_write_visible_in_instance(self, tiny_design):
        core = tiny_design.core
        inst = tiny_design.instance("u2")
        core.x[inst.index] = 33.25
        core.y[inst.index] = 12.0
        assert inst.x == 33.25
        assert inst.y == 12.0

    def test_set_positions_updates_views(self, tiny_design):
        x, y = tiny_design.positions()
        x[tiny_design.instance("u1").index] = 61.0
        tiny_design.set_positions(x, y)
        assert tiny_design.instance("u1").x == 61.0
        assert tiny_design.core.x[tiny_design.instance("u1").index] == 61.0

    def test_positions_returns_copies(self, tiny_design):
        x, _ = tiny_design.positions()
        x[:] = -1.0
        assert tiny_design.instance("u1").x != -1.0

    def test_net_weight_views_core(self, tiny_design):
        core = tiny_design.core
        net = tiny_design.net("n1")
        net.weight = 3.5
        assert core.net_weight[net.index] == 3.5
        core.net_weight[net.index] = 1.25
        assert net.weight == 1.25

    def test_fixed_frozen_after_finalize(self, tiny_design):
        with pytest.raises(RuntimeError):
            tiny_design.instance("u1").fixed = True

    def test_pin_position_matches_core_kernel(self, tiny_design):
        px, py = tiny_design.core.pin_positions()
        pin = tiny_design.pin("u1/a")
        assert (px[pin.index], py[pin.index]) == pin.position()


class TestRowsCache:
    def test_rows_cached_until_floorplan_changes(self, tiny_design):
        rows1 = tiny_design.rows()
        assert tiny_design.rows() is rows1  # cached object
        tiny_design.row_height = tiny_design.row_height * 2
        rows2 = tiny_design.rows()
        assert rows2 is not rows1
        assert len(rows2) == len(rows1) // 2

    def test_die_change_invalidates_rows(self, tiny_design):
        rows1 = tiny_design.rows()
        die = tiny_design.die
        tiny_design.die = (die.xl, die.yl, die.xh, die.yh + 24)
        assert len(tiny_design.rows()) == len(rows1) + 2

    def test_core_set_floorplan_accepts_tuple(self, tiny_design):
        """A tuple die must be normalized to Rect; a raw tuple would poison
        the rows-cache key on the next rows() call."""
        core = tiny_design.core
        rows1 = core.rows()
        die = core.die
        core.set_floorplan(die=(die.xl, die.yl, die.xh, die.yh + 12))
        rows2 = core.rows()
        assert len(rows2) == len(rows1) + 1
        assert core.rows() is rows2  # re-cached under the new key

    def test_row_resize_after_finalize_reflected_everywhere(self, tiny_design):
        """Design-level floorplan mutation after finalize() must invalidate
        the core rows cache and keep design.rows()/core.rows() in agreement
        (regression: a stale cache here silently mis-legalizes)."""
        tiny_design.rows()
        tiny_design.site_width = tiny_design.site_width * 2
        tiny_design.row_height = tiny_design.row_height * 2
        design_rows = tiny_design.rows()
        assert design_rows is tiny_design.core.rows()
        assert design_rows[0].site_width == tiny_design.site_width
        assert design_rows[0].height == tiny_design.row_height

    def test_movable_masks_unaffected_by_floorplan_mutation(self, tiny_design):
        """Floorplan changes must not disturb the frozen movable masks."""
        core = tiny_design.core
        mask_before = core.movable_mask.copy()
        index_before = core.movable_index.copy()
        die = core.die
        core.set_floorplan(die=(die.xl, die.yl, die.xh + 48, die.yh + 48))
        np.testing.assert_array_equal(core.movable_mask, mask_before)
        np.testing.assert_array_equal(core.movable_index, index_before)


class TestSnapshotRoundTrip:
    @pytest.fixture(scope="class")
    def design(self):
        return load_benchmark("sb_mini_18", scale=0.5)

    @pytest.fixture(scope="class")
    def compiled(self, design):
        return compile_design(design)

    def test_pickle_round_trip_is_exact(self, design, compiled):
        restored = pickle.loads(pickle.dumps(compiled))
        assert isinstance(restored, CompiledDesign)
        rebuilt = restored.to_design()
        assert rebuilt.name == design.name
        assert [i.name for i in rebuilt.instances] == [i.name for i in design.instances]
        assert [n.name for n in rebuilt.nets] == [n.name for n in design.nets]
        for field in (
            "x",
            "y",
            "inst_width",
            "inst_fixed",
            "inst_is_port",
            "pin_instance",
            "pin_offset_x",
            "pin_capacitance",
            "pin_is_driver",
            "net_pin_offsets",
            "net_pin_index",
            "net_weight",
        ):
            np.testing.assert_array_equal(
                getattr(rebuilt.core, field), getattr(design.core, field), err_msg=field
            )


class TestFlowParity:
    @pytest.mark.parametrize("preset", sorted(preset_names()))
    def test_all_presets_bit_identical_through_snapshot(self, preset):
        """Running a preset on a snapshot-rebuilt design reproduces the
        direct run bit for bit (placement x/y and STA metrics)."""
        overrides = _fast_overrides(preset)
        direct = build_flow(preset, **overrides).run(
            load_benchmark("sb_mini_18", scale=0.4), seed=0
        )
        snapshot = build_flow(preset, **overrides).run(
            compile_design(load_benchmark("sb_mini_18", scale=0.4)).to_design(), seed=0
        )
        np.testing.assert_array_equal(snapshot.x, direct.x)
        np.testing.assert_array_equal(snapshot.y, direct.y)
        assert snapshot.evaluation.hpwl == direct.evaluation.hpwl
        assert snapshot.evaluation.tns == direct.evaluation.tns
        assert snapshot.evaluation.wns == direct.evaluation.wns

    def test_generated_design_round_trips_exactly(self, small_spec):
        direct = generate_circuit(small_spec)
        rebuilt = compile_design(generate_circuit(small_spec)).to_design()
        np.testing.assert_array_equal(rebuilt.core.x, direct.core.x)
        np.testing.assert_array_equal(rebuilt.core.pin_net, direct.core.pin_net)


class TestCornerSpecsInSnapshot:
    def test_corner_specs_survive_pickle_and_rebuild(self):
        from repro.timing import resolve_corners

        design = load_benchmark("sb_mini_18", scale=0.2)
        design.corners = "fast,slow"
        snapshot = pickle.loads(pickle.dumps(compile_design(design)))
        expected = resolve_corners("fast,slow")
        assert snapshot.corners == expected
        rebuilt = snapshot.to_design()
        assert rebuilt.corners == expected

    def test_no_corners_stays_none(self):
        design = load_benchmark("sb_mini_18", scale=0.2)
        snapshot = compile_design(design)
        assert snapshot.corners is None
        assert snapshot.to_design().corners is None
