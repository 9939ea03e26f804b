"""The array-first design core and the CompiledDesign snapshot path.

Covers the PR 2 acceptance criteria: view semantics between objects and core
arrays, pickle round-trip equality, snapshot size versus the object graph,
bit-identical flow results through the snapshot path, and thread-versus-
process batch parity when shipping compiled designs.
"""

import pickle

import numpy as np
import pytest

from repro.benchgen import generate_circuit, load_benchmark, load_compiled
from repro.flow.batch import BatchJob, run_batch
from repro.flow.presets import build_flow, preset_names
from repro.netlist import (
    CompiledDesign,
    SharedDesignPack,
    compile_design,
)

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

    def test_snapshot_at_least_10x_smaller_than_object_graph(self, design, compiled):
        # A generated design creates its object views on first use; build
        # them so the comparison is against the full object graph.
        assert design.instances and design.views_built
        compiled_size = len(pickle.dumps(compiled))
        design_size = len(pickle.dumps(design))
        assert compiled_size * 10 <= design_size, (
            f"CompiledDesign pickles to {compiled_size}B, full design to "
            f"{design_size}B - ratio {design_size / compiled_size:.1f}x < 10x"
        )

    def test_shared_memory_round_trip(self, design, compiled):
        pack = SharedDesignPack(compiled)
        try:
            handle = pickle.loads(pickle.dumps(pack.handle))
            loaded = handle.load()
            try:
                rebuilt = loaded.compiled.to_design()
                np.testing.assert_array_equal(rebuilt.core.x, design.core.x)
                np.testing.assert_array_equal(
                    rebuilt.core.net_pin_index, design.core.net_pin_index
                )
            finally:
                loaded.close()
        finally:
            pack.close()

    def test_load_compiled_matches_load_benchmark(self):
        rebuilt = load_compiled("sb_mini_4", scale=0.3).to_design()
        fresh = load_benchmark("sb_mini_4", scale=0.3)
        np.testing.assert_array_equal(rebuilt.core.x, fresh.core.x)
        np.testing.assert_array_equal(
            rebuilt.core.net_pin_index, fresh.core.net_pin_index
        )
        assert rebuilt.summary() == fresh.summary()


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
            load_compiled("sb_mini_18", scale=0.4).to_design(), seed=0
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


def _summaries(report):
    keyed = {}
    for item in report.items:
        assert item.ok, item.error
        summary = dict(item.summary)
        summary.pop("runtime_sec", None)
        keyed[item.label] = summary
    return keyed


class TestBatchShipParity:
    def _jobs(self):
        return [
            BatchJob(
                design=name,
                preset="dreamplace",
                seed=0,
                scale=0.2,
                overrides={"max_iterations": 60},
            )
            for name in ["sb_mini_18", "sb_mini_4", "sb_mini_16", "sb_mini_1"]
        ]

    def test_thread_vs_process_compiled_parity(self):
        thread = run_batch(
            self._jobs(), max_workers=4, executor="thread", ship="compiled"
        )
        process = run_batch(
            self._jobs(), max_workers=2, executor="process", ship="compiled"
        )
        assert thread.ship == "compiled"
        assert _summaries(thread) == _summaries(process)

    def test_shared_memory_ship_matches_generate(self):
        generate = run_batch(self._jobs(), max_workers=4, ship="generate")
        shared = run_batch(self._jobs(), max_workers=4, ship="shared")
        assert _summaries(generate) == _summaries(shared)

    def test_unknown_ship_mode_rejected(self):
        with pytest.raises(ValueError, match="ship"):
            run_batch(self._jobs()[:1], ship="carrier_pigeon")


def _shm_entries():
    """Names currently present under /dev/shm (empty set if unsupported)."""
    from pathlib import Path

    root = Path("/dev/shm")
    if not root.exists():  # pragma: no cover - non-Linux
        return set()
    return {entry.name for entry in root.iterdir()}


class TestSharedDesignPackLifecycle:
    """No /dev/shm segment may outlive its batch, on any failure path."""

    @pytest.fixture()
    def compiled(self):
        return compile_design(load_benchmark("sb_mini_18", scale=0.2))

    def test_context_manager_closes_and_unlinks(self, compiled):
        before = _shm_entries()
        with SharedDesignPack(compiled) as pack:
            created = _shm_entries() - before
            assert len(created) == 1  # the segment exists while open
            assert pack.handle.shm_name.lstrip("/") in created
        assert _shm_entries() == before
        pack.close()  # idempotent after __exit__

    def test_init_failure_leaves_no_segment(self, compiled, monkeypatch):
        import repro.netlist.compiled as compiled_mod

        before = _shm_entries()

        def boom(*args, **kwargs):
            raise RuntimeError("injected frombuffer failure")

        monkeypatch.setattr(compiled_mod.np, "frombuffer", boom)
        with pytest.raises(RuntimeError, match="injected"):
            SharedDesignPack(compiled)
        assert _shm_entries() == before

    def test_failing_stage_does_not_leak_segments(self):
        """A worker raising mid-batch must not leak the shipped segments."""
        import repro.flow.presets as presets_mod

        class _BoomStage:
            name = "boom"

            def run(self, ctx):
                raise RuntimeError("injected stage failure")

        class _BoomConfig:
            seed = 0  # the batch runner always overrides the seed field

        presets_mod.register_preset(
            presets_mod.FlowPreset(
                name="__boom__",
                description="failing stage (lifecycle test)",
                config_factory=_BoomConfig,
                stage_factory=lambda config: [_BoomStage()],
            )
        )
        try:
            before = _shm_entries()
            jobs = [
                BatchJob(design="sb_mini_18", preset="__boom__", scale=0.2),
                BatchJob(design="sb_mini_4", preset="__boom__", scale=0.2),
            ]
            report = run_batch(jobs, max_workers=2, executor="thread", ship="shared")
            assert report.num_failed == 2
            assert "injected stage failure" in report.items[0].error
            assert _shm_entries() == before
        finally:
            del presets_mod._PRESETS["__boom__"]

    def test_payload_build_failure_closes_earlier_packs(self):
        """A benchmark failing to build mid-payload must close packs already
        created for earlier jobs."""
        before = _shm_entries()
        jobs = [
            BatchJob(design="sb_mini_18", preset="dreamplace", scale=0.2),
            BatchJob(design="__no_such_design__"),
        ]
        with pytest.raises(KeyError, match="Unknown benchmark"):
            run_batch(jobs, max_workers=2, ship="shared")
        assert _shm_entries() == before


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

    def test_shared_handle_payload_carries_corners(self):
        from repro.timing import resolve_corners

        design = load_benchmark("sb_mini_18", scale=0.2)
        design.corners = "fast,typ,slow"
        with SharedDesignPack(compile_design(design)) as pack:
            handle = pickle.loads(pickle.dumps(pack.handle))
            loaded = handle.load()
            try:
                assert loaded.compiled.corners == resolve_corners("fast,typ,slow")
                rebuilt = loaded.compiled.to_design()
                assert rebuilt.corners == resolve_corners("fast,typ,slow")
            finally:
                loaded.close()
