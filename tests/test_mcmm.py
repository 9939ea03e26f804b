"""Multi-corner/multi-mode STA: corner resolution, single-corner bitwise
parity, merged-metric semantics, corner swaps, flow threading,
and the hypothesis property that merged slack equals the element-wise min
over independently-run single-corner engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import CircuitSpec, generate_circuit, load_benchmark
from repro.flow.presets import build_flow, preset_names
from repro.obs import start_tracing, stop_tracing
from repro.timing import (
    CORNER_PRESETS,
    Corner,
    MultiCornerResult,
    MultiCornerSTA,
    STAEngine,
    TimingConstraints,
    corner_preset,
    resolve_corners,
)

_RESULT_FIELDS = ("arrival", "required", "slack", "arc_delay", "net_load", "endpoint_slack")


def _assert_corner_matches_engine(mc_result, index, engine_result):
    view = mc_result.corner_result(index)
    for name in _RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(view, name), getattr(engine_result, name), err_msg=name
        )
    assert view.wns == engine_result.wns
    assert view.tns == engine_result.tns


def _perturb(design, rng, x, y, max_cells=40, sigma=25.0):
    movable = design.arrays.movable_index
    k = int(rng.integers(1, min(max_cells, movable.size)))
    idx = rng.choice(movable, size=k, replace=False)
    x[idx] += rng.normal(0.0, sigma, size=k)
    y[idx] += rng.normal(0.0, sigma, size=k)


class TestCornerResolution:
    def test_presets_validate(self):
        for name, corner in CORNER_PRESETS.items():
            corner.validate()
            assert corner.name == name

    def test_string_spec(self):
        corners = resolve_corners("fast,typ,slow")
        assert [c.name for c in corners] == ["fast", "typ", "slow"]
        assert resolve_corners("slow") == (CORNER_PRESETS["slow"],)

    def test_none_is_single_identity_corner(self):
        (corner,) = resolve_corners(None)
        assert corner.is_identity

    def test_mixed_sequence(self):
        custom = Corner("hot", wire_rc_scale=1.3, cell_derate=1.2)
        corners = resolve_corners(["typ", custom])
        assert corners == (CORNER_PRESETS["typ"], custom)

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="bogus"):
            resolve_corners("bogus")
        with pytest.raises(KeyError, match="available"):
            corner_preset("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="Duplicate"):
            resolve_corners("typ,typ")

    def test_invalid_corner_rejected(self):
        with pytest.raises(ValueError, match="wire_rc_scale"):
            resolve_corners(Corner("bad", wire_rc_scale=0.0))


class TestSingleCornerBitwiseParity:
    """A single identity corner must reproduce STAEngine bit for bit."""

    def test_identity_corner_full(self, fresh_small_design):
        design = fresh_small_design
        reference = STAEngine(design).update_timing()
        result = MultiCornerSTA(design).update_timing()
        assert result.num_corners == 1
        _assert_corner_matches_engine(result, 0, reference)
        assert result.wns == reference.wns
        assert result.tns == reference.tns
        # The merged view of one corner is that corner.
        np.testing.assert_array_equal(result.merged.slack, reference.slack)

    def test_derated_corner_matches_corner_engine(self, fresh_small_design):
        """A one-corner engine is the reference for each stacked lane,
        including physical derates: stacking neighbours changes no bit."""
        design = fresh_small_design
        corner = Corner("hot", wire_rc_scale=1.2, cell_derate=1.15)
        reference = MultiCornerSTA(design, corner).update_timing().corner_result(0)
        result = MultiCornerSTA(design, ("fast", corner, "slow")).update_timing()
        _assert_corner_matches_engine(result, 1, reference)


class TestMultiCornerSemantics:
    @pytest.fixture(scope="class")
    def design(self):
        return load_benchmark("sb_mini_18", scale=0.3)

    @pytest.fixture(scope="class")
    def corners(self):
        return resolve_corners("fast,typ,slow")

    @pytest.fixture(scope="class")
    def result(self, design, corners):
        return MultiCornerSTA(design, corners).update_timing()

    def test_stacked_shapes(self, design, corners, result):
        num_pins = design.num_pins
        assert result.arrival.shape == (len(corners), num_pins)
        assert result.slack.shape == (len(corners), num_pins)
        assert result.endpoint_slack.shape[0] == len(corners)

    def test_every_corner_matches_standalone_engine(self, design, corners, result):
        for index, corner in enumerate(corners):
            reference = MultiCornerSTA(design, corner).update_timing().corner_result(0)
            _assert_corner_matches_engine(result, index, reference)

    def test_merged_slack_is_elementwise_min(self, result):
        np.testing.assert_array_equal(result.merged_slack, result.slack.min(axis=0))
        np.testing.assert_array_equal(
            result.merged_endpoint_slack, result.endpoint_slack.min(axis=0)
        )

    def test_merged_wns_tns_from_merged_endpoint_slack(self, result):
        merged = result.merged_endpoint_slack
        negative = merged[merged < 0]
        expected_wns = float(negative.min()) if negative.size else 0.0
        expected_tns = float(negative.sum()) if negative.size else 0.0
        assert result.wns == expected_wns
        assert result.tns == expected_tns
        # Merged WNS is the worst corner's WNS.
        assert result.wns == float(result.corner_wns.min())

    def test_per_corner_summary_keys(self, corners, result):
        summary = result.per_corner_summary()
        assert list(summary) == [c.name for c in corners]
        for row in summary.values():
            assert set(row) == {"wns", "tns", "failing_endpoints"}

    def test_corner_view_supports_path_extraction(self, design, corners):
        from repro.timing import report_timing_endpoint

        engine = MultiCornerSTA(design, corners)
        result = engine.update_timing()
        slow = next(i for i, c in enumerate(corners) if c.name == "slow")
        view = engine.corner_view(slow)
        paths, stats = report_timing_endpoint(
            view, 4, 1, result=result.corner_result(slow)
        )
        reference_engine = MultiCornerSTA(design, corners[slow]).corner_view(0)
        ref_paths, _ = report_timing_endpoint(
            reference_engine, 4, 1, result=reference_engine.update_timing()
        )
        assert [p.pins for p in paths] == [p.pins for p in ref_paths]
        assert [p.slack for p in paths] == [p.slack for p in ref_paths]

    def test_mode_specific_constraints(self, design):
        tight = TimingConstraints.from_design(design)
        tight.clock_period *= 0.5
        corners = (
            Corner("func", constraints=None),
            Corner("scan", constraints=tight),
        )
        result = MultiCornerSTA(design, corners).update_timing()
        reference = STAEngine(design, tight).update_timing()
        _assert_corner_matches_engine(result, 1, reference)
        # The tighter mode can only be equal or worse.
        assert result.corner_wns[1] <= result.corner_wns[0]


def test_multi_corner_update_opens_one_sta_span(fresh_small_design):
    """Both engines go through the one traced update: a three-corner pass
    shows up as exactly one ``sta.update_timing`` span."""
    engine = MultiCornerSTA(fresh_small_design, "fast,typ,slow")
    tracer = start_tracing()
    try:
        engine.update_timing()
    finally:
        stop_tracing()
    names = [record.name for record in tracer.records()]
    assert names.count("sta.update_timing") == 1


class TestCornerSwap:
    def test_set_corners_matches_fresh_engine(self, fresh_small_design):
        """Swapping corners mid-session must reseed everything: results after
        the swap are bitwise those of a fresh engine (mirrors the STAEngine
        set_constraints contract)."""
        design = fresh_small_design
        engine = MultiCornerSTA(design, "typ")
        rng = np.random.default_rng(31)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        engine.update_timing(x, y)
        _perturb(design, rng, x, y)
        engine.update_timing(x, y)

        engine.set_corners("fast,slow")
        assert [c.name for c in engine.corners] == ["fast", "slow"]
        assert engine.last_result is None
        result = engine.update_timing(x, y)
        fresh = MultiCornerSTA(design, "fast,slow").update_timing(x, y)
        for name in _RESULT_FIELDS:
            np.testing.assert_array_equal(
                getattr(result, name), getattr(fresh, name), err_msg=name
            )

    def test_corners_and_constraints_are_read_only(self, fresh_small_design):
        """Direct rebinding would leave the stacked caches silently stale, so
        both attributes reject assignment (use set_corners)."""
        engine = MultiCornerSTA(fresh_small_design, "typ")
        with pytest.raises(AttributeError):
            engine.corners = resolve_corners("fast,slow")
        with pytest.raises(AttributeError):
            engine.constraints = ()


# ----------------------------------------------------------------------
# Property-based: merged slack == min over independent single-corner runs
# ----------------------------------------------------------------------
_PROPERTY_DESIGN = None


def _property_design():
    """One small design shared by all hypothesis examples (read-only use)."""
    global _PROPERTY_DESIGN
    if _PROPERTY_DESIGN is None:
        _PROPERTY_DESIGN = generate_circuit(
            CircuitSpec(
                name="mcmm_prop",
                num_cells=160,
                sequential_fraction=0.25,
                logic_depth=5,
                num_primary_inputs=6,
                num_primary_outputs=6,
                utilization=0.6,
                clock_tightness=0.85,
                seed=29,
            )
        )
    return _PROPERTY_DESIGN


@st.composite
def _corner_list(draw):
    derates = st.floats(min_value=0.6, max_value=1.5, allow_nan=False, allow_infinity=False)
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        Corner(f"c{i}", wire_rc_scale=draw(derates), cell_derate=draw(derates))
        for i in range(count)
    ]


@settings(max_examples=12, deadline=None)
@given(
    corners=_corner_list(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_merged_slack_equals_min_over_single_corner_engines(corners, seed):
    """Across random corner derates, the stacked engine's merged slack must
    equal the element-wise minimum over independently-run single-corner
    engines (bitwise — every corner lane is exact, and min is
    order-insensitive)."""
    design = _property_design()
    engine = MultiCornerSTA(design, tuple(corners))
    singles = [MultiCornerSTA(design, c) for c in corners]
    rng = np.random.default_rng(seed)
    x, y = design.positions()
    x, y = x.copy(), y.copy()
    for _ in range(2):
        _perturb(design, rng, x, y, max_cells=20)
        stacked = engine.update_timing(x, y)
        independent = [s.update_timing(x, y).corner_result(0) for s in singles]
        expected_min = np.stack([r.slack for r in independent]).min(axis=0)
        np.testing.assert_array_equal(stacked.merged_slack, expected_min)
        expected_endpoint = np.stack([r.endpoint_slack for r in independent]).min(axis=0)
        np.testing.assert_array_equal(stacked.merged_endpoint_slack, expected_endpoint)
        for index, r in enumerate(independent):
            np.testing.assert_array_equal(stacked.corner_result(index).slack, r.slack)


# ----------------------------------------------------------------------
# Flow threading
# ----------------------------------------------------------------------
_FAST = dict(
    max_iterations=50,
    timing_start_iteration=20,
    min_timing_iterations=10,
    timing_update_interval=10,
)


def _fast_overrides(preset):
    if preset == "dreamplace":
        return {"max_iterations": 50}
    if preset == "routability":
        return {"max_iterations": 50, "refine_iterations": 30}
    if preset == "routability-gp":
        # Shrunk feedback cadences so both weightings fire within 50 iters.
        return {
            "max_iterations": 50, "refine_iterations": 30,
            "congestion_start": 20, "congestion_interval": 10,
            "timing_start": 25, "timing_interval": 10,
        }
    return dict(_FAST)


class TestFlowThreading:
    @pytest.mark.parametrize("preset", preset_names())
    def test_typ_corner_bit_identical_to_single_corner(self, preset):
        """Acceptance: corners='typ' must not change any preset's output."""
        base_design = load_benchmark("sb_mini_18", scale=0.25)
        base = build_flow(preset, **_fast_overrides(preset)).run(base_design)
        typ_design = load_benchmark("sb_mini_18", scale=0.25)
        typ = build_flow(preset, corners="typ", **_fast_overrides(preset)).run(typ_design)
        np.testing.assert_array_equal(base.x, typ.x)
        np.testing.assert_array_equal(base.y, typ.y)
        assert base.evaluation.tns == typ.evaluation.tns
        assert base.evaluation.wns == typ.evaluation.wns
        assert typ.evaluation.per_corner is not None

    def test_three_corner_flow_reports_per_corner(self):
        design = load_benchmark("sb_mini_18", scale=0.25)
        result = build_flow(
            "efficient_tdp", corners="fast,typ,slow", **_FAST
        ).run(design)
        ctx = result.context
        assert isinstance(ctx.sta, MultiCornerSTA)
        assert isinstance(ctx.sta.last_result, MultiCornerResult)
        report = result.evaluation
        assert set(report.per_corner) == {"fast", "typ", "slow"}
        # Headline metrics are the merged (worst-over-corner) values.
        assert report.wns == pytest.approx(
            min(row["wns"] for row in report.per_corner.values())
        )
        summary = result.summary()
        assert summary["corners"] == ["fast", "typ", "slow"]

    def test_runner_corners_argument_overrides(self):
        design = load_benchmark("sb_mini_18", scale=0.25)
        runner = build_flow("dreamplace", max_iterations=40)
        result = runner.run(design, corners="fast,slow")
        assert set(result.evaluation.per_corner) == {"fast", "slow"}

    def test_design_carried_corners_are_picked_up(self):
        design = load_benchmark("sb_mini_18", scale=0.25)
        design.corners = "fast,slow"
        result = build_flow("dreamplace", max_iterations=40).run(design)
        assert set(result.evaluation.per_corner) == {"fast", "slow"}

    def test_evaluator_merged_metrics_match_engines(self):
        from repro.evaluation.evaluator import evaluate_placement

        design = load_benchmark("sb_mini_18", scale=0.3)
        corners = resolve_corners("fast,typ,slow")
        report = evaluate_placement(design, corners=corners)
        single_reports = [
            MultiCornerSTA(design, c).update_timing().corner_result(0) for c in corners
        ]
        merged_endpoint = np.stack(
            [r.endpoint_slack for r in single_reports]
        ).min(axis=0)
        negative = merged_endpoint[merged_endpoint < 0]
        assert report.wns == (float(negative.min()) if negative.size else 0.0)
        assert report.tns == (float(negative.sum()) if negative.size else 0.0)
