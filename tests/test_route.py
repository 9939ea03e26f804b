"""Routability subsystem: RUDY maps, inflation loop, flow integration.

Covers the PR 4 acceptance criteria:

* the vectorized RUDY map equals a naive per-net loop reference on random
  designs (hypothesis property);
* with routability disabled the existing presets are bit-identical to the
  recorded pre-PR-4 goldens (seed regression anchors);
* with routability enabled on the congestion-stressed design, peak overflow
  drops >= 30% versus the baseline flow at <= 2% HPWL cost.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import (
    CONGESTION_SUITE,
    CircuitSpec,
    available_design_names,
    generate_circuit,
    load_benchmark,
)
from repro.evaluation.evaluator import Evaluator
from repro.flow.presets import build_flow, build_stages, get_preset
from repro.flow.runner import FlowRunner
from repro.flow.stages import CongestionStage, EvaluateStage, RoutabilityRepairStage
from repro.placement.density import ElectrostaticDensity
from repro.placement.initial import initial_placement
from repro.route import (
    CellInflation,
    CongestionConfig,
    CongestionEstimator,
    InflationConfig,
    estimate_congestion,
    run_inflation_loop,
)
from repro.route.flow import add_routability

# SHA-256 of the final x then y positions of routability-gp on sb_cong_1 at
# scale 2, seed 0, recorded when the inflation loop still ran a second
# refine after an over-budget round (both refines were rejected).
_SB_CONG_1_X2_GP_DIGEST = "71f3b18284804b76f0b475eb6122ebe88eef1a78667701fa084dc9d05291434b"


# ----------------------------------------------------------------------
# Naive reference implementation (per-net Python loop)
# ----------------------------------------------------------------------
def naive_rudy(design, x, y, config: CongestionConfig):
    """Reference RUDY maps built one net (and one pin) at a time."""
    est = CongestionEstimator(design, config)  # reuse grid geometry only
    core = design.core
    die = core.die
    nbx, nby = est.num_bins_x, est.num_bins_y
    demand_h = np.zeros((nbx, nby))
    demand_v = np.zeros((nbx, nby))
    pin_density = np.zeros((nbx, nby))

    pin_x, pin_y = core.pin_positions(x, y)
    for e in range(core.num_nets):
        pins = core.net_pins(e)
        if pins.size < 2 or pins.size > config.max_net_degree:
            continue
        px, py = pin_x[pins], pin_y[pins]
        xmin, xmax = px.min(), px.max()
        ymin, ymax = py.min(), py.max()
        ix0 = int(np.clip(np.floor((xmin - die.xl) / est.bin_w), 0, nbx - 1))
        ix1 = int(np.clip(np.floor((xmax - die.xl) / est.bin_w), 0, nbx - 1))
        iy0 = int(np.clip(np.floor((ymin - die.yl) / est.bin_h), 0, nby - 1))
        iy1 = int(np.clip(np.floor((ymax - die.yl) / est.bin_h), 0, nby - 1))
        ix1, iy1 = max(ix1, ix0), max(iy1, iy0)
        ncov = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        w = core.net_weight[e]
        for i in range(ix0, ix1 + 1):
            for j in range(iy0, iy1 + 1):
                demand_h[i, j] += w * (xmax - xmin) / ncov
                demand_v[i, j] += w * (ymax - ymin) / ncov
    for p in range(core.num_pins):
        i = int(np.clip(np.floor((pin_x[p] - die.xl) / est.bin_w), 0, nbx - 1))
        j = int(np.clip(np.floor((pin_y[p] - die.yl) / est.bin_h), 0, nby - 1))
        pin_density[i, j] += 1.0
    if config.pin_wire_length > 0:
        demand_h += 0.5 * config.pin_wire_length * pin_density
        demand_v += 0.5 * config.pin_wire_length * pin_density
    return demand_h, demand_v, pin_density


class TestRudyMaps:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_cells=st.integers(min_value=40, max_value=160),
        bins=st.sampled_from([4, 8, 16]),
        pin_wire=st.sampled_from([0.0, 0.5, 2.0]),
    )
    def test_vectorized_map_matches_naive_reference(self, seed, num_cells, bins, pin_wire):
        """Acceptance: RUDY map == naive per-net loop on random designs."""
        spec = CircuitSpec(
            name="hyp", num_cells=num_cells, seed=seed % 1000,
            logic_depth=4, num_primary_inputs=6, num_primary_outputs=6,
        )
        design = generate_circuit(spec)
        rng = np.random.default_rng(seed)
        x, y = initial_placement(design, seed=seed % 97)
        x = x + rng.uniform(-20.0, 20.0, size=x.size)  # some pins off-die
        y = y + rng.uniform(-20.0, 20.0, size=y.size)
        config = CongestionConfig(
            num_bins_x=bins, num_bins_y=bins, pin_wire_length=pin_wire
        )
        result = CongestionEstimator(design, config).estimate(x, y)
        ref_h, ref_v, ref_pins = naive_rudy(design, x, y, config)
        np.testing.assert_allclose(result.demand_h, ref_h, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(result.demand_v, ref_v, rtol=1e-9, atol=1e-9)
        np.testing.assert_array_equal(result.pin_density, ref_pins)

    def test_grid_and_capacity_from_floorplan(self, small_design):
        config = CongestionConfig(num_bins_x=8, num_bins_y=4, tracks_per_row=6.0)
        est = CongestionEstimator(small_design, config)
        die = small_design.die
        assert est.num_bins_x == 8 and est.num_bins_y == 4
        assert est.bin_w == pytest.approx(die.width / 8)
        assert est.bin_h == pytest.approx(die.height / 4)
        pitch = small_design.core.row_height / 6.0
        assert est.capacity_h == pytest.approx(est.bin_w * est.bin_h / pitch)
        assert est.capacity_v == pytest.approx(est.capacity_h)

    def test_high_degree_nets_are_skipped(self, small_design):
        core = small_design.core
        counts = np.diff(core.net_pin_offsets)
        threshold = 16
        assert (counts > threshold).any()  # the clock net at least
        est = CongestionEstimator(
            small_design, CongestionConfig(max_net_degree=threshold)
        )
        active = set(est._active_ids.tolist())
        for net_id, degree in enumerate(counts):
            if degree > threshold or degree < 2:
                assert net_id not in active
            else:
                assert net_id in active

    def test_result_metrics_are_consistent(self, small_design):
        x, y = initial_placement(small_design, seed=1)
        result = estimate_congestion(small_design, x, y)
        assert result.ratio.shape == result.demand_h.shape
        assert result.peak_overflow == pytest.approx(
            max(result.ratio.max() - 1.0, 0.0)
        )
        assert result.num_hotspots == int((result.ratio > 1.0).sum())
        # ACE is monotone: a smaller fraction averages a worse subset.
        assert result.ace(0.005) >= result.ace(0.05) - 1e-12
        hotspots = result.hotspots(5)
        ratios = [h["ratio"] for h in hotspots]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[0] == pytest.approx(result.peak_ratio)
        summary = result.summary()
        for key in ("peak_overflow", "average_overflow", "hotspot_bins",
                    "weighted_congestion", "ace_1pct"):
            assert key in summary

    def test_total_pin_count_preserved(self, small_design):
        x, y = small_design.positions()
        result = estimate_congestion(small_design, x, y)
        assert int(result.pin_density.sum()) == small_design.num_pins


class TestCellInflation:
    def test_grows_hot_cells_and_decays_cool_ones(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        config = CongestionConfig(num_bins_x=4, num_bins_y=4)
        est = CongestionEstimator(design, config)
        result = est.estimate(x, y)
        infl = CellInflation(design, InflationConfig(max_step=1.5, max_total=2.0))
        infl.update(est, result, x, y)
        bx, by = est.cell_bins(x, y)
        ratio = result.ratio[bx, by]
        movable = design.core.movable_mask
        hot = movable & (ratio > 1.0)
        if hot.any():
            assert (infl.scale[hot] > 1.0).all()
            assert infl.scale.max() <= 2.0 + 1e-12
        assert (infl.scale[~movable] == 1.0).all()
        # Decay: once congestion clears, factors relax toward 1.
        cleared = est.estimate(x, y)
        cleared._ratio = np.zeros_like(result.ratio)
        before = infl.scale.copy()
        infl.update(est, cleared, x, y)
        assert (infl.scale <= before + 1e-12).all()
        for _ in range(60):
            infl.update(est, cleared, x, y)
        assert infl.scale.max() == pytest.approx(1.0, abs=1e-3)

    def test_loop_is_noop_below_target(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        est = CongestionEstimator(design)
        peak = est.estimate(x, y).peak_overflow

        calls = []

        def place_fn(x0, y0, scale):
            calls.append(scale.copy())
            return x0, y0

        outcome = run_inflation_loop(
            design, place_fn, x, y,
            estimator=est,
            config=InflationConfig(overflow_target=peak + 1.0),
        )
        assert not calls
        assert outcome.converged
        np.testing.assert_array_equal(outcome.x, x)
        np.testing.assert_array_equal(outcome.y, y)

    def test_loop_rejects_hpwl_regressions(self, fresh_small_design):
        """A place_fn that scatters cells must never be accepted."""
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        est = CongestionEstimator(design)
        rng = np.random.default_rng(0)
        die = design.die

        def bad_place_fn(x0, y0, scale):
            return (
                rng.uniform(die.xl, die.xh, size=x0.size),
                rng.uniform(die.yl, die.yh, size=y0.size),
            )

        outcome = run_inflation_loop(
            design, bad_place_fn, x, y,
            estimator=est,
            config=InflationConfig(overflow_target=0.0, max_rounds=2),
        )
        np.testing.assert_array_equal(outcome.x, x)
        np.testing.assert_array_equal(outcome.y, y)
        assert outcome.accepted_round == 0

    def test_over_budget_round_ends_loop(self, fresh_small_design):
        """A rejected over-budget round is the last one: the next round
        could only warm-start from the scattered placement."""
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        est = CongestionEstimator(design)
        rng = np.random.default_rng(0)
        die = design.die
        calls = []

        def scatter_place_fn(x0, y0, scale):
            calls.append(scale.copy())
            return (
                rng.uniform(die.xl, die.xh, size=x0.size),
                rng.uniform(die.yl, die.yh, size=y0.size),
            )

        config = InflationConfig(overflow_target=0.0, max_rounds=3)
        outcome = run_inflation_loop(
            design, scatter_place_fn, x, y, estimator=est, config=config
        )
        assert len(calls) == 1
        assert [r.round for r in outcome.rounds] == [0, 1]
        budget = outcome.rounds[0].hpwl * (1.0 + config.max_hpwl_growth)
        assert outcome.rounds[1].hpwl > budget
        assert not outcome.rounds[1].accepted
        assert outcome.stop_reason == "over_budget"
        assert outcome.as_dict()["stop_reason"] == "over_budget"
        assert not outcome.converged
        np.testing.assert_array_equal(outcome.x, x)
        np.testing.assert_array_equal(outcome.y, y)

    def test_stalled_round_within_budget_gets_second_round(self, fresh_small_design):
        """The over-budget exit is narrow: a round that stays within budget
        but does not improve still gets the stall rule's second round."""
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        est = CongestionEstimator(design)
        calls = []

        def idle_place_fn(x0, y0, scale):
            calls.append(scale.copy())
            return x0.copy(), y0.copy()

        outcome = run_inflation_loop(
            design, idle_place_fn, x, y,
            estimator=est,
            config=InflationConfig(overflow_target=0.0, max_rounds=3),
        )
        assert len(calls) == 2
        assert [r.round for r in outcome.rounds] == [0, 1, 2]
        assert outcome.stop_reason == "stalled"
        assert outcome.accepted_round == 0

    def test_stop_reason_names_the_exit(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        est = CongestionEstimator(design)
        peak = est.estimate(x, y).peak_overflow

        def idle_place_fn(x0, y0, scale):
            return x0.copy(), y0.copy()

        def run(**config):
            return run_inflation_loop(
                design, idle_place_fn, x, y,
                estimator=est, config=InflationConfig(**config),
            ).stop_reason

        assert run(overflow_target=peak + 1.0) == "converged"
        assert run(overflow_target=0.0, max_rounds=1) == "max_rounds"
        assert run(overflow_target=0.0, max_rounds=0) == "max_rounds"
        # Huge min_improvement keeps every round "unimproved": stall at 2.
        assert run(overflow_target=0.0, min_improvement=1e9) == "stalled"


class TestInflationConfigValidation:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_hpwl_growth", float("nan"), "max_hpwl_growth must be finite and non-negative, got nan"),
            ("overflow_target", float("nan"), "overflow_target must be finite and non-negative, got nan"),
            ("overflow_target", -1.0, "overflow_target must be finite and non-negative, got -1.0"),
            ("min_improvement", float("nan"), "min_improvement must be finite and non-negative, got nan"),
            ("min_improvement", -0.5, "min_improvement must be finite and non-negative, got -0.5"),
            ("gamma", -1.0, "gamma must be finite and positive, got -1.0"),
            ("gamma", float("nan"), "gamma must be finite and positive, got nan"),
            ("max_total", float("inf"), "max_total must be finite and at least 1, got inf"),
            ("max_step", float("inf"), "max_step must be finite and at least 1, got inf"),
        ],
    )
    def test_rejects_bad_value(self, field, value, message):
        with pytest.raises(ValueError) as exc:
            InflationConfig(**{field: value}).validate()
        assert str(exc.value) == message

    def test_defaults_and_edges_pass(self):
        InflationConfig().validate()
        InflationConfig(
            overflow_target=0.0, min_improvement=0.0, max_hpwl_growth=0.0,
            max_step=1.0, max_total=1.0,
        ).validate()

    def test_cli_rejects_nan_budget(self):
        from repro.flow.cli import main

        # A string SystemExit code is printed and exits with status 1.
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "sb_cong_1", "--preset", "routability", "--scale", "0.3",
                "--set", "max_iterations=60", "--set", "refine_iterations=30",
                "--set", "max_hpwl_growth=nan",
            ])
        assert exc.value.code == (
            "repro run: max_hpwl_growth must be finite and non-negative, got nan"
        )


class TestDensityAreaScale:
    def test_unit_scale_is_bit_identical(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        base = ElectrostaticDensity(design)
        ref = base.evaluate(x, y)
        scaled = ElectrostaticDensity(design)
        scaled.set_area_scale(np.ones(design.num_instances))
        got = scaled.evaluate(x, y)
        np.testing.assert_array_equal(got.grad_x, ref.grad_x)
        assert got.overflow == ref.overflow

    def test_inflation_increases_seen_area(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        density = ElectrostaticDensity(design)
        base_total = density._total_movable_area
        scale = np.full(design.num_instances, 2.0)
        density.set_area_scale(scale)
        assert density._total_movable_area == pytest.approx(2.0 * base_total)
        density.set_area_scale(None)
        assert density._total_movable_area == pytest.approx(base_total)

    def test_bad_scale_rejected(self, fresh_small_design):
        density = ElectrostaticDensity(fresh_small_design)
        with pytest.raises(ValueError):
            density.set_area_scale(np.ones(3))
        with pytest.raises(ValueError):
            density.set_area_scale(np.zeros(fresh_small_design.num_instances))


class TestFlowIntegration:
    def test_stages_registered(self):
        # The stage names key ``stage_seconds`` and the ``stage.<name>`` spans.
        assert CongestionStage().name == "congestion"
        assert RoutabilityRepairStage().name == "routability_repair"

    def test_routability_preset_shape(self):
        stages = build_stages("routability", max_iterations=40)
        names = [s.name for s in stages]
        assert names == [
            "global_place",
            "routability_repair",
            "legalize",
            "congestion",
            "evaluate",
        ]
        assert get_preset("routability").description

    def test_repair_stage_requires_placement(self, fresh_small_design):
        runner = FlowRunner([RoutabilityRepairStage()])
        with pytest.raises(ValueError, match="after global_place"):
            runner.run(fresh_small_design)

    def test_congestion_stage_publishes_result(self, fresh_small_design):
        runner = build_flow("routability", max_iterations=40, refine_iterations=20)
        result = runner.run(fresh_small_design, seed=0)
        ctx = result.context
        assert ctx.congestion is not None
        assert "congestion" in ctx.metadata
        assert "routability_repair" in ctx.metadata
        assert "hotspots" in ctx.metadata["congestion"]
        ev = result.evaluation
        assert ev.congestion_peak_overflow is not None
        assert ev.congestion_peak_overflow == pytest.approx(
            ctx.congestion.peak_overflow
        )
        assert "congestion_peak_overflow" in ev.as_dict()
        assert "congestion_peak_overflow" in result.summary()

    def test_evaluator_congestion_opt_in(self, fresh_small_design):
        plain = Evaluator(fresh_small_design).evaluate()
        assert plain.congestion_peak_overflow is None
        assert "congestion_peak_overflow" not in plain.as_dict()
        scored = Evaluator(
            fresh_small_design, congestion=CongestionConfig()
        ).evaluate()
        assert scored.congestion_peak_overflow is not None
        assert scored.hpwl == plain.hpwl
        assert scored.tns == plain.tns

    def test_add_routability_retrofit(self):
        stages = build_stages("dreamplace", max_iterations=40)
        out = add_routability(stages)
        names = [s.name for s in out]
        assert "routability_repair" in names
        assert "congestion" in names
        assert names.index("routability_repair") == names.index("global_place") + 1
        assert names.index("congestion") == names.index("legalize") + 1
        evaluate = next(s for s in out if isinstance(s, EvaluateStage))
        assert evaluate.congestion is True

    def test_add_routability_requires_global_place(self):
        with pytest.raises(ValueError, match="global_place"):
            add_routability([EvaluateStage()])

    def test_add_routability_does_not_mutate_original_stages(self):
        stages = build_stages("dreamplace", max_iterations=40)
        add_routability(stages)
        original_evaluate = next(s for s in stages if isinstance(s, EvaluateStage))
        assert original_evaluate.congestion is False
        assert not any(s.name == "routability_repair" for s in stages)

    def test_explicit_inflation_subconfig_is_honored(self):
        from repro.route.flow import RoutabilityConfig

        config = RoutabilityConfig(
            inflation=InflationConfig(max_rounds=7, overflow_target=0.5)
        )
        merged = config.inflation_config()
        assert merged.max_rounds == 7
        assert merged.overflow_target == 0.5
        # Flat fields, when set, win over the sub-config (CLI --set path).
        config = RoutabilityConfig(
            inflation=InflationConfig(max_rounds=7), inflation_rounds=2
        )
        assert config.inflation_config().max_rounds == 2

    def test_inflation_config_rejects_sub_unit_max_step(self):
        with pytest.raises(ValueError, match="max_step"):
            InflationConfig(max_step=0.9).validate()


class TestCongestionStressedDesign:
    def test_registered_and_loadable(self):
        assert "sb_cong_1" in CONGESTION_SUITE
        assert "sb_cong_1" in available_design_names()
        design = load_benchmark("sb_cong_1", scale=0.5)
        assert design.name == "sb_cong_1"
        die = design.die
        assert die.width > 2.0 * die.height  # the narrow channel

    def test_design_actually_overflows(self):
        """The stress knobs must produce real overflow after placement —
        otherwise routability tests exercise nothing."""
        design = load_benchmark("sb_cong_1")
        result = build_flow("dreamplace", max_iterations=300).run(design, seed=0)
        congestion = estimate_congestion(design, result.x, result.y)
        assert congestion.peak_overflow > 0.3
        assert congestion.num_hotspots >= 5

    def test_acceptance_overflow_drop_at_bounded_hpwl_cost(self):
        """Acceptance: >= 30% peak-overflow drop at <= 2% HPWL cost versus
        the baseline wirelength/density flow on the stressed design."""
        baseline_design = load_benchmark("sb_cong_1")
        baseline = build_flow("dreamplace", max_iterations=300).run(
            baseline_design, seed=0
        )
        base_congestion = estimate_congestion(
            baseline_design, baseline.x, baseline.y
        )
        routed_design = load_benchmark("sb_cong_1")
        routed = build_flow("routability", max_iterations=300).run(
            routed_design, seed=0
        )
        peak = routed.evaluation.congestion_peak_overflow
        assert peak <= 0.7 * base_congestion.peak_overflow
        assert routed.evaluation.hpwl <= 1.02 * baseline.evaluation.hpwl

    def test_over_budget_refine_ends_repair(self):
        """routability-gp on sb_cong_1 x2: the first refine breaks the HPWL
        budget, so the loop stops after it.  The final positions match the
        digest recorded while the loop still ran a second refine, which was
        rejected as well."""
        design = load_benchmark("sb_cong_1", scale=2.0)
        result = build_flow("routability-gp", seed=0).run(design)
        repair = result.context.metadata["routability_repair"]
        assert [r["round"] for r in repair["rounds"]] == [0, 1]
        assert repair["stop_reason"] == "over_budget"
        assert repair["accepted_round"] == 0
        assert result.summary()["inflation_stop"] == "over_budget"
        digest = hashlib.sha256(result.x.tobytes() + result.y.tobytes()).hexdigest()
        assert digest == _SB_CONG_1_X2_GP_DIGEST
