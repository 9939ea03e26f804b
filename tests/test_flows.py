"""Integration tests: the full Efficient-TDP flow, baselines, and weighting schemes."""

import numpy as np
import pytest

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core import ExtractionConfig
from repro.feedback.timing import (
    MomentumNetWeighting,
    net_worst_slack,
    pin_criticality,
    smooth_pin_pair_weights,
)
from repro.flow import build_flow
from repro.timing import STAEngine


@pytest.fixture(scope="module")
def flow_spec():
    return CircuitSpec(
        name="flow_small",
        num_cells=260,
        sequential_fraction=0.2,
        logic_depth=7,
        num_primary_inputs=10,
        num_primary_outputs=10,
        utilization=0.62,
        clock_tightness=0.75,
        seed=11,
    )


def make_design(spec):
    return generate_circuit(spec)


FAST_SCHEDULE = dict(
    max_iterations=220,
    timing_start_iteration=90,
    min_timing_iterations=60,
    timing_update_interval=10,
)


@pytest.fixture(scope="module")
def baseline_result(flow_spec):
    return build_flow("dreamplace", max_iterations=220, seed=0).run(make_design(flow_spec))


@pytest.fixture(scope="module")
def ours_result(flow_spec):
    return build_flow("efficient_tdp", **FAST_SCHEDULE).run(make_design(flow_spec))


class TestWeightingSchemes:
    def test_net_worst_slack_shape(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        worst = net_worst_slack(fresh_small_design, result)
        assert worst.shape == (fresh_small_design.num_nets,)

    def test_momentum_weighting_increases_critical_weights(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        weighting = MomentumNetWeighting()
        weights = np.ones(fresh_small_design.num_nets)
        updated = weighting.next_weights(fresh_small_design, result, weights)
        assert np.all(updated >= weights - 1e-12)
        assert updated.max() > 1.0
        assert updated.max() <= weighting.max_weight

    def test_momentum_weighting_ignores_clean_nets(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        worst = net_worst_slack(fresh_small_design, result)
        weighting = MomentumNetWeighting()
        weights = np.ones(fresh_small_design.num_nets)
        updated = weighting.next_weights(fresh_small_design, result, weights)
        clean = np.isfinite(worst) & (worst >= 0)
        assert np.allclose(updated[clean], 1.0)

    def test_pin_criticality_range(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        crit = pin_criticality(result)
        assert np.all(crit >= 0) and np.all(crit <= 1)

    def test_smooth_pin_pair_weights_only_net_arcs(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        weights = smooth_pin_pair_weights(fresh_small_design, engine.graph, result)
        assert weights
        net_arc_pairs = {
            (a.from_pin, a.to_pin) for a in engine.graph.arcs if a.is_net_arc
        }
        assert set(weights) <= net_arc_pairs


class TestEfficientTDPFlow:
    def test_produces_legal_evaluated_placement(self, ours_result):
        evaluation = ours_result.evaluation
        assert evaluation.overlap_area == pytest.approx(0.0, abs=1e-6)
        assert evaluation.out_of_die_cells == 0
        assert len(ours_result.context.pin_pairs) > 0
        assert ours_result.context.extraction_stats, "timing iterations never ran"

    def test_improves_tns_over_wirelength_baseline(self, ours_result, baseline_result):
        assert ours_result.evaluation.tns >= baseline_result.evaluation.tns

    def test_hpwl_not_destroyed(self, ours_result, baseline_result):
        assert ours_result.evaluation.hpwl <= 1.15 * baseline_result.evaluation.hpwl

    def test_history_records_timing_trajectory(self, ours_result):
        assert "tns" in ours_result.history.extra
        assert "wns" in ours_result.history.extra
        assert len(ours_result.history.extra["tns"]) >= 2

    def test_profiler_has_timing_sections(self, ours_result):
        breakdown = ours_result.breakdown()
        assert breakdown.get("timing_analysis", 0) > 0
        assert breakdown.get("weighting", 0) >= 0
        assert breakdown.get("legalization", 0) > 0

    def test_summary_keys(self, ours_result):
        summary = ours_result.summary()
        assert {"design", "hpwl", "tns", "wns", "runtime_sec", "pin_pairs"} <= set(summary)

    def test_literal_beta_mode(self, flow_spec):
        result = build_flow(
            "efficient_tdp", beta_mode="literal", beta=1e-4, **FAST_SCHEDULE
        ).run(make_design(flow_spec))
        assert result.evaluation.hpwl > 0

    def test_report_timing_extraction_mode_runs(self, flow_spec):
        result = build_flow(
            "efficient_tdp",
            extraction=ExtractionConfig(mode="report_timing", max_endpoints=20),
            **FAST_SCHEDULE,
        ).run(make_design(flow_spec))
        assert result.evaluation.hpwl > 0

    def test_linear_loss_ablation_runs(self, flow_spec):
        result = build_flow("efficient_tdp", loss="linear", **FAST_SCHEDULE).run(
            make_design(flow_spec)
        )
        assert result.evaluation.tns <= 0


class TestBaselines:
    def test_dreamplace4_improves_tns(self, flow_spec, baseline_result):
        result = build_flow("dreamplace4", **FAST_SCHEDULE).run(make_design(flow_spec))
        assert result.evaluation.tns >= baseline_result.evaluation.tns
        assert result.evaluation.overlap_area == pytest.approx(0.0, abs=1e-6)

    def test_differentiable_tdp_runs_and_is_legal(self, flow_spec):
        result = build_flow("differentiable_tdp", **FAST_SCHEDULE).run(
            make_design(flow_spec)
        )
        assert result.evaluation.overlap_area == pytest.approx(0.0, abs=1e-6)
        assert "tns" in result.history.extra

    def test_wirelength_baseline_does_less_work(self, baseline_result, ours_result):
        # The wirelength-only flow runs no timing analysis in the loop: its
        # one STA pass is the final evaluation's, and it extracts no paths.
        # (Wall-clock is too noisy to assert directly at this design size.)
        baseline = baseline_result.context.metadata["trace_metrics"]["spans"]
        ours = ours_result.context.metadata["trace_metrics"]["spans"]
        assert baseline["timing.sta"]["count"] == 1
        assert "core.extract" not in baseline
        assert ours["timing.sta"]["count"] > 1
        assert ours_result.breakdown()["timing_analysis"] > 0.0

    def test_baseline_records_timing_when_asked(self, flow_spec):
        flow = build_flow("dreamplace", max_iterations=120, seed=0, record_timing_every=40)
        result = flow.run(make_design(flow_spec))
        assert "tns" in result.history.extra
