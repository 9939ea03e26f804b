"""The unified placement-feedback architecture (PR 5).

Covers:

* :class:`FeedbackCadence` warmup / every-K / cooldown boundary iterations;
* :class:`WeightComposer` semantics, including the hypothesis property:
  composed weights are always within ``[1, max_weight]``, and with a
  zero-overflow congestion map the composition reduces to the pure-timing
  weights;
* :class:`FeedbackScheduler` dispatch inside a real ``GlobalPlacer`` run
  (cadenced firing, proposal caching across interleaved cadences,
  per-feedback runtime accounting);
* ``GlobalPlacer.set_net_weights`` input validation (satellite);
* :class:`CongestionNetWeighting` SAT scoring against a naive per-net loop;
* the ``routability-gp`` preset shape, trajectory/report plumbing, and the
  acceptance experiment on ``sb_cong_1``: in-loop congestion weighting +
  inflation beats inflation-alone on peak overflow at <= 2% legalized HPWL
  cost.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import load_benchmark
from repro.feedback import (
    CongestionNetWeighting,
    FeedbackCadence,
    FeedbackUpdate,
    PlacementFeedback,
    TimingCriticalityWeighting,
    WeightComposer,
    WeightComposerConfig,
)
from repro.flow.presets import build_flow, build_stages, get_preset
from repro.flow.runner import FlowRunner
from repro.flow.stage import create_stage
from repro.flow.stages import FeedbackWeightStage
from repro.obs import run_tracer
from repro.placement.global_placer import GlobalPlacer, PlacementConfig
from repro.placement.initial import initial_placement
from repro.route import CongestionConfig, CongestionEstimator


# ----------------------------------------------------------------------
# Cadence
# ----------------------------------------------------------------------
class TestFeedbackCadence:
    def test_warmup_boundary(self):
        cadence = FeedbackCadence(start=10, interval=1)
        assert not cadence.fires(9)
        assert cadence.fires(10)
        assert cadence.fires(11)

    def test_every_k(self):
        cadence = FeedbackCadence(start=10, interval=5)
        fired = [i for i in range(30) if cadence.fires(i)]
        assert fired == [10, 15, 20, 25]

    def test_cooldown_boundary_inclusive(self):
        cadence = FeedbackCadence(start=0, interval=2, end=6)
        fired = [i for i in range(12) if cadence.fires(i)]
        assert fired == [0, 2, 4, 6]

    def test_default_fires_every_iteration(self):
        cadence = FeedbackCadence()
        assert all(cadence.fires(i) for i in range(5))

    def test_matches_legacy_timing_schedule(self):
        """The cadence reproduces the old callback guard bit for bit."""
        start, interval = 150, 15
        cadence = FeedbackCadence(start=start, interval=interval)
        for i in range(1, 400):
            legacy = i >= start and (i - start) % interval == 0
            assert cadence.fires(i) == legacy

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedbackCadence(start=-1)
        with pytest.raises(ValueError):
            FeedbackCadence(interval=0)
        with pytest.raises(ValueError):
            FeedbackCadence(start=10, end=9)


# ----------------------------------------------------------------------
# Composer
# ----------------------------------------------------------------------
class TestWeightComposer:
    def test_single_proposal_momentum(self):
        composer = WeightComposer(
            config=WeightComposerConfig(momentum_decay=0.5, max_weight=10.0)
        )
        proposal = np.array([1.0, 2.0, 4.0])
        w1 = composer.compose({"t": proposal})
        np.testing.assert_allclose(w1, [1.0, 1.5, 2.5])
        w2 = composer.compose({"t": proposal})
        np.testing.assert_allclose(w2, [1.0, 1.75, 3.25])

    def test_release_when_signal_clears(self):
        composer = WeightComposer(config=WeightComposerConfig(momentum_decay=0.5))
        hot = np.array([1.0, 3.0])
        for _ in range(10):
            composer.compose({"c": hot})
        cleared = np.ones(2)
        for _ in range(40):
            w = composer.compose({"c": cleared})
        np.testing.assert_allclose(w, 1.0, atol=1e-6)

    def test_target_cap_preserves_signal_ratio(self):
        cfg = WeightComposerConfig(momentum_decay=0.0, max_target_boost=2.0,
                                   max_weight=100.0)
        composer = WeightComposer(config=cfg)
        w = composer.compose({"a": np.array([4.0]), "b": np.array([4.0])})
        # Combined target 16 is capped at 2.
        np.testing.assert_allclose(w, [2.0])

    def test_rejects_bad_proposals(self):
        composer = WeightComposer(num_nets=3)
        with pytest.raises(ValueError, match="at least one"):
            composer.compose({})
        with pytest.raises(ValueError, match=">= 1"):
            composer.compose({"x": np.array([0.5, 1.0, 1.0])})
        with pytest.raises(ValueError, match="shape"):
            composer.compose({"x": np.ones(2)})
        with pytest.raises(ValueError, match=">= 1"):
            composer.compose({"x": np.array([1.0, np.nan, 1.0])})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WeightComposerConfig(momentum_decay=1.5).validate()
        with pytest.raises(ValueError):
            WeightComposerConfig(max_weight=0.5, min_weight=1.0).validate()
        with pytest.raises(ValueError):
            WeightComposerConfig(max_target_boost=0.5).validate()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        num_nets=st.integers(min_value=1, max_value=50),
        updates=st.integers(min_value=1, max_value=6),
        timing_boost=st.floats(min_value=0.0, max_value=3.0),
        congestion_boost=st.floats(min_value=0.0, max_value=3.0),
        max_weight=st.floats(min_value=1.0, max_value=8.0),
        decay=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounds_and_pure_timing_reduction(
        self, seed, num_nets, updates, timing_boost, congestion_boost,
        max_weight, decay,
    ):
        """Hypothesis property: composed weights live in [1, max_weight],
        and a zero-overflow congestion map reduces the composition to the
        pure-timing weights exactly."""
        rng = np.random.default_rng(seed)
        cfg = WeightComposerConfig(momentum_decay=decay, max_weight=max_weight)
        both = WeightComposer(config=cfg)
        timing_only = WeightComposer(config=cfg)
        zero_overflow = np.ones(num_nets)  # congestion with nothing to say
        for _ in range(updates):
            criticality = rng.uniform(0.0, 1.0, size=num_nets)
            timing = 1.0 + timing_boost * criticality
            w_both = both.compose({"timing": timing, "congestion": zero_overflow})
            w_timing = timing_only.compose({"timing": timing})
            assert np.all(w_both >= 1.0 - 1e-12)
            assert np.all(w_both <= max_weight + 1e-12)
            np.testing.assert_array_equal(w_both, w_timing)
        # And with real congestion the bounds still hold.
        congestion = 1.0 + congestion_boost * rng.uniform(0.0, 1.0, size=num_nets)
        w = both.compose({"timing": timing, "congestion": congestion})
        assert np.all(w >= 1.0 - 1e-12)
        assert np.all(w <= max_weight + 1e-12)


# ----------------------------------------------------------------------
# Scheduler dispatch inside a real placer
# ----------------------------------------------------------------------
class _RecordingFeedback(PlacementFeedback):
    """Test feedback: records firings, optionally proposes a multiplier."""

    def __init__(self, name, proposal=None):
        self.name = name
        self.proposal = proposal
        self.fired = []
        self.finalized = 0

    def update(self, placer, iteration, x, y):
        self.fired.append(iteration)
        if self.proposal is None:
            return None
        return FeedbackUpdate(proposal=self.proposal, metrics={"val": 1.0})

    def finalize(self, placer):
        self.finalized += 1


class TestSchedulerInPlacer:
    def test_cadenced_firing_and_accounting(self, fresh_small_design):
        placer = GlobalPlacer(
            fresh_small_design, PlacementConfig(max_iterations=30, seed=0)
        )
        fb = _RecordingFeedback("probe")
        placer.add_feedback(fb, FeedbackCadence(start=10, interval=5, end=20))
        with run_tracer() as tracer:
            placer.run()
        assert fb.fired == [10, 15, 20]
        assert fb.finalized == 1
        probe = tracer.metrics()["spans"]["feedback.probe"]
        assert probe["count"] == 3
        assert probe["seconds"] >= 0.0

    def test_proposals_reach_net_weights(self, fresh_small_design):
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=20, seed=0))
        proposal = np.full(design.num_nets, 3.0)
        fb = _RecordingFeedback("booster", proposal=proposal)
        placer.add_feedback(fb, FeedbackCadence(start=5, interval=100))
        placer.run()
        # One update with decay 0.75: w = 0.75*1 + 0.25*3 = 1.5.
        np.testing.assert_allclose(placer.net_weights, 1.5)
        rows = placer.feedback.trajectory
        assert len(rows) == 1
        assert rows[0]["iteration"] == 5
        assert rows[0]["fired"] == ["booster"]
        assert rows[0]["weight_max"] == pytest.approx(1.5)

    def test_slower_slot_proposal_is_cached(self, fresh_small_design):
        """A slot between its firings keeps contributing its last proposal."""
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=25, seed=0))
        slow = _RecordingFeedback("slow", proposal=np.full(design.num_nets, 2.0))
        fast = _RecordingFeedback("fast", proposal=np.full(design.num_nets, 2.0))
        placer.add_feedback(slow, FeedbackCadence(start=5, interval=100))
        placer.add_feedback(fast, FeedbackCadence(start=5, interval=1))
        placer.run()
        # Every compose after iteration 5 sees both proposals: target 4.
        # With decay 0.75 over 21 composes, weights approach 4.
        assert placer.net_weights[0] > 3.9
        assert len(slow.fired) == 1 and len(fast.fired) == 21


class TestSetNetWeightsValidation:
    def test_accepts_lists_and_int_arrays(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design)
        placer.set_net_weights([2] * fresh_small_design.num_nets)
        assert placer.net_weights.dtype == np.float64
        np.testing.assert_array_equal(placer.net_weights, 2.0)

    def test_rejects_wrong_shape_and_scalars(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design)
        with pytest.raises(ValueError, match="shape"):
            placer.set_net_weights(np.ones(3))
        with pytest.raises(ValueError, match="scalars"):
            placer.set_net_weights(2.0)
        with pytest.raises(ValueError, match="shape"):
            placer.set_net_weights(np.ones((fresh_small_design.num_nets, 1)))

    def test_rejects_bad_values(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design)
        num_nets = fresh_small_design.num_nets
        bad = np.ones(num_nets)
        bad[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            placer.set_net_weights(bad)
        bad[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            placer.set_net_weights(bad)
        bad[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            placer.set_net_weights(bad)

    def test_rejects_non_numeric_dtypes(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design)
        num_nets = fresh_small_design.num_nets
        with pytest.raises(TypeError, match="numeric"):
            placer.set_net_weights(np.array(["x"] * num_nets))
        with pytest.raises(TypeError, match="numeric"):
            placer.set_net_weights(np.array([object()] * num_nets))
        with pytest.raises(TypeError, match="complex"):
            placer.set_net_weights(np.ones(num_nets, dtype=np.complex128))


# ----------------------------------------------------------------------
# Congestion net weighting
# ----------------------------------------------------------------------
class TestCongestionNetWeighting:
    def test_scores_match_naive_reference(self, small_design):
        config = CongestionConfig(num_bins_x=8, num_bins_y=8)
        weighting = CongestionNetWeighting(config)
        estimator = CongestionEstimator(small_design, config)
        weighting.estimator = estimator
        x, y = initial_placement(small_design, seed=3)
        result = estimator.estimate(x, y)
        scores = weighting.net_overflow_scores(result, x, y)

        overflow = result.overflow
        ix0, ix1, iy0, iy1 = estimator.net_bin_spans(x, y)
        expected = np.zeros(small_design.num_nets)
        for k, net in enumerate(estimator.active_net_ids):
            patch = overflow[ix0[k]:ix1[k] + 1, iy0[k]:iy1[k] + 1]
            expected[net] = patch.mean()
        np.testing.assert_allclose(scores, expected, rtol=1e-9, atol=1e-12)

    def test_zero_overflow_proposes_ones(self, fresh_small_design):
        design = fresh_small_design
        # A huge track capacity makes every bin routable.
        weighting = CongestionNetWeighting(
            CongestionConfig(tracks_per_row=10000.0), max_boost=2.0
        )
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=1, seed=0))
        x, y = initial_placement(design, seed=0)
        update = weighting.update(placer, 1, x, y)
        np.testing.assert_array_equal(update.proposal, 1.0)
        assert update.metrics["peak_overflow"] == 0.0

    def test_proposal_bounded_by_max_boost(self, fresh_small_design):
        design = fresh_small_design
        weighting = CongestionNetWeighting(max_boost=0.7, saturation_overflow=0.1)
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=1, seed=0))
        x, y = initial_placement(design, seed=0)
        update = weighting.update(placer, 1, x, y)
        assert update.proposal.min() >= 1.0
        assert update.proposal.max() <= 1.7 + 1e-12

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            CongestionNetWeighting(max_boost=-0.1)
        with pytest.raises(ValueError):
            CongestionNetWeighting(saturation_overflow=0.0)


class TestTimingCriticalityWeighting:
    def _context(self, design):
        from repro.flow.context import FlowContext
        from repro.timing.constraints import TimingConstraints

        return FlowContext(
            design=design,
            constraints=TimingConstraints.from_design(design),
        )

    def test_proposal_bounds_and_threshold(self, fresh_small_design):
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=1, seed=0))
        x, y = initial_placement(design, seed=0)

        full = TimingCriticalityWeighting(max_boost=0.5)
        full.prepare(self._context(design))
        update = full.update(placer, 1, x, y)
        assert update.proposal.min() >= 1.0
        assert update.proposal.max() <= 1.5 + 1e-12
        assert update.metrics["wns"] <= 0.0

        focused = TimingCriticalityWeighting(
            max_boost=0.5, criticality_threshold=0.5
        )
        focused.prepare(self._context(design))
        focused_update = focused.update(placer, 1, x, y)
        # Thresholding only zeroes sub-threshold nets, never boosts more.
        assert np.all(focused_update.proposal <= update.proposal + 1e-12)
        boosted = np.count_nonzero(focused_update.proposal > 1.0)
        assert boosted < np.count_nonzero(update.proposal > 1.0)

    def test_requires_prepare(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design)
        weighting = TimingCriticalityWeighting()
        with pytest.raises(RuntimeError, match="prepare"):
            weighting.update(placer, 1, *initial_placement(fresh_small_design, seed=0))

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            TimingCriticalityWeighting(max_boost=-1.0)
        with pytest.raises(ValueError):
            TimingCriticalityWeighting(criticality_threshold=1.0)


# ----------------------------------------------------------------------
# Flow integration: stage, preset, reports
# ----------------------------------------------------------------------
class TestFeedbackFlowIntegration:
    def test_stage_registered(self):
        stage = create_stage(
            "feedback_weight",
            slots=[(CongestionNetWeighting(), FeedbackCadence(start=5, interval=5))],
        )
        assert isinstance(stage, FeedbackWeightStage)

    def test_stage_requires_slots(self):
        with pytest.raises(ValueError, match="at least one"):
            FeedbackWeightStage([])

    def test_routability_gp_preset_shape(self):
        stages = build_stages("routability-gp", max_iterations=40)
        names = [s.name for s in stages]
        assert names == [
            "feedback_weight",
            "global_place",
            "routability_repair",
            "legalize",
            "congestion",
            "evaluate",
        ]
        assert get_preset("routability-gp").description

    def test_preset_runs_and_reports(self, fresh_small_design):
        runner = build_flow(
            "routability-gp",
            max_iterations=60,
            refine_iterations=20,
            congestion_start=10,
            congestion_interval=10,
            timing_start=20,
            timing_interval=20,
        )
        result = runner.run(fresh_small_design, seed=0)
        ctx = result.context
        record = ctx.metadata["feedback"]
        assert record["trajectory"], "in-loop feedback never fired"
        spans = ctx.metadata["trace_metrics"]["spans"]
        assert spans["feedback.congestion"]["seconds"] >= 0.0
        assert spans["feedback.timing"]["seconds"] >= 0.0
        congestion_rows = [
            row for row in record["trajectory"] if "congestion" in row["fired"]
        ]
        assert congestion_rows and "peak_overflow" in congestion_rows[0]
        timing_rows = [row for row in record["trajectory"] if "timing" in row["fired"]]
        assert timing_rows and "wns" in timing_rows[0]
        # Composed weights stay within the composer clamp.
        weights = ctx.net_weights
        assert weights.min() >= 1.0 - 1e-12
        assert weights.max() <= 6.0 + 1e-12
        # The evaluation report carries the trajectory; the summary counts it.
        assert result.evaluation.feedback_trajectory == record["trajectory"]
        assert "feedback_trajectory" in result.evaluation.as_dict()
        assert result.summary()["feedback_updates"] == len(record["trajectory"])

    def test_timing_weight_presets_record_trajectory(self, fresh_small_design):
        """The timing presets' feedbacks ride the scheduler: trajectory rows
        appear for them too."""
        result = build_flow(
            "dreamplace4",
            max_iterations=40,
            timing_start_iteration=10,
            timing_update_interval=10,
        ).run(fresh_small_design, seed=0)
        record = result.context.metadata["feedback"]
        assert record["trajectory"]
        assert all("wns" in row for row in record["trajectory"])
        assert result.evaluation.feedback_trajectory == record["trajectory"]

    def test_add_congestion_weighting_retrofit(self):
        from repro.flow.stages import EvaluateStage, GlobalPlaceStage
        from repro.route.flow import add_congestion_weighting

        stages = build_stages("dreamplace", max_iterations=40)
        out = add_congestion_weighting(stages)
        names = [s.name for s in out]
        assert names.index("feedback_weight") == names.index("global_place") - 1
        # Original list untouched.
        assert not any(s.name == "feedback_weight" for s in stages)
        with pytest.raises(ValueError, match="global_place"):
            add_congestion_weighting([EvaluateStage()])
        assert any(isinstance(s, GlobalPlaceStage) for s in out)

    def test_add_congestion_weighting_rejects_self_applying_strategy(self):
        """Composing with a feedback that owns the net-weight vector itself
        (momentum net weighting) would clobber both signals: refuse."""
        from repro.route.flow import add_congestion_weighting

        stages = build_stages("dreamplace4", max_iterations=40)
        with pytest.raises(ValueError, match="momentum net-weighting"):
            add_congestion_weighting(stages)
        # Objective-term feedbacks (pin pairs) compose fine: the congestion
        # slot joins a copy of the flow's one feedback stage.
        stages = build_stages("efficient_tdp", max_iterations=40)
        out = add_congestion_weighting(stages)
        weighting = [s for s in out if s.name == "feedback_weight"]
        assert len(weighting) == 1
        assert [f.name for f, _ in weighting[0].slots] == ["pin_pair", "congestion"]
        assert [f.name for f, _ in stages[0].slots] == ["pin_pair"]

    def test_congestion_weighting_on_timing_preset_matches_golden(self):
        """Recorded before the pin-pair feedback and the congestion slot
        shared one feedback stage: same positions, both signals fire."""
        from repro.route.flow import add_congestion_weighting

        stages = build_stages(
            "efficient_tdp",
            max_iterations=300,
            timing_start_iteration=40,
            min_timing_iterations=60,
            timing_update_interval=10,
        )
        result = FlowRunner(add_congestion_weighting(stages)).run(
            load_benchmark("sb_mini_18", scale=0.4), seed=0
        )
        assert result.evaluation.hpwl == pytest.approx(10777.45641025641, rel=1e-9)
        assert result.evaluation.wns == pytest.approx(-18.188029285861035, rel=1e-9)
        assert float(np.sum(result.x)) == pytest.approx(24454.46153846154, rel=1e-9)
        assert float(np.sum(result.y)) == pytest.approx(24831.46153846154, rel=1e-9)
        assert float(np.dot(result.x, np.arange(result.x.size))) == pytest.approx(
            3629897.3846153845, rel=1e-9
        )
        trajectory = result.context.metadata["feedback"]["trajectory"]
        assert len(trajectory) == 14
        assert {name for row in trajectory for name in row["fired"]} == {
            "pin_pair",
            "congestion",
        }

    def test_retired_slot_proposal_is_released(self, fresh_small_design):
        """After a slot's cooldown boundary its cached proposal leaves the
        composition, so the boost glides back out via momentum."""
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=40, seed=0))
        retiring = _RecordingFeedback(
            "retiring", proposal=np.full(design.num_nets, 4.0)
        )
        steady = _RecordingFeedback("steady", proposal=np.ones(design.num_nets))
        placer.add_feedback(retiring, FeedbackCadence(start=5, interval=5, end=10))
        placer.add_feedback(steady, FeedbackCadence(start=5, interval=1))
        placer.run()
        assert retiring.fired == [5, 10]
        # With the retiring proposal dropped after iteration 10, ~30 further
        # composes at decay 0.75 pull the weights back to ~1.
        assert placer.net_weights.max() < 1.01


class TestTimingKnobValidation:
    """Bad timing knobs fail when the flow is built, naming field and bound
    (``--set`` assigns fields after construction, so the feedback
    constructors are where the values are checked)."""

    def test_beta_mode_rejected(self):
        with pytest.raises(ValueError, match="beta_mode must be 'auto' or 'literal'"):
            build_flow("efficient_tdp", beta_mode="atuo")
        build_flow("efficient_tdp", beta_mode="literal")

    def test_momentum_decay_rejected(self):
        with pytest.raises(ValueError, match=r"momentum_decay must be within \[0, 1\]"):
            build_flow("dreamplace4", momentum_decay=1.5)
        with pytest.raises(ValueError, match="momentum_decay"):
            build_flow("dreamplace4", momentum_decay=-0.1)

    def test_temperature_rejected(self):
        for bad in (-0.25, 0.0):
            with pytest.raises(ValueError, match="temperature must be positive"):
                build_flow("differentiable_tdp", temperature=bad)


# ----------------------------------------------------------------------
# Acceptance: in-loop weighting + inflation vs inflation-alone
# ----------------------------------------------------------------------
class TestInLoopWeightingAcceptance:
    @pytest.fixture(scope="class")
    def inflation_only(self):
        design = load_benchmark("sb_cong_1")
        return build_flow("routability", max_iterations=300).run(design, seed=0)

    def test_congestion_weighting_beats_inflation_alone(self, inflation_only):
        """Acceptance (ISSUE 5): in-loop congestion weighting + inflation
        beats inflation-alone on peak overflow at <= 2% legalized HPWL cost
        (congestion-only mode, where the congestion signal has the whole
        HPWL budget to itself)."""
        design = load_benchmark("sb_cong_1")
        gp = build_flow("routability-gp", max_iterations=300, timing=False).run(
            design, seed=0
        )
        base = inflation_only.evaluation
        ours = gp.evaluation
        assert ours.congestion_peak_overflow <= 0.85 * base.congestion_peak_overflow
        assert ours.hpwl <= 1.02 * base.hpwl

    def test_composed_timing_and_congestion_still_beats(self, inflation_only):
        """The full composed preset (timing x congestion) must still beat
        inflation-alone on peak overflow within the same HPWL budget."""
        design = load_benchmark("sb_cong_1")
        gp = build_flow("routability-gp", max_iterations=300).run(design, seed=0)
        base = inflation_only.evaluation
        ours = gp.evaluation
        assert ours.congestion_peak_overflow < base.congestion_peak_overflow
        assert ours.hpwl <= 1.02 * base.hpwl
        # And the composition actually happened: both signals fired.
        spans = gp.context.metadata["trace_metrics"]["spans"]
        assert "feedback.timing" in spans and "feedback.congestion" in spans
