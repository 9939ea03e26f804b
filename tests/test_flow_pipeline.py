"""The flow pipeline subsystem: stages, runner, presets, legalization
fallback, and beta auto-calibration."""

import dataclasses

import numpy as np
import pytest

from repro.feedback import FeedbackCadence
from repro.feedback.timing import MomentumNetWeighting, PinPairAttraction
from repro.flow import (
    EfficientTDPConfig,
    FlowRunner,
    build_flow,
    build_stages,
    get_preset,
    make_config,
    preset_names,
)
from repro.flow.stages import (
    EvaluateStage,
    FeedbackWeightStage,
    GlobalPlaceStage,
    LegalizeStage,
)
from repro.netlist import Design, make_generic_library

FAST = dict(
    max_iterations=120,
    timing_start_iteration=50,
    min_timing_iterations=40,
    timing_update_interval=10,
)


# The ``--set`` keys of every preset config (dataclass field names), as
# recorded before the preset configs shared a schedule base.
_PRESET_CONFIG_KEYS = {
    "differentiable_tdp": {
        "attraction_ratio", "corners", "criticality_threshold", "history_every",
        "kernel_workers", "max_iterations", "min_timing_iterations", "seed",
        "stop_overflow", "target_density", "temperature", "timing_start_iteration",
        "timing_update_interval", "verbose",
    },
    "dreamplace": {
        "corners", "density_weight_growth", "density_weight_init_ratio",
        "density_weight_max", "gamma_base_bins", "history_every", "kernel_workers",
        "log_every", "max_iterations", "min_iterations", "num_bins_x", "num_bins_y",
        "record_timing_every", "seed", "stop_overflow", "target_density", "verbose",
    },
    "dreamplace4": {
        "corners", "history_every", "kernel_workers", "max_boost", "max_iterations",
        "max_weight", "min_timing_iterations", "momentum_decay", "seed",
        "stop_overflow", "target_density", "timing_start_iteration",
        "timing_update_interval", "verbose",
    },
    "efficient_tdp": {
        "beta", "beta_auto_ratio", "beta_mode", "corners", "extraction",
        "history_every", "kernel_workers", "legalize", "loss", "max_iterations",
        "min_timing_iterations", "seed", "stop_overflow", "target_density",
        "timing_start_iteration", "timing_update_interval", "verbose", "w0", "w1",
    },
    "routability": {
        "congestion", "corners", "history_every", "inflate", "inflation",
        "inflation_rounds", "kernel_workers", "legalize", "max_hpwl_growth",
        "max_iterations", "overflow_target", "refine_iterations", "seed",
        "stop_overflow", "target_density", "verbose",
    },
    "routability-gp": {
        "congestion", "congestion_end", "congestion_interval", "congestion_max_boost",
        "congestion_saturation", "congestion_start", "corners", "history_every",
        "inflate", "inflation", "inflation_rounds", "kernel_workers", "legalize",
        "max_hpwl_growth", "max_iterations", "max_target_boost", "max_weight",
        "momentum_decay", "overflow_target", "refine_iterations", "seed",
        "stop_overflow", "target_density", "timing", "timing_criticality_threshold",
        "timing_interval", "timing_max_boost", "timing_start", "verbose",
    },
}


class TestStageRegistry:
    def test_create_stage_by_name(self):
        # The stage name keys ``stage_seconds`` and the ``stage.<name>`` span.
        assert LegalizeStage().name == "legalize"
        cadence = FeedbackCadence(start=10, interval=5)
        stage = FeedbackWeightStage(slots=[(MomentumNetWeighting(), cadence)])
        assert stage.name == "feedback_weight"
        assert stage.slots[0][1].interval == 5

    def test_feedback_stage_needs_slots(self):
        with pytest.raises(ValueError, match="at least one feedback slot"):
            FeedbackWeightStage(slots=[])


class TestPresets:
    def test_preset_names(self):
        assert set(preset_names()) == {
            "efficient_tdp",
            "dreamplace",
            "dreamplace4",
            "differentiable_tdp",
            "routability",
            "routability-gp",
        }

    def test_preset_config_keys_pinned(self):
        assert set(preset_names()) == set(_PRESET_CONFIG_KEYS)
        for name, keys in _PRESET_CONFIG_KEYS.items():
            config = get_preset(name).default_config()
            assert {f.name for f in dataclasses.fields(config)} == keys, name

    def test_preset_descriptions(self):
        for name in preset_names():
            assert get_preset(name).description

    def test_make_config_rejects_unknown_field(self):
        with pytest.raises(AttributeError, match="no field"):
            make_config("efficient_tdp", not_a_field=1)

    def test_build_stages_shapes(self):
        stages = build_stages("efficient_tdp", **FAST)
        assert [type(s) for s in stages] == [
            FeedbackWeightStage,
            GlobalPlaceStage,
            LegalizeStage,
            EvaluateStage,
        ]
        stages = build_stages("dreamplace")
        assert [type(s) for s in stages] == [
            GlobalPlaceStage,
            LegalizeStage,
            EvaluateStage,
        ]

    def test_legalize_false_drops_stage(self):
        stages = build_stages("efficient_tdp", legalize=False, **FAST)
        assert not any(isinstance(s, LegalizeStage) for s in stages)

    def test_kernel_workers_threads_through_presets(self):
        # Every preset still accepts kernel_workers (a benchmark passes it),
        # but the Poisson solve has no threads: the knob reaches no global
        # placer's config, and a run that carries it places bit for bit
        # like one that does not.
        from repro.benchgen import load_benchmark
        from repro.flow.presets import make_config

        def placer_configs(stages):
            configs = [s.config for s in stages if isinstance(s, GlobalPlaceStage)]
            fields = [dataclasses.asdict(c) for c in configs]
            for f in fields:
                f.pop("kernel_workers", None)
            return [(type(c), f) for c, f in zip(configs, fields)]

        for preset in preset_names():
            plain = placer_configs(build_stages(preset))
            assert plain, f"{preset}: no global-placement stage"
            assert placer_configs(build_stages(preset, kernel_workers=3)) == plain

        configs = [
            make_config("dreamplace", max_iterations=40, **extra)
            for extra in ({}, {"kernel_workers": 2})
        ]
        assert configs[1].kernel_workers == 2
        runs = [
            build_flow("dreamplace", config).run(
                load_benchmark("sb_mini_18", scale=0.2), seed=0
            )
            for config in configs
        ]
        assert np.array_equal(runs[0].x, runs[1].x)
        assert np.array_equal(runs[0].y, runs[1].y)


class TestFlowRunner:
    def test_runner_requires_stages(self):
        with pytest.raises(ValueError):
            FlowRunner([])

    def test_preset_flow_runs_and_summarizes(self, fresh_small_design):
        result = build_flow("efficient_tdp", **FAST).run(fresh_small_design, seed=0)
        summary = result.summary()
        assert summary["flow"] == "efficient_tdp"
        assert summary["hpwl"] > 0
        assert summary["overlap_area"] == pytest.approx(0.0, abs=1e-6)
        assert "pin_pairs" in summary
        assert set(result.stage_seconds) == {
            "feedback_weight",
            "global_place",
            "legalize",
            "evaluate",
        }

    def test_timings_are_projections_of_the_run_metrics(self, fresh_small_design):
        result = build_flow("efficient_tdp", **FAST).run(fresh_small_design, seed=0)
        metrics = result.context.metadata["trace_metrics"]
        assert result.evaluation.trace_metrics is metrics
        spans = metrics["spans"]
        assert result.runtime_seconds == spans["flow"]["seconds"]
        # Stage walls in execution order, each its stage span's total.
        assert list(result.stage_seconds) == [
            "feedback_weight", "global_place", "legalize", "evaluate"
        ]
        for name, seconds in result.stage_seconds.items():
            assert seconds == spans[f"stage.{name}"]["seconds"]
        assert sum(result.stage_seconds.values()) <= result.runtime_seconds

    def test_breakdown_includes_others(self, fresh_small_design):
        result = build_flow("efficient_tdp", **FAST).run(fresh_small_design, seed=0)
        breakdown = result.breakdown()
        assert breakdown["others"] >= 0.0
        assert {"io", "gradient", "timing_analysis", "weighting", "legalization"} <= set(
            breakdown
        )
        spans = result.context.metadata["trace_metrics"]["spans"]
        # The gradient component is the GP layers' and pin attraction's self time.
        assert breakdown["gradient"] == sum(
            entry["self_seconds"]
            for name, entry in spans.items()
            if name.startswith("placement.") or name == "core.attraction"
        )

    @pytest.mark.parametrize("preset", preset_names())
    def test_breakdown_sums_to_runtime(self, preset):
        from repro.benchgen import load_benchmark

        design_name, scale, overrides = _BREAKDOWN_RUNS[preset]
        result = build_flow(preset, **overrides).run(load_benchmark(design_name, scale=scale))
        # Components sum span self seconds, so they partition the run wall
        # even where spans nest (the refine placements of routability repair).
        breakdown = result.breakdown()
        assert min(breakdown.values()) >= 0.0
        assert sum(breakdown.values()) == pytest.approx(result.runtime_seconds)

    def test_matches_hand_assembled_stages_exactly(self, small_spec):
        """The preset is exactly its documented stage composition."""
        from repro.benchgen import generate_circuit

        config = EfficientTDPConfig(**FAST)
        cadence = FeedbackCadence(
            start=config.timing_start_iteration, interval=config.timing_update_interval
        )
        hand = FlowRunner(
            [
                FeedbackWeightStage([(PinPairAttraction(), cadence)]),
                GlobalPlaceStage(config.placement_config()),
                LegalizeStage(),
                EvaluateStage(),
            ]
        ).run(generate_circuit(small_spec))
        pipeline = build_flow("efficient_tdp", config).run(
            generate_circuit(small_spec), seed=config.seed
        )
        assert pipeline.evaluation.hpwl == hand.evaluation.hpwl
        assert pipeline.evaluation.tns == hand.evaluation.tns
        assert pipeline.evaluation.wns == hand.evaluation.wns
        np.testing.assert_array_equal(pipeline.x, hand.x)
        np.testing.assert_array_equal(pipeline.y, hand.y)

    def test_second_feedback_stage_rejected(self, fresh_small_design):
        """The run has one feedback scheduler; a second feedback stage would
        silently replace the first one's slots."""
        cadence = FeedbackCadence(start=5, interval=5)
        stages = [
            FeedbackWeightStage([(MomentumNetWeighting(), cadence)]),
            FeedbackWeightStage([(PinPairAttraction(), cadence)]),
            GlobalPlaceStage(),
        ]
        with pytest.raises(ValueError, match="one feedback_weight stage"):
            FlowRunner(stages).run(fresh_small_design)

    def test_feedback_stage_after_global_place_rejected(self, fresh_small_design):
        """The placer adopts the scheduler when it is built, so a feedback
        stage after global placement could never reach it."""
        from repro.placement.global_placer import PlacementConfig

        stages = [
            GlobalPlaceStage(PlacementConfig(max_iterations=5)),
            FeedbackWeightStage([(MomentumNetWeighting(), FeedbackCadence())]),
        ]
        with pytest.raises(ValueError, match="must come before global_place"):
            FlowRunner(stages).run(fresh_small_design)


_TDP_WINDOW = dict(
    max_iterations=60,
    timing_start_iteration=20,
    min_timing_iterations=20,
    timing_update_interval=10,
)


_ROUTABILITY_GP_RUN = (
    "routability-gp",
    "sb_cong_1",
    0.3,
    dict(
        max_iterations=60,
        refine_iterations=20,
        congestion_start=10,
        congestion_interval=10,
        timing_start=20,
        timing_interval=20,
    ),
)


# One short run per preset: (design, scale, overrides).
_BREAKDOWN_RUNS = {
    "differentiable_tdp": ("sb_mini_18", 0.25, _TDP_WINDOW),
    "dreamplace": ("sb_mini_18", 0.25, dict(max_iterations=60)),
    "dreamplace4": ("sb_mini_18", 0.25, _TDP_WINDOW),
    "efficient_tdp": ("sb_mini_18", 0.25, _TDP_WINDOW),
    "routability": ("sb_cong_1", 0.3, dict(max_iterations=60, refine_iterations=20)),
    "routability-gp": _ROUTABILITY_GP_RUN[1:],
}


@pytest.mark.parametrize(
    "preset, design_name, scale, overrides",
    [
        ("efficient_tdp", "sb_mini_18", 0.25, _TDP_WINDOW),
        ("efficient_tdp", "sb_mini_18", 0.25, dict(_TDP_WINDOW, corners="fast,slow")),
        ("dreamplace4", "sb_mini_18", 0.15, _TDP_WINDOW),
        _ROUTABILITY_GP_RUN,
    ],
    ids=["efficient_tdp", "efficient_tdp-mcmm", "dreamplace4", "routability-gp"],
)
def test_finished_run_is_freed_by_refcount(preset, design_name, scale, overrides):
    """A finished run forms no reference cycle: dropping its result frees
    the context and its STA engine with the cyclic collector disabled."""
    import gc
    import weakref

    from repro.benchgen import load_benchmark

    design = load_benchmark(design_name, scale=scale)
    gc.collect()
    gc.disable()
    try:
        # The flow is not kept: its feedbacks hold their last run's STA
        # engine until the stages themselves are dropped.
        result = build_flow(preset, **overrides).run(design)
        summary = result.summary()
        assert summary["feedback_updates"] > 0
        if preset == "efficient_tdp":
            assert summary["pin_pairs"] > 0
        if preset == "routability-gp":
            assert summary["inflation_rounds"] > 0  # refine placers ran
        context = weakref.ref(result.context)
        sta = weakref.ref(result.context.sta)
        del result
        assert context() is None
        assert sta() is None
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "preset, design_name, scale, overrides",
    [("efficient_tdp", "sb_mini_18", 0.25, _TDP_WINDOW), _ROUTABILITY_GP_RUN],
    ids=["efficient_tdp", "routability-gp"],
)
def test_no_placer_outlives_its_stage(preset, design_name, scale, overrides, monkeypatch):
    """Every placer of a run (the refine placers of the repair loop too) is
    freed by refcount when its stage returns, while the result lives on:
    the context keeps only the placement result and config."""
    import gc
    import weakref

    from repro.benchgen import load_benchmark
    from repro.placement.global_placer import GlobalPlacer

    placers = []
    original = GlobalPlacer.run

    def run(self, *args, **kwargs):
        placers.append(weakref.ref(self))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(GlobalPlacer, "run", run)
    design = load_benchmark(design_name, scale=scale)
    gc.collect()
    gc.disable()
    try:
        result = build_flow(preset, **overrides).run(design)
        ctx = result.context
        assert len(placers) == 1 + result.summary().get("inflation_rounds", 0)
        assert all(placer() is None for placer in placers)
        assert ctx.placement_config is not None
    finally:
        gc.enable()


def _count_sta_engines(monkeypatch):
    """Record every STA engine construction: the entry points the flow
    benchmark's ``timing.sta_init`` layer counts."""
    from repro.timing.sta import MultiCornerSTA, STAEngine

    built = []
    for cls in (STAEngine, MultiCornerSTA):
        original = cls.__init__

        def init(self, *args, _original=original, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return built


class TestSharedTimingEngine:
    @pytest.mark.parametrize(
        "preset, design_name, scale, overrides, engine",
        [
            ("efficient_tdp", "sb_mini_18", 0.25, _TDP_WINDOW, "STAEngine"),
            (
                *_ROUTABILITY_GP_RUN[:3],
                dict(_ROUTABILITY_GP_RUN[3], corners="fast,slow"),
                "MultiCornerSTA",
            ),
        ],
        ids=["efficient_tdp", "routability-gp-mcmm"],
    )
    def test_timing_flow_builds_one_engine(
        self, preset, design_name, scale, overrides, engine, monkeypatch
    ):
        """Timing feedback and evaluation share the run's STA engine, built
        for the run's corners: one timing graph per run, and the same
        TNS/WNS as a fresh evaluation, bit for bit."""
        from repro.benchgen import load_benchmark
        from repro.evaluation import evaluate_placement
        from repro.feedback.timing import _TimingFeedback

        design = load_benchmark(design_name, scale=scale)
        built = _count_sta_engines(monkeypatch)
        result = build_flow(preset, **overrides).run(design)
        assert built == [engine]
        monkeypatch.undo()
        ctx = result.context
        (timing,) = [
            slot.feedback
            for slot in ctx.feedback.slots
            if isinstance(slot.feedback, _TimingFeedback)
        ]
        assert timing.sta is ctx.sta
        trajectory = ctx.metadata["feedback"]["trajectory"]
        assert any(timing.name in row["fired"] for row in trajectory)
        fresh = evaluate_placement(
            design, result.x, result.y, constraints=ctx.constraints, corners=ctx.corners
        )
        assert result.evaluation.tns == fresh.tns
        assert result.evaluation.wns == fresh.wns
        assert result.evaluation.num_failing_endpoints == fresh.num_failing_endpoints
        if ctx.corners is not None:
            assert set(result.evaluation.per_corner) == {"fast", "slow"}


class TestRepairLegalizationReuse:
    def test_kept_placement_is_legalized_once(self, monkeypatch):
        """LegalizeStage reuses the repair loop's Abacus result of the kept
        placement; a fresh legalization of those positions matches it."""
        from repro.benchgen import load_benchmark
        from repro.placement.legalization.abacus import AbacusLegalizer

        calls = []
        original = AbacusLegalizer.legalize

        def legalize(self, x, y, *args, **kwargs):
            calls.append(x)
            return original(self, x, y, *args, **kwargs)

        monkeypatch.setattr(AbacusLegalizer, "legalize", legalize)
        preset, design_name, scale, overrides = _ROUTABILITY_GP_RUN
        design = load_benchmark(design_name, scale=scale)
        result = build_flow(preset, **overrides).run(design)
        ctx = result.context
        rounds = result.summary()["inflation_rounds"]
        # One scoring legalization per round plus the starting placement;
        # the legalize stage added none.
        assert len(calls) == rounds + 1
        raw_x, raw_y, legal = ctx.scored_legalization
        assert result.x is legal.x and result.y is legal.y
        assert ctx.metadata["legalization"]["engine"] == "abacus"
        monkeypatch.undo()
        fresh = AbacusLegalizer(design).legalize(raw_x, raw_y)
        assert np.array_equal(fresh.x, result.x)
        assert np.array_equal(fresh.y, result.y)

    def test_stale_scored_legalization_is_recomputed(self, monkeypatch):
        from repro.benchgen import load_benchmark
        from repro.flow.context import FlowContext
        from repro.placement.legalization.abacus import AbacusLegalizer
        from repro.timing import TimingConstraints

        design = load_benchmark("sb_mini_18", scale=0.15)
        x, y = design.positions()
        scored = AbacusLegalizer(design).legalize(x, y)
        ctx = FlowContext(design=design, constraints=TimingConstraints.from_design(design))
        # Equal values, other arrays: the tag does not match, Abacus reruns.
        ctx.x, ctx.y = x.copy(), y.copy()
        ctx.scored_legalization = (x, y, scored)
        LegalizeStage().run(ctx)
        assert ctx.x is not scored.x
        assert np.array_equal(ctx.x, scored.x)


def _overfull_design():
    """More cell width than the die's rows can hold: Abacus must fail."""
    library = make_generic_library()
    design = Design("overfull", die=(0, 0, 60, 24), library=library)
    design.add_port("clk", "input", x=0, y=0)
    design.add_port("din", "input", x=0, y=12)
    net = design.add_net("nclk")
    design.connect(net, "clk")
    chain = design.add_net("n_in")
    design.connect(chain, "din")
    # 14 DFFs of width 10 -> 140 units of cell width vs 120 units of row space.
    for i in range(14):
        inst = design.add_instance(f"ff{i}", "DFF_X1", x=5.0 + i, y=6.0)
        design.connect(net, inst, "ck")
        design.connect(chain, inst, "d")
        chain = design.add_net(f"n{i}")
        design.connect(chain, inst, "q")
    design.clock_period = 500.0
    design.clock_port = "clk"
    return design.finalize()


class TestLegalizationFallback:
    def test_abacus_failure_triggers_greedy(self):
        from repro.flow.context import FlowContext
        from repro.timing import TimingConstraints

        design = _overfull_design()
        ctx = FlowContext(
            design=design,
            constraints=TimingConstraints.from_design(design),
        )
        LegalizeStage().run(ctx)
        meta = ctx.metadata["legalization"]
        assert meta["fallback"] is True
        assert meta["engine"] == "greedy"
        assert meta["num_failed"] > 0

    def test_full_flow_survives_overfull_design(self):
        result = build_flow(
            "efficient_tdp",
            max_iterations=30,
            timing_start_iteration=10,
            min_timing_iterations=10,
            timing_update_interval=10,
        ).run(_overfull_design())
        # The flow completes and evaluates even though Abacus failed.
        assert result.evaluation.hpwl > 0


def _pin_pair_feedback(runner: FlowRunner) -> PinPairAttraction:
    (stage,) = [s for s in runner.stages if isinstance(s, FeedbackWeightStage)]
    (feedback,) = [f for f, _ in stage.slots if isinstance(f, PinPairAttraction)]
    return feedback


class TestBetaCalibration:
    def test_auto_mode_calibrates_once(self, small_spec):
        from repro.benchgen import generate_circuit

        flow = build_flow("efficient_tdp", beta_mode="auto", **FAST)
        feedback = _pin_pair_feedback(flow)
        assert feedback.beta_mode == "auto"
        flow.run(generate_circuit(small_spec))
        assert feedback.beta_calibrated
        # Calibration rescales the attraction strength away from the paper's
        # engine-specific literal.
        assert feedback.attraction.weight != EfficientTDPConfig().beta
        assert feedback.attraction.weight > 0

    def test_literal_mode_keeps_beta(self, small_spec):
        from repro.benchgen import generate_circuit

        flow = build_flow("efficient_tdp", beta_mode="literal", beta=3e-4, **FAST)
        feedback = _pin_pair_feedback(flow)
        flow.run(generate_circuit(small_spec))
        assert feedback.beta_calibrated  # literal mode never recalibrates
        assert feedback.attraction.weight == 3e-4

    def test_calibration_ratio_scales_weight(self, small_spec):
        from repro.benchgen import generate_circuit

        low = build_flow("efficient_tdp", beta_auto_ratio=1.0, **FAST)
        high = build_flow("efficient_tdp", beta_auto_ratio=8.0, **FAST)
        low.run(generate_circuit(small_spec))
        high.run(generate_circuit(small_spec))
        low, high = _pin_pair_feedback(low), _pin_pair_feedback(high)
        assert low.beta_calibrated and high.beta_calibrated
        assert high.attraction.weight > low.attraction.weight
