"""The flow pipeline subsystem: stage registry, runner, presets, legalization
fallback, and beta auto-calibration."""

import numpy as np
import pytest

from repro.core import EfficientTDPConfig, EfficientTDPlacer
from repro.flow import (
    FlowRunner,
    available_stages,
    build_flow,
    build_stages,
    create_stage,
    get_preset,
    make_config,
    preset_names,
)
from repro.flow.stages import (
    EvaluateStage,
    GlobalPlaceStage,
    LegalizeStage,
    PinPairAttractionStrategy,
    TimingWeightStage,
)
from repro.netlist import Design, make_generic_library

FAST = dict(
    max_iterations=120,
    timing_start_iteration=50,
    min_timing_iterations=40,
    timing_update_interval=10,
)


class TestStageRegistry:
    def test_all_core_stages_registered(self):
        assert {"global_place", "timing_weight", "legalize", "evaluate"} <= set(
            available_stages()
        )

    def test_create_stage_by_name(self):
        stage = create_stage("legalize")
        assert stage.name == "legalize"
        stage = create_stage("timing_weight", strategy="net_weight", interval=5)
        assert stage.interval == 5

    def test_unknown_stage_raises(self):
        with pytest.raises(KeyError, match="Unknown stage"):
            create_stage("no_such_stage")

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="Unknown timing strategy"):
            create_stage("timing_weight", strategy="no_such_strategy")


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

    def test_preset_descriptions(self):
        for name in preset_names():
            assert get_preset(name).description

    def test_make_config_rejects_unknown_field(self):
        with pytest.raises(AttributeError, match="no field"):
            make_config("efficient_tdp", not_a_field=1)

    def test_build_stages_shapes(self):
        stages = build_stages("efficient_tdp", **FAST)
        assert [type(s) for s in stages] == [
            TimingWeightStage,
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
        # Every preset forwards kernel_workers to its global placers (the
        # main one and the routability refine), where it becomes the
        # density model's DCT thread count.
        from repro.benchgen import load_benchmark
        from repro.placement.global_placer import GlobalPlacer

        design = load_benchmark("sb_mini_18", scale=0.2)
        for preset in preset_names():
            stages = build_stages(preset, kernel_workers=3)
            configs = [s.config for s in stages if isinstance(s, GlobalPlaceStage)]
            configs += [
                s.placement_config for s in stages
                if getattr(s, "placement_config", None) is not None
            ]
            assert configs, f"{preset}: no global-placement stage"
            for config in configs:
                assert GlobalPlacer(design, config).density.workers == 3


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
            "timing_weight",
            "global_place",
            "legalize",
            "evaluate",
        }

    def test_matches_legacy_placer_exactly(self, small_spec):
        from repro.benchgen import generate_circuit

        config = EfficientTDPConfig(**FAST)
        legacy = EfficientTDPlacer(generate_circuit(small_spec), config).run()
        pipeline = build_flow("efficient_tdp", config).run(
            generate_circuit(small_spec), seed=config.seed
        )
        assert pipeline.evaluation.hpwl == legacy.evaluation.hpwl
        assert pipeline.evaluation.tns == legacy.evaluation.tns
        assert pipeline.evaluation.wns == legacy.evaluation.wns
        np.testing.assert_array_equal(pipeline.x, legacy.x)
        np.testing.assert_array_equal(pipeline.y, legacy.y)

    def test_incremental_sta_flow_matches_full(self, small_spec):
        """The pipelined flow with incremental STA reproduces the exact flow."""
        from repro.benchgen import generate_circuit

        base = build_flow("efficient_tdp", **FAST).run(generate_circuit(small_spec))
        inc = build_flow("efficient_tdp", incremental_sta=True, **FAST).run(
            generate_circuit(small_spec)
        )
        assert inc.evaluation.tns == pytest.approx(base.evaluation.tns, abs=1e-9)
        assert inc.evaluation.wns == pytest.approx(base.evaluation.wns, abs=1e-9)
        assert inc.evaluation.hpwl == pytest.approx(base.evaluation.hpwl, rel=1e-12)


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
        from repro.utils.profiling import RuntimeProfiler

        design = _overfull_design()
        ctx = FlowContext(
            design=design,
            constraints=TimingConstraints.from_design(design),
            profiler=RuntimeProfiler(),
        )
        LegalizeStage().run(ctx)
        meta = ctx.metadata["legalization"]
        assert meta["fallback"] is True
        assert meta["engine"] == "greedy"
        assert meta["num_failed"] > 0

    def test_full_flow_survives_overfull_design(self):
        config = EfficientTDPConfig(
            max_iterations=30,
            timing_start_iteration=10,
            min_timing_iterations=10,
            timing_update_interval=10,
        )
        result = EfficientTDPlacer(_overfull_design(), config).run()
        # The flow completes and evaluates even though Abacus failed.
        assert result.evaluation.hpwl > 0

    def test_fallback_disabled_keeps_abacus_result(self):
        from repro.flow.context import FlowContext
        from repro.timing import TimingConstraints
        from repro.utils.profiling import RuntimeProfiler

        design = _overfull_design()
        ctx = FlowContext(
            design=design,
            constraints=TimingConstraints.from_design(design),
            profiler=RuntimeProfiler(),
        )
        LegalizeStage(fallback=False).run(ctx)
        meta = ctx.metadata["legalization"]
        assert meta["fallback"] is False
        assert meta["num_failed"] > 0


class TestBetaCalibration:
    def test_auto_mode_calibrates_once(self, small_spec):
        from repro.benchgen import generate_circuit

        config = EfficientTDPConfig(beta_mode="auto", **FAST)
        flow = EfficientTDPlacer(generate_circuit(small_spec), config)
        assert isinstance(flow.strategy, PinPairAttractionStrategy)
        assert flow.strategy.beta_mode == "auto"
        flow.run()
        assert flow.strategy.beta_calibrated
        # Calibration rescales the attraction strength away from the paper's
        # engine-specific literal.
        assert flow.strategy.attraction.weight != config.beta
        assert flow.strategy.attraction.weight > 0

    def test_literal_mode_keeps_beta(self, small_spec):
        from repro.benchgen import generate_circuit

        config = EfficientTDPConfig(beta_mode="literal", beta=3e-4, **FAST)
        flow = EfficientTDPlacer(generate_circuit(small_spec), config)
        flow.run()
        assert flow.strategy.beta_calibrated  # literal mode never recalibrates
        assert flow.strategy.attraction.weight == config.beta

    def test_calibration_ratio_scales_weight(self, small_spec):
        from repro.benchgen import generate_circuit

        low = EfficientTDPlacer(
            generate_circuit(small_spec),
            EfficientTDPConfig(beta_auto_ratio=1.0, **FAST),
        )
        high = EfficientTDPlacer(
            generate_circuit(small_spec),
            EfficientTDPConfig(beta_auto_ratio=8.0, **FAST),
        )
        low.run()
        high.run()
        assert low.strategy.beta_calibrated and high.strategy.beta_calibrated
        assert high.strategy.attraction.weight > low.strategy.attraction.weight
