"""Tests for benchmark generation, the evaluation kit, and metric helpers."""

import pytest

from repro.benchgen import CircuitSpec, SB_MINI_SUITE, benchmark_names, generate_circuit, load_benchmark
from repro.evaluation import Evaluator, average_ratio, evaluate_placement, format_table, ratio_table
from repro.timing import STAEngine, TimingGraph


class TestCircuitSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitSpec(num_cells=5)
        with pytest.raises(ValueError):
            CircuitSpec(sequential_fraction=0.95)
        with pytest.raises(ValueError):
            CircuitSpec(logic_depth=0)
        with pytest.raises(ValueError):
            CircuitSpec(utilization=1.2)
        with pytest.raises(ValueError):
            CircuitSpec(clock_tightness=0.0)

    def test_negative_primary_inputs_rejected(self):
        with pytest.raises(ValueError, match="num_primary_inputs must be >= 0"):
            CircuitSpec(num_primary_inputs=-1)

    def test_negative_primary_outputs_rejected(self):
        with pytest.raises(ValueError, match="num_primary_outputs must be >= 0"):
            CircuitSpec(num_primary_outputs=-2)

    def test_fanout_alpha_below_floor_rejected(self):
        with pytest.raises(ValueError, match="fanout_alpha must be >= 0.1"):
            CircuitSpec(fanout_alpha=0.05)

    def test_negative_io_delay_fraction_rejected(self):
        with pytest.raises(ValueError, match="io_delay_fraction must be >= 0"):
            CircuitSpec(io_delay_fraction=-0.1)


class TestGenerator:
    def test_deterministic(self, small_spec):
        a = generate_circuit(small_spec)
        b = generate_circuit(small_spec)
        assert [i.name for i in a.instances] == [i.name for i in b.instances]
        assert [n.name for n in a.nets] == [n.name for n in b.nets]
        assert a.clock_period == b.clock_period

    def test_size_close_to_request(self, small_design, small_spec):
        assert abs(len(small_design.cells) - small_spec.num_cells) <= 2

    def test_sequential_fraction(self, small_design, small_spec):
        num_seq = sum(1 for c in small_design.cells if c.is_sequential)
        expected = small_spec.num_cells * small_spec.sequential_fraction
        assert abs(num_seq - expected) <= max(3, 0.1 * expected)

    def test_every_net_has_single_driver(self, small_design):
        for net in small_design.nets:
            drivers = [p for p in net.pins if p.is_driver]
            assert len(drivers) == 1, net.name

    def test_every_input_pin_connected(self, small_design):
        for pin in small_design.pins:
            if not pin.instance.is_port and pin.lib_pin.is_input:
                assert pin.net is not None, pin.full_name

    def test_clock_reaches_all_flops(self, small_design):
        clock_net = None
        for net in small_design.nets:
            if any(p.lib_pin.is_clock for p in net.sinks):
                clock_net = net
                break
        assert clock_net is not None
        flops = [c for c in small_design.cells if c.is_sequential]
        clocked = {p.instance.name for p in clock_net.sinks}
        assert {f.name for f in flops} <= clocked

    def test_graph_is_acyclic_and_constrained(self, small_design):
        graph = TimingGraph(small_design)  # raises on loops
        assert graph.endpoints and graph.startpoints

    def test_utilization_below_requested(self, small_design, small_spec):
        assert small_design.utilization() <= small_spec.utilization + 0.05

    def test_ports_on_boundary(self, small_design):
        die = small_design.die
        for port in small_design.ports:
            on_edge = (
                abs(port.x - die.xl) < 1e-6
                or abs(port.x - die.xh) < 1e-6
                or abs(port.y - die.yl) < 1e-6
                or abs(port.y - die.yh) < 1e-6
            )
            assert on_edge, port.name

    def test_design_has_failing_endpoints_when_tight(self, small_design):
        engine = STAEngine(small_design)
        # Even at the centered initial placement the tight clock must bite.
        result = engine.update_timing()
        assert result.num_failing_endpoints > 0


class TestSuite:
    def test_suite_has_eight_designs(self):
        assert len(SB_MINI_SUITE) == 8
        assert benchmark_names()[0] == "sb_mini_1"

    def test_load_unknown_raises(self):
        with pytest.raises(KeyError):
            load_benchmark("superblue999")

    def test_load_with_scale(self):
        design = load_benchmark("sb_mini_18", scale=0.5)
        full = SB_MINI_SUITE["sb_mini_18"].num_cells
        assert abs(len(design.cells) - full * 0.5) < 0.2 * full

    def test_specs_are_distinct(self):
        sizes = {spec.num_cells for spec in SB_MINI_SUITE.values()}
        assert len(sizes) >= 6


class TestEvaluator:
    def test_reports_match_engine(self, fresh_small_design):
        evaluator = Evaluator(fresh_small_design)
        report = evaluator.evaluate()
        assert report.hpwl > 0
        assert report.tns <= 0
        assert report.wns <= 0
        assert report.num_endpoints > 0
        assert report.tns <= report.wns

    def test_one_shot_wrapper(self, fresh_small_design):
        report = evaluate_placement(fresh_small_design)
        assert report.design_name == fresh_small_design.name

    def test_overlap_detected_for_stacked_cells(self, tiny_design, tiny_constraints):
        design = tiny_design
        # Stack u1 and u2 on the same spot in the same row.
        design.instance("u1").x = 100.0
        design.instance("u2").x = 100.0
        design.instance("u1").y = 96.0
        design.instance("u2").y = 96.0
        report = Evaluator(design, tiny_constraints).evaluate()
        assert report.overlap_area > 0

    def test_out_of_die_detected(self, tiny_design, tiny_constraints):
        tiny_design.instance("u1").x = 1e6
        report = Evaluator(tiny_design, tiny_constraints).evaluate()
        assert report.out_of_die_cells >= 1

    def test_as_dict_keys(self, fresh_small_design):
        d = evaluate_placement(fresh_small_design).as_dict()
        assert {"design", "hpwl", "tns", "wns"} <= set(d)


class TestMetrics:
    def test_ratio_table(self):
        values = {
            "ours": {"a": 10.0, "b": 20.0},
            "base": {"a": 20.0, "b": 30.0},
        }
        ratios = ratio_table(values, "ours")
        assert ratios["base"]["a"] == pytest.approx(2.0)
        assert ratios["ours"]["b"] == pytest.approx(1.0)

    def test_average_ratio(self):
        values = {
            "ours": {"a": 10.0, "b": 20.0},
            "base": {"a": 20.0, "b": 60.0},
        }
        averages = average_ratio(values, "ours")
        assert averages["base"] == pytest.approx((2.0 + 3.0) / 2)
        assert averages["ours"] == pytest.approx(1.0)

    def test_zero_reference(self):
        values = {"ours": {"a": 0.0}, "base": {"a": 5.0}}
        ratios = ratio_table(values, "ours")
        assert ratios["base"]["a"] == float("inf")
        assert ratios["ours"]["a"] == 1.0

    def test_missing_reference_raises(self):
        with pytest.raises(KeyError):
            ratio_table({"base": {"a": 1.0}}, "ours")

    def test_format_table(self):
        text = format_table(["name", "value"], [["x", 1.234], ["yy", 5.0]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.23" in text


class TestXLGenerator:
    """The vectorized XL generator: deterministic, DAG-leveled, suite-wired."""

    def test_xl_names_registered(self):
        from repro.benchgen.suite import available_design_names

        names = available_design_names()
        assert "sb_xl_1" in names and "sb_xl_2" in names

    def test_xl_generation_is_deterministic(self):
        import numpy as np

        a = load_benchmark("sb_xl_1", scale=0.03)
        b = load_benchmark("sb_xl_1", scale=0.03)
        assert a.num_instances == b.num_instances
        assert a.num_pins == b.num_pins
        assert np.array_equal(a.core.net_pin_index, b.core.net_pin_index)
        assert a.clock_period == b.clock_period

    def test_xl_scales_and_levelizes(self):
        design = load_benchmark("sb_xl_2", scale=0.02)
        assert design.num_instances >= 5000
        # The combinational graph is a DAG: STA levelization must succeed
        # and produce the spec's depth plus register/IO stages.
        graph = TimingGraph(design)
        assert graph.max_level >= 10
        engine = STAEngine(design)
        result = engine.update_timing()
        assert result.arrival.shape == (design.num_pins,)
