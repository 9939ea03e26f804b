"""Tests for the timing substrate: delay models, graph, STA."""

import numpy as np
import pytest

from repro.timing import STAEngine, TimingConstraints, TimingGraph
from repro.timing.delay_model import WireRCModel

class TestWireRCModel:
    def test_matches_rc_tree_for_two_pin_net(self, tiny_design):
        model = WireRCModel(tiny_design)
        px, py = tiny_design.pin_positions()
        result = model.evaluate(px, py)
        net = tiny_design.net("n1")  # ff1/q -> u1/a
        driver = net.driver
        sink = net.sinks[0]
        lib = tiny_design.library
        length = abs(px[driver.index] - px[sink.index]) + abs(py[driver.index] - py[sink.index])
        expected = lib.wire_resistance_per_unit * length * (
            lib.wire_capacitance_per_unit * length / 2 + sink.capacitance
        )
        assert result.sink_delay[sink.index] == pytest.approx(expected, rel=1e-6)

    def test_driver_pins_have_zero_delay(self, tiny_design):
        model = WireRCModel(tiny_design)
        result = model.evaluate(*tiny_design.pin_positions())
        for net in tiny_design.nets:
            if net.driver is not None:
                assert result.sink_delay[net.driver.index] == 0.0

    def test_net_load_includes_sink_caps(self, tiny_design):
        model = WireRCModel(tiny_design)
        result = model.evaluate(*tiny_design.pin_positions())
        net = tiny_design.net("n1")
        assert result.net_load[net.index] >= net.sinks[0].capacitance

    def test_loads_shrink_when_cells_move_closer(self, tiny_design):
        model = WireRCModel(tiny_design)
        x, y = tiny_design.positions()
        far = model.evaluate(*tiny_design.pin_positions(x, y))
        x_close = x.copy()
        x_close[tiny_design.instance("u1").index] = tiny_design.instance("ff1").x + 5
        close = model.evaluate(*tiny_design.pin_positions(x_close, y))
        net = tiny_design.net("n1").index
        assert close.net_load[net] < far.net_load[net]


class TestTimingGraph:
    def test_clock_net_excluded(self, tiny_design):
        graph = TimingGraph(tiny_design)
        clk_net = tiny_design.net("nclk")
        assert clk_net.index in graph.clock_nets
        for arc in graph.arcs:
            assert arc.net_index != clk_net.index

    def test_arc_counts(self, tiny_design):
        graph = TimingGraph(tiny_design)
        # Net arcs: nin, n1, n2, n3, nq2 (clock net excluded) = 5.
        assert graph.num_net_arcs == 5
        # Cell arcs: 2 DFF ck->q + INV a->o + BUF a->o = 4.
        assert graph.num_cell_arcs == 4

    def test_startpoints_and_endpoints(self, tiny_design):
        graph = TimingGraph(tiny_design)
        start_names = {graph.pin_name(p) for p in graph.startpoints}
        end_names = {graph.pin_name(p) for p in graph.endpoints}
        assert start_names == {"in0", "clk", "ff1/ck", "ff2/ck"}
        assert end_names == {"out0", "ff1/d", "ff2/d"}

    def test_levelization_monotonic(self, small_design):
        graph = TimingGraph(small_design)
        for arc in graph.arcs:
            assert graph.level[arc.from_pin] < graph.level[arc.to_pin]

    def test_fanin_fanout_consistency(self, small_design):
        graph = TimingGraph(small_design)
        total_fanin = sum(graph.fanin_of(p).size for p in range(graph.num_pins))
        total_fanout = sum(graph.fanout_of(p).size for p in range(graph.num_pins))
        assert total_fanin == graph.num_arcs
        assert total_fanout == graph.num_arcs

    def test_describe_keys(self, small_design):
        info = TimingGraph(small_design).describe()
        assert info["num_endpoints"] > 0
        assert info["num_startpoints"] > 0
        assert info["max_level"] > 1

    def test_combinational_loop_detection(self, library):
        from repro.netlist import Design

        design = Design("loop", die=(0, 0, 100, 96), library=library)
        design.add_instance("u1", "INV_X1")
        design.add_instance("u2", "INV_X1")
        design.add_net("a")
        design.add_net("b")
        design.connect("a", "u1", "o")
        design.connect("a", "u2", "a")
        design.connect("b", "u2", "o")
        design.connect("b", "u1", "a")
        design.finalize()
        with pytest.raises(ValueError, match="loop"):
            TimingGraph(design)


class TestSTA:
    def test_register_path_is_critical(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        result = engine.update_timing()
        assert result.wns < 0
        assert result.tns <= result.wns
        slack_ff2_d = result.slack[tiny_design.pin("ff2/d").index]
        assert slack_ff2_d == pytest.approx(result.wns)

    def test_tns_sums_negative_endpoint_slacks(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        result = engine.update_timing()
        negative = result.endpoint_slack[result.endpoint_slack < 0]
        assert result.tns == pytest.approx(float(negative.sum()))

    def test_relaxed_clock_meets_timing(self, tiny_design):
        engine = STAEngine(tiny_design, TimingConstraints(clock_period=5000.0, clock_port="clk"))
        result = engine.update_timing()
        assert result.wns == 0.0
        assert result.tns == 0.0
        assert result.num_failing_endpoints == 0

    def test_slack_is_required_minus_arrival(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        result = engine.update_timing()
        assert np.allclose(result.slack, result.required - result.arrival)

    def test_input_delay_shifts_arrival(self, tiny_design):
        base = STAEngine(tiny_design, TimingConstraints(clock_period=100.0, clock_port="clk"))
        shifted = STAEngine(
            tiny_design,
            TimingConstraints(clock_period=100.0, clock_port="clk", input_delays={"in0": 30.0}),
        )
        pin = tiny_design.pin("ff1/d").index
        assert shifted.update_timing().arrival[pin] == pytest.approx(
            base.update_timing().arrival[pin] + 30.0
        )

    def test_moving_cells_apart_degrades_timing(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        x, y = tiny_design.positions()
        base = engine.update_timing(x, y).tns
        x_far = x.copy()
        x_far[tiny_design.instance("u1").index] = 0.0
        x_far[tiny_design.instance("u2").index] = 190.0
        worse = engine.update_timing(x_far, y).tns
        assert worse < base

    def test_failing_endpoints_sorted_worst_first(self, small_design):
        engine = STAEngine(small_design)
        result = engine.update_timing()
        failing = result.failing_endpoints
        slacks = [result.endpoint_slack_of(int(p)) for p in failing]
        assert slacks == sorted(slacks)

    def test_wns_is_min_endpoint_slack(self, small_design):
        engine = STAEngine(small_design)
        result = engine.update_timing()
        if result.num_failing_endpoints:
            assert result.wns == pytest.approx(float(result.endpoint_slack.min()))

    def test_summary_requires_update(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        with pytest.raises(RuntimeError):
            engine.summary()
        engine.update_timing()
        assert "wns" in engine.summary()

    def test_bad_constraints_rejected(self, tiny_design):
        with pytest.raises(ValueError):
            STAEngine(tiny_design, TimingConstraints(clock_period=-5.0))


_RESULT_FIELDS = ("arrival", "required", "slack", "arc_delay", "net_load", "endpoint_slack")


def _assert_results_identical(expected, actual):
    for name in _RESULT_FIELDS:
        np.testing.assert_array_equal(
            getattr(actual, name), getattr(expected, name), err_msg=name
        )
    assert actual.wns == expected.wns
    assert actual.tns == expected.tns


def _perturb(design, rng, x, y, max_cells=40, sigma=25.0):
    movable = design.arrays.movable_index
    k = int(rng.integers(1, min(max_cells, movable.size)))
    idx = rng.choice(movable, size=k, replace=False)
    x[idx] += rng.normal(0.0, sigma, size=k)
    y[idx] += rng.normal(0.0, sigma, size=k)


class TestSTAUpdates:
    def test_results_do_not_alias_between_updates(self, fresh_small_design):
        """A later update must not rewrite a result handed out earlier."""
        design = fresh_small_design
        engine = STAEngine(design)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        first = engine.update_timing(x, y)
        snapshot = {name: getattr(first, name).copy() for name in _RESULT_FIELDS}
        _perturb(design, np.random.default_rng(1), x, y)
        engine.update_timing(x, y)
        for name, values in snapshot.items():
            np.testing.assert_array_equal(getattr(first, name), values, err_msg=name)

    def test_constraints_swap_matches_fresh_engine(self, fresh_small_design):
        """Flipping constraints mid-session must be bitwise identical to a
        fresh engine built with the new constraints, and stay so over later
        updates."""
        design = fresh_small_design
        engine = STAEngine(design)
        rng = np.random.default_rng(11)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        engine.update_timing(x, y)
        _perturb(design, rng, x, y)
        engine.update_timing(x, y)

        tightened = TimingConstraints.from_design(design)
        tightened.clock_period = tightened.clock_period * 0.6
        engine.constraints = tightened  # property routes through set_constraints
        assert engine.last_result is None

        fresh = STAEngine(design, tightened)
        _assert_results_identical(fresh.update_timing(x, y), engine.update_timing(x, y))
        for _ in range(3):
            _perturb(design, rng, x, y)
            _assert_results_identical(fresh.update_timing(x, y), engine.update_timing(x, y))

    def test_constraints_swap_via_setter_equals_method(self, fresh_small_design):
        design = fresh_small_design
        a = STAEngine(design)
        b = STAEngine(design)
        new = TimingConstraints.from_design(design)
        new.clock_period *= 0.5
        a.constraints = new
        b.set_constraints(new)
        _assert_results_identical(b.update_timing(), a.update_timing())
        assert a.constraints is new


class TestSTAResultMemoization:
    def test_failing_endpoints_worst_slack_first(self, fresh_small_design):
        result = STAEngine(fresh_small_design).update_timing()
        failing = result.failing_endpoints
        slacks = [result.endpoint_slack_of(int(p)) for p in failing]
        assert slacks == sorted(slacks), "endpoints must come back worst-slack-first"
        assert all(s < 0 for s in slacks)

    def test_failing_endpoints_cached(self, fresh_small_design):
        result = STAEngine(fresh_small_design).update_timing()
        assert result.failing_endpoints is result.failing_endpoints

    def test_endpoint_slack_of_matches_arrays(self, fresh_small_design):
        result = STAEngine(fresh_small_design).update_timing()
        for position, pin in enumerate(result.endpoint_pins):
            assert result.endpoint_slack_of(int(pin)) == pytest.approx(
                float(result.endpoint_slack[position])
            )

    def test_endpoint_slack_of_raises_for_non_endpoint(self, fresh_small_design):
        result = STAEngine(fresh_small_design).update_timing()
        non_endpoint = set(range(fresh_small_design.num_pins)) - set(
            int(p) for p in result.endpoint_pins
        )
        with pytest.raises(KeyError):
            result.endpoint_slack_of(next(iter(non_endpoint)))
