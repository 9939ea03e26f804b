"""Tests for the paper's contribution: losses, pin-pair set, attraction term, extractor."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CriticalPathExtractor,
    ExtractionConfig,
    HPWLPairLoss,
    LinearLoss,
    PinAttractionObjective,
    PinPairSet,
    QuadraticLoss,
    SinglePathOptimizer,
    make_loss,
)
from repro.timing import STAEngine, report_timing_endpoint

finite = st.floats(-500, 500, allow_nan=False)


class TestLosses:
    def test_quadratic_value(self):
        loss = QuadraticLoss()
        value, gdx, gdy = loss.evaluate(np.array([3.0]), np.array([4.0]), np.array([2.0]))
        assert value == pytest.approx(2.0 * 25.0)
        assert gdx[0] == pytest.approx(2 * 2.0 * 3.0)
        assert gdy[0] == pytest.approx(2 * 2.0 * 4.0)

    def test_linear_value(self):
        loss = LinearLoss(epsilon=1e-9)
        value, gdx, gdy = loss.evaluate(np.array([3.0]), np.array([4.0]), np.array([1.0]))
        assert value == pytest.approx(5.0, rel=1e-6)
        assert np.hypot(gdx[0], gdy[0]) == pytest.approx(1.0, rel=1e-6)

    def test_hpwl_value(self):
        loss = HPWLPairLoss(epsilon=1e-9)
        value, gdx, gdy = loss.evaluate(np.array([3.0]), np.array([-4.0]), np.array([1.0]))
        assert value == pytest.approx(7.0, rel=1e-6)
        assert gdx[0] == pytest.approx(1.0, rel=1e-5)
        assert gdy[0] == pytest.approx(-1.0, rel=1e-5)

    def test_make_loss_factory(self):
        assert isinstance(make_loss("quadratic"), QuadraticLoss)
        assert isinstance(make_loss("linear"), LinearLoss)
        assert isinstance(make_loss("hpwl"), HPWLPairLoss)
        with pytest.raises(ValueError):
            make_loss("cubic")

    def test_invalid_epsilon(self):
        with pytest.raises(ValueError):
            LinearLoss(epsilon=0.0)
        with pytest.raises(ValueError):
            HPWLPairLoss(epsilon=-1.0)

    @given(finite, finite, st.floats(0.1, 10))
    @settings(max_examples=50)
    def test_quadratic_gradient_matches_finite_difference(self, dx, dy, w):
        loss = QuadraticLoss()
        eps = 1e-4
        value, gdx, gdy = loss.evaluate(np.array([dx]), np.array([dy]), np.array([w]))
        plus, _, _ = loss.evaluate(np.array([dx + eps]), np.array([dy]), np.array([w]))
        minus, _, _ = loss.evaluate(np.array([dx - eps]), np.array([dy]), np.array([w]))
        assert gdx[0] == pytest.approx((plus - minus) / (2 * eps), rel=1e-3, abs=1e-3)

    @given(finite, finite, st.floats(0.1, 10))
    @settings(max_examples=50)
    def test_losses_nonnegative_and_zero_at_origin(self, dx, dy, w):
        for loss in (QuadraticLoss(), LinearLoss(), HPWLPairLoss()):
            value, _, _ = loss.evaluate(np.array([dx]), np.array([dy]), np.array([w]))
            assert value >= 0
            zero, _, _ = loss.evaluate(np.array([0.0]), np.array([0.0]), np.array([w]))
            assert zero <= value + 1e-9

    @given(finite, finite)
    @settings(max_examples=50)
    def test_quadratic_dominates_linear_for_long_distances(self, dx, dy):
        if abs(dx) + abs(dy) < 2.0:
            return
        w = np.array([1.0])
        quad, _, _ = QuadraticLoss().evaluate(np.array([dx]), np.array([dy]), w)
        lin, _, _ = LinearLoss().evaluate(np.array([dx]), np.array([dy]), w)
        assert quad >= lin - 1e-6


class TestPinPairSet:
    def _fake_paths(self, engine):
        result = engine.update_timing()
        paths, _ = report_timing_endpoint(engine, 10, 1, failing_only=True)
        return paths, result

    def test_new_pairs_get_w0(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        paths, result = self._fake_paths(engine)
        pairs = PinPairSet(w0=10.0, w1=0.2)
        added = pairs.update_from_paths(paths, engine.graph, result.wns)
        assert added == len(pairs) > 0
        for _, weight in pairs.items():
            assert weight == 10.0

    def test_repeated_update_accumulates_with_share(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        paths, result = self._fake_paths(engine)
        pairs = PinPairSet(w0=10.0, w1=0.2)
        pairs.update_from_paths(paths, engine.graph, result.wns)
        pairs.update_from_paths(paths, engine.graph, result.wns)
        # The worst path has share 1.0, so its pairs gained exactly w1.
        worst_pairs = paths[0].pin_pairs(engine.graph)
        for pair in worst_pairs:
            assert pairs.weight(pair) == pytest.approx(10.0 + 0.2)

    def test_positive_slack_paths_ignored(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        result = engine.update_timing()
        paths, _ = report_timing_endpoint(engine, 10, 1, failing_only=False)
        positive = [p for p in paths if p.slack >= 0]
        pairs = PinPairSet()
        pairs.update_from_paths(positive, engine.graph, result.wns)
        assert len(pairs) == 0

    def test_max_weight_cap(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        paths, result = self._fake_paths(engine)
        pairs = PinPairSet(w0=10.0, w1=1.0, max_weight=10.5)
        for _ in range(5):
            pairs.update_from_paths(paths, engine.graph, result.wns)
        assert max(w for _, w in pairs.items()) <= 10.5

    def test_as_arrays_shapes(self, tiny_design, tiny_constraints):
        engine = STAEngine(tiny_design, tiny_constraints)
        paths, result = self._fake_paths(engine)
        pairs = PinPairSet()
        pairs.update_from_paths(paths, engine.graph, result.wns)
        pin_i, pin_j, weights = pairs.as_arrays()
        assert pin_i.shape == pin_j.shape == weights.shape
        assert pin_i.size == len(pairs)

    def test_empty_set_arrays(self):
        pin_i, pin_j, weights = PinPairSet().as_arrays()
        assert pin_i.size == pin_j.size == weights.size == 0

    def test_set_weights_and_clear(self):
        pairs = PinPairSet()
        pairs.set_weights({(1, 2): 3.0})
        assert (1, 2) in pairs
        assert pairs.total_weight() == 3.0
        pairs.clear()
        assert len(pairs) == 0


class TestPinAttractionObjective:
    def _attraction(self, design, constraints):
        engine = STAEngine(design, constraints)
        result = engine.update_timing()
        paths, _ = report_timing_endpoint(engine, 10, 1, failing_only=True)
        pairs = PinPairSet()
        pairs.update_from_paths(paths, engine.graph, result.wns)
        return PinAttractionObjective(design, pairs, beta=1.0), pairs

    def test_empty_pairs_zero_gradient(self, tiny_design):
        objective = PinAttractionObjective(tiny_design)
        x, y = tiny_design.positions()
        value, gx, gy = objective.evaluate(x, y)
        assert value == 0.0
        assert np.all(gx == 0) and np.all(gy == 0)

    def test_gradient_matches_finite_difference(self, tiny_design, tiny_constraints):
        objective, _ = self._attraction(tiny_design, tiny_constraints)
        x, y = tiny_design.positions()
        value, gx, gy = objective.evaluate(x, y)
        inst = tiny_design.instance("u1").index
        eps = 1e-4
        xp = x.copy(); xp[inst] += eps
        xm = x.copy(); xm[inst] -= eps
        numeric = (objective.evaluate(xp, y)[0] - objective.evaluate(xm, y)[0]) / (2 * eps)
        assert gx[inst] == pytest.approx(numeric, rel=1e-4, abs=1e-6)

    def test_gradient_pulls_pins_together(self, tiny_design, tiny_constraints):
        objective, _ = self._attraction(tiny_design, tiny_constraints)
        x, y = tiny_design.positions()
        _, gx, _ = objective.evaluate(x, y)
        # u1 sits between ff1 and u2 on the critical path; moving with the
        # negative gradient must reduce the loss.
        value0 = objective.evaluate(x, y)[0]
        step = 1.0
        x_new = x - step * gx / (np.abs(gx).max() + 1e-12)
        assert objective.evaluate(x_new, y)[0] < value0

    def test_fixed_instances_zero_gradient(self, tiny_design, tiny_constraints):
        objective, _ = self._attraction(tiny_design, tiny_constraints)
        x, y = tiny_design.positions()
        _, gx, gy = objective.evaluate(x, y)
        for port in tiny_design.ports:
            assert gx[port.index] == 0.0 and gy[port.index] == 0.0

    def test_snapshot_populated(self, tiny_design, tiny_constraints):
        objective, pairs = self._attraction(tiny_design, tiny_constraints)
        objective.evaluate(*tiny_design.positions())
        assert objective.last_snapshot.num_pairs == len(pairs)
        assert objective.last_snapshot.value > 0


class TestCriticalPathExtractor:
    def test_endpoint_mode_covers_all_failing(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        extractor = CriticalPathExtractor(engine, ExtractionConfig(mode="endpoint"))
        paths, stats = extractor.extract(result)
        assert stats.num_endpoints == result.num_failing_endpoints
        assert stats.num_paths == result.num_failing_endpoints

    def test_report_timing_mode(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        extractor = CriticalPathExtractor(
            engine, ExtractionConfig(mode="report_timing", endpoint_multiplier=1)
        )
        paths, stats = extractor.extract(result)
        assert stats.complexity == "O(n^2)"
        assert stats.num_endpoints <= result.num_failing_endpoints

    def test_max_endpoints_cap(self, fresh_small_design):
        engine = STAEngine(fresh_small_design)
        result = engine.update_timing()
        extractor = CriticalPathExtractor(engine, ExtractionConfig(max_endpoints=3))
        _, stats = extractor.extract(result)
        assert stats.num_endpoints <= 3

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ExtractionConfig(mode="bogus")
        with pytest.raises(ValueError):
            ExtractionConfig(paths_per_endpoint=0)

    def test_describe(self):
        assert ExtractionConfig().describe() == "report_timing_endpoint(n,1)"
        assert (
            ExtractionConfig(mode="report_timing", endpoint_multiplier=10).describe()
            == "report_timing(n*10)"
        )


class TestSinglePathOptimizer:
    @staticmethod
    def _scatter(design):
        """Give the design a coarse (scattered) placement, like Fig. 3's input."""
        from repro.placement import initial_placement

        x, y = initial_placement(design, spread=0.45, seed=9)
        design.set_positions(x, y)
        return design

    def test_quadratic_shortens_and_equalizes_path(self, fresh_small_design):
        optimizer = SinglePathOptimizer(self._scatter(fresh_small_design))
        path = optimizer.worst_path()
        outcome = optimizer.optimize(path, "quadratic", max_iterations=150)
        assert outcome.path_length_after < outcome.path_length_before
        assert outcome.improvement == pytest.approx(
            outcome.slack_after - outcome.slack_before
        )

    def test_slack_history_tracking(self, fresh_small_design):
        optimizer = SinglePathOptimizer(self._scatter(fresh_small_design))
        path = optimizer.worst_path()
        outcome = optimizer.optimize(
            path, "quadratic", max_iterations=60, track_slack_every=10
        )
        assert outcome.slack_history
        iterations = [i for i, _ in outcome.slack_history]
        assert iterations == sorted(iterations)
        assert all(i % 10 == 0 for i in iterations)
        # The last sample at the final iterate agrees with the result.
        if iterations[-1] == outcome.iterations:
            assert outcome.slack_history[-1][1] == pytest.approx(
                outcome.slack_after
            )

    def test_compare_losses_returns_all(self, fresh_small_design):
        optimizer = SinglePathOptimizer(self._scatter(fresh_small_design))
        results = optimizer.compare_losses(max_iterations=80)
        assert [r.loss_name for r in results] == ["hpwl", "linear", "quadratic"]
        by_name = {r.loss_name: r for r in results}
        for r in results:
            assert r.iterations > 0
        # The quadratic loss yields the shortest path geometry of the three
        # (its slack ordering depends on the wire/cell delay balance; see
        # benchmarks/test_fig3_loss_comparison.py and EXPERIMENTS.md).
        assert by_name["quadratic"].path_length_after <= by_name["linear"].path_length_after + 1e-6
