"""Tests for the placement substrate: wirelength, density, optimizer, placer, legalization."""

import numpy as np
import pytest

from repro.feedback import PlacementFeedback
from repro.placement import (
    AbacusLegalizer,
    DetailedPlacer,
    ElectrostaticDensity,
    GlobalPlacer,
    GreedyLegalizer,
    NesterovOptimizer,
    PlacementConfig,
    WeightedAverageWirelength,
    hpwl_per_net,
    initial_placement,
    total_hpwl,
)
from repro.placement.initial import clamp_to_die


class TestHPWL:
    def test_matches_design_total(self, tiny_design):
        assert total_hpwl(tiny_design) == pytest.approx(tiny_design.total_hpwl(), rel=1e-9)

    def test_per_net_matches_object_model(self, small_design):
        per_net = hpwl_per_net(small_design)
        for net in small_design.nets[:50]:
            assert per_net[net.index] == pytest.approx(net.hpwl(), rel=1e-9)

    def test_net_weights_scale_total(self, tiny_design):
        weights = np.full(tiny_design.num_nets, 2.0)
        assert total_hpwl(tiny_design, net_weights=weights) == pytest.approx(
            2.0 * total_hpwl(tiny_design), rel=1e-9
        )

    def test_translation_invariance(self, small_design):
        x, y = small_design.positions()
        base = total_hpwl(small_design, x, y)
        assert total_hpwl(small_design, x + 7.0, y - 3.0) == pytest.approx(base, rel=1e-9)


class TestWeightedAverageWirelength:
    def test_upper_bounds_hpwl(self, small_design):
        x, y = small_design.positions()
        wa = WeightedAverageWirelength(small_design, gamma=5.0)
        result = wa.evaluate(x, y)
        # The WA model converges to HPWL from below as gamma -> 0; with a
        # finite gamma it underestimates but must stay within a few gammas
        # per net.
        hpwl = total_hpwl(small_design, x, y)
        assert result.value <= hpwl + 1e-6
        assert result.value >= hpwl - 4 * 5.0 * small_design.num_nets

    def test_smaller_gamma_is_tighter(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=3)
        loose = WeightedAverageWirelength(design, gamma=20.0).evaluate(x, y).value
        tight = WeightedAverageWirelength(design, gamma=1.0).evaluate(x, y).value
        hpwl = total_hpwl(design, x, y)
        assert abs(hpwl - tight) < abs(hpwl - loose)

    def test_gradient_matches_finite_difference(self, tiny_design):
        wa = WeightedAverageWirelength(tiny_design, gamma=2.0)
        x, y = tiny_design.positions()
        result = wa.evaluate(x, y)
        inst = tiny_design.instance("u1").index
        eps = 1e-4
        for grad, arr, which in [(result.grad_x, x, "x"), (result.grad_y, y, "y")]:
            plus = arr.copy()
            minus = arr.copy()
            plus[inst] += eps
            minus[inst] -= eps
            if which == "x":
                f_plus = wa.evaluate(plus, y).value
                f_minus = wa.evaluate(minus, y).value
            else:
                f_plus = wa.evaluate(x, plus).value
                f_minus = wa.evaluate(x, minus).value
            numeric = (f_plus - f_minus) / (2 * eps)
            assert grad[inst] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_fixed_instances_have_zero_gradient(self, tiny_design):
        wa = WeightedAverageWirelength(tiny_design)
        x, y = tiny_design.positions()
        result = wa.evaluate(x, y)
        for port in tiny_design.ports:
            assert result.grad_x[port.index] == 0.0
            assert result.grad_y[port.index] == 0.0

    def test_invalid_gamma_rejected(self, tiny_design):
        wa = WeightedAverageWirelength(tiny_design)
        with pytest.raises(ValueError):
            wa.set_gamma(0.0)

    def test_net_weight_scales_gradient(self, tiny_design):
        wa = WeightedAverageWirelength(tiny_design, gamma=2.0)
        x, y = tiny_design.positions()
        weights = np.ones(tiny_design.num_nets)
        weights[tiny_design.net("n1").index] = 3.0
        base = wa.evaluate(x, y)
        weighted = wa.evaluate(x, y, net_weights=weights)
        # The weighted gradient on cells of net n1 grows; others unchanged.
        u1 = tiny_design.instance("u1").index
        assert abs(weighted.grad_x[u1]) > abs(base.grad_x[u1]) - 1e-12


class TestDensity:
    def test_overflow_drops_when_spreading(self, fresh_small_design):
        design = fresh_small_design
        density = ElectrostaticDensity(design, target_density=1.0)
        x0, y0 = initial_placement(design, spread=0.02, seed=0)
        clustered = density.evaluate(x0, y0)
        x1, y1 = initial_placement(design, spread=0.5, seed=0)
        x1, y1 = clamp_to_die(design, x1, y1)
        spread = density.evaluate(x1, y1)
        assert spread.overflow < clustered.overflow

    def test_gradient_pushes_away_from_cluster(self, fresh_small_design):
        design = fresh_small_design
        density = ElectrostaticDensity(design)
        x, y = initial_placement(design, spread=0.02, seed=1)
        result = density.evaluate(x, y)
        movable = design.arrays.movable_index
        # The density force must be nonzero for a clustered placement.
        assert np.abs(result.grad_x[movable]).max() > 0

    def test_fixed_cells_have_zero_gradient(self, fresh_small_design):
        design = fresh_small_design
        density = ElectrostaticDensity(design)
        x, y = initial_placement(design, seed=1)
        result = density.evaluate(x, y)
        fixed = np.nonzero(design.arrays.inst_fixed)[0]
        assert np.all(result.grad_x[fixed] == 0.0)

    def test_overflow_nonnegative(self, fresh_small_design):
        design = fresh_small_design
        density = ElectrostaticDensity(design)
        x, y = initial_placement(design, seed=2)
        assert density.overflow(x, y) >= 0.0

    def test_uniform_placement_has_low_overflow(self, fresh_small_design):
        design = fresh_small_design
        density = ElectrostaticDensity(design, target_density=1.0)
        arrays = design.arrays
        die = design.die
        movable = arrays.movable_index
        rng = np.random.default_rng(0)
        x, y = design.positions()
        x[movable] = rng.uniform(die.xl, die.xh - arrays.inst_width[movable])
        y[movable] = rng.uniform(die.yl, die.yh - arrays.inst_height[movable])
        assert density.overflow(x, y) < 0.35


class TestNesterov:
    def test_minimizes_quadratic(self):
        target = np.array([3.0, -2.0, 5.0])
        x0 = np.zeros(3)
        optimizer = NesterovOptimizer(
            x0, np.zeros(3), movable_mask=np.ones(3, dtype=bool),
            min_step=1e-3, max_step=1.0,
        )

        def grad(x, y):
            return 2 * (x - target), np.zeros_like(y)

        for _ in range(200):
            x, _ = optimizer.step_once(grad)
        assert np.allclose(x, target, atol=1e-2)

    def test_fixed_mask_not_moved(self):
        mask = np.array([True, False])
        optimizer = NesterovOptimizer(
            np.zeros(2), np.zeros(2), movable_mask=mask, min_step=0.01, max_step=0.5
        )

        def grad(x, y):
            return np.ones_like(x), np.ones_like(y)

        x, y = optimizer.step_once(grad)
        assert x[1] == 0.0 and y[1] == 0.0
        assert x[0] != 0.0

    def test_invalid_steps_rejected(self):
        with pytest.raises(ValueError):
            NesterovOptimizer(np.zeros(1), np.zeros(1), movable_mask=np.ones(1, bool),
                              min_step=1.0, max_step=0.5)

    def test_reset_momentum(self):
        optimizer = NesterovOptimizer(np.zeros(2), np.zeros(2),
                                      movable_mask=np.ones(2, bool),
                                      min_step=0.01, max_step=0.5)
        optimizer.step_once(lambda x, y: (np.ones_like(x), np.ones_like(y)))
        optimizer.reset_momentum()
        assert optimizer.state.momentum == 1.0


class TestInitialPlacement:
    def test_inside_die(self, fresh_small_design):
        design = fresh_small_design
        x, y = initial_placement(design, seed=0)
        arrays = design.arrays
        movable = arrays.movable_index
        die = design.die
        assert np.all(x[movable] >= die.xl - 1e-9)
        assert np.all(x[movable] + arrays.inst_width[movable] <= die.xh + 1e-9)
        assert np.all(y[movable] + arrays.inst_height[movable] <= die.yh + 1e-9)

    def test_deterministic(self, fresh_small_design):
        x1, y1 = initial_placement(fresh_small_design, seed=4)
        x2, y2 = initial_placement(fresh_small_design, seed=4)
        assert np.allclose(x1, x2) and np.allclose(y1, y2)

    def test_fixed_cells_untouched(self, fresh_small_design):
        design = fresh_small_design
        before = {p.name: (p.x, p.y) for p in design.ports}
        x, y = initial_placement(design, seed=0)
        for port in design.ports:
            assert (x[port.index], y[port.index]) == before[port.name]


class TestLegalization:
    @pytest.fixture()
    def globally_placed(self, fresh_small_design):
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=200, seed=0))
        result = placer.run()
        return design, result

    def test_abacus_no_overlaps(self, globally_placed):
        design, result = globally_placed
        legal = AbacusLegalizer(design).legalize(result.x, result.y)
        assert legal.success
        from repro.evaluation.evaluator import _row_overlap_area

        assert _row_overlap_area(design, legal.x, legal.y) == pytest.approx(0.0, abs=1e-6)

    def test_abacus_rows_and_sites(self, globally_placed):
        design, result = globally_placed
        legal = AbacusLegalizer(design).legalize(result.x, result.y)
        rows_y = {row.y for row in design.rows()}
        movable = design.arrays.movable_index
        for idx in movable:
            assert float(legal.y[idx]) in rows_y
            offset = (legal.x[idx] - design.die.xl) / design.site_width
            assert abs(offset - round(offset)) < 1e-6

    def test_abacus_stays_inside_die(self, globally_placed):
        design, result = globally_placed
        legal = AbacusLegalizer(design).legalize(result.x, result.y)
        arrays = design.arrays
        movable = arrays.movable_index
        assert np.all(legal.x[movable] + arrays.inst_width[movable] <= design.die.xh + 1e-6)
        assert np.all(legal.x[movable] >= design.die.xl - 1e-6)

    def test_greedy_no_overlaps(self, globally_placed):
        design, result = globally_placed
        legal = GreedyLegalizer(design).legalize(result.x, result.y)
        assert legal.success
        from repro.evaluation.evaluator import _row_overlap_area

        assert _row_overlap_area(design, legal.x, legal.y) == pytest.approx(0.0, abs=1e-6)

    def test_abacus_displacement_not_worse_than_greedy(self, globally_placed):
        design, result = globally_placed
        abacus = AbacusLegalizer(design).legalize(result.x, result.y)
        greedy = GreedyLegalizer(design).legalize(result.x, result.y)
        assert abacus.total_displacement <= greedy.total_displacement * 1.5

    def test_apply_writes_positions(self, globally_placed):
        design, result = globally_placed
        legalizer = AbacusLegalizer(design)
        legal = legalizer.legalize(result.x, result.y)
        legalizer.apply(legal)
        x, y = design.positions()
        assert np.allclose(x, legal.x)

    def test_detailed_placement_does_not_increase_hpwl(self, globally_placed):
        design, result = globally_placed
        legal = AbacusLegalizer(design).legalize(result.x, result.y)
        design.set_positions(legal.x, legal.y)
        before = total_hpwl(design)
        detailed = DetailedPlacer(design, max_passes=1)
        x, y, swaps = detailed.refine()
        after = total_hpwl(design, x, y)
        assert after <= before + 1e-6


class TestGlobalPlacer:
    def test_converges_and_reduces_overflow(self, fresh_small_design):
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=250, seed=0))
        result = placer.run()
        assert result.overflow <= 0.15
        assert result.iterations <= 250
        assert len(result.history.hpwl) == result.iterations

    def test_history_records_metrics(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design, PlacementConfig(max_iterations=60, seed=0))
        result = placer.run()
        assert len(result.history.overflow) == 60
        assert all(v >= 0 for v in result.history.overflow)

    def test_callback_invoked(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design, PlacementConfig(max_iterations=30, seed=0))
        seen = []

        class Probe(PlacementFeedback):
            def update(self, placer, iteration, x, y):
                seen.append(iteration)

        placer.add_feedback(Probe())
        placer.run()
        assert seen == list(range(1, 31))

    def test_positions_written_back(self, fresh_small_design):
        design = fresh_small_design
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=50, seed=0))
        result = placer.run()
        x, y = design.positions()
        assert np.allclose(x, result.x)

    def test_net_weight_validation(self, fresh_small_design):
        placer = GlobalPlacer(fresh_small_design)
        with pytest.raises(ValueError):
            placer.set_net_weights(np.ones(3))
