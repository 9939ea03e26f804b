"""GP inner-loop overhaul tests: scatter plans, iteration arena, WA kernel.

PR 7's contract is that every rewrite of the global-place gradient pipeline
is *bitwise* neutral: the plan-based wirelength/density paths must match the
legacy ``np.add.at`` / ``np.maximum.at`` reference paths (kept as
``_reference_*`` helpers) bit for bit, and the arena/optimizer buffer reuse
and the DCT thread count must not change a single bit of the optimization
trajectory.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.suite import load_benchmark
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.placement.arena import IterationArena
from repro.placement.density import ElectrostaticDensity, auto_bin_count
from repro.placement.global_placer import GlobalPlacer, PlacementConfig
from repro.placement.initial import initial_placement
from repro.placement.objective import PlacementObjective
from repro.placement.wirelength import WeightedAverageWirelength

DESIGNS = ("sb_mini_18", "sb_mini_4", "sb_cong_1")


def _design(name="sb_mini_18", scale=0.5):
    return load_benchmark(name, scale=scale)


def _positions(design, seed):
    rng = np.random.default_rng(seed)
    x, y = initial_placement(design, seed=seed)
    x += rng.normal(0.0, 2.5, x.size)
    y += rng.normal(0.0, 2.5, y.size)
    return x, y


# ----------------------------------------------------------------------
# Scatter-plan bitwise properties
# ----------------------------------------------------------------------
class TestWirelengthPlan:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.8),
        gamma=st.floats(0.5, 25.0),
        seed=st.integers(0, 2**31 - 1),
        weighted=st.booleans(),
    )
    def test_plan_matches_reference_bitwise(self, name, scale, gamma, seed, weighted):
        design = _design(name, scale)
        x, y = _positions(design, seed)
        model = WeightedAverageWirelength(design, gamma=gamma)
        weights = None
        if weighted:
            weights = np.random.default_rng(seed).uniform(0.25, 4.0, design.num_nets)
        plan = model.evaluate(x, y, net_weights=weights)
        ref = model._reference_evaluate(x, y, net_weights=weights)
        assert plan.value == ref.value
        assert np.array_equal(plan.grad_x, ref.grad_x)
        assert np.array_equal(plan.grad_y, ref.grad_y)

    def test_valid_net_filter_matches_isin(self):
        design = _design("sb_mini_18", 0.5)
        core = design.arrays
        model = WeightedAverageWirelength(design)
        counts = np.diff(core.net_pin_offsets)
        valid_nets = np.nonzero(counts >= 2)[0]
        # The O(P) count-lookup mask must select exactly the pins the old
        # O(P log N) np.isin filter selected.
        isin_mask = np.isin(core.csr_net, valid_nets)
        assert np.array_equal(model._csr_pins, core.net_pin_index[isin_mask])
        assert np.array_equal(model._csr_net, core.csr_net[isin_mask])
        assert np.array_equal(model._valid_nets, valid_nets)

    def test_directional_matches_reference_directional_bitwise(self):
        # Direct pairing of the staged axis kernel with its legacy twin
        # (the whole-evaluate parity test above covers them only jointly).
        design = _design("sb_mini_18", 0.5)
        x, y = _positions(design, 7)
        model = WeightedAverageWirelength(design, gamma=3.0)
        weights = np.random.default_rng(7).uniform(0.25, 4.0, design.num_nets)
        pin_x, pin_y = design.arrays.pin_positions(x, y)
        for coord in (pin_x, pin_y):
            c = coord[model._csr_pins]
            value, grad = model._directional(c, weights, axis="x")
            ref_value, ref_grad = model._reference_directional(coord, weights)
            assert value == ref_value
            assert np.array_equal(grad, ref_grad)

    def test_arena_reuse_is_bitwise_neutral_and_allocation_free(self):
        design = _design("sb_mini_4", 0.5)
        x, y = _positions(design, 7)
        bare = WeightedAverageWirelength(design, gamma=3.0)
        pooled = WeightedAverageWirelength(design, gamma=3.0)
        pooled.arena = IterationArena()
        expect = bare.evaluate(x, y)
        for _ in range(3):
            got = pooled.evaluate(x, y)
            assert got.value == expect.value
            assert np.array_equal(got.grad_x, expect.grad_x)
            assert np.array_equal(got.grad_y, expect.grad_y)
        steady = pooled.arena.allocations
        pooled.evaluate(x, y)
        assert pooled.arena.allocations == steady

    def test_precomputed_pin_positions_match_internal_gather(self):
        design = _design("sb_mini_18", 0.4)
        x, y = _positions(design, 11)
        model = WeightedAverageWirelength(design, gamma=4.0)
        pin_x, pin_y = design.arrays.pin_positions(x, y)
        a = model.evaluate(x, y)
        b = model.evaluate(x, y, pin_x=pin_x, pin_y=pin_y)
        assert a.value == b.value
        assert np.array_equal(a.grad_x, b.grad_x)
        assert np.array_equal(a.grad_y, b.grad_y)

    @pytest.mark.parametrize("name", DESIGNS)
    def test_unit_weights_skip_is_bitwise_neutral(self, name):
        # net_weights=None takes the unweighted path (no per-pin weight
        # multiply); it must match an explicit all-ones array, which takes
        # the weighted path, bit for bit.
        design = _design(name, 0.5)
        x, y = _positions(design, 5)
        ones = np.ones(design.num_nets)
        model = WeightedAverageWirelength(design, gamma=3.0)
        a = model.evaluate(x, y)
        b = model.evaluate(x, y, net_weights=ones)
        c = model.evaluate(x, y, net_weights=model.unit_weights)
        for got in (b, c):
            assert got.value == a.value
            assert np.array_equal(got.grad_x, a.grad_x)
            assert np.array_equal(got.grad_y, a.grad_y)

    def test_unit_weights_are_read_only(self):
        model = WeightedAverageWirelength(_design("sb_mini_4", 0.4))
        with pytest.raises(ValueError):
            model.unit_weights[0] = 2.0

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_hpwl_plan_matches_reference_bitwise(self, name, scale, seed):
        # The planned hpwl_per_net must reproduce the legacy reduceat-plus-
        # fallback pass bit for bit, including the historical grouping split
        # between clean-segment and fallback nets.
        design = _design(name, scale)
        core = design.arrays
        x, y = _positions(design, seed)
        plan = core.hpwl_per_net(x, y)
        ref = core._reference_hpwl_per_net(x, y)
        assert np.array_equal(plan, ref)


class TestDensityPlan:
    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_splat_matches_reference_bitwise(self, name, scale, seed):
        design = _design(name, scale)
        x, y = _positions(design, seed)
        model = ElectrostaticDensity(design)
        assert np.array_equal(model._splat(x, y), model._reference_splat(x, y))

    @staticmethod
    def _reference_gradient(model, x, y):
        """Density gradient through the legacy splat and sampler."""
        density = model._reference_splat(x, y)
        _, ex, ey = model._solve_field(density)
        grad_x = np.zeros(model.core.num_instances)
        grad_y = np.zeros(model.core.num_instances)
        grad_x[model._movable] = -model._area * model._reference_sample_field(ex, x, y)
        grad_y[model._movable] = -model._area * model._reference_sample_field(ey, x, y)
        return grad_x, grad_y

    @settings(max_examples=12, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.8),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sample_field_matches_reference_bitwise(self, name, scale, seed):
        # The once-per-evaluate geometry and flat-take _sample_field must
        # reproduce the legacy per-field _reference_sample_field bit for
        # bit.
        design = _design(name, scale)
        x, y = _positions(design, seed)
        model = ElectrostaticDensity(design)
        got = model.evaluate(x, y)
        ref_x, ref_y = self._reference_gradient(model, x, y)
        assert np.array_equal(got.grad_x, ref_x)
        assert np.array_equal(got.grad_y, ref_y)

    def test_sample_field_direct_pairing(self):
        # Direct pairing of the staged sampler with its legacy twin on one
        # field (the evaluate-level test above covers them jointly).
        design = _design("sb_mini_18", 0.5)
        x, y = _positions(design, 9)
        model = ElectrostaticDensity(design)
        _, ex, _ = model._solve_field(model._splat(x, y))
        sample = model._sample_field(ex, model._stage_geometry(x, y))
        assert np.array_equal(sample, model._reference_sample_field(ex, x, y))

    def test_sampler_reads_fresh_geometry_after_area_scale(self):
        # set_area_scale moves every cell center; the second evaluate must
        # sample at the new geometry, not the previous evaluate's.
        design = _design("sb_cong_1", 0.5)
        x, y = _positions(design, 4)
        model = ElectrostaticDensity(design)
        model.evaluate(x, y)
        scale = np.random.default_rng(4).uniform(1.0, 2.5, design.num_instances)
        model.set_area_scale(scale)
        got = model.evaluate(x, y)
        ref_x, ref_y = self._reference_gradient(model, x, y)
        assert np.array_equal(got.grad_x, ref_x)
        assert np.array_equal(got.grad_y, ref_y)

    def test_sampler_reads_fresh_geometry_under_reference_splat(self):
        # With the legacy splat swapped in (the full-placement parity seam)
        # nothing stages geometry during the splat; evaluate must stage it
        # itself instead of sampling the last plan splat's corners.
        design = _design("sb_mini_18", 0.5)
        x0, y0 = _positions(design, 1)
        x, y = _positions(design, 2)
        model = ElectrostaticDensity(design)
        model.evaluate(x0, y0)
        model._splat = model._reference_splat
        got = model.evaluate(x, y)
        ref_x, ref_y = self._reference_gradient(model, x, y)
        assert np.array_equal(got.grad_x, ref_x)
        assert np.array_equal(got.grad_y, ref_y)

    def test_solve_field_matches_legacy_np_gradient(self):
        from scipy import fft as spfft

        design = _design("sb_mini_18", 0.5)
        x, y = _positions(design, 3)
        model = ElectrostaticDensity(design)
        density = model._splat(x, y)
        psi, ex, ey = model._solve_field(density)
        rho = density / model.bin_area
        rho = rho - rho.mean()
        psi_ref = spfft.idctn(
            spfft.dctn(rho, type=2, norm="ortho") * model._inv_denom,
            type=2,
            norm="ortho",
        )
        gu, gv = np.gradient(psi_ref, model.bin_w, model.bin_h)
        assert np.array_equal(psi, psi_ref)
        assert np.array_equal(ex, -gu)
        assert np.array_equal(ey, -gv)


class TestExtraTermPlans:
    def test_pin_attraction_matches_reference_bitwise(self):
        design = _design("sb_mini_18", 0.5)
        x, y = _positions(design, 5)
        rng = np.random.default_rng(5)
        pairs = PinPairSet()
        num_pins = design.arrays.num_pins
        chosen = rng.choice(num_pins, size=(64, 2), replace=False)
        pairs.set_weights(
            {(int(i), int(j)): float(w) for (i, j), w in zip(chosen, rng.uniform(1, 8, 64))}
        )
        term = PinAttractionObjective(design, pairs)
        v1, gx1, gy1 = term.evaluate(x, y)
        v2, gx2, gy2 = term._reference_evaluate(x, y)
        assert v1 == v2
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gy1, gy2)

    def test_evaluate_extra_out_buffers_bitwise(self):
        design = _design("sb_mini_4", 0.5)
        x, y = _positions(design, 9)
        pairs = PinPairSet()
        pairs.set_weights({(0, 1): 3.0, (2, 5): 1.5})
        objective = PlacementObjective()
        objective.add_term(PinAttractionObjective(design, pairs))
        n = design.arrays.num_instances
        values_a, gx_a, gy_a = objective.evaluate_extra(x, y, n)
        out_x = np.full(n, 123.0)  # stale garbage must be zeroed
        out_y = np.full(n, -7.0)
        values_b, gx_b, gy_b = objective.evaluate_extra(x, y, n, out_x=out_x, out_y=out_y)
        assert values_a == values_b
        assert gx_b is out_x and gy_b is out_y
        assert np.array_equal(gx_a, gx_b)
        assert np.array_equal(gy_a, gy_b)


# ----------------------------------------------------------------------
# auto_bin_count: existing tiers pinned, XL unclamped
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "cells,expected",
    [
        (700, 16),  # sb_mini_18
        (900, 16),  # sb_mini_1
        (2000, 16),  # sb_mini_10
        (4000, 32),
        (100_000, 128),  # sb_xl_1
        (250_000, 256),  # sb_xl_2
        (1_000_000, 512),  # 1M tier: the old clamp froze this at 256
    ],
)
def test_auto_bin_count_tiers(cells, expected):
    assert auto_bin_count(cells) == expected


# ----------------------------------------------------------------------
# Optimizer buffer reuse and full-loop equivalence
# ----------------------------------------------------------------------
class TestInnerLoopBitwise:
    def test_full_placement_matches_legacy_paths(self):
        """End-to-end: plan-based placer == placer forced onto legacy paths."""
        config = PlacementConfig(max_iterations=40, min_iterations=10, seed=0)
        plan = GlobalPlacer(load_benchmark("sb_mini_4", scale=0.4), config)
        legacy = GlobalPlacer(load_benchmark("sb_mini_4", scale=0.4), config)
        legacy.wirelength.evaluate = legacy.wirelength._reference_evaluate
        legacy.density._splat = legacy.density._reference_splat
        a = plan.run()
        b = legacy.run()
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert a.hpwl == b.hpwl
        assert a.history.hpwl == b.history.hpwl

    def test_explicit_unit_net_weights_match_default_run(self):
        # The default placer evaluates its initial weights without the
        # per-pin multiply; explicitly set all-ones weights take the
        # multiply path.  Both trajectories must agree bit for bit.
        config = PlacementConfig(max_iterations=30, min_iterations=10, seed=0)
        default = GlobalPlacer(load_benchmark("sb_mini_4", scale=0.4), config)
        assert default.net_weights is default.wirelength.unit_weights
        explicit = GlobalPlacer(load_benchmark("sb_mini_4", scale=0.4), config)
        explicit.set_net_weights(np.ones(explicit.design.num_nets))
        assert explicit.net_weights is not explicit.wirelength.unit_weights
        a = default.run()
        b = explicit.run()
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.y, b.y)
        assert a.history.hpwl == b.history.hpwl

    def test_kernel_workers_is_bitwise_neutral(self):
        # kernel_workers only threads the Poisson-solve DCTs; each row
        # transform is computed identically, so the run is bit-identical.
        def run(workers):
            config = PlacementConfig(
                max_iterations=30, min_iterations=10, seed=0, kernel_workers=workers
            )
            placer = GlobalPlacer(load_benchmark("sb_mini_4"), config)
            assert placer.density.workers == workers
            return placer.run()

        serial, threaded = run(0), run(2)
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)
        assert serial.history.hpwl == threaded.history.hpwl

    def test_kernel_workers_validation(self):
        with pytest.raises(ValueError, match="kernel_workers"):
            GlobalPlacer(
                load_benchmark("sb_mini_4", scale=0.3),
                PlacementConfig(max_iterations=1, kernel_workers=-1),
            )

    def test_history_every_is_trajectory_neutral(self):
        base = GlobalPlacer(
            load_benchmark("sb_mini_4", scale=0.4),
            PlacementConfig(max_iterations=25, min_iterations=5, seed=0),
        ).run()
        sparse = GlobalPlacer(
            load_benchmark("sb_mini_4", scale=0.4),
            PlacementConfig(max_iterations=25, min_iterations=5, seed=0, history_every=7),
        ).run()
        assert np.array_equal(base.x, sparse.x)
        assert np.array_equal(base.y, sparse.y)
        assert base.hpwl == sparse.hpwl  # recomputed after an unrecorded last iter
        assert sparse.history.iterations == [
            i for i in base.history.iterations if i % 7 == 0
        ]
        assert sparse.history.hpwl == [
            h for i, h in zip(base.history.iterations, base.history.hpwl) if i % 7 == 0
        ]

    def test_history_every_validation(self):
        placer = GlobalPlacer(
            load_benchmark("sb_mini_4", scale=0.3),
            PlacementConfig(max_iterations=1, history_every=0),
        )
        with pytest.raises(ValueError, match="history_every"):
            placer.run()

    def test_steady_state_arena_allocations_stop_growing(self):
        placer = GlobalPlacer(
            load_benchmark("sb_mini_4", scale=0.4),
            PlacementConfig(max_iterations=6, min_iterations=6, seed=0),
        )
        placer.run()
        steady = placer.arena.allocations
        assert steady > 0
        # Keep stepping the already-warm loop: no new arena buffers.
        placer._optimizer.step_once(placer._gradient)
        placer._optimizer.step_once(placer._gradient)
        assert placer.arena.allocations == steady

    def test_gradient_seconds_populated(self):
        placer = GlobalPlacer(
            load_benchmark("sb_mini_4", scale=0.3),
            PlacementConfig(max_iterations=3, min_iterations=3, seed=0),
        )
        placer.run()
        assert set(placer.gradient_seconds) == {
            "wirelength",
            "density",
            "extra",
            "scatter",
        }
        assert all(v >= 0.0 for v in placer.gradient_seconds.values())
        assert placer.gradient_seconds["wirelength"] > 0.0

    def test_optimizer_does_not_alias_reused_gradient_buffers(self):
        """grad_fn may return the same buffers every call (the arena does);
        the optimizer must keep its own BB history copies."""
        from repro.placement.nesterov import NesterovOptimizer

        rng = np.random.default_rng(0)
        n = 32
        x0 = rng.uniform(0, 100, n)
        y0 = rng.uniform(0, 100, n)
        mask = np.ones(n, dtype=bool)
        gx_buf = np.empty(n)
        gy_buf = np.empty(n)

        def grad_reused(x, y):
            gx_buf[:] = 0.1 * (x - 50.0)
            gy_buf[:] = 0.1 * (y - 50.0)
            return gx_buf, gy_buf

        def grad_fresh(x, y):
            return 0.1 * (x - 50.0), 0.1 * (y - 50.0)

        opt_a = NesterovOptimizer(x0, y0, movable_mask=mask, min_step=0.01, max_step=10.0)
        opt_b = NesterovOptimizer(x0, y0, movable_mask=mask, min_step=0.01, max_step=10.0)
        for _ in range(10):
            xa, ya = opt_a.step_once(grad_reused)
            xb, yb = opt_b.step_once(grad_fresh)
            assert np.array_equal(xa, xb)
            assert np.array_equal(ya, yb)
            assert opt_a.step == opt_b.step

    def test_optimizer_returns_fresh_major_arrays(self):
        """Returned solutions escape to history/results: never recycled."""
        from repro.placement.nesterov import NesterovOptimizer

        rng = np.random.default_rng(1)
        n = 16
        opt = NesterovOptimizer(
            rng.uniform(0, 10, n),
            rng.uniform(0, 10, n),
            movable_mask=np.ones(n, dtype=bool),
            min_step=0.01,
            max_step=5.0,
        )

        def grad(x, y):
            return 0.05 * x, 0.05 * y

        seen = []
        for _ in range(6):
            x, y = opt.step_once(grad)
            for old_x, old_y, _, _ in seen:
                assert old_x is not x and old_y is not y
            seen.append((x, y, x.copy(), y.copy()))
        # Earlier solutions must be untouched by later iterations.
        for old_x, old_y, snap_x, snap_y in seen[:-1]:
            assert np.array_equal(old_x, snap_x)
            assert np.array_equal(old_y, snap_y)
