"""GP inner-loop overhaul tests: scatter plans, iteration arena, WA kernel.

PR 7's contract is that every rewrite of the global-place gradient pipeline
is *bitwise* neutral: the plan-based wirelength/density paths must match the
legacy ``np.add.at`` / ``np.maximum.at`` reference paths (kept as
``_reference_*`` helpers) bit for bit, and the arena/optimizer buffer reuse
must not change a single bit of the optimization trajectory.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.suite import load_benchmark
from repro.core.pin_attraction import PinAttractionObjective, PinPairSet
from repro.obs import run_tracer
from repro.placement.arena import IterationArena
from repro.placement.density import ElectrostaticDensity, auto_bin_count
from repro.placement.global_placer import GlobalPlacer, PlacementConfig, PlacementDiverged
from repro.placement.initial import initial_placement
from repro.placement.objective import PlacementObjective
from repro.placement import wirelength
from repro.placement.wirelength import WeightedAverageWirelength

DESIGNS = ("sb_mini_18", "sb_mini_4", "sb_cong_1")


def _design(name="sb_mini_18", scale=0.5):
    return load_benchmark(name, scale=scale)


def _slot_pins(model):
    """The pin of every slot: the plan stores its inverse permutation only."""
    return model._csr_pins[np.argsort(model._slot_inverse)]


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
        assert np.array_equal(model._valid_nets, valid_nets)

    def test_directional_matches_reference_directional_bitwise(self, monkeypatch):
        # Direct pairing of the slot-order axis kernel with its reference
        # twin (the whole-evaluate parity test above covers them only
        # jointly), on a plan with both rows and a tail.
        monkeypatch.setattr(wirelength, "ROW_COST_PINS", 32)
        design = _design("sb_mini_18", 0.5)
        x, y = _positions(design, 7)
        model = WeightedAverageWirelength(design, gamma=3.0)
        assert model._rows and model._tail is not None
        weights = np.random.default_rng(7).uniform(0.25, 4.0, design.num_nets)
        pin_x, pin_y = design.arrays.pin_positions(x, y)
        for coord in (pin_x, pin_y):
            c = coord[_slot_pins(model)]
            value, grad = model._directional(c, weights)
            ref_value, ref_grad = model._reference_directional(coord, weights)
            assert value == ref_value
            # Slot order back to CSR order.
            assert np.array_equal(grad[model._slot_inverse], ref_grad)

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

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_constructor_rejects_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match=f"got {gamma!r}"):
            WeightedAverageWirelength(_design("sb_mini_4", 0.3), gamma=gamma)

    @pytest.mark.parametrize("gamma", [0.0, -2.5, float("nan"), float("-inf")])
    def test_set_gamma_rejects_bad_gamma(self, gamma):
        model = WeightedAverageWirelength(_design("sb_mini_4", 0.3), gamma=2.0)
        with pytest.raises(ValueError, match=f"got {gamma!r}"):
            model.set_gamma(gamma)
        assert model.gamma == 2.0

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


# ----------------------------------------------------------------------
# Slot plan: rows (slot-major pins) plus the CSR tail
# ----------------------------------------------------------------------
#: ROW_COST_PINS per plan regime: every slot a row, rows plus a tail, and
#: all tail (more than any test design's pin count).
REGIMES = {"all_rows": 1, "rows_and_tail": 32, "tail_only": 10**9}


def _regime_model(design, regime, **kwargs):
    with mock.patch.object(wirelength, "ROW_COST_PINS", REGIMES[regime]):
        model = WeightedAverageWirelength(design, **kwargs)
    degree = np.diff(design.arrays.net_pin_offsets)[model._valid_nets]
    if regime == "all_rows":
        assert len(model._rows) == degree.max() and model._tail is None
    elif regime == "rows_and_tail":
        assert model._rows and model._tail is not None
    else:
        assert not model._rows and model._tail is not None
    return model


def _dac11_evaluate(model, x, y, net_weights):
    """Independent oracle: the DAC'11 WA expression in absolute coordinates.

    This is the formula the model used before the shifted-coordinate
    rewrite, kept here verbatim as a numerical (not bitwise) reference.
    """
    core = model.core
    gamma = model.gamma
    pins = model._csr_pins
    nets = core.pin_net[pins]
    num_nets = core.num_nets
    value = 0.0
    grads = []
    for coord in core.pin_positions(x, y):
        c = coord[pins]
        cmax = np.full(num_nets, -np.inf)
        cmin = np.full(num_nets, np.inf)
        np.maximum.at(cmax, nets, c)
        np.minimum.at(cmin, nets, c)
        exp_pos = np.exp((c - cmax[nets]) / gamma)
        exp_neg = np.exp((cmin[nets] - c) / gamma)
        sum_pos = np.bincount(nets, weights=exp_pos, minlength=num_nets)
        sum_neg = np.bincount(nets, weights=exp_neg, minlength=num_nets)
        sum_cpos = np.bincount(nets, weights=c * exp_pos, minlength=num_nets)
        sum_cneg = np.bincount(nets, weights=c * exp_neg, minlength=num_nets)
        with np.errstate(invalid="ignore", divide="ignore"):
            wa_max = np.where(sum_pos > 0, sum_cpos / np.maximum(sum_pos, 1e-300), 0.0)
            wa_min = np.where(sum_neg > 0, sum_cneg / np.maximum(sum_neg, 1e-300), 0.0)
        value += float(np.sum((wa_max - wa_min) * net_weights))
        sp = sum_pos[nets]
        sn = sum_neg[nets]
        scp = sum_cpos[nets]
        scn = sum_cneg[nets]
        grad_max = exp_pos * ((1.0 + c / gamma) * sp - scp / gamma) / np.maximum(sp * sp, 1e-300)
        grad_min = exp_neg * ((1.0 - c / gamma) * sn + scn / gamma) / np.maximum(sn * sn, 1e-300)
        pin_grad = (grad_max - grad_min) * net_weights[nets]
        grad = np.zeros(core.num_instances)
        np.add.at(grad, core.pin_instance[pins], pin_grad)
        grad[~core.movable_mask] = 0.0
        grads.append(grad)
    return value, grads[0], grads[1]


class TestSlotPlan:
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_every_valid_pin_appears_once(self, name, regime):
        design = _design(name, 0.5)
        core = design.arrays
        model = _regime_model(design, regime)
        # The inverse permutation covers every filtered CSR pin once, and
        # the gather operands are those of each slot's pin.
        inverse = model._slot_inverse
        assert np.array_equal(np.sort(inverse), np.arange(model._csr_pins.size))
        slot_pins = _slot_pins(model)
        assert np.array_equal(model._slot_inst, core.pin_instance[slot_pins])
        assert np.array_equal(model._slot_off_x, core.pin_offset_x[slot_pins])
        assert np.array_equal(model._slot_off_y, core.pin_offset_y[slot_pins])
        assert np.array_equal(np.sort(model._slot_nets), model._valid_nets)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_rows_are_prefixes_of_degree_sorted_nets(self, name, regime):
        design = _design(name, 0.5)
        core = design.arrays
        model = _regime_model(design, regime)
        degree = np.diff(core.net_pin_offsets)[model._slot_nets]
        num_row_nets = model._tail[1].start if model._tail else model._slot_nets.size
        row_degree = degree[:num_row_nets]
        assert np.all(np.diff(row_degree) <= 0)
        start = 0
        for k, (pins, nets) in enumerate(model._rows):
            # Row k: slot k of every row net of degree > k, back to back.
            assert pins.start == start
            assert nets == slice(0, np.count_nonzero(row_degree > k))
            first = core.net_pin_offsets[model._slot_nets[nets]]
            assert np.array_equal(_slot_pins(model)[pins], core.net_pin_index[first + k])
            start = pins.stop

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_row_count_maximizes_pins_moved_per_row_cost(self, name, regime):
        design = _design(name, 0.5)
        model = _regime_model(design, regime)
        degree = np.diff(design.arrays.net_pin_offsets)[model._valid_nets]
        cost = REGIMES[regime]
        gains = [int(degree[degree <= k].sum()) - k * cost for k in range(degree.max() + 1)]
        assert len(model._rows) == gains.index(max(gains))

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("name", DESIGNS)
    def test_nets_above_the_row_count_form_the_tail(self, name, regime):
        design = _design(name, 0.5)
        core = design.arrays
        model = _regime_model(design, regime)
        num_rows = len(model._rows)
        degree = np.diff(core.net_pin_offsets)
        valid = model._valid_nets
        if model._tail is None:
            assert np.all(degree[valid] <= num_rows)
            return
        pins, nets = model._tail
        tail_nets = model._slot_nets[nets]
        assert np.array_equal(tail_nets, valid[degree[valid] > num_rows])
        assert np.all(degree[model._slot_nets[: nets.start]] <= num_rows)
        # Tail pins keep CSR order: each tail net's pins, in net order.
        want = np.concatenate([core.net_pins(int(n)) for n in tail_nets])
        assert np.array_equal(_slot_pins(model)[pins], want)

    def test_design_with_few_nets_has_no_rows(self):
        # A row holds at most one pin per net, so it cannot pay for itself
        # on a design with no more than ROW_COST_PINS nets.
        design = _design("sb_mini_18", 0.3)
        model = WeightedAverageWirelength(design)
        assert model._valid_nets.size <= wirelength.ROW_COST_PINS
        assert model._rows == () and model._tail is not None

    @settings(max_examples=6, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.8),
        gamma=st.floats(0.5, 25.0),
        seed=st.integers(0, 2**31 - 1),
        weighted=st.booleans(),
    )
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_plan_matches_reference_bitwise_in_every_regime(
        self, regime, name, scale, gamma, seed, weighted
    ):
        design = _design(name, scale)
        x, y = _positions(design, seed)
        model = _regime_model(design, regime, gamma=gamma)
        weights = None
        if weighted:
            weights = np.random.default_rng(seed).uniform(0.25, 4.0, design.num_nets)
        plan = model.evaluate(x, y, net_weights=weights)
        ref = model._reference_evaluate(x, y, net_weights=weights)
        assert plan.value == ref.value
        assert np.array_equal(plan.grad_x, ref.grad_x)
        assert np.array_equal(plan.grad_y, ref.grad_y)

    @settings(max_examples=4, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.8),
        seed=st.integers(0, 2**31 - 1),
        weighted=st.booleans(),
    )
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_gradient_only_evaluate_matches_bitwise_in_every_regime(
        self, regime, name, scale, seed, weighted
    ):
        # with_value=False skips the value tail and nothing else: its
        # gradient is the full evaluate's and the reference's, bit for bit.
        design = _design(name, scale)
        x, y = _positions(design, seed)
        model = _regime_model(design, regime, gamma=3.0)
        model.arena = IterationArena()
        weights = None
        if weighted:
            weights = np.random.default_rng(seed).uniform(0.25, 4.0, design.num_nets)
        fast = model.evaluate(x, y, net_weights=weights, with_value=False)
        assert fast.value is None
        grad_x, grad_y = fast.grad_x.copy(), fast.grad_y.copy()
        ref = model._reference_evaluate(x, y, net_weights=weights, with_value=False)
        assert ref.value is None
        full = model.evaluate(x, y, net_weights=weights)
        for got, want in ((grad_x, ref.grad_x), (grad_y, ref.grad_y),
                          (grad_x, full.grad_x), (grad_y, full.grad_y)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_arena_reuse_is_bitwise_neutral_in_every_regime(self, regime):
        design = _design("sb_mini_4", 0.5)
        x, y = _positions(design, 7)
        weights = np.random.default_rng(7).uniform(0.25, 4.0, design.num_nets)
        bare = _regime_model(design, regime, gamma=3.0)
        pooled = _regime_model(design, regime, gamma=3.0)
        pooled.arena = IterationArena()
        for net_weights in (None, weights):
            expect = bare.evaluate(x, y, net_weights=net_weights)
            for _ in range(3):
                got = pooled.evaluate(x, y, net_weights=net_weights)
                assert got.value == expect.value
                assert np.array_equal(got.grad_x, expect.grad_x)
                assert np.array_equal(got.grad_y, expect.grad_y)
        steady = pooled.arena.allocations
        pooled.evaluate(x, y)
        pooled.evaluate(x, y, net_weights=weights)
        assert pooled.arena.allocations == steady

    def test_xl_design_matches_reference_and_reuses_arena(self):
        # Unpatched ROW_COST_PINS on a 10k-cell design: real rows and tail.
        design = _design("sb_xl_1", 0.1)
        x, y = _positions(design, 3)
        weights = np.random.default_rng(3).uniform(0.25, 4.0, design.num_nets)
        model = WeightedAverageWirelength(design, gamma=4.0)
        model.arena = IterationArena()
        assert len(model._rows) >= 2 and model._tail is not None
        assert model._tail[0].start > 0.5 * model._slot_inst.size  # row pins
        for net_weights in (None, weights):
            ref = model._reference_evaluate(x, y, net_weights=net_weights)
            for _ in range(2):
                got = model.evaluate(x, y, net_weights=net_weights)
                assert got.value == ref.value
                assert np.array_equal(got.grad_x, ref.grad_x)
                assert np.array_equal(got.grad_y, ref.grad_y)
        steady = model.arena.allocations
        model.evaluate(x, y, net_weights=weights)
        assert model.arena.allocations == steady


class TestWirelengthOracle:
    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        gamma=st.floats(0.05, 50.0),
        seed=st.integers(0, 2**31 - 1),
        weighted=st.booleans(),
    )
    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_matches_dac11_formula(self, regime, name, gamma, seed, weighted):
        design = _design(name, 0.5)
        x, y = _positions(design, seed)
        model = _regime_model(design, regime, gamma=gamma)
        weights = np.ones(design.num_nets)
        if weighted:
            weights = np.random.default_rng(seed).uniform(0.25, 4.0, design.num_nets)
        got = model.evaluate(x, y, net_weights=weights if weighted else None)
        value, grad_x, grad_y = _dac11_evaluate(model, x, y, weights)
        scale = max(np.abs(grad_x).max(), np.abs(grad_y).max())
        assert np.abs(got.grad_x - grad_x).max() <= 1e-8 * scale
        assert np.abs(got.grad_y - grad_y).max() <= 1e-8 * scale
        assert abs(got.value - value) <= 1e-8 * abs(value)

    def test_gradient_matches_central_differences(self):
        design = _design("sb_xl_1", 0.1)
        x, y = _positions(design, 2)
        model = WeightedAverageWirelength(design, gamma=5.0)
        assert model._rows and model._tail is not None
        got = model.evaluate(x, y)
        rng = np.random.default_rng(2)
        pins = np.bincount(design.arrays.pin_instance, minlength=design.num_instances)
        candidates = design.arrays.movable_index[pins[design.arrays.movable_index] > 0]
        step = 1e-3
        for inst in rng.choice(candidates, size=8, replace=False):
            for pos, grad in ((x, got.grad_x), (y, got.grad_y)):
                keep = pos[inst]
                pos[inst] = keep + step
                up = model.evaluate(x, y).value
                pos[inst] = keep - step
                down = model.evaluate(x, y).value
                pos[inst] = keep
                numeric = (up - down) / (2.0 * step)
                assert abs(numeric - grad[inst]) <= 1e-5 * max(1.0, abs(grad[inst]))


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
        # ScheduleConfig accepts kernel_workers and drops it: the Poisson
        # solve has no threads, so the placer config and the run are the
        # same bit for bit.
        from repro.placement.global_placer import ScheduleConfig

        def run(workers):
            config = ScheduleConfig(
                max_iterations=30, seed=0, kernel_workers=workers
            ).placement_config()
            return config, GlobalPlacer(load_benchmark("sb_mini_4"), config).run()

        (serial_config, serial), (threaded_config, threaded) = run(0), run(2)
        assert serial_config == threaded_config
        assert np.array_equal(serial.x, threaded.x)
        assert np.array_equal(serial.y, threaded.y)
        assert serial.history.hpwl == threaded.history.hpwl

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

    @pytest.mark.parametrize("knob", ["num_bins_x", "num_bins_y"])
    def test_grid_narrower_than_two_bins_is_rejected(self, knob):
        # The density field's central differences need two bins per axis.
        design = load_benchmark("sb_mini_4", scale=0.3)
        with pytest.raises(ValueError, match=f"{knob} must be at least 2"):
            GlobalPlacer(design, PlacementConfig(max_iterations=1, **{knob: 1}))

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
        with run_tracer() as tracer:
            placer.run()
        spans = tracer.metrics()["spans"]
        terms = ("wirelength", "density", "extra")
        assert all(spans[f"placement.{term}"]["count"] == 3 for term in terms)
        assert all(spans[f"placement.{term}"]["seconds"] >= 0.0 for term in terms)
        assert spans["placement.wirelength"]["seconds"] > 0.0
        # The terms nest inside each iteration's Nesterov step span.
        assert spans["placement.nesterov"]["count"] == 3
        assert (
            sum(spans[f"placement.{term}"]["seconds"] for term in terms)
            <= spans["placement.nesterov"]["seconds"]
        )

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


class _NaNFromCall:
    """Extra objective term whose gradient turns NaN from call ``bad_call``."""

    weight = 1.0

    def __init__(self, bad_call: int) -> None:
        self.bad_call = bad_call
        self.calls = 0

    def evaluate(self, x, y):
        self.calls += 1
        value = np.nan if self.calls >= self.bad_call else 0.0
        return value, np.full_like(x, value), np.zeros_like(y)


class TestDivergence:
    def test_nan_extra_term_raises_located_error(self):
        design = load_benchmark("sb_mini_4", scale=0.3)
        placer = GlobalPlacer(
            design, PlacementConfig(max_iterations=20, min_iterations=20, seed=0)
        )
        term = _NaNFromCall(bad_call=5)
        placer.add_objective_term(term)
        with pytest.raises(PlacementDiverged, match="iteration 5: non-finite extra"):
            placer.run()
        # One gradient evaluation per iteration: the error fired on the
        # iteration whose gradient went bad, before any cell moved on it.
        assert term.calls == 5

    def test_non_finite_initial_positions_raise(self):
        design = load_benchmark("sb_mini_4", scale=0.3)
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=3, seed=0))
        x0, y0 = initial_placement(design, seed=0)
        x0[design.core.movable_index[0]] = np.nan
        with pytest.raises(PlacementDiverged, match="iteration 0: non-finite initial positions"):
            placer.run(x0, y0)


# ----------------------------------------------------------------------
# Lean loop: mask-free Nesterov update, bounds clip, HPWL on a cadence
# ----------------------------------------------------------------------
def _bits(a):
    """The raw IEEE bits of a float64 array (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestLeanLoopBitwise:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 48),
        mask_kind=st.sampled_from(("random", "all_fixed", "all_movable")),
        seed=st.integers(0, 2**31 - 1),
        steps=st.integers(1, 8),
        reset_at=st.integers(0, 8),
    )
    def test_step_once_matches_reference_step_once(
        self, n, mask_kind, seed, steps, reset_at
    ):
        from repro.placement.nesterov import NesterovOptimizer

        rng = np.random.default_rng(seed)
        if mask_kind == "random":
            mask = rng.random(n) < 0.7
        else:
            mask = np.full(n, mask_kind == "all_movable")
        x0 = rng.uniform(-50.0, 150.0, n)
        y0 = rng.uniform(-50.0, 150.0, n)
        # Coefficients make the gradient depend on the positions; it is
        # nonzero at fixed entries too, which both forms must ignore.
        a, b, c = rng.normal(0.0, 0.3, (3, n))

        def grad(x, y):
            return a * x + b * y + c, b * x - a * y + 0.5 * c

        fast = NesterovOptimizer(x0, y0, movable_mask=mask, min_step=0.01, max_step=20.0)
        ref = NesterovOptimizer(x0, y0, movable_mask=mask, min_step=0.01, max_step=20.0)
        for k in range(steps):
            if k == reset_at:
                fast.reset_momentum()
                ref.reset_momentum()
            fx, fy = fast.step_once(grad)
            rx, ry = ref._reference_step_once(grad)
            assert np.array_equal(_bits(fx), _bits(rx))
            assert np.array_equal(_bits(fy), _bits(ry))
            assert np.array_equal(_bits(fast.state.reference_x), _bits(ref.state.reference_x))
            assert np.array_equal(_bits(fast.state.reference_y), _bits(ref.state.reference_y))
            assert fast.step == ref.step
            assert fast.state.momentum == ref.state.momentum
            # Fixed entries never move.
            assert np.array_equal(_bits(fx[~mask]), _bits(x0[~mask]))
            assert np.array_equal(_bits(fy[~mask]), _bits(y0[~mask]))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_bounds_clip_matches_clamp_to_die(self, seed):
        from repro.placement.initial import clamp_to_die

        design = load_benchmark("sb_mini_4", scale=0.3)
        core = design.arrays
        die = core.die
        fixed = np.flatnonzero(~core.movable_mask)
        movable = core.movable_index
        assert fixed.size and movable.size
        # One movable cell wider (and taller) than the die.
        core.inst_width[movable[0]] = 1.5 * die.width
        core.inst_height[movable[0]] = 1.5 * die.height
        placer = GlobalPlacer(design, PlacementConfig(max_iterations=1))

        rng = np.random.default_rng(seed)
        n = core.num_instances
        x = rng.uniform(die.xl - 0.5 * die.width, die.xh + 0.5 * die.width, n)
        y = rng.uniform(die.yl - 0.5 * die.height, die.yh + 0.5 * die.height, n)
        # A fixed cell outside the die keeps its position.
        x[fixed[0]] = die.xl - 40.0
        y[fixed[0]] = die.yh + 40.0
        x[movable[1]] = -0.0
        want_x, want_y = clamp_to_die(design, x, y)
        placer._clip_to_die(x, y)
        assert np.array_equal(_bits(x), _bits(want_x))
        assert np.array_equal(_bits(y), _bits(want_y))
        assert x[fixed[0]] == die.xl - 40.0
        assert x[movable[0]] == die.xh - 1.5 * die.width

    def test_flow_records_history_every_10_and_final_hpwl(self):
        from repro.flow import build_flow
        from repro.placement.wirelength import total_hpwl

        design = load_benchmark("sb_mini_18", scale=0.25)
        flow = build_flow(
            "efficient_tdp",
            max_iterations=65,
            timing_start_iteration=20,
            min_timing_iterations=20,
            timing_update_interval=10,
        )
        result = flow.run(design)
        placement = result.context.placement
        assert placement.iterations == 65
        assert placement.history.iterations == list(range(10, 61, 10))
        assert len(placement.history.hpwl) == 6
        assert placement.hpwl == total_hpwl(design, placement.x, placement.y)
        # The gauge is the final GP HPWL, not the last recorded one.
        gauges = result.context.metadata["trace_metrics"]["gauges"]
        assert gauges["gp.hpwl"] == placement.hpwl
        assert placement.hpwl != placement.history.hpwl[-1]
