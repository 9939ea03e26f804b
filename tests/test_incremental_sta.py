"""Incremental STA: exact parity with full recompute, tolerance behavior,
fallback flag, and update statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import benchmark_names, load_benchmark
from repro.timing import STAEngine
from repro.timing.sta import _LevelWorklist


def _assert_results_equal(full, inc, atol=0.0):
    np.testing.assert_allclose(inc.arrival, full.arrival, atol=atol, rtol=0)
    np.testing.assert_allclose(inc.required, full.required, atol=atol, rtol=0)
    np.testing.assert_allclose(inc.slack, full.slack, atol=atol, rtol=0)
    np.testing.assert_allclose(inc.arc_delay, full.arc_delay, atol=atol, rtol=0)
    np.testing.assert_allclose(inc.net_load, full.net_load, atol=atol, rtol=0)
    np.testing.assert_allclose(inc.endpoint_slack, full.endpoint_slack, atol=atol, rtol=0)
    assert inc.wns == pytest.approx(full.wns, abs=max(atol, 1e-12))
    assert inc.tns == pytest.approx(full.tns, abs=max(atol, 1e-12))


def _perturb(design, rng, x, y, max_cells=40, sigma=25.0):
    movable = design.arrays.movable_index
    k = int(rng.integers(1, min(max_cells, movable.size)))
    idx = rng.choice(movable, size=k, replace=False)
    x[idx] += rng.normal(0.0, sigma, size=k)
    y[idx] += rng.normal(0.0, sigma, size=k)


class TestIncrementalParity:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_wns_tns_identical_on_suite(self, name):
        """Acceptance: identical WNS/TNS (atol 1e-9) on every sb_mini design."""
        design = load_benchmark(name, scale=0.5)
        full = STAEngine(design)
        inc = STAEngine(design, incremental=True)
        rng = np.random.default_rng([ord(c) for c in name])
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        for _ in range(4):
            _perturb(design, rng, x, y)
            r_full = full.update_timing(x, y)
            r_inc = inc.update_timing(x, y)
            assert r_inc.wns == pytest.approx(r_full.wns, abs=1e-9)
            assert r_inc.tns == pytest.approx(r_full.tns, abs=1e-9)

    def test_zero_tolerance_is_bitwise_exact(self, fresh_small_design):
        design = fresh_small_design
        full = STAEngine(design)
        inc = STAEngine(design, incremental=True, move_tolerance=0.0)
        rng = np.random.default_rng(7)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        for _step in range(6):
            _perturb(design, rng, x, y, max_cells=30)
            r_full = full.update_timing(x, y)
            r_inc = inc.update_timing(x, y)
            _assert_results_equal(r_full, r_inc, atol=0.0)
            assert inc.last_update_stats.mode in {"incremental", "full"}

    def test_incremental_touches_fewer_pins(self, fresh_small_design):
        design = fresh_small_design
        inc = STAEngine(design, incremental=True)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        inc.update_timing(x, y)
        assert inc.last_update_stats.mode == "full"
        moved = design.arrays.movable_index[:2]
        x[moved] += 5.0
        inc.update_timing(x, y)
        stats = inc.last_update_stats
        assert stats.mode == "incremental"
        assert stats.num_moved_instances == 2
        assert 0 < stats.num_dirty_nets < design.num_nets
        assert stats.num_forward_pins < design.num_pins

    def test_no_motion_short_circuits(self, fresh_small_design):
        design = fresh_small_design
        inc = STAEngine(design, incremental=True)
        x, y = design.positions()
        first = inc.update_timing(x, y)
        again = inc.update_timing(x, y)
        assert inc.last_update_stats.mode == "incremental"
        assert inc.last_update_stats.num_moved_instances == 0
        _assert_results_equal(first, again)

    def test_tolerance_ignores_tiny_drift(self, fresh_small_design):
        design = fresh_small_design
        inc = STAEngine(design, incremental=True, move_tolerance=1.0)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        baseline = inc.update_timing(x, y)
        x[design.arrays.movable_index] += 1e-3  # far below the tolerance
        drifted = inc.update_timing(x, y)
        assert inc.last_update_stats.num_moved_instances == 0
        np.testing.assert_array_equal(drifted.arrival, baseline.arrival)

    def test_exact_fallback_flag_forces_full(self, fresh_small_design):
        design = fresh_small_design
        inc = STAEngine(design, incremental=True)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        inc.update_timing(x, y)
        x[design.arrays.movable_index[:3]] += 4.0
        inc.update_timing(x, y, incremental=False)
        assert inc.last_update_stats.mode == "full"

    def test_large_motion_falls_back_to_full(self, fresh_small_design):
        design = fresh_small_design
        inc = STAEngine(design, incremental=True, incremental_rebuild_fraction=0.1)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        inc.update_timing(x, y)
        x += 10.0  # every instance moves -> way past the 10% dirty-net budget
        inc.update_timing(x, y)
        assert inc.last_update_stats.mode == "full"

    def test_per_call_override_does_not_alias_results(self, fresh_small_design):
        """A per-call incremental update must not rewrite results handed out
        by earlier calls, even when the engine default is full mode."""
        design = fresh_small_design
        engine = STAEngine(design)  # incremental=False by default
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        first = engine.update_timing(x, y)
        arrival_snapshot = first.arrival.copy()
        delay_snapshot = first.arc_delay.copy()
        x[design.arrays.movable_index[:4]] += 7.0
        second = engine.update_timing(x, y, incremental=True)
        slack_snapshot = second.slack.copy()
        x[design.arrays.movable_index[4:8]] += 7.0
        engine.update_timing(x, y, incremental=True)
        np.testing.assert_array_equal(first.arrival, arrival_snapshot)
        np.testing.assert_array_equal(first.arc_delay, delay_snapshot)
        np.testing.assert_array_equal(second.slack, slack_snapshot)
        np.testing.assert_array_equal(second.slack, second.required - second.arrival)

    def test_results_do_not_alias_between_updates(self, fresh_small_design):
        design = fresh_small_design
        inc = STAEngine(design, incremental=True)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        first = inc.update_timing(x, y)
        arrival_before = first.arrival.copy()
        _perturb(design, np.random.default_rng(1), x, y)
        inc.update_timing(x, y)
        np.testing.assert_array_equal(first.arrival, arrival_before)


class TestCacheReseeding:
    """Every cache must be reseeded by a full update or a constraints swap."""

    def test_constraints_swap_matches_fresh_engine(self, fresh_small_design):
        """Flipping constraints mid-session must be bitwise identical to a
        fresh engine built with the new constraints (tolerance 0)."""
        from repro.timing import TimingConstraints

        design = fresh_small_design
        engine = STAEngine(design, incremental=True, move_tolerance=0.0)
        rng = np.random.default_rng(11)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        engine.update_timing(x, y)
        _perturb(design, rng, x, y)
        engine.update_timing(x, y)

        tightened = TimingConstraints.from_design(design)
        tightened.clock_period = tightened.clock_period * 0.6
        engine.constraints = tightened  # property routes through set_constraints

        # Next update must be a full pass (stale arrival/required dropped) …
        r_swapped = engine.update_timing(x, y)
        assert engine.last_update_stats.mode == "full"
        # … and bitwise identical to an engine that never saw the old mode.
        fresh = STAEngine(design, tightened, incremental=True, move_tolerance=0.0)
        r_fresh = fresh.update_timing(x, y)
        _assert_results_equal(r_fresh, r_swapped, atol=0.0)

        # Incremental updates after the swap stay exact too.
        for _ in range(3):
            _perturb(design, rng, x, y)
            r_swapped = engine.update_timing(x, y)
            r_fresh = fresh.update_timing(x, y)
            _assert_results_equal(r_fresh, r_swapped, atol=0.0)

    def test_constraints_swap_via_setter_equals_method(self, fresh_small_design):
        from repro.timing import TimingConstraints

        design = fresh_small_design
        a = STAEngine(design)
        b = STAEngine(design)
        new = TimingConstraints.from_design(design)
        new.clock_period *= 0.5
        a.constraints = new
        b.set_constraints(new)
        ra = a.update_timing()
        rb = b.update_timing()
        _assert_results_equal(ra, rb, atol=0.0)
        assert a.constraints is new

    def test_full_update_reseeds_reference_positions(self, fresh_small_design):
        """update_timing(incremental=False) must reseed the moved-cell
        reference, so later incremental updates diff against the *new*
        positions, not the ones from before the full pass."""
        design = fresh_small_design
        engine = STAEngine(design, incremental=True)
        x, y = design.positions()
        x, y = x.copy(), y.copy()
        engine.update_timing(x, y)
        x[design.arrays.movable_index[:5]] += 9.0
        engine.update_timing(x, y, incremental=False)
        assert engine.last_update_stats.mode == "full"
        # No motion since the full pass: the incremental diff must be empty.
        engine.update_timing(x, y)
        assert engine.last_update_stats.mode == "incremental"
        assert engine.last_update_stats.num_moved_instances == 0

    def test_swap_then_incremental_flag_does_not_resurrect_stale_caches(
        self, fresh_small_design
    ):
        """After a swap, even an explicit incremental=True call must fall
        back to a full pass rather than re-propagating from empty caches."""
        from repro.timing import TimingConstraints

        design = fresh_small_design
        engine = STAEngine(design, incremental=True)
        engine.update_timing()
        new = TimingConstraints.from_design(design)
        new.clock_period *= 0.7
        engine.set_constraints(new)
        engine.update_timing(incremental=True)
        assert engine.last_update_stats.mode == "full"


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


# ----------------------------------------------------------------------
# Level worklist: argsort grouping == the old per-level masking
# ----------------------------------------------------------------------
def _mark_reference(level, num_pins, seen, pins):
    """The pre-refactor mark(): np.unique + per-level boolean masks."""
    fresh = pins[~seen[pins]]
    if fresh.size == 0:
        return {}, seen
    seen = seen.copy()
    seen[fresh] = True
    out = {}
    for lvl in np.unique(level[fresh]):
        out[int(lvl)] = fresh[level[fresh] == lvl]
    return out, seen


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_worklist_mark_matches_reference_grouping(data):
    num_pins = data.draw(st.integers(2, 200))
    max_level = data.draw(st.integers(1, 12))
    rng = np.random.default_rng(data.draw(st.integers(0, 1000)))
    level = rng.integers(0, max_level + 1, size=num_pins).astype(np.int64)
    worklist = _LevelWorklist(level, num_pins)
    ref_seen = np.zeros(num_pins, dtype=bool)
    for _ in range(data.draw(st.integers(1, 4))):
        pins = rng.integers(0, num_pins, size=data.draw(st.integers(0, 60)))
        pins = pins.astype(np.int64)
        _, ref_seen = _mark_reference(level, num_pins, ref_seen, pins)
        worklist.mark(pins)
        assert np.array_equal(worklist.seen, ref_seen)
    # Popping each level yields exactly the reference's unique pins per level.
    for lvl in range(max_level + 1):
        popped = worklist.pop(lvl)
        marked = np.nonzero(ref_seen & (level == lvl))[0]
        if popped is None:
            assert marked.size == 0
        else:
            assert np.array_equal(np.sort(popped), marked)
