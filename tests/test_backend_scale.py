"""Back-end scale tests: array Abacus legalization and its row bands.

The array-backed ``AbacusLegalizer.legalize`` must match the object-based
``_reference_legalize`` twin bit for bit, and the nearest-row candidate
bands must follow the stable-argsort row order.  The row-overflow bugfix is
pinned here too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.suite import load_benchmark
from repro.netlist import Design, make_generic_library
from repro.placement.initial import initial_placement
from repro.placement.legalization.abacus import AbacusLegalizer, _legalize_rowband

DESIGNS = ("sb_mini_18", "sb_mini_4", "sb_cong_1")


def _design(name="sb_mini_18", scale=0.4):
    return load_benchmark(name, scale=scale)


def _positions(design, seed, jitter=2.5):
    rng = np.random.default_rng(seed)
    x, y = initial_placement(design, seed=seed)
    x += rng.normal(0.0, jitter, x.size)
    y += rng.normal(0.0, jitter, y.size)
    return x, y


def _assert_same_result(a, b):
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)
    assert a.total_displacement == b.total_displacement
    assert a.max_displacement == b.max_displacement
    assert a.num_failed == b.num_failed
    assert a.num_overfull_rows == b.num_overfull_rows


# ----------------------------------------------------------------------
# Array-backed Abacus ≡ object-based reference, bitwise
# ----------------------------------------------------------------------
class TestAbacusParity:
    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(DESIGNS),
        scale=st.floats(0.3, 0.6),
        seed=st.integers(0, 2**31 - 1),
        slack=st.sampled_from([0.0, 0.25]),
    )
    def test_legalize_matches_reference_bitwise(self, name, scale, seed, slack):
        design = _design(name, scale)
        x, y = _positions(design, seed)
        legalizer = AbacusLegalizer(design, capacity_slack=slack)
        _assert_same_result(legalizer.legalize(x, y), legalizer._reference_legalize(x, y))

    def test_site_alignment_off_matches_too(self):
        design = _design("sb_mini_18", 0.4)
        x, y = _positions(design, 11)
        legalizer = AbacusLegalizer(design, site_aligned=False)
        _assert_same_result(legalizer.legalize(x, y), legalizer._reference_legalize(x, y))

    def test_narrow_candidate_window_matches(self):
        # Forces the fallback path (least-filled row) to fire frequently.
        design = _design("sb_cong_1", 0.4)
        x, y = _positions(design, 3)
        legalizer = AbacusLegalizer(design, max_candidate_rows=2)
        _assert_same_result(legalizer.legalize(x, y), legalizer._reference_legalize(x, y))


# ----------------------------------------------------------------------
# Nearest-row candidate bands
# ----------------------------------------------------------------------
class TestRowband:
    def test_band_order_is_stable_argsort_with_midpoint_ties(self):
        # Documented tie-break: a cell exactly midway between two rows gets
        # the lower row first — the order a stable argsort of |row_y - y|
        # produces.  Exercise exact midpoints explicitly.
        row_y = np.arange(8, dtype=np.float64) * 10.0
        cell_y = np.array([15.0, 35.0, 0.0, 79.0, 41.0, -3.0, 100.0])
        k = 5
        cand = _legalize_rowband(row_y, cell_y, k)
        for i, yy in enumerate(cell_y):
            expect = np.argsort(np.abs(row_y - yy), kind="stable")[:k]
            assert np.array_equal(cand[i * k : (i + 1) * k], expect.astype(np.int32))

    def test_band_pads_with_minus_one_when_rows_run_out(self):
        row_y = np.array([0.0, 10.0])
        cell_y = np.array([4.0])
        cand = _legalize_rowband(row_y, cell_y, 4)
        assert cand.tolist() == [0, 1, -1, -1]


# ----------------------------------------------------------------------
# Row-overflow surfacing (bugfix regression)
# ----------------------------------------------------------------------
def _overfilled_design():
    """A deliberately overfilled die: two 60-wide rows, 160 units of cells."""
    library = make_generic_library()
    design = Design("overfull", die=(0, 0, 60, 26), library=library)
    design.add_port("in0", "input", x=0, y=0)
    design.add_net("n_share")
    rng = np.random.default_rng(0)
    for i in range(80):
        design.add_instance(
            f"u{i}", "INV_X1", x=float(rng.uniform(0, 56)), y=float(rng.uniform(0, 24))
        )
        design.connect("n_share", f"u{i}", "a")
    design.connect("n_share", "in0")
    design.finalize()
    return design


class TestRowOverflow:
    def test_strict_capacity_fails_cells_but_never_overflows(self):
        design = _overfilled_design()
        x, y = design.positions()
        legal = AbacusLegalizer(design).legalize(x, y)
        assert legal.num_failed > 0
        assert legal.num_overfull_rows == 0
        assert not legal.success

    def test_capacity_slack_trades_failures_for_surfaced_overflow(self):
        design = _overfilled_design()
        x, y = design.positions()
        legal = AbacusLegalizer(design, capacity_slack=2.0).legalize(x, y)
        assert legal.num_failed == 0
        assert legal.num_overfull_rows > 0
        assert not legal.success
        # The overflow is real geometry: some cell's right edge spills
        # past its row end.
        core = design.arrays
        rows = core.rows()
        movable = core.movable_index
        right_edge = legal.x[movable] + core.inst_width[movable]
        spilled = False
        for row in rows:
            in_row = legal.y[movable] == row.y
            if np.any(in_row) and float(right_edge[in_row].max()) > row.xh + 1e-6:
                spilled = True
        assert spilled

    def test_overflow_parity_with_reference(self):
        design = _overfilled_design()
        x, y = design.positions()
        legalizer = AbacusLegalizer(design, capacity_slack=2.0)
        _assert_same_result(legalizer.legalize(x, y), legalizer._reference_legalize(x, y))

    def test_clean_design_reports_zero_overfull(self):
        design = _design("sb_mini_18", 0.4)
        x, y = _positions(design, 0)
        legal = AbacusLegalizer(design).legalize(x, y)
        assert legal.num_overfull_rows == 0
        assert legal.success
