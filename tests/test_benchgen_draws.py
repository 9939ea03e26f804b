"""The classic generator's weighted driver draw, pinned against numpy.

``generate_circuit`` picks every gate's drivers with
:func:`repro.benchgen.synthetic._weighted_draw`, a replay of
``Generator.choice(..., replace=False, p=...)`` on the same RNG stream.
These tests pin the replay three ways:

* the helper returns the indices ``choice`` returns, in the same order, and
  leaves the generator at the same stream position;
* whole designs match a verbatim copy of the generator's draw loop as it
  was written with ``rng.choice`` (``_classic_generate_circuit`` below),
  compared by ``compile_design`` snapshot digest;
* inputs ``choice`` rejects (non-finite weights, fewer positive
  probabilities than picks) raise ``ValueError`` here too.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.benchgen.synthetic import (
    _GATE_CHOICES,
    CircuitSpec,
    _weighted_draw,
    build_generated_design,
    generate_circuit,
)
from repro.netlist import compile_design, make_generic_library
from repro.netlist.library import Library
from repro.utils.rng import make_rng
from test_array_design import snapshot_digest


def _numpy_choice(seed: int, weights: np.ndarray, k: int):
    rng = np.random.default_rng(seed)
    picks = rng.choice(np.arange(weights.size), k, replace=False, p=weights / weights.sum())
    return picks.tolist(), rng.random()


def _replay(seed: int, weights: np.ndarray, k: int):
    rng = np.random.default_rng(seed)
    picks = _weighted_draw(rng, weights.copy(), k)
    return picks, rng.random()


def _positive_probabilities(weights: np.ndarray) -> int:
    return int(np.count_nonzero(weights / weights.sum() > 0.0))


@st.composite
def _weights(draw):
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["uniform", "skewed", "sparse", "underflow"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        weights = rng.random(n) + 1e-3
    elif kind == "skewed":
        # One or two dominant entries: duplicates in the first round are
        # likely, so the redraw path runs.
        weights = rng.random(n)
        weights[rng.integers(0, n, 2)] = 10.0 ** draw(st.integers(3, 12))
    elif kind == "sparse":
        weights = rng.random(n) * (rng.random(n) < 0.4)
    else:
        # The generator's level-gap factor underflows to exactly zero.
        weights = np.exp(-0.9 * rng.integers(0, 1200, n).astype(np.float64))
    assume(weights.sum() > 0.0)
    k = draw(st.integers(1, n))
    assume(_positive_probabilities(weights) >= k)
    return weights, k


class TestWeightedDraw:
    @settings(max_examples=200, deadline=None)
    @given(case=_weights(), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_choice(self, case, seed):
        weights, k = case
        assert _replay(seed, weights, k) == _numpy_choice(seed, weights, k)

    @pytest.mark.parametrize("seed", range(20))
    def test_skewed_weights_take_the_redraw_path(self, seed):
        weights = np.array([1e9, 1.0, 1.0, 1.0, 1e-3])
        assert _replay(seed, weights, 3) == _numpy_choice(seed, weights, 3)
        # The first round almost surely picks index 0 three times, so more
        # than k uniforms were drawn.
        rng = np.random.default_rng(seed)
        _weighted_draw(rng, weights.copy(), 3)
        plain = np.random.default_rng(seed)
        plain.random(3)
        assert rng.random() != plain.random()

    @pytest.mark.parametrize("seed", range(10))
    def test_underflowed_zero_weights(self, seed):
        weights = np.exp(-0.9 * np.arange(1000, dtype=np.float64))
        assert np.count_nonzero(weights == 0.0) > 0
        picks, after = _replay(seed, weights, 3)
        assert all(weights[i] > 0.0 for i in picks)
        assert (picks, after) == _numpy_choice(seed, weights, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 17])
    def test_k_equals_n(self, n):
        weights = np.random.default_rng(n).random(n) + 0.1
        picks, after = _replay(n, weights, n)
        assert sorted(picks) == list(range(n))
        assert (picks, after) == _numpy_choice(n, weights, n)

    @pytest.mark.parametrize(
        "weights, k",
        [
            ([np.nan, 1.0], 1),
            ([np.inf, 1.0], 1),
            ([1.0, -np.inf], 1),
            ([0.0, 0.0, 0.0], 1),
            ([1.0, 0.0, 0.0], 2),
            ([1.0, 2.0, 0.0, 0.0], 3),
            # Positive weights whose probabilities underflow to zero.
            ([1e300, 5e-324, 5e-324], 2),
        ],
    )
    def test_guard_raises_where_choice_raises(self, weights, k):
        weights = np.array(weights, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                _numpy_choice(0, weights, k)
        with pytest.raises(ValueError):
            _weighted_draw(np.random.default_rng(0), weights.copy(), k)


def _classic_generate_circuit(spec: CircuitSpec, *, library: Optional[Library] = None):
    """The generator's draw loop as written with ``rng.choice``, verbatim."""
    rng = make_rng(spec.seed)
    lib = library if library is not None else make_generic_library()

    num_ff = max(2, int(round(spec.num_cells * spec.sequential_fraction)))
    num_comb = max(4, spec.num_cells - num_ff)

    gate_cells = [lib.cell(name) for name, _ in _GATE_CHOICES]
    gate_probs = np.array([w for _, w in _GATE_CHOICES], dtype=np.float64)
    gate_probs /= gate_probs.sum()
    comb_gate = rng.choice(len(gate_cells), size=num_comb, p=gate_probs)

    # Floorplan sizing (a sequential float sum, which fixes the die bits).
    gate_areas = [cell.area for cell in gate_cells]
    total_area = float(
        sum(gate_areas[g] for g in comb_gate.tolist()) + num_ff * lib.cell("DFF_X1").area
    )

    # Assign each combinational gate a level in [1, logic_depth], weighted so
    # deeper levels have slightly fewer gates (cone-shaped logic).
    level_weights = np.linspace(1.0, 0.6, spec.logic_depth)
    level_weights /= level_weights.sum()
    comb_levels = rng.choice(
        np.arange(1, spec.logic_depth + 1), size=num_comb, p=level_weights
    )
    order = np.argsort(comb_levels, kind="stable")

    # Driver signals, indexed in creation order: PIs, FF outputs, then the
    # gate outputs in ``order``.  Levels are therefore non-decreasing, so a
    # gate at level L may pick from the first ``num_level0 + level_start[L]``
    # drivers (never none: there are at least two flip-flops).
    num_level0 = spec.num_primary_inputs + num_ff
    num_drivers = num_level0 + num_comb
    driver_levels = np.zeros(num_drivers, dtype=np.int64)
    driver_levels[num_level0:] = comb_levels[order]
    level_start = np.searchsorted(
        driver_levels[num_level0:], np.arange(spec.logic_depth + 2), side="left"
    )
    fanout_counts = np.zeros(num_drivers, dtype=np.int64)
    fanins = np.array([len(cell.input_pins) for cell in gate_cells], dtype=np.int64)
    gate_fanin = fanins[comb_gate].tolist()

    # Selection weights are table lookups: the level-gap preference
    # exp(-0.9 * (gap - 1)) (strong for the previous level, decaying for
    # older ones) times the preferential-attachment factor
    # (1 + fanout)**exponent (existing fan-out raises the odds).
    gap_weight = np.exp(-0.9 * np.arange(spec.logic_depth, dtype=np.float64))
    fanout_weight = (1.0 + np.arange(sum(gate_fanin) + 1, dtype=np.float64)) ** (
        1.0 / spec.fanout_alpha - 1.0
    )

    # Hub signals for the congestion-stressed variant: a fixed set of
    # level-0 drivers (PIs and register outputs, evenly sampled) that gate
    # inputs across every level share with probability ``hub_fraction``.
    hub_pool: Optional[np.ndarray] = None
    if spec.hub_fraction > 0.0:
        count = min(spec.hub_count, num_level0)
        hub_pool = np.unique(np.linspace(0, num_level0 - 1, count).astype(np.int64))

    sources: List[int] = []
    for level in range(1, spec.logic_depth + 1):
        eligible = np.arange(num_level0 + level_start[level])
        level_weight = gap_weight[level - 1 - driver_levels[eligible]]
        for idx in order[level_start[level]:level_start[level + 1]].tolist():
            weights = level_weight * fanout_weight[fanout_counts[: eligible.size]]
            chosen = _choose_drivers(rng, eligible, weights, gate_fanin[idx])
            if hub_pool is not None:
                # Reroute a fraction of the inputs to shared hub signals; the
                # extra RNG draws happen only on this (stress) path, so the
                # classic designs keep their exact generation stream.
                take_hub = rng.random(len(chosen)) < spec.hub_fraction
                if np.any(take_hub):
                    hubs = iter(rng.choice(hub_pool, size=int(take_hub.sum())))
                    chosen = [
                        int(next(hubs)) if is_hub else driver
                        for driver, is_hub in zip(chosen, take_hub)
                    ]
            for driver_idx in chosen:
                fanout_counts[driver_idx] += 1
            sources.extend(chosen)

    # Capture: flip-flop D pins and primary outputs take deep signals.
    deep_pool = np.nonzero(driver_levels >= max(1, spec.logic_depth - 2))[0]
    if deep_pool.size == 0:
        deep_pool = np.arange(num_drivers)
    captures = [
        int(rng.choice(deep_pool)) for _ in range(num_ff + spec.num_primary_outputs)
    ]

    return build_generated_design(
        spec,
        lib,
        total_area=total_area,
        num_ff=num_ff,
        gate_cells=gate_cells,
        comb_gate=comb_gate,
        order=order,
        sources=np.array(sources, dtype=np.int64),
        captures=np.array(captures, dtype=np.int64),
    )


def _choose_drivers(
    rng: np.random.Generator,
    eligible: np.ndarray,
    weights: np.ndarray,
    count: int,
) -> List[int]:
    """Pick ``count`` distinct driver signals among ``eligible``.

    ``weights`` (one per eligible driver, normalized here) prefer signals at
    the immediately preceding level (building long chains) and, with
    strength controlled by ``fanout_alpha``, signals that already have
    fan-out (building shared, high-fan-out nets).
    """
    weights /= weights.sum()
    take = min(count, eligible.size)
    chosen = rng.choice(eligible, size=take, replace=False, p=weights)
    result = [int(c) for c in chosen]
    while len(result) < count:
        result.append(int(rng.choice(eligible)))
    return result


def _design_digest(generate, spec: CircuitSpec) -> str:
    """The snapshot digest the design goldens use, or ``"ValueError"`` if
    generation raised (the weights ran out of positive entries)."""
    try:
        return snapshot_digest(compile_design(generate(spec)))
    except ValueError:
        return "ValueError"


@st.composite
def _specs(draw, hubs: bool):
    return CircuitSpec(
        name="draws",
        num_cells=draw(st.integers(10, 300)),
        sequential_fraction=draw(st.floats(0.01, 0.5)),
        # Up to 900 levels: past level ~830 the level-gap factor of the
        # oldest signals underflows to exactly zero.
        logic_depth=draw(st.one_of(st.integers(1, 30), st.integers(800, 900))),
        # No primary inputs leaves two flip-flops as the only level-0
        # drivers, so a three-input gate at level 1 runs short of drivers.
        num_primary_inputs=draw(st.sampled_from([0, 0, 1, 2, 5, 24])),
        num_primary_outputs=draw(st.integers(0, 12)),
        fanout_alpha=draw(st.floats(0.1, 3.0)),
        seed=draw(st.integers(0, 2**31 - 1)),
        hub_fraction=draw(st.floats(0.05, 0.95)) if hubs else 0.0,
        hub_count=draw(st.integers(1, 24)),
    )


class TestGeneratorParity:
    @settings(max_examples=30, deadline=None)
    @given(spec=_specs(hubs=False))
    def test_matches_classic_draw_loop(self, spec):
        assert _design_digest(generate_circuit, spec) == _design_digest(
            _classic_generate_circuit, spec
        )

    @settings(max_examples=30, deadline=None)
    @given(spec=_specs(hubs=True))
    def test_matches_classic_draw_loop_with_hubs(self, spec):
        assert _design_digest(generate_circuit, spec) == _design_digest(
            _classic_generate_circuit, spec
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_raises_like_classic_when_every_weight_underflows(self, seed):
        # Twelve cells over 5,000 levels: a gate's nearest drivers are
        # hundreds of levels back, where the level-gap factor is zero.
        spec = CircuitSpec(num_cells=12, logic_depth=5000, seed=seed)
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError):
                _classic_generate_circuit(spec)
        with pytest.raises(ValueError, match="positive"):
            generate_circuit(spec)
