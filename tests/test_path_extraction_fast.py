"""Vectorized k=1 critical-path extraction and the array-backed Eq. 9 update.

* ``report_timing_endpoint(n, 1)`` (the lock-step backward chase) must
  return exactly the heap search's paths: arcs, pins, start/endpoint and
  the bits of arrival and required.
* An exact tie between two fan-in arcs must send the endpoint to the heap
  fallback, and the result must still match the heap.
* ``PinPairSet.update_from_paths`` must equal the sequential dict loop of
  ``PinPairSet._reference_update_from_paths`` bit for bit, weights and
  insertion order both.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen import CircuitSpec, generate_circuit
from repro.core.pin_attraction import PinPairSet
from repro.netlist import Design
from repro.obs import start_tracing, stop_tracing
from repro.placement.initial import initial_placement
from repro.timing import (
    MultiCornerSTA,
    PathBatch,
    STAEngine,
    TimingConstraints,
    TimingPath,
    report_timing_endpoint,
    resolve_corners,
)
from repro.timing.graph import ArcKind
from repro.timing.report import _worst_endpoints, _worst_paths_to_endpoint

_DESIGNS = {}


def _design(seed: int, num_cells: int, depth: int) -> Design:
    """sb_mini-style synthetic design, cached per parameter set."""
    key = (seed, num_cells, depth)
    if key not in _DESIGNS:
        _DESIGNS[key] = generate_circuit(
            CircuitSpec(
                name=f"fast_extract_{seed}",
                num_cells=num_cells,
                sequential_fraction=0.2,
                logic_depth=depth,
                num_primary_inputs=6,
                num_primary_outputs=6,
                clock_tightness=0.7,
                seed=seed,
            )
        )
    return _DESIGNS[key]


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _assert_matches_heap(engine, result, paths, *, failing_only: bool) -> None:
    endpoints = _worst_endpoints(result, 10**9, failing_only=failing_only)
    expected = []
    for endpoint in endpoints:
        expected.extend(_worst_paths_to_endpoint(engine, result, int(endpoint), 1))
    got = list(paths)
    assert len(got) == len(expected)
    for fast, heap in zip(got, expected):
        assert fast.arcs == heap.arcs
        assert fast.pins == heap.pins
        assert (fast.startpoint, fast.endpoint) == (heap.startpoint, heap.endpoint)
        assert _bits(fast.arrival) == _bits(heap.arrival)
        assert _bits(fast.required) == _bits(heap.required)


class TestChaseMatchesHeap:
    @settings(max_examples=12, deadline=None)
    @given(
        design_seed=st.integers(0, 3),
        num_cells=st.sampled_from([80, 160]),
        depth=st.integers(3, 7),
        placement_seed=st.integers(0, 2**16),
        failing_only=st.booleans(),
    )
    def test_random_designs_and_placements(
        self, design_seed, num_cells, depth, placement_seed, failing_only
    ):
        design = _design(design_seed, num_cells, depth)
        engine = STAEngine(design)
        x, y = initial_placement(design, seed=placement_seed)
        result = engine.update_timing(x, y)
        paths, stats = report_timing_endpoint(
            engine, 10**9, 1, result=result, failing_only=failing_only
        )
        assert isinstance(paths, PathBatch)
        _assert_matches_heap(engine, result, paths, failing_only=failing_only)
        assert stats.num_paths == len(paths)
        assert stats.num_endpoints == len({p.endpoint for p in paths})
        assert stats.num_pin_pairs == len(
            {pair for p in paths for pair in p.pin_pairs(engine.graph)}
        )

    @pytest.mark.parametrize("failing_only", [True, False])
    def test_mcmm_corner_views(self, failing_only):
        design = _design(1, 160, 6)
        engine = MultiCornerSTA(design, resolve_corners("fast,typ,slow"))
        x, y = initial_placement(design, seed=5)
        result = engine.update_timing(x, y)
        for index in range(engine.num_corners):
            view = engine.corner_view(index)
            corner_result = result.corner_result(index)
            paths, _ = report_timing_endpoint(
                view, 10**9, 1, result=corner_result, failing_only=failing_only
            )
            _assert_matches_heap(view, corner_result, paths, failing_only=failing_only)

    def test_batch_materialises_like_a_list(self):
        design = _design(0, 80, 4)
        engine = STAEngine(design)
        paths, _ = report_timing_endpoint(engine, 5, 1)
        assert paths == list(paths)
        assert paths[-1] == list(paths)[-1]
        assert paths[1:3] == list(paths)[1:3]
        assert PathBatch.from_paths(list(paths), engine.graph) == paths
        joined = PathBatch.concatenate([paths, list(paths)[:2]], engine.graph)
        assert joined == list(paths) + list(paths)[:2]
        empty, stats = report_timing_endpoint(engine, 0, 1)
        assert empty == [] and len(empty) == 0 and stats.num_pin_pairs == 0


def _build_tie_design(library) -> Design:
    """in0/in1 -> NAND2 a/b -> DFF d: two mirror-image fan-ins of the NAND."""
    design = Design("tie", die=(0, 0, 200, 204), library=library)
    design.add_port("in0", "input", x=0, y=100)
    design.add_port("in1", "input", x=0, y=110)
    design.add_port("clk", "input", x=0, y=0)
    design.add_port("out0", "output", x=200, y=100)
    design.add_instance("u1", "NAND2_X1", x=100, y=96)
    design.add_instance("ff", "DFF_X1", x=150, y=96)
    for net, pins in {
        "n0": [("in0", None), ("u1", "a")],
        "n1": [("in1", None), ("u1", "b")],
        "n2": [("u1", "o"), ("ff", "d")],
        "nclk": [("clk", None), ("ff", "ck")],
        "nq": [("ff", "q"), ("out0", None)],
    }.items():
        design.add_net(net)
        for owner, pin in pins:
            design.connect(net, owner, pin)
    design.clock_period = 10.0
    design.clock_port = "clk"
    design.finalize()
    return design


def _unit_delay_result(engine: STAEngine):
    """The engine's result re-timed with every arc at delay 1.0.

    Integer arrivals make ``arrival[src] + (suffix + delay)`` exact, so the
    NAND's two fan-in bounds tie exactly and so does the next step's bound.
    """
    result = engine.update_timing()
    graph = engine.graph
    delay = np.ones_like(result.arc_delay)
    arrival = np.where(np.diff(graph.fanin_offsets) == 0, 0.0, -1.0e30)
    for _ in range(graph.num_pins):
        updated = arrival.copy()
        np.maximum.at(updated, graph.arc_to, arrival[graph.arc_from] + delay)
        if np.array_equal(updated, arrival):
            break
        arrival = updated
    return dataclasses.replace(result, arrival=arrival, arc_delay=delay)


class TestExactTieFallback:
    def test_tie_forces_heap_fallback(self, library):
        design = _build_tie_design(library)
        engine = STAEngine(design, TimingConstraints(clock_period=10.0, clock_port="clk"))
        result = _unit_delay_result(engine)
        tracer = start_tracing()
        try:
            paths, stats = report_timing_endpoint(engine, 10, 1, result=result)
        finally:
            stop_tracing()
        assert stats.num_fallback_endpoints >= 1
        assert tracer.metrics()["counters"]["extract.fallback_endpoints"] == (
            stats.num_fallback_endpoints
        )
        _assert_matches_heap(engine, result, paths, failing_only=False)
        names = {engine.graph.pin_name(p) for path in paths for p in path.pins}
        assert "u1/o" in names

    def test_no_fallback_without_ties(self):
        design = _design(2, 160, 5)
        engine = STAEngine(design)
        _, stats = report_timing_endpoint(engine, 10**9, 1)
        assert stats.num_fallback_endpoints == 0


# ----------------------------------------------------------------------
# Eq. 9: array update vs the sequential dict loop
# ----------------------------------------------------------------------
def _pair_set_state(pairs: PinPairSet):
    pin_i, pin_j, weights = pairs.as_arrays()
    return pin_i.tolist(), pin_j.tolist(), weights.tobytes()


@st.composite
def _path_lists(draw, num_arcs: int):
    """Paths over a small pool of arcs, so pairs repeat within and across paths."""
    pool = draw(
        st.lists(st.integers(0, num_arcs - 1), min_size=1, max_size=10, unique=True)
    )
    paths = []
    for _ in range(draw(st.integers(0, 6))):
        arcs = draw(st.lists(st.sampled_from(pool), max_size=8))
        arrival = draw(st.floats(0.0, 500.0))
        required = draw(st.floats(-100.0, 500.0))
        paths.append(
            TimingPath(
                pins=[],
                arcs=arcs,
                arrival=arrival,
                required=required,
                endpoint=draw(st.integers(0, 50)),
                startpoint=0,
            )
        )
    return paths


@pytest.fixture(scope="module")
def pair_graph():
    graph = STAEngine(_design(0, 80, 4)).graph
    assert np.any(graph.arc_kind == int(ArcKind.NET))
    assert np.any(graph.arc_kind == int(ArcKind.CELL))
    return graph


class TestArrayEq9MatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        w0=st.floats(0.5, 20.0),
        w1=st.floats(0.0, 2.0),
        cap=st.one_of(st.none(), st.floats(0.0, 5.0)),
        wns=st.floats(-600.0, 0.0),
        as_batch=st.booleans(),
    )
    def test_update_matches_dict_loop(self, pair_graph, data, w0, w1, cap, wns, as_batch):
        max_weight = None if cap is None else w0 + cap
        fast = PinPairSet(w0=w0, w1=w1, max_weight=max_weight)
        reference = PinPairSet(w0=w0, w1=w1, max_weight=max_weight)
        for _ in range(2):  # the second round hits pairs already in the set
            paths = data.draw(_path_lists(pair_graph.num_arcs))
            given_paths = PathBatch.from_paths(paths, pair_graph) if as_batch else paths
            added = fast.update_from_paths(given_paths, pair_graph, wns)
            reference_added = reference._reference_update_from_paths(paths, pair_graph, wns)
            assert added == reference_added
            assert _pair_set_state(fast) == _pair_set_state(reference)
            assert fast.version == reference.version

    def test_extracted_paths_list_and_batch(self, pair_graph):
        design = _design(0, 80, 4)
        engine = STAEngine(design)
        result = engine.update_timing()
        batch, _ = report_timing_endpoint(engine, 10**9, 1, failing_only=False)
        assert any(p.slack >= 0 for p in batch) and any(p.slack < 0 for p in batch)
        from_batch = PinPairSet(w1=0.5, max_weight=10.6)
        from_list = PinPairSet(w1=0.5, max_weight=10.6)
        reference = PinPairSet(w1=0.5, max_weight=10.6)
        for _ in range(3):
            from_batch.update_from_paths(batch, engine.graph, result.wns)
            from_list.update_from_paths(list(batch), engine.graph, result.wns)
            reference._reference_update_from_paths(list(batch), engine.graph, result.wns)
        assert len(reference) > 0
        assert _pair_set_state(from_batch) == _pair_set_state(reference)
        assert _pair_set_state(from_list) == _pair_set_state(reference)

    def test_empty_input(self, pair_graph):
        pairs = PinPairSet()
        assert pairs.update_from_paths([], pair_graph, -5.0) == 0
        assert pairs.update_from_paths(PathBatch.from_paths([], pair_graph), pair_graph, -5.0) == 0
        assert len(pairs) == 0 and pairs.version == 2
        pin_i, pin_j, weights = pairs.as_arrays()
        assert pin_i.dtype == pin_j.dtype == np.int64 and weights.size == 0

    def test_lookup_views(self, pair_graph):
        pairs = PinPairSet(w0=3.0)
        pairs.set_weights({(7, 2): 1.5, (1, 9): 2.0})
        assert (7, 2) in pairs and (2, 7) not in pairs
        assert pairs.weight((1, 9)) == 2.0 and pairs.weight((9, 1)) == 0.0
        assert list(pairs.items()) == [((7, 2), 1.5), ((1, 9), 2.0)]
        assert pairs.total_weight() == 3.5


class TestPinPairSetValidation:
    def test_w0_must_be_positive(self):
        with pytest.raises(ValueError, match="w0"):
            PinPairSet(w0=0.0)

    def test_w1_must_be_non_negative(self):
        with pytest.raises(ValueError, match="w1"):
            PinPairSet(w1=-0.1)

    def test_max_weight_must_not_undercut_w0(self):
        with pytest.raises(ValueError, match="max_weight"):
            PinPairSet(w0=10.0, max_weight=9.5)
        assert PinPairSet(w0=10.0, max_weight=10.0).max_weight == 10.0
