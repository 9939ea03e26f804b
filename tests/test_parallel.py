"""Kernel-pool engine tests: bit-exactness, lifecycle, and crash safety.

The engine's contract (see ``repro.parallel``) is that sharded hot paths are
*bitwise* identical to the serial code for any shard count — workers compute
only order-independent pieces (min/max reductions, integer bincounts) and
the parent replays float scatter-adds in canonical order.  The hypothesis
properties here drive random designs through random shard counts and assert
exact equality; the pool tests exercise the real process workers, including
teardown on worker crash (no /dev/shm leak).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchgen.suite import load_benchmark
from repro.parallel import (
    KernelPool,
    KernelPoolError,
    SerialShardRunner,
    resolve_worker_count,
    split_ranges,
)
from repro.placement.density import ElectrostaticDensity, auto_bin_count
from repro.placement.initial import initial_placement
from repro.route.rudy import CongestionConfig, CongestionEstimator
from repro.timing.sta import _LevelWorklist


def _shm_entries():
    """Names currently present under /dev/shm (empty set if unsupported)."""
    root = Path("/dev/shm")
    if not root.exists():  # pragma: no cover - non-Linux
        return set()
    return {entry.name for entry in root.iterdir()}


def _design(name="sb_mini_18", scale=0.5):
    return load_benchmark(name, scale=scale)


# ----------------------------------------------------------------------
# split_ranges
# ----------------------------------------------------------------------
@given(total=st.integers(0, 10_000), parts=st.integers(1, 64))
def test_split_ranges_partitions_exactly(total, parts):
    ranges = split_ranges(total, parts)
    # Contiguous, non-empty, covering [0, total).
    cursor = 0
    for start, end in ranges:
        assert start == cursor
        assert end > start
        cursor = end
    assert cursor == total
    assert len(ranges) <= parts
    if total:
        sizes = [end - start for start, end in ranges]
        assert max(sizes) - min(sizes) <= 1


def test_resolve_worker_count_positive():
    assert resolve_worker_count() >= 1
    assert resolve_worker_count(3) == 3


# ----------------------------------------------------------------------
# Sharded kernels == serial, property-tested over shard counts and designs
# ----------------------------------------------------------------------
_DESIGN_NAMES = ["sb_mini_18", "sb_mini_4", "sb_cong_1"]


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(_DESIGN_NAMES),
    scale=st.sampled_from([0.3, 0.5, 0.8]),
    shards=st.integers(1, 8),
    seed=st.integers(0, 5),
)
def test_sharded_rudy_map_bitwise_equals_serial(name, scale, shards, seed):
    design = _design(name, scale)
    x, y = initial_placement(design, seed=seed)
    serial = CongestionEstimator(design).estimate(x, y)
    sharded = CongestionEstimator(
        design,
        CongestionConfig(workers=shards),
        runner=SerialShardRunner(shards),
    ).estimate(x, y)
    assert np.array_equal(serial.demand_h, sharded.demand_h)
    assert np.array_equal(serial.demand_v, sharded.demand_v)
    assert np.array_equal(serial.pin_density, sharded.pin_density)
    for a, b in zip(serial.net_bboxes, sharded.net_bboxes):
        assert np.array_equal(a, b)


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(_DESIGN_NAMES),
    scale=st.sampled_from([0.3, 0.5, 0.8]),
    shards=st.integers(1, 8),
    seed=st.integers(0, 5),
)
def test_sharded_density_grid_bitwise_equals_serial(name, scale, shards, seed):
    design = _design(name, scale)
    x, y = initial_placement(design, seed=seed)
    serial = ElectrostaticDensity(design)
    sharded = ElectrostaticDensity(
        design, workers=shards, runner=SerialShardRunner(shards)
    )
    assert np.array_equal(serial._splat(x, y), sharded._splat(x, y))
    # The full evaluation (FFT solve on top of the splat) must also match.
    se = serial.evaluate(x, y)
    pe = sharded.evaluate(x, y)
    assert np.array_equal(se.energy, pe.energy)
    assert np.array_equal(se.grad_x, pe.grad_x)
    assert np.array_equal(se.grad_y, pe.grad_y)


def test_density_area_inflation_keeps_sharded_parity():
    """set_area_scale invalidates the worker-side term arrays."""
    design = _design()
    x, y = initial_placement(design, seed=0)
    serial = ElectrostaticDensity(design)
    sharded = ElectrostaticDensity(design, workers=3, runner=SerialShardRunner(3))
    scale = np.ones(design.num_instances)
    scale[::2] = 1.3
    serial.set_area_scale(scale)
    sharded.set_area_scale(scale)
    assert np.array_equal(serial._splat(x, y), sharded._splat(x, y))


# ----------------------------------------------------------------------
# Real process pool
# ----------------------------------------------------------------------
class TestKernelPool:
    def test_pool_rudy_matches_serial(self):
        design = _design("sb_mini_1", 0.5)
        x, y = initial_placement(design, seed=1)
        before = _shm_entries()
        with KernelPool(2) as pool:
            serial_map = CongestionEstimator(design).estimate(x, y)
            pooled_map = CongestionEstimator(
                design, CongestionConfig(workers=2), runner=pool
            ).estimate(x, y)
            assert np.array_equal(serial_map.demand_h, pooled_map.demand_h)
            assert np.array_equal(serial_map.demand_v, pooled_map.demand_v)
            assert np.array_equal(serial_map.pin_density, pooled_map.pin_density)
        assert _shm_entries() == before

    def test_pool_reuse_across_calls_sees_mutations(self):
        """The parent rewrites positions between calls; workers must see them."""
        design = _design()
        with KernelPool(2) as pool:
            estimator = CongestionEstimator(
                design, CongestionConfig(workers=2), runner=pool
            )
            for seed in (0, 1):
                x, y = initial_placement(design, seed=seed)
                pooled = estimator.estimate(x, y)
                serial = CongestionEstimator(design).estimate(x, y)
                assert np.array_equal(serial.demand_h, pooled.demand_h)
                assert np.array_equal(serial.demand_v, pooled.demand_v)
                assert np.array_equal(serial.pin_density, pooled.pin_density)

    def test_worker_exception_tears_down_and_unlinks(self):
        """A kernel raising in a worker poisons the pool and frees /dev/shm."""
        before = _shm_entries()
        pool = KernelPool(2)
        block = pool.register({"data": np.arange(8, dtype=np.float64)})
        # Sanity: the good kernel runs.
        out = pool.run("_selftest_sum", [block], [(0, 8)])
        assert out == [28.0]
        with pytest.raises(KernelPoolError):
            pool.run("_selftest_fail", [block], [(0, 8)])
        assert pool.closed
        assert _shm_entries() == before
        # A poisoned pool refuses further work instead of hanging.
        with pytest.raises(KernelPoolError):
            pool.run("_selftest_sum", [block], [(0, 8)])

    def test_close_is_idempotent_and_unlinks(self):
        before = _shm_entries()
        pool = KernelPool(2)
        pool.register({"data": np.zeros(16)})
        created = _shm_entries() - before
        assert created  # segment exists while the pool holds it
        pool.close()
        pool.close()
        assert _shm_entries() == before


# ----------------------------------------------------------------------
# Worklist satellite: argsort grouping == the old per-level masking
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


# ----------------------------------------------------------------------
# auto_bin_count satellite: existing tiers pinned, XL unclamped
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
# Config threading: the one knob reaches every consumer
# ----------------------------------------------------------------------
def test_kernel_workers_threads_through_presets():
    from repro.flow.presets import build_flow

    for preset in (
        "efficient_tdp",
        "dreamplace",
        "dreamplace4",
        "differentiable_tdp",
        "routability",
        "routability-gp",
    ):
        flow = build_flow(preset, kernel_workers=3)
        assert flow.kernel_workers == 3
        # The placement stage's config carries the knob (pure construction:
        # no pool is started until a hot path actually runs with workers>0).
        gp_stages = [
            s for s in flow.stages if getattr(s, "config", None) is not None
            and hasattr(s.config, "kernel_workers")
        ]
        assert gp_stages, f"{preset}: no stage carries kernel_workers"
        assert all(s.config.kernel_workers == 3 for s in gp_stages)


def test_kernel_workers_reaches_congestion_config():
    from repro.route.flow import RoutabilityConfig, RoutabilityGPConfig

    for cls in (RoutabilityConfig, RoutabilityGPConfig):
        cfg = cls(kernel_workers=4)
        assert cfg.congestion_config().workers == 4
        assert cfg.placement_config().kernel_workers == 4
        # An explicit congestion.workers wins over the flat knob.
        cfg = cls(kernel_workers=4)
        cfg.congestion.workers = 2
        assert cfg.congestion_config().workers == 2


def test_congestion_config_rejects_negative_workers():
    with pytest.raises(ValueError):
        CongestionConfig(workers=-1).validate()


# ----------------------------------------------------------------------
# Batch satellite: affinity-aware default + metadata
# ----------------------------------------------------------------------
def test_batch_reports_worker_resolution():
    from repro.flow.batch import BatchJob, run_batch

    job = BatchJob(
        design="sb_mini_18",
        preset="dreamplace",
        scale=0.2,
        overrides={"max_iterations": 5},
    )
    auto = run_batch([job])
    assert auto.as_dict()["workers_source"] == "auto"
    assert 1 <= auto.max_workers <= resolve_worker_count()
    explicit = run_batch([job], max_workers=2)
    assert explicit.as_dict()["workers_source"] == "explicit"
    assert explicit.max_workers == 2
