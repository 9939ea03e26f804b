"""Pre-PR-4 regression anchors: routability must not perturb existing flows.

The goldens below were recorded from the repository state *before* the
routability subsystem landed (PR 3 head, commit b0983c6).  With routability
disabled — i.e. simply not using the new preset/stages — every existing
preset and the synthetic generator must reproduce them:

* the four original presets' evaluation metrics and position checksums on
  ``sb_mini_18`` (fast settings, seed 0) — verified bitwise against the old
  code at recording time; asserted here with a tight relative tolerance so
  a BLAS/FFT library swap does not flake CI while any semantic change
  (different RNG stream, different default code path) still fails loudly;
* a second, longer schedule on the same design whose late timing firings
  see failing endpoints, so the feedback math actually runs (the fast
  schedule above sees WNS = 0 at every firing): metrics, pin-pair counts
  and the trajectory's fired feedback names;
* SHA-256 checksums over the generator's output arrays — these involve only
  elementwise IEEE arithmetic and the versioned-stable NumPy ``Generator``
  stream, so they are asserted exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.benchgen import load_benchmark
from repro.flow.presets import build_flow
from repro.obs import start_tracing, stop_tracing

_FAST = dict(
    max_iterations=60,
    timing_start_iteration=20,
    min_timing_iterations=20,
    timing_update_interval=10,
)

# Recorded from commit b0983c6 (pre-PR-4) on sb_mini_18 scale 0.4, seed 0.
_PRESET_GOLDEN = {
    "efficient_tdp": {
        "hpwl": 24473.491025641026,
        "tns": -573.4202874532051,
        "wns": -70.80919125079498,
        "x_sum": 24258.46153846154,
        "y_sum": 25971.46153846154,
        "x_dot": 3580267.3846153845,
    },
    "dreamplace": {
        "hpwl": 23378.92692307692,
        "tns": -399.60016925352295,
        "wns": -58.640564283402796,
        "x_sum": 25181.46153846154,
        "y_sum": 25575.46153846154,
        "x_dot": 3829118.3846153845,
    },
    "dreamplace4": {
        "hpwl": 24473.491025641026,
        "tns": -573.4202874532051,
        "wns": -70.80919125079498,
        "x_sum": 24258.46153846154,
        "y_sum": 25971.46153846154,
        "x_dot": 3580267.3846153845,
    },
    "differentiable_tdp": {
        "hpwl": 24473.491025641026,
        "tns": -573.4202874532051,
        "wns": -70.80919125079498,
        "x_sum": 24258.46153846154,
        "y_sum": 25971.46153846154,
        "x_dot": 3580267.3846153845,
    },
}

# Long enough that the last timing firings see failing endpoints.
_FEEDBACK_SCHEDULE = dict(
    max_iterations=300,
    timing_start_iteration=40,
    min_timing_iterations=60,
    timing_update_interval=10,
)

# Recorded on sb_mini_18 scale 0.4, seed 0, before the timing presets'
# feedbacks moved onto the feedback_weight stage.  "fired" is the set of
# trajectory feedback names and "updates" the number of trajectory rows.
_FEEDBACK_GOLDEN = {
    "efficient_tdp": {
        "hpwl": 10649.516666666666,
        "tns": -69.44524099319722,
        "wns": -18.243066292259925,
        "x_sum": 24356.46153846154,
        "y_sum": 24831.46153846154,
        "x_dot": 3608593.3846153845,
        "pin_pairs": 37,
        "fired": ["pin_pair"],
        "updates": 14,
    },
    "dreamplace4": {
        "hpwl": 10406.071794871796,
        "tns": -62.25841224141095,
        "wns": -13.311089042127719,
        "x_sum": 24290.46153846154,
        "y_sum": 24891.46153846154,
        "x_dot": 3579069.3846153845,
        "pin_pairs": 0,
        "fired": ["net_weight"],
        "updates": 14,
    },
    "differentiable_tdp": {
        "hpwl": 10299.794871794871,
        "tns": -100.62778685538285,
        "wns": -20.07664265885313,
        "x_sum": 24260.46153846154,
        "y_sum": 24975.46153846154,
        "x_dot": 3572703.3846153845,
        "pin_pairs": 50,
        "fired": ["smooth_pair"],
        "updates": 13,
    },
}

# SHA-256 over (x, y, inst_cell_id, net_pin_offsets, net_pin_index, pin_net,
# clock_period, die) of the freshly generated design (pre-PR-4 values).
_GENERATOR_GOLDEN = {
    "sb_mini_18": "37855458d855090892ec667471bed8b79aad93fea273dc978cf7e59e5c6210d9",
    "sb_mini_10": "e94bd82a40ca074410f30be8c510b9b0089f29cf1e1418694f3983956c33c673",
    "sb_mini_1": "3b1e2db3720e7bf2c71601c76c830982024989c31e569bc2f3dbbd1efb0a7930",
}


def _design_checksum(name: str) -> str:
    design = load_benchmark(name)
    core = design.core
    digest = hashlib.sha256()
    for array in (
        core.x,
        core.y,
        core.inst_cell_id,
        core.net_pin_offsets,
        core.net_pin_index,
        core.pin_net,
    ):
        digest.update(array.tobytes())
    digest.update(repr(design.clock_period).encode())
    die = core.die
    digest.update(repr((die.xl, die.yl, die.xh, die.yh)).encode())
    return digest.hexdigest()


class TestGeneratorBitExact:
    @pytest.mark.parametrize("name", sorted(_GENERATOR_GOLDEN))
    def test_generated_design_matches_pre_pr4_checksum(self, name):
        assert _design_checksum(name) == _GENERATOR_GOLDEN[name]


class TestPresetRegression:
    @pytest.mark.parametrize("preset", sorted(_PRESET_GOLDEN))
    def test_preset_matches_pre_pr4_golden(self, preset):
        overrides = dict(_FAST) if preset != "dreamplace" else {"max_iterations": 60}
        design = load_benchmark("sb_mini_18", scale=0.4)
        result = build_flow(preset, **overrides).run(design, seed=0)
        golden = _PRESET_GOLDEN[preset]
        ev = result.evaluation
        assert ev.hpwl == pytest.approx(golden["hpwl"], rel=1e-9)
        assert ev.tns == pytest.approx(golden["tns"], rel=1e-9)
        assert ev.wns == pytest.approx(golden["wns"], rel=1e-9)
        assert float(np.sum(result.x)) == pytest.approx(golden["x_sum"], rel=1e-9)
        assert float(np.sum(result.y)) == pytest.approx(golden["y_sum"], rel=1e-9)
        assert float(np.dot(result.x, np.arange(result.x.size))) == pytest.approx(
            golden["x_dot"], rel=1e-9
        )
        # Congestion metrics must stay absent unless explicitly requested.
        assert ev.congestion_peak_overflow is None


class TestPresetRegressionTraced:
    """The same goldens with the tracing subsystem active.

    Tracing performs no array arithmetic, so enabling it must leave every
    preset's metrics and position checksums untouched (the observability
    PR's bit-exactness contract).
    """

    @pytest.mark.parametrize("preset", sorted(_PRESET_GOLDEN))
    def test_preset_golden_unchanged_under_tracing(self, preset):
        overrides = dict(_FAST) if preset != "dreamplace" else {"max_iterations": 60}
        design = load_benchmark("sb_mini_18", scale=0.4)
        stop_tracing()
        tracer = start_tracing()
        try:
            result = build_flow(preset, **overrides).run(design, seed=0)
        finally:
            stop_tracing()
        golden = _PRESET_GOLDEN[preset]
        ev = result.evaluation
        assert ev.hpwl == pytest.approx(golden["hpwl"], rel=1e-9)
        assert ev.tns == pytest.approx(golden["tns"], rel=1e-9)
        assert ev.wns == pytest.approx(golden["wns"], rel=1e-9)
        assert float(np.sum(result.x)) == pytest.approx(golden["x_sum"], rel=1e-9)
        assert float(np.sum(result.y)) == pytest.approx(golden["y_sum"], rel=1e-9)
        assert float(np.dot(result.x, np.arange(result.x.size))) == pytest.approx(
            golden["x_dot"], rel=1e-9
        )
        # The run actually traced: the GP loop produced iteration spans.
        assert "gp.iteration" in tracer.metrics()["spans"]


def _assert_matches(result, golden) -> None:
    ev = result.evaluation
    assert ev.hpwl == pytest.approx(golden["hpwl"], rel=1e-9)
    assert ev.tns == pytest.approx(golden["tns"], rel=1e-9)
    assert ev.wns == pytest.approx(golden["wns"], rel=1e-9)
    assert float(np.sum(result.x)) == pytest.approx(golden["x_sum"], rel=1e-9)
    assert float(np.sum(result.y)) == pytest.approx(golden["y_sum"], rel=1e-9)
    assert float(np.dot(result.x, np.arange(result.x.size))) == pytest.approx(
        golden["x_dot"], rel=1e-9
    )


def _trajectory(result):
    return result.context.metadata.get("feedback", {}).get("trajectory", [])


class TestFeedbackRegression:
    """Goldens on a schedule where the timing feedback math really runs."""

    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for preset in sorted(_FEEDBACK_GOLDEN):
            design = load_benchmark("sb_mini_18", scale=0.4)
            out[preset] = build_flow(preset, **_FEEDBACK_SCHEDULE).run(design, seed=0)
        return out

    @pytest.mark.parametrize("preset", sorted(_FEEDBACK_GOLDEN))
    def test_preset_matches_feedback_golden(self, results, preset):
        result = results[preset]
        golden = _FEEDBACK_GOLDEN[preset]
        _assert_matches(result, golden)
        pairs = result.context.pin_pairs
        assert (len(pairs) if pairs is not None else 0) == golden["pin_pairs"]
        trajectory = _trajectory(result)
        assert len(trajectory) == golden["updates"]
        assert sorted({name for row in trajectory for name in row["fired"]}) == golden["fired"]

    def test_presets_differ_pairwise(self, results):
        digests = {
            preset: hashlib.sha256(result.x.tobytes() + result.y.tobytes()).hexdigest()
            for preset, result in results.items()
        }
        assert len(set(digests.values())) == len(digests), digests

    def test_recording_timing_leaves_dreamplace_unchanged(self):
        plain = build_flow("dreamplace", max_iterations=300).run(
            load_benchmark("sb_mini_18", scale=0.4), seed=0
        )
        recorded = build_flow(
            "dreamplace", max_iterations=300, record_timing_every=10
        ).run(load_benchmark("sb_mini_18", scale=0.4), seed=0)
        np.testing.assert_array_equal(recorded.x, plain.x)
        np.testing.assert_array_equal(recorded.y, plain.y)
        assert recorded.evaluation.tns == plain.evaluation.tns
        assert not _trajectory(plain)
        trajectory = _trajectory(recorded)
        assert len(trajectory) == 16
        assert all(row["fired"] == ["record"] for row in trajectory)
        assert "tns" in recorded.history.extra
