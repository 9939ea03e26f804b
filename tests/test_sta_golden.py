"""Golden SHA-256 digests of the STA annotations.

These pin the exact bits of ``arrival``, ``required``, ``slack``,
``arc_delay`` and ``endpoint_slack`` produced by the single-corner
:class:`~repro.timing.STAEngine` and the stacked
:class:`~repro.timing.mcmm.MultiCornerSTA` (one derated corner, and the
three presets at once) on three generated designs, over three passes:

* ``full`` — the first full update at the generated placement;
* ``moved`` — an update after moving about 1% of the movable cells;
* ``retimed`` — an update after ``set_constraints``/``set_corners``
  swaps in a clock tightened to 80% of the design's period.

The digests were recorded before the two engines shared one propagation
implementation and are asserted exactly: any change in arithmetic order,
boundary conditions or corner handling fails loudly.  The STA path uses
only elementwise IEEE arithmetic, ``bincount``/``ufunc.at``
reductions and the versioned NumPy ``Generator`` stream, so the bits do
not depend on the BLAS build.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.benchgen import load_benchmark
from repro.timing import STAEngine, TimingConstraints
from repro.timing.mcmm import MultiCornerSTA

_DESIGNS = ("sb_mini_1", "sb_mini_18", "sb_cong_1")
_ENGINES = ("sta", "mcmm_slow", "mcmm_fast_typ_slow")
_FIELDS = ("arrival", "required", "slack", "arc_delay", "endpoint_slack")

# Recorded from the two-engine implementation (separate STAEngine and
# MultiCornerSTA propagation code).
_GOLDEN = {
    "sb_mini_1": {
        "sta": {
            "full": "aa6f4eeea9cf70ddbf017ed9135189b8e1d447ceb24cf867c3d84af79c0c3fc7",
            "moved": "90fcc7c4619e45c3bc7d780d8583da464d038e75277edf9fc1bdff93ef85c3d6",
            "retimed": "e79a37264c120137b20a6399fbf4bb5ed4f9d45baa86639c2ec66ee5d4af094f",
        },
        "mcmm_slow": {
            "full": "69939bd6f128dbe22e8772c3d0635d7718ebe75e23d8e32d12e40b769d575c47",
            "moved": "7014a923175304c930095b363480a2af619ab0688a67aae062be6baa9a56a08b",
            "retimed": "6f6e7ebd017e2c01b5dace23a9dca8bc8615462adc933e40896d5a76fea41e2d",
        },
        "mcmm_fast_typ_slow": {
            "full": "d8d8048b22fafd406e28af43db02d8bd54cef0d44d77a968488588c21e4e8e02",
            "moved": "a74096ade01ed184105f6d58062c6d3f01c76ba3adeec00c6e8645dbaeaca5c9",
            "retimed": "3f26c32dac54e54587ec5abcb7e25e0976c3359e1817dcfd26e86e27761e2d96",
        },
    },
    "sb_mini_18": {
        "sta": {
            "full": "a658454838bf166239d632b4fb46a729e6e4ff3b559ebe0f3d425de29b85c4c2",
            "moved": "257ef98ed3286f22bfe4be25b9205edf51f11ebc0c110cd41f17ca149016fa82",
            "retimed": "20f65a7ac1b08ea499f785f412726bacc336d8287375d7935d06e176c8fa639b",
        },
        "mcmm_slow": {
            "full": "5086fa3a65634a3a7714f7133522f28e78dfafb5ec92eaf27ca8076f125850b4",
            "moved": "104fae26be1acfc184b4f9ed941a6b18d822833832b900668f47c79d95e338e1",
            "retimed": "129fe00cac4ab7b56764daeaa434ca176c5d8d8fff7e0176fdb7acd1f975462f",
        },
        "mcmm_fast_typ_slow": {
            "full": "aa3ca2828d5bb81dd4f51e26b9defba2dd3dae5523446ec7f38c374cce88b72b",
            "moved": "319eeaa67ede8545140be2c6d0fddcda83467f594dc3f44b762f83d5e1aa9488",
            "retimed": "3bf633769bd0f7e459d27e6abd643f11168df8d3643762b5ae0b191161e579e9",
        },
    },
    "sb_cong_1": {
        "sta": {
            "full": "de00a9a19a7e7cfa3eb5176b3c4f50c6635dda8295da1c1f0f28f238ef7d9fbe",
            "moved": "da194fb1f3bfd0f3d0430c140657ce7b5373db48860d0d6d8c1154093d463e0c",
            "retimed": "246b1be0608a3b5c81770e0fa6f989229a87c4a0f9a39c3db153add7c9a90059",
        },
        "mcmm_slow": {
            "full": "3e1163126db5ce62309435fb913549d8c27b9d7e93030cff5b69015930bd0139",
            "moved": "aedcc7b92930bf6ed682f8522599e781695d688b2f17472fab201cb8cf211d7c",
            "retimed": "b5185ce6a450576816c8b5c071a7f10b03439acde83fbc254393bfbe4db4a74a",
        },
        "mcmm_fast_typ_slow": {
            "full": "a9fa25738e1038f7821cb95bcd1dc71b39af9e101cee472b819a1d6a4765230d",
            "moved": "e559c23a94aad0b59ccef7dc42d23a7085cd95de37a6fd23a4f97b015454eaee",
            "retimed": "f53180def9f828358ba2ed905182bb19ab9ae6bb368b7f956f421b88ff9e8fa6",
        },
    },
}


@functools.lru_cache(maxsize=None)
def _design(name):
    # STA never writes the design, so one instance serves every engine.
    return load_benchmark(name, scale=0.5)


def _digest(result) -> str:
    sha = hashlib.sha256()
    for name in _FIELDS:
        array = np.ascontiguousarray(getattr(result, name), dtype=np.float64)
        sha.update(name.encode())
        sha.update(str(array.shape).encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _build(kind, design):
    if kind == "sta":
        return STAEngine(design)
    spec = {"mcmm_slow": "slow", "mcmm_fast_typ_slow": "fast,typ,slow"}[kind]
    return MultiCornerSTA(design, spec)


def _retime(kind, engine, design):
    tight = TimingConstraints.from_design(design)
    tight.clock_period *= 0.8
    if kind == "sta":
        engine.set_constraints(tight)
    else:
        engine.set_corners(engine.corners, default_constraints=tight)


def compute_digests(design_name, kind):
    """``{pass: digest}`` for one design/engine pair."""
    design = _design(design_name)
    engine = _build(kind, design)
    x, y = design.positions()
    x, y = x.copy(), y.copy()
    digests = {}

    engine.update_timing(x, y)
    digests["full"] = _digest(engine.last_result)

    rng = np.random.default_rng(2025)
    movable = design.arrays.movable_index
    count = max(1, int(round(0.01 * movable.size)))
    moved = rng.choice(movable, size=count, replace=False)
    x[moved] += rng.normal(0.0, 20.0, size=count)
    y[moved] += rng.normal(0.0, 20.0, size=count)
    engine.update_timing(x, y)
    digests["moved"] = _digest(engine.last_result)

    _retime(kind, engine, design)
    engine.update_timing(x, y)
    digests["retimed"] = _digest(engine.last_result)
    return digests


@pytest.mark.parametrize("kind", _ENGINES)
@pytest.mark.parametrize("design_name", _DESIGNS)
def test_sta_annotations_match_golden(design_name, kind):
    assert compute_digests(design_name, kind) == _GOLDEN[design_name][kind]
