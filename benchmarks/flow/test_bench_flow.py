"""Smoke test of the end-to-end flow benchmark at a tiny scale.

Runs every workload once untraced and once traced, with designs shrunk to
2%, and checks the output that BENCHMARK.json defines: every metric
named there is emitted with its unit, no flow fails, placements
repeat bit for bit, and the traced layer self times account for the whole
traced flow wall.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _start(tmp_path: Path, trace: int) -> tuple:
    out = tmp_path / f"record_trace{trace}.json"
    proc = subprocess.Popen(
        [
            sys.executable, str(HERE / "bench_flow.py"), "--scale", "0.02",
            "--trace", str(trace), "--trace-dir", str(tmp_path), "--out", str(out),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    return proc, out


def _finish(proc: subprocess.Popen, out: Path) -> tuple:
    stdout, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0, stdout + stderr
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, json.loads(out.read_text(encoding="utf-8"))


def _assert_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in declared}
    emitted = {key: entry["unit"] for key, entry in result["metrics"].items()}
    assert emitted == expected


def test_bench_flow_smoke(tmp_path):
    # Both runs at once: the smoke test checks outputs, not times.
    runs = [_start(tmp_path, trace=0), _start(tmp_path, trace=1)]
    try:
        (untraced, untraced_record), (traced, record) = [_finish(*run) for run in runs]
    finally:
        for proc, _ in runs:
            proc.kill()
            proc.wait(timeout=10)
    _assert_metrics(untraced, SPEC["end_to_end"])
    _assert_metrics(traced, SPEC["per_layer"])

    flow_layers = [layer for layer in layers.LAYERS if layer.span not in layers.SETUP_SPANS]
    for name in WORKLOADS:
        run = record["workloads"][name]
        assert run["traced_digest"] == run["digest"]
        assert run["digest"] == untraced_record["workloads"][name]["digest"]
        assert Path(run["trace_file"]).name in os.listdir(tmp_path)
        values = run["layers"]
        layer_sum = sum(values[layer.seconds_metric]["value"] for layer in flow_layers)
        assert abs(layer_sum - run["traced_flow_s"]) <= 0.01 * run["traced_flow_s"]
        assert values["flow.self_s"]["value"] <= 0.05 * run["traced_flow_s"]
