"""Perf-trajectory trend check: fresh BENCH_core rows vs the committed baseline.

CI uploads each run's freshly measured ``BENCH_core.fresh.json`` as an
artifact (the perf trajectory); this script closes the loop by *diffing* a
fresh measurement against the committed ``benchmarks/results/BENCH_core.json``
baseline and failing when any gated row regresses by more than the
tolerance (default 10%).

Gated rows are the wall-clock numbers the perf gates care about:

* ``sta_full_ms`` — STA inner-loop cost;
* ``congestion_map_ms`` — RUDY map build (routability inner loop);
* ``gp_plain_ms`` / ``gp_congestion_weighted_ms`` — fixed-length global
  placement without / with in-loop congestion weighting;
* ``snapshot_rebuild_ms`` — worker-side CompiledDesign rebuild;
* ``legalize_ms`` — back-end wall: array-backed Abacus legalization;
* ``extract_ms`` / ``pair_update_ms`` — ``report_timing_endpoint(n, 1)``
  over every failing endpoint and the Eq. 9 pin-pair update (both tiers).

On top of the baseline diff, every fresh row carrying both ``gp_plain_ms``
and ``gp_traced_ms`` is checked *pairwise*: the traced run may not exceed
the untraced run by more than the tracing budget (3% plus a 5ms jitter
floor).  Both walls come from the same bench invocation, so this gate is
enforced even when the baseline was recorded on a different host.

Absolute wall-clock numbers do not transfer across hosts, so when the
baseline was recorded on a different machine/interpreter the comparison is
reported but not enforced (same policy as ``bench_core.py --check``).
Rows whose baseline is under 0.5ms are likewise reported but not enforced:
at that magnitude scheduler jitter dominates even best-of-N timings and a
relative gate flakes (``bench_core.py --check`` gates those same rows with
its own absolute floor).

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py --check \
        --fresh-out benchmarks/results/BENCH_core.fresh.json
    python benchmarks/bench_trend.py \
        --baseline benchmarks/results/BENCH_core.json \
        --fresh benchmarks/results/BENCH_core.fresh.json
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

GATED_FIELDS = (
    "sta_full_ms",
    "congestion_map_ms",
    "gp_plain_ms",
    "gp_congestion_weighted_ms",
    "snapshot_rebuild_ms",
    "legalize_ms",
    "extract_ms",
    "pair_update_ms",
)
# XL tier (payload key "xl_designs"): the hot-path walls are gated; the
# speedup fields (plan vs legacy, array vs reference) are reported but never
# enforced.
XL_GATED_FIELDS = (
    "congestion_map_ms",
    "sta_full_ms",
    "gp_iter_ms",
    "legalize_ms",
    "extract_ms",
    "pair_update_ms",
)
XL_INFO_FIELDS = (
    "gp_plan_speedup",
    "legalize_speedup",
    "extract_speedup",
    "pair_update_speedup",
)
# Below this, best-of-N timings are scheduler noise and a relative gate flakes.
ABS_FLOOR_MS = 0.5
# Tracing budget on the paired same-run gp_plain_ms/gp_traced_ms walls
# (mirrors bench_core.py --max-tracing-overhead and its jitter floor).
TRACING_OVERHEAD_LIMIT = 0.03
TRACING_FLOOR_MS = 5.0


def load_rows(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {
        "host": (payload.get("machine"), payload.get("python")),
        "rows": {row["design"]: row for row in payload.get("designs", [])},
        "xl_rows": {row["design"]: row for row in payload.get("xl_designs", [])},
    }


def diff(baseline: dict, fresh: dict, *, tolerance: float, enforce: bool) -> int:
    """Print the per-design/per-field trend table; return the exit status."""
    failures = []
    header = f"{'design':<12} {'field':<26} {'baseline':>10} {'fresh':>10} {'delta':>8}"
    print(header)
    print("-" * len(header))
    def diff_row(design, base_row, fresh_row, fields):
        for field in fields:
            if field not in fresh_row or field not in base_row:
                continue
            recorded = float(base_row[field])
            measured = float(fresh_row[field])
            delta = measured / recorded - 1.0 if recorded > 0 else 0.0
            flag = ""
            regressed = measured > recorded * (1.0 + tolerance)
            # Sub-floor rows are jitter-dominated: report, never enforce
            # (an additive floor here would instead let a 3x regression of
            # a 0.3ms row pass as within "10%").
            enforceable = enforce and recorded >= ABS_FLOOR_MS
            if regressed:
                flag = (
                    " REGRESSION" if enforceable else " (regressed; not enforced)"
                )
                if enforceable:
                    failures.append(
                        f"{design}.{field}: {measured:.3f}ms vs recorded "
                        f"{recorded:.3f}ms ({delta:+.1%} > {tolerance:.0%})"
                    )
            print(
                f"{design:<12} {field:<26} {recorded:>9.3f}m {measured:>9.3f}m "
                f"{delta:>+7.1%}{flag}"
            )

    for design, fresh_row in fresh["rows"].items():
        # Paired same-run tracing gate: both walls are from the fresh bench
        # invocation, so it holds regardless of the baseline's host profile.
        plain_ms = float(fresh_row.get("gp_plain_ms", 0.0))
        traced_ms = float(fresh_row.get("gp_traced_ms", 0.0))
        if plain_ms and traced_ms:
            overhead = traced_ms / plain_ms - 1.0
            limit = plain_ms * (1.0 + TRACING_OVERHEAD_LIMIT) + TRACING_FLOOR_MS
            flag = " TRACING REGRESSION" if traced_ms > limit else ""
            print(
                f"{design:<12} {'gp_traced_ms (paired)':<26} {plain_ms:>9.3f}m "
                f"{traced_ms:>9.3f}m {overhead:>+7.1%}{flag}"
            )
            if traced_ms > limit:
                failures.append(
                    f"{design}.gp_traced_ms: {traced_ms:.3f}ms vs paired "
                    f"untraced {plain_ms:.3f}ms "
                    f"(> {TRACING_OVERHEAD_LIMIT:.0%} tracing budget)"
                )
        base_row = baseline["rows"].get(design)
        if base_row is None:
            print(f"{design:<12} (no baseline row; skipped)")
            continue
        diff_row(design, base_row, fresh_row, GATED_FIELDS)
    for design, fresh_row in fresh.get("xl_rows", {}).items():
        base_row = baseline.get("xl_rows", {}).get(design)
        if base_row is None:
            print(f"{design:<12} (no XL baseline row; skipped)")
            continue
        if base_row.get("scale") != fresh_row.get("scale"):
            # A reduced-scale smoke run (CI's --xl-scale 0.1) measures a
            # different workload than the committed full-scale rows; an
            # absolute-time diff would be meaningless.
            print(
                f"{design:<12} (scale mismatch: baseline "
                f"{base_row.get('scale')} vs fresh {fresh_row.get('scale')}; "
                "skipped)"
            )
            continue
        diff_row(design, base_row, fresh_row, XL_GATED_FIELDS)
        for field in XL_INFO_FIELDS:
            if field in fresh_row:
                print(
                    f"{design:<12} {field:<26} {'':>10} "
                    f"{fresh_row[field]:>8.2f}x  (informational)"
                )
    if failures:
        print()
        for failure in failures:
            print(f"TREND FAILED: {failure}")
        return 1
    print()
    if enforce:
        print(f"trend OK: no gated row regressed more than {tolerance:.0%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "results" / "BENCH_core.json"),
        help="committed baseline JSON",
    )
    parser.add_argument(
        "--fresh",
        default=str(Path(__file__).parent / "results" / "BENCH_core.fresh.json"),
        help="freshly measured JSON (the uploaded CI artifact)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed regression per gated row (default 0.10 = 10%%)",
    )
    args = parser.parse_args(argv)

    baseline_path, fresh_path = Path(args.baseline), Path(args.fresh)
    if not baseline_path.exists():
        print(f"trend: no baseline at {baseline_path}; nothing to diff")
        return 0
    if not fresh_path.exists():
        print(f"trend: no fresh measurement at {fresh_path}; run bench_core first")
        return 1
    baseline = load_rows(baseline_path)
    fresh = load_rows(fresh_path)

    # Enforcement needs both measurements from the same host profile; where
    # the diff itself runs does not matter (the comparison stays
    # apples-to-apples as long as the two files agree).
    enforce = baseline["host"] == fresh["host"]
    if not enforce:
        print(
            f"trend: baseline recorded on {baseline['host']}, fresh measured "
            f"on {fresh['host']}; reporting only (absolute times do not "
            "transfer across hosts)"
        )
    return diff(baseline, fresh, tolerance=args.tolerance, enforce=enforce)


if __name__ == "__main__":
    raise SystemExit(main())
