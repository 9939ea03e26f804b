"""The ``repro`` command-line interface.

Five subcommands over the flow pipeline:

* ``repro run DESIGN``      — run one preset on one benchmark
  (``--profile`` writes a per-stage runtime breakdown JSON next to the
  result; ``--routability`` adds the congestion-driven inflation loop and
  congestion metrics to any preset);
* ``repro batch D1 D2 ...`` — run many designs concurrently (``--all`` for
  the whole sb_mini suite, ``--seeds N`` for seed replicates,
  ``--ship compiled|shared`` to build each design once and ship array
  snapshots to the workers);
* ``repro compare DESIGN``  — run every preset on one design, side by side;
* ``repro sweep DESIGN --param loss --values quadratic,linear`` — sweep one
  config field of a preset;
* ``repro congestion DESIGN`` — run a preset and report the RUDY / pin
  density congestion of the resulting placement (peak/average overflow,
  ACE scores, top hotspot bins);
* ``repro trace DESIGN -o trace.json`` — run a preset with tracing enabled
  and export a Chrome trace-event / Perfetto JSON timeline (``run`` and
  ``batch`` accept the same via ``--trace [PATH]``).

Config fields are overridden with repeated ``--set key=value`` flags (values
are parsed as int/float/bool when they look like one).  Every subcommand
accepts ``--corners fast,typ,slow`` to run multi-corner (MCMM) timing:
feedback and evaluation then use the merged worst-over-corner slack and the
reports carry a per-corner breakdown.  Every subcommand can emit
machine-readable JSON with ``--json PATH``.

Examples::

    repro run sb_mini_18 --preset efficient_tdp --set max_iterations=300
    repro run sb_cong_1 --preset routability
    repro batch --all --preset dreamplace4 --jobs 4 --json batch.json
    repro compare sb_mini_1 --scale 0.5
    repro sweep sb_mini_4 --param w0 --values 5,10,20
    repro congestion sb_cong_1 --preset dreamplace --routability
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Optional, Sequence

from repro.benchgen.suite import available_design_names, benchmark_names
from repro.flow.batch import SHIP_MODES, BatchJob, run_batch
from repro.flow.presets import preset_names
from repro.obs import start_tracing, stop_tracing, write_chrome_trace


def _parse_value(text: str) -> Any:
    lowered = text.lower()
    if lowered in {"true", "false"}:
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _parse_overrides(pairs: Optional[Sequence[str]]) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_value(value.strip())
    if "seed" in overrides:
        raise SystemExit("use --seed (and --seeds for replicates) instead of --set seed=...")
    return overrides


def _apply_corners(args: argparse.Namespace, overrides: Dict[str, Any]) -> Dict[str, Any]:
    """Fold a validated ``--corners`` spec into the config overrides."""
    spec = getattr(args, "corners", None)
    if spec is None:
        return overrides
    from repro.timing.mcmm import resolve_corners

    try:
        resolve_corners(spec)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"--corners: {exc}") from exc
    if "corners" in overrides:
        raise SystemExit("use --corners instead of --set corners=...")
    overrides["corners"] = spec
    return overrides


def _check_designs(names: Sequence[str]) -> None:
    known = set(available_design_names())
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"available: {', '.join(available_design_names())}"
        )


def _emit_json(payload: Any, path: Optional[str]) -> None:
    """Write a JSON report to ``path`` (``-`` streams it to stdout)."""
    if not path:
        return
    if path == "-":
        print(json.dumps(payload, indent=2))
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {path}")


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        nargs="?",
        const="auto",
        default=None,
        metavar="PATH",
        help="record a hierarchical span trace of the run and export it as "
        "Chrome trace-event / Perfetto JSON (default path: next to the "
        "--json report, or DESIGN_PRESET.trace.json); placement results "
        "are bitwise identical with tracing on or off",
    )


def _trace_destination(args: argparse.Namespace, default_stem: str) -> Optional[str]:
    """Resolve ``--trace [PATH]`` to a file path (None = tracing off)."""
    spec = getattr(args, "trace", None)
    if spec is None:
        return None
    if spec != "auto":
        return spec
    if args.json_path and args.json_path != "-":
        base = args.json_path
        if base.endswith(".json"):
            base = base[: -len(".json")]
        return base + ".trace.json"
    return f"{default_stem}.trace.json"


def _add_common(parser: argparse.ArgumentParser, *, preset: bool = True) -> None:
    if preset:
        parser.add_argument(
            "--preset",
            default="efficient_tdp",
            choices=preset_names(),
            help="flow preset (default: efficient_tdp)",
        )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="benchmark size multiplier"
    )
    parser.add_argument(
        "--corners",
        default=None,
        metavar="SPEC",
        help="MCMM analysis corners as comma-separated presets "
        "(e.g. fast,typ,slow); timing feedback and evaluation then use "
        "merged worst-over-corner slack",
    )
    parser.add_argument(
        "--kernel-workers",
        type=int,
        default=None,
        metavar="N",
        help="threads of the density model's Poisson-solve DCTs (0 = "
        "scipy's default; results are bit-identical for any value)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
        help="override a preset config field (repeatable)",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write a JSON report here ('-' prints it to stdout)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Efficient-TDP reproduction: composable placement flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one flow preset on one benchmark")
    run_p.add_argument("design", help="benchmark name (see `repro batch --all`)")
    run_p.add_argument(
        "--profile",
        action="store_true",
        help="write a per-stage runtime breakdown JSON next to the result",
    )
    run_p.add_argument(
        "--routability",
        action="store_true",
        help="add the congestion-driven inflation loop and congestion "
        "metrics to the chosen preset",
    )
    run_p.add_argument(
        "--congestion-weighting",
        action="store_true",
        help="add in-loop congestion net weighting to the chosen preset "
        "(RUDY overflow under each net's bbox boosts its wirelength "
        "weight during global placement)",
    )
    _add_trace_flag(run_p)
    _add_common(run_p)

    batch_p = sub.add_parser("batch", help="run many designs concurrently")
    batch_p.add_argument("designs", nargs="*", help="benchmark names")
    batch_p.add_argument("--all", action="store_true", help="use the full sb_mini suite")
    batch_p.add_argument("--jobs", type=int, default=4, help="worker count (default 4)")
    batch_p.add_argument(
        "--executor",
        default="thread",
        choices=["thread", "process"],
        help="concurrency backend (default: thread)",
    )
    batch_p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="seed replicates per design (seeds seed..seed+N-1)",
    )
    batch_p.add_argument(
        "--ship",
        default="generate",
        choices=list(SHIP_MODES),
        help="how designs reach workers: regenerate per worker (default), "
        "ship a compiled array snapshot, or share snapshot arrays via "
        "shared memory",
    )
    _add_trace_flag(batch_p)
    _add_common(batch_p)

    trace_p = sub.add_parser(
        "trace",
        help="run a preset with tracing enabled and export a Perfetto/Chrome "
        "trace of the whole flow (stages, GP iterations, kernel dispatches)",
    )
    trace_p.add_argument("design", help="benchmark name")
    trace_p.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="trace JSON destination (default: DESIGN_PRESET.trace.json)",
    )
    trace_p.add_argument(
        "--profile",
        action="store_true",
        help="also write the per-stage runtime breakdown JSON",
    )
    _add_common(trace_p)

    cmp_p = sub.add_parser("compare", help="run every preset on one benchmark")
    cmp_p.add_argument("design", help="benchmark name")
    cmp_p.add_argument("--jobs", type=int, default=4, help="worker count (default 4)")
    _add_common(cmp_p, preset=False)

    sweep_p = sub.add_parser("sweep", help="sweep one config field of a preset")
    sweep_p.add_argument("design", help="benchmark name")
    sweep_p.add_argument("--param", required=True, help="config field to sweep")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated values for --param"
    )
    sweep_p.add_argument("--jobs", type=int, default=4, help="worker count (default 4)")
    _add_common(sweep_p)

    cong_p = sub.add_parser(
        "congestion",
        help="run a preset and report routing congestion of the placement",
    )
    cong_p.add_argument("design", help="benchmark name")
    cong_p.add_argument(
        "--routability",
        action="store_true",
        help="also run the congestion-driven inflation loop before reporting",
    )
    cong_p.add_argument(
        "--congestion-weighting",
        action="store_true",
        help="also run in-loop congestion net weighting during placement",
    )
    cong_p.add_argument(
        "--top", type=int, default=10, help="number of hotspot bins to list"
    )
    _add_common(cong_p)

    lint_p = sub.add_parser(
        "lint-contracts",
        help="run the contract linter (alloc discipline, shm lifecycle, "
        "ref parity, layering, raw timing)",
    )
    lint_p.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    lint_p.add_argument(
        "--tests-dir",
        default="tests",
        help="tests directory for the ref-parity coverage check ('' to skip)",
    )
    lint_p.add_argument(
        "--rule", action="append", dest="rules", help="run only this rule (repeatable)"
    )
    lint_p.add_argument(
        "--json", default=None, help="write findings JSON to PATH ('-' for stdout)"
    )
    lint_p.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    lint_p.add_argument(
        "--quiet", action="store_true", help="suppress per-finding text output"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.benchgen.suite import load_benchmark
    from repro.flow.presets import build_flow
    from repro.flow.runner import FlowRunner

    _check_designs([args.design])
    overrides = _apply_corners(args, _parse_overrides(args.overrides))
    overrides.setdefault("seed", args.seed)
    if getattr(args, "kernel_workers", None) is not None:
        overrides.setdefault("kernel_workers", args.kernel_workers)
    design = load_benchmark(args.design, scale=args.scale)
    try:
        runner = build_flow(args.preset, **overrides)
    except AttributeError as exc:
        raise SystemExit(f"repro run: {exc}") from exc
    from repro.flow.stages import FeedbackWeightStage, RoutabilityRepairStage

    # Guard on what the flow already contains, not on preset names, so the
    # flags are no-ops (instead of duplicating stages) on presets that ship
    # the behavior — e.g. --routability on routability-gp.
    if getattr(args, "routability", False) and not any(
        isinstance(stage, RoutabilityRepairStage) for stage in runner.stages
    ):
        from repro.route.flow import add_routability

        try:
            runner = FlowRunner(add_routability(runner.stages), name=runner.name)
        except ValueError as exc:
            raise SystemExit(f"repro run: {exc}") from exc
    if getattr(args, "congestion_weighting", False) and not any(
        isinstance(stage, FeedbackWeightStage) for stage in runner.stages
    ):
        from repro.route.flow import add_congestion_weighting

        try:
            runner = FlowRunner(
                add_congestion_weighting(runner.stages), name=runner.name
            )
        except ValueError as exc:
            raise SystemExit(f"repro run: {exc}") from exc
    trace_path = _trace_destination(args, f"{args.design}_{args.preset}")
    tracer = start_tracing() if trace_path else None
    try:
        result = runner.run(design, seed=int(overrides["seed"]))
    except ValueError as exc:
        raise SystemExit(f"repro run: {exc}") from exc
    finally:
        if tracer is not None:
            stop_tracing()
    summary = result.summary()
    width = max(len(key) for key in summary)
    for key, value in summary.items():
        print(f"{key:<{width}}  {value}")
    if tracer is not None:
        write_chrome_trace(trace_path, tracer)
        print(f"wrote {trace_path}")
    _emit_json(summary, args.json_path)
    if args.profile:
        profile_path = _profile_path(args)
        _emit_json(_profile_payload(args, result, summary), profile_path)
    return 0


def _profile_path(args: argparse.Namespace) -> str:
    """Place the profile next to the result JSON (or name it after the run)."""
    if args.json_path and args.json_path != "-":
        base = args.json_path
        if base.endswith(".json"):
            base = base[: -len(".json")]
        return base + ".profile.json"
    # No file path to sit next to (no --json, or --json - streamed the
    # report to stdout): name the profile after the run instead.
    return f"{args.design}_{args.preset}.profile.json"


def _profile_payload(
    args: argparse.Namespace, result, summary: Dict[str, Any]
) -> Dict[str, Any]:
    """Per-stage wall-clock plus the profiler's component breakdown."""
    payload = {
        "design": args.design,
        "flow": summary.get("flow"),
        "seed": summary.get("seed"),
        "runtime_sec": summary.get("runtime_sec"),
        "stage_seconds": {
            name: round(seconds, 6) for name, seconds in result.stage_seconds.items()
        },
        "components": {
            name: round(seconds, 6)
            for name, seconds in result.profiler.breakdown(
                total_elapsed=result.runtime_seconds
            ).items()
        },
    }
    feedback = result.context.metadata.get("feedback")
    if feedback and feedback.get("calls"):
        # Per-feedback breakdown: wall seconds and firings of every
        # scheduled placement feedback (timing strategies, congestion
        # weighting, raw callbacks), accumulated across the main placement
        # and any refine placements.
        payload["feedback"] = {
            "seconds": {
                name: round(seconds, 6)
                for name, seconds in feedback["seconds"].items()
            },
            "calls": dict(feedback["calls"]),
            "updates": len(feedback.get("trajectory", [])),
        }
    gradient = result.context.metadata.get("gradient_terms")
    if gradient:
        # Per-term gradient breakdown (wirelength/density/extra/scatter
        # seconds inside the placer's gradient evaluations) so regressions
        # in any one term stay attributable.
        payload["gradient_terms"] = {
            name: round(seconds, 6) for name, seconds in gradient.items()
        }
    trace_metrics = result.context.metadata.get("trace_metrics")
    if trace_metrics:
        # Aggregate span metrics (per-span seconds/counts, counters,
        # gauges) from the unified tracing layer when the run was traced.
        payload["trace"] = trace_metrics
    return payload


def _cmd_batch(args: argparse.Namespace) -> int:
    designs = benchmark_names() if args.all else list(args.designs)
    if not designs:
        raise SystemExit("repro batch: name at least one design or pass --all")
    _check_designs(designs)
    overrides = _apply_corners(args, _parse_overrides(args.overrides))
    jobs = [
        BatchJob(
            design=design,
            preset=args.preset,
            seed=args.seed + replicate,
            scale=args.scale,
            overrides=dict(overrides),
        )
        for design in designs
        for replicate in range(max(1, args.seeds))
    ]
    trace_path = _trace_destination(args, f"batch_{args.preset}")
    tracer = start_tracing() if trace_path else None
    try:
        report = run_batch(
            jobs, max_workers=args.jobs, executor=args.executor, ship=args.ship
        )
    finally:
        if tracer is not None:
            stop_tracing()
    print(report.format_table())
    if tracer is not None:
        write_chrome_trace(trace_path, tracer)
        print(f"wrote {trace_path}")
    _emit_json(report.as_dict(), args.json_path)
    return 0 if report.num_failed == 0 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.flow.presets import get_preset

    _check_designs([args.design])
    overrides = _apply_corners(args, _parse_overrides(args.overrides))
    jobs = []
    applied_keys = set()
    for preset in preset_names():
        # Preset configs are heterogeneous; apply each override only where
        # the field exists (e.g. the timing schedule is meaningless for the
        # wirelength-only baseline).
        default_config = get_preset(preset).default_config()
        applicable = {
            key: value for key, value in overrides.items() if hasattr(default_config, key)
        }
        applied_keys.update(applicable)
        jobs.append(
            BatchJob(
                design=args.design,
                preset=preset,
                seed=args.seed,
                scale=args.scale,
                overrides=applicable,
                label=preset,
            )
        )
    unused = set(overrides) - applied_keys
    if unused:
        raise SystemExit(
            f"repro compare: --set key(s) {', '.join(sorted(unused))} match no "
            "preset config field (typo?)"
        )
    report = run_batch(jobs, max_workers=args.jobs)
    print(report.format_table())
    _emit_json(report.as_dict(), args.json_path)
    return 0 if report.num_failed == 0 else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.flow.presets import get_preset

    _check_designs([args.design])
    overrides = _apply_corners(args, _parse_overrides(args.overrides))
    default_config = get_preset(args.preset).default_config()
    if args.param != "seed" and not hasattr(default_config, args.param):
        raise SystemExit(
            f"repro sweep: {type(default_config).__name__} has no field "
            f"{args.param!r} (preset {args.preset!r})"
        )
    values = [_parse_value(value.strip()) for value in args.values.split(",") if value.strip()]
    if not values:
        raise SystemExit("repro sweep: --values produced an empty list")
    jobs = []
    for value in values:
        point = dict(overrides)
        point[args.param] = value
        if args.param == "seed":
            # Seeds are swept through BatchJob.seed so labels and the report
            # stay in sync (overrides carrying a different seed are rejected
            # by the batch runner).
            if not isinstance(value, int):
                raise SystemExit(
                    f"repro sweep: seed values must be integers, got {value!r}"
                )
            jobs.append(
                BatchJob(
                    design=args.design,
                    preset=args.preset,
                    seed=value,
                    scale=args.scale,
                    overrides=dict(overrides),
                    label=f"seed={value}",
                )
            )
            continue
        jobs.append(
            BatchJob(
                design=args.design,
                preset=args.preset,
                seed=args.seed,
                scale=args.scale,
                overrides=point,
                label=f"{args.param}={value}",
            )
        )
    report = run_batch(jobs, max_workers=args.jobs)
    print(report.format_table())
    _emit_json(report.as_dict(), args.json_path)
    return 0 if report.num_failed == 0 else 1


def _cmd_congestion(args: argparse.Namespace) -> int:
    from repro.benchgen.suite import load_benchmark
    from repro.flow.presets import build_flow
    from repro.flow.runner import FlowRunner
    from repro.flow.stages import CongestionStage, EvaluateStage
    from repro.route.flow import add_routability

    _check_designs([args.design])
    overrides = _apply_corners(args, _parse_overrides(args.overrides))
    overrides.setdefault("seed", args.seed)
    if getattr(args, "kernel_workers", None) is not None:
        overrides.setdefault("kernel_workers", args.kernel_workers)
    design = load_benchmark(args.design, scale=args.scale)
    try:
        runner = build_flow(args.preset, **overrides)
    except AttributeError as exc:
        raise SystemExit(f"repro congestion: {exc}") from exc
    from repro.flow.stages import FeedbackWeightStage, RoutabilityRepairStage

    stages = list(runner.stages)
    if args.routability and not any(
        isinstance(stage, RoutabilityRepairStage) for stage in stages
    ):
        try:
            stages = add_routability(stages)
        except ValueError as exc:
            raise SystemExit(f"repro congestion: {exc}") from exc
    if args.congestion_weighting and not any(
        isinstance(stage, FeedbackWeightStage) for stage in stages
    ):
        from repro.route.flow import add_congestion_weighting

        try:
            stages = add_congestion_weighting(stages)
        except ValueError as exc:
            raise SystemExit(f"repro congestion: {exc}") from exc
    if not any(isinstance(stage, CongestionStage) for stage in stages):
        stages.append(CongestionStage())
        for stage in stages:
            if isinstance(stage, EvaluateStage):
                stage.congestion = True
    runner = FlowRunner(stages, name=runner.name)
    result = runner.run(design, seed=int(overrides["seed"]))

    congestion = dict(result.context.metadata.get("congestion", {}))
    congestion.pop("hotspots", None)
    # Recompute hotspots from the full map so --top is not capped by the
    # stage's default top-k.
    hotspots = (
        result.context.congestion.hotspots(max(args.top, 0))
        if result.context.congestion is not None
        else []
    )
    summary = result.summary()
    payload = {"run": summary, "congestion": congestion, "hotspots": hotspots}
    width = max(len(key) for key in congestion) if congestion else 1
    print(f"design: {args.design}  preset: {args.preset}")
    for key, value in congestion.items():
        print(f"{key:<{width}}  {value}")
    if hotspots:
        print(f"\ntop {len(hotspots)} hotspot bins (worst first):")
        print(f"{'bin':>9} {'x':>9} {'y':>9} {'ratio':>8} {'overflow':>9} {'pins':>6}")
        for spot in hotspots:
            print(
                f"({spot['bin_x']:>3},{spot['bin_y']:>3}) {spot['x']:>9.1f} "
                f"{spot['y']:>9.1f} {spot['ratio']:>8.3f} "
                f"{spot['overflow']:>9.3f} {spot['pins']:>6d}"
            )
    _emit_json(payload, args.json_path)
    return 0


def _cmd_lint_contracts(args: argparse.Namespace) -> int:
    # Lazy import: the analysis package is pure stdlib but there is no
    # reason to parse rule modules for flow commands.
    from repro.analysis import engine as analysis_engine

    if args.list_rules:
        from repro.analysis.rules import RULE_DESCRIPTIONS, rule_ids

        for rule_id in rule_ids():
            print(f"{rule_id}: {RULE_DESCRIPTIONS[rule_id]}")
        return 0
    tests_dir = args.tests_dir if args.tests_dir else None
    try:
        report = analysis_engine.run_lint(
            args.paths, tests_dir=tests_dir, rules=args.rules
        )
    except (FileNotFoundError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro lint-contracts: error: {message}", file=sys.stderr)
        return 2
    analysis_engine._emit_report(report, args)
    return 1 if report.unsuppressed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace`` = ``repro run --trace [-o PATH]``."""
    args.trace = args.output if args.output else "auto"
    return _cmd_run(args)


_COMMANDS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "trace": _cmd_trace,
    "compare": _cmd_compare,
    "sweep": _cmd_sweep,
    "congestion": _cmd_congestion,
    "lint-contracts": _cmd_lint_contracts,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
