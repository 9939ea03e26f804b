"""The ``repro`` command-line interface.

Five subcommands over the flow pipeline:

* ``repro run DESIGN``      — run one preset on one benchmark
  (``--profile`` writes a per-stage runtime breakdown JSON next to the
  result; ``--routability`` adds the congestion-driven inflation loop and
  congestion metrics to any preset);
* ``repro batch D1 D2 ...`` — run many designs in worker processes
  (``--all`` for the whole sb_mini suite, ``--seeds N`` for seed
  replicates, ``--jobs N`` for the worker count, default the usable CPUs);
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
    repro batch --all --preset dreamplace4 --json batch.json
    repro compare sb_mini_1 --scale 0.5
    repro sweep sb_mini_4 --param w0 --values 5,10,20
    repro congestion sb_cong_1 --preset dreamplace --routability
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Optional, Sequence

from repro.benchgen.suite import available_design_names, benchmark_names, check_scale
from repro.flow.batch import BatchJob, run_batch
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


def _check_scale(command: str, scale: float) -> None:
    try:
        check_scale(scale)
    except ValueError as exc:
        raise SystemExit(f"repro {command}: {exc}") from exc


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


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: the usable CPU count, at most one "
        "per job)",
    )


def _check_count(command: str, flag: str, value: Optional[int]) -> None:
    if value is not None and value < 1:
        raise SystemExit(f"repro {command}: {flag} must be >= 1, got {value}")


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

    batch_p = sub.add_parser("batch", help="run many designs in worker processes")
    batch_p.add_argument("designs", nargs="*", help="benchmark names")
    batch_p.add_argument("--all", action="store_true", help="use the full sb_mini suite")
    _add_jobs_flag(batch_p)
    batch_p.add_argument(
        "--seeds",
        type=int,
        default=1,
        help="seed replicates per design (seeds seed..seed+N-1)",
    )
    _add_trace_flag(batch_p)
    _add_common(batch_p)

    trace_p = sub.add_parser(
        "trace",
        help="run a preset with tracing enabled and export a Perfetto/Chrome "
        "trace of the whole flow (stages, GP iterations, feedback calls)",
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
    _add_jobs_flag(cmp_p)
    _add_common(cmp_p, preset=False)

    sweep_p = sub.add_parser("sweep", help="sweep one config field of a preset")
    sweep_p.add_argument("design", help="benchmark name")
    sweep_p.add_argument("--param", required=True, help="config field to sweep")
    sweep_p.add_argument(
        "--values", required=True, help="comma-separated values for --param"
    )
    _add_jobs_flag(sweep_p)
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
        help="run the contract linter (alloc discipline, ref parity, "
        "layering, raw timing)",
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


def _build_run(args: argparse.Namespace, command: str):
    """The design, preset flow (with ``--routability`` /
    ``--congestion-weighting`` retrofits) and seed of one ``run``-style command.

    The retrofits guard on what the flow already contains, not on preset
    names, so the flags are no-ops (instead of duplicating stages or slots)
    on presets that ship the behavior — e.g. --routability on
    routability-gp.  Bad overrides and refused retrofits exit 1 with one
    line.
    """
    from repro.benchgen.suite import load_benchmark
    from repro.feedback.congestion import CongestionNetWeighting
    from repro.flow.presets import build_flow
    from repro.flow.runner import FlowRunner
    from repro.flow.stages import FeedbackWeightStage, RoutabilityRepairStage
    from repro.route.flow import add_congestion_weighting, add_routability

    _check_designs([args.design])
    overrides = _apply_corners(args, _parse_overrides(args.overrides))
    overrides.setdefault("seed", args.seed)
    if getattr(args, "kernel_workers", None) is not None:
        overrides.setdefault("kernel_workers", args.kernel_workers)
    try:
        design = load_benchmark(args.design, scale=args.scale)
        runner = build_flow(args.preset, **overrides)
        stages = list(runner.stages)
        if getattr(args, "routability", False) and not any(
            isinstance(stage, RoutabilityRepairStage) for stage in stages
        ):
            stages = add_routability(stages)
        if getattr(args, "congestion_weighting", False) and not any(
            isinstance(feedback, CongestionNetWeighting)
            for stage in stages
            if isinstance(stage, FeedbackWeightStage)
            for feedback, _ in stage.slots
        ):
            stages = add_congestion_weighting(stages)
    except (AttributeError, ValueError) as exc:
        raise SystemExit(f"repro {command}: {exc}") from exc
    return design, FlowRunner(stages, name=runner.name), int(overrides["seed"])


def _cmd_run(args: argparse.Namespace) -> int:
    design, runner, seed = _build_run(args, "run")
    trace_path = _trace_destination(args, f"{args.design}_{args.preset}")
    tracer = start_tracing() if trace_path else None
    try:
        result = runner.run(design, seed=seed)
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
    """Per-stage, per-component, per-feedback and per-gradient-term walls.

    Every number is a projection of the run tracer's span metrics, which
    the payload also carries whole under ``trace``.
    """
    metrics = result.context.metadata["trace_metrics"]
    spans = metrics["spans"]
    payload = {
        "design": args.design,
        "flow": summary.get("flow"),
        "seed": summary.get("seed"),
        "runtime_sec": summary.get("runtime_sec"),
        "stage_seconds": {
            name: round(seconds, 6) for name, seconds in result.stage_seconds.items()
        },
        "components": {
            name: round(seconds, 6) for name, seconds in result.breakdown().items()
        },
    }
    # Every scheduled placement feedback (timing feedbacks, congestion
    # weighting) fires inside a ``feedback.<name>`` span,
    # across the main placement and any refine placements.
    feedback = {
        name[len("feedback."):]: entry
        for name, entry in spans.items()
        if name.startswith("feedback.")
    }
    if feedback:
        payload["feedback"] = {
            "seconds": {name: round(e["seconds"], 6) for name, e in feedback.items()},
            "calls": {name: e["count"] for name, e in feedback.items()},
            "updates": len(result.context.metadata.get("feedback", {}).get("trajectory", [])),
        }
    # Per-term gradient walls (the ``gp.*`` spans inside the placer's
    # gradient evaluations) keep regressions in any one term attributable.
    if "gp.wirelength" in spans:
        payload["gradient_terms"] = {
            term: round(spans[f"gp.{term}"]["seconds"], 6)
            for term in ("wirelength", "density", "extra", "scatter")
        }
    payload["trace"] = metrics
    return payload


def _cmd_batch(args: argparse.Namespace) -> int:
    designs = benchmark_names() if args.all else list(args.designs)
    if not designs:
        raise SystemExit("repro batch: name at least one design or pass --all")
    _check_designs(designs)
    _check_scale("batch", args.scale)
    _check_count("batch", "--jobs", args.jobs)
    _check_count("batch", "--seeds", args.seeds)
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
        for replicate in range(args.seeds)
    ]
    trace_path = _trace_destination(args, f"batch_{args.preset}")
    tracer = start_tracing() if trace_path else None
    try:
        report = run_batch(jobs, max_workers=args.jobs)
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
    _check_scale("compare", args.scale)
    _check_count("compare", "--jobs", args.jobs)
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
    _check_scale("sweep", args.scale)
    _check_count("sweep", "--jobs", args.jobs)
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
    from repro.flow.stages import CongestionStage, EvaluateStage

    design, runner, seed = _build_run(args, "congestion")
    if not any(isinstance(stage, CongestionStage) for stage in runner.stages):
        runner.stages.append(CongestionStage())
        for stage in runner.stages:
            if isinstance(stage, EvaluateStage):
                stage.congestion = True
    result = runner.run(design, seed=seed)

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
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe (``repro sweep ... | head``): silence
        # the exit-time flush and exit as SIGPIPE would (128 + 13).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
