"""The multi-design batch runner and the ``repro`` CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchgen.suite import load_benchmark
from repro.flow.batch import BatchJob, resolve_worker_count, run_batch
from repro.flow.cli import _build_parser, _parse_overrides, _parse_value, main
from repro.flow.presets import build_flow

SRC = Path(__file__).resolve().parents[1] / "src"

# Keep the designs tiny so the whole module stays fast.
FAST_SET = [
    "--set", "max_iterations=60",
    "--set", "timing_start_iteration=20",
    "--set", "min_timing_iterations=20",
    "--set", "timing_update_interval=10",
]
FAST_OVERRIDES = {
    "max_iterations": 60,
    "timing_start_iteration": 20,
    "min_timing_iterations": 20,
    "timing_update_interval": 10,
}


def _fast_jobs(preset="efficient_tdp", seeds=(0,)):
    overrides = (
        dict(FAST_OVERRIDES) if preset == "efficient_tdp" else {"max_iterations": 60}
    )
    return [
        BatchJob(
            design=name,
            preset=preset,
            seed=seed,
            scale=0.2,
            overrides=dict(overrides),
        )
        for name in ["sb_mini_18", "sb_mini_4", "sb_mini_16", "sb_mini_1"]
        for seed in seeds
    ]


@pytest.fixture
def no_dispatch(monkeypatch):
    """Fail the test if run_batch gets as far as starting its worker pool."""
    import repro.flow.batch as batch

    def refuse(*args, **kwargs):
        raise AssertionError("a job was dispatched")

    monkeypatch.setattr(batch, "ProcessPoolExecutor", refuse)


class TestRunBatch:
    def test_four_designs_concurrently(self):
        """Acceptance: >= 4 synthetic designs run concurrently with a report."""
        report = run_batch(_fast_jobs(), max_workers=4)
        assert len(report.items) == 4
        assert report.num_ok == 4
        assert report.max_workers == 4
        aggregate = report.aggregate()
        assert aggregate["ok"] == 4
        assert aggregate["overall"]["runs"] == 4
        assert aggregate["overall"]["mean_hpwl"] > 0

    def test_per_design_seeds_respected(self):
        report = run_batch(_fast_jobs(preset="dreamplace", seeds=(3, 4)), max_workers=4)
        assert len(report.items) == 8
        seeds = {(item.design, item.seed) for item in report.items}
        assert ("sb_mini_18", 3) in seeds and ("sb_mini_18", 4) in seeds
        for item in report.items:
            assert item.ok
            assert item.summary["seed"] == item.seed

    def test_seed_changes_result(self):
        jobs = [
            BatchJob("sb_mini_18", preset="dreamplace", seed=s, scale=0.2,
                     overrides={"max_iterations": 60})
            for s in (0, 1)
        ]
        report = run_batch(jobs, max_workers=2)
        hpwls = [item.summary["hpwl"] for item in report.items]
        assert hpwls[0] != hpwls[1]

    def test_failures_are_contained(self):
        jobs = [
            BatchJob("sb_mini_18", preset="dreamplace", scale=0.2,
                     overrides={"max_iterations": 40}),
            BatchJob("sb_mini_18", preset="dreamplace",
                     overrides={"no_such_field": 1}),
        ]
        report = run_batch(jobs, max_workers=2)
        assert report.num_ok == 1
        assert report.num_failed == 1
        failed = next(item for item in report.items if not item.ok)
        assert "no_such_field" in failed.error
        assert report.aggregate()["failed"] == 1

    def test_json_round_trip(self, tmp_path):
        report = run_batch(_fast_jobs(preset="dreamplace"), max_workers=4)
        path = report.to_json(str(tmp_path / "batch.json"))
        payload = json.loads(open(path, encoding="utf-8").read())
        assert payload["aggregate"]["jobs"] == 4
        assert len(payload["items"]) == 4
        assert all(item["summary"]["hpwl"] > 0 for item in payload["items"])

    def test_format_table_mentions_every_job(self):
        report = run_batch(_fast_jobs(preset="dreamplace"), max_workers=4)
        table = report.format_table()
        for item in report.items:
            assert item.label in table

    def test_process_executor(self):
        report = run_batch(_fast_jobs(preset="dreamplace")[:2], max_workers=2)
        assert report.num_ok == 2
        assert "executor" not in report.as_dict()

    def test_batch_matches_in_process_run_bitwise(self):
        """A job run in a worker process, on a design the worker regenerated,
        equals the same flow run in this process."""
        jobs = [
            BatchJob("sb_mini_18", preset="efficient_tdp", scale=0.2,
                     overrides=dict(FAST_OVERRIDES)),
            BatchJob("sb_mini_4", preset="dreamplace", seed=1, scale=0.2,
                     overrides={"max_iterations": 60}),
        ]
        report = run_batch(jobs, max_workers=2)
        for job, item in zip(jobs, report.items):
            assert item.ok, item.error
            direct = build_flow(job.preset, seed=job.seed, **job.overrides).run(
                load_benchmark(job.design, scale=job.scale), seed=job.seed
            )
            for key in ("hpwl", "tns", "wns"):
                assert item.summary[key] == getattr(direct.evaluation, key), key

    def test_failing_stage_is_contained(self):
        """A job whose config its preset rejects fails in its worker and is
        reported per job, not raised."""
        jobs = [
            BatchJob(design, preset="efficient_tdp", scale=0.2,
                     overrides={"beta_mode": "atuo"})
            for design in ("sb_mini_18", "sb_mini_4")
        ]
        report = run_batch(jobs, max_workers=2)
        assert report.num_failed == 2
        assert "beta_mode must be 'auto' or 'literal'" in report.items[0].error

    def test_conflicting_seed_override_rejected_up_front(self):
        jobs = _fast_jobs(preset="dreamplace")
        jobs.append(BatchJob("sb_mini_18", preset="dreamplace", seed=1,
                             overrides={"seed": 2}))
        with pytest.raises(ValueError, match="conflicts with job.seed"):
            run_batch(jobs, max_workers=2)

    def test_matching_seed_override_allowed(self):
        report = run_batch(
            [BatchJob("sb_mini_18", preset="dreamplace", seed=7, scale=0.2,
                      overrides={"seed": 7, "max_iterations": 40})],
            max_workers=1,
        )
        assert report.num_ok == 1
        assert report.items[0].summary["seed"] == 7

    @pytest.mark.parametrize("scale", [0.0, float("nan")])
    def test_bad_scale_rejected_before_dispatch(self, scale, no_dispatch):
        jobs = _fast_jobs(preset="dreamplace")[:1]
        jobs.append(BatchJob("sb_mini_4", preset="dreamplace", scale=scale))
        with pytest.raises(ValueError, match="sb_mini_4.*scale must be finite and positive"):
            run_batch(jobs, max_workers=1)

    def test_unknown_design_rejected_before_dispatch(self, no_dispatch):
        jobs = _fast_jobs(preset="dreamplace")[:1]
        jobs.append(BatchJob("__no_such_design__", label="ghost"))
        with pytest.raises(ValueError, match="ghost: unknown benchmark '__no_such_design__'"):
            run_batch(jobs, max_workers=2)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_max_workers_rejected(self, workers):
        with pytest.raises(ValueError, match=f"max_workers must be >= 1, got {workers}"):
            run_batch(_fast_jobs()[:1], max_workers=workers)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batch([])


def test_resolve_worker_count_positive():
    assert resolve_worker_count() >= 1


def test_batch_reports_worker_resolution():
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


class TestCLIParsing:
    def test_parse_value_types(self):
        assert _parse_value("3") == 3
        assert _parse_value("2.5e-5") == pytest.approx(2.5e-5)
        assert _parse_value("true") is True
        assert _parse_value("False") is False
        assert _parse_value("quadratic") == "quadratic"

    def test_parse_overrides(self):
        assert _parse_overrides(["a=1", "b=x"]) == {"a": 1, "b": "x"}
        with pytest.raises(SystemExit):
            _parse_overrides(["oops"])


class TestCLICommands:
    def test_run_writes_json(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        code = main(["run", "sb_mini_18", "--preset", "efficient_tdp",
                     "--scale", "0.2", "--json", str(out), *FAST_SET])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["design"] == "sb_mini_18"
        assert payload["flow"] == "efficient_tdp"
        assert "hpwl" in payload
        assert "hpwl" in capsys.readouterr().out

    def test_batch_four_designs(self, tmp_path, capsys):
        out = tmp_path / "batch.json"
        code = main([
            "batch", "sb_mini_18", "sb_mini_4", "sb_mini_16", "sb_mini_1",
            "--preset", "dreamplace", "--scale", "0.2", "--jobs", "4",
            "--set", "max_iterations=60", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["aggregate"]["jobs"] == 4
        assert payload["aggregate"]["ok"] == 4
        assert "Batch: 4/4 ok" in capsys.readouterr().out

    def test_run_with_corners_reports_per_corner(self, tmp_path):
        out = tmp_path / "mcmm.json"
        code = main([
            "run", "sb_mini_18", "--preset", "dreamplace", "--scale", "0.2",
            "--set", "max_iterations=40", "--corners", "fast,typ,slow",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["corners"] == ["fast", "typ", "slow"]
        assert set(payload["per_corner"]) == {"fast", "typ", "slow"}
        # Headline WNS is the merged (worst-corner) value.
        assert payload["wns"] == min(
            row["wns"] for row in payload["per_corner"].values()
        )

    def test_unknown_corner_preset_exits(self):
        with pytest.raises(SystemExit, match="corners"):
            main(["run", "sb_mini_18", "--corners", "nonsense"])

    def test_negative_kernel_workers_exits(self):
        with pytest.raises(SystemExit, match="kernel_workers must be >= 0"):
            main([
                "run", "sb_mini_18", "--preset", "dreamplace", "--scale", "0.2",
                "--kernel-workers", "-1",
            ])

    def test_zero_scale_exits(self):
        # A string SystemExit code is printed and exits with status 1.
        with pytest.raises(SystemExit, match="scale must be finite and positive, got 0.0"):
            main(["run", "sb_mini_18", "--scale", "0"])

    @pytest.mark.parametrize("scale", ["0", "nan"])
    def test_batch_bad_scale_exits_with_one_line(self, scale):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "sb_mini_18", "--scale", scale, "--preset", "dreamplace"])
        assert exc.value.code == (
            f"repro batch: scale must be finite and positive, got {float(scale)!r}"
        )

    @pytest.mark.parametrize("command", [
        ["batch", "sb_mini_18"],
        ["compare", "sb_mini_18"],
        ["sweep", "sb_mini_18", "--param", "w0", "--values", "5"],
    ])
    def test_zero_jobs_exits_with_one_line(self, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--scale", "0.15", "--jobs", "0"])
        assert exc.value.code == f"repro {command[0]}: --jobs must be >= 1, got 0"

    def test_zero_seeds_exits_with_one_line(self):
        with pytest.raises(SystemExit) as exc:
            main(["batch", "sb_mini_18", "--scale", "0.15", "--seeds", "0"])
        assert exc.value.code == "repro batch: --seeds must be >= 1, got 0"

    @pytest.mark.parametrize("command", ["batch", "compare", "sweep"])
    def test_jobs_default_resolves_worker_count(self, command):
        """Without --jobs, run_batch sizes the pool from the usable CPUs."""
        args = _build_parser().parse_args(
            [command, "sb_mini_18", "--param", "w0", "--values", "5"]
            if command == "sweep" else [command, "sb_mini_18"]
        )
        assert args.jobs is None

    @pytest.mark.parametrize("flag", [["--ship", "compiled"], ["--executor", "thread"]])
    def test_removed_batch_flags_exit(self, flag, capsys):
        """Batches always regenerate designs in worker processes; the old
        transport and executor switches are unknown arguments."""
        with pytest.raises(SystemExit) as exc:
            main(["batch", "sb_mini_18", "--scale", "0.15", *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_removed_incremental_sta_knob_exits(self):
        """STA has one update path; the old mode switch is an unknown field."""
        with pytest.raises(SystemExit) as exc:
            main([
                "run", "sb_mini_18", "--preset", "efficient_tdp", "--scale", "0.15",
                "--set", "incremental_sta=true",
            ])
        assert exc.value.code == (
            "repro run: EfficientTDPConfig has no field 'incremental_sta' "
            "(preset 'efficient_tdp')"
        )

    def test_corners_via_set_rejected(self):
        with pytest.raises(SystemExit, match="--corners"):
            main([
                "run", "sb_mini_18", "--corners", "typ",
                "--set", "corners=fast",
            ])

    def test_batch_with_corners(self, tmp_path):
        out = tmp_path / "batch_mcmm.json"
        code = main([
            "batch", "sb_mini_18", "sb_mini_4", "--preset", "dreamplace",
            "--scale", "0.2", "--jobs", "2", "--set", "max_iterations=40",
            "--corners", "fast,slow", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        for item in payload["items"]:
            assert set(item["summary"]["per_corner"]) == {"fast", "slow"}

    def test_batch_unknown_design_exits(self):
        with pytest.raises(SystemExit):
            main(["batch", "not_a_design"])

    def test_batch_without_designs_exits(self):
        with pytest.raises(SystemExit):
            main(["batch"])

    def test_sweep(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "sb_mini_18", "--preset", "dreamplace", "--scale", "0.2",
            "--param", "max_iterations", "--values", "30,60",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        labels = [item["label"] for item in payload["items"]]
        assert labels == ["max_iterations=30", "max_iterations=60"]

    def test_sweep_into_closed_pipe_exits_quietly(self):
        # ``repro sweep ... | true``: the reader is gone before the table is
        # printed.  The CLI exits as SIGPIPE would, with nothing on stderr.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.flow.cli", "sweep", "sb_mini_18",
                 "--param", "w0", "--values", "5,10", "--scale", "0.15",
                 "--set", "max_iterations=40", "--jobs", "1"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert proc.stderr == b""

    def test_compare_runs_all_presets(self, tmp_path):
        out = tmp_path / "compare.json"
        code = main([
            "compare", "sb_mini_18", "--scale", "0.15", "--jobs", "4",
            *FAST_SET, "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        presets = {item["preset"] for item in payload["items"]}
        assert presets == {
            "efficient_tdp", "dreamplace", "dreamplace4", "differentiable_tdp",
            "routability", "routability-gp",
        }
        assert payload["aggregate"]["failed"] == 0

    def test_run_routability_flag(self, tmp_path):
        out = tmp_path / "routed.json"
        code = main([
            "run", "sb_cong_1", "--preset", "dreamplace", "--scale", "0.4",
            "--set", "max_iterations=80", "--routability", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "congestion_peak_overflow" in payload
        assert "inflation_rounds" in payload

    def test_congestion_command(self, tmp_path):
        out = tmp_path / "congestion.json"
        code = main([
            "congestion", "sb_cong_1", "--preset", "dreamplace",
            "--scale", "0.4", "--set", "max_iterations=80",
            "--top", "3", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["congestion"]["peak_overflow"] >= 0.0
        assert len(payload["hotspots"]) == 3
        assert "congestion_peak_overflow" in payload["run"]

    def test_congestion_command_top_beyond_stage_default(self, tmp_path):
        """--top is served from the full map, not the stage's top-10 cache."""
        out = tmp_path / "congestion_top.json"
        code = main([
            "congestion", "sb_cong_1", "--preset", "dreamplace",
            "--scale", "0.4", "--set", "max_iterations=80",
            "--top", "15", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["hotspots"]) == 15

    def test_run_routability_preset_by_name(self, tmp_path):
        out = tmp_path / "preset.json"
        code = main([
            "run", "sb_cong_1", "--preset", "routability", "--scale", "0.4",
            "--set", "max_iterations=80", "--set", "refine_iterations=40",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "congestion_peak_overflow" in payload

    def test_run_congestion_weighting_flag_with_profile(self, tmp_path):
        """--congestion-weighting retrofits in-loop weighting onto any
        preset, and --profile reports the per-feedback breakdown."""
        out = tmp_path / "weighted.json"
        code = main([
            "run", "sb_cong_1", "--preset", "dreamplace", "--scale", "0.4",
            "--set", "max_iterations=140", "--congestion-weighting",
            "--profile", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload.get("feedback_updates", 0) >= 1
        profile = json.loads((tmp_path / "weighted.profile.json").read_text())
        assert "congestion" in profile["feedback"]["seconds"]
        assert profile["feedback"]["calls"]["congestion"] >= 1
        assert profile["feedback"]["updates"] >= 1

    def test_run_routability_gp_preset_by_name(self, tmp_path):
        out = tmp_path / "gp.json"
        code = main([
            "run", "sb_cong_1", "--preset", "routability-gp", "--scale", "0.4",
            "--set", "max_iterations=140", "--set", "refine_iterations=40",
            "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert "congestion_peak_overflow" in payload
        assert payload.get("feedback_updates", 0) >= 1

    def test_congestion_command_json_to_stdout(self, capsys):
        """`repro congestion --json -` streams the full report to stdout
        (scriptable hotspot reports, satellite of ISSUE 5)."""
        code = main([
            "congestion", "sb_cong_1", "--preset", "dreamplace",
            "--scale", "0.4", "--set", "max_iterations=80",
            "--top", "2", "--json", "-",
        ])
        assert code == 0
        text = capsys.readouterr().out
        start = text.index("{")
        payload = json.loads(text[start:])
        assert payload["congestion"]["peak_overflow"] >= 0.0
        assert len(payload["hotspots"]) == 2
        assert "run" in payload

    def test_congestion_command_with_weighting_flag(self, tmp_path):
        out = tmp_path / "weighted_congestion.json"
        code = main([
            "congestion", "sb_cong_1", "--preset", "dreamplace",
            "--scale", "0.4", "--set", "max_iterations=140",
            "--congestion-weighting", "--top", "2", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["congestion"]["peak_overflow"] >= 0.0

    def test_routability_flag_on_gp_preset_is_noop(self, tmp_path):
        """--routability on a preset that already repairs must not insert a
        second inflation loop (guards on stages, not preset names)."""
        out = tmp_path / "gp_routability.json"
        code = main([
            "run", "sb_cong_1", "--preset", "routability-gp", "--scale", "0.4",
            "--set", "max_iterations=140", "--set", "refine_iterations=30",
            "--routability", "--congestion-weighting", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        # One repair loop, not two: inflation_rounds stays in single digits
        # and the summary parses (a duplicated stage would double-run).
        assert payload["inflation_rounds"] <= 5

    def test_congestion_weighting_rejects_dreamplace4(self):
        with pytest.raises(SystemExit, match="momentum net-weighting"):
            main([
                "run", "sb_mini_18", "--preset", "dreamplace4", "--scale", "0.2",
                "--set", "max_iterations=40", "--congestion-weighting",
            ])

    def test_congestion_weighting_on_timing_preset(self, tmp_path):
        """The flag adds a congestion slot next to the preset's pin-pair
        feedback (one feedback stage) instead of going silent."""
        out = tmp_path / "tdp_weighted.json"
        code = main([
            "run", "sb_mini_18", "--preset", "efficient_tdp", "--scale", "0.4",
            "--set", "max_iterations=300", "--set", "timing_start_iteration=40",
            "--set", "min_timing_iterations=60", "--set", "timing_update_interval=10",
            "--congestion-weighting", "--profile", "--json", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        # Recorded before the timing presets moved onto the feedback stage.
        assert payload["hpwl"] == pytest.approx(10777.45641025641, rel=1e-9)
        assert payload["tns"] == pytest.approx(-82.08725696953155, rel=1e-9)
        profile = json.loads((tmp_path / "tdp_weighted.profile.json").read_text())
        assert set(profile["feedback"]["calls"]) == {"pin_pair", "congestion"}
        assert profile["stage_seconds"].keys() >= {"feedback_weight", "global_place"}

    def test_bad_timing_knob_exits_with_one_line(self):
        with pytest.raises(SystemExit, match="beta_mode must be 'auto' or 'literal'") as exc:
            main([
                "run", "sb_mini_18", "--preset", "efficient_tdp", "--scale", "0.2",
                "--set", "beta_mode=atuo",
            ])
        # A string exit code prints as one line and exits with status 1.
        assert isinstance(exc.value.code, str)

    def test_profile_parts_fit_their_totals(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "run", "sb_mini_18", "--preset", "efficient_tdp", "--scale", "0.2",
            "--set", "max_iterations=40", "--profile",
        ])
        assert code == 0
        profile = json.loads((tmp_path / "sb_mini_18_efficient_tdp.profile.json").read_text())
        # runtime_sec is rounded to 3 decimals, the parts to 6.
        assert sum(profile["stage_seconds"].values()) <= profile["runtime_sec"] + 5e-4
        gradient_terms = profile["gradient_terms"]
        assert set(gradient_terms) == {"wirelength", "density", "extra", "scatter"}
        assert sum(gradient_terms.values()) <= profile["components"]["gradient"] + 1e-5
        assert profile["trace"]["spans"]["gp.iteration"]["count"] == 40

    def test_profile_with_json_stdout_names_profile_after_run(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main([
            "run", "sb_mini_18", "--preset", "dreamplace", "--scale", "0.2",
            "--set", "max_iterations=40", "--profile", "--json", "-",
        ])
        assert code == 0
        assert not (tmp_path / "-.profile.json").exists()
        assert (tmp_path / "sb_mini_18_dreamplace.profile.json").exists()
