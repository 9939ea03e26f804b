"""The multi-design batch runner and the ``repro`` CLI."""

import json

import pytest

from repro.flow.batch import BatchJob, resolve_worker_count, run_batch
from repro.flow.cli import _parse_overrides, _parse_value, main

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
        report = run_batch(
            _fast_jobs(preset="dreamplace")[:2], max_workers=2, executor="process"
        )
        assert report.num_ok == 2
        assert report.executor == "process"

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

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            run_batch([])

    def test_bad_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            run_batch(_fast_jobs()[:1], executor="fork_bomb")


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
            "--corners", "fast,slow", "--ship", "compiled", "--json", str(out),
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
