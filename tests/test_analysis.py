"""Contract-lint engine tests: every rule against positive/negative
fixtures, pragma suppression semantics, CLI exit codes, and the acceptance
check that the production tree itself lints clean."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.contracts import repro_subpath
from repro.analysis.engine import main as analysis_main
from repro.analysis.pragmas import PRAGMA_RE, matching_pragma, scan_pragmas
from repro.analysis.rules import rule_ids
from repro.flow.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "analysis"
FIXTURE_TESTS = FIXTURES / "fixture_tests"


def lint(*names, tests_dir=None, rules=None):
    return run_lint(
        [str(FIXTURES / name) for name in names],
        tests_dir=str(tests_dir) if tests_dir else None,
        rules=rules,
    )


def rules_hit(report):
    return sorted({f.rule for f in report.findings})


# ----------------------------------------------------------------------
# Rule 1: alloc
# ----------------------------------------------------------------------
class TestAllocDiscipline:
    def test_decorated_function_flagged(self):
        report = lint("alloc_deco_bad.py")
        assert rules_hit(report) == ["alloc"]
        messages = " | ".join(f.message for f in report.findings)
        assert "np.zeros" in messages
        assert "np.multiply" in messages
        assert ".copy()" in messages
        assert ".astype" in messages
        assert len(report.findings) == 4

    def test_staged_out_ops_pass(self):
        report = lint("alloc_deco_ok.py")
        assert report.findings == []

    def test_buffered_take_flagged(self):
        report = lint("alloc_take_bad.py")
        assert rules_hit(report) == ["alloc"]
        assert len(report.findings) == 2
        assert all("mode='raise'" in f.message for f in report.findings)
        assert sorted(f.line for f in report.findings) == [12, 13]

    def test_unbuffered_take_passes(self):
        report = lint("alloc_take_ok.py")
        assert report.findings == []

    def test_registry_applies_by_repro_path(self):
        report = lint("alloc_registry")
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.rule == "alloc"
        assert "evaluate" in finding.message
        assert "cold_rebuild" not in " ".join(f.message for f in report.findings)


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
class TestPragmas:
    def test_valid_pragma_suppresses_with_reason(self):
        report = lint("alloc_pragma.py")
        suppressed = report.suppressed
        assert len(suppressed) == 1
        assert suppressed[0].rule == "alloc"
        assert suppressed[0].reason == "fallback when no arena is attached"

    def test_reasonless_pragma_suppresses_nothing_and_is_flagged(self):
        report = lint("alloc_pragma.py")
        unsuppressed_rules = sorted(f.rule for f in report.unsuppressed)
        assert unsuppressed_rules == ["alloc", "bad-pragma"]

    def test_pragma_regex_and_line_above_matching(self):
        lines = [
            "# contract: allow(alloc, shm-unlink) reason=shared waiver",
            "x = np.zeros(4)",
            "y = np.zeros(4)  # contract: allow(alloc)",
        ]
        pragmas = scan_pragmas(lines)
        assert set(pragmas) == {1, 3}
        assert pragmas[1].rules == ("alloc", "shm-unlink")
        assert pragmas[1].valid
        assert not pragmas[3].valid
        assert matching_pragma(pragmas, 2, "alloc") is pragmas[1]
        assert matching_pragma(pragmas, 2, "shm-unlink") is pragmas[1]
        assert matching_pragma(pragmas, 2, "ref-parity") is None
        # An empty reason parses as a pragma but never validates — it gets a
        # bad-pragma finding instead of being silently ignored.
        empty = scan_pragmas(["# contract: allow(alloc) reason="])
        assert 1 in empty and not empty[1].valid
        assert PRAGMA_RE.search("# contract: allow(alloc) reason=ok") is not None


# ----------------------------------------------------------------------
# Rule 2: shm-unlink
# ----------------------------------------------------------------------
class TestShmLifecycle:
    def test_unpaired_create_flagged(self):
        report = lint("shm_bad.py")
        assert rules_hit(report) == ["shm-unlink"]
        assert len(report.findings) == 2

    def test_guarded_creates_pass(self):
        report = lint("shm_ok.py")
        assert report.findings == []


# ----------------------------------------------------------------------
# Rule 3: ref-parity
# ----------------------------------------------------------------------
class TestReferenceParity:
    def test_orphan_and_untested_flagged(self):
        report = lint("refparity_bad.py", tests_dir=FIXTURE_TESTS)
        assert rules_hit(report) == ["ref-parity"]
        messages = " | ".join(f.message for f in report.findings)
        assert "orphaned" in messages
        assert "no test module" in messages
        assert len(report.findings) == 2

    def test_paired_and_tested_passes(self):
        report = lint("refparity_ok.py", tests_dir=FIXTURE_TESTS)
        assert report.findings == []

    def test_without_tests_dir_only_structure_is_checked(self):
        report = lint("refparity_bad.py")
        assert len(report.findings) == 1
        assert "orphaned" in report.findings[0].message


# ----------------------------------------------------------------------
# Rule 4: layering
# ----------------------------------------------------------------------
class TestLayering:
    def test_module_scope_flow_import_and_engine_import_flagged(self):
        report = lint("layering_bad")
        assert rules_hit(report) == ["layering"]
        messages = " | ".join(f.message for f in report.findings)
        # A placement module imports the presets, a timing-engine module
        # the runner; both at module scope.
        assert "repro.flow.presets" in messages
        assert "repro.flow.runner" in messages
        assert len(report.findings) == 2

    def test_lazy_function_scope_import_passes(self):
        report = lint("layering_ok")
        assert report.findings == []


# ----------------------------------------------------------------------
# Rule 5: raw-timing
# ----------------------------------------------------------------------
class TestRawTiming:
    def test_flags_every_spelling(self):
        report = lint("timing_bad.py")
        assert rules_hit(report) == ["raw-timing"]
        messages = " | ".join(f.message for f in report.findings)
        assert "time.perf_counter" in messages
        assert "time.time" in messages
        assert "time.process_time" in messages
        assert "time.monotonic" in messages
        assert len(report.findings) == 5

    def test_obs_clock_sleep_and_waiver_pass(self):
        report = lint("timing_ok.py")
        assert report.unsuppressed == []
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "raw-timing"
        assert report.suppressed[0].reason == "calibrating the clock itself"

    def test_blessed_repro_paths_are_exempt(self, tmp_path):
        body = "import time\n\ndef t():\n    return time.perf_counter()\n"
        blessed_obs = tmp_path / "repro" / "obs" / "tracer.py"
        blessed_prof = tmp_path / "repro" / "utils" / "profiling.py"
        banned = tmp_path / "repro" / "flow" / "runner.py"
        for path in (blessed_obs, blessed_prof, banned):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(body, encoding="utf-8")
        report = run_lint([str(tmp_path)], rules=["raw-timing"])
        assert [f.file for f in report.findings] == [str(banned)]


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_repro_subpath_component_matching(self):
        assert repro_subpath("a/b/repro/placement/x.py") == "placement/x.py"
        assert repro_subpath("repro/x.py") == "x.py"
        assert repro_subpath("myrepro/placement/x.py") == ""
        assert repro_subpath("plain/module.py") == ""

    def test_rule_registry_is_complete(self):
        assert rule_ids() == (
            "alloc",
            "layering",
            "raw-timing",
            "ref-parity",
            "shm-unlink",
        )

    def test_unknown_rule_rejected(self):
        code = analysis_main(
            [str(FIXTURES / "alloc_take_ok.py"), "--rule", "nope", "--quiet"]
        )
        assert code == 2

    def test_seeded_alloc_violation_detected(self, tmp_path):
        seeded = tmp_path / "seeded_alloc.py"
        seeded.write_text(
            "import numpy as np\n"
            "def steady_state(fn):\n"
            "    return fn\n"
            "@steady_state\n"
            "def seeded(n):\n"
            "    return np.zeros(n)\n",
            encoding="utf-8",
        )
        report = run_lint([str(seeded)])
        assert [f.rule for f in report.unsuppressed] == ["alloc"]

    def test_syntax_error_becomes_finding(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n", encoding="utf-8")
        report = run_lint([str(broken)])
        assert [f.rule for f in report.findings] == ["syntax-error"]


# ----------------------------------------------------------------------
# CLI contract (module entry + repro subcommand)
# ----------------------------------------------------------------------
class TestCli:
    def test_exit_zero_on_clean_tree(self):
        code = analysis_main(
            [str(FIXTURES / "alloc_take_ok.py"), "--tests-dir", "", "--quiet"]
        )
        assert code == 0

    def test_exit_one_on_findings(self):
        code = analysis_main(
            [str(FIXTURES / "alloc_take_bad.py"), "--tests-dir", "", "--quiet"]
        )
        assert code == 1

    def test_exit_two_on_usage_error(self):
        assert analysis_main([str(FIXTURES / "does_not_exist.py")]) == 2

    def test_json_stdout_is_machine_readable(self, capsys):
        code = analysis_main(
            [
                str(FIXTURES / "alloc_pragma.py"),
                "--tests-dir",
                "",
                "--json",
                "-",
                "--quiet",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_scanned"] == 1
        assert payload["counts"]["total"] == len(payload["findings"])
        assert payload["counts"]["suppressed"] == 1
        by_rule = {f["rule"] for f in payload["findings"]}
        assert {"alloc", "bad-pragma"} <= by_rule
        suppressed = [f for f in payload["findings"] if f["suppressed"]]
        assert suppressed[0]["reason"] == "fallback when no arena is attached"

    def test_repro_subcommand_exit_codes(self):
        ok = cli_main(
            [
                "lint-contracts",
                str(FIXTURES / "shm_ok.py"),
                "--tests-dir",
                "",
                "--quiet",
            ]
        )
        bad = cli_main(
            [
                "lint-contracts",
                str(FIXTURES / "shm_bad.py"),
                "--tests-dir",
                "",
                "--quiet",
            ]
        )
        usage = cli_main(
            ["lint-contracts", str(FIXTURES / "does_not_exist.py"), "--quiet"]
        )
        assert (ok, bad, usage) == (0, 1, 2)

    def test_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in rule_ids():
            assert rule in out


# ----------------------------------------------------------------------
# Acceptance: the merged tree lints clean, every waiver has a reason
# ----------------------------------------------------------------------
class TestProductionTree:
    def test_src_is_clean_and_all_suppressions_reasoned(self):
        report = run_lint([str(ROOT / "src")], tests_dir=str(ROOT / "tests"))
        assert report.unsuppressed == []
        assert report.suppressed, "expected documented waivers in the tree"
        assert all(f.reason and f.reason.strip() for f in report.suppressed)
