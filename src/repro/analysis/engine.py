"""Contract-lint driver: file discovery, rule dispatch, pragma application.

``run_lint(paths)`` parses every ``.py`` file under the given paths, runs
each registered rule over each module, applies ``# contract: allow(...)``
pragmas (valid pragmas suppress; reasonless pragmas emit ``bad-pragma``
findings and suppress nothing), and returns a :class:`LintReport`.

The CLI contract (shared by ``python -m repro.analysis`` and
``repro lint-contracts``):

* exit 0 — clean (no unsuppressed findings)
* exit 1 — at least one unsuppressed finding
* exit 2 — usage error (no such path, not a .py file, unknown rule)
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis import contracts
from repro.analysis.findings import Finding, LintReport
from repro.analysis.pragmas import (
    BAD_PRAGMA_RULE,
    Pragma,
    matching_pragma,
    scan_pragmas,
)
from repro.analysis.rules import RULE_DESCRIPTIONS, RULES, rule_ids


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: str  # display path (as discovered)
    repro_path: str  # path suffix after the repro package root ("" if outside)
    tree: ast.Module
    source_lines: List[str] = field(default_factory=list)
    pragmas: Dict[int, Pragma] = field(default_factory=dict)
    # test-module name -> set of identifiers appearing in that module; None
    # when no tests directory was supplied (ref-parity then only checks
    # structure, not coverage).
    test_identifiers: Optional[Dict[str, Set[str]]] = None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        return Finding(
            file=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )


def _discover_py_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(f"no such path: {raw}")
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise ValueError(f"not a Python file or directory: {raw}")
    # De-duplicate while preserving order (overlapping path arguments).
    seen: Set[Path] = set()
    unique: List[Path] = []
    for f in files:
        resolved = f.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(f)
    return unique


def collect_test_identifiers(tests_dir: Path) -> Dict[str, Set[str]]:
    """Per-test-module identifier sets, for the ref-parity coverage check.

    Identifiers are every Name/Attribute/string-constant token in the test
    module's AST, so ``wl._reference_directional(...)``, ``getattr(obj,
    "_reference_splat")`` and plain calls all count as naming the function.
    """
    out: Dict[str, Set[str]] = {}
    if not tests_dir.is_dir():
        return out
    for test_file in sorted(tests_dir.rglob("test_*.py")):
        try:
            tree = ast.parse(test_file.read_text(encoding="utf-8"))
        except SyntaxError:
            continue
        idents: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                idents.add(node.id)
            elif isinstance(node, ast.Attribute):
                idents.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                idents.add(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                idents.add(node.name)
        out[str(test_file)] = idents
    return out


def _apply_pragmas(ctx: ModuleContext, findings: List[Finding]) -> List[Finding]:
    """Suppress findings with valid pragmas; flag invalid/unused-bad pragmas."""
    out: List[Finding] = []
    for finding in findings:
        pragma = matching_pragma(ctx.pragmas, finding.line, finding.rule)
        if pragma is not None and pragma.valid:
            finding.suppressed = True
            finding.reason = pragma.reason
        out.append(finding)
    # Reasonless pragmas are always reported — they look like waivers but
    # suppress nothing, which is worse than either state.
    for lineno in sorted(ctx.pragmas):
        pragma = ctx.pragmas[lineno]
        if not pragma.valid:
            out.append(
                Finding(
                    file=ctx.path,
                    line=lineno,
                    rule=BAD_PRAGMA_RULE,
                    message=(
                        "contract pragma without reason= suppresses nothing; "
                        "add reason=<why this is safe> or remove it"
                    ),
                )
            )
    return out


def run_lint(
    paths: Sequence[str],
    *,
    tests_dir: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintReport:
    """Run the contract rules over every ``.py`` file under ``paths``."""
    selected = list(rules) if rules is not None else list(rule_ids())
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        raise KeyError(f"unknown rule(s): {', '.join(unknown)}")

    test_identifiers: Optional[Dict[str, Set[str]]] = None
    if tests_dir is not None:
        test_identifiers = collect_test_identifiers(Path(tests_dir))

    report = LintReport(paths=list(paths))
    for py_file in _discover_py_files(paths):
        display = str(py_file)
        source = py_file.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as exc:
            report.findings.append(
                Finding(
                    file=display,
                    line=exc.lineno or 1,
                    rule="syntax-error",
                    message=f"cannot parse: {exc.msg}",
                )
            )
            report.files_scanned += 1
            continue
        source_lines = source.splitlines()
        ctx = ModuleContext(
            path=display,
            repro_path=contracts.repro_subpath(py_file.as_posix()),
            tree=tree,
            source_lines=source_lines,
            pragmas=scan_pragmas(source_lines),
            test_identifiers=test_identifiers,
        )
        module_findings: List[Finding] = []
        for rule_id in selected:
            module_findings.extend(RULES[rule_id](ctx))
        module_findings.sort(key=lambda f: (f.line, f.col, f.rule))
        report.findings.extend(_apply_pragmas(ctx, module_findings))
        report.files_scanned += 1
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def build_parser(prog: str = "repro-lint-contracts") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description=(
            "Contract linter: arena allocation discipline, shared-memory lifecycle, reference parity, "
            "import layering, and raw-timing discipline."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--tests-dir",
        default="tests",
        help=(
            "tests directory cross-checked by the ref-parity rule "
            "(pass an empty string to skip the coverage check)"
        ),
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE",
        help="run only this rule (repeatable); default: all rules",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the full findings report as JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids with descriptions and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-finding text output (exit code still reflects findings)",
    )
    return parser


def _emit_report(report: LintReport, args: argparse.Namespace) -> None:
    if args.json is not None:
        payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            sys.stdout.write(payload + "\n")
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
    if args.quiet:
        return
    stream = sys.stdout if args.json != "-" else sys.stderr
    for finding in report.findings:
        print(finding.format(), file=stream)
        if not finding.suppressed and finding.rule != BAD_PRAGMA_RULE:
            print(f"    suppress with: {finding.hint}", file=stream)
    bad = len(report.unsuppressed)
    print(
        f"contract-lint: {report.files_scanned} file(s) scanned, "
        f"{len(report.findings)} finding(s), {bad} unsuppressed",
        file=stream,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help; preserve both.
        return int(exc.code or 0)

    if args.list_rules:
        for rule_id in rule_ids():
            print(f"{rule_id}: {RULE_DESCRIPTIONS[rule_id]}")
        return 0

    tests_dir = args.tests_dir if args.tests_dir else None
    try:
        report = run_lint(args.paths, tests_dir=tests_dir, rules=args.rules)
    except (FileNotFoundError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"contract-lint: error: {message}", file=sys.stderr)
        return 2

    _emit_report(report, args)
    return 1 if report.unsuppressed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
