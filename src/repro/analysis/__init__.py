"""Contract-lint engine: AST-enforced invariants for the placement stack.

Four rules guard the properties the rest of the repo's performance work
depends on:

* ``alloc`` — steady-state GP inner-loop functions allocate nothing:
  no ``np.zeros``-family constructors, no ``out=``-less binary ufuncs,
  no ``np.take(out=)`` in the buffering default ``mode="raise"``.
* ``ref-parity`` — every ``_reference_*`` implementation has a fast-path
  twin and a test naming both, so golden paths cannot drift untested.
* ``layering`` — engine packages never import the flow/CLI layer at
  module scope.
* ``raw-timing`` — wall-clock reads go through :mod:`repro.obs`, so the
  unified tracer sees every measurement.

Run it with ``repro lint-contracts src/`` or ``python -m repro.analysis``.
Suppress individual findings with ``# contract: allow(<rule>) reason=...``.
"""

from repro.analysis.contracts import steady_state
from repro.analysis.engine import run_lint
from repro.analysis.findings import Finding, LintReport
from repro.analysis.rules import RULE_DESCRIPTIONS, RULES, rule_ids

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "RULE_DESCRIPTIONS",
    "rule_ids",
    "run_lint",
    "steady_state",
]
