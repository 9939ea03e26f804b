"""Contract-lint engine: AST-enforced invariants for the placement stack.

Five rules guard the properties the rest of the repo's performance work
depends on:

* ``kernel-purity`` — worker kernels perform no order-sensitive float
  accumulation, RNG, time, or I/O (float scatter-adds belong to the
  parent replay, which owns canonical serial order).
* ``alloc`` — steady-state GP inner-loop functions allocate nothing:
  no ``np.zeros``-family constructors, no ``out=``-less binary ufuncs,
  no ``np.take(out=)`` in the buffering default ``mode="raise"``.
* ``shm-unlink`` — every ``SharedMemory(create=True)`` is provably
  unlinked on all exit paths.
* ``ref-parity`` — every ``_reference_*`` implementation has a fast-path
  twin and a test naming both, so golden paths cannot drift untested.
* ``layering`` — engine packages never import the flow/CLI layer at
  module scope; worker kernel modules never import the pool engine.

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
