"""``# contract: allow(...)`` pragma parsing and suppression matching.

Pragma syntax (one per line, usually trailing the flagged statement)::

    some_call()  # contract: allow(alloc) reason=fallback when no arena is attached
    # contract: allow(alloc, layering) reason=shared justification

Rules are comma-separated rule ids; ``reason=`` is **mandatory** — a pragma
without a reason never suppresses anything and instead produces its own
``bad-pragma`` finding, so every waiver in the tree is self-documenting.

A finding is suppressed when a matching pragma sits on the finding's line or
on the line directly above it (for statements too long to share a line with
their justification).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

PRAGMA_RE = re.compile(
    r"#\s*contract:\s*allow\(\s*(?P<rules>[a-zA-Z0-9_\-]+(?:\s*,\s*[a-zA-Z0-9_\-]+)*)\s*\)"
    r"(?:\s+reason=(?P<reason>.*?))?\s*$"
)

BAD_PRAGMA_RULE = "bad-pragma"


@dataclass
class Pragma:
    """One parsed ``allow`` pragma."""

    line: int
    rules: Tuple[str, ...]
    reason: Optional[str]

    @property
    def valid(self) -> bool:
        return bool(self.reason and self.reason.strip())


def scan_pragmas(source_lines: List[str]) -> Dict[int, Pragma]:
    """Map 1-based line numbers to the pragma found on that line (if any)."""
    pragmas: Dict[int, Pragma] = {}
    for lineno, text in enumerate(source_lines, start=1):
        if "contract:" not in text:
            continue
        match = PRAGMA_RE.search(text)
        if match is None:
            continue
        rules = tuple(part.strip() for part in match.group("rules").split(","))
        reason = match.group("reason")
        pragmas[lineno] = Pragma(
            line=lineno, rules=rules, reason=reason.strip() if reason else None
        )
    return pragmas


def matching_pragma(
    pragmas: Dict[int, Pragma], line: int, rule: str
) -> Optional[Pragma]:
    """The pragma suppressing ``rule`` at ``line`` (same line or line above)."""
    for candidate_line in (line, line - 1):
        pragma = pragmas.get(candidate_line)
        if pragma is not None and rule in pragma.rules:
            return pragma
    return None
