"""The error every parser raises for malformed input."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed input: the 1-based ``line`` and the ``reason`` it was rejected."""

    def __init__(self, line: int, reason: str) -> None:
        super().__init__(line, reason)
        self.line = line
        self.reason = reason

    def __str__(self) -> str:
        return f"line {self.line}: {self.reason}"
