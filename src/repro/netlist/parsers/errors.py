"""The error every parser raises for malformed input."""

from __future__ import annotations


from typing import Optional


class ParseError(ValueError):
    """Malformed input: the 1-based ``line`` and the ``reason`` it was rejected.

    ``path`` names the file when the input came from one (the ``parse_*_file``
    entry points fill it in), so the message reads ``path:line: reason``.
    """

    def __init__(self, line: int, reason: str, path: Optional[str] = None) -> None:
        super().__init__(line, reason)
        self.line = line
        self.reason = reason
        self.path = path

    def __str__(self) -> str:
        if self.path is not None:
            return f"{self.path}:{self.line}: {self.reason}"
        return f"line {self.line}: {self.reason}"
