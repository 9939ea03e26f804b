"""The error every parser raises for malformed input."""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """Malformed input: the 1-based ``line`` and the ``reason`` it was rejected.

    ``path`` names the file when the input came from one
    (:func:`~repro.netlist.parsers.sdc.parse_sdc_file` fills it in), so the
    message reads ``path:line: reason``.
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


def located(line: int, call: Callable[..., T], *args, **kwargs) -> T:
    """Run one design-building ``call`` for the statement on ``line``.

    The ``KeyError`` / ``ValueError`` the ``Design`` builder raises for an
    unknown cell, instance or pin, a duplicate name or a pin connected twice
    becomes a :class:`ParseError` at ``line`` with the builder's message.
    """
    try:
        return call(*args, **kwargs)
    except (KeyError, ValueError) as exc:
        raise ParseError(line, str(exc.args[0])) from exc
