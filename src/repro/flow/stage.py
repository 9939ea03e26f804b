"""The :class:`FlowStage` protocol.

A stage is any object with a ``name`` and a ``run(ctx)`` method; stages are
instantiated with their configuration and then executed in sequence by a
:class:`repro.flow.runner.FlowRunner`::

    runner = FlowRunner([GlobalPlaceStage(config), LegalizeStage(), EvaluateStage()])
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.flow.context import FlowContext


@runtime_checkable
class FlowStage(Protocol):
    """One step of a placement flow (global place, legalize, evaluate, ...)."""

    name: str

    def run(self, ctx: FlowContext) -> None:
        """Execute the stage, reading and writing the shared context."""
        ...  # pragma: no cover - protocol body
