"""Fixture: timing-engine module importing the flow runner at module scope."""

from repro.flow.runner import FlowRunner


def run_stages(stages, design):
    return FlowRunner(stages).run(design)
