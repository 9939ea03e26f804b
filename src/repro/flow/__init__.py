"""Composable placement-flow pipeline.

This package turns the hard-wired Efficient-TDP flow into a small pipeline
framework.  The pieces:

* :class:`~repro.flow.context.FlowContext` — the shared state one run
  accumulates: design, constraints, positions, STA engine/result, pin pairs,
  extraction statistics, placement history, evaluation report.
* :class:`~repro.flow.stage.FlowStage` — the stage protocol: any object with
  a ``name`` and ``run(ctx)``.
* :class:`~repro.flow.runner.FlowRunner` — executes an ordered stage list
  over a design and returns a :class:`~repro.flow.runner.FlowResult`.
* :mod:`~repro.flow.stages` — the concrete stages.
* :mod:`~repro.flow.presets` — named stage compositions (the Table II
  methods), their config classes, and the ``build_flow`` helper.
* :mod:`~repro.flow.batch` — run many designs concurrently and aggregate a
  :class:`~repro.flow.batch.BatchReport`.
* :mod:`~repro.flow.cli` — the ``repro`` command-line entry point
  (``repro run / batch / compare / sweep``).

Stage registry
--------------

Stages self-register by name via the :func:`~repro.flow.stage.register_stage`
class decorator, so flows can be assembled declaratively::

    from repro.feedback import FeedbackCadence
    from repro.feedback.timing import PinPairAttraction
    from repro.flow import available_stages, create_stage, FlowRunner

    available_stages()
    # ['congestion', 'detailed_place', 'evaluate', 'feedback_weight', ...]

    runner = FlowRunner([
        create_stage("feedback_weight", slots=[
            (PinPairAttraction(), FeedbackCadence(start=100, interval=10)),
        ]),
        create_stage("global_place"),
        create_stage("legalize"),
        create_stage("evaluate"),
    ])
    result = runner.run(design)

``feedback_weight`` schedules :mod:`repro.feedback` components, among them
the timing feedbacks of :mod:`repro.feedback.timing`:

* ``PinPairAttraction``       — the paper's critical-path extraction + Eq. 9
  pin pairs;
* ``MomentumNetWeighting``    — DREAMPlace 4.0-style momentum net weighting;
* ``SmoothPinPairAttraction`` — Differentiable-TDP-style smoothed pin
  attraction;
* ``TimingRecorder``          — observe-only TNS/WNS trajectory recording.

Ordering convention: the one ``feedback_weight`` stage comes *before*
``global_place`` in the stage list because it builds the run's feedback
scheduler (:attr:`FlowContext.feedback`), which every placer of the run
adopts; post-processing stages (``legalize``, ``evaluate``) come after.

Flow presets
------------

The shipped presets (``efficient_tdp``, ``dreamplace``, ``dreamplace4``,
``differentiable_tdp``) are registered in :mod:`repro.flow.presets`::

    from repro.flow import build_flow

    result = build_flow("efficient_tdp", max_iterations=300, seed=7).run(design)

Batch execution
---------------

:func:`~repro.flow.batch.run_batch` fans a list of
:class:`~repro.flow.batch.BatchJob` descriptions out over a
``concurrent.futures`` pool (threads by default, processes optionally) with
per-design seeds, and aggregates the per-design summaries into a
:class:`~repro.flow.batch.BatchReport` with ready-to-serialize JSON.
"""

from repro.flow.context import FlowContext
from repro.flow.runner import FlowResult, FlowRunner
from repro.flow.stage import FlowStage, available_stages, create_stage, register_stage
from repro.flow.stages import (
    EvaluateStage,
    FeedbackWeightStage,
    GlobalPlaceStage,
    LegalizeStage,
)
from repro.flow.presets import (
    DifferentiableTDPConfig,
    DreamPlace4Config,
    DreamPlaceConfig,
    EfficientTDPConfig,
    FlowPreset,
    build_flow,
    build_stages,
    get_preset,
    make_config,
    preset_names,
    register_preset,
)
from repro.flow.batch import BatchJob, BatchReport, run_batch

__all__ = [
    "FlowContext",
    "FlowResult",
    "FlowRunner",
    "FlowStage",
    "available_stages",
    "create_stage",
    "register_stage",
    "EvaluateStage",
    "FeedbackWeightStage",
    "GlobalPlaceStage",
    "LegalizeStage",
    "DifferentiableTDPConfig",
    "DreamPlace4Config",
    "DreamPlaceConfig",
    "EfficientTDPConfig",
    "FlowPreset",
    "build_flow",
    "build_stages",
    "get_preset",
    "make_config",
    "preset_names",
    "register_preset",
    "BatchJob",
    "BatchReport",
    "run_batch",
]
