"""The repo's machine-checked contracts: registries the lint rules consume.

This module is the single place where "which code is held to which
invariant" is written down.  The rules in :mod:`repro.analysis.rules` are
generic AST checks; everything repo-specific (which functions are
steady-state, which packages may not import which, what counts as an
allocating constructor) lives here so growing the contract surface is a
one-line registry edit, not a rule rewrite.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Tuple, TypeVar

_F = TypeVar("_F", bound=Callable)


def steady_state(fn: _F) -> _F:
    """Mark a function as part of a zero-allocation steady-state loop.

    Purely declarative — the decorator returns ``fn`` unchanged at runtime;
    the contract linter recognizes it *syntactically* (any decorator named
    ``steady_state``) and applies the ``alloc`` rule to the function body.
    Existing hot paths are covered by :data:`STEADY_STATE_FUNCTIONS` instead
    so the production modules don't need to import the analysis package.
    """
    return fn


# ----------------------------------------------------------------------
# alloc: steady-state functions (module path suffix -> qualified names).
#
# Keys are paths relative to the ``repro`` package root; values name the
# functions (``Class.method`` or ``function``) whose bodies may not call
# allocating NumPy constructors outside a ``# contract: allow(alloc)``
# pragma.  This is the GP gradient path: every function here runs once (or
# more) per placement iteration, ~600 times per run.
# ----------------------------------------------------------------------
STEADY_STATE_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "placement/wirelength.py": frozenset(
        {
            "WeightedAverageWirelength.evaluate",
            "WeightedAverageWirelength._gather",
            "WeightedAverageWirelength._to_instances",
            "WeightedAverageWirelength._directional",
            "WeightedAverageWirelength._reduce",
            "WeightedAverageWirelength._spread",
            "WeightedAverageWirelength._factors",
            "WeightedAverageWirelength._pin_block",
            "WeightedAverageWirelength._buffer",
            "WeightedAverageWirelength._zeros_buffer",
        }
    ),
    "placement/density.py": frozenset(
        {
            "ElectrostaticDensity.evaluate",
            "ElectrostaticDensity.overflow",
            "ElectrostaticDensity._splat",
            "ElectrostaticDensity._deposit",
            "ElectrostaticDensity._stage_geometry",
            "ElectrostaticDensity._solve_field",
            "ElectrostaticDensity._sample_field",
            "ElectrostaticDensity._buffer",
            "_AxisDct.forward",
            "_AxisDct.inverse",
        }
    ),
    # The per-iteration history HPWL gather.
    "placement/arena.py": frozenset({"IterationArena.gather_pins"}),
    "placement/nesterov.py": frozenset(
        {
            "NesterovOptimizer.step_once",
            "NesterovOptimizer._evaluate",
            "NesterovOptimizer._momentum",
            "NesterovOptimizer._advance",
            "NesterovOptimizer._bb_step",
            "NesterovOptimizer._take_ref",
            "NesterovOptimizer.reset_momentum",
        }
    ),
    "placement/objective.py": frozenset({"PlacementObjective.evaluate_extra"}),
    "placement/global_placer.py": frozenset(
        {"GlobalPlacer._gradient", "GlobalPlacer._derive_density_weight"}
    ),
    "core/pin_attraction.py": frozenset({"PinAttractionObjective.evaluate"}),
    # Back-end hot loop: the per-cell Abacus cluster collapse runs once per
    # movable cell per legalization.
    "placement/legalization/abacus.py": frozenset({"AbacusLegalizer._insert_cell"}),
}

# Allocating NumPy constructors (``np.<name>(...)``) banned in steady-state
# bodies.  ``np.bincount`` is deliberately absent: it has no ``out=`` form
# and the scatter plans are built around its sequential-fold bit-exactness.
ALLOCATING_CONSTRUCTORS: FrozenSet[str] = frozenset(
    {
        "empty",
        "zeros",
        "ones",
        "full",
        "empty_like",
        "zeros_like",
        "ones_like",
        "full_like",
        "concatenate",
        "copy",
        "append",
        "arange",
        "repeat",
        "tile",
        "stack",
        "hstack",
        "vstack",
        "column_stack",
    }
)

# Binary (and gather) ufunc-style calls that must pass ``out=`` in
# steady-state bodies — without it each call allocates a fresh result array
# every iteration.  Unary ufuncs are not enforced (the hot paths stage them
# through ``out=`` anyway, but e.g. ``np.sqrt`` on a scalar is harmless).
# ``np.take`` with ``out=`` must also pass a ``mode`` other than the default
# ``"raise"``, which gathers into a hidden temporary and then copies it into
# ``out`` — an allocation plus an extra pass per call.  Plan indices are in
# range by construction, so ``mode="clip"`` never clips.
OUT_REQUIRED_CALLS: FrozenSet[str] = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "divide",
        "true_divide",
        "floor_divide",
        "power",
        "maximum",
        "minimum",
        "fmax",
        "fmin",
        "mod",
        "remainder",
        "hypot",
        "arctan2",
        "logaddexp",
        "take",
    }
)

# ``np.fft.<name>`` transforms that must pass ``out=`` in steady-state
# bodies (numpy >= 2.0 accepts it): without it each call allocates its
# result.  The density model's Poisson solve stages all four through
# preallocated grids.
OUT_REQUIRED_FFT_CALLS: FrozenSet[str] = frozenset({"fft", "ifft", "rfft", "irfft"})

# ----------------------------------------------------------------------
# layering: package import constraints.
#
# Engine-layer packages may not import the flow/CLI layer at module scope
# (lazy imports inside functions are the sanctioned seam — e.g. the
# ``route/flow.py`` retrofit helpers).
# ----------------------------------------------------------------------
LAYERED_PACKAGES: Tuple[str, ...] = ("netlist", "placement", "timing", "route")
FORBIDDEN_LAYER_IMPORTS: Tuple[str, ...] = ("repro.flow", "repro.cli")

# ----------------------------------------------------------------------
# raw-timing: blessed wall-clock call sites.
#
# Every other module must route timing through :mod:`repro.obs` —
# ``clock()`` for durations, ``span()`` for traced sections — so the
# unified tracer is the single source of where-did-the-time-go truth.
# ``obs/`` owns the clock.
# ----------------------------------------------------------------------
TIMING_ALLOWED_PATHS: Tuple[str, ...] = ("obs/",)

# ``time.<name>()`` calls (and their ``from time import`` forms) that count
# as raw wall-clock reads.  ``time.sleep`` is deliberately absent: sleeping
# is not measurement.
RAW_TIMING_CALLS: FrozenSet[str] = frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "thread_time",
        "thread_time_ns",
    }
)


def repro_subpath(posix_path: str) -> str:
    """The path suffix after the last ``repro/`` path component (or "")."""
    parts = posix_path.split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index + 1:])
    return ""
