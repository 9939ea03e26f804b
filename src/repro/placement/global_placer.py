"""Nonlinear global placement engine (DREAMPlace-style).

The engine minimizes

    sum_e w_e * WL_e(x, y)  +  lambda * D(x, y)  +  sum_t beta_t * T_t(x, y)

where ``WL`` is the weighted-average smoothed wirelength, ``D`` the
electrostatic density penalty, and ``T_t`` optional extra terms (the paper's
pin-to-pin attraction, Eq. 6).  Net weights ``w_e`` default to one and are
adjusted by net-weighting timing-driven flows (Eq. 5).

A flow hooks into the engine through scheduled *placement feedbacks*
(:mod:`repro.feedback`): each feedback slot pairs an analysis component with
a firing cadence, and the engine's :class:`~repro.feedback.scheduler.
FeedbackScheduler` dispatches them once per iteration.  This is how the
timing-driven placers run STA every ``m`` iterations, update net weights or
pin-pair weights, and record TNS/WNS trajectories (Fig. 5) without the
engine knowing anything about timing — and how congestion weighting merges
into the same loop.  The legacy ``add_callback`` API remains as a thin shim
over an every-iteration feedback slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.scheduler import CallbackFeedback, FeedbackScheduler, FeedbackSlot
from repro.netlist.design import Design
from repro.obs import active_tracer, clock, span
from repro.placement.arena import IterationArena
from repro.placement.density import ElectrostaticDensity
from repro.placement.initial import clamp_to_die, initial_placement
from repro.placement.nesterov import NesterovOptimizer
from repro.placement.objective import ObjectiveTerm, PlacementObjective
from repro.placement.wirelength import WeightedAverageWirelength, total_hpwl
from repro.utils.logging import get_logger
from repro.utils.profiling import RuntimeProfiler

logger = get_logger("placement.global")

IterationCallback = Callable[["GlobalPlacer", int, np.ndarray, np.ndarray], None]


@dataclass
class PlacementConfig:
    """Tunable knobs of the global placement engine."""

    max_iterations: int = 600
    min_iterations: int = 50
    stop_overflow: float = 0.08
    target_density: float = 1.0
    num_bins_x: Optional[int] = None
    num_bins_y: Optional[int] = None
    # Density multiplier schedule (the paper adopts DREAMPlace's rule).
    density_weight_init_ratio: float = 1.0e-3
    density_weight_growth: float = 1.05
    density_weight_max: float = 1.0e3
    # Wirelength smoothing schedule.
    gamma_base_bins: float = 4.0
    seed: int = 0
    verbose: bool = False
    log_every: int = 50
    # Record history (HPWL, overflow, ...) every N iterations (default: all).
    # XL runs can raise this to cut per-iteration bookkeeping cost; the
    # optimization trajectory is bitwise unaffected.
    history_every: int = 1
    # Threads of the density model's Poisson-solve DCTs (scipy's FFT
    # ``workers``; 0 = scipy's default).  Each row transform is computed
    # identically, so placements are bitwise identical for any value.
    kernel_workers: int = 0


@dataclass
class PlacementHistory:
    """Per-iteration metrics recorded during a run (drives Fig. 5)."""

    iterations: List[int] = field(default_factory=list)
    hpwl: List[float] = field(default_factory=list)
    overflow: List[float] = field(default_factory=list)
    objective: List[float] = field(default_factory=list)
    density_weight: List[float] = field(default_factory=list)
    extra: Dict[str, List[Tuple[int, float]]] = field(default_factory=dict)

    def record_extra(self, name: str, iteration: int, value: float) -> None:
        self.extra.setdefault(name, []).append((iteration, value))


@dataclass
class PlacementResult:
    """Final global-placement solution and run statistics."""

    x: np.ndarray
    y: np.ndarray
    hpwl: float
    overflow: float
    iterations: int
    converged: bool
    history: PlacementHistory


class GlobalPlacer:
    """Analytical global placer with pluggable extra objective terms."""

    def __init__(
        self,
        design: Design,
        config: Optional[PlacementConfig] = None,
        *,
        profiler: Optional[RuntimeProfiler] = None,
    ) -> None:
        self.design = design
        self.config = config if config is not None else PlacementConfig()
        self.profiler = profiler if profiler is not None else RuntimeProfiler()
        arrays = design.arrays
        if self.config.kernel_workers < 0:
            raise ValueError("kernel_workers must be >= 0")

        self.wirelength = WeightedAverageWirelength(design)
        self.density = ElectrostaticDensity(
            design,
            num_bins_x=self.config.num_bins_x,
            num_bins_y=self.config.num_bins_y,
            target_density=self.config.target_density,
            workers=self.config.kernel_workers,
        )
        self.objective = PlacementObjective()
        # Starts as the wirelength model's read-only all-ones array, which
        # it recognizes by identity and evaluates without the per-pin weight
        # multiply; set_net_weights replaces it.
        self.net_weights = self.wirelength.unit_weights
        self.feedback = FeedbackScheduler()
        self.history = PlacementHistory()

        # Preconditioner: pins per instance + density_weight * area.
        self._pins_per_instance = np.bincount(
            arrays.pin_instance, minlength=arrays.num_instances
        ).astype(np.float64)
        self._inst_area = arrays.inst_area
        self._movable_mask = arrays.movable_mask
        self._fixed_mask = ~arrays.movable_mask

        # Iteration arena: reused work buffers for the gradient pipeline
        # (shared with the wirelength model); per-term gradient walls for
        # ``repro run --profile`` attribution.
        self.arena = IterationArena()
        self.wirelength.arena = self.arena
        self.density.arena = self.arena
        self.gradient_seconds: Dict[str, float] = {
            "wirelength": 0.0,
            "density": 0.0,
            "extra": 0.0,
            "scatter": 0.0,
        }
        self._density_weight_pending = False

        self.density_weight = 0.0
        self._gamma_bin = max(self.density.bin_w, self.density.bin_h)
        self._last_overflow = 1.0
        self._optimizer: Optional[NesterovOptimizer] = None

    # ------------------------------------------------------------------
    # Flow hooks
    # ------------------------------------------------------------------
    def add_objective_term(self, term: ObjectiveTerm) -> None:
        """Add an extra differentiable term (e.g. pin-to-pin attraction)."""
        self.objective.add_term(term)

    def add_feedback(
        self,
        feedback: PlacementFeedback,
        cadence: Optional[FeedbackCadence] = None,
    ) -> FeedbackSlot:
        """Schedule a placement feedback (fires on ``cadence``, default every
        iteration) and give it the chance to attach objective terms."""
        slot = self.feedback.add(feedback, cadence)
        feedback.attach(self)
        return slot

    def add_callback(self, callback: IterationCallback) -> None:
        """Register a per-iteration hook ``callback(placer, iteration, x, y)``.

        Compatibility shim over :meth:`add_feedback`: the callback becomes an
        every-iteration :class:`~repro.feedback.scheduler.CallbackFeedback`
        slot on the scheduler.
        """
        self.add_feedback(CallbackFeedback(callback))

    def set_net_weights(self, weights: np.ndarray) -> None:
        """Replace the per-net wirelength weights (net-weighting TDP flows).

        Accepts any real numeric array of shape ``(num_nets,)``; anything
        else — wrong shape (including scalars that would silently
        broadcast), non-numeric dtypes, negative or non-finite entries —
        raises with a description of the problem.
        """
        arr = np.asarray(weights)
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.number):
            raise TypeError(
                f"net weights must be a real numeric array, got dtype {arr.dtype}"
            )
        if np.issubdtype(arr.dtype, np.complexfloating):
            raise TypeError("net weights must be real, got a complex array")
        if arr.shape != self.net_weights.shape:
            raise ValueError(
                f"net weight array has shape {arr.shape}, expected "
                f"{self.net_weights.shape} (one weight per net; scalars are "
                "not broadcast)"
            )
        arr = arr.astype(np.float64, copy=False)
        if not np.all(np.isfinite(arr)):
            raise ValueError("net weights must be finite (no NaN/inf)")
        if arr.size and float(arr.min()) < 0.0:
            raise ValueError("net weights must be non-negative")
        self.net_weights = arr

    def reset_optimizer_momentum(self) -> None:
        """Restart Nesterov momentum (call after changing the objective).

        Timing-driven flows change the objective every timing iteration (new
        net weights or new pin pairs); carrying momentum accumulated under the
        old objective across such a change can destabilize the optimizer.
        """
        if self._optimizer is not None:
            self._optimizer.reset_momentum()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _update_gamma(self, overflow: float) -> None:
        gamma = self._gamma_bin * self.config.gamma_base_bins * (0.1 + overflow)
        self.wirelength.set_gamma(max(gamma, 1e-3))

    def _gradient(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Preconditioned objective gradient at ``(x, y)``.

        Returns arena-owned buffers that are reused on the next call; the
        optimizer copies what it keeps.  The staged in-place combine is
        bitwise identical to the allocating sum it replaced (IEEE ``+`` and
        ``*`` are commutative bit for bit).  Per-term walls accumulate into
        ``gradient_seconds`` with plain ``clock()`` deltas — the profiler's
        "gradient" section keeps the aggregate, and with tracing active the
        same deltas are re-emitted as ``gp.*`` spans (one clock read feeds
        both views, so the legacy dict and the trace agree exactly).
        """
        seconds = self.gradient_seconds
        tracer = active_tracer()
        with self.profiler.section("gradient"):
            t0 = clock()
            wl = self.wirelength.evaluate(x, y, net_weights=self.net_weights)
            t1 = clock()
            seconds["wirelength"] += t1 - t0
            dens = self.density.evaluate(x, y)
            t2 = clock()
            seconds["density"] += t2 - t1
            if self._density_weight_pending:
                # Folded first-iteration bootstrap: derive the initial
                # density multiplier from this evaluation instead of running
                # a duplicate evaluate before the loop (same positions, same
                # gamma — bitwise identical weight).
                self.density_weight = self._derive_density_weight(wl, dens)
                self._density_weight_pending = False
            arena = self.arena
            num_instances = self.design.arrays.num_instances
            _, extra_gx, extra_gy = self.objective.evaluate_extra(
                x,
                y,
                num_instances,
                out_x=arena.array("extra_gx", num_instances),
                out_y=arena.array("extra_gy", num_instances),
            )
            t3 = clock()
            seconds["extra"] += t3 - t2
            grad_x = arena.array("grad_x", num_instances)
            grad_y = arena.array("grad_y", num_instances)
            np.multiply(dens.grad_x, self.density_weight, out=grad_x)
            grad_x += wl.grad_x
            grad_x += extra_gx
            np.multiply(dens.grad_y, self.density_weight, out=grad_y)
            grad_y += wl.grad_y
            grad_y += extra_gy
            precond = arena.array("precond", num_instances)
            np.multiply(self._inst_area, self.density_weight, out=precond)
            precond += self._pins_per_instance
            np.maximum(precond, 1.0, out=precond)
            grad_x /= precond
            grad_y /= precond
            grad_x[self._fixed_mask] = 0.0
            grad_y[self._fixed_mask] = 0.0
            t4 = clock()
            seconds["scatter"] += t4 - t3
            if tracer is not None:
                tracer.record_complete("gp.wirelength", t0, t1 - t0)
                tracer.record_complete("gp.density", t1, t2 - t1)
                tracer.record_complete("gp.extra", t2, t3 - t2)
                tracer.record_complete("gp.scatter", t3, t4 - t3)
        self._last_density_result = dens
        return grad_x, grad_y

    def _derive_density_weight(self, wl, dens) -> float:
        """Initial density multiplier from one (wl, density) evaluation."""
        wl_norm = float(np.abs(wl.grad_x).sum() + np.abs(wl.grad_y).sum())
        dens_norm = float(np.abs(dens.grad_x).sum() + np.abs(dens.grad_y).sum())
        if dens_norm <= 1e-12:
            return self.config.density_weight_init_ratio
        return self.config.density_weight_init_ratio * wl_norm / dens_norm

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(
        self,
        x0: Optional[np.ndarray] = None,
        y0: Optional[np.ndarray] = None,
    ) -> PlacementResult:
        """Run global placement and return the (unlegalized) solution.

        The design's stored positions are updated to the final solution.
        """
        config = self.config
        design = self.design
        if config.history_every < 1:
            raise ValueError("history_every must be >= 1")
        if x0 is None or y0 is None:
            x0, y0 = initial_placement(design, seed=config.seed)
        x, y = clamp_to_die(design, np.asarray(x0, float), np.asarray(y0, float))

        self._update_gamma(1.0)
        # The initial density weight is derived inside iteration 1's gradient
        # evaluation (same positions and gamma as the pre-loop evaluate it
        # replaces) instead of paying a duplicate wirelength+density pass.
        self.density_weight = 0.0
        self._density_weight_pending = True

        die = design.die
        min_step = 0.01 * design.site_width
        max_step = 0.05 * max(die.width, die.height)
        optimizer = NesterovOptimizer(
            x,
            y,
            movable_mask=self._movable_mask,
            min_step=min_step,
            max_step=max_step,
        )
        self._optimizer = optimizer

        core = design.arrays
        overflow = 1.0
        hpwl = total_hpwl(design, x, y)
        converged = False
        iteration = 0
        for iteration in range(1, config.max_iterations + 1):
            with span("gp.iteration", i=iteration):
                x, y = optimizer.step_once(self._gradient)
                # In-place clamp: the returned arrays are the optimizer's
                # major solution, freshly allocated this iteration, so
                # clipping them directly keeps optimizer state and loop state
                # in sync without a copy (values identical to the copying
                # clamp).
                clamp_to_die(design, x, y, copy=False)

                dens = self._last_density_result
                overflow = dens.overflow
                self._update_gamma(overflow)
                # Grow the density multiplier only while the spreading target
                # has not been met.  Once the target is reached the multiplier
                # is frozen so flows that keep iterating (timing optimization)
                # can refine wirelength/timing without the density term
                # eventually dominating; if timing forces re-cluster cells and
                # overflow rises above the target again, growth resumes
                # automatically.
                if overflow > config.stop_overflow:
                    self.density_weight = min(
                        self.density_weight * config.density_weight_growth,
                        config.density_weight_max,
                    )

                with self.profiler.section("others"):
                    if iteration % config.history_every == 0:
                        pin_x, pin_y = self.arena.gather_pins(core, x, y)
                        hpwl = core.total_hpwl(x, y, pin_x=pin_x, pin_y=pin_y)
                        self.history.iterations.append(iteration)
                        self.history.hpwl.append(hpwl)
                        self.history.overflow.append(overflow)
                        self.history.density_weight.append(self.density_weight)
                        self.history.objective.append(hpwl)
                        tracer = active_tracer()
                        if tracer is not None:
                            tracer.gauge("gp.overflow", overflow)
                            tracer.gauge("gp.hpwl", hpwl)

                self.feedback.dispatch(self, iteration, x, y)

            if config.verbose and iteration % config.log_every == 0:
                logger.info(
                    "iter %4d  hpwl %.4e  overflow %.3f  lambda %.3e",
                    iteration,
                    hpwl,
                    overflow,
                    self.density_weight,
                )

            if iteration >= config.min_iterations and overflow <= config.stop_overflow:
                converged = True
                break

        if iteration % config.history_every != 0:
            # Last iteration skipped bookkeeping; the result still reports
            # the final HPWL.
            hpwl = total_hpwl(design, x, y)

        self.feedback.finalize(self)
        design.set_positions(x, y)
        return PlacementResult(
            x=x,
            y=y,
            hpwl=hpwl,
            overflow=overflow,
            iterations=iteration,
            converged=converged,
            history=self.history,
        )
