"""Nonlinear global placement engine (DREAMPlace-style).

The engine minimizes

    sum_e w_e * WL_e(x, y)  +  lambda * D(x, y)  +  sum_t beta_t * T_t(x, y)

where ``WL`` is the weighted-average smoothed wirelength, ``D`` the
electrostatic density penalty, and ``T_t`` optional extra terms (the paper's
pin-to-pin attraction, Eq. 6).  Net weights ``w_e`` default to one and are
adjusted by net-weighting timing-driven flows (Eq. 5).

A flow hooks into the engine through scheduled *placement feedbacks*
(:mod:`repro.feedback`): each feedback slot pairs an analysis component with
a firing cadence, and a :class:`~repro.feedback.scheduler.FeedbackScheduler`
dispatches them once per iteration.  A flow run passes its one scheduler as
``GlobalPlacer(..., feedback=...)``; a placer built without one gets an
empty scheduler that :meth:`GlobalPlacer.add_feedback` fills.  This is how
the timing-driven placers run STA every ``m`` iterations, update net weights
or pin-pair weights, and record TNS/WNS trajectories (Fig. 5) without the
engine knowing anything about timing — and how congestion weighting merges
into the same loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.feedback.base import FeedbackCadence, PlacementFeedback
from repro.feedback.scheduler import FeedbackScheduler, FeedbackSlot
from repro.netlist.design import Design
from repro.obs import active_tracer, clock, span, traced
from repro.placement.arena import IterationArena
from repro.placement.density import ElectrostaticDensity
from repro.placement.initial import clamp_to_die, initial_placement
from repro.placement.nesterov import NesterovOptimizer
from repro.placement.objective import ObjectiveTerm, PlacementObjective
from repro.placement.wirelength import WeightedAverageWirelength
from repro.utils.logging import get_logger

logger = get_logger("placement.global")


class PlacementDiverged(ValueError):
    """A non-finite gradient or position, named with its GP iteration."""


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
    # Record history (HPWL, overflow, ...) every N iterations (default: all;
    # preset flows default to 10).  HPWL is computed only on history
    # iterations; the optimization trajectory is bitwise unaffected.
    history_every: int = 1


@dataclass
class ScheduleConfig:
    """The placement schedule every flow preset config shares.

    Preset configs extend it with their own knobs; the flat fields are what
    the CLI's ``--set key=value`` addresses.
    """

    max_iterations: int = 450
    stop_overflow: float = 0.08
    target_density: float = 1.0
    seed: int = 0
    verbose: bool = False
    # Accepted and ignored: the Poisson solve has no thread knob.  Kept
    # only because benchmarks/flow/bench_flow.py still passes it; delete it
    # together with that argument.
    kernel_workers: int = 0
    # Record placement history every N iterations (1 = every iteration, as
    # the Fig. 5 trajectories use; the optimization trajectory is bitwise
    # unaffected).
    history_every: int = 10

    def placement_config(self) -> PlacementConfig:
        return PlacementConfig(
            max_iterations=self.max_iterations,
            stop_overflow=self.stop_overflow,
            target_density=self.target_density,
            seed=self.seed,
            verbose=self.verbose,
            history_every=self.history_every,
        )


@dataclass
class PlacementHistory:
    """Per-iteration metrics recorded during a run (drives Fig. 5)."""

    iterations: List[int] = field(default_factory=list)
    hpwl: List[float] = field(default_factory=list)
    overflow: List[float] = field(default_factory=list)
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
        feedback: Optional[FeedbackScheduler] = None,
    ) -> None:
        self.design = design
        self.config = config if config is not None else PlacementConfig()
        arrays = design.arrays

        for knob in ("num_bins_x", "num_bins_y"):
            bins = getattr(self.config, knob)
            if bins is not None and bins < 2:
                raise ValueError(
                    f"{knob} must be at least 2 (the density field's central "
                    f"differences need two bins per axis), got {bins}"
                )
        self.wirelength = WeightedAverageWirelength(design)
        self.density = ElectrostaticDensity(
            design,
            num_bins_x=self.config.num_bins_x,
            num_bins_y=self.config.num_bins_y,
            target_density=self.config.target_density,
        )
        self.objective = PlacementObjective()
        # Starts as the wirelength model's read-only all-ones array, which
        # it recognizes by identity and evaluates without the per-pin weight
        # multiply; set_net_weights replaces it.
        self.net_weights = self.wirelength.unit_weights
        self.feedback = feedback if feedback is not None else FeedbackScheduler()
        self.history = PlacementHistory()

        # Preconditioner: pins per instance + density_weight * area.
        self._pins_per_instance = np.bincount(
            arrays.pin_instance, minlength=arrays.num_instances
        ).astype(np.float64)
        self._inst_area = arrays.inst_area
        self._movable_mask = arrays.movable_mask
        self._fixed_mask = ~arrays.movable_mask
        # Per-instance die bounds of the in-loop clamp: the movable bounds
        # are clamp_to_die's, and fixed instances get infinite bounds.
        die = arrays.die
        movable = self._movable_mask
        self._lower_x = np.where(movable, die.xl, -np.inf)
        self._upper_x = np.where(movable, die.xh - arrays.inst_width, np.inf)
        self._lower_y = np.where(movable, die.yl, -np.inf)
        self._upper_y = np.where(movable, die.yh - arrays.inst_height, np.inf)

        # Iteration arena: reused work buffers for the gradient pipeline
        # (shared with the wirelength model).
        self.arena = IterationArena()
        self.wirelength.arena = self.arena
        self.density.arena = self.arena
        self._density_weight_pending = False

        self.density_weight = 0.0
        self._gamma_bin = max(self.density.bin_w, self.density.bin_h)
        self._optimizer: Optional[NesterovOptimizer] = None
        self.feedback.start(self)

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
        ``*`` are commutative bit for bit).  The wirelength and density
        spans are recorded from one clock read per boundary; the extra
        terms run in a ``placement.extra`` span, so the pin-attraction span
        nests inside it.  What no term span covers (the combine) is the
        enclosing ``placement.nesterov`` span's self time.  A non-finite
        gradient raises :class:`PlacementDiverged` before it can move a cell.
        """
        tracer = active_tracer()
        t0 = clock()
        wl = self.wirelength.evaluate(
            x, y, net_weights=self.net_weights, with_value=False
        )
        t1 = clock()
        dens = self.density.evaluate(x, y)
        t2 = clock()
        if tracer is not None:
            tracer.record_complete("placement.wirelength", t0, t1 - t0)
            tracer.record_complete("placement.density", t1, t2 - t1)
        if self._density_weight_pending:
            # Folded first-iteration bootstrap: derive the initial
            # density multiplier from this evaluation instead of running
            # a duplicate evaluate before the loop (same positions, same
            # gamma — bitwise identical weight).
            self.density_weight = self._derive_density_weight(wl, dens)
            self._density_weight_pending = False
        arena = self.arena
        num_instances = self.design.arrays.num_instances
        with span("placement.extra"):
            _, extra_gx, extra_gy = self.objective.evaluate_extra(
                x,
                y,
                num_instances,
                out_x=arena.array("extra_gx", num_instances),
                out_y=arena.array("extra_gy", num_instances),
            )
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
        if not math.isfinite(grad_x.sum() + grad_y.sum()):
            raise self._diverged(
                (
                    ("wirelength gradient", wl.grad_x, wl.grad_y),
                    ("density gradient", dens.grad_x, dens.grad_y),
                    ("extra objective-term gradient", extra_gx, extra_gy),
                )
            )
        self._last_density_result = dens
        return grad_x, grad_y

    def _diverged(self, quantities) -> PlacementDiverged:
        """The error naming the first non-finite ``(name, x, y)`` quantity."""
        name = next(
            (
                label
                for label, qx, qy in quantities
                if not (np.isfinite(qx).all() and np.isfinite(qy).all())
            ),
            "preconditioned gradient",
        )
        return PlacementDiverged(
            f"global placement diverged at iteration {self._iteration}: "
            f"non-finite {name}"
        )

    def _clip_to_die(self, x: np.ndarray, y: np.ndarray) -> None:
        """``clamp_to_die(design, x, y, copy=False)``, bit for bit, as two
        whole-vector clips against the precomputed per-instance bounds."""
        np.clip(x, self._lower_x, self._upper_x, out=x)
        np.clip(y, self._lower_y, self._upper_y, out=y)

    def _hpwl(self, x: np.ndarray, y: np.ndarray) -> float:
        """HPWL at ``(x, y)``, gathered through the arena's pin buffers."""
        core = self.design.arrays
        pin_x, pin_y = self.arena.gather_pins(core, x, y)
        return core.total_hpwl(x, y, pin_x=pin_x, pin_y=pin_y)

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
    @traced("placement.gp")
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
        self._iteration = 0
        if not math.isfinite(x.sum() + y.sum()):
            raise self._diverged((("initial positions", x, y),))

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

        overflow = 1.0
        converged = False
        iteration = 0
        for iteration in range(1, config.max_iterations + 1):
            self._iteration = iteration
            with span("placement.nesterov", i=iteration):
                x, y = optimizer.step_once(self._gradient)
            # In-place clamp: the returned arrays are the optimizer's
            # major solution, freshly allocated this iteration, so
            # clipping them directly keeps optimizer state and loop state
            # in sync without a copy.
            self._clip_to_die(x, y)

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

            # Nothing in the loop reads HPWL (the stopping rule, gamma
            # and the density schedule read overflow), so it is computed
            # only for the history and the log line.
            recorded = iteration % config.history_every == 0
            if recorded:
                hpwl = self._hpwl(x, y)
                self.history.iterations.append(iteration)
                self.history.hpwl.append(hpwl)
                self.history.overflow.append(overflow)
                self.history.density_weight.append(self.density_weight)

            self.feedback.dispatch(self, iteration, x, y)

            if config.verbose and iteration % config.log_every == 0:
                logger.info(
                    "iter %4d  hpwl %.4e  overflow %.3f  lambda %.3e",
                    iteration,
                    hpwl if recorded else self._hpwl(x, y),
                    overflow,
                    self.density_weight,
                )

            if iteration >= config.min_iterations and overflow <= config.stop_overflow:
                converged = True
                break

        hpwl = self._hpwl(x, y)
        tracer = active_tracer()
        if tracer is not None:
            tracer.gauge("gp.overflow", overflow)
            tracer.gauge("gp.hpwl", hpwl)
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
