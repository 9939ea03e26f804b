"""DREAMPlace-style analytical global placement substrate.

The package provides the nonlinear placement machinery the paper builds on
(Sec. II-A): a smoothed wirelength model with analytic gradients, an
electrostatics-based density penalty, a Nesterov-accelerated optimizer, and
row-based legalization.  The timing feedbacks in :mod:`repro.feedback`
plug net weights, or the pin-to-pin attraction term of :mod:`repro.core`,
into :class:`GlobalPlacer`.
"""

from repro.placement.wirelength import (
    hpwl_per_net,
    total_hpwl,
    WeightedAverageWirelength,
)
from repro.placement.density import ElectrostaticDensity, DensityResult
from repro.placement.nesterov import NesterovOptimizer
from repro.placement.initial import initial_placement
from repro.placement.objective import ObjectiveTerm, PlacementObjective
from repro.placement.global_placer import GlobalPlacer, PlacementConfig, PlacementDiverged, PlacementHistory
from repro.placement.legalization.abacus import AbacusLegalizer
from repro.placement.legalization.greedy import GreedyLegalizer

__all__ = [
    "hpwl_per_net",
    "total_hpwl",
    "WeightedAverageWirelength",
    "ElectrostaticDensity",
    "DensityResult",
    "NesterovOptimizer",
    "initial_placement",
    "ObjectiveTerm",
    "PlacementObjective",
    "GlobalPlacer",
    "PlacementConfig",
    "PlacementDiverged",
    "PlacementHistory",
    "AbacusLegalizer",
    "GreedyLegalizer",
]
