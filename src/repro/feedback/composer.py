"""Merging several per-net weight proposals into one weight vector.

Every weighting feedback proposes a multiplicative per-net boost (``>= 1``):
timing criticality proposes ``1 + boost * criticality``, congestion proposes
``1 + boost * overflow_score``.  The composer owns what would otherwise be
private to each signal — momentum, clamping, normalization — so the signals share
one dynamic range instead of fighting over ``placer.set_net_weights``:

* proposals are combined **multiplicatively** (log-additively), so a net
  that is both timing-critical and congested gets compounded emphasis while
  a signal with nothing to say (all-ones proposal) leaves the other
  signal's weights exactly unchanged;
* one **shared momentum** state smooths the composed target over updates:
  ``w <- decay*w + (1-decay)*target`` where ``target`` is the proposal
  product itself.  The target is *absolute*, not compounded onto the
  current weights (the self-applying DREAMPlace-4.0 ``net_weight`` feedback
  compounds; measured
  on the congestion-stressed design, compounding a congestion signal
  ratchets every hot net to the clamp within a few updates and wrecks the
  post-legalization placement).  Tracking the absolute target keeps the
  weights bounded by what the signals currently claim, and lets a signal
  *release* — a net whose congestion clears glides back to its timing-only
  weight;
* a **log-proportional cap** (``max_target_boost``) normalizes oversized
  combined targets by scaling each signal's *log* contribution by the same
  factor — the ratio between the signals is preserved, so neither starves
  the other at the clamp;
* the final weights are clamped to ``[min_weight, max_weight]``.

With a single proposing feedback the composer reduces exactly to that
feedback's own momentum weighting — the property the hypothesis test in
``tests/test_feedback.py`` pins down (zero congestion overflow => pure
timing weights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

__all__ = ["WeightComposerConfig", "WeightComposer"]


@dataclass
class WeightComposerConfig:
    """Shared dynamics of the composed net-weight state."""

    # Momentum: fraction of the previous weight kept per update.
    momentum_decay: float = 0.75
    # Clamp of the composed weights.
    min_weight: float = 1.0
    max_weight: float = 6.0
    # Cap on the combined per-update target multiplier.  ``None`` disables
    # the cap; otherwise oversized combined targets are scaled down in log
    # space, preserving the ratio between the contributing signals.
    max_target_boost: Optional[float] = 4.0

    def validate(self) -> None:
        if not 0.0 <= self.momentum_decay <= 1.0:
            raise ValueError("momentum_decay must be within [0, 1]")
        if self.min_weight < 0.0:
            raise ValueError("min_weight must be non-negative")
        if self.max_weight < self.min_weight:
            raise ValueError("max_weight must be at least min_weight")
        if self.max_target_boost is not None and self.max_target_boost < 1.0:
            raise ValueError("max_target_boost must be at least 1")


class WeightComposer:
    """Stateful merge of per-net weight proposals (see module docstring)."""

    def __init__(
        self,
        num_nets: Optional[int] = None,
        config: Optional[WeightComposerConfig] = None,
    ) -> None:
        self.config = config if config is not None else WeightComposerConfig()
        self.config.validate()
        self.weights: Optional[np.ndarray] = None
        if num_nets is not None:
            self.weights = np.full(int(num_nets), self.config.min_weight)
        self.num_updates = 0

    @property
    def initialized(self) -> bool:
        return self.weights is not None

    def _target(self, proposals: Mapping[str, np.ndarray], num_nets: int) -> np.ndarray:
        cfg = self.config
        log_target = np.zeros(num_nets, dtype=np.float64)
        for name, proposal in proposals.items():
            arr = np.asarray(proposal, dtype=np.float64)
            if arr.shape != (num_nets,):
                raise ValueError(
                    f"proposal {name!r} has shape {arr.shape}, expected ({num_nets},)"
                )
            if np.any(arr < 1.0) or not np.all(np.isfinite(arr)):
                raise ValueError(
                    f"proposal {name!r} must be a finite multiplier >= 1 everywhere"
                )
            log_target += np.log(arr)
        if cfg.max_target_boost is not None:
            # Log-proportional normalization: where the combined boost
            # exceeds the cap, shrink every signal's log share by the same
            # factor so the signals keep their relative emphasis.
            log_cap = np.log(cfg.max_target_boost)
            over = log_target > log_cap
            if np.any(over):
                log_target[over] = log_cap
        return np.exp(log_target)

    def compose(self, proposals: Mapping[str, np.ndarray]) -> np.ndarray:
        """Fold the proposals into the momentum state; return the new weights.

        The returned array is a copy; the internal state is never aliased to
        the placer's weight vector.
        """
        if not proposals:
            raise ValueError("compose() needs at least one proposal")
        num_nets = int(np.asarray(next(iter(proposals.values()))).shape[0])
        cfg = self.config
        if self.weights is None:
            self.weights = np.full(num_nets, cfg.min_weight)
        target = self._target(proposals, self.weights.shape[0])
        updated = cfg.momentum_decay * self.weights + (1.0 - cfg.momentum_decay) * target
        np.clip(updated, cfg.min_weight, cfg.max_weight, out=updated)
        self.weights = updated
        self.num_updates += 1
        return updated.copy()

    def summary(self) -> Dict[str, float]:
        """Scalar snapshot of the composed weight state (trajectory rows)."""
        if self.weights is None:
            return {"weight_mean": 1.0, "weight_max": 1.0}
        return {
            "weight_mean": float(self.weights.mean()),
            "weight_max": float(self.weights.max()),
        }
