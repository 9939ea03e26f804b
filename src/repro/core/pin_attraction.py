"""Pin-to-pin attraction: the maintained pair set P and the PP objective term.

This module implements Sec. III-A and III-D of the paper:

* :class:`PinPairSet` holds the set ``P`` of attracted pin pairs.  When the
  flow traverses freshly extracted critical paths, each net-arc pin pair on a
  path is added to ``P`` (weight ``w0``) or, if already present, its weight
  is increased by ``w1 * (slack / WNS)`` — so pairs shared by several
  critical paths accumulate weight (the path-sharing effect of Eq. 9).
* :class:`PinAttractionObjective` turns the pair set into the ``beta * PP``
  objective term of Eq. 6/10 with a pluggable distance loss (Eq. 8 for the
  quadratic default), exposing value and per-instance gradients to the
  placement engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.core import as_core
from repro.core.losses import PairLoss, QuadraticLoss
from repro.timing.graph import TimingGraph
from repro.timing.report import PathBatch, TimingPath, pair_keys, split_pair_keys


class PinPairSet:
    """The maintained set ``P`` of critical pin pairs with dynamic weights.

    Pairs are stored as int64 keys ``(from << 32) | to``
    (:func:`repro.timing.report.pair_keys`) in insertion order next to a
    weights array; a sorted copy of the keys serves membership lookups.
    """

    def __init__(
        self,
        *,
        w0: float = 10.0,
        w1: float = 0.2,
        max_weight: Optional[float] = None,
    ) -> None:
        if not w0 > 0:
            raise ValueError(f"w0 must be > 0, got {w0}")
        if not w1 >= 0:
            raise ValueError(f"w1 must be >= 0, got {w1}")
        if max_weight is not None and not max_weight >= w0:
            raise ValueError(f"max_weight must be None or >= w0 ({w0}), got {max_weight}")
        self.w0 = float(w0)
        self.w1 = float(w1)
        self.max_weight = max_weight
        self._assign(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        # Bumped on every mutation; consumers key derived-array caches on it.
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone counter identifying the current pair-set contents."""
        return self._version

    def _assign(self, keys: np.ndarray, weights: np.ndarray) -> None:
        """Install new contents.  Arrays are replaced, never mutated, so the
        ones :meth:`as_arrays` handed out stay valid."""
        self._keys = keys
        self._weights = weights
        self._order = np.argsort(keys, kind="stable")
        self._sorted_keys = keys[self._order]

    def _positions(self, keys: np.ndarray) -> np.ndarray:
        """Insertion-order position of each key, ``-1`` where absent."""
        if self._keys.size == 0:
            return np.full(keys.size, -1, dtype=np.int64)
        index = np.searchsorted(self._sorted_keys, keys)
        clipped = np.minimum(index, self._keys.size - 1)
        found = self._sorted_keys[clipped] == keys
        return np.where(found, self._order[clipped], -1)

    def _position(self, pair: Tuple[int, int]) -> int:
        return int(self._positions(pair_keys(np.array([pair[0]]), np.array([pair[1]])))[0])

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self._keys.size)

    def __contains__(self, pair: Tuple[int, int]) -> bool:
        return self._position(pair) >= 0

    def weight(self, pair: Tuple[int, int]) -> float:
        position = self._position(pair)
        return float(self._weights[position]) if position >= 0 else 0.0

    def items(self) -> Iterable[Tuple[Tuple[int, int], float]]:
        pin_i, pin_j, weights = self.as_arrays()
        return list(zip(zip(pin_i.tolist(), pin_j.tolist()), weights.tolist()))

    def clear(self) -> None:
        self._assign(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        self._version += 1

    # ------------------------------------------------------------------
    def update_from_paths(
        self,
        paths: Sequence[TimingPath],
        graph: TimingGraph,
        wns: float,
    ) -> int:
        """Apply the Eq. 9 update for every pin pair on every path.

        Returns the number of *new* pairs added.  ``wns`` is the design's
        worst negative slack at this timing iteration; paths with
        non-negative slack are ignored (positive slacks are disregarded in
        timing metrics, as the paper's Fig. 2 discussion stresses).
        ``paths`` is a :class:`PathBatch` or any sequence of
        :class:`TimingPath` (packed into a batch first).

        Array form of :meth:`_reference_update_from_paths`, same bits: a
        new key's first occurrence sets ``w0``; every other occurrence adds
        ``w1 * slack / wns`` through unbuffered ``np.add.at``, which folds
        repeated keys in occurrence order like the sequential loop.  The
        increments are >= 0, so clamping to ``max_weight`` once at the end
        equals clamping after every addition.
        """
        batch = PathBatch.from_paths(paths, graph)
        wns = min(wns, -1e-12)
        slack = batch.slack
        share = slack / wns  # in (0, 1], 1 for the most critical path
        keys, path_of = batch.pin_pair_keys(graph)
        critical = ~(slack >= 0)[path_of]
        keys, path_of = keys[critical], path_of[critical]
        increments = (self.w1 * share)[path_of]

        position = self._positions(keys)
        new = np.flatnonzero(position < 0)
        unique_new, first, inverse = np.unique(
            keys[new], return_index=True, return_inverse=True
        )
        order = np.argsort(first)
        slot = np.empty(order.size, dtype=np.int64)
        slot[order] = np.arange(self._keys.size, self._keys.size + order.size)
        position[new] = slot[inverse.reshape(-1)]
        increment = np.ones(keys.size, dtype=bool)
        increment[new[first]] = False

        weights = np.concatenate([self._weights, np.full(order.size, self.w0)])
        touched = position[increment]
        np.add.at(weights, touched, increments[increment])
        if self.max_weight is not None:
            weights[touched] = np.minimum(weights[touched], self.max_weight)
        self._assign(np.concatenate([self._keys, unique_new[order]]), weights)
        self._version += 1
        return int(order.size)

    def _reference_update_from_paths(
        self,
        paths: Sequence[TimingPath],
        graph: TimingGraph,
        wns: float,
    ) -> int:
        """Sequential dict-loop Eq. 9 update (bitwise reference for tests)."""
        pin_i, pin_j, values = self.as_arrays()
        weights: Dict[Tuple[int, int], float] = dict(
            zip(zip(pin_i.tolist(), pin_j.tolist()), values.tolist())
        )
        wns = min(wns, -1e-12)
        added = 0
        for path in paths:
            slack = path.slack
            if slack >= 0:
                continue
            share = slack / wns
            for pair in path.pin_pairs(graph):
                if pair not in weights:
                    weights[pair] = self.w0
                    added += 1
                else:
                    updated = weights[pair] + self.w1 * share
                    if self.max_weight is not None:
                        updated = min(updated, self.max_weight)
                    weights[pair] = updated
        self.set_weights(weights)
        return added

    def set_weights(self, weights: Mapping[Tuple[int, int], float]) -> None:
        """Replace the pair set wholesale (used by smoothed baselines)."""
        pairs = np.array(list(weights.keys()), dtype=np.int64).reshape(-1, 2)
        self._assign(
            pair_keys(pairs[:, 0], pairs[:, 1]),
            np.fromiter(weights.values(), dtype=np.float64, count=len(weights)),
        )
        self._version += 1

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(pin_i, pin_j, weight)`` arrays in insertion order.

        The weights array is the set's own (treat it as read-only).
        """
        pin_i, pin_j = split_pair_keys(self._keys)
        return pin_i, pin_j, self._weights

    def total_weight(self) -> float:
        return float(sum(self._weights.tolist()))


@dataclass
class AttractionSnapshot:
    """Diagnostics of one objective evaluation (used by tests/experiments)."""

    value: float
    num_pairs: int
    total_weight: float


class PinAttractionObjective:
    """The ``beta * PP(x, y)`` objective term of Eq. 6/10.

    Implements the :class:`repro.placement.objective.ObjectiveTerm` protocol:
    ``weight`` is the paper's ``beta`` multiplier and ``evaluate`` returns the
    raw PP value with per-instance gradients.  The pair set can be updated in
    place between evaluations; an empty set contributes nothing.
    """

    def __init__(
        self,
        design,
        pairs: Optional[PinPairSet] = None,
        *,
        loss: Optional[PairLoss] = None,
        beta: float = 2.5e-5,
    ) -> None:
        self.core = as_core(design)
        self.pairs = pairs if pairs is not None else PinPairSet()
        self.loss = loss if loss is not None else QuadraticLoss()
        self.weight = float(beta)
        arrays = self.core
        self._pin_instance = arrays.pin_instance
        self._pin_offset_x = arrays.pin_offset_x
        self._pin_offset_y = arrays.pin_offset_y
        self._movable_mask = arrays.movable_mask
        self._fixed_mask = ~arrays.movable_mask
        self._num_instances = arrays.num_instances
        self.last_snapshot = AttractionSnapshot(0.0, 0, 0.0)

        # Derived pair arrays and the 2m scatter staging buffer, rebuilt only
        # when the pair set's version changes (timing epochs), so the per-
        # iteration evaluate allocates nothing pair-shaped.  The shared zero
        # gradients cover the empty-set phase before any paths arrive;
        # callers must treat returned gradients as borrowed.
        self._cached_version = -1
        self._pin_i = self._pin_j = self._pair_w = None
        self._inst_i = self._inst_j = None
        self._scatter_idx = None
        self._scatter_w = None
        self._zero_grad_x = np.zeros(self._num_instances, dtype=np.float64)
        self._zero_grad_y = np.zeros(self._num_instances, dtype=np.float64)

    def _pair_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Current pair arrays plus cached instance ids / scatter staging
        (re-derived only when the pair set has been mutated)."""
        if self._cached_version != self.pairs.version:
            pin_i, pin_j, weights = self.pairs.as_arrays()
            self._pin_i, self._pin_j, self._pair_w = pin_i, pin_j, weights
            self._inst_i = self._pin_instance[pin_i]
            self._inst_j = self._pin_instance[pin_j]
            self._scatter_idx = np.concatenate([self._inst_i, self._inst_j])
            self._scatter_w = np.empty(2 * pin_i.size, dtype=np.float64)
            self._cached_version = self.pairs.version
        return self._pin_i, self._pin_j, self._pair_w

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
        """Raw PP value and its gradient with respect to instance positions."""
        pin_i, pin_j, weights = self._pair_arrays()
        if pin_i.size == 0:
            self.last_snapshot = AttractionSnapshot(0.0, 0, 0.0)
            return 0.0, self._zero_grad_x, self._zero_grad_y

        inst_i = self._inst_i
        inst_j = self._inst_j
        xi = x[inst_i] + self._pin_offset_x[pin_i]
        yi = y[inst_i] + self._pin_offset_y[pin_i]
        xj = x[inst_j] + self._pin_offset_x[pin_j]
        yj = y[inst_j] + self._pin_offset_y[pin_j]

        value, grad_dx, grad_dy = self.loss.evaluate(xi - xj, yi - yj, weights)

        # d(loss)/d(x_i) = +grad_dx, d(loss)/d(x_j) = -grad_dx (pin offsets are
        # rigid, so pin gradients transfer directly onto their instances).
        # One bincount over the concatenated endpoints reproduces the two
        # sequential np.add.at scatters bit for bit (sequential fold in
        # input order); the concatenation itself stages through the reused
        # 2m buffer (copy + exact sign-bit negation — no rounding).
        m = pin_i.size
        buf = self._scatter_w
        buf[:m] = grad_dx
        np.negative(grad_dx, out=buf[m:])
        grad_x = np.bincount(
            self._scatter_idx, weights=buf, minlength=self._num_instances
        )
        buf[:m] = grad_dy
        np.negative(grad_dy, out=buf[m:])
        grad_y = np.bincount(
            self._scatter_idx, weights=buf, minlength=self._num_instances
        )
        grad_x[self._fixed_mask] = 0.0
        grad_y[self._fixed_mask] = 0.0

        self.last_snapshot = AttractionSnapshot(
            value=value, num_pairs=int(pin_i.size), total_weight=float(weights.sum())
        )
        return value, grad_x, grad_y

    def _reference_evaluate(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[float, np.ndarray, np.ndarray]:
        """Pre-plan evaluation via ``np.add.at`` (bitwise reference for tests)."""
        pin_i, pin_j, weights = self.pairs.as_arrays()
        grad_x = np.zeros(self._num_instances, dtype=np.float64)
        grad_y = np.zeros(self._num_instances, dtype=np.float64)
        if pin_i.size == 0:
            return 0.0, grad_x, grad_y

        inst_i = self._pin_instance[pin_i]
        inst_j = self._pin_instance[pin_j]
        xi = x[inst_i] + self._pin_offset_x[pin_i]
        yi = y[inst_i] + self._pin_offset_y[pin_i]
        xj = x[inst_j] + self._pin_offset_x[pin_j]
        yj = y[inst_j] + self._pin_offset_y[pin_j]

        value, grad_dx, grad_dy = self.loss.evaluate(xi - xj, yi - yj, weights)
        np.add.at(grad_x, inst_i, grad_dx)
        np.add.at(grad_x, inst_j, -grad_dx)
        np.add.at(grad_y, inst_i, grad_dy)
        np.add.at(grad_y, inst_j, -grad_dy)
        grad_x[~self._movable_mask] = 0.0
        grad_y[~self._movable_mask] = 0.0
        return value, grad_x, grad_y

    def gradient_norm(self, x: np.ndarray, y: np.ndarray) -> float:
        """L1 norm of the raw (unscaled) PP gradient; used for beta calibration."""
        _, gx, gy = self.evaluate(x, y)
        return float(np.abs(gx).sum() + np.abs(gy).sum())
