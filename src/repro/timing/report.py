"""Critical path reporting.

Two extraction commands are provided, mirroring Sec. III-B of the paper:

* :func:`report_timing` — OpenTimer-style ``report_timing(n)``: take the ``n``
  worst endpoints, enumerate the ``n`` worst paths for each (``n^2`` paths
  analyzed), and return the overall ``n`` worst.  Accurate for tiny ``n`` but
  quadratic, and the selected paths concentrate on a few endpoints.
* :func:`report_timing_endpoint` — the paper's
  ``report_timing_endpoint(n, k)``: take the ``n`` worst endpoints and return
  the ``k`` worst paths *per endpoint* (``n*k`` paths analyzed), guaranteeing
  every reported endpoint is covered, which is what the TNS metric needs.

The reference semantics of both is the best-first k-worst-paths search of
:func:`_worst_paths_to_endpoint` (the search used by parallel timers such as
OpenTimer).  For ``k == 1``, the paper's setting, the worst path to an
endpoint is the chain of arg-max fan-in arcs, so
:func:`report_timing_endpoint` walks all ``n`` endpoints backward in
lock-step instead (:func:`_chase_worst_paths`): each step gathers the current
pins' fan-in arcs through the graph's fan-in CSR, scores them with the heap's
own bound ``arrival[src] + (suffix + arc_delay)`` (same operands, same
order, so the same bits) and follows the first maximum, which is the heap's
insertion-order tie-break.  The chase only reproduces the heap when no
sibling left behind could pop first: an endpoint is accepted only if every
step had a valid fan-in and every step's best sibling bound is strictly
below every later chosen bound.  Endpoints that fail this exactness guard
(exact ties, unreachable fan-ins, NaN) are re-run through the heap search,
so the result is always the heap's, bit for bit; the fallback count is
reported in :attr:`PathExtractionStats.num_fallback_endpoints` and the
``extract.fallback_endpoints`` tracer counter.

The heap search itself serves ``k > 1``, :func:`report_timing` and the
fallback.  Extraction results are :class:`PathBatch` objects: CSR arrays
of arcs per path that materialise :class:`TimingPath` objects on demand,
plus a :class:`PathExtractionStats` record with the coverage statistics
reported in Table I (number of paths, unique endpoints, unique pin pairs,
wall-clock time).
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import active_tracer, clock
from repro.timing.graph import ArcKind, TimingGraph
from repro.timing.sta import STAEngine, STAResult

_NEG_INF = -1.0e30
#: The heap search pops at most ``max(_MAX_EXPANSIONS, 200 * k)`` partial
#: paths per endpoint; a k=1 path of ``L`` arcs costs ``L + 1`` pops.
_MAX_EXPANSIONS = 10_000


@dataclass
class TimingPath:
    """One timing path from a startpoint to an endpoint."""

    pins: List[int]
    arcs: List[int]
    arrival: float
    required: float
    endpoint: int
    startpoint: int

    @property
    def slack(self) -> float:
        return self.required - self.arrival

    def pin_pairs(self, graph: TimingGraph) -> List[Tuple[int, int]]:
        """Driver/sink pin pairs of the net arcs along the path.

        Cell-internal arcs are skipped: the distance between two pins of the
        same instance is fixed by the cell layout, so only net arcs give the
        placer a controllable pin-to-pin distance.
        """
        pairs: List[Tuple[int, int]] = []
        for arc_index in self.arcs:
            if graph.arc_kind[arc_index] == int(ArcKind.NET):
                pairs.append((int(graph.arc_from[arc_index]), int(graph.arc_to[arc_index])))
        return pairs

    def describe(self, graph: TimingGraph) -> str:
        """Human-readable one-line description."""
        names = [graph.pin_name(p) for p in self.pins]
        return f"slack={self.slack:.1f} arrival={self.arrival:.1f}: " + " -> ".join(names)


def pair_keys(pin_from: np.ndarray, pin_to: np.ndarray) -> np.ndarray:
    """Pack ``(from, to)`` pin pairs into int64 keys ``(from << 32) | to``."""
    return (np.asarray(pin_from, dtype=np.int64) << 32) | np.asarray(pin_to, dtype=np.int64)


def _offsets(lengths: np.ndarray) -> np.ndarray:
    """CSR offsets ``[0, l0, l0 + l1, ...]`` of consecutive segment lengths."""
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def split_pair_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_keys`: the ``(from, to)`` pin arrays."""
    return keys >> 32, keys & 0xFFFFFFFF


class PathBatch(SequenceABC):
    """A sequence of timing paths stored as arrays.

    Path ``i`` runs over ``arcs[offsets[i]:offsets[i + 1]]`` (startpoint to
    endpoint); ``startpoint``, ``endpoint``, ``arrival`` and ``required``
    hold one entry per path.  Indexing materialises a :class:`TimingPath`,
    so a batch stands in wherever a list of paths is expected.
    """

    def __init__(
        self,
        graph: TimingGraph,
        offsets: np.ndarray,
        arcs: np.ndarray,
        startpoint: np.ndarray,
        endpoint: np.ndarray,
        arrival: np.ndarray,
        required: np.ndarray,
    ) -> None:
        self.graph = graph
        self.offsets = offsets
        self.arcs = arcs
        self.startpoint = startpoint
        self.endpoint = endpoint
        self.arrival = arrival
        self.required = required

    @classmethod
    def from_paths(cls, paths: Iterable[TimingPath], graph: TimingGraph) -> "PathBatch":
        """Pack :class:`TimingPath` objects (returned as-is if already a batch)."""
        if isinstance(paths, PathBatch):
            return paths
        paths = list(paths)
        offsets = _offsets(
            np.fromiter((len(p.arcs) for p in paths), dtype=np.int64, count=len(paths))
        )
        arcs = np.fromiter(
            itertools.chain.from_iterable(p.arcs for p in paths),
            dtype=np.int64,
            count=int(offsets[-1]),
        )

        def column(attribute: str, dtype) -> np.ndarray:
            return np.array([getattr(p, attribute) for p in paths], dtype=dtype)

        return cls(
            graph,
            offsets,
            arcs,
            column("startpoint", np.int64),
            column("endpoint", np.int64),
            column("arrival", np.float64),
            column("required", np.float64),
        )

    @classmethod
    def concatenate(
        cls, parts: Sequence[Sequence[TimingPath]], graph: TimingGraph
    ) -> "PathBatch":
        """One batch holding every part's paths, in order."""
        batches = [cls.from_paths(part, graph) for part in parts]
        if len(batches) == 1:
            return batches[0]

        def joined(attribute: str) -> np.ndarray:
            return np.concatenate([getattr(b, attribute) for b in batches])

        return cls(
            graph,
            _offsets(np.concatenate([np.diff(b.offsets) for b in batches])),
            joined("arcs"),
            joined("startpoint"),
            joined("endpoint"),
            joined("arrival"),
            joined("required"),
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.endpoint.size)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        count = len(self)
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("path index out of range")
        arcs = self.arcs[self.offsets[index]: self.offsets[index + 1]]
        start = int(self.startpoint[index])
        return TimingPath(
            pins=[start] + self.graph.arc_to[arcs].tolist(),
            arcs=arcs.tolist(),
            arrival=float(self.arrival[index]),
            required=float(self.required[index]),
            endpoint=int(self.endpoint[index]),
            startpoint=start,
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (PathBatch, list, tuple)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    @property
    def slack(self) -> np.ndarray:
        return self.required - self.arrival

    def pin_pair_keys(self, graph: TimingGraph) -> Tuple[np.ndarray, np.ndarray]:
        """Pair keys (:func:`pair_keys`) of every net arc and the path it is on.

        Occurrences come in path order and, within a path, startpoint to
        endpoint -- the order :meth:`TimingPath.pin_pairs` lists them.
        """
        path_of_arc = np.repeat(
            np.arange(len(self), dtype=np.int64), np.diff(self.offsets)
        )
        net = graph.arc_kind[self.arcs] == int(ArcKind.NET)
        arcs = self.arcs[net]
        return pair_keys(graph.arc_from[arcs], graph.arc_to[arcs]), path_of_arc[net]


@dataclass
class PathExtractionStats:
    """Coverage statistics of one extraction run (Table I columns)."""

    command: str
    complexity: str
    num_paths: int
    num_endpoints: int
    num_pin_pairs: int
    elapsed_seconds: float
    num_paths_analyzed: int = 0
    #: Endpoints the k=1 chase handed to the heap search (exactness guard).
    num_fallback_endpoints: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "command": self.command,
            "complexity": self.complexity,
            "num_paths": self.num_paths,
            "num_endpoints": self.num_endpoints,
            "num_pin_pairs": self.num_pin_pairs,
            "time_sec": round(self.elapsed_seconds, 4),
        }


def _worst_endpoints(result: STAResult, n: int, *, failing_only: bool = False) -> np.ndarray:
    """Pin indices of the ``n`` worst endpoints by slack (worst first)."""
    slack = result.endpoint_slack
    pins = result.endpoint_pins
    if failing_only:
        mask = slack < 0
        slack = slack[mask]
        pins = pins[mask]
    if pins.size == 0 or n <= 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(slack, kind="stable")
    return pins[order[: min(n, pins.size)]]


def _required_at_endpoints(engine: STAEngine, result: STAResult, endpoints: np.ndarray) -> np.ndarray:
    """Endpoint required times, the clock period where none was annotated."""
    required = result.required[endpoints]
    return np.where(required < 1.0e29, required, float(engine.constraints.clock_period))


def _worst_paths_to_endpoint(
    engine: STAEngine,
    result: STAResult,
    endpoint: int,
    k: int,
) -> List[TimingPath]:
    """Enumerate the ``k`` worst (largest-arrival) paths ending at ``endpoint``.

    Best-first backward expansion: a partial path is the suffix from some pin
    ``u`` to the endpoint; its priority is ``arrival[u] + suffix_delay``, an
    upper bound on any completion's arrival, so completed paths pop off the
    heap in non-increasing arrival order (the classic k-worst-paths search
    used by parallel timers such as OpenTimer).
    """
    graph = engine.graph
    arrival = result.arrival
    arc_delay = result.arc_delay
    required_at_endpoint = float(
        _required_at_endpoints(engine, result, np.array([endpoint]))[0]
    )

    counter = itertools.count()
    # Heap entries: (-bound, tiebreak, current_pin, suffix_delay, arcs_reversed)
    heap: List[Tuple[float, int, int, float, Tuple[int, ...]]] = []
    heapq.heappush(heap, (-float(arrival[endpoint]), next(counter), endpoint, 0.0, ()))
    paths: List[TimingPath] = []
    # Guard against pathological designs: never expand more than this many
    # partial paths per endpoint.
    max_expansions = max(_MAX_EXPANSIONS, 200 * k)
    expansions = 0

    while heap and len(paths) < k and expansions < max_expansions:
        neg_bound, _, pin, suffix, arcs_rev = heapq.heappop(heap)
        expansions += 1
        fanin = graph.fanin_of(pin)
        if fanin.size == 0:
            # Completed a full path: pin is a startpoint (or floating input).
            path_arrival = float(arrival[pin]) + suffix
            arc_list = list(reversed(arcs_rev))
            pin_list = [pin]
            for arc_index in arc_list:
                pin_list.append(int(graph.arc_to[arc_index]))
            paths.append(
                TimingPath(
                    pins=pin_list,
                    arcs=arc_list,
                    arrival=path_arrival,
                    required=required_at_endpoint,
                    endpoint=endpoint,
                    startpoint=pin,
                )
            )
            continue
        for arc_index in fanin:
            arc_index = int(arc_index)
            source = int(graph.arc_from[arc_index])
            if arrival[source] <= _NEG_INF / 2:
                continue
            new_suffix = suffix + float(arc_delay[arc_index])
            bound = float(arrival[source]) + new_suffix
            heapq.heappush(
                heap,
                (-bound, next(counter), source, new_suffix, arcs_rev + (arc_index,)),
            )
    return paths


def _chase_worst_paths(
    engine: STAEngine, result: STAResult, endpoints: np.ndarray
) -> Tuple[PathBatch, int]:
    """The worst path to each endpoint (k=1) by a lock-step backward chase.

    Returns the paths in endpoint order (endpoints without a path are
    skipped, as in the heap search) and the number of endpoints that failed
    the exactness guard and were re-run through the heap search.  See the
    module docstring for the guard.
    """
    graph = engine.graph
    arrival = result.arrival
    arc_delay = result.arc_delay
    fanin_offsets = graph.fanin_offsets
    endpoints = np.asarray(endpoints, dtype=np.int64)
    num = endpoints.size

    startpoint = endpoints.copy()
    final_suffix = np.zeros(num, dtype=np.float64)
    lengths = np.zeros(num, dtype=np.int64)
    exact = np.ones(num, dtype=bool)
    # Best bound each endpoint's chase has left behind in the heap so far.
    left_behind = np.full(num, -np.inf)
    # Per step: the endpoints still chased and the arc each one took.
    steps: List[Tuple[np.ndarray, np.ndarray]] = []

    ids = np.arange(num, dtype=np.int64)
    pins = endpoints
    suffix = np.zeros(num, dtype=np.float64)
    while ids.size:
        begin = fanin_offsets[pins]
        count = fanin_offsets[pins + 1] - begin
        done = count == 0
        if done.any():
            startpoint[ids[done]] = pins[done]
            final_suffix[ids[done]] = suffix[done]
            going = ~done
            ids, pins, suffix = ids[going], pins[going], suffix[going]
            begin, count = begin[going], count[going]
            if not ids.size:
                break
        if len(steps) + 1 >= _MAX_EXPANSIONS:
            # The heap would run out of expansions before completing.
            exact[ids] = False
            break
        seg_start = np.cumsum(count) - count
        total = int(seg_start[-1] + count[-1])
        flat = np.arange(total, dtype=np.int64)
        arcs = graph.fanin_arcs[flat + np.repeat(begin - seg_start, count)]
        source_arrival = arrival[graph.arc_from[arcs]]
        new_suffix = np.repeat(suffix, count) + arc_delay[arcs]
        bound = source_arrival + new_suffix
        bound[source_arrival <= _NEG_INF / 2] = -np.inf
        best = np.maximum.reduceat(bound, seg_start)
        # First maximum per segment: the heap's insertion-order tie-break.
        first = np.minimum.reduceat(
            np.where(bound == np.repeat(best, count), flat, total), seg_start
        )
        chosen = np.where(np.isfinite(best), first, seg_start)
        bound[chosen] = -np.inf
        sibling = np.maximum.reduceat(bound, seg_start)
        # Exactness guard: the chosen entry pops next only if it beats every
        # sibling left behind at earlier steps (ties go to the sibling, which
        # was pushed earlier).  A non-finite best means no valid fan-in or a
        # NaN bound.  Endpoints failing it leave the chase for the heap.
        ok = np.isfinite(best) & (best > left_behind[ids])
        if not ok.all():
            exact[ids[~ok]] = False
            ids, chosen, sibling = ids[ok], chosen[ok], sibling[ok]
        left_behind[ids] = np.maximum(left_behind[ids], sibling)
        chosen_arcs = arcs[chosen]
        steps.append((ids, chosen_arcs))
        lengths[ids] += 1
        pins = graph.arc_from[chosen_arcs]
        suffix = new_suffix[chosen]

    required = _required_at_endpoints(engine, result, endpoints)
    path_arrival = arrival[startpoint] + final_suffix
    present = np.ones(num, dtype=bool)
    fallback = np.flatnonzero(~exact)
    fallback_paths: Dict[int, TimingPath] = {}
    for index in fallback.tolist():
        heap_paths = _worst_paths_to_endpoint(engine, result, int(endpoints[index]), 1)
        if not heap_paths:
            present[index] = False
            continue
        (path,) = heap_paths
        fallback_paths[index] = path
        lengths[index] = len(path.arcs)
        startpoint[index] = path.startpoint
        path_arrival[index] = path.arrival

    offsets = _offsets(lengths[present])
    rank = np.cumsum(present) - 1
    path_arcs = np.empty(int(offsets[-1]), dtype=np.int64)
    for step, (step_ids, step_arcs) in enumerate(steps):
        keep = exact[step_ids]
        step_ids = step_ids[keep]
        path_arcs[offsets[rank[step_ids]] + lengths[step_ids] - 1 - step] = step_arcs[keep]
    for index, path in fallback_paths.items():
        start = offsets[rank[index]]
        path_arcs[start: start + len(path.arcs)] = path.arcs
    batch = PathBatch(
        graph,
        offsets,
        path_arcs,
        startpoint[present],
        endpoints[present],
        path_arrival[present],
        required[present],
    )
    return batch, int(fallback.size)


def _resolve_result(engine: STAEngine, result: Optional[STAResult]) -> STAResult:
    if result is not None:
        return result
    if engine.last_result is None:
        return engine.update_timing()
    return engine.last_result


def report_timing_endpoint(
    engine: STAEngine,
    n: int,
    k: int = 1,
    *,
    result: Optional[STAResult] = None,
    failing_only: bool = False,
) -> Tuple[PathBatch, PathExtractionStats]:
    """Paper's extraction: ``k`` worst paths for each of the ``n`` worst endpoints.

    ``k == 1`` takes the vectorized chase (heap search as exact fallback);
    larger ``k`` runs the heap search per endpoint.
    """
    result = _resolve_result(engine, result)
    start = clock()
    endpoints = _worst_endpoints(result, n, failing_only=failing_only)
    fallback = 0
    if k == 1:
        paths, fallback = _chase_worst_paths(engine, result, endpoints)
        tracer = active_tracer()
        if tracer is not None:
            tracer.counter("extract.fallback_endpoints", fallback)
    else:
        path_list: List[TimingPath] = []
        for endpoint in endpoints:
            path_list.extend(_worst_paths_to_endpoint(engine, result, int(endpoint), k))
        paths = PathBatch.from_paths(path_list, engine.graph)
    elapsed = clock() - start
    stats = _build_stats(
        paths,
        command=f"report_timing_endpoint({n},{k})",
        complexity="O(n*k)",
        elapsed=elapsed,
        analyzed=len(paths),
    )
    stats.num_fallback_endpoints = fallback
    return paths, stats


def report_timing(
    engine: STAEngine,
    n: int,
    *,
    result: Optional[STAResult] = None,
    failing_only: bool = False,
    max_paths_per_endpoint: Optional[int] = None,
) -> Tuple[List[TimingPath], PathExtractionStats]:
    """OpenTimer-style extraction: ``n`` worst paths overall.

    Follows the semantics described in the paper: the ``n`` worst endpoints
    are identified, ``n`` worst paths are enumerated for each (``n^2``
    analyzed), and the overall ``n`` worst paths are returned.
    ``max_paths_per_endpoint`` caps the per-endpoint enumeration for runtime
    experiments without changing which paths are ultimately reported for
    modest ``n``.
    """
    result = _resolve_result(engine, result)
    start = clock()
    endpoints = _worst_endpoints(result, n, failing_only=failing_only)
    per_endpoint = n if max_paths_per_endpoint is None else min(n, max_paths_per_endpoint)
    all_paths: List[TimingPath] = []
    for endpoint in endpoints:
        all_paths.extend(_worst_paths_to_endpoint(engine, result, int(endpoint), per_endpoint))
    analyzed = len(all_paths)
    all_paths.sort(key=lambda p: p.slack)
    selected = all_paths[: min(n, len(all_paths))]
    elapsed = clock() - start
    stats = _build_stats(
        PathBatch.from_paths(selected, engine.graph),
        command=f"report_timing({n})",
        complexity="O(n^2)",
        elapsed=elapsed,
        analyzed=analyzed,
    )
    return selected, stats


def _build_stats(
    paths: PathBatch,
    *,
    command: str,
    complexity: str,
    elapsed: float,
    analyzed: int,
) -> PathExtractionStats:
    keys, _ = paths.pin_pair_keys(paths.graph)
    return PathExtractionStats(
        command=command,
        complexity=complexity,
        num_paths=len(paths),
        num_endpoints=int(np.unique(paths.endpoint).size),
        num_pin_pairs=int(np.unique(keys).size),
        elapsed_seconds=elapsed,
        num_paths_analyzed=analyzed,
    )
