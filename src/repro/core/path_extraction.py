"""Critical path extraction front-end (Sec. III-B).

:class:`CriticalPathExtractor` wraps the STA engine's reporting commands and
exposes the two extraction policies compared by the paper:

* ``mode="endpoint"`` — the proposed ``report_timing_endpoint(n, k)``: the
  ``n`` worst endpoints each contribute their ``k`` worst paths, covering all
  failing endpoints in O(n*k) and aligning with the TNS objective.
* ``mode="report_timing"`` — OpenTimer's ``report_timing(n)`` (optionally
  with the ``n*10`` multiplier of the ablation study): O(n^2) paths analyzed,
  concentrated on a handful of endpoints.

``n`` defaults to "all failing endpoints", which is what the placement flow
uses (Sec. III-D), and the extractor records per-call
:class:`repro.timing.report.PathExtractionStats` so Table I can be
regenerated directly from a flow run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.obs import traced
from repro.timing.report import (
    PathBatch,
    PathExtractionStats,
    TimingPath,
    report_timing,
    report_timing_endpoint,
)
from repro.timing.sta import STAEngine, STAResult


@dataclass
class ExtractionConfig:
    """Which extraction command the flow uses and with what parameters."""

    mode: str = "endpoint"          # "endpoint" or "report_timing"
    paths_per_endpoint: int = 1     # k in report_timing_endpoint(n, k)
    endpoint_multiplier: int = 1    # n multiplier for report_timing(n * mult)
    max_endpoints: Optional[int] = None  # cap on n (None = all failing endpoints)

    def __post_init__(self) -> None:
        if self.mode not in {"endpoint", "report_timing"}:
            raise ValueError("mode must be 'endpoint' or 'report_timing'")
        if self.paths_per_endpoint < 1:
            raise ValueError("paths_per_endpoint must be >= 1")
        if self.endpoint_multiplier < 1:
            raise ValueError("endpoint_multiplier must be >= 1")

    def describe(self) -> str:
        if self.mode == "endpoint":
            return f"report_timing_endpoint(n,{self.paths_per_endpoint})"
        return f"report_timing(n*{self.endpoint_multiplier})"


class CriticalPathExtractor:
    """Extract critical paths from an annotated STA engine."""

    def __init__(self, engine: STAEngine, config: Optional[ExtractionConfig] = None) -> None:
        self.engine = engine
        self.config = config if config is not None else ExtractionConfig()

    @traced("core.extract")
    def extract(
        self,
        result: Optional[STAResult] = None,
        *,
        num_endpoints: Optional[int] = None,
    ) -> Tuple[Sequence[TimingPath], PathExtractionStats]:
        """Extract critical paths according to the configured policy.

        ``num_endpoints`` overrides the automatic "all failing endpoints"
        choice of ``n``.  Flows collect the returned statistics in
        ``FlowContext.extraction_stats`` (the Table I data).
        """
        if result is None:
            result = self.engine.last_result or self.engine.update_timing()
        n = num_endpoints
        if n is None:
            n = result.num_failing_endpoints
            if self.config.max_endpoints is not None:
                n = min(n, self.config.max_endpoints)
        if n <= 0:
            stats = PathExtractionStats(
                command=self.config.describe(),
                complexity="O(n*k)" if self.config.mode == "endpoint" else "O(n^2)",
                num_paths=0,
                num_endpoints=0,
                num_pin_pairs=0,
                elapsed_seconds=0.0,
            )
            return PathBatch.from_paths([], self.engine.graph), stats

        if self.config.mode == "endpoint":
            paths, stats = report_timing_endpoint(
                self.engine,
                n,
                self.config.paths_per_endpoint,
                result=result,
                failing_only=True,
            )
        else:
            paths, stats = report_timing(
                self.engine,
                n * self.config.endpoint_multiplier,
                result=result,
                failing_only=True,
                max_paths_per_endpoint=32,
            )
        return paths, stats
