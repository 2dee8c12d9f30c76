"""Ablation experiments (our additions beyond the paper).

``benchmarks/test_ablation_prefetchers.py`` and
``benchmarks/test_ablation_stream_finders.py`` check A1 and A2 below.

* **A1 — prefetcher coverage**: replay the per-context miss traces against
  the temporal-streaming and stride prefetcher models and compare coverage.
  The paper's characterization predicts the outcome: temporal streaming wins
  for Web and OLTP (especially in the coherence-dominated multi-chip
  context), while for DSS the stride prefetcher captures the bulk-copy
  traffic and temporal streaming adds little.
* **A2 — stream-finder agreement**: compare the SEQUITUR-based stream
  fraction with an independent greedy longest-previous-match detector; the
  two should report similar repetitive fractions.
* **A3 — stride-detector sensitivity**: Figure 3's strided fraction as a
  function of the detector's confidence threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..api.registry import register_analysis
from ..core.stride import stride_stream_breakdown
from ..core.suffix import find_streams_greedy
from ..mem.config import DEFAULT_SCALE
from ..mem.trace import MULTI_CHIP
from ..prefetch import (CoverageResult, StridePrefetcher, TemporalPrefetcher,
                        evaluate_coverage)
from .runner import DEFAULT_WARMUP_FRACTION, run_context


@dataclass
class PrefetcherComparison:
    """Coverage of the temporal vs. stride prefetchers on one miss trace."""

    workload: str
    context: str
    temporal: CoverageResult
    stride: CoverageResult

    @property
    def temporal_advantage(self) -> float:
        """Coverage difference (temporal minus stride)."""
        return self.temporal.coverage - self.stride.coverage


def prefetcher_ablation(workloads: Tuple[str, ...] = ("Apache", "OLTP", "Qry1"),
                        context: str = MULTI_CHIP, size: str = "small",
                        seed: int = 42, depth: int = 8,
                        degree: int = 4, scale: int = DEFAULT_SCALE,
                        warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                        session=None) -> List[PrefetcherComparison]:
    """A1: temporal-streaming vs stride prefetcher coverage per workload."""
    comparisons: List[PrefetcherComparison] = []
    for workload in workloads:
        result = run_context(workload, context, size=size, seed=seed,
                             scale=scale, warmup_fraction=warmup_fraction,
                             session=session)
        temporal = evaluate_coverage(TemporalPrefetcher(depth=depth),
                                     result.miss_trace)
        stride = evaluate_coverage(StridePrefetcher(degree=degree),
                                   result.miss_trace)
        comparisons.append(PrefetcherComparison(workload=workload,
                                                context=context,
                                                temporal=temporal,
                                                stride=stride))
    return comparisons


@dataclass
class StreamFinderAgreement:
    """SEQUITUR vs greedy-matcher repetitive fractions for one trace."""

    workload: str
    context: str
    sequitur_fraction: float
    greedy_fraction: float

    @property
    def difference(self) -> float:
        return abs(self.sequitur_fraction - self.greedy_fraction)


def stream_finder_ablation(workloads: Tuple[str, ...] = ("Apache", "OLTP"),
                           context: str = MULTI_CHIP, size: str = "small",
                           seed: int = 42, scale: int = DEFAULT_SCALE,
                           warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                           session=None) -> List[StreamFinderAgreement]:
    """A2: cross-validate the SEQUITUR stream fraction with a greedy matcher."""
    results: List[StreamFinderAgreement] = []
    for workload in workloads:
        result = run_context(workload, context, size=size, seed=seed,
                             scale=scale, warmup_fraction=warmup_fraction,
                             session=session)
        greedy = find_streams_greedy(result.miss_trace.addresses())
        results.append(StreamFinderAgreement(
            workload=workload, context=context,
            sequitur_fraction=result.stream_analysis.fraction_recurring,
            greedy_fraction=greedy.fraction_recurring))
    return results


def stride_sensitivity(workload: str = "Qry1", context: str = MULTI_CHIP,
                       size: str = "small", seed: int = 42,
                       confidences: Tuple[int, ...] = (1, 2, 4),
                       scale: int = DEFAULT_SCALE,
                       warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
                       session=None) -> Dict[int, float]:
    """A3: strided miss fraction vs stride-detector confidence threshold."""
    result = run_context(workload, context, size=size, seed=seed, scale=scale,
                         warmup_fraction=warmup_fraction, session=session)
    out: Dict[int, float] = {}
    for confidence in confidences:
        breakdown = stride_stream_breakdown(result.miss_trace,
                                            result.stream_analysis,
                                            min_confidence=confidence)
        out[confidence] = breakdown.fraction_strided
    return out


# --------------------------------------------------------------------------- #
# Spec adapters: the ablations join the registered-analysis grid alongside
# the paper's figures and tables.
# --------------------------------------------------------------------------- #
@register_analysis("ablation-prefetchers", aliases=("a1",))
def _prefetcher_ablation_analysis(session, spec, scale: int,
                                  warmup_fraction: float
                                  ) -> List[PrefetcherComparison]:
    return prefetcher_ablation(size=spec.size, seed=spec.seed, scale=scale,
                               warmup_fraction=warmup_fraction,
                               session=session)


@register_analysis("ablation-stream-finders", aliases=("a2",))
def _stream_finder_analysis(session, spec, scale: int,
                            warmup_fraction: float
                            ) -> List[StreamFinderAgreement]:
    return stream_finder_ablation(size=spec.size, seed=spec.seed, scale=scale,
                                  warmup_fraction=warmup_fraction,
                                  session=session)


@register_analysis("ablation-stride-sensitivity", aliases=("a3",))
def _stride_sensitivity_analysis(session, spec, scale: int,
                                 warmup_fraction: float) -> Dict[int, float]:
    return stride_sensitivity(size=spec.size, seed=spec.seed, scale=scale,
                              warmup_fraction=warmup_fraction,
                              session=session)
