"""Figure 2: fraction of misses in temporal streams.

For every workload and system context, the fraction of read misses that are
part of the first occurrence of a temporal stream (New stream), a subsequent
occurrence (Recurring stream), or no stream at all (Non-repetitive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..api.registry import register_analysis
from ..core.report import format_stream_fractions
from ..core.streams import StreamAnalysis
from ..mem.config import DEFAULT_SCALE
from ..mem.trace import ALL_CONTEXTS
from ..workloads.configs import WORKLOAD_NAMES
from .runner import DEFAULT_WARMUP_FRACTION, run_context


@dataclass
class Figure2Result:
    """Per-(workload, context) stream-fraction analyses."""

    #: workload -> context -> StreamAnalysis
    analyses: Dict[str, Dict[str, StreamAnalysis]]

    def fraction_in_streams(self, workload: str, context: str) -> float:
        return self.analyses[workload][context].fraction_in_streams

    def render(self) -> str:
        rows = {f"{w} / {c}": analysis
                for w, contexts in self.analyses.items()
                for c, analysis in contexts.items()}
        return ("Figure 2: fraction of misses in temporal streams\n\n"
                + format_stream_fractions(rows))


def figure2(size: str = "small", seed: int = 42,
            workloads: Tuple[str, ...] = WORKLOAD_NAMES,
            contexts: Tuple[str, ...] = ALL_CONTEXTS,
            scale: int = DEFAULT_SCALE,
            warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
            session=None) -> Figure2Result:
    """Regenerate Figure 2 for the given workloads and contexts."""
    analyses: Dict[str, Dict[str, StreamAnalysis]] = {}
    for workload in workloads:
        analyses[workload] = {}
        for context in contexts:
            result = run_context(workload, context, size=size, seed=seed,
                                 scale=scale,
                                 warmup_fraction=warmup_fraction,
                                 session=session)
            analyses[workload][context] = result.stream_analysis
    return Figure2Result(analyses=analyses)


@register_analysis("figure2")
def _figure2_analysis(session, spec, scale: int,
                      warmup_fraction: float) -> Figure2Result:
    """Spec adapter: Figure 2 over one (scale, warmup) slice of the grid."""
    from ..api.spec import spec_contexts
    return figure2(size=spec.size, seed=spec.seed, workloads=spec.workloads,
                   contexts=spec_contexts(spec), scale=scale,
                   warmup_fraction=warmup_fraction, session=session)
