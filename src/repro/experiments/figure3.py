"""Figure 3: joint breakdown of strided and repetitive miss sequences.

Whether a miss sequence forms a temporal stream is orthogonal to whether it
follows a constant stride; this experiment crosses the two classifications.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..api.registry import register_analysis
from ..core.report import format_stride_breakdown
from ..core.stride import StrideStreamBreakdown
from ..mem.config import DEFAULT_SCALE
from ..mem.trace import ALL_CONTEXTS
from ..workloads.configs import WORKLOAD_NAMES
from .runner import DEFAULT_WARMUP_FRACTION, run_context


@dataclass
class Figure3Result:
    """Per-(workload, context) stride x repetition breakdowns."""

    #: workload -> context -> breakdown
    breakdowns: Dict[str, Dict[str, StrideStreamBreakdown]]

    def render(self) -> str:
        rows = {f"{w} / {c}": b
                for w, contexts in self.breakdowns.items()
                for c, b in contexts.items()}
        return ("Figure 3: strides and temporal streams\n\n"
                + format_stride_breakdown(rows))


def figure3(size: str = "small", seed: int = 42,
            workloads: Tuple[str, ...] = WORKLOAD_NAMES,
            contexts: Tuple[str, ...] = ALL_CONTEXTS,
            scale: int = DEFAULT_SCALE,
            warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
            session=None) -> Figure3Result:
    """Regenerate Figure 3 for the given workloads and contexts."""
    breakdowns: Dict[str, Dict[str, StrideStreamBreakdown]] = {}
    for workload in workloads:
        breakdowns[workload] = {}
        for context in contexts:
            result = run_context(workload, context, size=size, seed=seed,
                                 scale=scale,
                                 warmup_fraction=warmup_fraction,
                                 session=session)
            breakdowns[workload][context] = result.stride
    return Figure3Result(breakdowns=breakdowns)


@register_analysis("figure3")
def _figure3_analysis(session, spec, scale: int,
                      warmup_fraction: float) -> Figure3Result:
    """Spec adapter: Figure 3 over one (scale, warmup) slice of the grid."""
    from ..api.spec import spec_contexts
    return figure3(size=spec.size, seed=spec.seed, workloads=spec.workloads,
                   contexts=spec_contexts(spec), scale=scale,
                   warmup_fraction=warmup_fraction, session=session)
