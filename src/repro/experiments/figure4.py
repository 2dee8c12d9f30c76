"""Figure 4: temporal stream length CDF (left) and reuse-distance PDF (right).

The left plot is the cumulative distribution of stream lengths weighted by
each stream's contribution to stream misses (so the 50th percentile is the
median stream length).  The right plot is the distribution of reuse distances
between consecutive occurrences of a stream, measured in intervening misses
at the processor that saw the earlier occurrence, over logarithmic bins up to
10^7 misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..api.registry import register_analysis
from ..core.lengths import LengthDistribution
from ..core.report import format_length_cdf, format_reuse_pdf
from ..core.reuse import ReuseDistanceDistribution
from ..mem.config import DEFAULT_SCALE
from ..mem.trace import ALL_CONTEXTS
from ..workloads.configs import WORKLOAD_NAMES
from .runner import DEFAULT_WARMUP_FRACTION, run_context


@dataclass
class Figure4Result:
    """Stream-length and reuse-distance distributions for every bar."""

    #: workload -> context -> length CDF
    lengths: Dict[str, Dict[str, LengthDistribution]]
    #: workload -> context -> reuse-distance PDF
    reuse: Dict[str, Dict[str, ReuseDistanceDistribution]]

    def median_length(self, workload: str, context: str) -> int:
        return self.lengths[workload][context].median

    def render(self) -> str:
        lines = ["Figure 4 (left): temporal stream length CDFs", ""]
        for workload, contexts in self.lengths.items():
            for context, dist in contexts.items():
                lines.append(format_length_cdf(f"{workload} / {context}", dist))
                lines.append("")
        lines.append("Figure 4 (right): stream reuse-distance distributions")
        lines.append("")
        for workload, contexts in self.reuse.items():
            for context, dist in contexts.items():
                lines.append(format_reuse_pdf(f"{workload} / {context}", dist))
                lines.append("")
        return "\n".join(lines)


def figure4(size: str = "small", seed: int = 42,
            workloads: Tuple[str, ...] = WORKLOAD_NAMES,
            contexts: Tuple[str, ...] = ALL_CONTEXTS,
            scale: int = DEFAULT_SCALE,
            warmup_fraction: float = DEFAULT_WARMUP_FRACTION,
            session=None) -> Figure4Result:
    """Regenerate Figure 4 for the given workloads and contexts."""
    lengths: Dict[str, Dict[str, LengthDistribution]] = {}
    reuse: Dict[str, Dict[str, ReuseDistanceDistribution]] = {}
    for workload in workloads:
        lengths[workload] = {}
        reuse[workload] = {}
        for context in contexts:
            result = run_context(workload, context, size=size, seed=seed,
                                 scale=scale,
                                 warmup_fraction=warmup_fraction,
                                 session=session)
            lengths[workload][context] = result.lengths
            reuse[workload][context] = result.reuse
    return Figure4Result(lengths=lengths, reuse=reuse)


@register_analysis("figure4")
def _figure4_analysis(session, spec, scale: int,
                      warmup_fraction: float) -> Figure4Result:
    """Spec adapter: Figure 4 over one (scale, warmup) slice of the grid."""
    from ..api.spec import spec_contexts
    return figure4(size=spec.size, seed=spec.seed, workloads=spec.workloads,
                   contexts=spec_contexts(spec), scale=scale,
                   warmup_fraction=warmup_fraction, session=session)
