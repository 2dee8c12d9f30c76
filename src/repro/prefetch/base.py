"""Prefetcher modelling framework (extension of the paper's analysis).

The paper characterises temporal streams independently of any prefetcher
implementation, but its motivation is the family of prefetchers that exploit
them.  This package provides simple models of the two prefetcher families the
paper contrasts — temporal-stream (address-correlating) prefetchers and
stride prefetchers — and a coverage evaluator, used by the ablation
benchmarks to confirm the expected win/loss pattern per workload class.

The model is deliberately idealised: prefetches complete instantly and live
in an unbounded prefetch buffer until used or until ``buffer_capacity`` newer
prefetches evict them.  Coverage numbers are therefore upper bounds, which is
the right comparison for a characterization study.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List

from ..mem.records import MissRecord
from ..mem.trace import MissTrace


class Prefetcher:
    """Interface: observe misses in order, predict future miss addresses."""

    name = "base"

    def observe(self, record: MissRecord) -> List[int]:
        """Consume one miss and return the block addresses to prefetch."""
        raise NotImplementedError


@dataclass
class CoverageResult:
    """Outcome of replaying a miss trace against a prefetcher."""

    prefetcher: str
    context: str
    total_misses: int
    covered_misses: int
    issued_prefetches: int

    @property
    def coverage(self) -> float:
        """Fraction of misses whose block had been prefetched beforehand."""
        if not self.total_misses:
            return 0.0
        return self.covered_misses / self.total_misses

    @property
    def accuracy(self) -> float:
        """Fraction of issued prefetches that covered a later miss."""
        if not self.issued_prefetches:
            return 0.0
        return self.covered_misses / self.issued_prefetches


def coverage_params(prefetcher: str, workload: str, context: str, size: str,
                    seed: int, scale: int, warmup: float,
                    buffer_capacity: int = 4096) -> Dict[str, object]:
    """The result-store key of one coverage evaluation (kind ``coverage``).

    Every input the result depends on is part of the key: the prefetcher,
    the cell whose miss trace it replays, and the prefetch buffer size.
    """
    return {"prefetcher": prefetcher, "workload": workload,
            "context": context, "size": size, "seed": seed, "scale": scale,
            "warmup": warmup, "buffer_capacity": buffer_capacity}


def evaluate_coverage(prefetcher: Prefetcher, trace: MissTrace,
                      buffer_capacity: int = 4096) -> CoverageResult:
    """Replay ``trace`` against ``prefetcher`` and measure miss coverage.

    A miss is *covered* if its block address sits in the prefetch buffer when
    the miss occurs.  The buffer holds the most recent ``buffer_capacity``
    prefetched blocks (FIFO by issue order, refreshed on re-issue).
    """
    buffer: "OrderedDict[int, bool]" = OrderedDict()
    covered = 0
    issued = 0
    for record in trace.records:
        if record.block in buffer:
            covered += 1
            del buffer[record.block]
        for block in prefetcher.observe(record):
            issued += 1
            if block in buffer:
                buffer.move_to_end(block)
                continue
            buffer[block] = True
            if len(buffer) > buffer_capacity:
                buffer.popitem(last=False)
    return CoverageResult(prefetcher=prefetcher.name, context=trace.context,
                          total_misses=len(trace), covered_misses=covered,
                          issued_prefetches=issued)
