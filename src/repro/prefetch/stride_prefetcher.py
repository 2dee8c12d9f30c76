"""Stride prefetcher model (the baseline widely deployed in real systems).

A table indexed by (cpu, function) — a stand-in for the PC — tracks the last
miss address and stride; once the same stride repeats, the prefetcher issues
``degree`` blocks ahead along that stride.  Section 1 of the paper notes that
such prefetchers provide only limited benefit for commercial server
applications because their access patterns are dominated by pointer chasing;
Section 4.3 shows DSS is the exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..api.registry import register_prefetcher
from ..mem.config import BLOCK_SIZE
from ..mem.records import MissRecord
from .base import Prefetcher


@dataclass
class _StrideState:
    last_addr: Optional[int] = None
    stride: Optional[int] = None
    confidence: int = 0


@register_prefetcher("stride", aliases=("pc-stride",))
class StridePrefetcher(Prefetcher):
    """Classic PC-indexed stride prefetcher with a confidence counter."""

    name = "stride"

    def __init__(self, degree: int = 4, min_confidence: int = 1,
                 max_stride: int = 4096) -> None:
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.degree = degree
        self.min_confidence = min_confidence
        self.max_stride = max_stride
        self._table: Dict[Tuple[int, str], _StrideState] = {}

    def observe(self, record: MissRecord) -> List[int]:
        key = (record.cpu, record.fn.name)
        state = self._table.setdefault(key, _StrideState())
        predictions: List[int] = []
        if state.last_addr is not None:
            stride = record.block - state.last_addr
            if (stride != 0 and abs(stride) <= self.max_stride
                    and stride == state.stride):
                state.confidence += 1
                if state.confidence >= self.min_confidence:
                    predictions = [record.block + stride * (i + 1)
                                   for i in range(self.degree)]
            else:
                state.confidence = 0
            state.stride = stride
        state.last_addr = record.block
        return predictions
