"""Temporal streaming prefetcher model (global-history-buffer style).

This is the prefetcher family the paper's characterization underpins
(Section 2): record the miss-address sequence in a history buffer, locate the
previous occurrence of the current miss address via an index table, and
stream out the addresses that followed it last time.

The model follows the global history buffer organisation [Nesbit & Smith,
HPCA 2004] with per-miss lookup and a configurable streaming depth; an
adaptive variant streams until the replayed history diverges from the new
miss sequence (an idealisation of the throttling the paper argues variable
stream lengths require).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..api.registry import register_prefetcher
from ..mem.records import MissRecord
from .base import Prefetcher


@register_prefetcher("temporal", aliases=("tms", "temporal-streaming"))
class TemporalPrefetcher(Prefetcher):
    """Global-history-buffer temporal streaming prefetcher."""

    name = "temporal"

    def __init__(self, depth: int = 8, history_capacity: int = 1 << 16,
                 per_cpu: bool = False) -> None:
        """
        Parameters
        ----------
        depth:
            Number of successor addresses streamed per lookup (the fixed
            prefetch depth of early proposals; the paper's Section 4.4 shows
            why a fixed depth is a compromise).
        history_capacity:
            Number of miss addresses retained in the history buffer — the
            storage budget the reuse-distance analysis (Section 4.5) sizes.
        per_cpu:
            Keep one history per processor instead of a single global one.
        """
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.history_capacity = history_capacity
        self.per_cpu = per_cpu
        self._history: Dict[int, List[int]] = {}
        #: address -> most recent position in the owning history buffer
        self._index: Dict[int, Dict[int, int]] = {}

    def _key(self, record: MissRecord) -> int:
        return record.cpu if self.per_cpu else 0

    def observe(self, record: MissRecord) -> List[int]:
        key = self._key(record)
        history = self._history.setdefault(key, [])
        index = self._index.setdefault(key, {})
        predictions: List[int] = []
        previous = index.get(record.block)
        if previous is not None:
            start = previous + 1
            predictions = history[start:start + self.depth]
        index[record.block] = len(history)
        history.append(record.block)
        # Bound the history buffer (and keep the index consistent enough:
        # stale index entries simply fail to produce a match).
        if len(history) > self.history_capacity * 2:
            cut = len(history) - self.history_capacity
            del history[:cut]
            self._index[key] = {addr: pos - cut
                                for addr, pos in index.items()
                                if pos >= cut}
        return predictions
