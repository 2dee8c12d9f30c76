"""Per-epoch summaries of a captured trace, and epoch-boundary arithmetic.

Everything ``repro trace info`` reports about an access stream — length,
instruction total, CPU population, kind mix — decomposes over the trace's
epoch segments: summarise each epoch independently (:func:`summarize_chunk`),
then fold the partial summaries together **in epoch order**
(:func:`merge_summaries`).  :func:`summarize_trace` does both over a whole
trace.  :func:`boundary_at_or_before` turns an access count into the last
epoch boundary inside it, which the warm-start code uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..mem.records import AccessKind
from .format import ColumnarChunk
from .replay import TraceReader


@dataclass
class EpochSummary:
    """Deterministic aggregate of one epoch (or a merged run of epochs)."""

    #: Index of the first and last epoch covered (inclusive); (-1, -1) empty.
    first_epoch: int = -1
    last_epoch: int = -1
    n_accesses: int = 0
    #: Sum of ``icount`` over CPU-issued accesses.
    instructions: int = 0
    #: accesses per AccessKind value.
    kind_counts: Dict[int, int] = field(default_factory=dict)
    #: accesses per issuing CPU (-1 collects DMA operations).
    cpu_counts: Dict[int, int] = field(default_factory=dict)
    #: Distinct cache blocks touched *within* the summarised epochs.  Merging
    #: sums the per-epoch counts (an upper bound on the union — exact
    #: dedup across epochs would need the block sets themselves).
    distinct_blocks: int = 0

    def merge(self, other: "EpochSummary") -> "EpochSummary":
        """Fold ``other`` (the next run of epochs) into this one."""
        if other.n_accesses == 0 and other.first_epoch < 0:
            return self
        if self.first_epoch < 0:
            self.first_epoch = other.first_epoch
        self.last_epoch = max(self.last_epoch, other.last_epoch)
        self.n_accesses += other.n_accesses
        self.instructions += other.instructions
        for kind, count in other.kind_counts.items():
            self.kind_counts[kind] = self.kind_counts.get(kind, 0) + count
        for cpu, count in other.cpu_counts.items():
            self.cpu_counts[cpu] = self.cpu_counts.get(cpu, 0) + count
        self.distinct_blocks += other.distinct_blocks
        return self

    def describe(self) -> str:
        kinds = ", ".join(
            f"{AccessKind(kind).name.lower()}={count:,}"
            for kind, count in sorted(self.kind_counts.items()))
        cpus = sorted(c for c in self.cpu_counts if c >= 0)
        span = (f"epochs {self.first_epoch}..{self.last_epoch}"
                if self.first_epoch >= 0 else "empty")
        return (f"{span}: {self.n_accesses:,} accesses, "
                f"{self.instructions:,} instructions, "
                f"{len(cpus)} cpus, ~{self.distinct_blocks:,} blocks "
                f"[{kinds}]")


def summarize_chunk(chunk: ColumnarChunk,
                    block_bits: int = 6) -> EpochSummary:
    """Summarise one decoded epoch chunk (vectorised, no Access objects)."""
    cpu = chunk.columns["cpu"]
    kind = chunk.columns["kind"]
    kinds, kind_counts = np.unique(kind, return_counts=True)
    cpus, cpu_counts = np.unique(cpu, return_counts=True)
    blocks = chunk.block_addresses(block_bits)
    return EpochSummary(
        first_epoch=chunk.epoch,
        last_epoch=chunk.epoch,
        n_accesses=len(chunk),
        instructions=chunk.recorded_instructions(),
        kind_counts={int(k): int(n) for k, n in zip(kinds, kind_counts)},
        cpu_counts={int(c): int(n) for c, n in zip(cpus, cpu_counts)},
        distinct_blocks=int(np.unique(blocks).size),
    )


def merge_summaries(summaries: Iterable[Tuple[int, EpochSummary]]
                    ) -> EpochSummary:
    """Fold ``(epoch_index, summary)`` pairs deterministically.

    Pairs may arrive in any order; they are sorted by epoch index before
    folding, so the merged summary is a pure function of the trace.
    """
    merged = EpochSummary()
    for _, summary in sorted(summaries, key=lambda pair: pair[0]):
        merged.merge(summary)
    return merged


def summarize_trace(reader: TraceReader,
                    block_bits: int = 6) -> EpochSummary:
    """The whole trace's summary, one epoch at a time."""
    return merge_summaries(
        (chunk.epoch, summarize_chunk(chunk, block_bits=block_bits))
        for chunk in reader.iter_epochs())


def boundary_at_or_before(segments: List[Dict[str, int]],
                          access_count: int) -> int:
    """The largest epoch boundary whose prefix fits within ``access_count``.

    ``segments`` is ``TraceMeta.segments``; the return value ``e`` satisfies
    ``sum(seg["n"] for seg in segments[:e]) <= access_count`` and is maximal
    (0 when not even the first epoch fits).  The shared-prefix planner uses
    this to turn a warm-up access count into the last epoch boundary whose
    snapshot is still warmup-independent.
    """
    boundary = 0
    consumed = 0
    for index, segment in enumerate(segments):
        consumed += int(segment["n"])
        if consumed > access_count:
            break
        boundary = index + 1
    return boundary
