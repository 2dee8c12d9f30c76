"""Alternative temporal-stream finder based on greedy longest-previous-match.

The paper uses SEQUITUR to locate repetitive subsequences; this module
provides an independent detector used for cross-validation (ablation A2 in
:mod:`repro.experiments.ablation`) and as a model of how an actual
temporal-streaming prefetcher locates streams: keep an index of
previously-seen digrams, and on each miss greedily extend a match against
the most recent earlier occurrence.

The two detectors need not agree exactly — SEQUITUR builds maximal shared
structure while the greedy matcher is online — but the repetitive fraction
they report should be close, which the ablation benchmark checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple


@dataclass
class GreedyStreamMatch:
    """One recurring stream occurrence found by the greedy matcher."""

    start: int
    length: int
    #: Start position of the earlier occurrence the match was made against.
    earlier_start: int


@dataclass
class GreedyStreamAnalysis:
    """Result of the greedy stream detection."""

    #: Per-position flag: True if the position is part of a recurring match
    #: of length >= ``min_length``.
    recurring: List[bool]
    matches: List[GreedyStreamMatch]

    @property
    def fraction_recurring(self) -> float:
        if not self.recurring:
            return 0.0
        return sum(self.recurring) / len(self.recurring)


def find_streams_greedy(sequence: Sequence[Hashable],
                        min_length: int = 2) -> GreedyStreamAnalysis:
    """Find recurring stream occurrences by greedy longest-previous-match.

    Walks the sequence once.  At each position, if the digram starting there
    has occurred before, the match is extended greedily against the most
    recent prior occurrence; if the match reaches ``min_length`` the covered
    positions are marked recurring and the walk skips past the match.
    """
    if min_length < 2:
        raise ValueError("min_length must be >= 2")
    n = len(sequence)
    recurring = [False] * n
    matches: List[GreedyStreamMatch] = []
    #: digram -> most recent position at which it started
    last_seen: Dict[Tuple[Hashable, Hashable], int] = {}
    i = 0
    while i < n - 1:
        digram = (sequence[i], sequence[i + 1])
        earlier = last_seen.get(digram)
        if earlier is not None and earlier + 1 < i:
            # Extend the match as far as both copies agree.
            length = 2
            while (i + length < n and earlier + length < i
                   and sequence[earlier + length] == sequence[i + length]):
                length += 1
            if length >= min_length:
                for p in range(i, i + length):
                    recurring[p] = True
                matches.append(GreedyStreamMatch(start=i, length=length,
                                                 earlier_start=earlier))
                # Index the digrams inside the match before skipping them.
                for p in range(i, min(i + length, n - 1)):
                    last_seen[(sequence[p], sequence[p + 1])] = p
                i += length
                continue
        # Remember this digram's position, but never overwrite an earlier
        # position with an immediately-adjacent one: that would make runs of
        # identical symbols permanently self-overlapping and unmatched.
        if earlier is None or earlier + 1 < i:
            last_seen[digram] = i
        i += 1
    return GreedyStreamAnalysis(recurring=recurring, matches=matches)
