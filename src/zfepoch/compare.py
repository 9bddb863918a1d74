"""Delta sequences and the near-equal-interval similarity count.

Two utterances by the same speaker share pitch-period structure: the
sequence of intervals between consecutive epochs (the deltas) lines up
to within a fraction of a millisecond. Counting how many delta pairs
agree within epsilon gives a similarity score that is invariant to when
the utterance started, which absolute epoch times are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BadConfig, DeltaSequence, EpochSequence, NoLocks
from .epochs import greedy_nearest_match

DEFAULT_EPSILON_S = 0.0005
ALIGNMENTS = ("index", "nearest")


@dataclass(frozen=True)
class MatchConfig:
    """How delta sequences are paired and how close counts as equal.

    alignment "index" compares intervals elementwise; "nearest" pairs
    each interval with the closest unused one, tolerating an inserted or
    dropped epoch at the cost of ignoring ordering.
    """

    epsilon_s: float = DEFAULT_EPSILON_S
    alignment: str = "index"

    def __post_init__(self):
        if not self.epsilon_s > 0.0:
            raise BadConfig(f"epsilon_s must be positive, got {self.epsilon_s}")
        if self.alignment not in ALIGNMENTS:
            raise BadConfig(f"alignment must be one of {ALIGNMENTS}, got {self.alignment!r}")


@dataclass(frozen=True)
class SimilarityScore:
    """Outcome of one or more delta comparisons.

    delta12_count and compared_pairs are totals over all compared lock
    sequences; per_lock_counts holds the individual counts and average
    their arithmetic mean.
    """

    delta12_count: int
    compared_pairs: int
    per_lock_counts: tuple[int, ...]
    average: float


def deltas(epochs: EpochSequence) -> DeltaSequence:
    """Intervals between consecutive epochs; empty for < 2 epochs."""
    return DeltaSequence(np.diff(epochs.times_s))


def _count_pairs(d1: DeltaSequence, d2: DeltaSequence, cfg: MatchConfig) -> tuple[int, int]:
    compared = min(len(d1), len(d2))
    if compared == 0:
        return 0, 0
    if cfg.alignment == "index":
        diff = np.abs(d1.intervals_s[:compared] - d2.intervals_s[:compared])
        return int(np.count_nonzero(diff <= cfg.epsilon_s)), compared
    matches = greedy_nearest_match(d1.intervals_s, d2.intervals_s, cfg.epsilon_s)
    return len(matches), compared


def delta12_count(
    d1: DeltaSequence, d2: DeltaSequence, cfg: MatchConfig = MatchConfig()
) -> SimilarityScore:
    """Count near-equal interval pairs between two delta sequences."""
    count, compared = _count_pairs(d1, d2, cfg)
    return SimilarityScore(
        delta12_count=count,
        compared_pairs=compared,
        per_lock_counts=(count,),
        average=float(count),
    )


def confidence(
    test: EpochSequence, locks: Sequence[EpochSequence], cfg: MatchConfig = MatchConfig()
) -> SimilarityScore:
    """Average the delta count of a test utterance against each lock."""
    if not locks:
        raise NoLocks("confidence needs at least one lock epoch sequence")
    d_test = deltas(test)
    counts = []
    compared_total = 0
    for lock in locks:
        count, compared = _count_pairs(d_test, deltas(lock), cfg)
        counts.append(count)
        compared_total += compared
    return SimilarityScore(
        delta12_count=int(sum(counts)),
        compared_pairs=compared_total,
        per_lock_counts=tuple(counts),
        average=float(np.mean(counts)),
    )
