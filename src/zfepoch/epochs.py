"""Epoch detection in filtered outputs and EGG references, plus scoring."""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .core import (
    BadConfig,
    EpochSequence,
    FilterConfig,
    SampledSignal,
    TooShort,
    check_finite,
    check_rate_and_length,
    validate_signal,
)
from .filters import _BLOCK, _run_blocks, differentiate, run_pipeline

DEFAULT_EGG_PROMINENCE = 0.05

# Which detector reads epochs off each pipeline's output: the causal
# methods put a positive-going zero crossing at each excitation instant,
# while the zero-phase method centers a symmetric negative lobe there.
DETECTOR_FOR_METHOD = {
    "zfr": "crossings",
    "zff": "crossings",
    "zpzfr": "negative_peaks",
}


@dataclass(frozen=True)
class EvalReport:
    """Detected-vs-reference scoring summary."""

    reference_count: int
    detected_count: int
    matched_count: int
    mean_abs_error_s: float
    tolerance_s: float


def _epochs_by_block(filtered: SampledSignal, n: int, find) -> EpochSequence:
    """The epochs that find(i, j) returns for range(n), block by block.

    Blocks of _BLOCK run through _run_blocks and the times are joined in
    order. find reads the samples its block needs, which it first checks
    for finiteness while they are in cache, in place of a separate pass
    over the whole output. Every time is computed from its own few
    samples, so the result does not depend on the blocks or the workers.
    """
    found = {}

    def block(i: int, j: int) -> None:
        found[i] = find(i, j)

    _run_blocks(n, _BLOCK, block)
    times = np.concatenate([found[i] for i in sorted(found)])
    return EpochSequence(times, filtered.sample_rate_hz)


def detect_positive_zero_crossings(filtered: SampledSignal) -> EpochSequence:
    """Times where the signal crosses from negative to >= 0.

    Each crossing between samples k and k+1 is placed by linear
    interpolation; a zero sample after a negative one counts.
    """
    check_rate_and_length(filtered)
    y, n = filtered.samples, len(filtered)

    def crossings(i: int, j: int) -> np.ndarray:
        # crossings from k in [i, j) to k + 1, the last one's into the next block
        seg = y[i : j + 1]
        check_finite(seg)
        # with NaN rejected, "not negative" is y >= 0: one mask, not two
        neg = seg < 0.0
        k = np.flatnonzero(neg[:-1] > neg[1:]) + i
        frac = -y[k] / (y[k + 1] - y[k])
        return filtered.start_time_s + (k + frac) / filtered.sample_rate_hz

    return _epochs_by_block(filtered, n, crossings)


def detect_negative_peaks(filtered: SampledSignal) -> EpochSequence:
    """Times of strict local minima with negative value.

    The minimum is refined by fitting a parabola through the three
    surrounding samples; the refinement never moves a peak by more than
    half a sample.
    """
    check_rate_and_length(filtered)
    y, n = filtered.samples, len(filtered)
    if n < 3:
        check_finite(y)
        return EpochSequence(np.empty(0), filtered.sample_rate_hz)

    def minima(i: int, j: int) -> np.ndarray:
        # minima at k in [i + 1, j + 1), each against its two neighbours;
        # the three comparisons run over a block that stays in cache
        check_finite(y[i : j + 2])
        mid = y[i + 1 : j + 1]
        k = np.flatnonzero((mid < y[i:j]) & (mid < y[i + 2 : j + 2]) & (mid < 0.0)) + (i + 1)
        curvature = y[k - 1] - 2.0 * y[k] + y[k + 1]
        shift = np.clip(0.5 * (y[k - 1] - y[k + 1]) / curvature, -0.5, 0.5)
        return filtered.start_time_s + (k + shift) / filtered.sample_rate_hz

    return _epochs_by_block(filtered, n - 2, minima)


def extract_epochs(
    signal: SampledSignal, config: FilterConfig, detector: str | None = None
) -> EpochSequence:
    """Filter a signal and read epochs off the output.

    detector is "crossings" or "negative_peaks"; None picks the default
    for config.method (crossings for zfr/zff, negative peaks for zpzfr).
    """
    if detector is None:
        detector = DETECTOR_FOR_METHOD[config.method]
    if detector not in ("crossings", "negative_peaks"):
        raise BadConfig(f"unknown detector {detector!r}")
    filtered = run_pipeline(signal, config)
    if detector == "crossings":
        return detect_positive_zero_crossings(filtered)
    return detect_negative_peaks(filtered)


def egg_reference_epochs(
    egg: SampledSignal,
    prominence_fraction: float = DEFAULT_EGG_PROMINENCE,
) -> EpochSequence:
    """Reference epochs from an electroglottograph trace.

    Glottal closures show up as sharp falls of the EGG, i.e. negative
    peaks of its derivative. Minima shallower than prominence_fraction
    of the deepest one are treated as noise and dropped.
    """
    validate_signal(egg)
    if len(egg) < 3:
        raise TooShort("EGG reference extraction needs at least 3 samples")
    derivative = differentiate(egg)
    peaks = detect_negative_peaks(derivative)
    if len(peaks) == 0:
        return peaks
    # depth of each detected minimum, for the prominence floor
    idx = np.round((peaks.times_s - derivative.start_time_s) * derivative.sample_rate_hz)
    idx = idx.astype(int).clip(0, len(derivative) - 1)
    depth = -derivative.samples[idx]
    keep = depth >= prominence_fraction * depth.max()
    return EpochSequence(peaks.times_s[keep], peaks.source_sample_rate_hz)


def _follow(links: list[int], g: int) -> int:
    """The self-linked entry reached from g, linking the path straight to it."""
    root = g
    while links[root] != root:
        root = links[root]
    while links[g] != root:
        links[g], g = root, links[g]
    return root


class _Groups:
    """One side's distinct values, ascending, each with its unused members.

    Equal values share every distance, so a group's lowest unused index
    is always the one to pair next. NaN values are left out: they are
    within no tolerance of anything.
    """

    def __init__(self, x: np.ndarray):
        idx = np.flatnonzero(~np.isnan(x))
        order = idx[np.argsort(x[idx], kind="stable")]
        vals = x[order]
        new_value = np.ones(len(vals), dtype=bool)
        new_value[1:] = vals[1:] != vals[:-1]
        starts = np.flatnonzero(new_value)
        self.values = vals[starts].tolist()
        self.members = order.tolist()
        self.head = starts.tolist()
        self.end = starts[1:].tolist() + [len(order)]
        # Links past used-up groups, compressed as they are followed:
        # _up leads to the nearest live group at or above g (len when
        # none), _down, shifted by one, at or below g (-1 when none).
        self._up = list(range(len(self.values) + 1))
        self._down = list(range(len(self.values) + 1))

    def live(self, g: int) -> bool:
        return self.head[g] < self.end[g]

    def first(self, g: int) -> int:
        return self.members[self.head[g]]

    def live_at_or_above(self, g: int) -> int:
        return _follow(self._up, g)

    def live_at_or_below(self, g: int) -> int:
        return _follow(self._down, g + 1) - 1

    def use_first(self, g: int) -> bool:
        """Mark group g's lowest unused member used; True when g is used up."""
        self.head[g] += 1
        if self.head[g] < self.end[g]:
            return False
        self._up[g] = g + 1
        self._down[g + 1] = g
        return True


def greedy_nearest_match(a: np.ndarray, b: np.ndarray, tolerance: float) -> list[tuple[int, int]]:
    """One-to-one greedy matching of two value sequences.

    Candidate pairs are those with d = |a_i - b_j| <= tolerance. They are
    taken nearest first, ties going to the lower i and then the lower j,
    and each element is used at most once. Returns index pairs (i, j)
    into a and b, in the order they were taken. NaN values match
    nothing; a negative or NaN tolerance matches nothing.

    Uses O(n + m) memory for n = len(a) and m = len(b), and never forms
    the n x m distance table. Each step costs O(log(n + m)) plus one
    recomputation of a value's best partner per partner it loses. On
    epoch times and intervals that is about two per value, but tight
    clusters with a large tolerance can need hundreds. Distinct values
    whose distances from one value round to the same float are scanned
    one by one on every step that reaches them.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    tol = float(tolerance)
    A, B = _Groups(a), _Groups(b)
    av, bv = A.values, B.values
    nb = len(bv)
    a_pos = np.searchsorted(np.asarray(bv), av).tolist()

    def best_partner(g):
        """Minimum (d, j, b group) over a group g's live partners, or None.

        Rounded distance never decreases moving away from x, so a side's
        candidates are its nearest live group and the groups right
        behind it whose rounded distance is the same.
        """
        x = av[g]
        pos = a_pos[g]
        lo, hi = pos - 1, pos
        if pos < nb and bv[pos] == x:
            hi = pos + 1
            d = abs(x - x)  # 0, or NaN when x is infinite
            if d <= tol and B.live(pos):
                return d, B.first(pos), pos
        found = None
        h = B.live_at_or_above(hi)
        if h < nb:
            d = abs(x - bv[h])
            if d <= tol:
                found = (d, B.first(h), h)
                h = B.live_at_or_above(h + 1)
                while h < nb and abs(x - bv[h]) == d:
                    found = min(found, (d, B.first(h), h))
                    h = B.live_at_or_above(h + 1)
        h = B.live_at_or_below(lo)
        if h >= 0:
            d = abs(x - bv[h])
            if d <= tol:
                side = (d, B.first(h), h)
                h = B.live_at_or_below(h - 1)
                while h >= 0 and abs(x - bv[h]) == d:
                    side = min(side, (d, B.first(h), h))
                    h = B.live_at_or_below(h - 1)
                found = side if found is None else min(found, side)
        return found

    # Heap entries are (d, i, j, a group, b group): i is the a group's
    # lowest unused index and (d, j) its best partner when the entry was
    # pushed. Each live a group has exactly one entry. Partners only get
    # used up, so an entry's key never exceeds the group's current best;
    # when its j was taken meanwhile, the group is recomputed and pushed
    # again.
    heap = []

    def push(g):
        found = best_partner(g)
        if found is not None:
            d, j, h = found
            heapq.heappush(heap, (d, A.first(g), j, g, h))

    for g in range(len(av)):
        push(g)
    matches = []
    while heap:
        d, i, j, g, h = heapq.heappop(heap)
        if B.live(h) and B.first(h) == j:
            matches.append((i, j))
            B.use_first(h)
            if A.use_first(g):
                continue
        push(g)
    return matches


def evaluate(
    detected: EpochSequence, reference: EpochSequence, tolerance_s: float
) -> EvalReport:
    """Score detected epochs against a reference sequence.

    Pairs are formed by greedy one-to-one nearest matching within
    tolerance_s; mean_abs_error_s averages over matched pairs (NaN when
    nothing matched).
    """
    if not tolerance_s > 0.0:
        raise BadConfig(f"tolerance_s must be positive, got {tolerance_s}")
    matches = greedy_nearest_match(detected.times_s, reference.times_s, tolerance_s)
    if matches:
        i, j = np.array(matches).T
        mean_err = float(np.mean(np.abs(detected.times_s[i] - reference.times_s[j])))
    else:
        mean_err = float("nan")
    return EvalReport(
        reference_count=len(reference),
        detected_count=len(detected),
        matched_count=len(matches),
        mean_abs_error_s=mean_err,
        tolerance_s=float(tolerance_s),
    )
