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


# The filters leave rounding noise, about 1e-16 to 1e-12 of the peak,
# where exact arithmetic gives 0: over digital silence, or over a
# constant that pre-emphasis differences away. That noise crosses zero
# every few samples. So both detectors read every sample within _BAND
# of the output's largest magnitude as 0, and look for epochs only
# outside that band; voiced outputs keep no sample in it.
_BAND = 1e-10


def _band(y: np.ndarray) -> float:
    """_BAND times max(y.max(), -y.min()), read block by block.

    Each block's extremes also prove it finite, while it is in cache:
    NaN propagates through both, and an infinity shows in one.
    """

    def extremes(i: int, j: int) -> float:
        seg = y[i:j]
        top = np.array((seg.max(), -seg.min()))
        check_finite(top)
        return top.max()

    return _BAND * max(_run_blocks(len(y), _BLOCK, extremes))


def _next_outside(y: np.ndarray, i: int, band: float) -> int:
    """The first index from i of a sample outside the band, or len(y)."""
    for a in range(i, len(y), _BLOCK):
        seg = y[a : a + _BLOCK]
        outside = (seg > band) | (seg < -band)
        if outside.any():
            return a + int(outside.argmax())
    return len(y)


def detect_positive_zero_crossings(filtered: SampledSignal) -> EpochSequence:
    """Times where the signal passes from below the band to above it.

    The band is +-1e-10 of the output's largest magnitude (see _BAND),
    and samples within it are read as 0. Each passage from a sample
    below -band to the next sample outside the band, above +band, is one
    epoch. When the two samples are adjacent, the epoch is placed by
    linear interpolation between them, the zero crossing; otherwise it
    is the first sample above the band. Without samples within the band,
    that is every crossing from y < 0 to y >= 0, interpolated.
    """
    check_rate_and_length(filtered)
    y, n = filtered.samples, len(filtered)
    band = _band(y)

    def exits(i: int, j: int):
        # each k in [i, j) below the band whose successor is not, and the
        # next sample after k outside the band: k + 1, unless rounding
        # noise follows k; -1 if none lies in [k + 1, j]
        seg = y[i : j + 1]
        below = seg < -band
        k = np.flatnonzero(below[:-1] > below[1:])
        p = k + 1
        noise = np.flatnonzero(seg[p] <= band)
        if len(noise):
            outside = np.flatnonzero(below | (seg > band))
            p[noise] = np.append(outside, -1 - i)[np.searchsorted(outside, p[noise])]
        return k + i, p + i

    k, p = (np.concatenate(parts) for parts in zip(*_run_blocks(n, _BLOCK, exits)))
    # only a block's last exit can run into the blocks after it
    for t in np.flatnonzero(p < 0):
        p[t] = _next_outside(y, k[t] + 1, band)
    passage = p < n
    passage[passage] = y[p[passage]] > band
    k, p = k[passage], p[passage]
    at = np.where(p == k + 1, k - y[k] / (y[p] - y[k]), p)
    return EpochSequence(filtered.start_time_s + at / filtered.sample_rate_hz,
                         filtered.sample_rate_hz)


def detect_negative_peaks(filtered: SampledSignal) -> EpochSequence:
    """Times of strict local minima below the band.

    The band is +-1e-10 of the output's largest magnitude (see _BAND),
    so a minimum at rounding-noise level is no epoch. The minimum is
    refined by fitting a parabola through the three surrounding samples;
    the refinement never moves a peak by more than half a sample.
    """
    check_rate_and_length(filtered)
    y, n = filtered.samples, len(filtered)
    if n < 3:
        check_finite(y)
        return EpochSequence(np.empty(0), filtered.sample_rate_hz)
    band = _band(y)

    def minima(i: int, j: int) -> np.ndarray:
        # minima at k in [i + 1, j + 1), each against its two neighbours;
        # the three comparisons run over a block that stays in cache
        mid = y[i + 1 : j + 1]
        k = np.flatnonzero((mid < y[i:j]) & (mid < y[i + 2 : j + 2]) & (mid < -band)) + (i + 1)
        curvature = y[k - 1] - 2.0 * y[k] + y[k + 1]
        shift = np.clip(0.5 * (y[k - 1] - y[k + 1]) / curvature, -0.5, 0.5)
        return filtered.start_time_s + (k + shift) / filtered.sample_rate_hz

    return EpochSequence(np.concatenate(_run_blocks(n - 2, _BLOCK, minima)),
                         filtered.sample_rate_hz)


def extract_epochs(
    signal: SampledSignal, config: FilterConfig, detector: str | None = None
) -> EpochSequence:
    """Filter a signal and read epochs off the output.

    detector is "crossings" or "negative_peaks"; None picks the default
    for config.method (crossings for zfr/zff, negative peaks for zpzfr).
    Both read samples within 1e-10 of the output's largest magnitude,
    the filters' rounding noise over digital silence, as 0 (see _BAND),
    so silence and constant input add no epochs.
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
