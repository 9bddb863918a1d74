"""Epoch detectors, EGG references, and detection scoring."""

import itertools
import re
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zfepoch import (
    BadConfig,
    EpochSequence,
    FilterConfig,
    NonFinite,
    SampledSignal,
    TooShort,
    ZfepochError,
    deltas,
    detect_negative_peaks,
    detect_positive_zero_crossings,
    egg_reference_epochs,
    evaluate,
    extract_epochs,
    greedy_nearest_match,
    speaker,
    synth_voice,
    validate_signal,
)
from match_oracle import quadratic_greedy_match
from zfepoch import core
from zfepoch import epochs as zf_epochs
from zfepoch import filters as zf_filters

EVAL_TOLERANCE_S = 0.00025

# Value pools for the property test: duplicate-heavy grids, dense
# floats, values whose distances round to equal floats although the
# values differ (±(1e16 + 2k) against small values, on either side;
# zero against subnormals), values whose differences overflow to infinity, and
# non-finite values.
GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.5])
DENSE = st.floats(min_value=-2.0, max_value=2.0, allow_subnormal=True)
ROUNDING = st.sampled_from(
    [s * (1e16 + 2.0 * k) for s in (1, -1) for k in range(4)]
    + [0.0, -0.0, 5e-324, 1e-300, 1.0, 3.0]
)
HUGE = st.sampled_from([-1.7e308, -1e308, 0.0, 1e308, 1.7e308])
NONFINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
VALUE_LISTS = st.one_of(
    st.lists(GRID, max_size=60),
    st.lists(st.one_of(GRID, DENSE, ROUNDING, HUGE, NONFINITE), max_size=30),
)
TOLERANCES = st.one_of(
    st.sampled_from([0.0, -1.0, float("nan"), 1e300, float("inf"), 1e16, 1e-300]),
    st.floats(min_value=0.0, max_value=3.0),
)


class TestPositiveZeroCrossings:
    def test_midpoint_interpolation(self):
        out = detect_positive_zero_crossings(SampledSignal([-1.0, 1.0], 1000.0))
        assert out.times_s.tolist() == [0.0005]

    def test_no_crossing(self):
        out = detect_positive_zero_crossings(SampledSignal([1.0, 2.0, 3.0], 1000.0))
        assert len(out) == 0

    def test_zero_inside_the_band_is_no_crossing(self):
        # [-1, 0, -1, 1]: the zero sample lies within the band, so only
        # the final rise is a passage, interpolated at 2.5/fs
        out = detect_positive_zero_crossings(SampledSignal([-1.0, 0.0, -1.0, 1.0], 1000.0))
        assert out.times_s.tolist() == [0.0025]

    def test_passage_through_the_band_is_its_first_sample_above(self):
        # samples within 1e-10 of the peak, zeros or rounding noise,
        # separate the last sample below from the first above: the epoch
        # is that first sample above, not interpolated
        for y in ([-1.0, 0.0, 0.0, 2.0], [-1.0, 1e-11, -2e-10, 2.0]):
            out = detect_positive_zero_crossings(SampledSignal(y, 1000.0))
            assert out.times_s.tolist() == [0.003]

    def test_offset_applied(self):
        out = detect_positive_zero_crossings(
            SampledSignal([-1.0, 1.0], 1000.0, start_time_s=0.25)
        )
        assert out.times_s[0] == pytest.approx(0.2505)


# signed zeros, subnormals, values at and either side of the band of
# 1e-10 of a peak of 1 or 2, and the peak itself
BAND_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-11, -1e-11,
                               1e-10, -1e-10, 2e-10, -2e-10, 1.0, -1.0])
# values of either sign, none within the band of any list of them
OUTSIDE_VALUES = st.one_of(st.floats(min_value=1e-3, max_value=2.0),
                           st.floats(min_value=-2.0, max_value=-1e-3))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(OUTSIDE_VALUES, min_size=1, max_size=40),
       block=st.integers(min_value=1, max_value=8))
def test_crossings_match_the_two_comparison_form(values, block):
    # with no sample within the band, every passage is a step from
    # y < 0 to y >= 0, interpolated bit for bit as before the band
    y = np.array(values, dtype=float)
    with mock.patch.object(zf_epochs, "_BLOCK", block):
        out = detect_positive_zero_crossings(SampledSignal(y, 1000.0))
    k = np.nonzero((y[:-1] < 0.0) & (y[1:] >= 0.0))[0]
    want = (k - y[k] / (y[k + 1] - y[k])) / 1000.0
    assert np.array_equal(out.times_s, want)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(OUTSIDE_VALUES, min_size=1, max_size=40),
       block=st.integers(min_value=1, max_value=8))
def test_negative_peaks_match_the_whole_output_comparisons(values, block):
    # with no sample within the band, the minima found block by block,
    # at the blocks' edges too, are the three comparisons' with 0
    y = np.array(values, dtype=float)
    with mock.patch.object(zf_epochs, "_BLOCK", block):
        out = detect_negative_peaks(SampledSignal(y, 1000.0))
    mid = y[1:-1]
    k = np.nonzero((mid < y[:-2]) & (mid < y[2:]) & (mid < 0.0))[0] + 1
    shift = np.clip(0.5 * (y[k - 1] - y[k + 1]) / (y[k - 1] - 2.0 * y[k] + y[k + 1]), -0.5, 0.5)
    assert np.array_equal(out.times_s, (k + shift) / 1000.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(BAND_VALUES, DENSE), min_size=1, max_size=40),
       block=st.integers(min_value=1, max_value=8))
def test_detectors_match_the_banded_whole_array_forms(values, block):
    # samples within the band, across block edges too, read as 0
    sig = SampledSignal(np.array(values, dtype=float), 1000.0)
    with mock.patch.object(zf_epochs, "_BLOCK", block):
        for detect, whole in DETECTORS:
            assert np.array_equal(detect(sig).times_s, whole(sig))


class TestNegativePeaks:
    def test_symmetric_parabola_vertex(self):
        out = detect_negative_peaks(SampledSignal([0.0, -1.0, 0.0], 1000.0))
        assert out.times_s == pytest.approx([0.001])

    def test_positive_peak_rejected(self):
        out = detect_negative_peaks(SampledSignal([0.0, 1.0, 0.0], 1000.0))
        assert len(out) == 0

    def test_two_minima(self):
        out = detect_negative_peaks(
            SampledSignal([0.0, -1.0, -0.5, -1.2, 0.0], 1000.0)
        )
        assert len(out) == 2

    def test_minimum_within_the_band_rejected(self):
        # the band is 1e-10 of the peak of 1: a minimum at half of it is
        # rounding noise, one at twice it an epoch
        for depth, count in ((-0.5e-10, 0), (-2e-10, 1)):
            out = detect_negative_peaks(SampledSignal([1.0, 0.0, depth, 0.0, 0.5], 1000.0))
            assert len(out) == count

    def test_parabolic_refinement(self):
        # samples of (x - 5.25)^2 - 1 at integers: vertex at 5.25
        x = np.arange(10, dtype=float)
        y = (x - 5.25) ** 2 - 1.0
        out = detect_negative_peaks(SampledSignal(y, 1.0))
        assert out.times_s == pytest.approx([5.25])

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(3)
        y = rng.normal(size=200)
        base = detect_negative_peaks(SampledSignal(y, 1000.0)).times_s
        scaled = detect_negative_peaks(SampledSignal(scale * y, 1000.0)).times_s
        # same peaks; interpolation may differ in the last ulp
        assert len(base) == len(scaled)
        assert np.allclose(base, scaled, rtol=0.0, atol=1e-12)


@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_crossings_scale_invariance(scale):
    rng = np.random.default_rng(4)
    y = rng.normal(size=200)
    base = detect_positive_zero_crossings(SampledSignal(y, 1000.0)).times_s
    scaled = detect_positive_zero_crossings(SampledSignal(scale * y, 1000.0)).times_s
    assert len(base) == len(scaled)
    assert np.allclose(base, scaled, rtol=0.0, atol=1e-12)


def whole_array_crossings(filtered):
    """The crossings detector over the whole output, after validate_signal.

    Among the samples outside the band of 1e-10 max|y|, each step from
    one below it to one above it, interpolated when the two are
    adjacent, else at the one above.
    """
    validate_signal(filtered)
    y = filtered.samples
    outside = np.flatnonzero(np.abs(y) > 1e-10 * np.max(np.abs(y)))
    below = y[outside] < 0.0
    t = np.flatnonzero(below[:-1] & ~below[1:])
    k, p = outside[t], outside[t + 1]
    at = np.where(p == k + 1, k - y[k] / (y[p] - y[k]), p)
    return filtered.start_time_s + at / filtered.sample_rate_hz


def whole_array_negative_peaks(filtered):
    """The negative-peak detector over the whole output, after validate_signal.

    Strict local minima below the band of 1e-10 max|y|.
    """
    validate_signal(filtered)
    y = filtered.samples
    if len(y) < 3:
        return np.empty(0)
    mid = y[1:-1]
    band = 1e-10 * np.max(np.abs(y))
    k = np.nonzero((mid < y[:-2]) & (mid < y[2:]) & (mid < -band))[0] + 1
    shift = np.clip(0.5 * (y[k - 1] - y[k + 1]) / (y[k - 1] - 2.0 * y[k] + y[k + 1]), -0.5, 0.5)
    return filtered.start_time_s + (k + shift) / filtered.sample_rate_hz


DETECTORS = [(detect_positive_zero_crossings, whole_array_crossings),
             (detect_negative_peaks, whole_array_negative_peaks)]


def _small_blocks(monkeypatch, block, workers):
    # blocks of block samples in both modules: filters' size sets the
    # worker count, epochs' the detector's blocks
    monkeypatch.setattr(zf_filters, "_BLOCK", block)
    monkeypatch.setattr(zf_epochs, "_BLOCK", block)
    monkeypatch.setattr(zf_filters, "_worker_count", lambda blocks: min(workers, blocks))


@pytest.mark.parametrize("value", [0.0, 0.25, -0.25])
@pytest.mark.parametrize("detect", [detect for detect, _ in DETECTORS])
def test_constant_output_has_no_epochs(detect, value):
    # all zeros leave a band of 0, and any constant has no passage or minimum
    assert len(detect(SampledSignal(np.full(1000, value), 1000.0))) == 0


class TestPooledDetectors:
    """The detectors run their blocks on the filters' pool."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("detect,whole", DETECTORS)
    def test_many_blocks_match_the_whole_array(self, monkeypatch, detect, whole, workers):
        # 64-sample blocks over 50 of them. The crossing from sample 63
        # to 64 straddles a block edge. The passages from 127 and from
        # 191, each the last sample of a block, run through an exact
        # zero to 129 and 193; the one from 999 runs through 250 exact
        # zeros, three whole blocks among them, to 1250. The minima at
        # 127, 193, 256 and 320 are the first or last sample of a block,
        # whether blocks count from sample 0 or 1
        y = np.random.default_rng(workers).normal(size=64 * 50 + 13)
        y[62:66] = [-1.0, -0.5, 0.5, 1.0]
        y[126:130] = [-1.0, -0.5, 0.0, 1.0]
        y[190:194] = [-1.0, -0.5, 0.0, 1.0]
        y[999:1251] = np.concatenate(([-1.0], np.zeros(250), [1.0]))
        crossings = [63.5, 129.0, 193.0, 1250.0]
        minima = [127, 193, 256, 320]
        if detect is detect_negative_peaks:
            for c in minima:
                y[c - 1 : c + 2] = [0.5, -2.0, 0.5]
        sig = SampledSignal(y, 1000.0, start_time_s=0.25)
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread.name) or start(thread))
        _small_blocks(monkeypatch, 64, workers)
        got = detect(sig).times_s
        want = whole(sig)
        assert np.array_equal(got, want)
        placed = crossings if detect is detect_positive_zero_crossings else minima
        assert np.isin(0.25 + np.array(placed, dtype=float) / 1000.0, want).all()
        assert bool(starts) == (workers > 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("detect", [detect for detect, _ in DETECTORS])
    def test_non_finite_in_the_last_block(self, monkeypatch, detect, bad, workers):
        y = np.random.default_rng(3).normal(size=64 * 10 + 5)
        y[-1] = bad
        _small_blocks(monkeypatch, 64, workers)
        with pytest.raises(NonFinite, match="^signal contains NaN or infinite samples$"):
            detect(SampledSignal(y, 1000.0))

    @pytest.mark.parametrize("detect", [detect for detect, _ in DETECTORS])
    def test_detectors_check_only_blocks(self, monkeypatch, detect):
        # each block checks the samples it reads while they are in cache;
        # no check reads the whole output
        _small_blocks(monkeypatch, 64, 2)
        lengths, real = [], core.all_finite
        monkeypatch.setattr(core, "all_finite", lambda y: lengths.append(len(y)) or real(y))
        detect(SampledSignal(np.random.default_rng(8).normal(size=64 * 10 + 5), 1000.0))
        assert len(lengths) == 11 and max(lengths) <= 64 + 2

    @pytest.mark.parametrize("detect,whole", DETECTORS)
    def test_inputs_of_up_to_three_samples(self, detect, whole):
        # every sequence of up to three values from the pool, and a rate
        # of 0: the same times, or the same error and message
        pool = [-1.0, 0.0, 1.0, np.nan, np.inf]
        for n in range(4):
            for values in itertools.product(pool, repeat=n):
                for rate in (1000.0, 0.0):
                    sig = SampledSignal(np.array(values, dtype=float), rate)
                    try:
                        want = whole(sig)
                    except ZfepochError as err:
                        with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                            detect(sig)
                    else:
                        assert np.array_equal(detect(sig).times_s, want)


@pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pipeline_epochs_monotone_and_in_range(method, seed):
    rng = np.random.default_rng(seed)
    sig = SampledSignal(rng.normal(size=4000), 8000.0)
    epochs = extract_epochs(sig, FilterConfig(method))
    times = epochs.times_s
    if len(times) > 1:
        assert np.all(np.diff(times) > 0.0)
    assert np.all(times >= 0.0)
    assert np.all(times <= sig.duration_s)


class TestEggReference:
    def test_sawtooth_falls(self):
        # sawtooth ramping up 10x per second drops at t = 0.1 .. 0.9,
        # nine interior falls in one second of signal
        fs = 8000.0
        t = np.arange(int(fs)) / fs
        egg = (t * 10.0) % 1.0
        out = egg_reference_epochs(SampledSignal(egg, fs))
        assert len(out) == 9
        falls = np.arange(1, 10) / 10.0
        assert np.max(np.abs(out.times_s - falls)) < 2.0 / fs

    def test_constant_is_empty(self):
        out = egg_reference_epochs(SampledSignal(np.ones(100), 1000.0))
        assert len(out) == 0

    def test_single_step_down(self):
        y = np.ones(100)
        y[40:] = 0.0
        out = egg_reference_epochs(SampledSignal(y, 1000.0))
        assert len(out) == 1
        assert out.times_s[0] == pytest.approx(0.040)

    def test_prominence_floor(self):
        y = np.zeros(100)
        y[:20] = 1.0        # big fall at 20
        y[50:60] = 0.02     # small rise and fall around 50/60
        big_only = egg_reference_epochs(SampledSignal(y, 1000.0))
        assert len(big_only) == 1
        both = egg_reference_epochs(SampledSignal(y, 1000.0), prominence_fraction=0.01)
        assert len(both) == 2

    def test_too_short(self):
        with pytest.raises(TooShort):
            egg_reference_epochs(SampledSignal([1.0, 0.0], 1000.0))


class TestEvaluate:
    def test_identity_matches_all(self):
        times = np.sort(np.random.default_rng(5).uniform(0, 1, 30))
        seq = EpochSequence(times, 1000.0)
        for tol in (1e-6, 1e-3, 0.5):
            rep = evaluate(seq, seq, tol)
            assert rep.matched_count == 30
            assert rep.mean_abs_error_s == 0.0

    def test_shift_beyond_tolerance_matches_none(self):
        times = np.arange(10) * 0.01
        tol = 0.001
        ref = EpochSequence(times, 1000.0)
        det = EpochSequence(times + 2 * tol, 1000.0)
        rep = evaluate(det, ref, tol)
        assert rep.matched_count == 0
        assert np.isnan(rep.mean_abs_error_s)

    def test_two_by_two_case(self):
        ref = EpochSequence([0.10, 0.20], 1000.0)
        det = EpochSequence([0.1001, 0.35], 1000.0)
        rep = evaluate(det, ref, 0.001)
        assert rep.matched_count == 1
        assert rep.mean_abs_error_s == pytest.approx(0.0001, abs=1e-12)
        assert rep.reference_count == 2 and rep.detected_count == 2

    def test_matched_bounded(self):
        ref = EpochSequence(np.arange(5) * 0.01, 1000.0)
        det = EpochSequence(np.arange(9) * 0.011, 1000.0)
        rep = evaluate(det, ref, 0.004)
        assert rep.matched_count <= min(rep.reference_count, rep.detected_count)

    def test_tolerance_must_be_positive(self):
        seq = EpochSequence([0.1], 1000.0)
        with pytest.raises(ValueError):
            evaluate(seq, seq, 0.0)

    @pytest.mark.parametrize("name, seed", [("A", 21), ("B", 22)])
    def test_mean_error_bit_identical_to_oracle(self, name, seed):
        signal, truth = synth_voice(speaker(name, 10.0, seed=seed, noise_snr_db=20.0))
        found = extract_epochs(signal, FilterConfig("zpzfr"))
        rep = evaluate(found, truth, EVAL_TOLERANCE_S)
        pairs = quadratic_greedy_match(found.times_s, truth.times_s, EVAL_TOLERANCE_S)
        errors = [abs(found.times_s[i] - truth.times_s[j]) for i, j in pairs]
        assert rep.matched_count == len(pairs) > len(truth) // 2
        assert rep.mean_abs_error_s == float(np.mean(errors))


class TestGreedyNearestMatch:
    def test_one_to_one(self):
        # both a-values sit within tolerance of the lone b-value;
        # only one may claim it
        matches = greedy_nearest_match([0.0, 0.1], [0.05], 0.1)
        assert len(matches) == 1

    def test_nearest_first(self):
        matches = greedy_nearest_match([0.0, 0.04], [0.05], 0.1)
        assert matches == [(1, 0)]

    def test_empty(self):
        assert greedy_nearest_match([], [1.0], 0.5) == []

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            # every distance is 1: a_1 takes b_1 below it before b_2 above it
            ([1.0, 1.0], [2.0, 0.0, 2.0], [(0, 0), (1, 1)]),
            # |x - 1| and |x - 0| both round to 1e16, although 0 is nearer
            ([-1e16], [1.0, 0.0], [(0, 0)]),
            ([1e16], [-1.0, 0.0], [(0, 0)]),
            # both distances overflow to inf
            ([-1.7e308, -1e308], [1.7e308], [(0, 0)]),
            # inf - inf is NaN, within no tolerance; inf away from 0 is within inf
            ([-np.inf], [-np.inf, 0.0], [(0, 1)]),
            ([np.inf], [0.0, np.inf], [(0, 0)]),
        ],
    )
    def test_ties_go_to_lower_index(self, a, b, expected):
        # hand-checked cases, each also what the oracle returns
        assert greedy_nearest_match(a, b, np.inf) == expected

    @settings(max_examples=400, deadline=None)
    @given(a=VALUE_LISTS, b=VALUE_LISTS, tolerance=TOLERANCES)
    def test_same_pairs_as_oracle(self, a, b, tolerance):
        assert greedy_nearest_match(a, b, tolerance) == quadratic_greedy_match(a, b, tolerance)

    def test_dense_genuine_delta_pair_same_pairs_as_oracle(self):
        # two 10 s utterances of one voice: most of the ~1.1k x 1.1k
        # interval pairs lie within 0.5 ms of each other
        test, lock = (
            deltas(extract_epochs(synth_voice(speaker("A", 10.0, seed=s))[0],
                                  FilterConfig("zpzfr"))).intervals_s
            for s in (31, 32)
        )
        assert min(len(test), len(lock)) > 1000
        pairs = greedy_nearest_match(test, lock, 0.0005)
        assert len(pairs) > 0.9 * len(test)
        assert pairs == quadratic_greedy_match(test, lock, 0.0005)


class TestExtractEpochs:
    def test_detector_defaults_per_method(self):
        sig, _ = synth_voice(speaker("A", 0.5, seed=9))
        from zfepoch import run_pipeline

        for method, detector in [("zff", detect_positive_zero_crossings),
                                 ("zpzfr", detect_negative_peaks)]:
            cfg = FilterConfig(method)
            auto = extract_epochs(sig, cfg)
            manual = detector(run_pipeline(sig, cfg))
            assert np.array_equal(auto.times_s, manual.times_s)

    def test_detector_override(self):
        sig, _ = synth_voice(speaker("A", 0.5, seed=9))
        cfg = FilterConfig("zpzfr")
        crossings = extract_epochs(sig, cfg, detector="crossings")
        peaks = extract_epochs(sig, cfg, detector="negative_peaks")
        assert not np.array_equal(crossings.times_s, peaks.times_s)

    def test_constant_input_gives_no_zpzfr_epochs(self):
        # zpzfr filters a constant to rounding noise, under 1e-9 away
        # from the ends against an edge peak of 2.6e3, whose minima are
        # no epochs
        sig = SampledSignal(np.full(32000, 0.25), 16000.0)
        assert len(extract_epochs(sig, FilterConfig("zpzfr"))) == 0

    def test_unknown_detector(self):
        sig, _ = synth_voice(speaker("A", 0.5, seed=9))
        with pytest.raises(BadConfig):
            extract_epochs(sig, FilterConfig("zff"), detector="wavelet")
