"""Filter stages, pipelines, and analytic characterization.

Closed-form oracles: the impulse response of 1/(1-rz^-1)^2 is (n+1)r^n
and of 1/(1-rz^-1)^4 is C(n+3,3)r^n (binomial series); the detrend and
trim examples are evaluated by hand.
"""

import functools
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.fft import next_fast_len

from zfepoch import (
    BadConfig,
    BadMethod,
    BadRadius,
    FilterConfig,
    NonFinite,
    OmegaOutOfRange,
    SampledSignal,
    SynthSpec,
    TooShort,
    TrimTooLarge,
    WindowTooLarge,
    cascaded_resonator,
    detect_negative_peaks,
    detect_positive_zero_crossings,
    detrend,
    differentiate,
    extract_epochs,
    frequency_response,
    impulse_train,
    pole_report,
    run_pipeline,
    speaker,
    synth_voice,
    trim_ends,
    zff_pipeline,
    zfr_pipeline,
    zpzfr_pipeline,
)
from filter_oracle import (
    SEGMENT_THRESHOLD_S,
    extended_precision_pipeline,
    old_cascaded_resonator,
    old_detrend,
    old_zero_phase_double_pole,
    old_zff_pipeline,
    old_zfr_pipeline,
    whole_buffer_pipeline,
)
from zfepoch import core, filters
from zfepoch import epochs as zf_epochs
from zfepoch.filters import _BLOCK, _FRAME, _zff_kernel


def unit_impulse(n, fs=1000.0):
    x = np.zeros(n)
    x[0] = 1.0
    return SampledSignal(x, fs)


class TestDifferentiate:
    def test_constant_to_zero(self):
        out = differentiate(SampledSignal([5.0, 5.0, 5.0], 100.0))
        assert np.array_equal(out.samples, [0.0, 0.0])

    def test_ramp_to_constant(self):
        out = differentiate(SampledSignal([0.0, 1.0, 2.0, 3.0], 100.0))
        assert np.array_equal(out.samples, [1.0, 1.0, 1.0])

    def test_impulse_to_doublet(self):
        out = differentiate(SampledSignal([0.0, 1.0, 0.0, 0.0], 100.0))
        assert np.array_equal(out.samples, [1.0, -1.0, 0.0])

    def test_advances_start_time_one_sample(self):
        out = differentiate(SampledSignal([0.0, 1.0], 100.0, start_time_s=0.5))
        assert out.start_time_s == pytest.approx(0.5 + 0.01)

    def test_too_short(self):
        with pytest.raises(TooShort):
            differentiate(SampledSignal([1.0], 100.0))


class TestCascadedResonator:
    def test_binomial_closed_form_two_pairs_r1(self):
        got = cascaded_resonator(unit_impulse(101), 1.0, 2).samples
        want = np.array([math.comb(n + 3, 3) for n in range(101)], dtype=float)
        assert np.max(np.abs(got - want) / want) <= 1e-12
        assert got[:5].tolist() == [1.0, 4.0, 10.0, 20.0, 35.0]

    @pytest.mark.parametrize("r", [0.5, 0.95, 0.99])
    def test_single_pair_closed_form(self, r):
        got = cascaded_resonator(unit_impulse(101), r, 1).samples
        n = np.arange(101)
        want = (n + 1) * r**n
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_two_pairs_closed_form_r097(self):
        got = cascaded_resonator(unit_impulse(101), 0.97, 2).samples
        n = np.arange(101)
        want = np.array([math.comb(k + 3, 3) for k in n]) * 0.97**n
        assert np.max(np.abs(got - want) / want) <= 1e-12

    def test_zeros_stay_zero(self):
        out = cascaded_resonator(SampledSignal(np.zeros(50), 100.0), 0.97, 2)
        assert np.array_equal(out.samples, np.zeros(50))

    def test_bad_radius(self):
        with pytest.raises(BadRadius):
            cascaded_resonator(unit_impulse(10), 0.0, 2)
        with pytest.raises(BadRadius):
            cascaded_resonator(unit_impulse(10), 1.2, 2)

    def test_bad_order(self):
        with pytest.raises(BadConfig):
            cascaded_resonator(unit_impulse(10), 0.97, 0)


class TestDetrend:
    def test_constant_to_zero(self):
        # window chosen so N = 1 and the 5-sample precondition holds
        out = detrend(SampledSignal([7.0] * 5, 1.0), window_s=2.0)
        assert np.allclose(out.samples, 0.0, atol=1e-15)

    def test_ramp_interior_zero(self):
        out = detrend(SampledSignal([0.0, 1.0, 2.0, 3.0, 4.0], 1.0), window_s=2.0)
        assert np.allclose(out.samples[1:-1], 0.0, atol=1e-15)

    def test_unit_sample_window1(self):
        # direct evaluation with N = 1 truncated windows
        out = detrend(SampledSignal([0.0, 0.0, 1.0, 0.0, 0.0], 1.0), window_s=2.0)
        want = [0.0, -1.0 / 3.0, 2.0 / 3.0, -1.0 / 3.0, 0.0]
        assert np.allclose(out.samples, want, atol=1e-15)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            detrend(SampledSignal(np.ones(100), 16000.0), window_s=0.015)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_windows_of_zeros_give_exact_zeros(self, monkeypatch, workers):
        # the direct sum over zero samples is exactly 0; running sums leave
        # rounding noise there. Gaps at both ends, across block edges, and
        # of exactly N + 1 samples, the fewest a truncated window holds
        _use_workers(monkeypatch, workers)
        monkeypatch.setattr(filters, "_BLOCK", 64)
        x = np.cumsum(np.random.default_rng(workers).normal(size=1000))
        n_half = 10
        x[: n_half + 1] = x[-n_half - 1 :] = x[50:90] = x[120:141] = x[600:700] = 0.0
        got = detrend(SampledSignal(x, 1.0), 2 * n_half + 0.1).samples
        window_nonzeros = np.convolve(x != 0, np.ones(2 * n_half + 1), mode="same")
        assert np.count_nonzero(window_nonzeros == 0) == 2 + 20 + 1 + 80
        assert np.all(got[window_nonzeros == 0] == 0.0)
        assert np.count_nonzero(got == 0.0) == np.count_nonzero(window_nonzeros == 0)
        assert_matches_old_detrend(got, x, n_half)

    def test_output_does_not_depend_on_the_block_size(self, monkeypatch):
        # the rows of running sums start at multiples of the window width
        x = np.cumsum(np.random.default_rng(2).normal(size=5000))
        sig = SampledSignal(x, 16000.0)
        want = detrend(sig, 0.0015).samples
        for block in (64, 100, 1000):
            monkeypatch.setattr(filters, "_BLOCK", block)
            assert np.array_equal(detrend(sig, 0.0015).samples, want)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="np.longdouble is no wider than float64 here")
    def test_large_trend_matches_extended_precision(self):
        # the r = 1 cascade grows like n^3, and its detrended output is
        # about 1e-3 of it: a running sum over the whole input would cancel
        # catastrophically against that trend
        x = np.random.default_rng(4).normal(size=300_000)
        trend = cascaded_resonator(SampledSignal(x, 16000.0), 1.0, 2)
        got = detrend(trend, 0.015).samples
        want = old_detrend(trend.samples.astype(np.longdouble), 120)
        assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) <= 1e-10

    def test_window_of_three_seconds_at_44k(self):
        # 132301 samples, wider than a block; the direct sum costs O(N)
        # per sample here
        fs = 44100.0
        x = np.cumsum(np.random.default_rng(6).normal(size=int(3.5 * fs)))
        got = detrend(SampledSignal(x, fs), 3.0).samples
        assert_matches_old_detrend(got, x, int(round(3.0 * fs / 2.0)))


class TestTrimEnds:
    def test_arithmetic(self):
        sig = SampledSignal(np.arange(1000, dtype=float), 1000.0)
        out = trim_ends(sig, 0.015)
        assert len(out) == 970
        assert out.start_time_s == pytest.approx(0.015)
        assert out.samples[0] == 15.0

    def test_zero_trim_identity(self):
        sig = SampledSignal(np.arange(10, dtype=float), 1000.0)
        out = trim_ends(sig, 0.0)
        assert np.array_equal(out.samples, sig.samples)
        assert out.start_time_s == 0.0

    def test_trim_too_large(self):
        with pytest.raises(TrimTooLarge):
            trim_ends(SampledSignal(np.ones(20), 1000.0), 0.015)


@pytest.mark.parametrize("method,pipeline", [
    ("zfr", zfr_pipeline), ("zff", zff_pipeline), ("zpzfr", zpzfr_pipeline),
])
class TestPipelinesCommon:
    def test_zeros_to_zeros(self, method, pipeline):
        sig = SampledSignal(np.zeros(8000), 16000.0)
        out = pipeline(sig, FilterConfig(method))
        assert np.allclose(out.samples, 0.0, atol=1e-18)

    def test_method_mismatch_rejected(self, method, pipeline):
        other = {"zfr": "zff", "zff": "zpzfr", "zpzfr": "zfr"}[method]
        with pytest.raises(BadMethod):
            pipeline(SampledSignal(np.zeros(8000), 16000.0), FilterConfig(other))

    def test_linearity(self, method, pipeline):
        rng = np.random.default_rng(7)
        fs = 8000.0
        x = rng.normal(size=800)
        y = rng.normal(size=800)
        a, b = 1.7, -0.6
        cfg = FilterConfig(method)
        mixed = pipeline(SampledSignal(a * x + b * y, fs), cfg).samples
        parts = a * pipeline(SampledSignal(x, fs), cfg).samples \
            + b * pipeline(SampledSignal(y, fs), cfg).samples
        scale = np.max(np.abs(parts))
        assert np.max(np.abs(mixed - parts)) / scale <= 1e-9

    def test_output_offset_accounts_for_trim(self, method, pipeline):
        sig = SampledSignal(np.random.default_rng(0).normal(size=4000), 8000.0)
        cfg = FilterConfig(method)
        out = pipeline(sig, cfg)
        expected = round(cfg.trim_s * 8000) / 8000.0
        if cfg.preemphasis:
            expected += 1 / 8000.0
        assert out.start_time_s == pytest.approx(expected, abs=1e-12)


class TestZffBehavior:
    def test_voiced_signal_has_no_residual_trend(self):
        # output fluctuates about zero: the tail is not blowing up
        sig, _ = synth_voice(speaker("A", 0.1, seed=3))
        out = zff_pipeline(sig, FilterConfig("zff")).samples
        fs = 16000
        last = np.max(np.abs(out[-int(0.01 * fs):]))
        middle = np.max(np.abs(out[len(out) // 2 - int(0.005 * fs):
                                   len(out) // 2 + int(0.005 * fs)]))
        assert last <= 10.0 * middle

    def test_long_signal_matches_segmented_oracle(self):
        # past the old segmentation threshold the FIR must still carry
        # epochs at the same instants as the segmented reference run
        fs = 2000.0
        duration = SEGMENT_THRESHOLD_S + 1.0
        spec_cfg = FilterConfig("zff")
        train, _ = impulse_train(
            SynthSpec(duration_s=duration, pitch_contour=100.0,
                      sample_rate_hz=fs, jitter_fraction=0.02, seed=5)
        )
        fir = zff_pipeline(train, spec_cfg)
        segmented = old_zff_pipeline(train, spec_cfg)

        t_fir = detect_positive_zero_crossings(fir).times_s
        t_seg = detect_positive_zero_crossings(segmented).times_s
        assert len(t_fir) == len(t_seg)
        assert np.max(np.abs(t_fir - t_seg)) <= 0.00025
        rel = np.max(np.abs(fir.samples - segmented.samples))
        assert rel / np.max(np.abs(segmented.samples)) <= 1e-2

    @pytest.mark.parametrize("method,passes,sections", [
        ("zff", 1, 1), ("zff", 2, 0), ("zff", 3, 0), ("zfr", 1, 0), ("zfr", 3, 0),
    ])
    def test_sections_whose_zeros_cancel_their_poles_are_skipped(self, monkeypatch, method,
                                                                 passes, sections):
        # at r = 1 such a section is an exact identity, so only its cost
        # shows; zfr's sections decay, so they are folded into its FIR, and
        # only zff's double integrator at one pass still runs recursively.
        # A silence gap makes no recursion run either
        real = filters.lfilter
        calls = []
        monkeypatch.setattr(filters, "lfilter",
                            lambda b, a, x, zi: calls.append(b) or real(b, a, x, zi=zi))
        x = np.random.default_rng(0).normal(size=4000)
        x[1000:1600] = 0.0
        sig = SampledSignal(x, 8000.0)
        run_pipeline(sig, FilterConfig(method, detrend_passes=passes))
        assert len(calls) == sections

    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("fs", [8000.0, 11025.0, 16000.0, 44100.0])
    def test_fir_matches_cascade_then_detrend(self, passes, fs):
        # untrimmed, so the edge zones of passes * N samples are visible;
        # away from them the FIR and the direct reference agree
        x = np.random.default_rng(passes).normal(size=int(0.12 * fs))
        cfg = FilterConfig("zff", detrend_passes=passes, trim_s=0.0)
        fir = zff_pipeline(SampledSignal(x, fs), cfg).samples
        ref = old_zff_pipeline(SampledSignal(x, fs), cfg).samples
        assert len(fir) == len(ref)
        edge = passes * int(round(cfg.detrend_window_s * fs / 2.0))
        inner = slice(edge, len(ref) - edge)
        err = np.max(np.abs(fir[inner] - ref[inner]))
        assert err <= 1e-7 * np.max(np.abs(ref[inner]))


class TestZfrBehavior:
    @pytest.mark.parametrize("r,passes,recursive", [(0.995, 1, 1), (0.995, 2, 0), (0.999, 2, 2),
                                                    (0.999, 1, 2)])
    def test_sections_that_outlast_the_fold_cap_run_recursively(self, monkeypatch, r, passes,
                                                                recursive):
        # at r = 0.995 only the lone pole pair of one pass decays too
        # slowly to fold, at r = 0.999 both sections do: they run over the
        # whole FIR output, between silences. At one pass and r = 0.999
        # they multiply the FFT's rounding by their DC gain, 1e6, so that
        # case alone is held to 1e-9 of the peak
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # outside the recommended range
            cfg = FilterConfig("zfr", r=r, detrend_passes=passes)
        voice, _ = synth_voice(speaker("A", 1.0, seed=5, noise_snr_db=20.0))
        gap = np.zeros(4800)
        sig = SampledSignal(np.concatenate((gap, voice.samples, gap, voice.samples)), 16000.0)
        # the FIR's output: m*N = 120 * passes samples more than the
        # pre-emphasized input
        output = 120 * passes + len(sig) - 1
        real = filters._lfilter_blocks
        whole = []

        def counted(sections, x, out, zi=None):
            if len(x) == output:
                whole.extend(sections)
            return real(sections, x, out, zi)

        monkeypatch.setattr(filters, "_lfilter_blocks", counted)
        got = run_pipeline(sig, cfg)
        assert len(whole) == recursive
        want = whole_buffer_pipeline(sig, cfg)
        assert_matches_oracle(got, want, "zfr", 1e-9 if (r, passes) == (0.999, 1) else 1e-10)

    def test_repeat_extraction_reuses_the_kernel(self, monkeypatch):
        # the folded kernel depends on (N, m, r) alone: a 2 s lock clip
        # would otherwise spend as long building it as filtering
        filters._causal_filter.cache_clear()
        real = filters._section_response
        calls = []
        monkeypatch.setattr(filters, "_section_response",
                            lambda b, r: calls.append(r) or real(b, r))
        sig, _ = synth_voice(speaker("A", 2.0, seed=5, noise_snr_db=20.0))
        first = extract_epochs(sig, FilterConfig("zfr"))
        assert len(calls) == 2
        again = extract_epochs(sig, FilterConfig("zfr"))
        assert len(calls) == 2
        assert np.array_equal(first.times_s, again.times_s)
        extract_epochs(sig, FilterConfig("zfr", detrend_window_s=0.01))
        assert len(calls) == 4
        kernel = filters._causal_filter(120, 2, 0.97)[0]
        assert len(kernel) == 3057 and not kernel.flags.writeable

    @pytest.mark.parametrize("source", ["noise", "A", "B"])
    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("fs", [8000.0, 11025.0, 16000.0, 44100.0])
    def test_matches_cascade_then_detrend(self, source, passes, fs):
        # the FIR and the sections against the cascade they replace:
        # trimming exactly the edge zones of passes * N samples leaves the
        # samples on which the two must agree, and the epochs they carry
        if source == "noise":
            sig = SampledSignal(np.random.default_rng(passes).normal(size=int(0.5 * fs)), fs)
        else:
            sig, _ = synth_voice(speaker(source, 0.5, seed=5, noise_snr_db=20.0,
                                         sample_rate_hz=fs))
        edge = passes * int(round(0.015 * fs / 2.0))
        for r in (0.95, 0.97, 0.99):
            cfg = FilterConfig("zfr", r=r, detrend_passes=passes, trim_s=edge / fs)
            got = zfr_pipeline(sig, cfg)
            want = old_zfr_pipeline(sig, cfg)
            assert len(got) == len(want) and got.start_time_s == want.start_time_s
            err = np.max(np.abs(got.samples - want.samples))
            assert err <= 1e-9 * np.max(np.abs(want.samples))
            t_got = detect_positive_zero_crossings(got).times_s
            t_want = detect_positive_zero_crossings(want).times_s
            assert len(t_got) == len(t_want) > 0
            assert np.max(np.abs(t_got - t_want)) <= 1e-9


class TestValidateOnce:
    """An extraction reads its input for finiteness once, at entry.

    No stage checks the arrays the pipeline makes: the causal pipelines
    check their output once, and detrend checks each block of its
    output. A public stage called on its own still rejects a NaN or an
    infinity, wherever it sits.
    """

    N = 5 * _BLOCK + 123

    @pytest.mark.parametrize("method,passes,most", [
        ("zfr", 1, 3), ("zfr", 2, 3), ("zfr", 3, 3), ("zff", 1, 3), ("zff", 2, 3),
        ("zff", 3, 3), ("zpzfr", 2, 2),
    ])
    def test_full_length_finiteness_passes(self, monkeypatch, method, passes, most):
        # a pass reads at least half the input; detrend's and the
        # detectors' block checks read a block at a time, in cache, and
        # do not count (see test_detectors_check_only_blocks). A finite
        # input never needs a whole-array isfinite mask
        sig = SampledSignal(np.random.default_rng(4).normal(size=self.N), 16000.0)
        real_check, real_isfinite = core.all_finite, np.isfinite
        checks, masks = [], []

        def check(samples):
            checks.append(len(samples))
            return real_check(samples)

        def isfinite(x, *args, **kwargs):
            masks.append(np.size(x))
            return real_isfinite(x, *args, **kwargs)

        monkeypatch.setattr(core, "all_finite", check)
        monkeypatch.setattr(filters, "all_finite", check)
        monkeypatch.setattr(np, "isfinite", isfinite)
        extract_epochs(sig, FilterConfig(method, detrend_passes=passes))
        assert 1 <= sum(n >= self.N // 2 for n in checks) <= most
        assert max(masks) == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first_block", "middle_block", "last_block"])
    def test_non_finite_input_is_reported_as_input(self, bad, where):
        x = np.random.default_rng(5).normal(size=self.N)
        x[{"first_block": 7, "middle_block": self.N // 2, "last_block": self.N - 1}[where]] = bad
        sig = SampledSignal(x, 16000.0)
        calls = {
            "detrend": lambda: detrend(sig, 0.015),
            "differentiate": lambda: differentiate(sig),
            "trim_ends": lambda: trim_ends(sig, 0.015),
            "crossings": lambda: detect_positive_zero_crossings(sig),
            "negative_peaks": lambda: detect_negative_peaks(sig),
        }
        for method in ("zfr", "zff", "zpzfr"):
            calls[method] = lambda method=method: run_pipeline(sig, FilterConfig(method))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, call in calls.items():
                with pytest.raises(NonFinite, match="^signal contains NaN or infinite samples$"):
                    call()


class TestInputRange:
    @pytest.mark.parametrize("method", ["zfr", "zff"])
    def test_fft_overflow_raises_non_finite(self, method):
        # each FFT frame sums thousands of samples times the kernel's gain:
        # 5.9e6 at 0 Hz for zff; zfr's kernel has none there, so it holds
        # out to a larger scale. A float64 overflow, never silent garbage
        sig, _ = synth_voice(speaker("A", 1.0, seed=3, noise_snr_db=20.0))
        scale = {"zfr": 1e302, "zff": 1e300}[method]
        with pytest.raises(NonFinite):
            run_pipeline(SampledSignal(sig.samples * scale, sig.sample_rate_hz),
                         FilterConfig(method))

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("method,scale", [("zfr", 1e302), ("zff", 1e300), ("zfr", 1e303),
                                              ("zff", 1e303), ("zpzfr", 1e303)])
    def test_overflow_is_reported_as_overflow(self, monkeypatch, method, scale, workers):
        # the input is finite, so its samples are not to blame, and no
        # numpy warning may escape from any thread
        _use_workers(monkeypatch, workers)
        sig, _ = synth_voice(speaker("A", 5.0, seed=3, noise_snr_db=20.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"^the {method} filter overflowed"):
                run_pipeline(SampledSignal(sig.samples * scale, sig.sample_rate_hz),
                             FilterConfig(method))

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_overflowing_pre_emphasis_is_reported_as_overflow(self, method):
        sig = SampledSignal(np.tile([1.5e308, -1.5e308], 8000), 16000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match=f"^the {method} filter overflowed"):
                run_pipeline(sig, FilterConfig(method, preemphasis=True))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_detrend_overflow_raises(self, monkeypatch, workers):
        # five blocks of 1.5e308 and 1e307: every 241-sample window sum
        # overflows float64
        _use_workers(monkeypatch, workers)
        x = np.repeat([1.5e308, 1e307, 1.5e308, 1e307, 1.5e308], filters._BLOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite, match="^detrend overflowed"):
                detrend(SampledSignal(x, 16000.0), 0.015)
            # scaled so that zpzfr's resonator stays finite and its
            # detrend overflows
            with pytest.raises(NonFinite, match="^the zpzfr filter overflowed"):
                run_pipeline(SampledSignal(x * 1e-8, 16000.0), FilterConfig("zpzfr"))

    @pytest.mark.parametrize("method", ["zfr", "zff"])
    def test_huge_input_keeps_the_oracle_epochs(self, method):
        sig, _ = synth_voice(speaker("A", 1.0, seed=3, noise_snr_db=20.0))
        sig = SampledSignal(sig.samples * 1e290, sig.sample_rate_hz)
        cfg = FilterConfig(method)
        assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("duration_s", [1.0, 5.0])
    def test_zfr_at_1e300_keeps_the_unscaled_epochs(self, duration_s):
        # zfr's one kernel has no gain at 0 Hz, so a scale at which zff's
        # frames overflow leaves zfr's output a scaled copy
        sig, _ = synth_voice(speaker("A", duration_s, seed=3, noise_snr_db=20.0))
        cfg = FilterConfig("zfr")
        huge = run_pipeline(SampledSignal(sig.samples * 1e300, sig.sample_rate_hz), cfg)
        t_huge = detect_positive_zero_crossings(huge).times_s
        t_want = detect_positive_zero_crossings(run_pipeline(sig, cfg)).times_s
        assert len(t_huge) == len(t_want) > 0
        assert np.max(np.abs(t_huge - t_want)) <= 1e-9

    @pytest.mark.parametrize("window_s", [1e-9, 1.0 / 16000.0])
    def test_sub_sample_window_rejected(self, window_s):
        # N = round(window_s * fs / 2) = 0: a one-tap window subtracts each
        # sample from itself and every method would output zeros
        sig, _ = synth_voice(speaker("A", 1.0, seed=3))
        with pytest.raises(BadConfig):
            detrend(sig, window_s)
        for method in ("zfr", "zff", "zpzfr"):
            with pytest.raises(BadConfig):
                run_pipeline(sig, FilterConfig(method, detrend_window_s=window_s))

    def test_window_of_one_sample_each_side_runs(self):
        sig, _ = synth_voice(speaker("A", 1.0, seed=3))
        out = detrend(sig, 1.01 / 16000.0)
        assert_matches_old_detrend(out.samples, sig.samples, 1)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("method,r", [("zff", None), ("zfr", 0.95), ("zfr", 0.99)])
def test_three_passes_match_extended_precision(method, r):
    # a third pass folded into the FIR costs precision at wide windows
    fs = 44100.0
    x = np.random.default_rng(3).normal(size=int(0.12 * fs))
    cfg = FilterConfig(method, r=r, detrend_passes=3, trim_s=0.0)
    got = run_pipeline(SampledSignal(x, fs), cfg).samples
    ref = extended_precision_pipeline(x, fs, cfg)
    edge = 3 * int(round(cfg.detrend_window_s * fs / 2.0))
    inner = slice(edge, len(ref) - edge)
    err = np.max(np.abs(got[inner] - ref[inner])) / np.max(np.abs(ref[inner]))
    assert float(err) <= 1e-10


@pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
def test_output_independent_of_input_length(method):
    # the last 2 s of a 30 s voice filtered alone must match the 30 s
    # run away from the excerpt's edges: no stage may lose precision
    # as the input grows
    sig, _ = synth_voice(speaker("A", 30.0, seed=3))
    fs = sig.sample_rate_hz
    cut = len(sig) - int(2.0 * fs)
    tail = SampledSignal(sig.samples[cut:], fs, start_time_s=cut / fs)
    cfg = FilterConfig(method)
    whole = run_pipeline(sig, cfg)
    part = run_pipeline(tail, cfg)
    shift = int(round((part.start_time_s - whole.start_time_s) * fs))
    margin = int(0.25 * fs)
    inner = part.samples[margin:-margin]
    same = whole.samples[shift + margin : shift + len(part) - margin]
    assert np.max(np.abs(same - inner)) <= 1e-9 * np.max(np.abs(inner))


# the zff kernel has 477 taps at two passes of 15 ms at 16 kHz, and the
# detrend window 241: 400 samples fit the window but not the kernel;
# the other lengths sit on the edges of one, two and four blocks, and of
# one, two and four FFT frames of _FRAME samples, all within one block
_KERNEL = len(_zff_kernel(120, 2))
BLOCK_LENGTHS = [k * size + d for size in (_FRAME, _BLOCK) for k, d in
                 [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (4, _KERNEL)]] + [400]


# FIR output lengths on either side of one and four frame hops of that
# kernel, of one hop into the second block, and of one and two hops of
# zfr's kernel, which folds in two radius-0.97 sections of 1291 taps.
# Each length is on an edge for frames of _FRAME samples and blocks of
# _BLOCK, or for frames and blocks a quarter that size, at which it runs
def _hop(kernel, frame):
    return next_fast_len(max(frame, 8 * kernel), real=True) - kernel + 1


_ZFR_KERNEL = _KERNEL + 2 * (len(filters._section_response([1.0, -2.0, 1.0], 0.97)) - 1)
FRAME_LENGTHS = [
    pytest.param((k + d, frame), id=str(k + d))
    for frame in (_FRAME // 4, _FRAME)
    for k in (_hop(_KERNEL, frame), 4 * _hop(_KERNEL, frame),
              frame * _BLOCK // _FRAME + _hop(_KERNEL, frame),
              _hop(_ZFR_KERNEL, frame), 2 * _hop(_ZFR_KERNEL, frame))
    for d in (-1, 0, 1)
]


def _epochs(filtered, method):
    detect = detect_negative_peaks if method == "zpzfr" else detect_positive_zero_crossings
    return detect(filtered).times_s


def assert_matches_oracle(got, want, method, rel=1e-10):
    """got matches the whole-buffer oracle to a tolerance.

    zfr and zff run their FIR by FFT, and detrend its window sums as
    running sums, where the oracle sums both directly, so the output may
    differ by rel (1e-10) of its peak and carries the same epochs within
    1e-9 s.
    """
    assert len(got) == len(want) and got.start_time_s == want.start_time_s
    err = np.max(np.abs(got.samples - want.samples))
    assert err <= rel * np.max(np.abs(want.samples))
    t_got, t_want = _epochs(got, method), _epochs(want, method)
    assert len(t_got) == len(t_want)
    assert np.all(np.abs(t_got - t_want) <= 1e-9)


# (input, method) of test_digital_silence. A constant is a run of zeros
# only to the pre-emphasized methods; zpzfr filters the constant itself.
# The silences of seven seconds put zpzfr's resonator pieces far from
# any voice
SILENCE_CASES = [
    (order, method)
    for order in ["voice_then_silence", "silence_then_voice", "silence_inside", "gap_of_600",
                  "gap_longer_than_block", "silence_inside_at_44k", "voice_then_long_silence",
                  "long_silence_then_voice", "constant_inside"]
    for method in ["zfr", "zff", "zpzfr"]
] + [("voice_then_silence_past_reach", "zpzfr"), ("silence_past_reach_then_voice", "zpzfr")]


class TestBlockwiseMatchesWholeBuffer:
    """The block-wise stages against the whole-buffer oracle.

    cascaded_resonator's blocks carry their state, so they do the whole
    buffer's arithmetic and must match exactly at the block-edge
    lengths; so must zpzfr's resonator on an input of one piece. Its
    pieces of a longer input start from zero state a ring-out length
    outside their outputs, and match to 1e-12 of the peak. detrend and
    the three pipelines match to the tolerance of assert_matches_oracle.
    """

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_voices_bit_identical(self, method, name):
        sig, _ = synth_voice(speaker(name, 10.0, seed=5, noise_snr_db=20.0))
        cfg = FilterConfig(method)
        assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("trim_s", [0.0, 0.010])
    @pytest.mark.parametrize("fs", [8000.0, 11025.0, 16000.0, 44100.0])
    def test_configs(self, method, passes, trim_s, fs):
        x = np.random.default_rng(passes).normal(size=_BLOCK + int(0.2 * fs))
        sig = SampledSignal(x, fs)
        cfg = FilterConfig(method, detrend_passes=passes, trim_s=trim_s)
        assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_block_edge_lengths(self, method, n):
        sig = SampledSignal(np.random.default_rng(n).normal(size=n), 16000.0)
        cfg = FilterConfig(method, trim_s=0.0)
        assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("method", ["zfr", "zff"])
    @pytest.mark.parametrize("fir_frame", FRAME_LENGTHS)
    def test_frame_edge_lengths(self, monkeypatch, method, fir_frame):
        # the FIR's output holds the pre-emphasized input and 2N = 240 more
        fir, frame = fir_frame
        monkeypatch.setattr(filters, "_FRAME", frame)
        monkeypatch.setattr(filters, "_BLOCK", frame * _BLOCK // _FRAME)
        sig = SampledSignal(np.random.default_rng(fir).normal(size=fir - 239), 16000.0)
        cfg = FilterConfig(method, trim_s=0.0)
        assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("order,method", SILENCE_CASES)
    def test_digital_silence(self, monkeypatch, method, order):
        # a direct sum over a window of exact zeros is exactly 0, where
        # the FFT and the resonator pieces leave rounding noise that
        # crosses zero every few samples; the detectors' band reads it as
        # 0, so the raw outputs agree to the oracle's tolerance and the
        # epochs are the same. Silences shorter than zfr's 3057-tap
        # kernel and longer than a block are covered. Pre-emphasis runs
        # inside the FFT frames, so a constant, differenced there, is a
        # run of zeros too; zpzfr filters the constant to a level of
        # about 1e-14 of the peak. zpzfr's passes run in pieces of
        # _BLOCK samples, and a long silence at either end puts a
        # piece's edge deep inside it, where the piece starts from zero
        # state. Blocks of 32768 samples put piece edges both near the
        # 1 s voice and seconds away from it
        block = 1 << 15
        monkeypatch.setattr(filters, "_BLOCK", block)
        fs = 44100.0 if order == "silence_inside_at_44k" else 16000.0
        sig, _ = synth_voice(speaker("A", 1.0, seed=5, noise_snr_db=20.0, sample_rate_hz=fs))
        x = sig.samples
        gap = np.zeros({"gap_of_600": 600, "gap_longer_than_block": block + 1000,
                        "voice_then_long_silence": block + 2000,
                        "long_silence_then_voice": block + 2000,
                        "voice_then_silence_past_reach": 7 * 16000,
                        "silence_past_reach_then_voice": 7 * 16000}.get(order, int(0.3 * fs)))
        if order == "constant_inside":
            gap = np.full(int(fs), 0.25)
        parts = {"voice_then_silence": (x, gap), "silence_then_voice": (gap, x),
                 "voice_then_long_silence": (x, gap), "long_silence_then_voice": (gap, x),
                 "voice_then_silence_past_reach": (x, gap),
                 "silence_past_reach_then_voice": (gap, x)}.get(order, (x, gap, x))
        sig = SampledSignal(np.concatenate(parts), fs)
        for passes in (1, 2, 3):
            cfg = FilterConfig(method, detrend_passes=passes)
            assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("order", ["voice_then_silence", "silence_then_voice",
                                       "silence_inside"])
    def test_digital_silence_at_three_passes(self, method, order):
        # the third pass runs detrend on the sections' output; the
        # oracle's is exactly 0 over silence wherever no section rings
        # into it, where the pipeline's holds the FFT's rounding noise
        sig, _ = synth_voice(speaker("A", 1.0, seed=5, noise_snr_db=20.0))
        x, gap = sig.samples, np.zeros(int(0.3 * sig.sample_rate_hz))
        parts = {"voice_then_silence": (x, gap), "silence_then_voice": (gap, x),
                 "silence_inside": (x, gap, x)}[order]
        sig = SampledSignal(np.concatenate(parts), sig.sample_rate_hz)
        cfg = FilterConfig(method, detrend_passes=3)
        got, want = run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg)
        if method == "zff" or (method, order) == ("zfr", "silence_then_voice"):
            assert np.count_nonzero(want.samples == 0.0) > 4000
        assert_matches_oracle(got, want, method)

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("window_s", [0.005, 0.015])
    def test_detrend(self, n, window_s):
        x = np.cumsum(np.random.default_rng(n).normal(size=n))
        got = detrend(SampledSignal(x, 16000.0), window_s).samples
        assert_matches_old_detrend(got, x, int(round(window_s * 16000.0 / 2.0)))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("r,pairs", [(0.97, 2), (1.0, 2), (0.9, 3)])
    def test_cascaded_resonator(self, n, r, pairs):
        x = np.random.default_rng(n).normal(size=n)
        got = cascaded_resonator(SampledSignal(x, 16000.0), r, pairs).samples
        assert np.array_equal(got, old_cascaded_resonator(x, r, pairs))

    @pytest.mark.parametrize("n", [1, 2, _BLOCK // 4 - 1, _BLOCK // 4, _BLOCK - 1, _BLOCK])
    def test_zero_phase_resonator_of_one_piece(self, n):
        # one recursion each way, as over the whole buffer, at lengths up
        # to one piece
        x = np.random.default_rng(n).normal(size=n)
        got = filters._zero_phase_double_pole(x, 0.97)
        assert np.array_equal(got, old_zero_phase_double_pole(x, 0.97))

    @pytest.mark.parametrize("r", [0.9, 0.97, 0.99])
    def test_zero_phase_resonator_in_pieces(self, monkeypatch, r):
        # six pieces of _BLOCK samples, the last of 477, at each r: eight
        # ring-out lengths are at most 39760 samples, at r = 0.99
        x = np.random.default_rng(7).normal(size=5 * _BLOCK + 477)
        want = old_zero_phase_double_pole(x, r)
        got = []
        for workers in (1, 2, 4):
            _use_workers(monkeypatch, workers)
            got.append(filters._zero_phase_double_pole(x, r))
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(got[0], got[1]) and np.array_equal(got[0], got[2])


def assert_matches_old_detrend(got, x, n_half):
    want = old_detrend(x, n_half)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(filters, "_worker_count", lambda blocks: min(workers, blocks))


class TestThreadedBlocks:
    """Convolution blocks spread over threads give the one-thread output."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_bit_identical_at_any_worker_count(self, monkeypatch, method, workers):
        sig = SampledSignal(np.random.default_rng(workers).normal(size=5 * _BLOCK + 477), 16000.0)
        cfg = FilterConfig(method)
        _use_workers(monkeypatch, 1)
        one = run_pipeline(sig, cfg).samples
        _use_workers(monkeypatch, workers)
        got = run_pipeline(sig, cfg)
        assert np.array_equal(got.samples, one)
        assert_matches_oracle(got, whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("method", ["zfr", "zff"])
    def test_fir_longer_than_block(self, monkeypatch, method, workers):
        # the 477- and 3057-tap kernels widen each frame past _FRAME, to
        # eight times their length; 64-sample blocks spread the frames,
        # three of them for zfr, over the workers
        _use_workers(monkeypatch, workers)
        monkeypatch.setattr(filters, "_BLOCK", 64)
        monkeypatch.setattr(filters, "_FRAME", 64)
        sig = SampledSignal(np.random.default_rng(workers).normal(size=50_000), 16000.0)
        cfg = FilterConfig(method, trim_s=0.0)
        assert_matches_oracle(run_pipeline(sig, cfg), whole_buffer_pipeline(sig, cfg), method)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fft_blocks_match_direct_convolution(self, monkeypatch, workers):
        # kernels shorter and longer than a block and than half a frame,
        # for the full output, the input's length and one sample, over an
        # input with gaps of zeros
        _use_workers(monkeypatch, workers)
        monkeypatch.setattr(filters, "_BLOCK", 64)
        monkeypatch.setattr(filters, "_FRAME", 128)
        rng = np.random.default_rng(workers)
        x = rng.normal(size=700)
        x[100:110] = x[200:500] = 0.0
        for m in (1, 5, 63, 64, 65, 100, 300):
            kernel = rng.normal(size=m)
            full = np.convolve(x, kernel)
            for length in (len(full), len(x), 1):
                out = np.empty(length)
                filters._fft_fir(x, kernel, out)
                want = full[:length]
                assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_block_starts_no_thread(self, monkeypatch):
        # every stage of the lock's 2 s clip runs on the calling thread;
        # counting starts also catches a thread joined before the call
        # returns
        starts = []
        start = threading.Thread.start

        def counted(thread):
            starts.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        sig, _ = synth_voice(speaker("A", 2.0, seed=3, noise_snr_db=20.0))
        before = threading.active_count()
        for method in ("zfr", "zff", "zpzfr"):
            run_pipeline(sig, FilterConfig(method))
            # and the detector on its output, both detectors across the methods
            assert len(extract_epochs(sig, FilterConfig(method))) > 0
        assert threading.active_count() == before
        assert starts == []

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_helpers_call_no_wrapped_name(self, monkeypatch, method):
        # a traced benchmark run wraps these names in spans kept for one
        # thread; a span opened on a helper would close out of order.
        # Three passes run detrend in every method
        _use_workers(monkeypatch, 2)
        callers = []

        def recorded(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                callers.append(threading.current_thread())
                return fn(*args, **kwargs)
            return wrapper

        for owner, name in [(filters, "validate_signal"), (zf_epochs, "validate_signal"),
                            (filters, "detrend"), (core.SampledSignal, "__post_init__"),
                            (core.EpochSequence, "__post_init__")]:
            monkeypatch.setattr(owner, name, recorded(getattr(owner, name)))
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread.name) or start(thread))
        sig = SampledSignal(np.random.default_rng(6).normal(size=3 * _BLOCK), 16000.0)
        for passes in (2, 3):
            extract_epochs(sig, FilterConfig(method, detrend_passes=passes))
        assert starts and callers
        assert set(callers) == {threading.current_thread()}

    def test_one_piece_of_two_blocks_starts_no_thread(self, monkeypatch):
        # at r = 0.998 a resonator piece is eight ring-out lengths, 198920
        # samples: an input of two blocks is still one piece
        assert 8 * filters._ringout_length(0.998) > _BLOCK + 5000
        starts = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: starts.append(thread.name) or start(thread))
        x = np.random.default_rng(3).normal(size=_BLOCK + 5000)
        got = filters._zero_phase_double_pole(x, 0.998)
        assert starts == []
        assert np.array_equal(got, old_zero_phase_double_pole(x, 0.998))

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        _use_workers(monkeypatch, 2)

        def block(i, j):
            if i == _BLOCK:  # the second piece, a helper's
                raise ZeroDivisionError(threading.current_thread().name)

        with pytest.raises(ZeroDivisionError, match="^zfepoch"):
            filters._run_blocks(2 * _BLOCK, _BLOCK, block)

    def test_every_piece_runs_once(self, monkeypatch):
        # workers take the pieces as they finish theirs; four workers on
        # fewer cores, switching every microsecond, lose and repeat none
        _use_workers(monkeypatch, 4)
        monkeypatch.setattr(filters, "_BLOCK", 64)
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran.clear()
                filters._run_blocks(500 * 64 + 7, 64, lambda i, j: ran.append((i, j)))
                assert sorted(ran) == [(i, min(i + 64, 500 * 64 + 7))
                                       for i in range(0, 500 * 64 + 7, 64)]
        finally:
            sys.setswitchinterval(interval)

    def test_a_slow_worker_runs_fewer_pieces(self, monkeypatch):
        # as on a CPU busy with other work: the caller does not wait for
        # a helper's share of the pieces, it runs them itself
        _use_workers(monkeypatch, 2)
        helper = []

        def block(i, j):
            if threading.current_thread() is not threading.main_thread():
                helper.append(i)
                time.sleep(0.05)

        filters._run_blocks(20 * _BLOCK, _BLOCK, block)
        assert helper[:1] == [_BLOCK] and len(helper) <= 3

    def test_caller_exception_waits_for_the_helpers(self, monkeypatch):
        # no helper may still write to an output once _run_blocks returns
        _use_workers(monkeypatch, 2)
        done = []

        def block(i, j):
            if i == 0:
                raise ZeroDivisionError
            time.sleep(0.2)
            done.append(i)

        with pytest.raises(ZeroDivisionError):
            filters._run_blocks(2 * _BLOCK, _BLOCK, block)
        assert done == [_BLOCK]

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_no_helper_outlives_the_call(self, monkeypatch, method):
        _use_workers(monkeypatch, 4)
        sig = SampledSignal(np.random.default_rng(5).normal(size=5 * _BLOCK), 16000.0)
        run_pipeline(sig, FilterConfig(method))
        assert not [t.name for t in threading.enumerate() if t.name.startswith("zfepoch")]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_window_wider_than_block(self, monkeypatch, workers):
        # a block then holds one window's row of running sums
        monkeypatch.setattr(filters, "_BLOCK", 64)
        x = np.cumsum(np.random.default_rng(workers).normal(size=300))
        for n_half in (63, 64, 100, 149):
            sig = SampledSignal(x, 16000.0)
            window_s = (2 * n_half + 0.1) / 16000.0
            _use_workers(monkeypatch, 1)
            one = detrend(sig, window_s).samples
            _use_workers(monkeypatch, workers)
            got = detrend(sig, window_s).samples
            assert np.array_equal(got, one)
            assert_matches_old_detrend(got, x, n_half)

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_peak_memory_at_most_workers(self, monkeypatch, method):
        # the peak-memory bound holds on a machine with four or more CPUs
        _use_workers(monkeypatch, filters._MAX_WORKERS)
        test_pipeline_peak_memory_within_two_and_a_half_inputs(method)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the child inherits none of the parent's threads; work queued
        # for one of them would wait forever
        _use_workers(monkeypatch, 2)
        sig = SampledSignal(np.random.default_rng(4).normal(size=3 * _BLOCK), 16000.0)
        cfg = FilterConfig("zff")
        want = run_pipeline(sig, cfg).samples
        with warnings.catch_warnings():
            # Python 3.12 warns about fork() in a process that has threads
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:
                same = np.array_equal(run_pipeline(sig, cfg).samples, want)
            except BaseException:
                same = False
            os._exit(0 if same else 1)
        deadline = time.monotonic() + 60.0
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_concurrent_callers_match_serial(self, monkeypatch):
        # two callers run their pools at once; more workers than this
        # machine's cores and a short switch interval make interleaving likely
        _use_workers(monkeypatch, 4)
        sigs = [SampledSignal(np.random.default_rng(k).normal(size=3 * _BLOCK + 9), 16000.0)
                for k in range(2)]
        cfgs = [FilterConfig("zpzfr"), FilterConfig("zff")]
        want = [run_pipeline(s, c).samples for s, c in zip(sigs, cfgs)]
        got = [[] for _ in sigs]

        def call(k):
            for _ in range(5):
                got[k].append(run_pipeline(sigs[k], cfgs[k]).samples)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(2)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for k in range(2):
            assert len(got[k]) == 5
            assert all(np.array_equal(g, want[k]) for g in got[k])


@pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
def test_pipeline_peak_memory_within_two_and_a_half_inputs(method):
    # no stage may hold more than its own input and output: a stage that
    # copies a read-only input whole, or keeps a finished stage's array,
    # reaches three or more input sizes
    sig = SampledSignal(np.random.default_rng(9).normal(size=60 * 16000), 16000.0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_pipeline(sig, FilterConfig(method))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * sig.samples.nbytes


def _assert_extraction_peak_within_one_and_a_half_inputs_and_two_megabytes(
        monkeypatch, method, workers):
    # the FIR's output is the one input-sized array an extraction adds
    # (1.1 inputs with the detector's block-long masks). Both kernels
    # take 32768-sample frames: each thread holds a frame's spectrum and
    # its frame or output, about 0.5 MB. A differenced copy of the input
    # or a finiteness mask of a whole array shows here
    _use_workers(monkeypatch, workers)
    sig, _ = synth_voice(speaker("A", 60.0, seed=9, noise_snr_db=20.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        extract_epochs(sig, FilterConfig(method))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * sig.samples.nbytes + 2e6


@pytest.mark.parametrize("workers", [1, filters._MAX_WORKERS])
def test_zfr_extraction_peak_memory_within_two_inputs_and_two_megabytes(monkeypatch, workers):
    # the name keeps zfr's first, looser bound; the check is the tighter one
    _assert_extraction_peak_within_one_and_a_half_inputs_and_two_megabytes(
        monkeypatch, "zfr", workers)


@pytest.mark.parametrize("workers", [1, filters._MAX_WORKERS])
def test_zff_extraction_peak_memory_within_one_and_a_half_inputs_and_two_megabytes(
        monkeypatch, workers):
    _assert_extraction_peak_within_one_and_a_half_inputs_and_two_megabytes(
        monkeypatch, "zff", workers)


class TestZpzfrSymmetry:
    def test_palindrome_preserved(self):
        rng = np.random.default_rng(11)
        half = rng.normal(size=8000)
        pal = np.concatenate([half, half[::-1]])
        out = zpzfr_pipeline(SampledSignal(pal, 16000.0), FilterConfig("zpzfr")).samples
        assert np.max(np.abs(out - out[::-1])) <= 1e-9 * np.max(np.abs(out))

    def test_reversal_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=6000)
        cfg = FilterConfig("zpzfr")
        fwd = zpzfr_pipeline(SampledSignal(x, 16000.0), cfg).samples
        rev = zpzfr_pipeline(SampledSignal(x[::-1], 16000.0), cfg).samples
        assert np.max(np.abs(rev - fwd[::-1])) <= 1e-9 * np.max(np.abs(fwd))

    def test_preemphasis_configurable_on(self):
        # spec'd composition with the differentiator stage is reachable
        cfg = FilterConfig("zpzfr", preemphasis=True)
        sig = SampledSignal(np.random.default_rng(1).normal(size=4000), 8000.0)
        out = zpzfr_pipeline(sig, cfg)
        assert len(out) > 0 and cfg.preemphasis


class TestRunPipeline:
    def test_dispatch(self):
        sig = SampledSignal(np.random.default_rng(2).normal(size=4000), 8000.0)
        for method, pipeline in [("zfr", zfr_pipeline), ("zff", zff_pipeline),
                                 ("zpzfr", zpzfr_pipeline)]:
            cfg = FilterConfig(method)
            assert np.array_equal(run_pipeline(sig, cfg).samples,
                                  pipeline(sig, cfg).samples)


class TestFrequencyResponse:
    def test_zfr_dc_limit(self):
        fr = frequency_response("zfr", 0.95, [1e-8])
        assert fr.magnitude[0] == pytest.approx(1.0 / (1.0 - 0.95) ** 4, rel=1e-9)

    def test_zff_phase_at_half_pi(self):
        fr = frequency_response("zff", 1.0, [np.pi / 2.0])
        assert fr.phase_rad[0] == pytest.approx(-np.pi, abs=1e-15)

    def test_zff_phase_slope_two(self):
        w = np.linspace(0.1, 3.0, 200)
        fr = frequency_response("zff", 1.0, w)
        slope = np.polyfit(w, fr.phase_rad, 1)[0]
        assert slope == pytest.approx(2.0, abs=1e-12)

    def test_zpzfr_phase_exactly_zero(self):
        w = np.linspace(0.0, np.pi, 514)[1:-1]
        fr = frequency_response("zpzfr", 0.97, w)
        assert np.max(np.abs(fr.phase_rad)) == 0.0

    def test_zfr_zpzfr_magnitudes_coincide(self):
        # the zero-phase run squares a two-pole response; the causal
        # four-pole cascade has the same modulus
        w = np.linspace(0.2, 3.0, 50)
        assert np.allclose(frequency_response("zfr", 0.97, w).magnitude,
                           frequency_response("zpzfr", 0.97, w).magnitude)

    def test_omega_out_of_range(self):
        for bad in ([0.0], [-0.1], [3.2]):
            with pytest.raises(OmegaOutOfRange):
                frequency_response("zfr", 0.97, bad)

    def test_bad_radius(self):
        with pytest.raises(BadRadius):
            frequency_response("zff", 0.97, [1.0])
        with pytest.raises(BadRadius):
            frequency_response("zfr", 1.0, [1.0])


class TestPoleReport:
    def test_zfr(self):
        rep = pole_report("zfr", 0.97)
        assert rep.poles == ((complex(0.97), 4),)
        assert rep.stable and rep.causal and rep.phase_class == "nonlinear"
        assert rep.describe() == "Causal & Non-linear & Stable"

    def test_zff(self):
        rep = pole_report("zff", 1.0)
        assert rep.poles == ((complex(1.0), 4),)
        assert not rep.stable and rep.causal and rep.phase_class == "linear"
        assert rep.describe() == "Causal & Linear & Unstable"

    def test_zpzfr(self):
        rep = pole_report("zpzfr", 0.95)
        (p1, m1), (p2, m2) = rep.poles
        assert p1 == complex(0.95) and m1 == 2
        assert abs(p2 - 1.0 / 0.95) < 1e-12 and m2 == 2
        assert rep.stable and not rep.causal and rep.phase_class == "zero"
        assert rep.describe() == "Non-causal & Linear (Zero Phase) & Stable"

    def test_bad_radius(self):
        with pytest.raises(BadRadius):
            pole_report("zfr", 1.2)
        with pytest.raises(BadRadius):
            pole_report("zpzfr", 0.0)
