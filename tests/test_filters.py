"""Filter stages, pipelines, and analytic characterization.

Closed-form oracles: the impulse response of 1/(1-rz^-1)^2 is (n+1)r^n
and of 1/(1-rz^-1)^4 is C(n+3,3)r^n (binomial series); the detrend and
trim examples are evaluated by hand.
"""

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

from zfepoch import (
    BadConfig,
    BadMethod,
    BadRadius,
    FilterConfig,
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
    old_cascaded_resonator,
    old_detrend,
    old_zff_pipeline,
    whole_buffer_pipeline,
)
from zfepoch import filters
from zfepoch.filters import _BLOCK, _zff_kernel


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
# the other lengths sit on the edges of one, two and four blocks
_KERNEL = len(_zff_kernel(120, 2))
BLOCK_LENGTHS = [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                 2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
                 4 * _BLOCK + _KERNEL, 400]


def _epochs(filtered, method):
    detect = detect_negative_peaks if method == "zpzfr" else detect_positive_zero_crossings
    return detect(filtered).times_s


class TestBlockwiseMatchesWholeBuffer:
    """The block-wise stages against the whole-buffer oracle.

    Every block convolves at least a kernel's worth of samples, so even
    a last block of one sample does the whole buffer's arithmetic and
    the block-edge lengths must match exactly.
    """

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("name", ["A", "B"])
    def test_voices_bit_identical(self, method, name):
        sig, _ = synth_voice(speaker(name, 10.0, seed=5, noise_snr_db=20.0))
        cfg = FilterConfig(method)
        assert np.array_equal(run_pipeline(sig, cfg).samples,
                              whole_buffer_pipeline(sig, cfg).samples)

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("passes", [1, 2, 3])
    @pytest.mark.parametrize("trim_s", [0.0, 0.010])
    @pytest.mark.parametrize("fs", [8000.0, 11025.0, 16000.0, 44100.0])
    def test_configs(self, method, passes, trim_s, fs):
        x = np.random.default_rng(passes).normal(size=_BLOCK + int(0.2 * fs))
        sig = SampledSignal(x, fs)
        cfg = FilterConfig(method, detrend_passes=passes, trim_s=trim_s)
        got = run_pipeline(sig, cfg)
        want = whole_buffer_pipeline(sig, cfg)
        assert len(got) == len(want)
        assert np.all(np.abs(got.samples - want.samples) <= 1e-12 * np.abs(want.samples))
        assert got.start_time_s == want.start_time_s
        assert np.array_equal(_epochs(got, method), _epochs(want, method))

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    def test_block_edge_lengths(self, method, n):
        sig = SampledSignal(np.random.default_rng(n).normal(size=n), 16000.0)
        cfg = FilterConfig(method, trim_s=0.0)
        assert np.array_equal(run_pipeline(sig, cfg).samples,
                              whole_buffer_pipeline(sig, cfg).samples)

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("window_s", [0.005, 0.015])
    def test_detrend(self, n, window_s):
        x = np.cumsum(np.random.default_rng(n).normal(size=n))
        got = detrend(SampledSignal(x, 16000.0), window_s).samples
        assert np.array_equal(got, old_detrend(x, int(round(window_s * 16000.0 / 2.0))))

    @pytest.mark.parametrize("n", BLOCK_LENGTHS)
    @pytest.mark.parametrize("r,pairs", [(0.97, 2), (1.0, 2), (0.9, 3)])
    def test_cascaded_resonator(self, n, r, pairs):
        x = np.random.default_rng(n).normal(size=n)
        got = cascaded_resonator(SampledSignal(x, 16000.0), r, pairs).samples
        assert np.array_equal(got, old_cascaded_resonator(x, r, pairs))


def _use_workers(monkeypatch, workers):
    monkeypatch.setattr(filters, "_worker_count", lambda blocks: min(workers, blocks))


class TestThreadedBlocks:
    """Convolution blocks spread over threads give the one-thread output."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_bit_identical_at_any_worker_count(self, monkeypatch, method, workers):
        _use_workers(monkeypatch, workers)
        sig = SampledSignal(np.random.default_rng(workers).normal(size=5 * _BLOCK + 477), 16000.0)
        cfg = FilterConfig(method)
        assert np.array_equal(run_pipeline(sig, cfg).samples,
                              whole_buffer_pipeline(sig, cfg).samples)

    def test_one_block_starts_no_thread(self, monkeypatch):
        # a fresh pool would start threads if the lock's 2 s clip used it
        monkeypatch.setattr(filters, "_pool", [])
        sig, _ = synth_voice(speaker("A", 2.0, seed=3, noise_snr_db=20.0))
        before = threading.active_count()
        for method in ("zfr", "zff", "zpzfr"):
            run_pipeline(sig, FilterConfig(method))
        assert threading.active_count() == before
        assert filters._pool == []

    @pytest.mark.parametrize("workers", [1, 4])
    def test_window_wider_than_block(self, monkeypatch, workers):
        # a block whose slice is shorter than the kernel would make
        # np.convolve swap its operands and round differently
        _use_workers(monkeypatch, workers)
        monkeypatch.setattr(filters, "_BLOCK", 64)
        x = np.cumsum(np.random.default_rng(workers).normal(size=300))
        for n_half in (63, 64, 100, 149):
            got = detrend(SampledSignal(x, 16000.0), (2 * n_half + 0.1) / 16000.0).samples
            assert np.array_equal(got, old_detrend(x, n_half))

    @pytest.mark.parametrize("method", ["zfr", "zff", "zpzfr"])
    def test_peak_memory_at_most_workers(self, monkeypatch, method):
        # the peak-memory bound holds on a machine with four or more CPUs
        _use_workers(monkeypatch, filters._MAX_WORKERS)
        test_pipeline_peak_memory_within_two_and_a_half_inputs(method)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        # the child inherits the parent's pool object but none of its
        # threads; work queued on that pool would wait forever
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
        # two callers share the pool; more workers than this machine's
        # cores and a short switch interval make interleaving likely
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
