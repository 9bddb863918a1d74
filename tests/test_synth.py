"""Synthetic oracle: impulse trains, voices, and reproducibility."""

import numpy as np
import pytest

from zfepoch import BadSpec, SynthSpec, impulse_train, speaker, synth_voice


class TestImpulseTrain:
    def test_constant_100hz_one_second(self):
        spec = SynthSpec(duration_s=1.0, pitch_contour=100.0, sample_rate_hz=16000.0)
        signal, truth = impulse_train(spec)
        assert len(truth) == 100
        assert np.allclose(np.diff(truth.times_s), 0.01, atol=1e-12)
        assert truth.times_s[0] == 0.0
        nz = np.nonzero(signal.samples)[0]
        assert len(nz) == 100
        assert np.all(signal.samples[nz] == -1.0)

    def test_linear_contour_count(self):
        # integral of f0 from 100 to 150 Hz over 1 s is 125 periods
        spec = SynthSpec(duration_s=1.0, pitch_contour=[(0.0, 100.0), (1.0, 150.0)],
                         sample_rate_hz=16000.0)
        _, truth = impulse_train(spec)
        assert len(truth) == 125

    def test_zero_duration(self):
        signal, truth = impulse_train(SynthSpec(duration_s=0.0))
        assert len(signal) == 0 and len(truth) == 0

    def test_reproducible(self):
        spec = SynthSpec(duration_s=1.0, pitch_contour=110.0, jitter_fraction=0.03,
                         seed=42)
        s1, t1 = impulse_train(spec)
        s2, t2 = impulse_train(spec)
        assert np.array_equal(s1.samples, s2.samples)
        assert np.array_equal(t1.times_s, t2.times_s)

    def test_seed_changes_jitter(self):
        base = dict(duration_s=1.0, pitch_contour=110.0, jitter_fraction=0.03)
        _, t1 = impulse_train(SynthSpec(seed=1, **base))
        _, t2 = impulse_train(SynthSpec(seed=2, **base))
        assert not np.array_equal(t1.times_s, t2.times_s)

    def test_jitter_bounds(self):
        j = 0.04
        spec = SynthSpec(duration_s=2.0, pitch_contour=120.0, jitter_fraction=j, seed=3)
        _, truth = impulse_train(spec)
        intervals = np.diff(truth.times_s)
        period = 1.0 / 120.0
        assert np.all(intervals >= period * (1 - j) - 1e-12)
        assert np.all(intervals <= period * (1 + j) + 1e-12)

    def test_callable_contour(self):
        spec = SynthSpec(duration_s=1.0,
                         pitch_contour=lambda t: 100.0 + 10.0 * np.sin(2 * np.pi * t))
        _, truth = impulse_train(spec)
        assert 95 <= len(truth) <= 105


class TestBadSpecs:
    def test_bad_rate(self):
        with pytest.raises(BadSpec):
            SynthSpec(duration_s=1.0, sample_rate_hz=0.0)

    @pytest.mark.parametrize("fs", [float("inf"), float("nan"), -16000.0])
    def test_rate_not_positive_and_finite(self, fs):
        # an infinite rate would overflow int() in impulse_train
        with pytest.raises(BadSpec, match="sample_rate_hz"):
            impulse_train(speaker("A", 1.0, sample_rate_hz=fs))

    @pytest.mark.parametrize("duration_s,fs", [(1.0, 1e300), (1e300, 16000.0),
                                                (2.0, 2.0**60)])
    def test_more_samples_than_one_array_holds(self, duration_s, fs):
        # np.arange would fail with ValueError, not a config fault
        with pytest.raises(BadSpec, match="more samples than one array can hold"):
            SynthSpec(duration_s=duration_s, sample_rate_hz=fs)

    def test_bad_jitter(self):
        with pytest.raises(BadSpec):
            SynthSpec(duration_s=1.0, jitter_fraction=0.06)

    def test_formant_above_nyquist(self):
        with pytest.raises(BadSpec):
            SynthSpec(duration_s=1.0, sample_rate_hz=8000.0,
                      formant_poles=((4000.0, 100.0),))

    def test_nonpositive_contour(self):
        with pytest.raises(BadSpec):
            impulse_train(SynthSpec(duration_s=1.0, pitch_contour=lambda t: t - 0.5))

    def test_switch_needs_after(self):
        with pytest.raises(BadSpec):
            SynthSpec(duration_s=1.0, formant_switch_s=0.5)

    def test_noninteger_seed(self):
        with pytest.raises(BadSpec):
            SynthSpec(duration_s=1.0, seed=1.5)

    @pytest.mark.parametrize("snr_db", [float("nan"), float("inf"), float("-inf"),
                                        -4000.0, 4000.0])
    def test_noise_snr_without_a_noise_level(self, snr_db):
        # 10 ** (snr / 10) is NaN, infinite or zero, or overflows
        with pytest.raises(BadSpec):
            SynthSpec(duration_s=1.0, noise_snr_db=snr_db)


class TestSynthVoice:
    def test_identity_without_formants(self):
        spec = SynthSpec(duration_s=0.5, pitch_contour=120.0, seed=4)
        train, t_truth = impulse_train(spec)
        voice, v_truth = synth_voice(spec)
        assert np.array_equal(train.samples, voice.samples)
        assert np.array_equal(t_truth.times_s, v_truth.times_s)

    def test_formants_keep_ground_truth(self):
        plain = SynthSpec(duration_s=0.5, pitch_contour=120.0, seed=4)
        shaped = SynthSpec(duration_s=0.5, pitch_contour=120.0, seed=4,
                           formant_poles=((800.0, 100.0),))
        _, t_plain = impulse_train(plain)
        voice, t_shaped = synth_voice(shaped)
        assert np.array_equal(t_plain.times_s, t_shaped.times_s)
        # resonance smears each impulse across many samples
        assert np.count_nonzero(voice.samples) > 10 * len(t_shaped)

    def test_noise_snr_close_to_requested(self):
        clean_spec = SynthSpec(duration_s=1.0, pitch_contour=120.0, seed=5,
                               formant_poles=((800.0, 100.0),))
        noisy_spec = SynthSpec(duration_s=1.0, pitch_contour=120.0, seed=5,
                               formant_poles=((800.0, 100.0),), noise_snr_db=20.0)
        clean, _ = synth_voice(clean_spec)
        noisy, _ = synth_voice(noisy_spec)
        noise = noisy.samples - clean.samples
        snr = 10.0 * np.log10(np.mean(clean.samples**2) / np.mean(noise**2))
        assert snr == pytest.approx(20.0, abs=1.0)

    def test_noise_level_overflow(self):
        # the SNR is a float ratio, but this loud a voice makes the
        # noise's standard deviation overflow
        spec = SynthSpec(duration_s=0.2, pitch_contour=100.0,
                         formant_poles=((800.0, 10.0),), noise_snr_db=-3079.0)
        with pytest.raises(BadSpec):
            synth_voice(spec)

    def test_formant_switch(self):
        spec = SynthSpec(duration_s=1.0, pitch_contour=120.0, seed=6,
                         formant_poles=((800.0, 100.0),),
                         formant_switch_s=0.5,
                         formant_poles_after=((1200.0, 150.0),))
        voice, truth = synth_voice(spec)
        fixed = SynthSpec(duration_s=1.0, pitch_contour=120.0, seed=6,
                          formant_poles=((800.0, 100.0),))
        fixed_voice, fixed_truth = synth_voice(fixed)
        assert np.array_equal(truth.times_s, fixed_truth.times_s)
        split = int(0.5 * 16000)
        assert np.array_equal(voice.samples[:split], fixed_voice.samples[:split])
        assert not np.array_equal(voice.samples[split:], fixed_voice.samples[split:])


class TestSpeakers:
    def test_pitch_ranges_distinct(self):
        _, ta = impulse_train(speaker("A", 2.0, seed=0))
        _, tb = impulse_train(speaker("B", 2.0, seed=0))
        mean_a = np.mean(np.diff(ta.times_s))
        mean_b = np.mean(np.diff(tb.times_s))
        assert mean_a == pytest.approx(1.0 / 110.0, rel=0.05)
        assert mean_b == pytest.approx(1.0 / 190.0, rel=0.05)

    def test_speaker_streams_distinct_at_same_seed(self):
        sa = speaker("A", 1.0, seed=7)
        sb = speaker("B", 1.0, seed=7)
        assert sa.seed != sb.seed

    def test_case_insensitive(self):
        assert speaker("a", 1.0).jitter_fraction == speaker("A", 1.0).jitter_fraction

    def test_unknown_speaker(self):
        with pytest.raises(BadSpec):
            speaker("C", 1.0)
