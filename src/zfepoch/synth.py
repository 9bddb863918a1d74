"""Synthetic voiced-speech generator with exact ground-truth epochs.

Real recordings verify epoch extraction against an EGG reference; at
desk scale that role is played by construction. A pitch contour is
integrated into glottal-closure instants, impulses are placed at those
instants, and an optional resonator cascade plus noise turns the train
into a speech-like signal whose true epochs are known exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import BadSpec, EpochSequence, SampledSignal

# Impulses use the glottal-closure polarity: each closure is a sharp
# drop of airflow, so the excitation samples are -1, not +1. The causal
# pipelines put their positive zero crossing at the instant only for
# this sign.
IMPULSE_AMPLITUDE = -1.0

# the most samples one float64 array can hold
_MAX_SAMPLES = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize

PitchContour = float | Callable[[np.ndarray], np.ndarray] | Sequence[tuple[float, float]]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic utterance.

    pitch_contour is a constant in Hz, a callable t -> f0(t), or a
    sequence of (time_s, f0_hz) breakpoints interpolated linearly.
    jitter_fraction perturbs each pitch period multiplicatively by up to
    that fraction. formant_poles lists (frequency_hz, bandwidth_hz)
    two-pole resonators applied in cascade; formant_switch_s with
    formant_poles_after swaps in a second cascade mid-signal to mimic a
    time-varying tract. noise_snr_db adds white noise at that SNR.
    """

    duration_s: float
    pitch_contour: PitchContour = 120.0
    sample_rate_hz: float = 16000.0
    jitter_fraction: float = 0.0
    formant_poles: tuple[tuple[float, float], ...] = ()
    noise_snr_db: float | None = None
    seed: int = 0
    formant_switch_s: float | None = None
    formant_poles_after: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if not 0.0 < self.sample_rate_hz < math.inf:
            raise BadSpec(f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}")
        if self.duration_s < 0.0 or not math.isfinite(self.duration_s):
            raise BadSpec(f"duration_s must be >= 0, got {self.duration_s}")
        # an exact comparison: a float this large is a whole number
        if not self.duration_s * self.sample_rate_hz <= _MAX_SAMPLES:
            raise BadSpec(
                f"{self.duration_s} s at {self.sample_rate_hz} Hz is more samples "
                f"than one array can hold ({_MAX_SAMPLES})"
            )
        if not 0.0 <= self.jitter_fraction <= 0.05:
            raise BadSpec(f"jitter_fraction must be in [0, 0.05], got {self.jitter_fraction}")
        for poles in (self.formant_poles, self.formant_poles_after or ()):
            for f_hz, bw_hz in poles:
                if not 0.0 < f_hz < self.sample_rate_hz / 2.0:
                    raise BadSpec(f"formant frequency {f_hz} Hz outside (0, fs/2)")
                if not bw_hz > 0.0:
                    raise BadSpec(f"formant bandwidth must be positive, got {bw_hz}")
        # past +/-3080 dB the power ratio 10 ** (snr / 10) overflows or rounds to 0
        snr, limit = self.noise_snr_db, 10 * sys.float_info.max_10_exp
        if snr is not None and not abs(snr) < limit:
            raise BadSpec(f"noise_snr_db must lie within +/-{limit} dB, got {snr}")
        if self.formant_switch_s is not None:
            if self.formant_poles_after is None:
                raise BadSpec("formant_switch_s needs formant_poles_after")
            if not 0.0 < self.formant_switch_s < self.duration_s:
                raise BadSpec("formant_switch_s must fall inside the signal")
        if int(self.seed) != self.seed:
            raise BadSpec(f"seed must be an integer, got {self.seed!r}")


def _contour_values(spec: SynthSpec, t: np.ndarray) -> np.ndarray:
    contour = spec.pitch_contour
    if callable(contour):
        f0 = np.asarray(contour(t), dtype=np.float64)
        if f0.shape != t.shape:
            f0 = np.broadcast_to(f0, t.shape).astype(np.float64)
    elif isinstance(contour, (int, float)):
        f0 = np.full_like(t, float(contour))
    else:
        points = np.asarray(contour, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise BadSpec("breakpoint contour must be a sequence of (time_s, f0_hz)")
        f0 = np.interp(t, points[:, 0], points[:, 1])
    if t.size and (not np.all(np.isfinite(f0)) or np.min(f0) <= 0.0):
        raise BadSpec("pitch contour must be positive and finite throughout")
    return f0


def _rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    jitter_seq, noise_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(jitter_seq), np.random.default_rng(noise_seq)


def impulse_train(spec: SynthSpec) -> tuple[SampledSignal, EpochSequence]:
    """Excitation impulses at pitch-contour closure instants.

    Closure times come from integrating f0(t): each unit of accumulated
    phase is one period. Per-period jitter rescales the intervals
    reproducibly from spec.seed. The signal holds a unit-magnitude
    impulse at the nearest sample to each instant; the returned epoch
    sequence carries the exact times.
    """
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_s * fs))
    if n == 0:
        return (
            SampledSignal(np.zeros(0), fs),
            EpochSequence(np.empty(0), fs),
        )
    t = np.arange(n) / fs
    f0 = _contour_values(spec, t)
    phase = np.concatenate([[0.0], np.cumsum((f0[1:] + f0[:-1]) / (2.0 * fs))])
    count = int(np.floor(phase[-1])) + 1
    times = np.interp(np.arange(count), phase, t)

    if spec.jitter_fraction > 0.0 and count > 1:
        rng_jitter, _ = _rngs(spec.seed)
        factors = 1.0 + spec.jitter_fraction * rng_jitter.uniform(-1.0, 1.0, count - 1)
        times = np.concatenate([[times[0]], times[0] + np.cumsum(np.diff(times) * factors)])

    times = times[(times >= 0.0) & (times < spec.duration_s - 0.5 / fs)]
    samples = np.zeros(n)
    samples[np.round(times * fs).astype(int)] = IMPULSE_AMPLITUDE
    return SampledSignal(samples, fs), EpochSequence(times, fs)


def _formant_cascade(x: np.ndarray, poles, fs: float) -> np.ndarray:
    from scipy.signal import lfilter

    for f_hz, bw_hz in poles:
        rho = math.exp(-math.pi * bw_hz / fs)
        theta = 2.0 * math.pi * f_hz / fs
        x = lfilter([1.0], [1.0, -2.0 * rho * math.cos(theta), rho * rho], x)
    return x


def synth_voice(spec: SynthSpec) -> tuple[SampledSignal, EpochSequence]:
    """Impulse train shaped by the formant cascade, plus optional noise.

    Ground-truth epochs pass through unchanged; filtering moves energy
    around but not the excitation instants.
    """
    train, truth = impulse_train(spec)
    samples = train.samples
    if spec.formant_switch_s is not None:
        split = int(round(spec.formant_switch_s * spec.sample_rate_hz))
        samples = np.concatenate([
            _formant_cascade(samples[:split], spec.formant_poles, spec.sample_rate_hz),
            _formant_cascade(samples[split:], spec.formant_poles_after, spec.sample_rate_hz),
        ])
    elif spec.formant_poles:
        samples = _formant_cascade(samples, spec.formant_poles, spec.sample_rate_hz)
    if spec.noise_snr_db is not None and len(samples):
        _, rng_noise = _rngs(spec.seed)
        power = float(np.mean(samples**2))
        sigma = math.sqrt(power / 10.0 ** (spec.noise_snr_db / 10.0))
        if not math.isfinite(sigma):
            raise BadSpec(f"noise at {spec.noise_snr_db} dB SNR overflows")
        samples = samples + rng_noise.normal(0.0, sigma, len(samples))
    return SampledSignal(samples, spec.sample_rate_hz), truth


# Built-in test voices: stable contours two musical fifths apart, with
# different vibrato rates and jitter, standing in for a same-speaker /
# different-speaker pair.
_SPEAKERS = {
    "A": dict(
        base_hz=110.0, vibrato_depth=0.04, vibrato_hz=0.6, vibrato_phase=0.0,
        jitter=0.02, formants=((800.0, 100.0),), seed_salt=0,
    ),
    "B": dict(
        base_hz=190.0, vibrato_depth=0.05, vibrato_hz=0.8, vibrato_phase=1.0,
        jitter=0.03, formants=((1100.0, 120.0),), seed_salt=101_117,
    ),
}


def speaker(
    name: str,
    duration_s: float,
    seed: int = 0,
    noise_snr_db: float | None = None,
    sample_rate_hz: float = 16000.0,
) -> SynthSpec:
    """SynthSpec for built-in voice "A" or "B"."""
    key = str(name).strip().upper()
    if key not in _SPEAKERS:
        raise BadSpec(f"unknown speaker {name!r}; choose A or B")
    p = _SPEAKERS[key]

    def contour(t, p=p):
        vibrato = np.sin(2.0 * np.pi * p["vibrato_hz"] * t + p["vibrato_phase"])
        return p["base_hz"] * (1.0 + p["vibrato_depth"] * vibrato)

    return SynthSpec(
        duration_s=duration_s,
        pitch_contour=contour,
        sample_rate_hz=sample_rate_hz,
        jitter_fraction=p["jitter"],
        formant_poles=p["formants"],
        noise_snr_db=noise_snr_db,
        seed=int(seed) + p["seed_salt"],
    )
