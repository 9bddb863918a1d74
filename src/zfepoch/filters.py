"""Zero-frequency filter pipelines and their analytic characterization.

Three related methods share one recursion, a double pole near 0 Hz:

    y[n] = 2r * y[n-1] - r^2 * y[n-2] + x[n]

* zfr: two cascaded double-pole sections at radius r < 1, run causally.
  Stable, but the pole pair bends the phase response, so detected
  epochs land with a systematic shift.
* zff: the same cascade with r = 1. The poles sit on the unit circle,
  and the running-mean detrender's zeros at z = 1 cancel them exactly,
  so the whole filter runs as one FIR convolution. Linear phase.
* zpzfr: the radius-r double-pole section applied forward and backward
  over the whole buffer, squaring the magnitude and cancelling the
  phase exactly. Non-causal, zero phase.

All pipelines optionally first-difference the input (pre-emphasis),
then filter, then detrend, then trim the edge anomaly. Each stage
returns a new SampledSignal whose start_time_s keeps epoch times in
original-recording coordinates.

The filter stages run over blocks of _BLOCK samples and write into one
preallocated output. Every SampledSignal array is read-only, and
np.convolve and lfilter copy a read-only input whole before they start;
block by block, only one block is copied at a time. So no stage holds
more than its own input and output, and a whole extraction peaks at
about two input-sized arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .core import (
    BadConfig,
    BadMethod,
    BadRadius,
    FilterConfig,
    OmegaOutOfRange,
    SampledSignal,
    TooShort,
    TrimTooLarge,
    WindowTooLarge,
    validate_signal,
)

_TAIL_EPS = 1e-15

# samples per block in the filter stages; any size gives the same output
_BLOCK = 1 << 16


@dataclass(frozen=True)
class FrequencyResponse:
    """Analytic filter response sampled on a frequency grid (rad/sample)."""

    omega_rad: np.ndarray
    magnitude: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega_rad, dtype=np.float64)
        mag = np.asarray(self.magnitude, dtype=np.float64)
        phase = np.asarray(self.phase_rad, dtype=np.float64)
        if not (omega.shape == mag.shape == phase.shape):
            raise BadConfig("omega, magnitude, phase must have equal length")
        for arr, name in ((omega, "omega_rad"), (mag, "magnitude"), (phase, "phase_rad")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PoleReport:
    """Pole locations and the stability/causality/phase classification."""

    poles: tuple[tuple[complex, int], ...]
    stable: bool
    causal: bool
    phase_class: str  # "linear" | "nonlinear" | "zero"

    def describe(self) -> str:
        causal = "Causal" if self.causal else "Non-causal"
        phase = {
            "linear": "Linear",
            "nonlinear": "Non-linear",
            "zero": "Linear (Zero Phase)",
        }[self.phase_class]
        stable = "Stable" if self.stable else "Unstable"
        return f"{causal} & {phase} & {stable}"


def differentiate(signal: SampledSignal) -> SampledSignal:
    """First difference, out[k] = in[k+1] - in[k].

    Output is one sample shorter; its first sample corresponds to the
    instant one sample period after the input's start.
    """
    validate_signal(signal)
    if len(signal) < 2:
        raise TooShort("differentiate needs at least 2 samples")
    out = np.diff(signal.samples)
    return SampledSignal(
        out,
        signal.sample_rate_hz,
        start_time_s=signal.start_time_s + 1.0 / signal.sample_rate_hz,
    )


def _resonator_sos(r: float) -> list[float]:
    # denominator of one double-pole section, 1 - 2r z^-1 + r^2 z^-2
    return [1.0, -2.0 * r, r * r]


def _lfilter_blocks(a, x: np.ndarray, out: np.ndarray, zi=None, reverse: bool = False):
    """lfilter([1], a, x) into out, block by block; returns the final state.

    zi is the initial state (zero if None). reverse runs from the last
    sample to the first, as lfilter over x[::-1] would. out may be x.
    """
    if reverse:
        x, out = x[::-1], out[::-1]
    z = np.zeros(len(a) - 1) if zi is None else zi
    for i in range(0, len(x), _BLOCK):
        out[i : i + _BLOCK], z = lfilter([1.0], a, x[i : i + _BLOCK], zi=z)
    return z


def _convolve_blocks(x: np.ndarray, kernel: np.ndarray, out: np.ndarray, offset: int) -> None:
    """out[i] = np.convolve(x, kernel)[i + offset], block by block.

    Needs offset + len(out) <= len(x) + len(kernel) - 1. Each block
    convolves its slice of x plus the kernel's overlap, and never less
    than len(kernel) samples: a shorter slice makes np.convolve swap its
    operands and round differently from the whole-buffer convolution.
    """
    m = len(kernel)
    for i in range(0, len(out), _BLOCK):
        j = min(i + _BLOCK, len(out))
        hi = min(j + offset, len(x))
        lo = max(min(i + offset - m + 1, hi - m), 0)
        out[i:j] = np.convolve(x[lo:hi], kernel)[i + offset - lo : j + offset - lo]


def cascaded_resonator(signal: SampledSignal, r: float, order_pairs: int) -> SampledSignal:
    """Run the double-pole recursion order_pairs times, zero initial state.

    Each pass contributes a pole pair at z = r, so the cascade has
    2 * order_pairs poles. r = 1 is allowed (the zff case) even though
    the recursion is then unstable; callers are expected to detrend.
    """
    validate_signal(signal)
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"resonator radius needs 0 < r <= 1, got {r}")
    if int(order_pairs) != order_pairs or order_pairs < 1:
        raise BadConfig(f"order_pairs must be an integer >= 1, got {order_pairs}")
    a = _resonator_sos(float(r))
    x = signal.samples
    out = np.empty(len(x))
    # every section runs on a block while it is in cache
    states = [np.zeros(2) for _ in range(int(order_pairs))]
    for i in range(0, len(x), _BLOCK):
        y = x[i : i + _BLOCK]
        for k, z in enumerate(states):
            y, states[k] = lfilter([1.0], a, y, zi=z)
        out[i : i + _BLOCK] = y
    return SampledSignal(out, signal.sample_rate_hz, signal.start_time_s)


def _window_half_width(signal: SampledSignal, window_s: float) -> int:
    # N for a detrend window of window_s seconds that fits in the signal
    if not window_s > 0.0:
        raise BadConfig(f"window_s must be positive, got {window_s}")
    n_half = int(round(window_s * signal.sample_rate_hz / 2.0))
    if len(signal) <= 2 * n_half + 1:
        raise WindowTooLarge(
            f"detrend window of {2 * n_half + 1} samples does not fit in "
            f"signal of {len(signal)} samples"
        )
    return n_half


def detrend(signal: SampledSignal, window_s: float) -> SampledSignal:
    """Subtract the running mean over a window of window_s seconds.

    The window covers N = round(window_s * fs / 2) samples on each side
    and is truncated where it overhangs the signal ends.
    """
    validate_signal(signal)
    n_half = _window_half_width(signal, window_s)
    x = signal.samples
    width = 2 * n_half + 1
    # Sums come from a direct convolution: a cumulative-sum shortcut
    # cancels catastrophically against a large trend.
    out = np.empty(len(x))
    _convolve_blocks(x, np.ones(width), out, n_half)
    # the window covers 2N + 1 samples except within N of either end
    out[n_half : len(x) - n_half] /= width
    counts = np.arange(n_half + 1, width)
    out[:n_half] /= counts
    out[len(x) - n_half :] /= counts[::-1]
    np.subtract(x, out, out=out)
    return SampledSignal(out, signal.sample_rate_hz, signal.start_time_s)


def trim_ends(signal: SampledSignal, trim_s: float) -> SampledSignal:
    """Drop trim_s seconds from each end, keeping the time offset."""
    validate_signal(signal)
    if trim_s < 0.0:
        raise BadConfig(f"trim_s must be >= 0, got {trim_s}")
    if not signal.duration_s > 2.0 * trim_s:
        raise TrimTooLarge(
            f"cannot trim {trim_s} s from each end of a {signal.duration_s} s signal"
        )
    n = int(round(trim_s * signal.sample_rate_hz))
    if n == 0:
        return signal
    out = signal.samples[n:-n]
    return SampledSignal(
        out,
        signal.sample_rate_hz,
        start_time_s=signal.start_time_s + n / signal.sample_rate_hz,
    )


def _ringout_length(r: float) -> int:
    # Smallest K with (K+1) r^K below working precision; the double-pole
    # impulse response envelope is (n+1) r^n.
    if r >= 1.0:
        raise BadRadius("zero-phase section needs r < 1")
    k = max(8, int(math.ceil(math.log(_TAIL_EPS) / math.log(r))))
    while (k + 1) * r**k > _TAIL_EPS:
        k = int(k * 1.2) + 10
    return k


def _zero_phase_double_pole(x: np.ndarray, r: float) -> np.ndarray:
    """One double-pole section forward and backward, tail-extended.

    The forward pass is let ring past the buffer end until its response
    decays below precision before the backward pass runs; truncating the
    tail instead leaves an asymmetric boundary transient far above the
    zero-phase symmetry tolerance. The ring-out only supplies the
    backward pass's state at the buffer end; that pass then runs in
    place over the forward output.
    """
    a = _resonator_sos(r)
    y = np.empty(len(x))
    state = _lfilter_blocks(a, x, y)
    ring, _ = lfilter([1.0], a, np.zeros(_ringout_length(r)), zi=state)
    _, state = lfilter([1.0], a, ring[::-1], zi=np.zeros(2))
    _lfilter_blocks(a, y, y, zi=state, reverse=True)
    return y


def _require_method(config: FilterConfig, method: str) -> None:
    if config.method != method:
        raise BadMethod(f"config.method is {config.method!r}, expected {method!r}")


def _preemphasized(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    return differentiate(signal) if config.preemphasis else signal


def zfr_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Causal radius-r pipeline: difference, resonate, detrend, trim."""
    _require_method(config, "zfr")
    validate_signal(signal)
    out = _preemphasized(signal, config)
    out = cascaded_resonator(out, config.r, order_pairs=2)
    # rebinding out frees each stage's array once the next has its output
    for _ in range(config.detrend_passes):
        out = detrend(out, config.detrend_window_s)
    return trim_ends(out, config.trim_s)


def _zff_kernel(n_half: int, passes: int) -> np.ndarray:
    """FIR equal to `passes` detrend windows over the r = 1 cascade.

    h = delta_N - 1/(2N+1) has a double zero at z = 1, so h / (1 - z^-1)^2
    is the FIR q: the first 2N - 1 taps of h's double running sum. Each
    pass beyond two adds a (1 - z^-1)^2 factor; one pass leaves two poles.
    """
    width = 2 * n_half + 1
    h = np.full(width, -1.0 / width)
    h[n_half] += 1.0
    q = np.cumsum(np.cumsum(h))[: max(width - 2, 1)]
    kernel = np.ones(1)
    for _ in range(passes):
        kernel = np.convolve(kernel, q)
    for _ in range(passes - 2):
        kernel = np.convolve(kernel, [1.0, -2.0, 1.0])
    # windows of a sample or two leave the kernel shorter than its delay
    return np.pad(kernel, (0, max(0, passes * n_half + 1 - len(kernel))))


def zff_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Unit-circle pipeline: difference, resonate at r=1, detrend, trim.

    Resonator and detrend passes run as one convolution with _zff_kernel
    whose sample i + passes*N is output sample i, so precision does not
    depend on the input length. Samples at least passes*N from each end
    (before the trim) equal resonating then detrending, to rounding.
    Nearer the ends the kernel zero-extends the input where detrend
    truncates its window; such samples survive only when
    round(trim_s * fs) < passes*N: trim_s = 0, three or more passes, or
    11.025 kHz at the defaults.
    """
    _require_method(config, "zff")
    validate_signal(signal)
    out = _preemphasized(signal, config)
    passes = config.detrend_passes
    n_half = _window_half_width(out, config.detrend_window_s)
    offset = passes * n_half
    # the leading offset samples are dropped, but the passes == 1
    # integrator needs them for its state
    y = np.empty(offset + len(out))
    _convolve_blocks(out.samples, _zff_kernel(n_half, passes), y, 0)
    if passes == 1:
        _lfilter_blocks(_resonator_sos(1.0), y, y)
    out = SampledSignal(y[offset:], out.sample_rate_hz, out.start_time_s)
    return trim_ends(out, config.trim_s)


def zpzfr_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Zero-phase pipeline: forward-backward resonate, detrend, trim.

    Pre-emphasis is off by default for this method; the symmetric,
    zero-phase output puts a clean negative peak at each excitation
    instant, and a first-difference stage would skew that symmetry.
    """
    _require_method(config, "zpzfr")
    validate_signal(signal)
    if not 0.0 < config.r < 1.0:
        raise BadRadius(f"zpzfr needs 0 < r < 1, got {config.r}")
    out = _preemphasized(signal, config)
    out = SampledSignal(
        _zero_phase_double_pole(out.samples, config.r), out.sample_rate_hz, out.start_time_s
    )
    for _ in range(config.detrend_passes):
        out = detrend(out, config.detrend_window_s)
    return trim_ends(out, config.trim_s)


_PIPELINES = {
    "zfr": zfr_pipeline,
    "zff": zff_pipeline,
    "zpzfr": zpzfr_pipeline,
}


def run_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Dispatch to the pipeline named by config.method."""
    return _PIPELINES[config.method](signal, config)


def _check_omega(omega: np.ndarray) -> np.ndarray:
    omega = np.asarray(omega, dtype=np.float64)
    if omega.size and (np.min(omega) <= 0.0 or np.max(omega) > np.pi):
        raise OmegaOutOfRange("omega grid must lie in (0, pi]")
    return omega


def frequency_response(method: str, r: float, omega_grid) -> FrequencyResponse:
    """Analytic magnitude and phase of the resonator core on a grid.

    All three methods share the magnitude form 1 / (1 - 2r cos w + r^2)^2
    (with r = 1 for zff). Phase: zfr bends as -4 atan(r sin w / (1 - r cos w)),
    zff is the exactly linear r=1 limit 2w - 2pi, zpzfr is identically zero.
    """
    method = str(method).strip().lower()
    omega = _check_omega(omega_grid)
    if method == "zff":
        if r != 1.0:
            raise BadRadius("zff response is defined at r = 1.0")
        magnitude = (2.0 - 2.0 * np.cos(omega)) ** -2.0
        phase = 2.0 * omega - 2.0 * np.pi
    elif method == "zfr":
        if not 0.0 < r < 1.0:
            raise BadRadius(f"zfr needs 0 < r < 1, got {r}")
        magnitude = (1.0 - 2.0 * r * np.cos(omega) + r * r) ** -2.0
        phase = -4.0 * np.arctan2(r * np.sin(omega), 1.0 - r * np.cos(omega))
    elif method == "zpzfr":
        if not 0.0 < r < 1.0:
            raise BadRadius(f"zpzfr needs 0 < r < 1, got {r}")
        magnitude = (1.0 - 2.0 * r * np.cos(omega) + r * r) ** -2.0
        phase = np.zeros_like(omega)
    else:
        raise BadMethod(f"unknown method {method!r}")
    return FrequencyResponse(omega, magnitude, phase)


def pole_report(method: str, r: float) -> PoleReport:
    """Pole layout and Table-style classification for a method.

    zfr: four poles at z = r, causal, phase bent by the pole angle.
    zff: four poles pinned at z = 1 regardless of r, causal, linear
    phase, unstable. zpzfr: double poles at r and 1/r, realized
    non-causally, zero phase.
    """
    method = str(method).strip().lower()
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"pole_report needs 0 < r <= 1, got {r}")
    if method == "zfr":
        poles = ((complex(r), 4),)
        causal, phase_class, stable = True, "nonlinear", r < 1.0
    elif method == "zff":
        poles = ((complex(1.0), 4),)
        causal, phase_class, stable = True, "linear", False
    elif method == "zpzfr":
        if r >= 1.0:
            raise BadRadius("zpzfr needs r < 1 so the mirrored pole sits outside")
        poles = ((complex(r), 2), (complex(1.0 / r), 2))
        # stable: the mirrored pole at 1/r belongs to the anti-causal run
        causal, phase_class, stable = False, "zero", True
    else:
        raise BadMethod(f"unknown method {method!r}")
    return PoleReport(poles=poles, stable=stable, causal=causal, phase_class=phase_class)
