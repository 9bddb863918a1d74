"""Reference filter pipelines, kept only so tests can hold the real ones to them.

old_zff_pipeline is zff's original implementation: the r = 1 cascade,
then the detrend passes. The cascade's output grows like n^3, so the
direct path loses precision as the input grows; past
SEGMENT_THRESHOLD_S it runs in padded segments instead. The truncated
history of each segment leaves a cubic transient, which two symmetric
detrend passes annihilate at points more than 2N samples inside the
padding.

old_zfr_pipeline is zfr's original implementation: the radius-r
cascade 1/(1 - r z^-1)^4, then the detrend passes, each over the whole
buffer. extended_precision_pipeline runs the same stages in
np.longdouble, as a reference for the float64 pipelines.

whole_buffer_pipeline runs each method's stages over the whole buffer
at once, as the pipelines did before they worked block by block, with
the FIR and every detrend window summed directly. The pipelines compute
the FIR by FFT and the detrend sums as running sums, so their output
must match this one within 1e-10 of its peak, with the same epochs
within 1e-9 s; old_detrend likewise holds detrend to 1e-10 of its peak.
For zff at one pass with pre-emphasis it sums the FIR over
x[k + 1] - x[0] and integrates once, the same filter as the difference
and the double integrator: integrated twice, the rounding of the direct
sums drifted 6.5e-9 of the peak from a long-double run over 50 s.
"""

import numpy as np
from scipy.signal import lfilter

from zfepoch import SampledSignal, differentiate, trim_ends
from zfepoch.filters import _ringout_length, _zff_kernel

SEGMENT_THRESHOLD_S = 60.0
SEGMENT_LENGTH_S = 10.0


def _resonator_sos(r):
    return [1.0, -2.0 * r, r * r]


def old_cascaded_resonator(x, r, order_pairs):
    """The double-pole recursion order_pairs times over the whole buffer."""
    for _ in range(order_pairs):
        x = lfilter([1.0], _resonator_sos(r), x)
    return x


def old_detrend(x, n_half):
    """Running mean over a +/- n_half window, truncated at the ends, subtracted."""
    sums = np.convolve(x, np.ones(2 * n_half + 1), mode="same")
    idx = np.arange(len(x))
    counts = np.minimum(idx + n_half, len(x) - 1) - np.maximum(idx - n_half, 0) + 1
    return x - sums / counts


def old_zero_phase_double_pole(x, r):
    """One double-pole section forward, rung out, then backward."""
    a = _resonator_sos(r)
    tail = _ringout_length(r)
    y, state = lfilter([1.0], a, x, zi=np.zeros(2))
    ring, _ = lfilter([1.0], a, np.zeros(tail), zi=state)
    y = np.concatenate([y, ring])
    y = lfilter([1.0], a, y[::-1])[::-1]
    return y[: len(x)]


def _half_width(fs, config):
    return int(round(config.detrend_window_s * fs / 2.0))


def _cascade_and_detrend(x, n_half, passes):
    x = old_cascaded_resonator(x, 1.0, 2)
    for _ in range(passes):
        x = old_detrend(x, n_half)
    return x


def _segmented(x, fs, n_half, config):
    seg = int(round(SEGMENT_LENGTH_S * fs))
    # padding covers twice the edge trim and the passes' contamination depth
    pad = max(
        int(round(2.0 * config.trim_s * fs)),
        config.detrend_passes * n_half + 2 * n_half + 2,
    )
    out = np.empty_like(x)
    for start in range(0, len(x), seg):
        stop = min(start + seg, len(x))
        lo = max(start - pad, 0)
        hi = min(stop + pad, len(x))
        piece = _cascade_and_detrend(x[lo:hi], n_half, config.detrend_passes)
        out[start:stop] = piece[start - lo : stop - lo]
    return out


def old_zff_pipeline(signal, config):
    """zff as cascade then detrend passes, segmented past the threshold.

    Assumes an input long enough for the detrend window and the trim.
    """
    pre = differentiate(signal) if config.preemphasis else signal
    fs = pre.sample_rate_hz
    n_half = _half_width(fs, config)
    if pre.duration_s > SEGMENT_THRESHOLD_S:
        y = _segmented(pre.samples, fs, n_half, config)
    else:
        y = _cascade_and_detrend(pre.samples, n_half, config.detrend_passes)
    return trim_ends(SampledSignal(y, fs, pre.start_time_s), config.trim_s)


def old_zfr_pipeline(signal, config):
    """zfr as the radius-r cascade then the detrend passes.

    Assumes an input long enough for the detrend window and the trim.
    """
    pre = differentiate(signal) if config.preemphasis else signal
    y = old_cascaded_resonator(pre.samples, config.r, 2)
    for _ in range(config.detrend_passes):
        y = old_detrend(y, _half_width(pre.sample_rate_hz, config))
    return trim_ends(SampledSignal(y, pre.sample_rate_hz, pre.start_time_s), config.trim_s)


def extended_precision_pipeline(x, fs, config):
    """zfr or zff, untrimmed, as cascade then detrend passes in np.longdouble."""
    y = np.asarray(x, dtype=np.longdouble)
    if config.preemphasis:
        y = np.diff(y)
    y = old_cascaded_resonator(y, config.r, 2)
    for _ in range(config.detrend_passes):
        y = old_detrend(y, _half_width(fs, config))
    return y


def whole_buffer_pipeline(signal, config):
    """config.method's pipeline with every stage over the whole buffer.

    Assumes a valid config and an input long enough for the detrend
    window and the trim.
    """
    pre = differentiate(signal) if config.preemphasis else signal
    fs = pre.sample_rate_hz
    n_half = _half_width(fs, config)
    x = pre.samples
    if config.method == "zpzfr":
        y = old_zero_phase_double_pole(x, config.r)
        passes = config.detrend_passes
    else:
        # the FIR q^m, the two radius-r sections, and the passes beyond two
        m = min(config.detrend_passes, 2)
        offset = m * n_half
        a = _resonator_sos(config.r)
        sections = [b for b in ([1.0, -2.0, 1.0], [1.0, -2.0, 1.0] if m == 2 else [1.0])
                    if b != a]
        u = x
        if config.preemphasis and config.r == 1.0 and m == 1:
            # the pre-emphasis and the double integrator together are one
            # integrator over x[k + 1] - x[0], held at its last value: the
            # rounding of the sums is integrated once, not twice
            raw = signal.samples
            u = np.concatenate((raw[1:] - raw[0], np.full(offset, raw[-1] - raw[0])))
            sections, a = [[1.0]], [1.0, -1.0]
        y = np.convolve(u, _zff_kernel(n_half, m))[: offset + len(x)]
        for b in sections:
            y = lfilter(b, a, y)
        y = y[offset:]
        passes = config.detrend_passes - 2
    for _ in range(passes):
        y = old_detrend(y, n_half)
    return trim_ends(SampledSignal(y, fs, pre.start_time_s), config.trim_s)
