"""Reference zff pipeline that runs the r = 1 cascade and then detrends.

This is the pipeline's original implementation, kept only so tests can
hold the single-FIR zff to it. The cascade's output grows like n^3, so
the direct path loses precision as the input grows; past
SEGMENT_THRESHOLD_S it runs in padded segments instead. The truncated
history of each segment leaves a cubic transient, which two symmetric
detrend passes annihilate at points more than 2N samples inside the
padding.
"""

import numpy as np
from scipy.signal import lfilter

from zfepoch import SampledSignal, differentiate, trim_ends

SEGMENT_THRESHOLD_S = 60.0
SEGMENT_LENGTH_S = 10.0

_UNIT_SOS = [1.0, -2.0, 1.0]


def _detrend_array(x, n_half):
    # running mean over a +/- n_half window, truncated at the ends
    width = 2 * n_half + 1
    sums = np.convolve(x, np.ones(width), mode="same")
    idx = np.arange(len(x))
    counts = np.minimum(idx + n_half, len(x) - 1) - np.maximum(idx - n_half, 0) + 1
    return x - sums / counts


def _cascade_and_detrend(x, n_half, passes):
    for _ in range(2):
        x = lfilter([1.0], _UNIT_SOS, x)
    for _ in range(passes):
        x = _detrend_array(x, n_half)
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
    n_half = int(round(config.detrend_window_s * fs / 2.0))
    if pre.duration_s > SEGMENT_THRESHOLD_S:
        y = _segmented(pre.samples, fs, n_half, config)
    else:
        y = _cascade_and_detrend(pre.samples, n_half, config.detrend_passes)
    return trim_ends(SampledSignal(y, fs, pre.start_time_s), config.trim_s)
