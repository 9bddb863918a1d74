"""Zero-frequency filter pipelines and their analytic characterization.

Three related methods share one recursion, a double pole near 0 Hz:

    y[n] = 2r * y[n-1] - r^2 * y[n-2] + x[n]

* zfr: two cascaded double-pole sections at radius r < 1, run causally.
  Stable, but the pole pair bends the phase response, so detected
  epochs land with a systematic shift.
* zff: the same cascade with r = 1. The poles sit on the unit circle.
  Linear phase.
* zpzfr: the radius-r double-pole section applied forward and backward
  over the whole buffer, squaring the magnitude and cancelling the
  phase exactly. Non-causal, zero phase.

Every pipeline optionally first-differences the input (pre-emphasis),
filters, and trims the edge anomaly; each stage returns a SampledSignal
whose start_time_s keeps epoch times in original-recording coordinates.
A pipeline reads its input's samples for finiteness once, at entry
(validate_signal: one sum, no mask). No stage re-checks the arrays the
pipeline makes; detrend checks each block of its output, and zfr and
zff check their output once, so a NaN or inf found there means that a
filter overflowed, and is reported as that.
zpzfr resonates, then detrends. zfr and zff share one causal path: a
detrend window has a double zero at z = 1, so the cascade and the first
two passes are one FIR and two radius-r sections whose zeros at z = 1
meet its poles (see _causal_pipeline). At r < 1 the sections decay and
are folded into the kernel, so zfr's whole filter is one FIR (3057
taps at 16 kHz and r = 0.97); at r = 1 they cancel, and zff's kernel is the FIR alone.
No stage carries the cascade's trend, so precision does not depend on
the input length.

The filter stages run over blocks of _BLOCK samples into one
preallocated output. Every SampledSignal array is read-only, and
np.convolve and lfilter copy a read-only input whole; block by block,
only one block is copied, so a zpzfr extraction peaks at about two
input-sized arrays. zfr and zff compute their FIR by FFT overlap-save,
to the tolerance _fft_fir states; their input carries no trend. Each
frame differences its own slice of the raw input, so no pre-emphasized
copy is made, and the FIR's output is the one input-sized array a zfr
or zff extraction adds (zff at one pass adds two; see _causal_pipeline):
with the detector's masks a block long, it peaks at about 1.1 inputs.
A frame holds _FRAME samples or eight kernel lengths, whichever is
more: 32768 for both zff and zfr (eight of zfr's 3057 taps are 24456);
zfr's folded kernel is built once per window, pass count and radius.
Over digital silence the FIR, the resonator pieces and detrend's
running sums leave rounding noise where a direct computation gives
exact zeros; the detectors read it as 0 (see epochs), so silence adds
no false epochs.
detrend's input may carry a large trend, so its window sums are running
sums restarted from a direct sum every window width: O(1) work per
sample, rounding that grows over one window at most, and a result
within 1e-10 of max|out| of the direct sum's. zpzfr's two radius-r
passes are serial recursions; each runs in pieces of _BLOCK samples or
eight ring-out lengths K, whichever is more (K = 1654 at r = 0.97), and
a piece starts from zero state K samples outside its outputs, where
the state it misses has decayed below _TAIL_EPS (see
_zero_phase_double_pole); an input of one piece runs the whole-buffer
recursion. The detrend blocks, the FIR frames, the resonator
pieces and the detectors' blocks (see epochs) are independent, and
numpy, scipy.fft and lfilter release the GIL, so _run_blocks spreads
them over up to min(usable CPUs, 4) threads: the caller and a pool that
lives only for that call. Each thread takes the next piece as it
finishes one, so a thread whose CPU is busy with other work holds up no
stage. Each numpy or scipy call takes the GIL back when it ends, so the
pieces are made long enough that the threads run side by side: with
32768-sample blocks, detrend ran 0.8-1.1 times as fast on two threads as
on one; with 131072-sample blocks, 1.45-1.8 times (see README). On one
CPU the resonator's pieces cost about what the whole-buffer recursion
does. Every piece does the same arithmetic on any thread, so the output
is bit-identical at any thread count. An input of one block or one
piece, up to 8 s at 16 kHz and so every 2 s lock clip, starts no
thread. Each extra thread adds about 0.5 MB to a zfr or zff peak, a
frame's spectrum and output, and up to about 1 MB to a zpzfr peak, a
resonator piece's output.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.signal import lfilter

from .core import (
    BadConfig,
    BadMethod,
    BadRadius,
    FilterConfig,
    NonFinite,
    OmegaOutOfRange,
    SampledSignal,
    TooShort,
    TrimTooLarge,
    WindowTooLarge,
    all_finite,
    check_finite,
    check_rate_and_length,
    positive_count,
    validate_signal,
)

_TAIL_EPS = 1e-15

# samples per block in the filter stages and the detectors; any size
# gives the same output, except that zpzfr's resonator pieces, and so the
# rounding of their warm-ups, are at least this long. A stage runs on one
# thread per block of output, up to _MAX_WORKERS, so an input of up to
# 8 s at 16 kHz, one block, starts no thread. A detrend block sums into
# its part of the output, and copies its input only next to the signal's
# ends, zero-padded. At 300 s on a 2-vCPU machine, two threads ran
# detrend in 31 ms against 45 on one with blocks of 2^17 or 2^18
# samples, but gained little or lost time with 2^15; 2^17 keeps 8 s in
# one block.
_BLOCK = 1 << 17

# samples per overlap-save frame of the FFT convolution. At 300 s on one
# thread, frames of 2^13 to 2^16 samples ran within 8% of each other and
# 2^17 about 25% slower; on two threads, 2^15 and 2^16 ran fastest. Each
# thread holds about two frames, a spectrum and an output
_FRAME = 1 << 15

# most threads one filter stage runs on, the caller included
_MAX_WORKERS = 4

# a radius-r section folds into the causal FIR when its impulse response
# stays below _FOLD_EPS of its peak from fewer than _FOLD_TAPS samples
# in: 1291 samples at r = 0.97, 4370 at r = 0.99. The cut tail sums to
# at most 1e-15 of the peak up to r = 0.99; the cap keeps the frames of
# an r near 1 from growing without bound
_FOLD_EPS = 1e-17
_FOLD_TAPS = 8192


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
    return _differenced(signal)


def _differenced(signal: SampledSignal) -> SampledSignal:
    # differentiate without reading the samples for finiteness first
    if len(signal) < 2:
        raise TooShort("differentiate needs at least 2 samples")
    return SampledSignal(
        np.diff(signal.samples),
        signal.sample_rate_hz,
        start_time_s=signal.start_time_s + 1.0 / signal.sample_rate_hz,
    )


def _resonator_sos(r: float) -> list[float]:
    # denominator of one double-pole section, 1 - 2r z^-1 + r^2 z^-2
    return [1.0, -2.0 * r, r * r]


def _lfilter_blocks(sections, x: np.ndarray, out: np.ndarray) -> None:
    """The lfilter(b, a) sections, b no longer than a, in cascade over x into out.

    Block by block, every section runs on a block while it is in cache,
    from zero initial state. out may be x.
    """
    states = [np.zeros(len(a) - 1) for _, a in sections]
    for i in range(0, len(x), _BLOCK):
        y = x[i : i + _BLOCK]
        for k, (b, a) in enumerate(sections):
            y, states[k] = lfilter(b, a, y, zi=states[k])
        out[i : i + _BLOCK] = y


def _worker_count(blocks: int) -> int:
    # threads for a stage of `blocks` blocks: the CPUs this process
    # may run on, capped at _MAX_WORKERS and at the number of blocks
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS, blocks))


def _run_blocks(n: int, size: int, block) -> None:
    """block(i, j) over range(n) cut every size samples.

    Worker k of w = _worker_count(ceil(n / max(size, _BLOCK))) runs
    piece k, then takes the next piece that no worker has taken, so a
    worker whose CPU is busy with other work runs fewer pieces and the
    stage does not wait for it. The pieces do not depend on w or on
    the worker that runs them. The caller is worker 0; the others run
    on a pool that this call opens and joins, so none outlives it, and
    an exception in any piece is raised here.
    """
    w = _worker_count(-(-n // max(size, _BLOCK)))
    # the starts of the pieces after the first w, last first; list.pop
    # is atomic under the GIL, so no two workers take the same piece
    rest = list(range(w * size, n, size))[::-1]

    def work(k: int) -> None:
        i = k * size
        while i < n:
            block(i, min(i + size, n))
            try:
                i = rest.pop()
            except IndexError:
                return

    if w == 1:
        return work(0)
    with ThreadPoolExecutor(w - 1, thread_name_prefix="zfepoch") as pool:
        helpers = [pool.submit(work, k) for k in range(1, w)]
        work(0)
        for future in helpers:
            future.result()


def _fft_fir(x: np.ndarray, kernel: np.ndarray, out: np.ndarray, difference: bool = False):
    """out[i] = np.convolve(u, kernel)[i], by FFT overlap-save.

    u is x, or np.diff(x) if difference: each frame then differences its
    own slice of x, with np.diff's subtraction, so the values are the
    same and no differenced copy of x is made. Needs
    len(out) <= len(u) + len(kernel) - 1. Each piece is one frame
    of next_fast_len(max(_FRAME, 8m)) samples for an m-tap kernel, or
    fewer where one frame holds the whole output: a frame's hop is its
    size less m - 1, so a kernel of a few thousand taps needs a frame of
    several times its length to gain over the direct sum. On an input
    without a trend, the result differs from the direct sum by under
    1e-10 of max|out|; where the direct sum is exactly 0, over digital
    silence, it leaves rounding noise, which the detectors' band reads
    as 0 (see epochs). A frame's spectrum sums up to a frame of samples,
    so it overflows sooner than a direct sum.
    """
    m = len(kernel)
    n = len(x) - difference
    size = next_fast_len(min(max(_FRAME, 8 * m), len(out) + m - 1), real=True)
    hop = size - m + 1
    spectrum = rfft(kernel, size)

    def frame_out(t: int, j: int) -> None:
        # the frame is u[t - m + 1 : t + hop], zero outside u, and a view
        # of x where it can be; the last hop samples of its circular
        # convolution are the linear one's
        lo, hi = t - m + 1, t + hop
        a, b = max(lo, 0), min(hi, n)
        if difference:
            frame = np.empty(size) if (a, b) == (lo, hi) else np.zeros(size)
            # errstate is per thread; an overflow shows as inf in out
            with np.errstate(over="ignore"):
                np.subtract(x[a + 1 : b + 1], x[a:b], out=frame[a - lo : b - lo])
        elif (a, b) == (lo, hi):
            frame = x[lo:hi]
        else:
            frame = np.zeros(size)
            frame[a - lo : b - lo] = x[a:b]
        spec = rfft(frame)
        # each thread then holds two frame-sized arrays, not three
        del frame
        # errstate is per thread; the caller sees an overflow as inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            spec *= spectrum
        out[t:j] = irfft(spec, size, overwrite_x=True)[m - 1 : m - 1 + j - t]

    _run_blocks(len(out), hop, frame_out)


def cascaded_resonator(signal: SampledSignal, r: float, order_pairs: int) -> SampledSignal:
    """Run the double-pole recursion order_pairs times, zero initial state.

    Each pass contributes a pole pair at z = r, so the cascade has
    2 * order_pairs poles. r = 1 is allowed (the zff case) even though
    the recursion is then unstable; callers are expected to detrend.
    """
    validate_signal(signal)
    if not 0.0 < r <= 1.0:
        raise BadRadius(f"resonator radius needs 0 < r <= 1, got {r}")
    pairs = positive_count(order_pairs, "order_pairs")
    out = np.empty(len(signal))
    _lfilter_blocks([([1.0], _resonator_sos(float(r)))] * pairs, signal.samples, out)
    return SampledSignal(out, signal.sample_rate_hz, signal.start_time_s)


def _window_half_width(n: int, fs: float, window_s: float) -> int:
    # N for a detrend window of window_s seconds that fits in n samples at fs
    if not window_s > 0.0:
        raise BadConfig(f"window_s must be positive, got {window_s}")
    n_half = int(round(window_s * fs / 2.0))
    if n_half < 1:
        # a one-tap window subtracts every sample from itself
        raise BadConfig(
            f"detrend window of {window_s} s is under one sample on each side at {fs} Hz"
        )
    if n <= 2 * n_half + 1:
        raise WindowTooLarge(
            f"detrend window of {2 * n_half + 1} samples does not fit in signal of {n} samples"
        )
    return n_half


def detrend(signal: SampledSignal, window_s: float) -> SampledSignal:
    """Subtract the running mean over a window of window_s seconds.

    The window covers N = round(window_s * fs / 2) samples on each side
    and is truncated where it overhangs the signal ends. Window sums
    run as running sums restarted from a direct sum every 2N + 1
    samples, so the result differs from the direct sum's by under 1e-10
    of max|out|. Raises NonFinite if a window sum, or the difference of
    two samples 2N + 1 apart, overflows float64, and, as validate_signal
    does, if a sample is NaN or infinite: the check of each block's
    output finds both, so the input is read for finiteness only then.
    """
    check_rate_and_length(signal)
    n_half = _window_half_width(len(signal), signal.sample_rate_hz, window_s)
    x = signal.samples
    n = len(x)
    width = 2 * n_half + 1
    out = np.empty(n)

    def mean_removed(i: int, j: int) -> None:
        # b is x[i - N - 1 : j + N], zero outside x, so output i + k's
        # window is b[k + 1 : k + 1 + width]. A cumulative sum over the
        # whole input would cancel catastrophically against a large
        # trend, so each row of width outputs starts from a direct sum
        # and adds b[k + width] - b[k] from there: rounding grows over
        # one window at most
        start, stop = i - n_half - 1, j + n_half
        if 0 <= start and stop <= n:
            b = x[start:stop]
        else:
            b = np.zeros(stop - start)
            b[max(-start, 0) : min(n, stop) - start] = x[max(start, 0) : stop]
        sums = out[i:j]
        rows = -(-(j - i) // width)
        full = sums[: (j - i) // width * width].reshape(-1, width)
        # errstate is per thread; an overflow, or a NaN or inf in x,
        # shows as inf or NaN in the check below
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(b[width:], b[:-width], out=sums)
            sums[::width] = b[1 : 1 + rows * width].reshape(rows, width).sum(axis=1)
            np.cumsum(full, axis=1, out=full)
            np.cumsum(sums[full.size :], out=sums[full.size :])
            # the window covers 2N + 1 samples except within N of either end
            lo = min(max(i, n_half), j)
            hi = max(min(j, n - n_half), lo)
            out[i:lo] /= np.arange(i, lo) + (n_half + 1)
            out[lo:hi] /= width
            out[hi:j] /= (n + n_half) - np.arange(hi, j)
            np.subtract(x[i:j], out[i:j], out=out[i:j])
        # checked while the block is in cache; every sample of x is in
        # some block's windows, so a NaN or inf in x shows here too
        if not all_finite(out[i:j]):
            raise NonFinite("detrend overflowed; scale the input down")

    try:
        # blocks of whole rows keep every row where a one-block run has it
        _run_blocks(n, width * max(1, _BLOCK // width), mean_removed)
    except NonFinite:
        check_finite(x)
        raise
    return SampledSignal(out, signal.sample_rate_hz, signal.start_time_s)


def trim_ends(signal: SampledSignal, trim_s: float) -> SampledSignal:
    """Drop trim_s seconds from each end, keeping the time offset."""
    validate_signal(signal)
    return _trimmed(signal, trim_s)


def _trimmed(signal: SampledSignal, trim_s: float) -> SampledSignal:
    # trim_ends without reading the samples for finiteness first
    if trim_s < 0.0:
        raise BadConfig(f"trim_s must be >= 0, got {trim_s}")
    n = int(round(trim_s * signal.sample_rate_hz))
    # trim_s rounded to samples may be half the signal or more
    if not signal.duration_s > 2.0 * trim_s or 2 * n >= len(signal):
        raise TrimTooLarge(
            f"cannot trim {trim_s} s from each end of a {signal.duration_s} s signal"
        )
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


def _section_pieces(r: float, u: np.ndarray, out: np.ndarray, zi: np.ndarray, k: int):
    """The section 1 / (1 - r z^-1)^2 over u into out from state zi, in pieces.

    Pieces of max(_BLOCK, 8k) samples run through _run_blocks. The first
    starts from zi; each later one from a recursion from zero state over
    the k samples before it, so the state it misses, zi's ring included,
    has decayed below _TAIL_EPS of its size by its first output, for k =
    _ringout_length(r). The pieces depend only on len(u) and k, so the
    output is the same at any thread count; an input of one piece is
    one lfilter call from zi, the arithmetic of a whole-buffer
    recursion. The warm-up states are found before any piece writes, so
    out may be u. Returns the final state.
    """
    n = len(u)
    size = max(_BLOCK, 8 * k)
    section = ([1.0], _resonator_sos(r))
    states = {0: zi}
    if n > size:
        # the section's impulse response (n + 1) r^n, last tap first: from
        # zero state, a warm-up's last two outputs are dot products with
        # it, which cost less than an lfilter call's Python overhead
        reversed_response = ((np.arange(k + 1) + 1.0) * r ** np.arange(k + 1))[::-1]
        for i in range(size, n, size):
            head = u[i - k : i]
            last = head @ reversed_response[1:]
            before = head[:-1] @ reversed_response[2:]
            # lfilter's state after the outputs before and last
            states[i] = np.array([2.0 * r * last - r * r * before, -r * r * last])
    final = [zi]

    def piece(i: int, j: int) -> None:
        y, state = lfilter(*section, u[i:j], zi=states[i])
        out[i:j] = y
        if j == n:
            final[0] = state

    _run_blocks(n, size, piece)
    return final[0]


def _zero_phase_double_pole(x: np.ndarray, r: float) -> np.ndarray:
    """One double-pole section forward and backward, tail-extended.

    The forward pass is let ring past the buffer end until its response
    decays below precision before the backward pass runs; truncating the
    tail instead leaves an asymmetric boundary transient far above the
    zero-phase symmetry tolerance. The ring-out only supplies the
    backward pass's state at the buffer end; that pass then runs in
    place over the forward output.

    Each pass runs in pieces of max(_BLOCK, 8K) samples, K =
    _ringout_length(r) (1654 at r = 0.97), spread over threads by
    _section_pieces: a forward piece starts from zero state K samples
    before its first output, a backward piece K samples after its last,
    over the forward output as it was before the in-place pass. The
    output is within 1e-12 of the whole-buffer recursion's peak and the
    same at any thread count; an input of one piece, such as a 2 s lock
    clip, gets the whole-buffer recursion's arithmetic and starts no
    thread. Over digital silence it leaves rounding noise where that
    recursion gives exact zeros (see epochs).
    """
    section = ([1.0], _resonator_sos(r))
    k = _ringout_length(r)
    y = np.empty(len(x))
    state = _section_pieces(r, x, y, np.zeros(2), k)
    ring, _ = lfilter(*section, np.zeros(k), zi=state)
    _, state = lfilter(*section, ring[::-1], zi=np.zeros(2))
    _section_pieces(r, y[::-1], y[::-1], state, k)
    return y


@contextmanager
def _pipeline_input(signal: SampledSignal, config: FilterConfig, method: str):
    """Check config.method and the input, once, and yield the input.

    This is the pipeline's one check of the input's samples; no stage
    checks the arrays the pipeline makes from them. So a NonFinite from
    any stage, or from the pipeline's check of its output, means that a
    filter overflowed float64, and is reported as that.
    """
    if config.method != method:
        raise BadMethod(f"config.method is {config.method!r}, expected {method!r}")
    validate_signal(signal)
    if config.preemphasis and len(signal) < 2:
        raise TooShort("differentiate needs at least 2 samples")
    try:
        with np.errstate(over="ignore"):
            yield signal
    except NonFinite:
        raise NonFinite(f"the {method} filter overflowed; scale the input down") from None


def _zff_kernel(n_half: int, passes: int) -> np.ndarray:
    """FIR q^passes, where q is one detrend window with two zeros removed.

    h = delta_N - 1/(2N+1) has a double zero at z = 1, so h / (1 - z^-1)^2
    is the FIR q: the first 2N - 1 taps of h's double running sum.
    """
    width = 2 * n_half + 1
    h = np.full(width, -1.0 / width)
    h[n_half] += 1.0
    q = np.cumsum(np.cumsum(h))[: max(width - 2, 1)]
    kernel = np.ones(1)
    for _ in range(passes):
        kernel = np.convolve(kernel, q)
    # windows of a sample or two leave the kernel shorter than its delay
    return np.pad(kernel, (0, max(0, passes * n_half + 1 - len(kernel))))


def _section_response(b: tuple[float, ...], r: float) -> np.ndarray | None:
    """Impulse response of the section b / (1 - r z^-1)^2, cut to an FIR.

    The response is b convolved with (n+1) r^n. It is cut after its last
    sample of at least _FOLD_EPS of its peak; None if that sample lies
    _FOLD_TAPS or more samples in, as at r = 1, where it never decays.
    """
    n = np.arange(_FOLD_TAPS)
    response = np.convolve(b, (n + 1) * float(r) ** n)[:_FOLD_TAPS]
    last = np.flatnonzero(np.abs(response) >= _FOLD_EPS * np.max(np.abs(response)))[-1]
    # a copy, so that the _FOLD_TAPS samples are not kept alive
    return response[: last + 1].copy() if last + 1 < _FOLD_TAPS else None


@functools.lru_cache(maxsize=16)
def _causal_filter(n_half: int, m: int, r: float):
    """(kernel, recursive) of _causal_pipeline.

    kernel is q^m convolved with the folded sections' responses;
    recursive lists the sections (b, a) left to run recursively. Cached,
    with a read-only kernel: a short input would otherwise spend more
    time on zfr's kernel than on its filtering.
    """
    kernel = _zff_kernel(n_half, m)
    d2, a = (1.0, -2.0, 1.0), tuple(_resonator_sos(r))
    recursive = []
    for b in (d2, d2 if m == 2 else (1.0,)):
        if b == a:
            continue
        response = _section_response(b, r)
        if response is None:
            recursive.append((b, a))
        else:
            kernel = np.convolve(kernel, response)
    kernel.flags.writeable = False
    return kernel, tuple(recursive)


def _causal_pipeline(signal: SampledSignal, config: FilterConfig, method: str) -> SampledSignal:
    """Difference, the cascade 1/(1 - r z^-1)^4, the detrend passes, trim.

    Two detrend windows are z^2N q^2 (1 - z^-1)^4, so the cascade and the
    first m = min(passes, 2) passes are the FIR q^m, then the sections
    (1 - z^-1)^2 / (1 - r z^-1)^2 and (1 - z^-1)^(2m-2) / (1 - r z^-1)^2.
    A section whose zeros cancel its poles (r = 1) is skipped. One whose
    response decays (r < 1) is folded into the kernel, truncated where
    it stays below _FOLD_EPS of its peak: zfr's whole filter is then one
    FIR, q^m convolved with the two responses, 3057 taps at 16 kHz and
    r = 0.97. A section that does not decay (zff's double integrator at
    one pass) runs recursively after the FIR. Output sample i is sample
    i + m*N of that run. The FIR runs by FFT overlap-save, which its
    input, carrying no trend, allows; pre-emphasis runs inside its
    frames. A section left recursive multiplies the FFT's rounding noise
    by its DC gain, 1 / (1 - r)^2: 1e6 at r = 0.999, where zfr at one
    pass runs both sections recursively and lands within 1e-9 of the
    direct computation's peak, not 1e-10. At r = 1 that gain is
    unbounded: zff at one pass drifted from an extended-precision run
    by a share of the peak that grows with the input's length, 6.5e-9
    at 50 s of voice. So pre-emphasis and the double integrator run as
    what they are together, one integrator over x[k + 1] - x[0], held at
    its last value past the end: a second input-sized array, and a drift
    of 2.1e-12. Further passes run as detrend: folded into the FIR they
    cost precision. The output is checked for finiteness once, before
    the trim. Samples within passes*N of either end (before the trim)
    see a zero-extended input where detrend truncates its window; they
    survive only when round(trim_s * fs) < passes*N: trim_s = 0, three
    or more passes, or 11.025 kHz by default.
    """
    with _pipeline_input(signal, config, method):
        x, fs, pre = signal.samples, signal.sample_rate_hz, config.preemphasis
        m = min(config.detrend_passes, 2)
        n_half = _window_half_width(len(x) - pre, fs, config.detrend_window_s)
        kernel, recursive = _causal_filter(n_half, m, config.r)
        # recursive sections need the leading m*N samples for their state
        y = np.empty(m * n_half + len(x) - pre)
        if pre and recursive == (((1.0,), (1.0, -2.0, 1.0)),):
            # zff at one pass: the difference and the double integrator
            # are one integrator over x[k + 1] - x[0] (see above)
            x0, x = x[0], np.concatenate((x[1:], np.full(m * n_half, x[-1])))
            x -= x0
            pre, recursive = False, (((1.0,), (1.0, -1.0)),)
        _fft_fir(x, kernel, y, pre)
        if recursive:
            _lfilter_blocks(recursive, y, y)
        start = signal.start_time_s + 1.0 / fs if config.preemphasis else signal.start_time_s
        # rebinding out frees each stage's array once the next has its output
        out = SampledSignal(y[m * n_half :], fs, start)
        for _ in range(config.detrend_passes - 2):
            out = detrend(out, config.detrend_window_s)
        check_finite(out.samples)
        return _trimmed(out, config.trim_s)


def zfr_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Causal radius-r pipeline: difference, resonate, detrend, trim."""
    return _causal_pipeline(signal, config, "zfr")


def zff_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Unit-circle pipeline: zfr's causal path at r = 1, as zff's config pins."""
    return _causal_pipeline(signal, config, "zff")


def zpzfr_pipeline(signal: SampledSignal, config: FilterConfig) -> SampledSignal:
    """Zero-phase pipeline: forward-backward resonate, detrend, trim.

    Pre-emphasis is off by default for this method; the symmetric,
    zero-phase output puts a clean negative peak at each excitation
    instant, and a first-difference stage would skew that symmetry.
    """
    with _pipeline_input(signal, config, "zpzfr") as out:
        if config.preemphasis:
            out = _differenced(out)
        out = SampledSignal(
            _zero_phase_double_pole(out.samples, config.r), out.sample_rate_hz, out.start_time_s
        )
        for _ in range(config.detrend_passes):
            out = detrend(out, config.detrend_window_s)
        # detrend checked each block of its output
        return _trimmed(out, config.trim_s)


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
