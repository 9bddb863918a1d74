"""Shared data types, configuration, and validation for epoch extraction."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

METHODS = ("zfr", "zff", "zpzfr")

DEFAULT_R = 0.97
DEFAULT_DETREND_WINDOW_S = 0.015
DEFAULT_DETREND_PASSES = 2

# r outside this band is legal but gives visibly degraded trend removal.
RECOMMENDED_R_RANGE = (0.95, 0.99)


class ZfepochError(Exception):
    """Base class for all errors raised by this package."""


class EmptySignal(ZfepochError):
    """Signal contains no samples."""


class NonPositiveRate(ZfepochError):
    """Sample rate is zero or negative."""


class NonFinite(ZfepochError):
    """Signal contains NaN or infinite samples."""


class TooShort(ZfepochError):
    """Signal has too few samples for the requested operation."""


class BadConfig(ZfepochError, ValueError):
    """Configuration field has an illegal value; the CLI exits 2 for it."""


class BadRadius(BadConfig):
    """Pole radius is outside the legal range for the chosen method."""


class BadMethod(BadConfig):
    """Unknown filtering method name."""


class WindowTooLarge(ZfepochError):
    """Detrend window does not fit inside the signal."""


class TrimTooLarge(ZfepochError):
    """Edge trim would consume the whole signal."""


class OmegaOutOfRange(BadConfig):
    """Frequency grid point falls outside (0, pi]."""


class BadSequence(ZfepochError, ValueError):
    """Epoch times or delta intervals are out of order or not positive."""


class BadSpec(BadConfig):
    """Synthesis recipe has an illegal field value."""


class NoLocks(ZfepochError):
    """A confidence score was requested against an empty set of locks."""


@dataclass(frozen=True)
class SampledSignal:
    """A uniformly sampled real signal.

    ``start_time_s`` records how far the first retained sample sits from
    the original recording origin, so that epoch times survive the edge
    trimming and one-sample shifts introduced by the filtering stages.
    """

    samples: np.ndarray
    sample_rate_hz: float
    start_time_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            samples = samples.reshape(-1)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))
        object.__setattr__(self, "start_time_s", float(self.start_time_s))

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration_s(self) -> float:
        return len(self) / self.sample_rate_hz


def all_finite(samples: np.ndarray) -> bool:
    """Whether every sample is finite, without building a mask.

    A NaN or an infinity makes the sum NaN or infinite, so a finite sum
    proves every sample finite; only a sum that is not finite, which
    finite samples reach by overflowing, needs the exact test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(samples, axis=None)
    return bool(np.isfinite(total)) or bool(np.isfinite(samples).all())


def check_rate_and_length(signal: SampledSignal) -> None:
    """validate_signal's checks that read no sample: EmptySignal, NonPositiveRate."""
    if len(signal) == 0:
        raise EmptySignal("signal has no samples")
    if not np.isfinite(signal.sample_rate_hz) or signal.sample_rate_hz <= 0.0:
        raise NonPositiveRate(f"sample rate must be positive, got {signal.sample_rate_hz}")


def check_finite(samples: np.ndarray) -> None:
    """Raise NonFinite unless every sample is finite."""
    if not all_finite(samples):
        raise NonFinite("signal contains NaN or infinite samples")


def validate_signal(signal: SampledSignal) -> SampledSignal:
    """Check signal invariants and return the signal unchanged.

    Raises EmptySignal, NonPositiveRate, or NonFinite on violation. The
    samples are read once, as a sum, and no array of their length is
    made unless that sum is not finite (see all_finite).
    """
    check_rate_and_length(signal)
    check_finite(signal.samples)
    return signal


def positive_count(value, name: str) -> int:
    """value as an int, or BadConfig unless it is a whole number >= 1."""
    try:
        whole = int(value) == value and value >= 1
    except (TypeError, ValueError, OverflowError):  # int() of NaN, inf or a non-number
        whole = False
    if not whole:
        raise BadConfig(f"{name} must be an integer >= 1, got {value}")
    return int(value)


@dataclass(frozen=True)
class EpochSequence:
    """Strictly increasing instants (seconds) marking glottal closures."""

    times_s: np.ndarray
    source_sample_rate_hz: float

    def __post_init__(self):
        times = np.asarray(self.times_s, dtype=np.float64)
        if times.ndim != 1:
            times = times.reshape(-1)
        if len(times) and not np.all(np.diff(times) > 0.0):
            raise BadSequence("epoch times must be strictly increasing")
        if not np.isfinite(self.source_sample_rate_hz) or self.source_sample_rate_hz <= 0.0:
            raise NonPositiveRate("source sample rate must be positive")
        times.flags.writeable = False
        object.__setattr__(self, "times_s", times)
        object.__setattr__(self, "source_sample_rate_hz", float(self.source_sample_rate_hz))

    def __len__(self) -> int:
        return self.times_s.shape[0]


@dataclass(frozen=True)
class DeltaSequence:
    """Successive epoch-to-epoch intervals (seconds), all positive."""

    intervals_s: np.ndarray

    def __post_init__(self):
        iv = np.asarray(self.intervals_s, dtype=np.float64)
        if iv.ndim != 1:
            iv = iv.reshape(-1)
        if len(iv) and not np.all(iv > 0.0):
            raise BadSequence("delta intervals must be positive")
        iv.flags.writeable = False
        object.__setattr__(self, "intervals_s", iv)

    def __len__(self) -> int:
        return self.intervals_s.shape[0]


@dataclass(frozen=True)
class FilterConfig:
    """Parameters of one epoch-extraction pipeline.

    method
        "zfr" (causal resonator pair at radius r), "zff" (same recursion
        with r pinned to 1), or "zpzfr" (zero-phase forward-backward run
        of the radius-r resonator pair).
    r
        Pole radius. Defaults to 0.97 for zfr/zpzfr and is forced to 1.0
        for zff. Values outside [0.95, 0.99] trigger a warning for the
        radius-based methods.
    detrend_window_s
        Half-width parameter of the running-mean trend remover; the mean
        is taken over round(window * fs / 2) samples on each side.
    detrend_passes
        How many times the trend remover is applied (>= 1).
    trim_s
        Seconds cut from each end after filtering; defaults to the
        detrend window.
    preemphasis
        Whether to first-difference the input before filtering. None
        picks the method default: on for zfr and zff, off for zpzfr
        (the zero-phase method keeps its symmetric output, which the
        negative-peak detector relies on).
    """

    method: str
    r: float | None = None
    detrend_window_s: float = DEFAULT_DETREND_WINDOW_S
    detrend_passes: int = DEFAULT_DETREND_PASSES
    trim_s: float | None = None
    preemphasis: bool | None = None

    def __post_init__(self):
        method = str(self.method).strip().lower()
        if method not in METHODS:
            raise BadMethod(f"method must be one of {METHODS}, got {self.method!r}")
        object.__setattr__(self, "method", method)

        r = self.r
        if r is None:
            r = 1.0 if method == "zff" else DEFAULT_R
        r = float(r)
        if method == "zff":
            if r != 1.0:
                raise BadRadius("zff runs its poles on the unit circle; r must be 1.0")
        else:
            if not 0.0 < r < 1.0:
                raise BadRadius(f"{method} needs 0 < r < 1, got {r}")
            lo, hi = RECOMMENDED_R_RANGE
            if not lo <= r <= hi:
                warnings.warn(
                    f"r={r} is outside the recommended range [{lo}, {hi}]; "
                    "trend removal quality degrades",
                    stacklevel=2,
                )
        object.__setattr__(self, "r", r)

        if not np.isfinite(self.detrend_window_s) or self.detrend_window_s <= 0.0:
            raise BadConfig(f"detrend_window_s must be positive, got {self.detrend_window_s}")
        object.__setattr__(self, "detrend_window_s", float(self.detrend_window_s))

        object.__setattr__(self, "detrend_passes",
                           positive_count(self.detrend_passes, "detrend_passes"))

        trim = self.trim_s
        if trim is None:
            trim = self.detrend_window_s
        trim = float(trim)
        if not np.isfinite(trim) or trim < 0.0:
            raise BadConfig(f"trim_s must be >= 0, got {trim}")
        object.__setattr__(self, "trim_s", trim)

        pre = self.preemphasis
        if pre is None:
            pre = method != "zpzfr"
        object.__setattr__(self, "preemphasis", bool(pre))
