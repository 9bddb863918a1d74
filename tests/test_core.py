"""Data types, invariants, and configuration validation."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zfepoch import (
    BadConfig,
    BadMethod,
    BadRadius,
    DeltaSequence,
    EmptySignal,
    EpochSequence,
    FilterConfig,
    FrequencyResponse,
    LockConfig,
    MatchConfig,
    NonFinite,
    NonPositiveRate,
    SampledSignal,
    ZfepochError,
    env_overrides,
    evaluate,
    validate_signal,
)
from zfepoch.core import all_finite

# Samples for the finiteness property: sums of ±1.7e308 overflow to
# ±inf or reach inf - inf = NaN from finite samples alone; subnormals,
# NaN and ±inf mixed in anywhere
SAMPLES = st.lists(
    st.one_of(
        st.sampled_from([1.7e308, -1.7e308, 1e308, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]),
        st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    ),
    max_size=300,
)


class TestSampledSignal:
    def test_basic_fields(self):
        sig = SampledSignal([0.0, 1.0, 0.0], 16000.0)
        assert len(sig) == 3
        assert sig.sample_rate_hz == 16000.0
        assert sig.start_time_s == 0.0
        assert sig.duration_s == pytest.approx(3 / 16000)

    def test_samples_are_read_only(self):
        sig = SampledSignal([1.0, 2.0], 100.0)
        with pytest.raises(ValueError):
            sig.samples[0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            sig.sample_rate_hz = 8000.0

    def test_coerces_to_float64(self):
        sig = SampledSignal(np.array([1, 2, 3], dtype=np.int16), 100.0)
        assert sig.samples.dtype == np.float64


class TestValidateSignal:
    def test_valid_passthrough(self):
        sig = SampledSignal([0.0, 1.0, 0.0], 16000.0)
        assert validate_signal(sig) is sig

    def test_nan_rejected(self):
        with pytest.raises(NonFinite):
            validate_signal(SampledSignal([np.nan], 16000.0))

    def test_inf_rejected(self):
        with pytest.raises(NonFinite):
            validate_signal(SampledSignal([0.0, np.inf], 16000.0))

    def test_zero_rate_rejected(self):
        with pytest.raises(NonPositiveRate):
            validate_signal(SampledSignal([1.0], 0.0))

    def test_empty_rejected(self):
        with pytest.raises(EmptySignal):
            validate_signal(SampledSignal([], 16000.0))

    @settings(max_examples=300, deadline=None)
    @given(SAMPLES)
    @example([1.7e308] * 4)
    @example([1.7e308, 1.7e308, -1.7e308, -1.7e308, float("nan")])
    @example([1.7e308] * 200 + [-1.7e308] * 200)
    @example([5e-324] * 9 + [float("-inf")])
    def test_check_equals_isfinite(self, values):
        # a finite sum proves every sample finite; a sum that overflows
        # from finite samples must fall back to the exact test, and no
        # overflow or invalid warning may escape
        x = np.array(values, dtype=np.float64)
        want = bool(np.isfinite(x).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert all_finite(x) is want
            if len(x) and not want:
                with pytest.raises(NonFinite, match="^signal contains NaN or infinite samples$"):
                    validate_signal(SampledSignal(x, 16000.0))
            elif len(x):
                validate_signal(SampledSignal(x, 16000.0))


class TestEpochSequence:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            EpochSequence([0.1, 0.1], 16000.0)
        with pytest.raises(ValueError):
            EpochSequence([0.2, 0.1], 16000.0)

    def test_empty_allowed(self):
        assert len(EpochSequence([], 16000.0)) == 0

    def test_positive_rate_required(self):
        with pytest.raises(NonPositiveRate):
            EpochSequence([0.1], 0.0)


class TestDeltaSequence:
    def test_positive_intervals_required(self):
        with pytest.raises(ValueError):
            DeltaSequence([0.01, 0.0])

    def test_empty_allowed(self):
        assert len(DeltaSequence([])) == 0


class TestFilterConfig:
    def test_method_defaults(self):
        zfr = FilterConfig("zfr")
        zff = FilterConfig("zff")
        zpzfr = FilterConfig("zpzfr")
        assert zfr.r == 0.97 and zpzfr.r == 0.97 and zff.r == 1.0
        assert zfr.preemphasis and zff.preemphasis and not zpzfr.preemphasis
        assert zfr.detrend_window_s == 0.015
        assert zfr.detrend_passes == 2
        assert zfr.trim_s == zfr.detrend_window_s

    def test_method_name_normalized(self):
        assert FilterConfig("ZFF").method == "zff"

    def test_unknown_method(self):
        with pytest.raises(BadMethod):
            FilterConfig("butterworth")

    def test_zff_radius_pinned(self):
        with pytest.raises(BadRadius):
            FilterConfig("zff", r=0.97)

    def test_radius_range(self):
        with pytest.raises(BadRadius):
            FilterConfig("zpzfr", r=1.2)
        with pytest.raises(BadRadius):
            FilterConfig("zfr", r=0.0)
        with pytest.raises(BadRadius):
            FilterConfig("zfr", r=1.0)

    def test_radius_outside_recommended_band_warns(self):
        with pytest.warns(UserWarning):
            FilterConfig("zfr", r=0.5)
        with pytest.warns(UserWarning):
            FilterConfig("zpzfr", r=0.999)

    def test_trim_defaults_to_window(self):
        cfg = FilterConfig("zff", detrend_window_s=0.02)
        assert cfg.trim_s == 0.02
        cfg = FilterConfig("zff", trim_s=0.0)
        assert cfg.trim_s == 0.0

    def test_bad_fields(self):
        with pytest.raises(BadConfig):
            FilterConfig("zff", detrend_window_s=0.0)
        with pytest.raises(BadConfig):
            FilterConfig("zff", detrend_passes=0)
        with pytest.raises(BadConfig):
            FilterConfig("zff", trim_s=-0.01)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_passes(self, value):
        with pytest.raises(BadConfig):
            FilterConfig("zff", detrend_passes=value)

    def test_preemphasis_override(self):
        assert FilterConfig("zpzfr", preemphasis=True).preemphasis
        assert not FilterConfig("zff", preemphasis=False).preemphasis


def _bad_env_threshold(monkeypatch, tmp_path):
    monkeypatch.setenv("ZFEPOCH_THRESHOLD", "high")
    env_overrides()


_EPOCHS = EpochSequence(np.array([0.01, 0.02]), 16000.0)

# every validation site outside FilterConfig, called with one illegal value
INVALID_INPUTS = {
    "epoch_times_not_increasing": lambda mp, tmp: EpochSequence(np.array([0.2, 0.1]), 16000.0),
    "delta_not_positive": lambda mp, tmp: DeltaSequence(np.array([0.01, 0.0])),
    "match_epsilon": lambda mp, tmp: MatchConfig(epsilon_s=0.0),
    "match_alignment": lambda mp, tmp: MatchConfig(alignment="diagonal"),
    "lock_file_count": lambda mp, tmp: LockConfig(watch_dir=tmp, lock_file_count=0),
    "lock_threshold": lambda mp, tmp: LockConfig(watch_dir=tmp, threshold=-1.0),
    "lock_poll_interval": lambda mp, tmp: LockConfig(watch_dir=tmp, poll_interval_s=0.0),
    "lock_threshold_nan": lambda mp, tmp: LockConfig(watch_dir=tmp, threshold=float("nan")),
    "lock_poll_interval_inf": lambda mp, tmp: LockConfig(
        watch_dir=tmp, poll_interval_s=float("inf")),
    "evaluate_tolerance": lambda mp, tmp: evaluate(_EPOCHS, _EPOCHS, 0.0),
    "env_threshold": _bad_env_threshold,
    "frequency_response_shapes": lambda mp, tmp: FrequencyResponse(
        np.ones(3), np.ones(2), np.ones(3)),
}


@pytest.mark.parametrize("site", sorted(INVALID_INPUTS))
def test_invalid_input_raises_package_error(site, monkeypatch, tmp_path):
    # ZfepochError is what the CLI turns into an exit code instead of a traceback
    with pytest.raises(ZfepochError):
        INVALID_INPUTS[site](monkeypatch, tmp_path)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_lock_file_count(value, tmp_path):
    # int() of these raises ValueError or OverflowError, which the CLI does not catch
    with pytest.raises(BadConfig):
        LockConfig(watch_dir=tmp_path, lock_file_count=value)
