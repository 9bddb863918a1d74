"""Shared helpers: synthetic voices written out as 16-bit WAV files."""

import numpy as np
import pytest

from zfepoch import SampledSignal, speaker, synth_voice, write_wav

pytest_plugins = ["pytester"]


def pytest_collection_modifyitems(items):
    # the hypothesis plugin's report hook, on a failing example, touches
    # mypy_extensions.TypedDict, whose DeprecationWarning under -W error
    # ends the whole session with INTERNALERROR, and no test after the
    # failing one runs. Marks apply after the command line's -W filters
    for item in items:
        item.add_marker(pytest.mark.filterwarnings(
            "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"))


def voiced_wav(path, name, duration_s, seed, noise_snr_db=None, sample_rate_hz=16000.0):
    """Synthesize a built-in speaker and write it as a normalized WAV."""
    signal, truth = synth_voice(
        speaker(name, duration_s, seed=seed, noise_snr_db=noise_snr_db,
                sample_rate_hz=sample_rate_hz)
    )
    peak = np.max(np.abs(signal.samples))
    if peak > 1.0:
        signal = SampledSignal(signal.samples / (peak * 1.0001), signal.sample_rate_hz)
    write_wav(signal, path)
    return truth


@pytest.fixture
def make_voiced_wav(tmp_path):
    def _make(name, filename, duration_s=2.0, seed=0, noise_snr_db=None):
        path = tmp_path / filename
        truth = voiced_wav(path, name, duration_s, seed, noise_snr_db)
        return path, truth

    return _make
