"""WAV ingestion and epoch/score/response serialization."""

from __future__ import annotations

import csv
import json
import logging
import wave
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .compare import MatchConfig, SimilarityScore
from .core import EpochSequence, FilterConfig, SampledSignal, ZfepochError
from .filters import FrequencyResponse

log = logging.getLogger(__name__)

_PCM16_SCALE = 32768.0


class NotWav(ZfepochError):
    """File is not a RIFF/WAVE container."""


class UnsupportedEncoding(ZfepochError):
    """WAV payload is not 16-bit PCM."""


class EmptyAudio(ZfepochError):
    """WAV file holds zero frames."""


class IoFailure(ZfepochError):
    """A file could not be written, or an epoch CSV could not be parsed."""


_FMT = np.dtype([("tag", "<u2"), ("channels", "<u2"), ("rate", "<u4"),
                 ("byte_rate", "<u4"), ("block_align", "<u2"), ("bits", "<u2")])
# PCM is format tag 1, or tag 0xFFFE (extensible) with this SubFormat GUID
# at bytes 24-40 of the fmt chunk
_PCM_SUBFORMAT = bytes.fromhex("0100000000001000800000aa00389b71")


def read_wav(path) -> SampledSignal:
    """Decode a 16-bit PCM WAV file to floats in [-1, 1).

    Chunks other than fmt and data are skipped. A data chunk cut off by
    the end of the file yields the whole frames present. Stereo files
    are accepted with a logged warning; channel 0 is used. Other
    encodings (compressed, non-16-bit) are rejected.
    """
    path = Path(path)
    raw = np.fromfile(path, dtype=np.uint8)
    if raw[:4].tobytes() != b"RIFF" or raw[8:12].tobytes() != b"WAVE":
        raise NotWav(f"{path} is not a WAV file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(raw):
        size = int(raw[pos + 4 : pos + 8].view("<u4")[0])
        chunks.setdefault(raw[pos : pos + 4].tobytes(), raw[pos + 8 : pos + 8 + size])
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    fmt_body, data = chunks.get(b"fmt ", raw[:0]), chunks.get(b"data")
    if len(fmt_body) < _FMT.itemsize or data is None:
        raise UnsupportedEncoding(f"{path}: fmt chunk and/or data chunk missing")
    fmt = fmt_body[: _FMT.itemsize].view(_FMT)[0]
    tag, channels, bits = int(fmt["tag"]), int(fmt["channels"]), int(fmt["bits"])
    pcm = tag == 1 or (tag == 0xFFFE and fmt_body[24:40].tobytes() == _PCM_SUBFORMAT)
    if not pcm or bits != 16 or channels == 0:
        raise UnsupportedEncoding(
            f"{path}: only 16-bit PCM supported, got format {tag:#x}, "
            f"{bits}-bit, {channels} channels"
        )
    frames = len(data) // (2 * channels)
    if frames == 0:
        raise EmptyAudio(f"{path} holds no audio frames")
    samples = data[: 2 * channels * frames].view("<i2")
    if channels > 1:
        log.warning("%s has %d channels; using channel 0", path, channels)
        samples = samples[::channels]
    return SampledSignal(samples.astype(np.float64) / _PCM16_SCALE, float(fmt["rate"]))


def write_wav(signal: SampledSignal, path) -> None:
    """Write a signal as mono 16-bit PCM; samples are clipped to [-1, 1)."""
    quantized = np.clip(
        np.round(signal.samples * _PCM16_SCALE), -32768, 32767
    ).astype("<i2")
    try:
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(2)
            wav.setframerate(int(round(signal.sample_rate_hz)))
            wav.writeframes(quantized.tobytes())
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def write_epochs_csv(epochs: EpochSequence, path) -> None:
    """One epoch time per line in seconds, 6 decimals, header `time_s`."""
    lines = ["time_s"] + [f"{t:.6f}" for t in epochs.times_s]
    _write_text(path, "\n".join(lines) + "\n")


def read_epochs_csv(path, source_sample_rate_hz: float = 16000.0) -> EpochSequence:
    """Parse an epoch CSV written by write_epochs_csv.

    Times that are not finite numbers or not strictly increasing raise
    IoFailure. The CSV carries no sample rate; the caller supplies one
    for the record (the times alone drive all comparisons).
    """
    try:
        with open(path, newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        if not rows or rows[0][0] != "time_s":
            raise IoFailure(f"{path} is not an epoch CSV (missing time_s header)")
        times = np.array([float(row[0]) for row in rows[1:]])
        return EpochSequence(times, source_sample_rate_hz)
    except (ValueError, csv.Error) as exc:
        raise IoFailure(f"{path}: {exc}") from exc


def write_epochs_json(epochs: EpochSequence, config: FilterConfig, path) -> None:
    """Epoch times plus the filter parameters that produced them."""
    payload = {**asdict(config), "times_s": [round(float(t), 9) for t in epochs.times_s]}
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def write_score_json(
    score: SimilarityScore, cfg: MatchConfig, lock_ids: Sequence[str], path
) -> None:
    """Similarity score as structured text."""
    payload = {
        "lock_ids": list(lock_ids),
        "per_lock_counts": list(score.per_lock_counts),
        "average": score.average,
        "delta12_count": score.delta12_count,
        "compared_pairs": score.compared_pairs,
        **asdict(cfg),
    }
    _write_text(path, json.dumps(payload, indent=2) + "\n")


def write_response_csv(response: FrequencyResponse, path) -> None:
    """Frequency response as CSV with columns omega, magnitude, phase."""
    lines = ["omega,magnitude,phase"]
    for w, m, p in zip(response.omega_rad, response.magnitude, response.phase_rad):
        lines.append(f"{w:.12g},{m:.12g},{p:.12g}")
    _write_text(path, "\n".join(lines) + "\n")
