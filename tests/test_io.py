"""WAV decoding, epoch/score serialization, and their error paths."""

import json
import struct
import wave

import numpy as np
import pytest

from zfepoch import (
    EmptyAudio,
    EpochSequence,
    FilterConfig,
    IoFailure,
    MatchConfig,
    NotWav,
    SampledSignal,
    SimilarityScore,
    UnsupportedEncoding,
    frequency_response,
    read_epochs_csv,
    read_wav,
    write_epochs_csv,
    write_epochs_json,
    write_response_csv,
    write_score_json,
    write_wav,
)


def write_pcm16(path, data_int16, fs=16000, channels=1):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(2)
        wav.setframerate(fs)
        wav.writeframes(np.asarray(data_int16, dtype="<i2").tobytes())


def riff(*chunks):
    """A RIFF/WAVE file of (id, body) chunks, each odd body padded."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def pcm_fmt(channels=1, fs=16000):
    return struct.pack("<HHIIHH", 1, channels, fs, 2 * channels * fs, 2 * channels, 16)


class TestReadWav:
    def test_header_passthrough(self, tmp_path):
        path = tmp_path / "a.wav"
        write_pcm16(path, np.arange(-5, 5), fs=16000)
        sig = read_wav(path)
        assert len(sig) == 10
        assert sig.sample_rate_hz == 16000.0

    def test_scaling_convention(self, tmp_path):
        path = tmp_path / "a.wav"
        write_pcm16(path, [-32768, 32767, 0, 16384])
        sig = read_wav(path)
        assert sig.samples[0] == -1.0
        assert sig.samples[1] == 32767.0 / 32768.0
        assert sig.samples[2] == 0.0
        assert sig.samples[3] == 0.5

    def test_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        quantized = rng.integers(-32768, 32768, size=500).astype(np.int16)
        path = tmp_path / "rt.wav"
        write_wav(SampledSignal(quantized / 32768.0, 8000.0), path)
        back = read_wav(path)
        assert back.sample_rate_hz == 8000.0
        assert np.array_equal(back.samples, quantized / 32768.0)

    def test_stereo_uses_channel_zero(self, tmp_path, caplog):
        path = tmp_path / "st.wav"
        left = np.arange(100, dtype=np.int16)
        right = -np.ones(100, dtype=np.int16)
        interleaved = np.empty(200, dtype=np.int16)
        interleaved[0::2] = left
        interleaved[1::2] = right
        write_pcm16(path, interleaved, channels=2)
        with caplog.at_level("WARNING"):
            sig = read_wav(path)
        assert np.array_equal(sig.samples, left / 32768.0)
        assert any("channel 0" in r.message for r in caplog.records)

    def test_not_wav(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_text("definitely not audio")
        with pytest.raises(NotWav):
            read_wav(path)

    def test_mulaw_unsupported(self, tmp_path):
        # hand-built RIFF with format tag 7 (mu-law)
        path = tmp_path / "ulaw.wav"
        data = bytes(range(64))
        fmt = struct.pack("<HHIIHH", 7, 1, 8000, 8000, 1, 8)
        body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_8bit_unsupported(self, tmp_path):
        path = tmp_path / "pcm8.wav"
        with wave.open(str(path), "wb") as wav:
            wav.setnchannels(1)
            wav.setsampwidth(1)
            wav.setframerate(8000)
            wav.writeframes(bytes(100))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_empty_audio(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_pcm16(path, [])
        with pytest.raises(EmptyAudio):
            read_wav(path)

    def test_extensible_pcm_header(self, tmp_path):
        # WAVE_FORMAT_EXTENSIBLE with the PCM SubFormat GUID
        guid = bytes.fromhex("0100000000001000800000aa00389b71")
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 22050, 44100, 2, 16, 22, 16, 4) + guid
        data = np.array([1, -2, 3], dtype="<i2").tobytes()
        path = tmp_path / "ext.wav"
        path.write_bytes(riff((b"fmt ", fmt), (b"data", data)))
        sig = read_wav(path)
        assert sig.sample_rate_hz == 22050.0
        assert np.array_equal(sig.samples, np.array([1, -2, 3]) / 32768.0)

    def test_extensible_float_unsupported(self, tmp_path):
        guid = bytes.fromhex("0300000000001000800000aa00389b71")  # IEEE float
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 8000, 16000, 2, 16, 22, 16, 4) + guid
        path = tmp_path / "ext.wav"
        path.write_bytes(riff((b"fmt ", fmt), (b"data", bytes(8))))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_list_chunk_before_data_skipped(self, tmp_path):
        data = np.array([5, 6, 7, 8], dtype="<i2").tobytes()
        path = tmp_path / "list.wav"
        path.write_bytes(riff((b"fmt ", pcm_fmt()), (b"LIST", b"INFOISFT\4\0\0\0zf\0\0"),
                              (b"data", data)))
        assert np.array_equal(read_wav(path).samples, np.array([5, 6, 7, 8]) / 32768.0)

    def test_odd_chunk_pad_byte_honoured(self, tmp_path):
        # a 3-byte chunk is followed by one pad byte before the data chunk
        data = np.array([-9, 9], dtype="<i2").tobytes()
        path = tmp_path / "pad.wav"
        path.write_bytes(riff((b"fmt ", pcm_fmt()), (b"junk", b"abc"), (b"data", data)))
        assert np.array_equal(read_wav(path).samples, np.array([-9, 9]) / 32768.0)

    def test_cut_off_odd_length_data_reads_whole_frames(self, tmp_path):
        # the header promises 200 samples; the file ends one byte into the 6th
        samples = np.arange(200, dtype="<i2")
        full = riff((b"fmt ", pcm_fmt()), (b"data", samples.tobytes()))
        path = tmp_path / "cut.wav"
        path.write_bytes(full[: 44 + 11])
        sig = read_wav(path)
        assert np.array_equal(sig.samples, samples[:5] / 32768.0)

    def test_cut_off_before_a_whole_frame_is_empty(self, tmp_path):
        full = riff((b"fmt ", pcm_fmt(channels=2)), (b"data", bytes(40)))
        path = tmp_path / "cut.wav"
        path.write_bytes(full[: 44 + 3])
        with pytest.raises(EmptyAudio):
            read_wav(path)

    def test_missing_data_chunk_unsupported(self, tmp_path):
        path = tmp_path / "nodata.wav"
        path.write_bytes(riff((b"fmt ", pcm_fmt())))
        with pytest.raises(UnsupportedEncoding):
            read_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "nope.wav")


class TestEpochsCsv:
    def test_exact_format(self, tmp_path):
        path = tmp_path / "e.csv"
        write_epochs_csv(EpochSequence([0.1, 0.25], 16000.0), path)
        assert path.read_text() == "time_s\n0.100000\n0.250000\n"

    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        write_epochs_csv(EpochSequence([], 16000.0), path)
        assert path.read_text() == "time_s\n"

    def test_round_trip_micro_precision(self, tmp_path):
        times = np.sort(np.random.default_rng(1).uniform(0.0, 2.0, 50))
        path = tmp_path / "e.csv"
        write_epochs_csv(EpochSequence(times, 16000.0), path)
        back = read_epochs_csv(path)
        assert np.max(np.abs(back.times_s - times)) <= 1e-6

    def test_reject_foreign_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("frequency\n1.0\n")
        with pytest.raises(IoFailure):
            read_epochs_csv(path)

    @pytest.mark.parametrize("body", ["0.1\nabc\n", "0.2\n0.1\n", "0.1\nnan\n"])
    def test_bad_times_raise_io_failure(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("time_s\n" + body)
        with pytest.raises(IoFailure):
            read_epochs_csv(path)

    def test_write_failure(self, tmp_path):
        with pytest.raises(IoFailure):
            write_epochs_csv(EpochSequence([0.1], 16000.0), tmp_path / "no" / "dir.csv")


class TestStructuredText:
    def test_epochs_json(self, tmp_path):
        path = tmp_path / "e.json"
        cfg = FilterConfig("zpzfr")
        write_epochs_json(EpochSequence([0.1, 0.2], 16000.0), cfg, path)
        payload = json.loads(path.read_text())
        assert payload["method"] == "zpzfr"
        assert payload["r"] == 0.97
        assert payload["times_s"] == [0.1, 0.2]
        assert payload["detrend_passes"] == 2

    def test_score_json(self, tmp_path):
        path = tmp_path / "s.json"
        score = SimilarityScore(delta12_count=22, compared_pairs=30,
                                per_lock_counts=(7, 8, 7), average=22 / 3)
        write_score_json(score, MatchConfig(), ["lock1.wav", "lock2.wav", "lock3.wav"], path)
        payload = json.loads(path.read_text())
        assert payload["per_lock_counts"] == [7, 8, 7]
        assert payload["average"] == pytest.approx(22 / 3)
        assert payload["alignment"] == "index"
        assert payload["lock_ids"][0] == "lock1.wav"

    def test_payloads_are_byte_identical(self, tmp_path):
        # every config field, in declaration order, after the score fields
        epochs_path, score_path = tmp_path / "e.json", tmp_path / "s.json"
        cfg = FilterConfig("zfr", r=0.96, detrend_window_s=0.01, detrend_passes=3,
                           trim_s=0.005, preemphasis=False)
        write_epochs_json(EpochSequence([0.1, 0.25], 16000.0), cfg, epochs_path)
        write_score_json(SimilarityScore(3, 7, (1, 2), 1.5), MatchConfig(0.00025, "nearest"),
                         ["a.wav", "b.csv"], score_path)
        assert epochs_path.read_bytes() == (
            b'{\n  "method": "zfr",\n  "r": 0.96,\n  "detrend_window_s": 0.01,\n'
            b'  "detrend_passes": 3,\n  "trim_s": 0.005,\n  "preemphasis": false,\n'
            b'  "times_s": [\n    0.1,\n    0.25\n  ]\n}\n')
        assert score_path.read_bytes() == (
            b'{\n  "lock_ids": [\n    "a.wav",\n    "b.csv"\n  ],\n'
            b'  "per_lock_counts": [\n    1,\n    2\n  ],\n  "average": 1.5,\n'
            b'  "delta12_count": 3,\n  "compared_pairs": 7,\n  "epsilon_s": 0.00025,\n'
            b'  "alignment": "nearest"\n}\n')


class TestResponseCsv:
    def test_columns_and_values(self, tmp_path):
        w = np.linspace(0.1, 3.0, 16)
        resp = frequency_response("zfr", 0.97, w)
        path = tmp_path / "r.csv"
        write_response_csv(resp, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "omega,magnitude,phase"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == pytest.approx(w[0])
        assert first[1] == pytest.approx(resp.magnitude[0])
        assert first[2] == pytest.approx(resp.phase_rad[0])
        assert len(lines) == 17
