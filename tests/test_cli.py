"""Command-line surface: subcommands, flags, exit codes."""

import json
import wave

import numpy as np
import pytest

from zfepoch import (
    BadConfig,
    BadMethod,
    BadRadius,
    BadSpec,
    EpochSequence,
    OmegaOutOfRange,
    SampledSignal,
    read_epochs_csv,
    write_epochs_csv,
    write_wav,
)
from zfepoch.cli import build_parser, main
from conftest import voiced_wav


def run(argv):
    return main([str(a) for a in argv])


class TestSynthExtractCompare:
    def test_round_trip(self, tmp_path, capsys):
        wav_a = tmp_path / "a.wav"
        wav_b = tmp_path / "b.wav"
        assert run(["synth", "--speaker", "A", "--duration", "2.0",
                    "--seed", "5", "--out", wav_a]) == 0
        assert run(["synth", "--speaker", "A", "--duration", "2.0",
                    "--seed", "6", "--out", wav_b]) == 0
        assert (tmp_path / "a.gci.csv").exists()

        csv_a = tmp_path / "a.csv"
        assert run(["extract", "--in", wav_a, "--out", csv_a,
                    "--method", "zpzfr"]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "epochs" in out
        epochs = read_epochs_csv(csv_a)
        assert len(epochs.times_s) > 100

        # detected epochs should sit close to the synthesis ground truth
        truth = read_epochs_csv(tmp_path / "a.gci.csv")
        matched = np.sum(np.min(np.abs(np.subtract.outer(
            epochs.times_s, truth.times_s)), axis=1) <= 0.0005)
        assert matched >= 0.9 * len(truth.times_s)

        assert run(["compare", "--lock", wav_a, "--test", wav_b]) == 0
        out = capsys.readouterr().out
        assert "delta12=" in out and "average=" in out

    def test_compare_accepts_csv_inputs(self, tmp_path, capsys):
        t = np.arange(1, 40) * 0.008
        path1 = tmp_path / "one.csv"
        path2 = tmp_path / "two.csv"
        write_epochs_csv(EpochSequence(t, 16000.0), path1)
        write_epochs_csv(EpochSequence(t, 16000.0), path2)
        assert run(["compare", "--lock", path1, "--test", path2,
                    "--alignment", "nearest"]) == 0
        out = capsys.readouterr().out
        assert "delta12=38" in out

    def test_compare_json_output(self, tmp_path, capsys):
        t = np.arange(1, 10) * 0.01
        path = tmp_path / "e.csv"
        write_epochs_csv(EpochSequence(t, 16000.0), path)
        score_path = tmp_path / "score.json"
        assert run(["compare", "--lock", path, "--test", path,
                    "--json", score_path]) == 0
        payload = json.loads(score_path.read_text())
        assert payload["delta12_count"] == 8

    def test_raw_train_output(self, tmp_path):
        out = tmp_path / "train.wav"
        assert run(["synth", "--speaker", "B", "--duration", "0.5",
                    "--raw-train", "--out", out]) == 0
        with wave.open(str(out), "rb") as wav:
            assert wav.getnchannels() == 1


class TestExtract:
    def test_silence_yields_header_only(self, tmp_path, capsys):
        wav_path = tmp_path / "silence.wav"
        write_wav(SampledSignal(np.zeros(8000), 8000.0), wav_path)
        csv_path = tmp_path / "out.csv"
        assert run(["extract", "--in", wav_path, "--out", csv_path,
                    "--method", "zff"]) == 0
        assert csv_path.read_text() == "time_s\n"

    def test_json_sidecar(self, tmp_path, make_voiced_wav):
        wav_path, _ = make_voiced_wav("A", "v.wav")
        csv_path = tmp_path / "v.csv"
        json_path = tmp_path / "v.json"
        assert run(["extract", "--in", wav_path, "--out", csv_path,
                    "--method", "zfr", "--json", json_path]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["method"] == "zfr"

    def test_detector_override(self, tmp_path, make_voiced_wav):
        wav_path, _ = make_voiced_wav("A", "v.wav")
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["extract", "--in", wav_path, "--out", a,
                    "--method", "zpzfr"]) == 0
        assert run(["extract", "--in", wav_path, "--out", b,
                    "--method", "zpzfr", "--detector", "crossings"]) == 0
        ta = read_epochs_csv(a).times_s
        tb = read_epochs_csv(b).times_s
        assert len(ta) and len(tb)
        assert not (len(ta) == len(tb) and np.allclose(ta, tb))

    @pytest.mark.parametrize("bad", ["0.1\nsoon\n", "0.3\n0.2\n"])
    def test_bad_epoch_csv_is_processing_error(self, tmp_path, capsys, bad):
        good = tmp_path / "good.csv"
        write_epochs_csv(EpochSequence(np.arange(1, 10) * 0.01, 16000.0), good)
        lock = tmp_path / "bad.csv"
        lock.write_text("time_s\n" + bad)
        assert run(["compare", "--lock", lock, "--test", good]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_input_is_processing_error(self, tmp_path, capsys):
        assert run(["extract", "--in", tmp_path / "ghost.wav",
                    "--out", tmp_path / "o.csv", "--method", "zff"]) == 1
        assert capsys.readouterr().err.strip()


class TestUsageErrors:
    def test_bad_radius_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["extract", "--in", tmp_path / "x.wav",
                 "--out", tmp_path / "o.csv", "--method", "zpzfr", "--r", "1.2"])
        assert exc.value.code == 2
        assert "r" in capsys.readouterr().err

    def test_bad_epsilon_exits_2(self, tmp_path, capsys):
        t = tmp_path / "e.csv"
        write_epochs_csv(EpochSequence([0.1, 0.2], 16000.0), t)
        with pytest.raises(SystemExit) as exc:
            run(["compare", "--lock", t, "--test", t, "--epsilon", "-1"])
        assert exc.value.code == 2

    def test_unknown_method_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["extract", "--in", tmp_path / "x.wav",
                 "--out", tmp_path / "o.csv", "--method", "butterworth"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tolerance", ["0", "-0.5", "nan"])
    def test_verify_egg_bad_tolerance_exits_2_before_reading(self, tmp_path, capsys,
                                                             tolerance):
        # neither WAV exists: reading one first would exit 1 instead
        with pytest.raises(SystemExit) as exc:
            run(["verify-egg", "--audio", tmp_path / "a.wav", "--egg", tmp_path / "e.wav",
                 "--tolerance", tolerance])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["0", "0.00001", "-1"])
    def test_synth_without_samples_exits_2(self, tmp_path, duration):
        out = tmp_path / "s.wav"
        with pytest.raises(SystemExit) as exc:
            run(["synth", "--duration", duration, "--out", out])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf", "-4000"])
    def test_synth_noise_snr_without_a_level_exits_2(self, tmp_path, capsys, snr):
        out = tmp_path / "s.wav"
        with pytest.raises(SystemExit) as exc:
            run(["synth", f"--noise-snr={snr}", "--out", out])
        assert exc.value.code == 2
        assert "noise_snr_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("points", ["0", "-5"])
    def test_analyze_without_points_exits_2(self, tmp_path, capsys, points):
        out = tmp_path / "resp.csv"
        with pytest.raises(SystemExit) as exc:
            run(["analyze", "--method", "zpzfr", "--out", out, "--points", points])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "verify-egg"])
    def test_sub_sample_window_exits_2(self, tmp_path, capsys, make_voiced_wav, command):
        # 0.01 ms is under one sample period only at the file's 16 kHz
        wav_path, _ = make_voiced_wav("A", "v.wav")
        out = tmp_path / "o.csv"
        files = {"extract": ["--in", wav_path, "--out", out],
                 "verify-egg": ["--audio", wav_path, "--egg", wav_path]}[command]
        with pytest.raises(SystemExit) as exc:
            run([command, *files, "--method", "zff", "--window", "0.01"])
        assert exc.value.code == 2
        assert "under one sample" in capsys.readouterr().err
        assert not out.exists()

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


class TestConfigFaultContract:
    @pytest.mark.parametrize("cls", [BadMethod, BadRadius, OmegaOutOfRange, BadSpec])
    def test_config_faults_are_bad_config(self, cls):
        assert issubclass(cls, BadConfig)

    @pytest.mark.parametrize("argv,cls", [
        (["extract", "--in", "x.wav", "--out", "o.csv", "--method", "zfr", "--r", "1.5"],
         BadRadius),
        (["synth", "--fs", "inf", "--out", "s.wav"], BadSpec),
        (["synth", "--fs", "1e300", "--out", "s.wav"], BadSpec),
        (["analyze", "--method", "zfr", "--r", "1.5", "--out", "r.csv"], BadRadius),
        (["lock", "--dir", ".", "--once", "--count", "0"], BadConfig),
    ], ids=["extract-r", "synth-fs", "synth-huge-fs", "analyze-r", "lock-count"])
    def test_command_raises_and_main_exits_2(self, tmp_path, monkeypatch, argv, cls):
        # the command lets its config fault through; main alone maps it
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(argv)
        with pytest.raises(cls):
            args.func(args)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert sorted(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_1_with_one_line(self, tmp_path, monkeypatch, capsys):
        # 1e17 samples pass every limit of SynthSpec, and the first
        # allocation, of 1.39 EiB, fails at once
        monkeypatch.chdir(tmp_path)
        assert run(["synth", "--fs", "1e17", "--out", "s.wav"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == []


class TestVerifyEgg:
    def test_synthetic_egg_agreement(self, tmp_path, capsys):
        truth = voiced_wav(tmp_path / "voice.wav", "A", 2.0, 4)
        # ramp resetting at each excitation instant: the sharpest fall in the
        # simulated contact signal lands exactly on the ground-truth times
        fs = 16000.0
        n = int(2.0 * fs)
        t = np.arange(n) / fs
        last = np.concatenate([[-0.01], truth.times_s])
        idx = np.searchsorted(truth.times_s, t, side="right")
        egg = t - last[idx]
        write_wav(SampledSignal(egg / np.max(egg) * 0.9, fs), tmp_path / "egg.wav")

        assert run(["verify-egg", "--audio", tmp_path / "voice.wav",
                    "--egg", tmp_path / "egg.wav"]) == 0
        out = capsys.readouterr().out
        fields = dict(part.split("=") for part in out.split())
        assert int(fields["matched"]) >= 0.9 * int(fields["reference"])
        assert float(fields["mean_abs_error_s"]) < 0.0005

    def test_missing_egg_exits_1(self, tmp_path, make_voiced_wav):
        wav_path, _ = make_voiced_wav("A", "v.wav")
        assert run(["verify-egg", "--audio", wav_path,
                    "--egg", tmp_path / "none.wav"]) == 1


class TestAnalyze:
    def test_zpzfr_report_and_csv(self, tmp_path, capsys):
        out = tmp_path / "resp.csv"
        assert run(["analyze", "--method", "zpzfr", "--out", out]) == 0
        text = capsys.readouterr().out
        assert "Non-causal & Linear (Zero Phase) & Stable" in text
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "omega,magnitude,phase"
        assert len(lines) == 513

    def test_zff_default_radius(self, tmp_path, capsys):
        out = tmp_path / "resp.csv"
        assert run(["analyze", "--method", "zff", "--out", out]) == 0
        assert "Causal & Linear & Unstable" in capsys.readouterr().out

    def test_zfr_description(self, tmp_path, capsys):
        out = tmp_path / "resp.csv"
        assert run(["analyze", "--method", "zfr", "--out", out]) == 0
        assert "Causal & Non-linear & Stable" in capsys.readouterr().out

    def test_one_point(self, tmp_path):
        out = tmp_path / "resp.csv"
        assert run(["analyze", "--method", "zff", "--out", out, "--points", "1"]) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2 and float(lines[1].split(",")[0]) == pytest.approx(np.pi / 2)


class TestLockOnce:
    @pytest.fixture()
    def lock_dir(self, tmp_path):
        for i, seed in enumerate((10, 11, 12, 13, 14), start=1):
            voiced_wav(tmp_path / f"lock{i}.wav", "A", 2.0, seed)
        return tmp_path

    def test_same_speaker_opens(self, lock_dir, capsys):
        voiced_wav(lock_dir / "test.wav", "A", 2.0, 100)
        assert run(["lock", "--dir", lock_dir, "--once"]) == 0
        out = capsys.readouterr().out
        assert "decision=open" in out
        assert (lock_dir / "1").exists()

    def test_other_speaker_exits_3(self, lock_dir, capsys):
        voiced_wav(lock_dir / "test.wav", "B", 2.0, 200)
        assert run(["lock", "--dir", lock_dir, "--once"]) == 3
        assert "decision=closed" in capsys.readouterr().out
        assert (lock_dir / "0").exists()

    def test_env_watch_dir(self, lock_dir, monkeypatch):
        voiced_wav(lock_dir / "test.wav", "A", 2.0, 101)
        monkeypatch.setenv("ZFEPOCH_WATCH_DIR", str(lock_dir))
        assert run(["lock", "--once"]) == 0

    def test_env_threshold(self, lock_dir, monkeypatch):
        voiced_wav(lock_dir / "test.wav", "A", 2.0, 102)
        monkeypatch.setenv("ZFEPOCH_THRESHOLD", "1e9")  # unreachable bar
        assert run(["lock", "--dir", lock_dir, "--once"]) == 3

    @pytest.mark.parametrize("flag", [["--threshold", "nan"], ["--poll", "inf"]])
    def test_non_finite_flag_exits_2(self, lock_dir, capsys, flag):
        # a NaN threshold never opens; an infinite poll overflows time.sleep
        voiced_wav(lock_dir / "test.wav", "A", 2.0, 103)
        with pytest.raises(SystemExit) as exc:
            run(["lock", "--dir", lock_dir, "--once", *flag])
        assert exc.value.code == 2
        assert flag[0].lstrip("-") in capsys.readouterr().err
        assert not (lock_dir / "0").exists() and not (lock_dir / "1").exists()

    def test_sub_sample_window_exits_2_and_keeps_every_file(self, lock_dir):
        voiced_wav(lock_dir / "test.wav", "A", 2.0, 105)
        before = sorted(p.name for p in lock_dir.iterdir())
        with pytest.raises(SystemExit) as exc:
            run(["lock", "--dir", lock_dir, "--once", "--window", "0.01"])
        assert exc.value.code == 2
        assert sorted(p.name for p in lock_dir.iterdir()) == before

    def test_env_nan_threshold_exits_2(self, lock_dir, monkeypatch):
        voiced_wav(lock_dir / "test.wav", "A", 2.0, 104)
        monkeypatch.setenv("ZFEPOCH_THRESHOLD", "nan")
        with pytest.raises(SystemExit) as exc:
            run(["lock", "--dir", lock_dir, "--once"])
        assert exc.value.code == 2

    def test_missing_dir_exits_1(self, tmp_path, capsys):
        assert run(["lock", "--dir", tmp_path / "absent", "--once"]) == 1
        assert capsys.readouterr().err.strip()

    def test_no_dir_anywhere_exits_2(self, monkeypatch):
        monkeypatch.delenv("ZFEPOCH_WATCH_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            run(["lock", "--once"])
        assert exc.value.code == 2
