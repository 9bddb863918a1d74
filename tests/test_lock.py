"""Watch-directory voice lock: keying, decisions, quarantine, re-keying."""

import os
import threading
import time

import numpy as np
import pytest

from zfepoch import (
    Decision,
    FilterConfig,
    LockConfig,
    LockSession,
    NoLocks,
    Phase,
    SampledSignal,
    SimilarityScore,
    UnreadableAudio,
    WatchDirMissing,
    decide,
    env_overrides,
    extract_epochs,
    read_wav,
    run_daemon,
    verify_once,
    write_wav,
)
from zfepoch import lock as lock_module
from conftest import voiced_wav


LOCK_SEEDS = (10, 11, 12, 13, 14)


def deposit_locks(watch, count=5, speaker_name="A"):
    for i, seed in enumerate(LOCK_SEEDS[:count], start=1):
        voiced_wav(watch / f"lock{i}.wav", speaker_name, 2.0, seed)


def settle(session, polls=4):
    """Poll until file ids have been seen twice and files admitted."""
    out = []
    for _ in range(polls):
        out.append(session.poll_once())
    return out


def make_config(watch, **kwargs):
    kwargs.setdefault("poll_interval_s", 0.01)
    return LockConfig(watch_dir=watch, **kwargs)


class TestDecide:
    def test_above_threshold_opens(self):
        score = SimilarityScore(15, 20, (7.5, 7.5), 7.5)
        assert decide(score, 7.0) is Decision.OPEN

    def test_below_threshold_closes(self):
        score = SimilarityScore(13, 20, (6.9, 6.9), 6.9)
        assert decide(score, 7.0) is Decision.CLOSED

    def test_zero_average_closes_even_at_zero_threshold(self):
        score = SimilarityScore(0, 0, (0,), 0.0)
        assert decide(score, 0.0) is Decision.CLOSED

    def test_signal_names(self):
        assert Decision.OPEN.signal_name == "1"
        assert Decision.CLOSED.signal_name == "0"


class TestKeying:
    def test_missing_watch_dir(self, tmp_path):
        with pytest.raises(WatchDirMissing):
            LockSession(make_config(tmp_path / "absent"))

    def test_waits_for_full_lock_set(self, tmp_path):
        deposit_locks(tmp_path, count=4)
        session = LockSession(make_config(tmp_path))
        settle(session)
        assert session.phase is Phase.WAITING_FOR_LOCKS

    def test_keys_after_two_stable_polls(self, tmp_path):
        deposit_locks(tmp_path)
        session = LockSession(make_config(tmp_path))
        session.poll_once()
        assert session.phase is Phase.WAITING_FOR_LOCKS  # file ids recorded once
        session.poll_once()
        assert session.phase is Phase.KEYED
        assert len(session.lock_epochs) == 5

    def test_same_size_rewrite_between_polls_not_admitted(self, tmp_path):
        deposit_locks(tmp_path)
        lock5 = tmp_path / "lock5.wav"
        session = LockSession(make_config(tmp_path))
        session.poll_once()
        before = lock5.stat()
        voiced_wav(lock5, "B", 2.0, 204)  # the upload is rewritten a second later
        os.utime(lock5, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
        after = lock5.stat()
        assert (after.st_size, after.st_ino) == (before.st_size, before.st_ino)
        session.poll_once()
        assert "lock5.wav" not in session.lock_epochs
        assert session.phase is Phase.WAITING_FOR_LOCKS
        session.poll_once()
        assert session.phase is Phase.KEYED
        rewritten = extract_epochs(read_wav(lock5), session.config.method)
        assert np.array_equal(session.lock_epochs["lock5.wav"].times_s, rewritten.times_s)

    def test_low_rate_lock_quarantined_session_keeps_running(self, tmp_path):
        # at 50 Hz the default 15 ms detrend window is under one sample:
        # BadConfig for this file only, read first when no rate is keyed
        deposit_locks(tmp_path)
        noise = np.random.default_rng(0).uniform(-0.5, 0.5, 100)
        write_wav(SampledSignal(noise, 50.0), tmp_path / "lock1.wav")
        session = LockSession(make_config(tmp_path))
        settle(session)
        assert session.phase is Phase.WAITING_FOR_LOCKS
        assert (tmp_path / "quarantine" / "lock1.wav").exists()
        voiced_wav(tmp_path / "lock1.wav", "A", 2.0, 10)
        settle(session)
        assert session.phase is Phase.KEYED

    def test_unreadable_lock_quarantined(self, tmp_path):
        deposit_locks(tmp_path, count=4)
        (tmp_path / "lock5.wav").write_text("junk")
        session = LockSession(make_config(tmp_path))
        settle(session)
        assert session.phase is Phase.WAITING_FOR_LOCKS
        assert (tmp_path / "quarantine" / "lock5.wav").exists()
        assert not (tmp_path / "lock5.wav").exists()
        # replacing the bad file lets keying complete
        voiced_wav(tmp_path / "lock5.wav", "A", 2.0, 14)
        settle(session)
        assert session.phase is Phase.KEYED


class TestDecisions:
    @pytest.fixture()
    def keyed_session(self, tmp_path):
        deposit_locks(tmp_path)
        session = LockSession(make_config(tmp_path))
        settle(session)
        assert session.phase is Phase.KEYED
        return session, tmp_path

    def test_same_speaker_opens(self, keyed_session):
        session, watch = keyed_session
        voiced_wav(watch / "test.wav", "A", 2.0, 100)
        decisions = [d for d in settle(session) if d is not None]
        assert decisions == [Decision.OPEN]
        assert (watch / "1").exists()
        assert not (watch / "0").exists()
        assert not (watch / "test.wav").exists()

    def test_other_speaker_closes(self, keyed_session):
        session, watch = keyed_session
        voiced_wav(watch / "test.wav", "B", 2.0, 200)
        decisions = [d for d in settle(session) if d is not None]
        assert decisions == [Decision.CLOSED]
        assert (watch / "0").exists()
        assert not (watch / "1").exists()

    def test_stale_signal_replaced(self, keyed_session):
        session, watch = keyed_session
        (watch / "1").touch()  # leftover from a previous round
        voiced_wav(watch / "test.wav", "B", 2.0, 201)
        settle(session)
        assert (watch / "0").exists()
        assert not (watch / "1").exists()

    def test_unreadable_test_quarantined_no_signal(self, keyed_session):
        session, watch = keyed_session
        (watch / "test.wav").write_text("static")
        decisions = [d for d in settle(session) if d is not None]
        assert decisions == []
        assert (watch / "quarantine" / "test.wav").exists()
        assert not (watch / "1").exists() and not (watch / "0").exists()
        assert session.phase is Phase.KEYED

    def test_rate_mismatch_quarantined(self, keyed_session):
        session, watch = keyed_session
        voiced_wav(watch / "test.wav", "A", 2.0, 100, sample_rate_hz=8000.0)
        decisions = [d for d in settle(session) if d is not None]
        assert decisions == []
        assert (watch / "quarantine" / "test.wav").exists()

    def test_cut_off_test_quarantined_session_keeps_running(self, keyed_session):
        # a data chunk cut off at an odd byte count, too short to extract
        session, watch = keyed_session
        voiced_wav(watch / "whole.wav", "A", 2.0, 100)
        whole = (watch / "whole.wav").read_bytes()
        (watch / "test.wav").write_bytes(whole[: 44 + 101])
        assert [d for d in settle(session) if d is not None] == []
        assert (watch / "quarantine" / "test.wav").exists()
        assert session.phase is Phase.KEYED
        (watch / "whole.wav").rename(watch / "test.wav")
        assert [d for d in settle(session) if d is not None] == [Decision.OPEN]

    def test_lock_removal_resets(self, keyed_session):
        session, watch = keyed_session
        (watch / "lock3.wav").unlink()
        session.poll_once()
        assert session.phase is Phase.WAITING_FOR_LOCKS
        assert sorted(session.lock_epochs) == ["lock1.wav", "lock2.wav", "lock4.wav", "lock5.wav"]
        # a fresh lock3 re-keys the session
        voiced_wav(watch / "lock3.wav", "A", 2.0, 12)
        settle(session)
        assert session.phase is Phase.KEYED

    def test_lock_replaced_in_place_rekeys(self, keyed_session, monkeypatch):
        # same name and size, new file: the old epochs must not be scored
        session, watch = keyed_session
        voiced_wav(watch / "staged.wav", "B", 2.0, 203)
        assert (watch / "staged.wav").stat().st_size == (watch / "lock3.wav").stat().st_size
        new_epochs = extract_epochs(read_wav(watch / "staged.wav"), session.config.method)
        os.replace(watch / "staged.wav", watch / "lock3.wav")
        session.poll_once()
        assert session.phase is Phase.WAITING_FOR_LOCKS
        settle(session)
        assert session.phase is Phase.KEYED

        scored = []
        real_confidence = lock_module.confidence

        def spy(test, locks, match):
            scored.append(locks)
            return real_confidence(test, locks, match)

        monkeypatch.setattr(lock_module, "confidence", spy)
        voiced_wav(watch / "test.wav", "A", 2.0, 104)
        assert [d for d in settle(session) if d is not None] == [Decision.OPEN]
        assert np.array_equal(scored[0][2].times_s, new_epochs.times_s)

    def test_replaced_lock_is_the_only_one_read_again(self, keyed_session, monkeypatch):
        session, watch = keyed_session
        extracted = []
        real_extract = lock_module.extract_epochs

        def counting_extract(signal, config):
            extracted.append(signal)
            return real_extract(signal, config)

        monkeypatch.setattr(lock_module, "extract_epochs", counting_extract)
        voiced_wav(watch / "staged.wav", "A", 2.0, 15)
        os.replace(watch / "staged.wav", watch / "lock3.wav")
        settle(session)
        assert session.phase is Phase.KEYED
        assert len(extracted) == 1

    def test_consecutive_rounds(self, keyed_session):
        session, watch = keyed_session
        voiced_wav(watch / "test.wav", "A", 2.0, 101)
        first = [d for d in settle(session) if d is not None]
        voiced_wav(watch / "test.wav", "B", 2.0, 202)
        second = [d for d in settle(session) if d is not None]
        assert first == [Decision.OPEN]
        assert second == [Decision.CLOSED]
        assert (watch / "0").exists()


class TestTestBeforeKeyed:
    def test_early_test_file_left_in_place(self, tmp_path):
        deposit_locks(tmp_path, count=3)
        voiced_wav(tmp_path / "test.wav", "A", 2.0, 100)
        session = LockSession(make_config(tmp_path))
        settle(session)
        assert session.phase is Phase.WAITING_FOR_LOCKS
        assert (tmp_path / "test.wav").exists()
        # completing the lock set triggers a decision on the waiting file
        voiced_wav(tmp_path / "lock4.wav", "A", 2.0, 13)
        voiced_wav(tmp_path / "lock5.wav", "A", 2.0, 14)
        decisions = [d for d in settle(session, polls=6) if d is not None]
        assert decisions == [Decision.OPEN]


class TestVerifyOnce:
    def test_same_speaker(self, tmp_path):
        deposit_locks(tmp_path)
        voiced_wav(tmp_path / "test.wav", "A", 2.0, 100)
        decision, score = verify_once(make_config(tmp_path))
        assert decision is Decision.OPEN
        assert score.average >= 7.0
        assert len(score.per_lock_counts) == 5
        assert (tmp_path / "1").exists()
        assert not (tmp_path / "test.wav").exists()

    def test_other_speaker(self, tmp_path):
        deposit_locks(tmp_path)
        voiced_wav(tmp_path / "test.wav", "B", 2.0, 200)
        decision, score = verify_once(make_config(tmp_path))
        assert decision is Decision.CLOSED
        assert score.average < 7.0
        assert (tmp_path / "0").exists()

    def test_missing_lock_raises(self, tmp_path):
        deposit_locks(tmp_path, count=4)
        voiced_wav(tmp_path / "test.wav", "A", 2.0, 100)
        with pytest.raises(NoLocks):
            verify_once(make_config(tmp_path))

    def test_missing_test_raises(self, tmp_path):
        deposit_locks(tmp_path)
        with pytest.raises(FileNotFoundError):
            verify_once(make_config(tmp_path))

    def test_unreadable_test_raises(self, tmp_path):
        deposit_locks(tmp_path)
        (tmp_path / "test.wav").write_text("noise")
        with pytest.raises(UnreadableAudio):
            verify_once(make_config(tmp_path))

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(WatchDirMissing):
            verify_once(make_config(tmp_path / "absent"))


class TestConfigAndEnv:
    def test_lock_names(self, tmp_path):
        cfg = make_config(tmp_path, lock_file_count=3)
        assert cfg.lock_names() == ["lock1.wav", "lock2.wav", "lock3.wav"]

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            make_config(tmp_path, lock_file_count=0)
        with pytest.raises(ValueError):
            make_config(tmp_path, threshold=-1.0)
        with pytest.raises(ValueError):
            make_config(tmp_path, poll_interval_s=0.0)

    def test_env_overrides(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZFEPOCH_WATCH_DIR", str(tmp_path))
        monkeypatch.setenv("ZFEPOCH_THRESHOLD", "12.5")
        overrides = env_overrides()
        assert overrides["watch_dir"] == str(tmp_path)
        assert overrides["threshold"] == 12.5

    def test_env_empty(self, monkeypatch):
        monkeypatch.delenv("ZFEPOCH_WATCH_DIR", raising=False)
        monkeypatch.delenv("ZFEPOCH_THRESHOLD", raising=False)
        assert env_overrides() == {}


class TestDaemonLoop:
    def test_run_daemon_polls_and_sleeps(self, tmp_path, monkeypatch):
        deposit_locks(tmp_path)
        calls = {"n": 0}

        def fake_sleep(seconds):
            assert seconds == pytest.approx(0.01)
            calls["n"] += 1
            if calls["n"] >= 3:
                raise KeyboardInterrupt

        monkeypatch.setattr("zfepoch.lock.time.sleep", fake_sleep)
        with pytest.raises(KeyboardInterrupt):
            run_daemon(make_config(tmp_path))
        assert calls["n"] == 3

    def test_threaded_session_wall_clock(self, tmp_path):
        deposit_locks(tmp_path)
        session = LockSession(make_config(tmp_path, poll_interval_s=0.05))
        stop = threading.Event()
        decisions = []

        def loop():
            while not stop.is_set():
                result = session.poll_once()
                if result is not None:
                    decisions.append(result)
                time.sleep(session.config.poll_interval_s)

        worker = threading.Thread(target=loop)
        worker.start()
        try:
            deadline = time.monotonic() + 10.0
            while session.phase is not Phase.KEYED and time.monotonic() < deadline:
                time.sleep(0.02)
            assert session.phase is Phase.KEYED
            voiced_wav(tmp_path / "test.wav", "A", 2.0, 103)
            deadline = time.monotonic() + 10.0
            while not decisions and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            stop.set()
            worker.join(timeout=10.0)
        assert decisions == [Decision.OPEN]
        assert (tmp_path / "1").exists()
