"""
The watch-directory voice lock, one poll at a time
==================================================

The lock daemon owns a directory. Whoever controls the microphone drops
lock1.wav .. lock5.wav to enroll a voice, then test.wav to ask "is this
the same speaker?". The daemon answers by creating a file named 1 (open)
or 0 (closed). This script drives the same state machine synchronously
so every transition is visible.
"""

import tempfile
from pathlib import Path

import numpy as np

from zfepoch import (
    LockConfig,
    LockSession,
    Phase,
    SampledSignal,
    speaker,
    synth_voice,
    write_wav,
)

watch = Path(tempfile.mkdtemp(prefix="voicelock_"))
print(f"watch directory: {watch}")


def deposit(name, speaker_name, seed):
    signal, _ = synth_voice(speaker(speaker_name, 2.0, seed=seed))
    peak = np.max(np.abs(signal.samples))
    if peak > 1.0:
        signal = SampledSignal(signal.samples / (peak * 1.0001), signal.sample_rate_hz)
    write_wav(signal, watch / name)


def show(label, session):
    signals = [p.name for p in watch.iterdir() if p.name in ("0", "1")]
    print(f"{label:34s} phase={session.phase.name:18s} signals={signals}")


# enroll: five utterances of speaker A become the lock files
for i, seed in enumerate((10, 11, 12, 13, 14), start=1):
    deposit(f"lock{i}.wav", "A", seed)

session = LockSession(LockConfig(watch_dir=watch, poll_interval_s=0.5))
show("before any poll", session)

# a file is only trusted once its size, mtime and inode are unchanged
# between two polls, so keying always takes at least two
session.poll_once()
show("poll 1 (file ids recorded)", session)
session.poll_once()
show("poll 2 (locks admitted)", session)

# same speaker knocks: decision file 1 appears, test.wav is consumed
deposit("test.wav", "A", 100)
for _ in range(2):
    decision = session.poll_once()
show(f"speaker A test -> {decision.value}", session)

# different speaker knocks: the old signal is cleared, 0 appears
deposit("test.wav", "B", 200)
for _ in range(2):
    decision = session.poll_once()
show(f"speaker B test -> {decision.value}", session)

# removing a lock file invalidates the enrollment until it is restored;
# only the restored file is read again
(watch / "lock3.wav").unlink()
session.poll_once()
show("lock3.wav removed", session)

deposit("lock3.wav", "A", 12)
session.poll_once()
session.poll_once()
show("lock3.wav restored", session)

# unreadable audio never crashes the daemon; it is moved aside
(watch / "test.wav").write_text("this is not a WAV file")
session.poll_once()
session.poll_once()
quarantined = [p.name for p in (watch / "quarantine").iterdir()]
show("garbage test quarantined", session)
print(f"quarantine/ now holds: {quarantined}")

print("\nthe same loop runs unattended via: zfepoch lock --dir", watch)
