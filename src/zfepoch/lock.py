"""File-protocol voice lock: key on enrollment audio, decide on tests.

A watch directory is the whole interface. Enrollment drops lock1.wav
through lockN.wav; once all are present the session is keyed. Each
deposited test.wav is scored against every lock by near-equal delta
counting, and the decision is published as an empty file named "1"
(open) or "0" (closed). The test file is deleted after each decision.
Deleting or replacing a lock file drops only that lock's epochs; the
session waits until the new file is admitted, then decides again.
"""

from __future__ import annotations

import enum
import logging
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .compare import MatchConfig, SimilarityScore, confidence
from .core import BadConfig, EpochSequence, FilterConfig, NoLocks, ZfepochError, positive_count
from .epochs import extract_epochs
from .io import read_wav

log = logging.getLogger(__name__)

TEST_FILE = "test.wav"
QUARANTINE_DIR = "quarantine"
SIGNAL_NAMES = {"open": "1", "closed": "0"}

ENV_WATCH_DIR = "ZFEPOCH_WATCH_DIR"
ENV_THRESHOLD = "ZFEPOCH_THRESHOLD"

DEFAULT_THRESHOLD = 7.0


class WatchDirMissing(ZfepochError):
    """The configured watch directory does not exist."""


class UnreadableAudio(ZfepochError):
    """A lock or test file could not be decoded."""


class Decision(enum.Enum):
    OPEN = "open"
    CLOSED = "closed"

    @property
    def signal_name(self) -> str:
        return SIGNAL_NAMES[self.value]


class Phase(enum.Enum):
    WAITING_FOR_LOCKS = "waiting_for_locks"
    KEYED = "keyed"


@dataclass(frozen=True)
class LockConfig:
    """Voice-lock parameters; method is the epoch-extraction config."""

    watch_dir: Path
    lock_file_count: int = 5
    threshold: float = DEFAULT_THRESHOLD
    poll_interval_s: float = 1.0
    method: FilterConfig = field(default_factory=lambda: FilterConfig("zpzfr"))
    match: MatchConfig = field(default_factory=MatchConfig)

    def __post_init__(self):
        object.__setattr__(self, "watch_dir", Path(self.watch_dir))
        object.__setattr__(self, "lock_file_count",
                           positive_count(self.lock_file_count, "lock_file_count"))
        if not self.threshold >= 0.0:
            raise BadConfig(f"threshold must be >= 0, got {self.threshold}")
        if not 0.0 < self.poll_interval_s < math.inf:
            raise BadConfig(
                f"poll_interval_s must be positive and finite, got {self.poll_interval_s}")

    def lock_names(self) -> list[str]:
        return [f"lock{i}.wav" for i in range(1, self.lock_file_count + 1)]


def decide(score: SimilarityScore, threshold: float) -> Decision:
    """Open iff the average count reaches the threshold and is not zero.

    The nonzero clause keeps threshold 0 from opening on a test that
    matched nothing at all.
    """
    if score.average >= threshold and score.average != 0.0:
        return Decision.OPEN
    return Decision.CLOSED


def _load_epochs(path: Path, config: LockConfig, locks) -> EpochSequence:
    """Epochs of a lock or test WAV at the locks' rate.

    Raises UnreadableAudio on any failure except BadConfig, any config
    fault (such as a detrend window under one sample at the file's
    rate), which passes through so that verify_once reports it as a
    usage error. The daemon quarantines the file for either.
    """
    rates = {e.source_sample_rate_hz for e in locks}
    try:
        signal = read_wav(path)
        if rates and signal.sample_rate_hz not in rates:
            raise UnreadableAudio(
                f"sample rate {signal.sample_rate_hz} Hz does not match "
                f"keyed locks at {sorted(rates)[0]} Hz"
            )
        return extract_epochs(signal, config.method)
    except BadConfig:
        raise
    except ZfepochError as exc:
        raise UnreadableAudio(f"{path.name}: {exc}") from exc


def _file_id(st: os.stat_result) -> tuple[int, int, int]:
    # a new file renamed over a lock has a new inode; one rewritten in
    # place has a new mtime
    return (st.st_size, st.st_mtime_ns, st.st_ino)


def _publish(watch_dir: Path, decision: Decision | None) -> None:
    """Remove any signal file, then create the decision's, if any."""
    for name in SIGNAL_NAMES.values():
        (watch_dir / name).unlink(missing_ok=True)
    if decision is not None:
        (watch_dir / decision.signal_name).touch()


def _decide_and_publish(
    config: LockConfig, locks: list[EpochSequence], test_path: Path, test_epochs: EpochSequence
) -> tuple[Decision, SimilarityScore]:
    """Score a test against the ordered locks, publish the decision and consume the test file."""
    score = confidence(test_epochs, locks, config.match)
    decision = decide(score, config.threshold)
    _publish(config.watch_dir, decision)
    test_path.unlink(missing_ok=True)
    log.info(
        "decision %s (average %.4f vs threshold %s)",
        decision.value, score.average, config.threshold,
    )
    return decision, score


class LockSession:
    """One keying/deciding state machine over a watch directory.

    poll_once() performs a single scan step and returns the Decision if
    one was published, letting tests drive the protocol without timing;
    run() adds the sleep loop.

    A file is only processed once its size, mtime and inode are
    unchanged between two consecutive polls, so partially transferred
    uploads are never read. Every poll drops each admitted lock whose
    file is gone or no longer the one admitted; only that lock is read
    again. Files that fail to decode are moved to a quarantine
    subdirectory and the session keeps running.
    """

    def __init__(self, config: LockConfig):
        if not config.watch_dir.is_dir():
            raise WatchDirMissing(f"watch directory {config.watch_dir} does not exist")
        self.config = config
        self.lock_epochs: dict[str, EpochSequence] = {}
        # _file_id of each file at the previous poll; for an admitted
        # lock, the id it was admitted with
        self._seen: dict[str, tuple[int, int, int]] = {}

    @property
    def phase(self) -> Phase:
        if len(self.lock_epochs) < self.config.lock_file_count:
            return Phase.WAITING_FOR_LOCKS
        return Phase.KEYED

    # -- file helpers -------------------------------------------------

    def _path(self, name: str) -> Path:
        return self.config.watch_dir / name

    def _stable(self, name: str) -> bool:
        """Whether the file is present with the same id as on the previous poll."""
        try:
            current = _file_id(self._path(name).stat())
        except OSError:
            self._seen.pop(name, None)
            return False
        stable = self._seen.get(name) == current
        self._seen[name] = current
        return stable

    def _quarantine(self, path: Path, reason: Exception) -> None:
        pen = self._path(QUARANTINE_DIR)
        pen.mkdir(exist_ok=True)
        target = pen / path.name
        n = 1
        while target.exists():
            target = pen / f"{path.stem}.{n}{path.suffix}"
            n += 1
        log.error("quarantining %s", reason)
        path.rename(target)
        self._seen.pop(path.name, None)

    def _read_epochs(self, path: Path) -> EpochSequence | None:
        """Extract epochs, quarantining the file on any decode failure.

        A file whose header makes the config unusable (BadConfig) is
        quarantined too: a header must not be able to stop the session.
        """
        try:
            return _load_epochs(path, self.config, self.lock_epochs.values())
        except (UnreadableAudio, BadConfig) as exc:
            self._quarantine(path, exc)
            return None

    # -- protocol steps ------------------------------------------------

    def _key_step(self) -> None:
        """Drop each admitted lock that changed; admit each stable one not yet admitted."""
        for name in self.config.lock_names():
            stable = self._stable(name)
            if name in self.lock_epochs:
                if not stable:
                    log.info("%s removed or replaced; waiting for it again", name)
                    del self.lock_epochs[name]
            elif stable:
                epochs = self._read_epochs(self._path(name))
                if epochs is not None:
                    self.lock_epochs[name] = epochs
                    if self.phase is Phase.KEYED:
                        log.info("all %d lock files processed; keyed", self.config.lock_file_count)

    def _decide_step(self) -> Decision | None:
        test_path = self._path(TEST_FILE)
        if not self._stable(TEST_FILE):
            return None
        # a fresh test supersedes whatever was signalled before
        _publish(self.config.watch_dir, None)
        test_epochs = self._read_epochs(test_path)
        if test_epochs is None:
            return None
        locks = [self.lock_epochs[n] for n in self.config.lock_names()]
        decision, _ = _decide_and_publish(self.config, locks, test_path, test_epochs)
        self._seen.pop(TEST_FILE, None)
        return decision

    def poll_once(self) -> Decision | None:
        """One scan of the watch directory; returns any published decision."""
        self._key_step()
        if self.phase is Phase.WAITING_FOR_LOCKS:
            return None
        return self._decide_step()

    def run(self) -> None:
        """Poll forever at the configured interval."""
        while True:
            self.poll_once()
            time.sleep(self.config.poll_interval_s)


def run_daemon(config: LockConfig) -> None:
    """Start a session over config.watch_dir and run until terminated."""
    LockSession(config).run()


def verify_once(config: LockConfig) -> tuple[Decision, SimilarityScore]:
    """Single key-and-decide cycle, no polling.

    All lock files and the test file must already be present and
    readable. Publishes the signal file and deletes the test file,
    exactly like one daemon decision.
    """
    if not config.watch_dir.is_dir():
        raise WatchDirMissing(f"watch directory {config.watch_dir} does not exist")
    missing = [n for n in config.lock_names() if not (config.watch_dir / n).exists()]
    if missing:
        raise NoLocks(f"missing lock files: {', '.join(missing)}")
    test_path = config.watch_dir / TEST_FILE
    if not test_path.exists():
        raise FileNotFoundError(f"no {TEST_FILE} in {config.watch_dir}")

    locks = []
    for name in config.lock_names():
        locks.append(_load_epochs(config.watch_dir / name, config, locks))
    test_epochs = _load_epochs(test_path, config, locks)
    return _decide_and_publish(config, locks, test_path, test_epochs)


def env_overrides() -> dict:
    """Environment-variable overrides for the lock CLI."""
    overrides = {}
    if os.environ.get(ENV_WATCH_DIR):
        overrides["watch_dir"] = os.environ[ENV_WATCH_DIR]
    if os.environ.get(ENV_THRESHOLD):
        raw = os.environ[ENV_THRESHOLD]
        try:
            overrides["threshold"] = float(raw)
        except ValueError:
            raise BadConfig(f"{ENV_THRESHOLD} must be a number, got {raw!r}") from None
    return overrides
