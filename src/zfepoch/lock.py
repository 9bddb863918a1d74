"""File-protocol voice lock: key on enrollment audio, decide on tests.

A watch directory is the whole interface. Enrollment drops lock1.wav
through lockN.wav; once all are present the session is keyed. Each
deposited test.wav is scored against every lock by near-equal delta
counting, and the decision is published as an empty file named "1"
(open) or "0" (closed). The test file is deleted after each decision,
and deleting or replacing lock files resets the session to the waiting
state.
"""

from __future__ import annotations

import enum
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from .compare import MatchConfig, SimilarityScore, confidence
from .core import EpochSequence, FilterConfig, NoLocks, ZfepochError
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
    DECIDING = "deciding"


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
        if int(self.lock_file_count) != self.lock_file_count or self.lock_file_count < 1:
            raise ValueError(f"lock_file_count must be an integer >= 1, got {self.lock_file_count}")
        object.__setattr__(self, "lock_file_count", int(self.lock_file_count))
        if self.threshold < 0.0:
            raise ValueError(f"threshold must be >= 0, got {self.threshold}")
        if not self.poll_interval_s > 0.0:
            raise ValueError(f"poll_interval_s must be positive, got {self.poll_interval_s}")

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
    """Epochs of a lock or test WAV at the locks' rate; UnreadableAudio on any failure."""
    rates = {e.source_sample_rate_hz for e in locks}
    try:
        signal = read_wav(path)
        if rates and signal.sample_rate_hz not in rates:
            raise UnreadableAudio(
                f"sample rate {signal.sample_rate_hz} Hz does not match "
                f"keyed locks at {sorted(rates)[0]} Hz"
            )
        return extract_epochs(signal, config.method)
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


class LockSession:
    """One keying/deciding state machine over a watch directory.

    poll_once() performs a single scan step and returns the Decision if
    one was published, letting tests drive the protocol without timing;
    run() adds the sleep loop.

    A file is only processed once its size is unchanged between two
    consecutive polls, so partially transferred uploads are never read.
    Files that fail to decode are moved to a quarantine subdirectory and
    the session keeps running.
    """

    def __init__(self, config: LockConfig):
        if not config.watch_dir.is_dir():
            raise WatchDirMissing(f"watch directory {config.watch_dir} does not exist")
        self.config = config
        self.phase = Phase.WAITING_FOR_LOCKS
        self.lock_epochs: dict[str, EpochSequence] = {}
        # _file_id of each lock at the stat that admitted it
        self._lock_ids: dict[str, tuple[int, int, int]] = {}
        self._last_sizes: dict[str, int] = {}

    # -- file helpers -------------------------------------------------

    def _path(self, name: str) -> Path:
        return self.config.watch_dir / name

    def _stable_stat(self, path: Path) -> os.stat_result | None:
        """path's stat if it is present with the same size as on the previous poll."""
        try:
            st = path.stat()
        except OSError:
            self._last_sizes.pop(path.name, None)
            return None
        stable = self._last_sizes.get(path.name) == st.st_size
        self._last_sizes[path.name] = st.st_size
        return st if stable else None

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
        self._last_sizes.pop(path.name, None)

    def _read_epochs(self, path: Path) -> EpochSequence | None:
        """Extract epochs, quarantining the file on any decode failure."""
        try:
            return _load_epochs(path, self.config, self.lock_epochs.values())
        except UnreadableAudio as exc:
            self._quarantine(path, exc)
            return None

    # -- protocol steps ------------------------------------------------

    def _changed_locks(self) -> list[str]:
        """Admitted locks whose file is gone or is no longer the one admitted."""
        changed = []
        for name, admitted in self._lock_ids.items():
            try:
                current = _file_id(self._path(name).stat())
            except OSError:
                current = None
            if current != admitted:
                changed.append(name)
        return changed

    def _key_step(self) -> None:
        for name in self._changed_locks():
            del self.lock_epochs[name], self._lock_ids[name]
            self._last_sizes.pop(name, None)
        for name in self.config.lock_names():
            if name in self.lock_epochs:
                continue
            path = self._path(name)
            st = self._stable_stat(path)
            if st is not None:
                epochs = self._read_epochs(path)
                if epochs is not None:
                    self.lock_epochs[name] = epochs
                    self._lock_ids[name] = _file_id(st)
        if len(self.lock_epochs) == self.config.lock_file_count:
            self.phase = Phase.KEYED
            log.info("all %d lock files processed; keyed", self.config.lock_file_count)

    def _reset_if_locks_changed(self) -> None:
        changed = self._changed_locks()
        if changed:
            log.info("lock files removed or replaced (%s); resetting", ", ".join(changed))
            self.phase = Phase.WAITING_FOR_LOCKS
            self.lock_epochs.clear()
            self._lock_ids.clear()
            self._last_sizes.clear()

    def _decide_step(self) -> Decision | None:
        test_path = self._path(TEST_FILE)
        if self._stable_stat(test_path) is None:
            return None
        self.phase = Phase.DECIDING
        try:
            # a fresh test supersedes whatever was signalled before
            _publish(self.config.watch_dir, None)
            test_epochs = self._read_epochs(test_path)
            if test_epochs is None:
                return None
            ordered = [self.lock_epochs[n] for n in self.config.lock_names()]
            score = confidence(test_epochs, ordered, self.config.match)
            decision = decide(score, self.config.threshold)
            _publish(self.config.watch_dir, decision)
            test_path.unlink(missing_ok=True)
            self._last_sizes.pop(TEST_FILE, None)
            log.info(
                "decision %s (average %.4f vs threshold %s)",
                decision.value, score.average, self.config.threshold,
            )
            return decision
        finally:
            self.phase = Phase.KEYED

    def poll_once(self) -> Decision | None:
        """One scan of the watch directory; returns any published decision."""
        if self.phase is Phase.KEYED:
            self._reset_if_locks_changed()
        if self.phase is Phase.WAITING_FOR_LOCKS:
            self._key_step()
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
    score = confidence(test_epochs, locks, config.match)
    decision = decide(score, config.threshold)
    _publish(config.watch_dir, decision)
    test_path.unlink(missing_ok=True)
    return decision, score


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
            raise ValueError(f"{ENV_THRESHOLD} must be a number, got {raw!r}") from None
    return overrides
