"""Inputs, timed operations and output checks of the three workloads.

Every workload is a closed loop with a single caller: one process, one
thread, and the next operation starts when the previous one returns.
Work is done in units (one pass over the inputs, or one lock cycle) and
a timed window only ends at a unit boundary, so per-unit counts repeat
exactly from run to run.

The program is always called through module attributes
(``epochs.extract_epochs``, ``compare.confidence``, ...), so the span
wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time
import tracemalloc
from pathlib import Path

import numpy as np

from zfepoch import compare, epochs, lock, synth
from zfepoch import io as zio
from zfepoch.compare import MatchConfig
from zfepoch.core import METHODS, FilterConfig

SNR_DB = 20.0
# Acceptance criterion 4: zff and zpzfr are held to 0.5 ms on noisy
# audio, while zfr's bent phase drags its marks ~3.7 ms late.
RECALL_TOLERANCE_S = {"zfr": 0.004, "zff": 0.0005, "zpzfr": 0.0005}
EVAL_TOLERANCE_S = 0.00025
TAIL_LADDER = (50.0, 90.0, 95.0)
TAIL_BEYOND = 10
MAX_POLLS = 8
MAX_FAILURE_NOTES = 20

# sub-seed purposes, so each input gets its own stream from --seed
_EXTRACT, _SCORE, _LOCK_KEY, _LOCK_TEST, _LOCK_REKEY = range(5)


def sub_seed(seed: int, *path: int) -> int:
    """A reproducible 32-bit seed for one input, derived from the run seed."""
    entropy = [seed & 0xFFFFFFFFFFFFFFFF, *path]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def voice(name: str, duration_s: float, seed: int):
    """Noisy built-in voice at 16 kHz: (signal, true epochs)."""
    return synth.synth_voice(synth.speaker(name, duration_s, seed=seed, noise_snr_db=SNR_DB))


def nearest_matches(detected: np.ndarray, truth: np.ndarray, tolerance_s: float) -> int:
    """How many true epochs have their nearest detection within tolerance.

    Both sequences are sorted, so one searchsorted finds each true
    epoch's neighbours. This is the benchmark's own matcher; unlike the
    program's greedy one-to-one ``evaluate``, a detection may serve two
    true epochs.
    """
    if len(detected) == 0 or len(truth) == 0:
        return 0
    idx = np.searchsorted(detected, truth)
    left = detected[np.clip(idx - 1, 0, len(detected) - 1)]
    right = detected[np.clip(idx, 0, len(detected) - 1)]
    nearest = np.minimum(np.abs(truth - left), np.abs(right - truth))
    return int(np.count_nonzero(nearest <= tolerance_s))


def tail_percentile(count: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it.

    The ladder stops at p95, which lock_stream's minimum of 200 decisions
    always reaches, so a faster program that fits more samples into a
    timed window is not judged at a higher percentile.
    """
    best = None
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= TAIL_BEYOND:
            best = p
    return best


def tail_value(samples) -> tuple[float | None, float | None]:
    """(percentile, value) of the tail rule; (None, None) below 20 samples."""
    p = tail_percentile(len(samples))
    if p is None:
        return None, None
    return p, float(np.percentile(np.asarray(samples), p))


def median(values) -> float | None:
    return float(statistics.median(values)) if values else None


def epoch_problems(times: np.ndarray, duration_s: float) -> str | None:
    """Why an epoch sequence is malformed, or None."""
    if len(times) and not np.all(np.diff(times) > 0.0):
        return "epoch times not strictly increasing"
    if len(times) and (times[0] < 0.0 or times[-1] > duration_s):
        return "epoch time outside the signal span"
    return None


class Recorder:
    """Counts operations, times them, and collects spans and peaks.

    ``call`` runs one timed operation. While ``tracer`` is set, the
    operation gets a root span tagged with its workload; while ``memory``
    is on (and tracemalloc running), the largest peak above an
    operation's starting allocation is kept.
    """

    def __init__(self):
        self.tracer = None
        self.memory = False
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.peak_bytes = 0

    def call(self, workload: str, op: str, fn, *args):
        """Run fn(*args) as one operation; (result, seconds) or (None, None)."""
        self.attempted += 1
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        root = self.tracer.begin_op(f"op.{op}", workload=workload) if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # any exception is a counted failure, not a crash
            self._note(f"{workload}/{op}: {type(exc).__name__}: {exc}")
            self.failed += 1
            return None, None
        finally:
            elapsed = time.perf_counter() - t0
            if root is not None:
                self.tracer.end(root)
        if self.memory:
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1] - base)
        return result, elapsed

    def reject(self, workload: str, op: str, problem: str) -> None:
        """Count a completed operation whose output failed a check."""
        self.failed += 1
        self._note(f"{workload}/{op}: {problem}")

    def _note(self, text: str) -> None:
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(text)


class Workload:
    """One set of inputs plus the unit of work done on them.

    ``unit`` appends to a window's samples (lists keyed by sample name);
    a window holds at least ``min_units`` units when it is the named one.
    """

    name = ""
    min_units = 1

    def unit(self, rec: Recorder, samples: dict) -> None:
        raise NotImplementedError

    def metrics(self, samples: dict) -> dict:
        """End-to-end metric values of one window; None where unmeasured."""
        raise NotImplementedError

    def describe(self, samples: dict) -> dict:
        """Output fingerprint, so two commits can be seen to agree."""
        raise NotImplementedError


class LongExtract(Workload):
    """The filters pipeline on long arrays.

    300 s of speaker A takes zff's segmented path and 30 s of speaker B
    its direct path; B's 190 Hz voice doubles the epoch density.
    """

    name = "long_extract"
    min_units = 3

    def __init__(self, seed: int):
        self.inputs = [
            ("A",) + voice("A", 300.0, sub_seed(seed, _EXTRACT, 0)),
            ("B",) + voice("B", 30.0, sub_seed(seed, _EXTRACT, 1)),
        ]
        self.samples_total = sum(len(sig) for _, sig, _ in self.inputs)
        self.largest_array_bytes = max(sig.samples.nbytes for _, sig, _ in self.inputs)
        self.configs = {m: FilterConfig(m) for m in METHODS}
        self.first: dict = {}
        self.fingerprint: dict = {}

    def unit(self, rec, samples):
        for method in METHODS:
            total = 0.0
            for spk, sig, truth in self.inputs:
                found, dt = rec.call(self.name, "extract", epochs.extract_epochs,
                                     sig, self.configs[method])
                if found is None:
                    total = None
                    continue
                problem = epoch_problems(found.times_s, sig.duration_s)
                key = (method, spk)
                digest = hashlib.sha1(found.times_s.tobytes()).hexdigest()
                if problem is None and self.first.setdefault(key, digest) != digest:
                    problem = "epochs differ from the first pass"
                if problem:
                    rec.reject(self.name, "extract", f"{method}/{spk}: {problem}")
                    total = None
                    continue
                if key not in self.fingerprint:
                    hit = nearest_matches(found.times_s, truth.times_s, RECALL_TOLERANCE_S[method])
                    self.fingerprint[key] = (len(found), hit, len(truth))
                if total is not None:
                    total += dt
            if total is not None:
                samples.setdefault(f"seconds.{method}", []).append(total)

    def metrics(self, samples):
        out = {}
        for method in METHODS:
            seconds = median(samples.get(f"seconds.{method}", []))
            out[f"extract_msps.{method}"] = (
                self.samples_total / seconds / 1e6 if seconds else None
            )
            rows = [self.fingerprint.get((method, spk)) for spk, _, _ in self.inputs]
            out[f"epoch_recall.{method}"] = (
                sum(r[1] for r in rows) / sum(r[2] for r in rows) if all(rows) else None
            )
        return out

    def describe(self, samples: dict) -> dict:
        return {
            f"{method}/{spk}": {"epochs": row[0], "recalled": row[1], "true": row[2],
                                "tolerance_s": RECALL_TOLERANCE_S[method]}
            for (method, spk), row in sorted(self.fingerprint.items())
        }


class ScoreCorpus(Workload):
    """The quadratic greedy matcher, with filtering kept out of the timing.

    evaluate sees sparse candidates (about one per epoch); nearest
    alignment on a genuine pair sees dense ones (most of the n*m pairs).
    """

    name = "score_corpus"
    min_units = 3

    def __init__(self, seed: int):
        zpzfr = FilterConfig("zpzfr")
        self.corpus = []
        for i, spk in enumerate("AB"):
            sig, truth = voice(spk, 60.0, sub_seed(seed, _SCORE, i))
            self.corpus.append((spk, epochs.extract_epochs(sig, zpzfr), truth))
        a1, a2, b = (
            epochs.extract_epochs(voice(spk, 10.0, sub_seed(seed, _SCORE, 2 + i))[0], zpzfr)
            for i, spk in enumerate("AAB")
        )
        self.pairs = [("genuine", a1, a2), ("impostor", a1, b)]
        self.match = MatchConfig(alignment="nearest")
        self.first: dict = {}

    def _consistent(self, rec, op, key, value, problem):
        if problem is None and self.first.setdefault(key, value) != value:
            problem = "result differs from the first pass"
        if problem:
            rec.reject(self.name, op, f"{key}: {problem}")
        return problem is None

    def unit(self, rec, samples):
        total = 0.0
        for spk, found, truth in self.corpus:
            report, dt = rec.call(self.name, "evaluate", epochs.evaluate,
                                  found, truth, EVAL_TOLERANCE_S)
            if report is None:
                total = None
                continue
            problem = None
            reachable = nearest_matches(found.times_s, truth.times_s, EVAL_TOLERANCE_S)
            if (report.reference_count, report.detected_count) != (len(truth), len(found)):
                problem = "counts do not match the inputs"
            elif not 0 <= report.matched_count <= reachable:
                problem = "more matches than true epochs with a detection in tolerance"
            value = (report.matched_count, repr(report.mean_abs_error_s))
            ok = self._consistent(rec, "evaluate", f"evaluate/{spk}", value, problem)
            total = total + dt if ok and total is not None else None
        if total is not None:
            samples.setdefault("evaluate_s", []).append(total)

        total = 0.0
        for label, test, lock_epochs in self.pairs:
            score, dt = rec.call(self.name, "nearest", compare.confidence,
                                 test, [lock_epochs], self.match)
            if score is None:
                total = None
                continue
            d1, d2 = np.diff(test.times_s), np.diff(lock_epochs.times_s)
            problem = None
            if score.compared_pairs != min(len(d1), len(d2)):
                problem = "compared_pairs is not the shorter sequence length"
            elif not 0 <= score.delta12_count <= score.compared_pairs:
                problem = "count outside [0, compared_pairs]"
            value = (score.per_lock_counts, score.compared_pairs)
            ok = self._consistent(rec, "nearest", f"nearest/{label}", value, problem)
            total = total + dt if ok and total is not None else None
        if total is not None:
            samples.setdefault("nearest_s", []).append(total)

    def metrics(self, samples):
        ev = median(samples.get("evaluate_s", []))
        nn = median(samples.get("nearest_s", []))
        return {
            "evaluate_ms": ev * 1e3 if ev else None,
            "compare_nearest_ms": nn * 1e3 if nn else None,
        }

    def describe(self, samples: dict) -> dict:
        out = {}
        for key, value in sorted(self.first.items()):
            if key.startswith("evaluate/"):
                out[key] = {"matched_count": value[0]}
            else:
                out[key] = {"per_lock_counts": list(value[0]), "compared_pairs": value[1]}
        return out


class LockStream(Workload):
    """Per-call overhead of io, filters, compare and lock on short clips.

    One LockSession keyed on five 2 s clips of A. A cycle replaces one
    lock file (removal, then a new A clip), then deposits ten 2 s test
    clips alternating genuine A and impostor B, each with a fresh seed.
    Polls run back to back, so the configured poll interval never
    enters the timing.
    """

    name = "lock_stream"
    min_units = 20
    tests_per_cycle = 10

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config = lock.LockConfig(watch_dir=workdir / "watch")
        self.lock_clips = [
            voice("A", 2.0, sub_seed(seed, _LOCK_KEY, i))[0]
            for i in range(self.config.lock_file_count)
        ]
        self.place_locks(self.config.watch_dir)
        self.session = lock.LockSession(self.config)
        self._poll_until_keyed()
        self.tests = 0
        self.rekeys = 0
        self.tally = {"genuine/open": 0, "genuine/closed": 0,
                      "impostor/open": 0, "impostor/closed": 0}
        self.first_cycle_counts: list = []

    @staticmethod
    def _stage(watch: Path, name: str, signal) -> Path:
        """Write a clip beside its target name; the caller renames it in."""
        staging = watch / f".staging-{name}"
        zio.write_wav(signal, staging)
        return staging

    def place_locks(self, watch: Path) -> None:
        """Write the five enrollment clips into a watch directory."""
        watch.mkdir(parents=True, exist_ok=True)
        for name, clip in zip(self.config.lock_names(), self.lock_clips):
            os.replace(self._stage(watch, name, clip), watch / name)

    def _poll_until_keyed(self) -> int:
        polls = 0
        while self.session.phase is not lock.Phase.KEYED:
            self.session.poll_once()
            polls += 1
            if polls > MAX_POLLS:
                raise RuntimeError(f"not keyed after {polls} polls")
        return polls

    def _poll_until_decided(self):
        for _ in range(MAX_POLLS):
            decision = self.session.poll_once()
            if decision is not None:
                return decision
        raise RuntimeError(f"no decision after {MAX_POLLS} polls")

    def unit(self, rec, samples):
        watch = self.config.watch_dir
        names = self.config.lock_names()
        name = names[self.rekeys % len(names)]
        clip = voice("A", 2.0, sub_seed(self.seed, _LOCK_REKEY, self.rekeys))[0]
        self.rekeys += 1
        (watch / name).unlink()
        self.session.poll_once()  # the session notices the removal and resets
        staged = self._stage(watch, name, clip)
        if self.session.phase is not lock.Phase.WAITING_FOR_LOCKS:
            rec.attempted += 1
            rec.reject(self.name, "rekey", "lock removal did not reset the session")
            staged.unlink()
            return
        os.replace(staged, watch / name)
        polls, dt = rec.call(self.name, "rekey", self._poll_until_keyed)
        if polls is not None:
            if len(self.session.lock_epochs) != len(names):
                rec.reject(self.name, "rekey", "keyed without every lock")
            else:
                samples.setdefault("rekey_s", []).append(dt)

        for i in range(self.tests_per_cycle):
            genuine = i % 2 == 0
            speaker = "A" if genuine else "B"
            clip = voice(speaker, 2.0, sub_seed(self.seed, _LOCK_TEST, self.tests))[0]
            self.tests += 1
            staged = self._stage(watch, lock.TEST_FILE, clip)
            first_cycle = self.rekeys == 1
            if first_cycle:
                # what the session will score, computed before the file is consumed
                test_epochs = epochs.extract_epochs(zio.read_wav(staged), self.config.method)
            os.replace(staged, watch / lock.TEST_FILE)
            decision, dt = rec.call(self.name, "decision", self._poll_until_decided)
            if decision is None:
                (watch / lock.TEST_FILE).unlink(missing_ok=True)
                continue
            label = "genuine" if genuine else "impostor"
            expected = lock.Decision.OPEN if genuine else lock.Decision.CLOSED
            other = lock.Decision.CLOSED if genuine else lock.Decision.OPEN
            if decision is not expected:
                problem = f"{label} test decided {decision.value}"
            elif (watch / other.signal_name).exists() or not (watch / decision.signal_name).exists():
                problem = "published signal files do not match the decision"
            elif (watch / lock.TEST_FILE).exists():
                problem = "test file left in place"
            else:
                problem = None
            self.tally[f"{label}/{decision.value}"] += 1
            if problem:
                rec.reject(self.name, "decision", problem)
                continue
            samples.setdefault("decision_s", []).append(dt)
            if first_cycle:
                ordered = [self.session.lock_epochs[n] for n in names]
                score = compare.confidence(test_epochs, ordered, self.config.match)
                self.first_cycle_counts.append(list(score.per_lock_counts))

    def metrics(self, samples):
        decisions = samples.get("decision_s", [])
        p50 = median(decisions)
        _, tail = tail_value(decisions)
        rekey = median(samples.get("rekey_s", []))
        return {
            "decision_p50_ms": p50 * 1e3 if p50 else None,
            "decision_tail_ms": tail * 1e3 if tail else None,
            "rekey_p50_ms": rekey * 1e3 if rekey else None,
        }

    def describe(self, samples: dict) -> dict:
        decisions = samples.get("decision_s", [])
        return {
            "per_lock_counts_first_cycle": self.first_cycle_counts,
            "decision_tally": dict(self.tally),
            "decision_tail": {"percentile": tail_percentile(len(decisions)),
                              "samples": len(decisions)},
            "rekeys": len(samples.get("rekey_s", [])),
        }

