"""Spans around the program's public functions, for the traced run only.

Wrappers are installed on names as their callers see them (for example
``zfepoch.lock.read_wav``, not ``zfepoch.io.read_wav``), record a span
only inside a benchmark operation, and are removed again afterwards.
A span's self time is its duration minus the union of its children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from zfepoch import compare, core, epochs, filters, lock
from zfepoch.core import METHODS

# Chunk size of the computed candidate count, as in greedy_nearest_match.
_TABLE_CHUNK = 4_000_000


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for an operation's root
    op: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one single-threaded caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ops = 0

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def begin_op(self, name: str, **attrs) -> int:
        """Open the root span of a new operation."""
        if self._stack:
            raise RuntimeError("operations do not nest")
        self._ops += 1
        return self._open(name, -1, attrs)

    def begin(self, name: str, **attrs) -> int:
        return self._open(name, self._stack[-1], attrs)

    def _open(self, name, parent, attrs) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._ops, attrs))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def write(self, path, self_ms) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "self_ms": self_ms[i],
                    "attrs": {k: v for k, v in s.attrs.items() if not k.startswith("_")},
                }) + "\n")


def _wrap(tracer: Tracer, fn, name: str, describe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if describe is not None:
            tracer.spans[index].attrs.update(describe(result, *args, **kwargs))
        return result
    return wrapper


def _pipeline(result, signal, config, **_):
    return {"method": config.method, "samples": len(signal)}


def _detected(result, *_, **__):
    return {"epochs": len(result)}


def _matched(result, a, b, tolerance):
    # the candidate count is computed after the run, outside every span
    return {"matches": len(result), "_args": (a, b, tolerance)}


def _compared(result, *_, **__):
    return {"compared_pairs": result.compared_pairs}


def _decoded(result, *_, **__):
    return {"bytes": 2 * len(result)}  # 16-bit mono PCM payload


def _targets():
    """(owner, attribute, span name, describe) for every wrapped name."""
    return [
        (filters, "validate_signal", "core.validate_signal", None),
        (epochs, "validate_signal", "core.validate_signal", None),
        (core.SampledSignal, "__post_init__", "core.dataclass", None),
        (core.EpochSequence, "__post_init__", "core.dataclass", None),
        (core.DeltaSequence, "__post_init__", "core.dataclass", None),
        (filters, "differentiate", "filters.differentiate", None),
        (filters, "cascaded_resonator", "filters.cascaded_resonator", None),
        (filters, "detrend", "filters.detrend", None),
        (filters, "trim_ends", "filters.trim_ends", None),
        (epochs, "run_pipeline", "filters.run_pipeline", _pipeline),
        (epochs, "detect_positive_zero_crossings", "epochs.detect", _detected),
        (epochs, "detect_negative_peaks", "epochs.detect", _detected),
        (epochs, "extract_epochs", "epochs.extract_epochs", None),
        (lock, "extract_epochs", "epochs.extract_epochs", None),
        (epochs, "evaluate", "epochs.evaluate", None),
        (epochs, "greedy_nearest_match", "epochs.greedy_nearest_match", _matched),
        (compare, "greedy_nearest_match", "epochs.greedy_nearest_match", _matched),
        (compare, "deltas", "compare.deltas", None),
        (compare, "confidence", "compare.confidence", _compared),
        (lock, "confidence", "compare.confidence", _compared),
        (lock, "read_wav", "io.read_wav", _decoded),
        (lock.LockSession, "poll_once", "lock.poll_once", None),
    ]


class Installed:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list = []

    def __enter__(self):
        for owner, attr, name, describe in _targets():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.tracer, original, name, describe))
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Duration minus the union of child intervals, clipped to the span."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[i]
            if c.end > s.start and c.start < s.end
        ]
        out.append(s.duration - union_length(clipped))
    return out


def self_sum_error(spans, selfs) -> float:
    """Largest |sum of self times - root duration| over all operations."""
    sums = defaultdict(float)
    roots = {}
    for s, own in zip(spans, selfs):
        sums[s.op] += own
        if s.parent < 0:
            roots[s.op] = s.duration
    return max((abs(sums[op] - d) for op, d in roots.items()), default=0.0)


def candidate_count(a, b, tolerance) -> int:
    """Pairs with |a_i - b_j| <= tolerance, by the matcher's own table test."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) == 0 or len(b) == 0:
        return 0
    chunk = max(1, _TABLE_CHUNK // len(b))
    return sum(
        int(np.count_nonzero(np.abs(a[lo:lo + chunk, None] - b[None, :]) <= tolerance))
        for lo in range(0, len(a), chunk)
    )


# name, unit, better; every value is per workload unit unless it is a ratio
PER_LAYER = [
    *[(f"filters.run_pipeline.ms.{m}", "ms", "lower") for m in METHODS],
    *[(f"filters.run_pipeline.self_ms.{m}", "ms", "lower") for m in METHODS],
    ("filters.msamples", "Msamples", "lower"),
    ("filters.detrend.ms", "ms", "lower"),
    ("filters.detrend.calls", "count", "lower"),
    ("filters.cascaded_resonator.ms", "ms", "lower"),
    ("filters.differentiate.ms", "ms", "lower"),
    ("filters.trim_ends.ms", "ms", "lower"),
    ("core.validate_signal.calls", "count", "lower"),
    ("core.validate_signal.ms", "ms", "lower"),
    ("core.dataclass.calls", "count", "lower"),
    ("core.dataclass.ms", "ms", "lower"),
    ("epochs.detect.ms", "ms", "lower"),
    ("epochs.detect.epochs", "count", "higher"),
    ("epochs.evaluate.ms", "ms", "lower"),
    ("epochs.greedy_nearest_match.ms", "ms", "lower"),
    ("epochs.greedy_nearest_match.calls", "count", "lower"),
    ("epochs.greedy_nearest_match.table_entries", "count", "lower"),
    ("epochs.greedy_nearest_match.candidates", "count", "lower"),
    ("epochs.greedy_nearest_match.matches", "count", "higher"),
    ("epochs.greedy_nearest_match.yield", "fraction", "higher"),
    ("compare.confidence.ms", "ms", "lower"),
    ("compare.confidence.self_ms", "ms", "lower"),
    ("compare.compared_pairs", "count", "higher"),
    ("io.read_wav.ms", "ms", "lower"),
    ("io.read_wav.calls", "count", "lower"),
    ("io.read_wav.mb", "MB", "lower"),
    ("lock.poll_once.ms", "ms", "lower"),
    ("lock.poll_once.self_ms", "ms", "lower"),
    ("lock.polls_per_decision", "count", "lower"),
    ("lock.idle_polls", "count", "lower"),
    ("lock.extracts_per_rekey", "count", "lower"),
    ("lock.rekey_yield", "fraction", "higher"),
    ("trace.self_sum_error_ms", "ms", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, workload: str, units: int) -> tuple[dict, list[float]]:
    """Per-layer values over one workload's traced operations.

    Times and counts are totals per workload unit (a pass or a lock
    cycle). Returns the values and every span's self time (s).
    """
    spans = tracer.spans
    selfs = self_times(spans)
    roots = {s.op: s for s in spans if s.parent < 0}
    mine = [(s, own) for s, own in zip(spans, selfs)
            if roots[s.op].attrs.get("workload") == workload]
    ms, self_ms, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    attrs = defaultdict(float)
    for s, own in mine:
        key = s.name
        if s.name == "filters.run_pipeline":
            key = f"{s.name}.{s.attrs['method']}"
            attrs["samples"] += s.attrs["samples"]
        elif s.name == "epochs.greedy_nearest_match":
            a, b, tol = s.attrs.pop("_args")
            s.attrs["table_entries"] = len(a) * len(b)
            s.attrs["candidates"] = candidate_count(a, b, tol)
            for k in ("table_entries", "candidates", "matches"):
                attrs[k] += s.attrs[k]
        elif s.name == "epochs.detect":
            attrs["epochs"] += s.attrs["epochs"]
        elif s.name == "compare.confidence":
            attrs["compared_pairs"] += s.attrs["compared_pairs"]
        elif s.name == "io.read_wav":
            attrs["bytes"] += s.attrs["bytes"]
        ms[key] += s.duration * 1e3
        self_ms[key] += own * 1e3
        calls[key] += 1
        op = roots[s.op].name
        if s.name == "epochs.extract_epochs" and op == "op.rekey":
            calls["rekey_extracts"] += 1
        elif s.name == "lock.poll_once" and op == "op.decision":
            calls["decision_polls"] += 1

    per = 1.0 / max(units, 1)
    values = {
        **{f"filters.run_pipeline.ms.{m}": ms[f"filters.run_pipeline.{m}"] * per for m in METHODS},
        **{f"filters.run_pipeline.self_ms.{m}": self_ms[f"filters.run_pipeline.{m}"] * per
           for m in METHODS},
        "filters.msamples": attrs["samples"] / 1e6 * per,
        "filters.detrend.ms": ms["filters.detrend"] * per,
        "filters.detrend.calls": calls["filters.detrend"] * per,
        "filters.cascaded_resonator.ms": ms["filters.cascaded_resonator"] * per,
        "filters.differentiate.ms": ms["filters.differentiate"] * per,
        "filters.trim_ends.ms": ms["filters.trim_ends"] * per,
        "core.validate_signal.calls": calls["core.validate_signal"] * per,
        "core.validate_signal.ms": ms["core.validate_signal"] * per,
        "core.dataclass.calls": calls["core.dataclass"] * per,
        "core.dataclass.ms": ms["core.dataclass"] * per,
        "epochs.detect.ms": ms["epochs.detect"] * per,
        "epochs.detect.epochs": attrs["epochs"] * per,
        "epochs.evaluate.ms": ms["epochs.evaluate"] * per,
        "epochs.greedy_nearest_match.ms": ms["epochs.greedy_nearest_match"] * per,
        "epochs.greedy_nearest_match.calls": calls["epochs.greedy_nearest_match"] * per,
        "epochs.greedy_nearest_match.table_entries": attrs["table_entries"] * per,
        "epochs.greedy_nearest_match.candidates": attrs["candidates"] * per,
        "epochs.greedy_nearest_match.matches": attrs["matches"] * per,
        "epochs.greedy_nearest_match.yield": _ratio(attrs["matches"], attrs["candidates"]),
        "compare.confidence.ms": ms["compare.confidence"] * per,
        "compare.confidence.self_ms": self_ms["compare.confidence"] * per,
        "compare.compared_pairs": attrs["compared_pairs"] * per,
        "io.read_wav.ms": ms["io.read_wav"] * per,
        "io.read_wav.calls": calls["io.read_wav"] * per,
        "io.read_wav.mb": attrs["bytes"] / 1e6 * per,
        "lock.poll_once.ms": ms["lock.poll_once"] * per,
        "lock.poll_once.self_ms": self_ms["lock.poll_once"] * per,
        "lock.polls_per_decision": _ratio(calls["decision_polls"], calls["op.decision"]),
        "lock.idle_polls": (calls["decision_polls"] - calls["op.decision"]) * per,
        "lock.extracts_per_rekey": _ratio(calls["rekey_extracts"], calls["op.rekey"]),
        # each rekey replaces exactly one lock file
        "lock.rekey_yield": _ratio(calls["op.rekey"], calls["rekey_extracts"]),
    }
    residual = self_sum_error([s for s, _ in mine], [own for _, own in mine])
    values["trace.self_sum_error_ms"] = residual * 1e3
    return values, selfs
