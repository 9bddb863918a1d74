"""Benchmark of zfepoch: three workloads, end-to-end and per-layer metrics.

Run from the repository root, which must hold ``src/zfepoch``:

    python3 bench/run.py --workload lock_stream --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for why each was chosen):

* long_extract  the filters pipeline on 300 s + 30 s arrays, all methods
* lock_stream   a keyed LockSession deciding on 2 s test clips
* score_corpus  evaluate and nearest-alignment confidence (the matcher)

All three are closed loops with a single caller. The named workload
runs for ``--seconds`` of its own time (and at least its minimum number
of units); a fixed number of units of the other two is interleaved with
it, so every run reports every end-to-end metric. ``setup_s`` is the
median of several fresh interpreters importing zfepoch (and, for
lock_stream, keying a LockSession on five lock files). ``peak_mb`` is
the largest tracemalloc peak of one operation, over one extra untimed
unit of the named workload.

With ``--trace 1`` the same measurement runs twice, plain and with span
wrappers installed. The result holds the per-layer metrics of the named
workload, as totals per unit of it (ratios as they are), and the tracing
overhead (traced minus plain median) of every timed end-to-end metric.
Spans go to ``.bench_out/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it is a report with output fingerprints and the
environment. Exits 2 without a result when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("long_extract", "lock_stream", "score_corpus")
# Units of the other workloads run alongside the named one, fixed in
# count so they cost the same on every commit.
COMPANION_UNITS = {"long_extract": 2, "lock_stream": 20, "score_corpus": 2}
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
# A traced operation's self times must sum to its duration.
SELF_SUM_TOLERANCE_MS = 1e-6

# name, unit, better, bound (share of the parent median it may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("extract_msps.zfr", "Msamples/s", "higher", 0.25),
    ("extract_msps.zff", "Msamples/s", "higher", 0.25),
    ("extract_msps.zpzfr", "Msamples/s", "higher", 0.25),
    ("epoch_recall.zfr", "fraction", "higher", 0.03),
    ("epoch_recall.zff", "fraction", "higher", 0.03),
    ("epoch_recall.zpzfr", "fraction", "higher", 0.03),
    ("decision_p50_ms", "ms", "lower", 0.25),
    ("decision_tail_ms", "ms", "lower", 0.25),
    ("rekey_p50_ms", "ms", "lower", 0.25),
    ("evaluate_ms", "ms", "lower", 0.25),
    ("compare_nearest_ms", "ms", "lower", 0.25),
    ("peak_mb", "MB", "lower", 0.1),
]
# metrics whose tracing overhead a traced run reports
TIMED = [name for name, unit, _, _ in END_TO_END if unit in ("ms", "Msamples/s")]

_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import zfepoch
if len(sys.argv) > 1:
    session = zfepoch.LockSession(zfepoch.LockConfig(watch_dir=sys.argv[1]))
    polls = 0
    while session.phase is not zfepoch.Phase.KEYED:
        if polls == 8:
            sys.exit("lock session not keyed after 8 polls")
        session.poll_once()
        polls += 1
print(time.perf_counter() - t0)
"""


def build_workloads(seed: int, work: Path) -> dict:
    """Every workload's inputs, made from the one run seed."""
    import workloads

    return {
        "long_extract": workloads.LongExtract(seed),
        "lock_stream": workloads.LockStream(seed, work),
        "score_corpus": workloads.ScoreCorpus(seed),
    }


def per_layer_spec():
    import spans

    overhead = [(f"overhead.{name}", unit, "lower") for name, unit, _, _ in END_TO_END
                if name in TIMED]
    return spans.PER_LAYER + overhead


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def setup_seconds(rec, lock_dir: Path | None) -> float | None:
    """Median wall time of fresh interpreters doing the set-up work."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _SETUP_CHILD] + ([str(lock_dir)] if lock_dir else [])
    times = []
    for _ in range(SETUP_REPEATS):
        rec.attempted += 1
        try:
            done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            rec.reject("setup", "interpreter", "timed out")
            continue
        if done.returncode != 0:
            rec.reject("setup", "interpreter", done.stderr.strip()[-300:])
            continue
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times) if times else None


def measure(loads: dict, primary: str, seconds: float, rec) -> tuple[dict, dict]:
    """The named workload for `seconds` of its own time, others interleaved.

    The other workloads' fixed units are spread evenly over the named
    workload's time, so every metric samples the whole run rather than
    one stretch of it.
    """
    main = loads[primary]
    windows = {name: {"units": 0} for name in loads}
    due = sorted(
        ((j + 0.5) / COMPANION_UNITS[name] * seconds, name)
        for name in loads if name != primary for j in range(COMPANION_UNITS[name])
    )
    busy = 0.0
    while windows[primary]["units"] < main.min_units or busy < seconds:
        t0 = time.perf_counter()
        main.unit(rec, windows[primary])
        busy += time.perf_counter() - t0
        windows[primary]["units"] += 1
        while due and due[0][0] <= busy:
            run_unit(loads[due.pop(0)[1]], rec, windows)
    for _, name in due:
        run_unit(loads[name], rec, windows)
    values = {}
    for name, load in loads.items():
        values.update(load.metrics(windows[name]))
    return values, windows


def run_unit(load, rec, windows: dict) -> None:
    load.unit(rec, windows[load.name])
    windows[load.name]["units"] += 1


def peak_bytes(load, rec) -> int:
    """Largest tracemalloc peak of one operation over one untimed unit."""
    rec.memory = True
    tracemalloc.start()
    try:
        run_unit(load, rec, {load.name: {"units": 0}})
    finally:
        tracemalloc.stop()
        rec.memory = False
    return rec.peak_bytes


def run(args, loads: dict, work: Path, out_dir: Path, rec) -> tuple[dict, dict, dict]:
    """Measure; returns (metrics as name -> (value, unit), windows, extra report)."""
    import spans

    primary = loads[args.workload]
    extra = {}
    if args.trace == 0:
        lock_dir = None
        if args.workload == "lock_stream":
            lock_dir = work / "setup_watch"
            primary.place_locks(lock_dir)
        setup = setup_seconds(rec, lock_dir)
        values, windows = measure(loads, args.workload, args.seconds, rec)
        values["setup_s"] = setup
        values["peak_mb"] = peak_bytes(primary, rec) / 1e6
        units = {name: unit for name, unit, _, _ in END_TO_END}
        return {name: (values[name], units[name]) for name in units}, windows, extra

    plain, _ = measure(loads, args.workload, args.seconds, rec)
    tracer = rec.tracer = spans.Tracer()
    try:
        with spans.Installed(tracer):
            traced, windows = measure(loads, args.workload, args.seconds, rec)
    finally:
        rec.tracer = None
    values, selfs = spans.layer_metrics(tracer, args.workload, windows[args.workload]["units"])
    rec.attempted += 1
    if values["trace.self_sum_error_ms"] > SELF_SUM_TOLERANCE_MS:
        rec.reject(args.workload, "trace", "self times do not sum to operation durations")
    for name in TIMED:
        if plain[name] is not None and traced[name] is not None:
            values[f"overhead.{name}"] = traced[name] - plain[name]
        else:
            values[f"overhead.{name}"] = None
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_file, [s * 1e3 for s in selfs])
    extra.update(plain=plain, traced=traced, spans=str(spans_file.relative_to(ROOT)))
    units = {name: unit for name, unit, _ in per_layer_spec()}
    return {name: (values[name], units[name]) for name in units}, windows, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zfepoch" / "__init__.py").is_file():
        print(f"error: no zfepoch sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        loads = build_workloads(args.seed, work)
        rec = workloads.Recorder()
        metrics, windows, extra = run(args, loads, work, out_dir, rec)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "units": {name: w["units"] for name, w in windows.items()},
            "fingerprint": {name: load.describe(windows[name]) for name, load in loads.items()},
            "error_rate": rec.failed / max(rec.attempted, 1),
            "failures": rec.notes,
            "environment": envinfo.environment(
                loads["lock_stream"].config.watch_dir, loads["long_extract"].largest_array_bytes),
            **extra,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = {name: {k: v for k, v in w.items() if k != "units"} for name, w in windows.items()}
    full = json.dumps({**report, "samples": samples}, indent=2)
    (out_dir / f"{tag}.json").write_text(full + "\n")
    correct = rec.failed == 0 and all(v is not None for v, _ in metrics.values())
    result = {
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
