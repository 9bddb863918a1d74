"""Command-line surface: extract, compare, verify-egg, analyze, lock, synth.

Commands compose through files (WAV in, CSV/JSON out) so each stage can
be scripted independently. Exit codes: 0 success, 1 processing error
(an OSError or MemoryError included), 2 bad arguments (any BadConfig,
subclasses included); `lock --once` exits 0 when the decision is open
and 3 when closed, so scripts can branch on the verdict. main is the one place that maps an exception to
an exit code.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import io as zio
from .compare import MatchConfig, delta12_count, deltas
from .core import (
    DEFAULT_R,
    METHODS,
    BadConfig,
    EpochSequence,
    FilterConfig,
    SampledSignal,
    ZfepochError,
)
from .epochs import evaluate, egg_reference_epochs, extract_epochs
from .filters import frequency_response, pole_report
from .lock import (
    DEFAULT_THRESHOLD,
    Decision,
    LockConfig,
    env_overrides,
    run_daemon,
    verify_once,
)
from .synth import impulse_train, speaker, synth_voice

EXIT_OK = 0
EXIT_PROCESSING = 1
EXIT_CLOSED = 3


def _add_filter_flags(sub: argparse.ArgumentParser, default_method: str | None) -> None:
    if default_method is None:
        sub.add_argument("--method", required=True, choices=METHODS)
    else:
        sub.add_argument("--method", default=default_method, choices=METHODS)
    sub.add_argument("--r", type=float, default=None,
                     help="pole radius (default 0.97; zff pins 1.0)")
    sub.add_argument("--window", type=float, default=15.0, metavar="MS",
                     help="detrend window in milliseconds (default 15)")
    sub.add_argument("--passes", type=int, default=2, metavar="K",
                     help="detrend passes (default 2)")
    sub.add_argument("--trim", type=float, default=None, metavar="MS",
                     help="edge trim in milliseconds (default = window)")
    sub.add_argument("--preemphasis", choices=("auto", "on", "off"), default="auto",
                     help="first-difference stage (auto = method default)")


def _add_match_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--epsilon", type=float, default=0.5, metavar="MS",
                     help="near-equal delta tolerance in ms (default 0.5)")
    sub.add_argument("--alignment", choices=("index", "nearest"), default="index")


def _filter_config(args) -> FilterConfig:
    pre = {"auto": None, "on": True, "off": False}[args.preemphasis]
    return FilterConfig(
        method=args.method,
        r=args.r,
        detrend_window_s=args.window / 1000.0,
        detrend_passes=args.passes,
        trim_s=None if args.trim is None else args.trim / 1000.0,
        preemphasis=pre,
    )


def _match_config(args) -> MatchConfig:
    return MatchConfig(epsilon_s=args.epsilon / 1000.0, alignment=args.alignment)


def _load_epochs(path: str, config: FilterConfig) -> EpochSequence:
    """Epochs from a .csv directly or extracted from a .wav."""
    p = Path(path)
    if p.suffix.lower() == ".csv":
        return zio.read_epochs_csv(p)
    return extract_epochs(zio.read_wav(p), config)


def _cmd_extract(args) -> int:
    config = _filter_config(args)
    detector = {"auto": None, "crossings": "crossings",
                "negative-peaks": "negative_peaks"}[args.detector]
    epochs = extract_epochs(zio.read_wav(args.in_path), config, detector)
    zio.write_epochs_csv(epochs, args.out)
    if args.json:
        zio.write_epochs_json(epochs, config, args.json)
    print(f"wrote {len(epochs)} epochs to {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    config = _filter_config(args)
    match = _match_config(args)
    lock_epochs = _load_epochs(args.lock, config)
    test_epochs = _load_epochs(args.test, config)
    score = delta12_count(deltas(test_epochs), deltas(lock_epochs), match)
    print(
        f"delta12={score.delta12_count} compared_pairs={score.compared_pairs} "
        f"average={score.average:g}"
    )
    if args.json:
        zio.write_score_json(score, match, [str(args.lock)], args.json)
    return EXIT_OK


def _cmd_verify_egg(args) -> int:
    if not args.tolerance > 0.0:
        raise BadConfig(f"--tolerance must be positive, got {args.tolerance:g}")
    config = _filter_config(args)
    detected = extract_epochs(zio.read_wav(args.audio), config)
    reference = egg_reference_epochs(zio.read_wav(args.egg))
    report = evaluate(detected, reference, args.tolerance / 1000.0)
    print(
        f"reference={report.reference_count} detected={report.detected_count} "
        f"matched={report.matched_count} mean_abs_error_s="
        f"{report.mean_abs_error_s:.6f} tolerance_s={report.tolerance_s:.6f}"
    )
    return EXIT_OK


def _cmd_analyze(args) -> int:
    if args.points < 1:
        raise BadConfig(f"--points must be at least 1, got {args.points}")
    r = args.r if args.r is not None else (1.0 if args.method == "zff" else DEFAULT_R)
    omega = np.linspace(0.0, np.pi, args.points + 2)[1:-1]
    response = frequency_response(args.method, r, omega)
    report = pole_report(args.method, r)
    zio.write_response_csv(response, args.out)
    poles = ", ".join(f"{p.real:g}{'' if p.imag == 0 else f'{p.imag:+g}j'} (x{m})"
                      for p, m in report.poles)
    print(f"{args.method}: {report.describe()}")
    print(f"poles: {poles}")
    print(f"wrote {args.points} response points to {args.out}")
    return EXIT_OK


def _cmd_lock(args) -> int:
    env = env_overrides()
    watch_dir = args.dir or env.get("watch_dir")
    if watch_dir is None:
        raise BadConfig("--dir is required (or set ZFEPOCH_WATCH_DIR)")
    threshold = args.threshold
    if threshold is None:
        threshold = float(env.get("threshold", DEFAULT_THRESHOLD))
    config = LockConfig(
        watch_dir=Path(watch_dir),
        lock_file_count=args.count,
        threshold=threshold,
        poll_interval_s=args.poll,
        method=_filter_config(args),
        match=_match_config(args),
    )
    if args.once:
        decision, score = verify_once(config)
        print(f"decision={decision.value} average={score.average:g} "
              f"threshold={config.threshold:g}")
        return EXIT_OK if decision is Decision.OPEN else EXIT_CLOSED
    try:
        run_daemon(config)
    except KeyboardInterrupt:
        pass
    return EXIT_OK


def _cmd_synth(args) -> int:
    spec = speaker(args.speaker, args.duration, seed=args.seed,
                   noise_snr_db=args.noise_snr, sample_rate_hz=args.fs)
    signal, truth = synth_voice(spec) if not args.raw_train else impulse_train(spec)
    if len(signal) == 0:
        raise BadConfig(f"--duration {args.duration:g} s holds no samples at {args.fs:g} Hz")
    peak = np.max(np.abs(signal.samples))
    if peak > 1.0:
        # keep the 16-bit quantizer from clipping resonated impulses
        signal = SampledSignal(signal.samples / (peak * 1.0001), signal.sample_rate_hz)
    zio.write_wav(signal, args.out)
    truth_path = Path(args.out).with_suffix(".gci.csv")
    zio.write_epochs_csv(truth, truth_path)
    print(f"wrote {signal.duration_s:g} s to {args.out} "
          f"({len(truth)} ground-truth epochs in {truth_path})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfepoch",
        description="Zero-frequency epoch extraction, speaker similarity, voice lock.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract epoch times from a WAV file")
    _add_filter_flags(p, default_method=None)
    p.add_argument("--in", dest="in_path", required=True, metavar="F.wav")
    p.add_argument("--out", required=True, metavar="epochs.csv")
    p.add_argument("--detector", choices=("auto", "crossings", "negative-peaks"),
                   default="auto")
    p.add_argument("--json", default=None, metavar="epochs.json",
                   help="also write structured epochs + filter params")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("compare", help="delta-similarity of two utterances")
    p.add_argument("--lock", required=True, metavar="a.csv|a.wav")
    p.add_argument("--test", required=True, metavar="b.csv|b.wav")
    _add_match_flags(p)
    _add_filter_flags(p, default_method="zpzfr")
    p.add_argument("--json", default=None, metavar="score.json")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify-egg", help="score detections against an EGG reference")
    p.add_argument("--audio", required=True, metavar="a.wav")
    p.add_argument("--egg", required=True, metavar="e.wav")
    p.add_argument("--tolerance", type=float, default=0.5, metavar="MS")
    _add_filter_flags(p, default_method="zpzfr")
    p.set_defaults(func=_cmd_verify_egg)

    p = sub.add_parser("analyze", help="frequency response CSV and pole report")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--out", required=True, metavar="resp.csv")
    p.add_argument("--points", type=int, default=512)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("lock", help="voice-lock daemon over a watch directory")
    p.add_argument("--dir", default=None, metavar="D",
                   help="watch directory (or ZFEPOCH_WATCH_DIR)")
    p.add_argument("--threshold", type=float, default=None,
                   help="open threshold (or ZFEPOCH_THRESHOLD; default 7)")
    p.add_argument("--count", type=int, default=5, help="number of lock files")
    p.add_argument("--poll", type=float, default=1.0, metavar="S")
    p.add_argument("--once", action="store_true",
                   help="single key-and-decide cycle; exit 0 open, 3 closed")
    _add_match_flags(p)
    _add_filter_flags(p, default_method="zpzfr")
    p.set_defaults(func=_cmd_lock)

    p = sub.add_parser("synth", help="synthesize a test voice with known epochs")
    p.add_argument("--speaker", choices=("A", "B"), default="A")
    p.add_argument("--duration", type=float, default=2.0, metavar="S")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fs", type=float, default=16000.0)
    p.add_argument("--noise-snr", type=float, default=None, metavar="DB")
    p.add_argument("--raw-train", action="store_true",
                   help="emit the bare impulse train instead of the voiced signal")
    p.add_argument("--out", required=True, metavar="f.wav")
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.command == "lock" else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except BadConfig as exc:
        # exit 2 for any config fault: a flag illegal on its own, or only
        # at the input's rate, such as a sub-sample detrend window
        parser.error(str(exc))
    except (ZfepochError, OSError, MemoryError) as exc:
        # MemoryError: a request within every limit but beyond this
        # machine's memory, such as synth --fs 1e17
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
