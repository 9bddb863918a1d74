"""Tests of the benchmark's own logic.

Run from the repository root: python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zfepoch import EpochSequence, FilterConfig, evaluate  # noqa: E402
from zfepoch import epochs as zf_epochs  # noqa: E402


def test_recall_matcher_agrees_with_evaluate_on_sparse_epochs():
    rng = np.random.default_rng(3)
    truth = np.arange(0.01, 2.0, 0.008)
    detected = truth + rng.uniform(-0.0008, 0.0008, len(truth))
    detected = np.sort(np.concatenate([np.delete(detected, [5, 40, 41]), [0.0035, 1.9991]]))
    tol = 0.0005
    report = evaluate(EpochSequence(detected, 16000.0), EpochSequence(truth, 16000.0), tol)
    assert 0 < report.matched_count < len(truth)
    assert workloads.nearest_matches(detected, truth, tol) == report.matched_count


def test_recall_matcher_edges():
    truth = np.array([1.0, 2.0, 3.0])
    assert workloads.nearest_matches(np.array([]), truth, 0.1) == 0
    assert workloads.nearest_matches(np.array([0.95, 3.2]), truth, 0.1) == 1
    assert workloads.nearest_matches(np.array([10.0]), truth, 0.1) == 0


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (5000, 95.0),
])
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert workloads.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100.0 - expected) / 100.0 >= workloads.TAIL_BEYOND


def test_tail_value_reports_the_percentile_used():
    p, value = workloads.tail_value(list(range(1, 101)))
    assert p == 90.0
    assert value == pytest.approx(np.percentile(np.arange(1, 101), 90.0))
    assert workloads.tail_value([1.0] * 10) == (None, None)


def span(name, start, end, parent, op=1):
    return spans.Span(name, start, end, parent, op)


def test_self_time_subtracts_union_of_overlapping_children():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),   # overlaps a: the root loses 5, not 6
        span("g", 2.0, 3.0, 1),
        span("c", 5.0, 8.0, 2),   # sticks out of b: only [5, 6] counts
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0, 3.0])


def test_self_times_of_nested_spans_sum_to_the_root():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 4.0, 7.0, 0),
        span("g", 5.0, 6.0, 2),
        span("other-root", 20.0, 21.0, -1, op=2),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])
    assert spans.self_sum_error(tree, selfs) == pytest.approx(0.0)
    selfs[1] += 0.5
    assert spans.self_sum_error(tree, selfs) == pytest.approx(0.5)


def test_union_length():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_installed_wrappers_trace_an_operation_and_are_removed():
    original = zf_epochs.extract_epochs
    signal, _ = workloads.voice("A", 0.5, 7)
    tracer = spans.Tracer()
    rec = workloads.Recorder()
    rec.tracer = tracer
    with spans.Installed(tracer):
        assert zf_epochs.extract_epochs is not original
        zf_epochs.extract_epochs(signal, FilterConfig("zff"))  # outside an operation
        assert tracer.spans == []
        found, _ = rec.call("long_extract", "extract", zf_epochs.extract_epochs,
                            signal, FilterConfig("zpzfr"))
    assert zf_epochs.extract_epochs is original
    assert rec.failed == 0 and len(found) > 0
    names = {s.name for s in tracer.spans}
    assert {"op.extract", "epochs.extract_epochs", "filters.run_pipeline", "filters.detrend",
            "core.validate_signal", "epochs.detect"} <= names
    values, selfs = spans.layer_metrics(tracer, "long_extract", units=1)
    assert values["filters.detrend.calls"] == 2
    assert values["epochs.detect.epochs"] == len(found)
    assert values["trace.self_sum_error_ms"] < run.SELF_SUM_TOLERANCE_MS
    assert sum(selfs) == pytest.approx(tracer.spans[0].duration)


def test_candidate_count_matches_the_table_test():
    a = np.array([0.0, 0.001, 0.002, 0.010])
    b = np.array([0.0005, 0.0021, 0.5])
    expected = int(np.count_nonzero(np.abs(a[:, None] - b[None, :]) <= 0.0006))
    assert spans.candidate_count(a, b, 0.0006) == expected == 3


def inputs_of(seed, work):
    loads = run.build_workloads(seed, work)
    return {
        "long_extract": loads["long_extract"].inputs[0][1].samples.copy(),
        "lock_stream": np.concatenate([c.samples for c in loads["lock_stream"].lock_clips]),
        "score_corpus": loads["score_corpus"].corpus[0][1].times_s.copy(),
    }


def test_seed_reaches_all_three_workloads(tmp_path):
    first = inputs_of(5, tmp_path / "a")
    again = inputs_of(5, tmp_path / "b")
    other = inputs_of(6, tmp_path / "c")
    assert set(first) == set(run.WORKLOADS)
    for name in first:
        assert np.array_equal(first[name], again[name]), name
        assert not np.array_equal(first[name], other[name]), name


def test_seed_argument_is_parsed():
    args = run.parse_args(["--workload", "score_corpus", "--seed", "17", "--seconds", "3"])
    assert (args.workload, args.seed, args.seconds, args.trace) == ("score_corpus", 17, 3.0, 0)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lock_stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
