"""Smoke tests of the benchmark itself, on toy inputs.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import contextlib
import dataclasses
import io
import json
import os

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _result(trace, seconds=0):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", "smoke", "--seed", "5",
                         "--seconds", str(seconds), "--trace", str(trace)])
    assert code == 0
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _assert_metrics(lines, result, declared):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])


def test_end_to_end_metrics_printed_with_units():
    lines, result = _result(trace=0)
    _assert_metrics(lines, result, BENCHMARK["end_to_end"])
    assert result["metrics"]["success_ratio"]["value"] == 1.0


def test_per_layer_metrics_printed_with_units():
    lines, result = _result(trace=1)
    _assert_metrics(lines, result, BENCHMARK["per_layer"])
    metrics = result["metrics"]
    assert metrics["polynomial.groebner_calls"]["value"] > 0
    assert metrics["verify.matrix_checks"]["value"] > 0
    assert metrics["solver.slice_calls"]["value"] > 0


def test_traced_counts_repeat_exactly():
    import spans

    inputs = workloads.smoke(2)
    counts = []
    for _ in range(2):
        recorder = spans.SpanRecorder()
        with spans.traced(recorder):
            run.run_batch(inputs, recorder)
        metrics = spans.layer_metrics(recorder.spans)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]


def test_tracing_restores_the_library():
    import spans
    from permsplit import splitter

    original = splitter.groebner_basis
    with spans.traced(spans.SpanRecorder()):
        assert splitter.groebner_basis is not original
    assert splitter.groebner_basis is original


def test_gate_counts_a_wrong_expected_multiset():
    inputs = workloads.smoke(1)
    _, outcomes = run.run_batch(inputs)
    wrong = list(inputs)
    wrong[1] = dataclasses.replace(wrong[1], expected_dims=(1, 1, 1, 1, 2))
    tally = run.Tally(wrong)
    tally.add(outcomes)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "S3_regular" in tally.failures[0] and "dimensions" in tally.failures[0]
    right = run.Tally(inputs)
    right.add(outcomes)
    assert right.failed == 0


def test_gate_counts_a_report_that_changed_between_repeats():
    inputs = workloads.smoke(1)
    _, first = run.run_batch(inputs)
    _, second = run.run_batch(inputs)
    second[0] = dataclasses.replace(second[0], text=second[0].text + "# drift\n")
    tally = run.Tally(inputs)
    tally.add(first)
    tally.add(second)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert "differs" in tally.failures[0]


def test_same_seed_same_inputs_other_seed_other_labels():
    a, b, c = workloads.johnson_scan(7), workloads.johnson_scan(7), workloads.johnson_scan(8)
    assert [i.text for i in a] == [i.text for i in b]
    assert [i.text for i in a] != [i.text for i in c]
    assert [i.expected_dims for i in a] == [(1, 11, 54, 154, 275, 297), (1, 15, 104, 440)]
