"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import numpy as np  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 36, 100, 1001])
def test_tail_percentile_leaves_ten_ops_beyond(n):
    values = [float(v) for v in np.random.default_rng(n).permutation(n)]
    value, pct, beyond = stats.tail_percentile(values)
    assert beyond == 10
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)
    # one rank higher would leave only nine beyond
    assert value == sorted(values)[n - 11]


def test_tail_percentile_without_enough_ops_reports_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert stats.tail_percentile([float(v) for v in range(10)]) == (9.0, 100.0, 0)


def test_self_times_subtract_child_coverage():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 8.0, 0],
        ["c", 7.0, 9.0, 0],     # overlaps b: [7, 8] is covered once
        ["d", 9.5, 12.0, 4],    # lies outside its parent: covers none of it
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 2.0, 2.5]


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [["root", 0.0, 1.0, -1], ["x", 0.1, 0.7, 0], ["y", 0.2, 0.3, 1],
             ["z", 0.4, 0.6, 1], ["w", 0.8, 0.9, 0]]
    own = tracing.self_times(spans)
    assert own == pytest.approx([0.3, 0.3, 0.1, 0.2, 0.1])
    assert sum(own) == pytest.approx(1.0)


def _run(op, out_dir):
    from qfdiv import cli

    return run.run_calls(cli, op, out_dir)[1]


def _checker(name):
    reference = json.loads(run.REFERENCE.read_text())
    return workloads.Checker(workloads.WORKLOADS[name], reference[name])


def test_checker_rejects_a_corrupted_csv(tmp_path):
    op = workloads.WORKLOADS["fig2-scatter"].make_ops(workloads.DEFAULT_SEED, tmp_path)[0]
    results = _run(op, tmp_path)
    _checker("fig2-scatter").check(op, results, tmp_path)
    csv_path = tmp_path / "fig2.csv"
    good = csv_path.read_text()
    lines = good.splitlines(keepends=True)

    # a row dropped
    csv_path.write_text("".join(lines[:-1]))
    with pytest.raises(workloads.CheckFailed):
        _checker("fig2-scatter").check(op, results, tmp_path)
    # a number garbled
    csv_path.write_text(good.replace(",", ",x", 1))
    with pytest.raises(workloads.CheckFailed):
        _checker("fig2-scatter").check(op, results, tmp_path)
    # one value off by a relative 1e-6: invariants hold, the reference does not
    row = lines[1].rstrip("\n").split(",")
    row[5] = repr(float(row[5]) * (1 + 1e-6))
    csv_path.write_text("".join([lines[0], ",".join(row) + "\n", *lines[2:]]))
    with pytest.raises(workloads.CheckFailed, match="relent"):
        _checker("fig2-scatter").check(op, results, tmp_path)


def test_checker_rejects_a_wrong_exit_code(tmp_path):
    op = workloads.WORKLOADS["condition-scan"].make_ops(workloads.DEFAULT_SEED, tmp_path)[0]
    (res,) = _run(op, tmp_path)
    checker = _checker("condition-scan")
    checker.check(op, [res], tmp_path)
    wrong = workloads.CallResult(1 - res.code, res.stdout, res.stderr)
    with pytest.raises(workloads.CheckFailed, match="exit code"):
        _checker("condition-scan").check(op, [wrong], tmp_path)


def test_checker_rejects_a_repeat_with_different_output(tmp_path):
    op = workloads.WORKLOADS["pair-inspect"].make_ops(3, tmp_path)[0]
    results = _run(op, tmp_path)
    checker = _checker("pair-inspect")
    checker.check(op, results, tmp_path)
    checker.check(op, results, tmp_path)
    wit, cmp_ = results
    changed = workloads.CallResult(wit.code, wit.stdout + "\n", wit.stderr)
    with pytest.raises(workloads.CheckFailed, match="first run"):
        checker.check(op, [changed, cmp_], tmp_path)


def test_tracing_wrappers_are_removed_after_the_traced_run(tmp_path):
    import qfdiv.cli
    import qfdiv.maximal
    import qfdiv.verify

    eigh = np.linalg.eigh
    build = qfdiv.maximal.build_witness
    assert tracing.wrapped_bindings() == []
    op = workloads.WORKLOADS["pair-inspect"].make_ops(5, tmp_path)[0]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        # every namespace that imported the function is patched
        for ns in (qfdiv.maximal, qfdiv.verify, qfdiv.cli):
            assert hasattr(ns.build_witness, tracing.MARK)
        assert hasattr(np.linalg.eigh, tracing.MARK)
        with tracer.op(0):
            _run(op, tmp_path)
    assert tracing.wrapped_bindings() == []
    assert np.linalg.eigh is eigh
    assert qfdiv.cli.build_witness is build and qfdiv.verify.build_witness is build
    assert tracer.calls["maximal.build_witness"] == 7
    assert tracer.calls["cli.parse_state_file"] == 4
    assert tracer.closure_err < 1e-9
    spans = tracer.n_spans
    _run(op, tmp_path)
    assert tracer.n_spans == spans and tracer.spans == []


def test_metric_names_match_benchmark_json():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.PER_LAYER
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

