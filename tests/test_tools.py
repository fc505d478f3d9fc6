"""The paired-benchmark script's summary, without running any benchmark."""
import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def side(op_p50_s, rate):
    return {"metrics": {"op_p50_s": op_p50_s, "ops_per_s": rate}}


def test_summary_counts_better_pairs_in_each_direction_and_skips_errors():
    pairs = [
        {"seed": 1, "parent": side(2.0, 10.0), "change": side(1.0, 12.0)},
        {"seed": 2, "parent": side(4.0, 10.0), "change": side(3.0, 8.0)},
        {"seed": 3, "parent": {"error": "exit 1: boom"}, "change": side(0.1, 99.0)},
        {"seed": 4, "parent": side(3.0, 10.0), "change": side(3.0, 11.0)},
    ]
    summary = bench_pairs.summarize(pairs, {"op_p50_s": "lower", "ops_per_s": "higher"})
    assert set(summary) == {"op_p50_s", "ops_per_s"}
    p50, rate = summary["op_p50_s"], summary["ops_per_s"]
    assert p50["pairs"] == rate["pairs"] == 3  # the errored pair is left out
    assert p50["pairs_better"] == 2  # lower is better; a tie is not better
    assert rate["pairs_better"] == 2  # higher is better: 12 > 10, 11 > 10
    assert p50["parent"] == {"median": 3.0, "q1": 2.5, "q3": 3.5}
    assert p50["change"]["median"] == 3.0
    assert p50["median_rel_change"] == pytest.approx(-0.25)  # of -0.5, -0.25, 0
    assert rate["median_rel_change"] == pytest.approx(0.1)  # of 0.2, -0.2, 0.1


def test_summary_of_only_errored_pairs_is_empty():
    pairs = [{"seed": 1, "parent": side(1.0, 1.0), "change": {"error": "exit 1"}}]
    assert bench_pairs.summarize(pairs, {}) == {}


def test_summary_leaves_out_a_metric_that_a_run_did_not_print():
    pairs = [
        {"seed": 1, "parent": side(2.0, 10.0), "change": side(1.0, 12.0)},
        {"seed": 2, "parent": side(4.0, 10.0), "change": {"metrics": {"op_p50_s": 3.0}}},
    ]
    assert set(bench_pairs.summarize(pairs, {})) == {"op_p50_s"}


def test_a_run_keeps_every_metric_it_prints(monkeypatch):
    stdout = "\n".join([
        "# replicate_300x15 seed 1 trace 1 size full",
        "op_p50_s = 1.25 s",
        "quantreg.bootstrap_self_s = 0.5 s",
        "effects.fit_qfe_calls = 40 count",
        '{"correct": true, "attempted": 3, "failed": 0, '
        '"metrics": {"op_p50_s": {"value": 1.2500001, "unit": "s"}}}',
    ])

    def run(cmd, **kwargs):
        return type("Done", (), {"stdout": stdout, "stderr": "", "returncode": 0})()

    monkeypatch.setattr(bench_pairs.subprocess, "run", run)
    result = bench_pairs.run_once(".", "replicate_300x15", 1, 30, 1)
    # the result line's value wins over the printed, rounded one
    assert result["metrics"] == {
        "op_p50_s": 1.2500001, "quantreg.bootstrap_self_s": 0.5, "effects.fit_qfe_calls": 40.0,
    }
