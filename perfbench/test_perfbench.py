"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench -q``.

A tiny-size run of every workload must print every metric the benchmark
names, with its unit, and the correctness checks must reject a corrupted
bundle and a wrong delta.
"""
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gen_inputs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from levquant import adjustment, cli, effects, quantreg  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

COMMON_LAYERS = {m["name"] for m in BENCH["per_layer"]}
LAYERS = {
    "replicate_300x15": COMMON_LAYERS | {
        "cli.replicate_self_s", "cli.bytes_written", "reports.render_s", "panel.read_csv_s",
        "panel.subset_s", "panel.describe_s", "adjustment.regimes_skipped",
        "effects.fit_qfe_groups_p50", "effects.linear_s", "quantreg.bootstrap_self_s",
        "quantreg.bootstrap_useful_ratio",
    },
    "montecarlo_500x20": COMMON_LAYERS | {
        "panel.subset_s", "adjustment.regimes_skipped", "effects.fit_qfe_groups_p50",
        "synthgen.generate_self_s", "synthgen.rows_generated", "synthgen.montecarlo_self_s",
    },
    "wide_fe_4000x8": COMMON_LAYERS | {"panel.read_csv_s", "effects.fit_qfe_groups_p50"},
}


def run_bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_with_its_unit(workload, trace):
    out = run_bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())

    printed = {line.split(" = ")[0]: line.split(" = ")[1].split()[1] for line in lines if " = " in line}
    for m in BENCH["end_to_end"]:
        assert printed[m["name"]] == m["unit"]
    assert printed["error_rate"] == "fraction"
    if trace:
        assert {name for name in printed if "." in name} == LAYERS[workload] | {"trace.overhead_frac"}


def test_tail_needs_eleven_samples():
    assert spans.tail(list(range(10))) is None
    value, pct = spans.tail([float(v) for v in range(20)])
    assert value == 9.0 and pct == 50.0


def test_run_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("replicate_300x15", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bundle")
    files = gen_inputs.write_inputs(gen_inputs.InputSpec(60, 10, 0.6), 5, str(root / "inputs"))
    out = str(root / "out")
    assert cli.main([
        "replicate", "--input", files.panel, "--macro", files.macro, "--tax-table", files.tax,
        "--bootstrap", "2", "--out", out,
    ]) == 0
    return out


def test_bundle_check_accepts_a_good_bundle(bundle):
    assert workloads.check_bundle(bundle, 0.6) == []


def test_bundle_check_rejects_a_wrong_delta(bundle):
    failures = workloads.check_bundle(bundle, 0.3)
    assert len(failures) == 10 and all("not within 0.1 of delta 0.3" in f for f in failures)


def test_bundle_check_rejects_a_corrupted_file(bundle, tmp_path):
    copy = shutil.copytree(bundle, tmp_path / "copy")
    with open(copy / "quantile_book.csv", "a") as fh:
        fh.write("0\n")
    assert workloads.check_bundle(str(copy), 0.6) == [
        "quantile_book.csv: sha256 does not match the manifest"
    ]
    assert workloads.bundle_digest(str(copy)) != workloads.bundle_digest(bundle)


def test_wide_check_rejects_a_wrong_delta(tmp_path):
    wl = workloads.WideFit(5, str(tmp_path), tiny=True)
    wl.setup()
    assert all(not op.failures for op in wl.run_pass(0))
    wl.spec = replace(wl.spec, delta=0.3)
    ops = wl.run_pass(1)
    assert ops and all(any("not within 0.1 of delta 0.3" in f for f in op.failures) for op in ops)


def test_montecarlo_gate_rejects_a_wrong_mean(tmp_path):
    wl = workloads.MonteCarlo(5, str(tmp_path), tiny=True)
    wl.speeds = {"single": [0.60, 0.61], "growth": [0.70], "recession": [0.40]}
    assert [label for label, _ in wl.finish()] == ["regimes"]


def test_tracer_sees_refits_and_restores_bindings():
    originals = (effects.fit_quantile_fixed_effects, adjustment.fit_quantile_fixed_effects)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert effects.fit_quantile_fixed_effects is adjustment.fit_quantile_fixed_effects
        assert effects.fit_quantile_fixed_effects is not originals[0]
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        groups = np.repeat(np.arange(8), 5)
        design = quantreg.DesignMatrix(names=("x",), X=x[:, None], y=x + rng.normal(size=40))
        quantreg.bootstrap_se(design, 0.5, 3, seed=1, cluster=groups, refit_group_effects=True)
    finally:
        tracer.remove()
    assert (effects.fit_quantile_fixed_effects, adjustment.fit_quantile_fixed_effects) == originals
    names = [s[0] for s in tracer.spans]
    boot = names.index("quantreg.bootstrap_se")
    refits = [s for s in tracer.spans if s[0] == spans.FIT]
    assert len(refits) >= 3 and all(s[3] == boot for s in refits)
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["effects.fit_qfe_calls"][0] == len(refits)
    assert metrics["quantreg.bootstrap_self_s"][0] > 0.0
