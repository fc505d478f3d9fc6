"""The benchmark's workloads: set-up, one timed pass of ops, and the
correctness checks on every op.

Every call into levquant goes through a module attribute looked up at call
time (``cli.main``, ``synthgen.monte_carlo_speed``, ...), so the wrappers
that ``spans.Tracer`` installs see it.
"""
from __future__ import annotations

import hashlib
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from levquant import adjustment, cli, panel, synthgen

import gen_inputs

DELTA = 0.6
SPEED_TOLERANCE = 0.1  # |estimated speed - generator delta| allowed per fit


@dataclass
class Op:
    wall_s: float
    failures: list = field(default_factory=list)
    label: str | None = None  # config the op ran, for run-level gates


def timed(call, tracer, op_id):
    """Run one op; returns (result or None, Op).  An op that raises counts
    as failed, with the exception as its reason."""
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as err:  # the run goes on; the failure is counted
        return None, Op(time.perf_counter() - t0, [f"raised {type(err).__name__}: {err}"])
    return result, Op(time.perf_counter() - t0)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _speed_failures(label, speed, delta):
    if not math.isfinite(speed):
        return [f"{label}: speed {speed!r} is not finite"]
    if abs(speed - delta) > SPEED_TOLERANCE:
        return [f"{label}: speed {speed:.4f} is not within {SPEED_TOLERANCE} of delta {delta}"]
    return []


def check_bundle(out, delta):
    """Failures of a replicate bundle: manifest status and checksums, and the
    ten overall speeds in speed.csv against the generator's delta."""
    manifest_path = os.path.join(out, "manifest.txt")
    if not os.path.exists(manifest_path):
        return ["manifest.txt missing"]
    with open(manifest_path) as fh:
        lines = fh.read().splitlines()
    failures = []
    if "status = complete" not in lines:
        failures.append("manifest status is not complete")
    listed = [line.split(" sha256=") for line in lines if " sha256=" in line]
    for name, digest in listed:
        path = os.path.join(out, name)
        if not os.path.exists(path):
            failures.append(f"{name}: listed in manifest but missing")
        elif _sha256(path) != digest:
            failures.append(f"{name}: sha256 does not match the manifest")
    if not listed:
        failures.append("manifest lists no files")
    speeds = []
    speed_csv = os.path.join(out, "speed.csv")
    if os.path.exists(speed_csv):
        with open(speed_csv) as fh:
            for row in fh.read().splitlines()[1:]:
                kind, regime, theta, speed = row.split(",")[:4]
                if not regime:
                    speeds.append((f"{kind} theta={theta}", float(speed)))
    if len(speeds) != 10:
        failures.append(f"speed.csv has {len(speeds)} overall speeds, expected 10")
    for label, speed in speeds:
        failures += _speed_failures(label, speed, delta)
    return failures


def bundle_digest(out):
    """sha256 over every file name and content of the bundle directory."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode() + b"\0" + _sha256(os.path.join(out, name)).encode())
    return h.hexdigest()


class Replicate:
    """One in-process ``levquant replicate`` on a CSV input, bootstrap 40."""

    name = "replicate_300x15"
    min_traced_passes = 1

    def __init__(self, seed, workdir, tiny=False):
        self.spec = gen_inputs.InputSpec(60, 10, DELTA) if tiny else gen_inputs.InputSpec(300, 15, DELTA)
        self.bootstrap = 4 if tiny else 40
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "bundle")
        self.digest = None
        self.bytes_written = 0

    def setup(self):
        files = gen_inputs.write_inputs(self.spec, self.seed, os.path.join(self.workdir, "inputs"))
        self.argv = [
            "replicate", "--input", files.panel, "--macro", files.macro,
            "--tax-table", files.tax, "--bootstrap", str(self.bootstrap), "--out", self.out,
        ]

    def run_pass(self, index, tracer=None):
        shutil.rmtree(self.out, ignore_errors=True)
        code, op = timed(lambda: cli.main(self.argv), tracer, index)
        if code is not None and code != 0:
            op.failures.append(f"replicate exit code {code}")
        op.failures += check_bundle(self.out, self.spec.delta)
        if os.path.isdir(self.out):
            digest = bundle_digest(self.out)
            self.digest = self.digest or digest
            if digest != self.digest:
                op.failures.append("bundle differs from the run's first pass")
            self.bytes_written = sum(
                os.path.getsize(os.path.join(self.out, n)) for n in os.listdir(self.out)
            )
        return [op]

    def finish(self):
        return []

    def sizes(self):
        return {
            "firms": self.spec.n_firms, "years": self.spec.t_max, "rows": self.spec.rows,
            "bootstrap": self.bootstrap, "groups_per_fit": self.spec.n_firms,
        }

    def details(self):
        return {"bundle_sha256": self.digest, "bytes_written": self.bytes_written}


def regime_macro_path(rng, n_years, block=4):
    """Acceptance criterion 6's macro path: alternating 4-year growth and
    recession blocks."""
    path = []
    for i in range(n_years):
        growth = (i // block) % 2 == 0
        gdp = rng.uniform(1.5, 4.5) if growth else rng.uniform(-2.5, -0.5)
        path.append((rng.uniform(1.0, 5.0), gdp))
    return tuple(path)


class MonteCarlo:
    """Single replications of criterion 6's two studies, alternating."""

    name = "montecarlo_500x20"
    min_traced_passes = 2  # 12 fits, so the fit-time tail has ten beyond it
    ops_per_pass = 4
    # cell -> (true delta, gate on |mean speed - delta|), as in criterion 6
    GATES = {"single": (0.6, 0.05), "growth": (0.7, 0.07), "recession": (0.3, 0.07)}

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.firms, self.years = (100, 20) if tiny else (500, 20)
        self.speeds = {cell: [] for cell in self.GATES}
        self.op_seeds = []

    def setup(self):
        path = regime_macro_path(np.random.default_rng(8), self.years)
        self.configs = (
            ("single", 600, synthgen.SynthConfig(n_firms=self.firms, t_max=self.years, delta=0.6, seed=600)),
            ("regimes", 700, synthgen.SynthConfig(
                n_firms=self.firms, t_max=self.years, delta=(0.7, 0.3), macro_path=path, seed=700,
            )),
        )

    def op_seed(self, family, index):
        return int(np.random.SeedSequence([family, self.seed, index]).generate_state(1)[0])

    def run_pass(self, index, tracer=None):
        ops = []
        for j in range(self.ops_per_pass):
            label, family, cfg = self.configs[j % 2]
            seed = self.op_seed(family, index * self.ops_per_pass // 2 + j // 2)
            self.op_seeds.append(seed)
            report, op = timed(
                lambda: synthgen.monte_carlo_speed(replace(cfg, seed=seed), 1),
                tracer, index * self.ops_per_pass + j,
            )
            op.label = label
            ops.append(op)
            if report is None:
                continue
            if report.n_failed:
                op.failures.append(f"{label} seed {seed}: n_failed = {report.n_failed}")
            for cell in report.cells:
                name = cell.regime.value if cell.regime is not None else "single"
                if cell.estimates.size != 1 or not np.all(np.isfinite(cell.estimates)):
                    op.failures.append(f"{label} seed {seed}: {name} speed missing or not finite")
                else:
                    self.speeds[name].append(float(cell.estimates[0]))
        return ops

    def finish(self):
        """Run-level gates on each cell's mean speed, keyed by the cell's
        config so that the caller can fail that config's ops."""
        failures = []
        for name, (delta, gate) in self.GATES.items():
            values = self.speeds[name]
            if values and abs(np.mean(values) - delta) > gate:
                failures.append(
                    ("single" if name == "single" else "regimes",
                     f"{name}: mean speed {np.mean(values):.4f} over {len(values)} replications "
                     f"is not within {gate} of {delta}")
                )
        return failures

    def sizes(self):
        return {
            "firms": self.firms, "years": self.years, "rows": self.firms * self.years,
            "groups_per_fit": self.firms, "ops_per_pass": self.ops_per_pass,
        }

    def details(self):
        return {
            "mean_speed": {k: float(np.mean(v)) for k, v in self.speeds.items() if v},
            "op_seeds": self.op_seeds,
        }


class WideFit:
    """Five single-theta book-leverage speed fits on a wide panel."""

    name = "wide_fe_4000x8"
    min_traced_passes = 3  # 15 fits, so the fit-time tail has ten beyond it

    def __init__(self, seed, workdir, tiny=False):
        self.spec = gen_inputs.InputSpec(50, 6, DELTA) if tiny else gen_inputs.InputSpec(4000, 8, DELTA)
        self.seed = seed
        self.workdir = workdir
        self.groups = []

    def setup(self):
        files = gen_inputs.write_inputs(self.spec, self.seed, os.path.join(self.workdir, "inputs"))
        self.panel = None  # drop the previous set-up's panel before building the next
        raw = panel.read_panel_csv(files.panel)
        macro = panel.read_macro_csv(files.macro)
        tax = panel.read_tax_csv(files.tax)
        derived = panel.derive_variables(raw, macro, tax)
        self.panel = adjustment.lag_leverage(derived, "book")

    def run_pass(self, index, tracer=None):
        ops = []
        for j, theta in enumerate(adjustment.DEFAULT_THETAS):
            spec = adjustment.TargetModelSpec(leverage="book", thetas=(theta,))
            results, op = timed(
                lambda: adjustment.estimate_speed(self.panel, spec), tracer, index * 5 + j
            )
            ops.append(op)
            if results is None:
                continue
            (res,) = results
            if not res.fit.subgradient_ok:
                op.failures.append(f"theta={theta}: fit fails the sign-count optimality check")
            if not res.fit.solver_meta.get("converged"):
                op.failures.append(f"theta={theta}: solver did not converge")
            op.failures += _speed_failures(f"theta={theta}", res.speed, self.spec.delta)
            self.groups.append(len(res.fit.group_effects))
        return ops

    def finish(self):
        return []

    def sizes(self):
        return {
            "firms": self.spec.n_firms, "years": self.spec.t_max, "rows": self.spec.rows,
            "groups_per_fit": int(np.median(self.groups)) if self.groups else None,
        }

    def details(self):
        return {}


WORKLOADS = {cls.name: cls for cls in (Replicate, MonteCarlo, WideFit)}
