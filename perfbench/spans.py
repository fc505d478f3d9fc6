"""Span tracing of levquant's public functions, installed from outside the
package, and the per-layer metrics computed from the spans.

Each wrapped call records (name, start, end, parent span, op id) in memory.
A wrapper is installed under every ``levquant`` module attribute that binds
the function, so calls that go through ``from .x import f`` bindings (and
``quantreg._refit``'s call-time import from ``levquant.effects``) are seen.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

import numpy as np

# module -> public functions whose calls become spans; names are "module.function"
TRACED = {
    "cli": ("main",),
    "reports": (),  # every render_* and *_csv function, found at install time
    "panel": (
        "read_panel_csv", "read_macro_csv", "read_tax_csv", "ingest_panel",
        "derive_variables", "design_from_panel", "yearly_means", "correlation_matrix",
    ),
    "adjustment": ("lag_leverage", "estimate_speed", "estimate_speed_by_regime"),
    "effects": (
        "fit_quantile_fixed_effects", "fit_fixed_effects", "fit_random_effects", "hausman_test",
    ),
    "quantreg": ("bootstrap_se",),
    "synthgen": ("generate_panel", "monte_carlo_speed"),
}
SUBSET = "panel.Panel.subset"
FIT = "effects.fit_quantile_fixed_effects"


def _result_info(name, result):
    """Counts read from the object a traced call returned."""
    if name == FIT:
        meta = result.solver_meta
        return {
            "groups": len(result.group_effects),
            "iterations": meta.get("iterations", 0),
            "polished": bool(meta.get("polished", False)),
            "fallback": meta.get("algorithm") == "irls",
        }
    if name == "quantreg.bootstrap_se":
        return {"n_boot": result.n_boot, "n_redrawn": result.n_redrawn}
    if name == "panel.derive_variables":
        return {"rows": len(result.rows)}
    if name == "synthgen.generate_panel":
        return {"rows": len(result[0].records)}
    if name == "adjustment.estimate_speed_by_regime":
        return {"skipped": len(result.skipped)}
    return None


class Tracer:
    """Records spans while installed; ``remove`` restores every binding."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op_id, info]
        self.op_id = None
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1, self.op_id, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            spans[idx][5] = _result_info(name, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items()) if key.startswith("levquant") and m]
        for short, names in TRACED.items():
            module = sys.modules[f"levquant.{short}"]
            if short == "reports":
                names = [
                    n for n, v in vars(module).items()
                    if callable(v) and (n.startswith("render_") or n.endswith("_csv"))
                ]
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))
        panel_cls = sys.modules["levquant.panel"].Panel
        original = panel_cls.subset
        panel_cls.subset = self._wrap(SUBSET, original)
        self._restore.append((panel_cls, "subset", original))

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, info in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op_id, "info": info,
                }) + "\n")


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, *_ in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def tail(values):
    """The value with exactly ten samples above it, and its percentile;
    None below eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return float(sorted(values)[n - 11]), 100.0 * (n - 10) / n


def layer_metrics(spans, n_passes):
    """Per-layer metrics as {name: (value, unit)}, for the layers that ran.

    Times and counts are per timed pass, except that spans recorded during
    the traced set-up (op id ``"setup"``) count once.  Distribution
    metrics (p50, tail) run over every fit of the traced run.
    """
    dur = defaultdict(float)
    self_t = defaultdict(float)
    for (name, start, end, _, op_id, _), st in zip(spans, self_times(spans)):
        scale = 1.0 if op_id == "setup" else 1.0 / n_passes
        dur[name] += (end - start) * scale
        self_t[name] += st * scale
    per_pass = 1.0 / n_passes

    def info(name, key):
        return [s[5][key] for s in spans if s[0] == name and s[5] is not None]

    fit_times = [end - start for name, start, end, *_ in spans if name == FIT]
    iters = info(FIT, "iterations")
    derive_rows = sum(info("panel.derive_variables", "rows"))
    derive_wall = sum(end - start for name, start, end, *_ in spans if name == "panel.derive_variables")
    n_boot = sum(info("quantreg.bootstrap_se", "n_boot"))
    n_redrawn = sum(info("quantreg.bootstrap_se", "n_redrawn"))
    reports = tuple(n for n in dur if n.startswith("reports."))
    read_csv = ("panel.read_panel_csv", "panel.read_macro_csv", "panel.read_tax_csv")
    describe = ("panel.yearly_means", "panel.correlation_matrix")
    estimate = ("adjustment.estimate_speed", "adjustment.estimate_speed_by_regime")
    linear = ("effects.fit_fixed_effects", "effects.fit_random_effects", "effects.hausman_test")
    fit_tail = tail(fit_times)

    # metric -> (spans it is read from, value, unit); a metric whose spans
    # never ran on this workload is left out
    table = {
        "cli.replicate_self_s": (("cli.main",), lambda: self_t["cli.main"], "s"),
        "reports.render_s": (reports, lambda: sum(dur[n] for n in reports), "s"),
        "panel.read_csv_s": (read_csv, lambda: sum(self_t[n] for n in read_csv), "s"),
        "panel.ingest_s": (("panel.ingest_panel",), lambda: dur["panel.ingest_panel"], "s"),
        "panel.derive_s": (("panel.derive_variables",), lambda: dur["panel.derive_variables"], "s"),
        "panel.derive_rows_per_s": (("panel.derive_variables",), lambda: derive_rows / derive_wall, "1/s"),
        "panel.design_s": (("panel.design_from_panel",), lambda: dur["panel.design_from_panel"], "s"),
        "panel.subset_s": ((SUBSET,), lambda: dur[SUBSET], "s"),
        "panel.describe_s": (describe, lambda: sum(dur[n] for n in describe), "s"),
        "adjustment.lag_s": (("adjustment.lag_leverage",), lambda: dur["adjustment.lag_leverage"], "s"),
        "adjustment.estimate_self_s": (estimate, lambda: sum(self_t[n] for n in estimate), "s"),
        "adjustment.regimes_skipped": (
            ("adjustment.estimate_speed_by_regime",),
            lambda: sum(info("adjustment.estimate_speed_by_regime", "skipped")) * per_pass, "count",
        ),
        "effects.fit_qfe_s": ((FIT,), lambda: dur[FIT], "s"),
        "effects.fit_qfe_calls": ((FIT,), lambda: len(fit_times) * per_pass, "count"),
        "effects.fit_qfe_p50_s": ((FIT,), lambda: float(np.median(fit_times)), "s"),
        "effects.fit_qfe_tail_s": ((FIT,) if fit_tail else (), lambda: fit_tail[0], "s"),
        "effects.fit_qfe_groups_p50": ((FIT,), lambda: float(np.median(info(FIT, "groups"))), "count"),
        "effects.linear_s": (linear, lambda: sum(self_t[n] for n in linear), "s"),
        "quantreg.bootstrap_self_s": (("quantreg.bootstrap_se",), lambda: self_t["quantreg.bootstrap_se"], "s"),
        "quantreg.bootstrap_useful_ratio": (
            ("quantreg.bootstrap_se",), lambda: n_boot / (n_boot + n_redrawn), "fraction",
        ),
        "quantreg.newton_iters_total": ((FIT,), lambda: sum(iters) * per_pass, "count"),
        "quantreg.newton_iters_p50": ((FIT,), lambda: float(np.median(iters)), "count"),
        "quantreg.polish_accept_ratio": ((FIT,), lambda: float(np.mean(info(FIT, "polished"))), "fraction"),
        "quantreg.fallback_fits": ((FIT,), lambda: sum(info(FIT, "fallback")) * per_pass, "count"),
        "synthgen.generate_self_s": (
            ("synthgen.generate_panel",), lambda: self_t["synthgen.generate_panel"], "s",
        ),
        "synthgen.rows_generated": (
            ("synthgen.generate_panel",),
            lambda: sum(info("synthgen.generate_panel", "rows")) * per_pass, "count",
        ),
        "synthgen.montecarlo_self_s": (
            ("synthgen.monte_carlo_speed",), lambda: self_t["synthgen.monte_carlo_speed"], "s",
        ),
    }
    ran = {span[0] for span in spans}
    return {
        metric: (float(value()), unit)
        for metric, (sources, value, unit) in table.items()
        if ran.intersection(sources)
    }


def module_shares(spans, traced_wall):
    """Self time of each module's spans as a share of the traced wall time,
    and the span name with the largest total self time."""
    by_module = defaultdict(float)
    by_name = defaultdict(float)
    for span, st in zip(spans, self_times(spans)):
        by_module[span[0].split(".")[0]] += st
        by_name[span[0]] += st
    shares = {k: v / traced_wall for k, v in sorted(by_module.items())}
    dominant = max(by_name, key=by_name.get) if by_name else None
    return shares, dominant
