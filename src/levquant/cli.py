"""Command-line pipeline: ingestion -> derivation -> diagnostics -> estimation.

``levquant replicate`` runs the full sequence and writes a deterministic
report bundle; the other subcommands reproduce individual slices of the
same bundle byte-for-byte.  All randomness flows from the single master
seed in the configuration.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import reports
from .adjustment import (
    DEFAULT_DETERMINANTS, DEFAULT_THETAS, TargetModelSpec,
    estimate_speed, estimate_speed_by_regime, lag_leverage,
)
from .effects import (
    DEFAULT_GROUP_CAP, fit_fixed_effects, fit_quantile_fixed_effects,
    fit_random_effects, hausman_test,
)
from .errors import ConfigError
from .panel import (
    MACRO_VARIABLES,
    RegimeRule,
    correlation_matrix,
    derive_variables,
    design_from_panel,
    read_macro_csv,
    read_panel_csv,
    read_tax_csv,
    write_macro_csv,
    write_panel_csv,
    write_tax_csv,
    yearly_means,
)
from .quantreg import bootstrap_se
from .synthgen import ErrorSpec, SynthConfig, generate_panel, write_ground_truth

ENV_CONFIG = "LEVQUANT_CONFIG"

STAGES = ("ingest", "describe", "correlate", "hausman", "qreg", "speed")


@dataclass(frozen=True)
class RunConfig:
    input: str | None = None
    macro: str | None = None
    tax_table: str | None = None
    tax_rate: float = 0.21
    theta: tuple = DEFAULT_THETAS
    leverage: str = "both"
    determinants: tuple = DEFAULT_DETERMINANTS
    macro_vars: tuple = MACRO_VARIABLES
    bootstrap: int = 200
    seed: int = 12345
    regime_threshold: float = 0.0
    winsorize: tuple | None = None
    out: str = "levquant_out"
    format: str = "both"
    significance: float = 0.05
    fe_mode: str = "dummy"
    penalty: float = 1.0
    group_cap: int = DEFAULT_GROUP_CAP
    two_step: bool = False

    @property
    def kinds(self):
        if self.leverage == "both":
            return ("book", "market")
        if self.leverage in ("book", "market"):
            return (self.leverage,)
        raise ConfigError(f"leverage must be book|market|both, got {self.leverage!r}")

    @property
    def formats(self):
        if self.format == "both":
            return ("text", "delimited")
        if self.format in ("text", "delimited"):
            return (self.format,)
        raise ConfigError(f"format must be text|delimited|both, got {self.format!r}")


def _parse_theta(text):
    vals = tuple(float(v) for v in str(text).split(",") if v.strip())
    if not vals:
        raise ConfigError("empty theta list")
    return vals


def _parse_names(text):
    return tuple(v.strip() for v in str(text).split(",") if v.strip())


def _parse_winsorize(text):
    text = str(text).strip().lower()
    if text in ("", "off", "none", "false"):
        return None
    lo, hi = (float(v) for v in text.split(","))
    return (lo, hi)


def _parse_bool(text):
    return str(text).strip().lower() in ("1", "true", "yes", "on")


_PARSERS = {
    "input": str,
    "macro": str,
    "tax_table": str,
    "tax_rate": float,
    "theta": _parse_theta,
    "leverage": str,
    "determinants": _parse_names,
    "macro_vars": _parse_names,
    "bootstrap": int,
    "seed": int,
    "regime_threshold": float,
    "winsorize": _parse_winsorize,
    "out": str,
    "format": str,
    "significance": float,
    "fe_mode": str,
    "penalty": float,
    "group_cap": int,
    "two_step": _parse_bool,
}


def read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = _PARSERS[key](value.strip())
    return values


def resolve_config(args):
    """Defaults, then config file (flag or env override), then CLI flags."""
    values = {}
    config_path = getattr(args, "config", None) or os.environ.get(ENV_CONFIG)
    if config_path:
        values.update(read_config_file(config_path))
    for key in _PARSERS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = _PARSERS[key](flag) if isinstance(flag, str) else flag
    return RunConfig(**values)


def config_text(cfg):
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif value is None:
            value = "none"
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg):
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()


# ---------------------------------------------------------------------------
# pipeline context and stages
# ---------------------------------------------------------------------------


class Pipeline:
    """Lazily loads and derives the panel once, shared across stages."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._panel = None

    @property
    def panel(self):
        if self._panel is None:
            cfg = self.cfg
            if not cfg.input or not cfg.macro:
                raise ConfigError("input and macro paths are required")
            panel = read_panel_csv(cfg.input)
            macro = read_macro_csv(
                cfg.macro, rule=RegimeRule(threshold=cfg.regime_threshold)
            )
            tax = read_tax_csv(cfg.tax_table) if cfg.tax_table else cfg.tax_rate
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                panel = derive_variables(panel, macro, tax, winsorize=cfg.winsorize)
            self._panel = panel
        return self._panel

    def _boot_seed(self, kind, theta_index):
        kind_index = ("book", "market").index(kind)
        return np.random.SeedSequence(
            entropy=self.cfg.seed, spawn_key=(kind_index, theta_index)
        )


def _lev_var(kind):
    return "levb" if kind == "book" else "levm"


def stage_ingest(ctx):
    return [("validation_report.txt", reports.render_validation(ctx.panel.validation), "text")]


def stage_describe(ctx):
    ym = yearly_means(ctx.panel)
    return [
        ("yearly_means.txt", reports.render_yearly_means(ym), "text"),
        ("yearly_means.csv", reports.yearly_means_csv(ym), "delimited"),
    ]


def stage_correlate(ctx):
    cm = correlation_matrix(ctx.panel)
    return [
        ("correlation.txt", reports.render_correlation(cm), "text"),
        ("correlation.csv", reports.correlation_csv(cm), "delimited"),
    ]


def stage_hausman(ctx):
    cfg = ctx.cfg
    out = []
    predictors = tuple(cfg.determinants) + tuple(cfg.macro_vars)
    for kind in cfg.kinds:
        var = _lev_var(kind)
        design, firms, _ = design_from_panel(ctx.panel, var, predictors)
        fe = fit_fixed_effects(design, firms)
        design_i, firms_i, _ = design_from_panel(
            ctx.panel, var, predictors, intercept=True
        )
        re = fit_random_effects(design_i, firms_i)
        result = hausman_test(fe, re, significance=cfg.significance)
        equation = f"{kind}_leverage"
        out.append(
            (f"hausman_{kind}.txt", reports.render_hausman(result, equation), "text")
        )
        out.append(
            (f"hausman_{kind}.csv", reports.hausman_csv(result, equation), "delimited")
        )
    return out


def stage_qreg(ctx):
    cfg = ctx.cfg
    out = []
    predictors = tuple(cfg.determinants) + tuple(cfg.macro_vars)
    for kind in cfg.kinds:
        var = _lev_var(kind)
        design, firms, _ = design_from_panel(ctx.panel, var, predictors)
        fits, se, pval = {}, {}, {}
        for i, theta in enumerate(cfg.theta):
            fits[theta] = fit_quantile_fixed_effects(
                design, firms, theta,
                mode=cfg.fe_mode, penalty=cfg.penalty, group_cap=cfg.group_cap,
            )
            if cfg.bootstrap >= 2:
                boot = bootstrap_se(
                    design, theta, cfg.bootstrap,
                    seed=ctx._boot_seed(kind, i),
                    cluster=firms, refit_group_effects=True,
                    mode=cfg.fe_mode, penalty=cfg.penalty, group_cap=cfg.group_cap,
                )
                fits[theta].std_errors = boot.std_errors
                se[theta] = boot.std_errors
                pval[theta] = boot.p_values
        title = f"{kind.upper()} LEVERAGE"
        out.append(
            (
                f"quantile_{kind}.txt",
                reports.render_quantile_table(
                    title, cfg.theta, fits, predictors, se=se, pval=pval
                ),
                "text",
            )
        )
        out.append(
            (
                f"quantile_{kind}.csv",
                reports.quantile_table_csv(cfg.theta, fits, predictors, se=se, pval=pval),
                "delimited",
            )
        )
    return out


def stage_speed(ctx):
    cfg = ctx.cfg
    overall = {}
    by_regime = {}
    notes = []
    for kind in cfg.kinds:
        spec = TargetModelSpec(
            leverage=kind,
            determinants=tuple(cfg.determinants),
            macro_vars=tuple(cfg.macro_vars),
            thetas=tuple(cfg.theta),
            regime_split=RegimeRule(threshold=cfg.regime_threshold),
            fe_mode=cfg.fe_mode,
            penalty=cfg.penalty,
            group_cap=cfg.group_cap,
            two_step=cfg.two_step,
        )
        panel = lag_leverage(ctx.panel, kind)
        overall[kind] = estimate_speed(panel, spec)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            regimes = estimate_speed_by_regime(panel, spec)
        for regime, results in regimes.results.items():
            by_regime.setdefault(regime, {})[kind] = results
        for regime, reason in regimes.skipped.items():
            notes.append(f"{kind} / {regime.value}: skipped ({reason})")

    text = reports.render_speed_table(overall, cfg.theta)
    regime_text = []
    regime_rows = {}
    for regime in sorted(by_regime, key=lambda r: r.value):
        regime_text.append(
            reports.render_speed_table(
                by_regime[regime],
                cfg.theta,
                title=f"ADJUSTMENT SPEED ({regime.value})",
            )
        )
        for kind, results in by_regime[regime].items():
            regime_rows.setdefault(kind, []).extend(results)
    if notes:
        regime_text.append("\n".join(notes) + "\n")
    if not regime_text:
        regime_text.append("no regime had enough usable rows\n")
    return [
        ("speed.txt", text, "text"),
        ("speed.csv", reports.speed_table_csv(overall), "delimited"),
        ("speed_by_regime.txt", "\n".join(regime_text), "text"),
        ("speed_by_regime.csv", reports.speed_table_csv(regime_rows), "delimited"),
    ]


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "describe": stage_describe,
    "correlate": stage_correlate,
    "hausman": stage_hausman,
    "qreg": stage_qreg,
    "speed": stage_speed,
}


def _write_outputs(cfg, items):
    os.makedirs(cfg.out, exist_ok=True)
    written = []
    wanted = cfg.formats
    for name, text, kind in items:
        if kind not in wanted:
            continue
        path = os.path.join(cfg.out, name)
        with open(path, "w") as fh:
            fh.write(text)
        written.append(name)
    return written


def _write_config_echo(cfg):
    os.makedirs(cfg.out, exist_ok=True)
    with open(os.path.join(cfg.out, "config_resolved.txt"), "w") as fh:
        fh.write(config_text(cfg))
    return ["config_resolved.txt"]


def run_stages(cfg, stage_names):
    """Run the given stages in order; returns (exit_code, files, statuses)."""
    ctx = Pipeline(cfg)
    files = _write_config_echo(cfg)
    statuses = {}
    for name in stage_names:
        try:
            files += _write_outputs(cfg, _STAGE_FUNCS[name](ctx))
            statuses[name] = "ok"
        except Exception as err:  # halt with a stage-named diagnostic
            statuses[name] = f"failed: {err}"
            print(f"stage {name} failed: {err}", file=sys.stderr)
            for later in stage_names[stage_names.index(name) + 1 :]:
                statuses[later] = "not run"
            return 1, files, statuses
    return 0, files, statuses


def _manifest(cfg, files, statuses, complete):
    lines = ["levquant replicate manifest"]
    lines.append(f"status = {'complete' if complete else 'incomplete'}")
    lines.append(f"config_sha256 = {config_hash(cfg)}")
    lines.append(f"master_seed = {cfg.seed}")
    lines.append("[stages]")
    for name in STAGES:
        lines.append(f"{name} = {statuses.get(name, 'not run')}")
    lines.append("[files]")
    for name in sorted(set(files)):
        with open(os.path.join(cfg.out, name), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        lines.append(f"{name} sha256={digest}")
    with open(os.path.join(cfg.out, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_replicate(cfg):
    code, files, statuses = run_stages(cfg, STAGES)
    _manifest(cfg, files, statuses, complete=(code == 0))
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="configuration file path")
    parser.add_argument("--input", help="firm-year panel CSV")
    parser.add_argument("--macro", help="macro series CSV")
    parser.add_argument("--tax-table", dest="tax_table", help="per-year tax rate CSV")
    parser.add_argument("--tax-rate", dest="tax_rate", type=float)
    parser.add_argument("--theta", help="comma-separated quantiles")
    parser.add_argument("--leverage", choices=("book", "market", "both"))
    parser.add_argument("--determinants", help="comma-separated variable names")
    parser.add_argument("--bootstrap", type=int, help="bootstrap replications")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument(
        "--regime-threshold", dest="regime_threshold", type=float,
        help="recession iff gdp growth below this",
    )
    parser.add_argument("--winsorize", help="e.g. 0.01,0.99 (default off)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("text", "delimited", "both"))
    parser.add_argument("--two-step", dest="two_step", action="store_const", const=True)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levquant",
        description="panel quantile-regression toolkit for leverage adjustment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("replicate", "run the full pipeline and write the report bundle"),
        ("ingest", "validate the input panel"),
        ("describe", "yearly variable means"),
        ("correlate", "correlation matrix"),
        ("hausman", "fixed- vs random-effects specification test"),
        ("qreg", "per-quantile coefficient tables"),
        ("speed", "per-quantile adjustment speeds"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
    sim = sub.add_parser("simulate", help="write a synthetic panel with known speed")
    sim.add_argument("--n-firms", type=int, default=200)
    sim.add_argument("--t-max", type=int, default=15)
    sim.add_argument("--delta", default="0.6", help="speed, or growth,recession pair")
    sim.add_argument("--attrition", type=float, default=0.0)
    sim.add_argument("--sigma", type=float, default=None, help="shock scale")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--start-year", type=int, default=2000)
    sim.add_argument("--out", default="levquant_synth")
    return parser


def simulate_config(args):
    deltas = tuple(float(v) for v in str(args.delta).split(","))
    delta = deltas[0] if len(deltas) == 1 else (deltas[0], deltas[1])
    error = ErrorSpec() if args.sigma is None else ErrorSpec(sigma=args.sigma)
    return SynthConfig(
        n_firms=args.n_firms,
        t_max=args.t_max,
        attrition=args.attrition,
        delta=delta,
        error=error,
        seed=args.seed,
        start_year=args.start_year,
    )


def cmd_simulate(config, out):
    panel, truth = generate_panel(config)
    os.makedirs(out, exist_ok=True)
    write_panel_csv(panel, os.path.join(out, "panel.csv"))
    write_macro_csv(truth.macro, os.path.join(out, "macro.csv"))
    write_tax_csv(
        {y: config.tax_rate for y in truth.macro},
        os.path.join(out, "tax_rates.csv"),
    )
    write_ground_truth(truth, os.path.join(out, "ground_truth.txt"))
    print(f"wrote synthetic panel ({len(panel)} rows) to {out}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    configure = simulate_config if args.command == "simulate" else resolve_config
    try:
        cfg = configure(args)
    except (ConfigError, OSError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    if args.command == "simulate":
        return cmd_simulate(cfg, args.out)
    if args.command == "replicate":
        return run_replicate(cfg)
    code, _, _ = run_stages(cfg, (args.command,))
    return code


if __name__ == "__main__":
    sys.exit(main())
