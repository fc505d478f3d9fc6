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
from dataclasses import dataclass, field, fields

import numpy as np

from . import reports
from .adjustment import (
    DEFAULT_DETERMINANTS, DEFAULT_THETAS, TargetModelSpec, estimate_speed,
    estimate_speed_by_regime, fit_quantiles,
)
from .effects import DEFAULT_SIGNIFICANCE, fit_fixed_effects, fit_random_effects, hausman_test
from .errors import ConfigError
from .panel import (
    DEFAULT_TAX_RATE,
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
from .quantreg import DEFAULT_BOOTSTRAP, bootstrap_many
from .synthgen import ErrorSpec, SynthConfig, generate_panel, write_ground_truth

ENV_CONFIG = "LEVQUANT_CONFIG"


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
    limits = tuple(float(v) for v in text.split(","))
    if len(limits) != 2:
        raise ConfigError(f"winsorize takes 'lo,hi' or 'off', got {text!r}")
    return limits


def _key(default, parse, help):  # parse: a config-file or flag text -> value
    return field(default=default, metadata={"parse": parse, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """The options of one run.  Construction rejects every value that a
    stage would reject, so a bad value fails before anything is written."""

    input: str | None = _key(None, str, "firm-year panel CSV")
    macro: str | None = _key(None, str, "macro series CSV")
    tax_table: str | None = _key(None, str, "per-year tax rate CSV")
    tax_rate: float = _key(DEFAULT_TAX_RATE, float, "constant tax rate when no tax table is given")
    theta: tuple = _key(DEFAULT_THETAS, _parse_theta, "comma-separated quantiles")
    leverage: str = _key("both", str, "book, market or both")
    determinants: tuple = _key(DEFAULT_DETERMINANTS, _parse_names, "comma-separated determinants")
    macro_vars: tuple = _key(MACRO_VARIABLES, _parse_names, "comma-separated macro regressors")
    bootstrap: int = _key(DEFAULT_BOOTSTRAP, int, "bootstrap replications: 0 (off) or at least 2")
    seed: int = _key(12345, int, "master seed")
    regime_threshold: float = _key(RegimeRule.threshold, float, "recession iff gdp growth below this")
    winsorize: tuple | None = _key(None, _parse_winsorize, "e.g. 0.01,0.99 (default off)")
    out: str = _key("levquant_out", str, "output directory")
    format: str = _key("both", str, "text, delimited or both")
    significance: float = _key(DEFAULT_SIGNIFICANCE, float, "Hausman test level")
    penalty: float = _key(TargetModelSpec.penalty, float,
                          "L1 weight on the firm effects, 0 for free effects")

    def __post_init__(self):
        checks = (
            (self.leverage in ("book", "market", "both"),
             f"leverage must be book|market|both, got {self.leverage!r}"),
            (self.format in ("text", "delimited", "both"),
             f"format must be text|delimited|both, got {self.format!r}"),
            (self.bootstrap == 0 or self.bootstrap >= 2,
             f"bootstrap must be 0 (off) or at least 2, got {self.bootstrap}"),
            (self.seed >= 0, f"seed must be non-negative, got {self.seed}"),
            (0.0 < self.significance < 1.0,
             f"significance must lie in (0, 1), got {self.significance}"),
            (0.0 < self.tax_rate < np.inf, f"tax_rate {self.tax_rate} is not in (0, inf)"),
            (self.winsorize is None or 0.0 <= self.winsorize[0] < self.winsorize[1] <= 1.0,
             f"winsorize limits must satisfy 0 <= lo < hi <= 1, got {self.winsorize}"),
        )
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        for kind in self.kinds:  # the model options, checked by TargetModelSpec
            self.spec(kind)

    @property
    def kinds(self):
        return ("book", "market") if self.leverage == "both" else (self.leverage,)

    @property
    def extensions(self):
        """The report files this run writes, by extension."""
        return {"text": (".txt",), "delimited": (".csv",)}.get(self.format, (".txt", ".csv"))

    def spec(self, kind):
        """The target model that every estimation stage fits for one
        leverage kind."""
        return TargetModelSpec(
            leverage=kind,
            determinants=tuple(self.determinants),
            macro_vars=tuple(self.macro_vars),
            thetas=tuple(self.theta),
            regime_split=RegimeRule(threshold=self.regime_threshold),
            penalty=self.penalty,
        )


_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def _parse(key, text, where=""):
    try:
        return _PARSERS[key](text)
    except ValueError as err:
        raise ConfigError(f"{where}{key}: {err}") from None


def read_config_file(path):
    values, set_on = {}, {}  # set_on: key -> the line that set it
    with open(path, encoding="utf-8-sig") as fh:
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
            if key in set_on:
                raise ConfigError(f"{path}:{lineno}: {key!r} is already set on line {set_on[key]}")
            set_on[key] = lineno
            values[key] = _parse(key, value.strip(), f"{path}:{lineno}: ")
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
            values[key] = _parse(key, flag)
    return RunConfig(**values)


def stage_config(args):
    """The run config of a pipeline command: every stage reads the input
    panel, so its files are required here rather than by ``RunConfig``."""
    cfg = resolve_config(args)
    if not cfg.input or not cfg.macro:
        raise ConfigError("input and macro paths are required")
    for key in ("input", "macro", "tax_table"):
        path = getattr(cfg, key)
        if path and not os.path.isfile(path):
            raise ConfigError(f"{key}: not a file: {path}")
    return cfg


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


# ---------------------------------------------------------------------------
# stages and the run loop
# ---------------------------------------------------------------------------


def load_panel(cfg):
    """Read the run's input files and derive the panel every stage reads;
    without a tax table, ``cfg.tax_rate`` stands in for every macro year."""
    panel = read_panel_csv(cfg.input)
    macro = read_macro_csv(cfg.macro)
    tax = read_tax_csv(cfg.tax_table) if cfg.tax_table else dict.fromkeys(macro, cfg.tax_rate)
    return derive_variables(panel, macro, tax, winsorize=cfg.winsorize)


# each stage takes the run config and the derived panel and returns its
# report files as (name, text) pairs: a .txt file is text, a .csv delimited


def stage_ingest(cfg, panel):
    return [("validation_report.txt", reports.render_validation(panel.validation))]


def stage_describe(cfg, panel):
    ym = yearly_means(panel)
    return [
        ("yearly_means.txt", reports.render_yearly_means(ym)),
        ("yearly_means.csv", reports.yearly_means_csv(ym)),
    ]


def stage_correlate(cfg, panel):
    cm = correlation_matrix(panel)
    return [
        ("correlation.txt", reports.render_correlation(cm)),
        ("correlation.csv", reports.correlation_csv(cm)),
    ]


def stage_hausman(cfg, panel):
    out = []
    for kind in cfg.kinds:
        spec = cfg.spec(kind)
        design, firms, _ = design_from_panel(panel, spec.response, spec.predictors)
        fe = fit_fixed_effects(design, firms)
        re = fit_random_effects(design, firms, fe)
        result = hausman_test(fe, re, significance=cfg.significance)
        equation = f"{kind}_leverage"
        out.append((f"hausman_{kind}.txt", reports.render_hausman(result, equation)))
        out.append((f"hausman_{kind}.csv", reports.hausman_csv(result, equation)))
    return out


def stage_qreg(cfg, panel):
    specs = {kind: cfg.spec(kind) for kind in cfg.kinds}
    fitted = {kind: fit_quantiles(panel, s, s.predictors) for kind, s in specs.items()}
    if cfg.bootstrap:
        # every kind's draws are refit on one worker pool; the kinds' specs
        # share their thetas and penalty.  A kind's seed is keyed on the kind
        # alone: every quantile of a kind, and a one-kind run, refits its draws
        first = specs[cfg.kinds[0]]
        problems = [
            (design, firms, np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(("book", "market").index(kind),)))
            for kind, (design, firms, _) in fitted.items()
        ]
        results = bootstrap_many(problems, first.thetas, cfg.bootstrap, penalty=first.penalty)
        for (_, _, fits), result in zip(fitted.values(), results):
            for theta, fit in fits.items():
                fit.std_errors = result.std_errors[theta]
    out = []
    for kind, spec in specs.items():
        _, _, fits = fitted[kind]
        table = (spec.thetas, fits, spec.predictors)
        title = f"{kind.upper()} LEVERAGE"
        out.append((f"quantile_{kind}.txt", reports.render_quantile_table(title, *table)))
        out.append((f"quantile_{kind}.csv", reports.quantile_table_csv(*table)))
    return out


def stage_speed(cfg, panel):
    overall, by_regime, notes = [], [], []
    for kind in cfg.kinds:
        spec = cfg.spec(kind)
        overall += estimate_speed(panel, spec)
        regimes = estimate_speed_by_regime(panel, spec)
        by_regime += sum(regimes.results.values(), [])  # growth, then recession
        for regime, reason in regimes.skipped.items():
            notes.append(f"{kind} / {regime.value}: skipped ({reason})")
    regime_text = [
        reports.render_speed_table(
            [r for r in by_regime if r.regime is regime], cfg.theta,
            title=f"ADJUSTMENT SPEED ({regime.value})",
        )
        for regime in sorted({r.regime for r in by_regime}, key=lambda r: r.value)
    ]
    if notes:
        regime_text.append("\n".join(notes) + "\n")
    return [
        ("speed.txt", reports.render_speed_table(overall, cfg.theta)),
        ("speed.csv", reports.speed_table_csv(overall)),
        ("speed_by_regime.txt", "\n".join(regime_text)),
        ("speed_by_regime.csv", reports.speed_table_csv(by_regime)),
    ]


# name -> (stage function, subcommand help), in bundle order
STAGES = {
    "ingest": (stage_ingest, "validate the input panel"),
    "describe": (stage_describe, "yearly variable means"),
    "correlate": (stage_correlate, "correlation matrix"),
    "hausman": (stage_hausman, "fixed- vs random-effects specification test"),
    "qreg": (stage_qreg, "per-quantile coefficient tables"),
    "speed": (stage_speed, "per-quantile adjustment speeds"),
}


def _write(cfg, name, text):
    """Write one file of the run into ``cfg.out`` as UTF-8; returns the
    sha256 of the bytes written."""
    data = text.encode("utf-8")
    with open(os.path.join(cfg.out, name), "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def run_stages(cfg, stage_names):
    """Write the config echo, load the panel and run the given stages in
    order into the existing directory ``cfg.out``, keeping the files of the
    run's format; returns (exit_code, digests, statuses), where ``digests``
    maps each written file to its sha256."""
    digests = {"config_resolved.txt": _write(cfg, "config_resolved.txt", config_text(cfg))}
    statuses = {}
    panel = None
    for name in stage_names:
        try:
            if panel is None:  # a load failure is the first stage's failure
                panel = load_panel(cfg)
            for file, text in STAGES[name][0](cfg, panel):
                if file.endswith(cfg.extensions):
                    digests[file] = _write(cfg, file, text)
            statuses[name] = "ok"
        except Exception as err:  # halt with a stage-named diagnostic
            statuses[name] = f"failed: {err}"
            print(f"stage {name} failed: {err}", file=sys.stderr)
            for later in stage_names[stage_names.index(name) + 1 :]:
                statuses[later] = "not run"
            return 1, digests, statuses
    return 0, digests, statuses


def run_replicate(cfg):
    """Run every stage and write the manifest: the run's status, each
    stage's status and the digest of every file written."""
    code, digests, statuses = run_stages(cfg, tuple(STAGES))
    lines = [
        "levquant replicate manifest",
        f"status = {'complete' if code == 0 else 'incomplete'}",
        f"config_sha256 = {digests['config_resolved.txt']}",
        f"master_seed = {cfg.seed}",
        "[stages]",
    ]
    lines += [f"{name} = {statuses.get(name, 'not run')}" for name in STAGES]
    lines.append("[files]")
    lines += [f"{name} sha256={digests[name]}" for name in sorted(digests)]
    _write(cfg, "manifest.txt", "\n".join(lines) + "\n")
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="configuration file path")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            help=f.metadata["help"])


def build_parser():
    parser = argparse.ArgumentParser(
        prog="levquant",
        description="panel quantile-regression toolkit for leverage adjustment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {"replicate": "run the full pipeline and write the report bundle"}
    commands.update((name, help_text) for name, (_, help_text) in STAGES.items())
    for name, help_text in commands.items():
        _add_common(sub.add_parser(name, help=help_text))
    sim = sub.add_parser("simulate", help="write a synthetic panel with known speed")
    synth = SynthConfig()  # the flags' defaults are the generator's
    sim.add_argument("--n-firms", type=int, default=synth.n_firms)
    sim.add_argument("--t-max", type=int, default=synth.t_max)
    sim.add_argument("--delta", default=str(synth.delta), help="speed, or growth,recession pair")
    sim.add_argument("--attrition", type=float, default=synth.attrition)
    sim.add_argument("--sigma", type=float, default=synth.error.sigma, help="shock scale")
    sim.add_argument("--seed", type=int, default=synth.seed)
    sim.add_argument("--start-year", type=int, default=synth.start_year)
    sim.add_argument("--out", default="levquant_synth")
    return parser


def simulate_config(args):
    deltas = tuple(float(v) for v in str(args.delta).split(","))
    if len(deltas) > 2:
        raise ConfigError(f"--delta takes a speed or a growth,recession pair, got {args.delta!r}")
    delta = deltas[0] if len(deltas) == 1 else deltas
    return SynthConfig(
        n_firms=args.n_firms,
        t_max=args.t_max,
        attrition=args.attrition,
        delta=delta,
        error=ErrorSpec(sigma=args.sigma),
        seed=args.seed,
        start_year=args.start_year,
    )


def cmd_simulate(config, out):
    panel, truth = generate_panel(config)
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
    simulate = args.command == "simulate"
    try:
        cfg = simulate_config(args) if simulate else stage_config(args)
        # an out path that cannot be a directory fails here, before any file is written
        os.makedirs(args.out if simulate else cfg.out, exist_ok=True)
    except (ConfigError, OSError, ValueError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    if simulate:
        return cmd_simulate(cfg, args.out)
    if args.command == "replicate":
        return run_replicate(cfg)
    code, _, _ = run_stages(cfg, (args.command,))
    return code


if __name__ == "__main__":
    sys.exit(main())
