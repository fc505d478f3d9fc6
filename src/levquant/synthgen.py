"""Synthetic unbalanced firm-year panels from a known partial-adjustment
process, for known-answer validation of every estimator.

The generator simulates raw statement items, so the emitted panel round-trips
through the normal ingestion/derivation path: determinants are whatever
``derive_variables`` recovers from the simulated statements, targets are
built from those exact values, and leverage evolves by the adjustment rule.
Draws are vectorised across firms, one array per quantity in a fixed
per-year order, so attrition only removes rows from a seed's panel.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from .adjustment import TargetModelSpec, estimate_speed, estimate_speed_by_regime
from .errors import ConfigError, ConvergenceError, DataValidationError, DesignError
from .panel import (
    _YEARS, DEFAULT_TAX_RATE, RAW_ITEMS, MacroYear, Regime, RegimeRule, derive_variables,
    ingest_panel,
)

_BURN_IN = 10

DEFAULT_BETA = {"profta": -0.50, "liqta": -0.03, "sizeat": 0.02}
DEFAULT_GAMMA = {"inflation": 0.002, "gdp_rate": -0.0015}


@dataclass(frozen=True)
class ErrorSpec:
    """Adjustment-shock distribution.

    ``heteroskedastic`` scales the normal shock by (1 + het_coef * z) where
    z is the firm's standardized profitability that year, so true
    coefficients differ across quantiles.
    """

    kind: str = "normal"
    sigma: float = 0.006
    df: float = 5.0
    het_coef: float = 0.5

    def __post_init__(self):
        if self.kind not in ("normal", "student", "heteroskedastic"):
            raise ConfigError(f"unknown error kind {self.kind!r}")
        if not 0.0 <= self.sigma < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"sigma must be nonnegative and finite, got {self.sigma}")
        if not self.df > 0.0:
            raise ConfigError(f"df must be positive, got {self.df}")
        if not -np.inf < self.het_coef < np.inf:
            raise ConfigError(f"het_coef must be finite, got {self.het_coef}")


@dataclass(frozen=True)
class SynthConfig:
    n_firms: int = 100
    t_max: int = 15
    attrition: float = 0.0
    delta: float | tuple = 0.6            # scalar, or (growth, recession)
    beta: dict = field(default_factory=lambda: dict(DEFAULT_BETA))
    gamma: dict = field(default_factory=lambda: dict(DEFAULT_GAMMA))
    intercept: float = 0.30
    firm_effect_sd: float = 0.04
    error: ErrorSpec = ErrorSpec()
    macro_path: tuple | None = None        # ((inflation, gdp_growth), ...) per year
    regime_rule: RegimeRule = RegimeRule()
    tax_rate: float = DEFAULT_TAX_RATE
    start_year: int = 2000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_firms", "t_max", "start_year", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            # a numpy integer becomes a Python int, so the year check cannot wrap
            object.__setattr__(self, name, operator.index(value))
        deltas = self.delta if isinstance(self.delta, tuple) else (self.delta,)
        for d in deltas:
            # 0 (no adjustment at all) is degenerate but valid for testing
            if not (0.0 <= d <= 1.0):
                raise ConfigError(f"delta must lie in [0, 1], got {d}")
        if self.n_firms < 1:
            raise ConfigError("need at least one firm")
        if self.t_max < 3:
            raise ConfigError("need t_max >= 3 to form lags")
        if not (0.0 <= self.attrition < 1.0):
            raise ConfigError("attrition must lie in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        # every simulated year, burn-in included, is a panel year: an int64
        first, last = self.start_year - _BURN_IN, self.start_year + self.t_max - 1
        if not (_YEARS.start <= first and last < _YEARS.stop):
            raise ConfigError(f"simulated years {first} to {last} (burn-in included) "
                              "must lie inside int64")
        drivable = {"profta", "liqta", "sizeat", "growthat", "invta", "ndts"}
        bad = set(self.beta) - drivable
        if bad:
            raise ConfigError(
                f"beta names not drivable by the generator: {sorted(bad)}"
            )
        bad = set(self.gamma) - {"inflation", "gdp_rate"}
        if bad:
            raise ConfigError(f"unknown macro names in gamma: {sorted(bad)}")

    def delta_for(self, regime):
        if isinstance(self.delta, tuple):
            return self.delta[0] if regime is Regime.Growth else self.delta[1]
        return self.delta


@dataclass(frozen=True)
class GroundTruth:
    config: SynthConfig
    firm_effects: dict          # firm_id -> a_i
    regimes: dict               # year -> Regime
    macro: dict                 # year -> MacroYear
    n_clamped: int              # shock draws (burn-in too) with scale clamped at 0.05


def _macro_series(config, rng):
    total = _BURN_IN + config.t_max
    first = config.start_year - _BURN_IN
    if config.macro_path is not None:
        path = list(config.macro_path)
        if len(path) < config.t_max:
            raise ConfigError(
                f"macro_path covers {len(path)} years, need {config.t_max}"
            )
        # recycle the first entry through the burn-in window
        path = [path[0]] * _BURN_IN + path[: config.t_max]
    else:
        infl, gdp = 3.0, 2.0
        path = []
        for _ in range(total):
            infl = 3.0 + 0.5 * (infl - 3.0) + rng.normal(0.0, 1.2)
            gdp = 2.0 + 0.5 * (gdp - 2.0) + rng.normal(0.0, 2.2)
            path.append((infl, gdp))
    out = {}
    for i, (infl, gdp) in enumerate(path):
        year = first + i
        out[year] = MacroYear(year=year, inflation=float(infl), gdp_growth=float(gdp))
    return out


def _shock(rng, spec, z):
    """One shock per firm, and the mask of draws whose heteroskedastic
    scale ``1 + het_coef * z`` was clamped at 0.05."""
    scale = 1.0 + spec.het_coef * z if spec.kind == "heteroskedastic" else np.ones(z.size)
    if spec.kind == "student":
        return rng.standard_t(spec.df, z.size) * spec.sigma, scale < 0.05
    return rng.normal(0.0, spec.sigma, z.size) * np.maximum(0.05, scale), scale < 0.05


def generate_panel(config):
    """Simulate one panel; returns (panel with derived rows, ground truth).

    Identical (config, seed) give byte-identical output.  Leverage starts at
    its stationary level and runs through a discarded burn-in, so the
    emitted years carry no initialization transient.  Attrition removes a
    firm permanently with the configured per-year probability, truncating
    the path the firm has without attrition.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    macro = _macro_series(config, rng)
    regimes = {y: config.regime_rule.classify(m.gdp_growth) for y, m in macro.items()}
    emit_from, n = config.start_year, config.n_firms

    a = rng.normal(0.0, config.firm_effect_sd, n)
    sales = np.exp(rng.normal(4.0, 0.8, n))
    ppent = np.exp(rng.normal(3.5, 0.6, n))
    total_assets = np.exp(rng.normal(4.5, 0.5, n))
    levb = levm = config.intercept + a
    alive = np.ones(n, dtype=bool)
    n_clamped = 0
    emitted = []  # per emitted year: the alive mask, then every firm's raw items
    for year in sorted(macro):
        # attrition runs over emitted years only, one draw per firm and transition
        if year > emit_from:
            alive &= rng.random(n) >= config.attrition
        # raw items chosen so ingestion recovers the intended determinants
        profta = rng.normal(0.08, 0.05, n)
        liqta = np.exp(rng.normal(0.3, 0.35, n))
        growth = rng.normal(0.04, 0.10, n)
        sales = np.maximum(sales * (1.0 + growth), 1e-6)
        inv = rng.normal(0.1, 0.5, n)
        dp = 0.08 * ppent
        ppent_prev = ppent
        ppent = np.maximum(ppent_prev + inv - dp, 1e-6)
        lct = np.exp(rng.normal(2.0, 0.4, n))
        ebit = profta * total_assets
        ip = np.abs(rng.normal(0.02, 0.01, n)) * total_assets
        ndts_target = rng.normal(0.5, 1.0, n)
        txt = config.tax_rate * (ebit - ip - ndts_target)

        x = {"profta": profta, "liqta": liqta, "sizeat": np.log(sales), "growthat": growth,
             "invta": ppent - ppent_prev + dp, "ndts": ebit - ip - txt / config.tax_rate}
        m = {"inflation": macro[year].inflation, "gdp_rate": macro[year].gdp_growth}
        drive = (config.intercept + a + sum(config.beta[k] * x[k] for k in config.beta)
                 + sum(config.gamma[k] * m[k] for k in config.gamma))
        delta = config.delta_for(regimes[year])
        z = (profta - 0.08) / 0.05
        shock_b, clamped = _shock(rng, config.error, z)
        shock_m, _ = _shock(rng, config.error, z)
        n_clamped += 2 * int(np.count_nonzero(clamped & alive))
        levb = levb + delta * (drive - levb) + shock_b
        levm = levm + delta * (drive - levm) + shock_m

        if year < emit_from:
            continue
        debt = levb * total_assets
        # market leverage is not representable where it leaves (0, 1) or debt <= 0
        ok = (levm > 0.0) & (levm < 1.0) & (debt > 0.0)
        mkt_eq = np.where(ok, debt * (1.0 - levm) / np.where(ok, levm, 1.0), np.nan)
        emitted.append((alive.copy(), total_assets, debt, mkt_eq, liqta * lct, lct, ebit, ip,
                        txt, sales, ppent, dp))

    # (firm, emitted year) tables; the emitted years run on from emit_from. Read
    # row by row they are firm-major, so the report's input order is the panel's
    alive_in, *items = (np.stack(col, axis=1) for col in zip(*emitted))
    firm, year = np.nonzero(alive_in)
    width = len(str(n))
    labels = [f"F{i + 1:0{width}d}" for i in range(n)]
    raw = {name: item[alive_in] for name, item in zip(RAW_ITEMS, items)}
    panel = ingest_panel(np.array(labels)[firm], emit_from + year, raw)
    emitted_macro = {y: m for y, m in macro.items() if y >= emit_from}
    panel = derive_variables(
        panel, emitted_macro, {y: config.tax_rate for y in emitted_macro}
    )
    truth = GroundTruth(
        config=config,
        firm_effects=dict(zip(labels, a.tolist())),
        regimes={y: regimes[y] for y in emitted_macro},
        macro=emitted_macro,
        n_clamped=n_clamped,
    )
    return panel, truth


# ---------------------------------------------------------------------------
# recovery studies
# ---------------------------------------------------------------------------


@dataclass
class RecoveryCell:
    theta: float
    regime: Regime | None
    true_delta: float
    estimates: np.ndarray = field(repr=False)
    n_failed: int = 0

    @property
    def mean(self):
        return float(np.mean(self.estimates))

    @property
    def bias(self):
        return self.mean - self.true_delta

    @property
    def sd(self):
        if self.estimates.size < 2:
            return None
        return float(np.std(self.estimates, ddof=1))

    @property
    def rmse(self):
        return float(np.sqrt(np.mean((self.estimates - self.true_delta) ** 2)))


@dataclass
class RecoveryReport:
    cells: list
    replications: int
    # one reason per failed replication and per regime a replication skipped
    failures: list = field(default_factory=list)

    @property
    def n_failed(self):
        return len(self.failures)


def monte_carlo_speed(
    config,
    replications,
    *,
    thetas=(0.5,),
    leverage="book",
    determinants=None,
):
    """Bias / SD / RMSE of the estimated speed across simulated panels.

    Per-replication seeds derive from the master seed, so the report is
    deterministic per seed.
    Estimator failures (data, design, convergence and linear-algebra
    errors) are excluded and counted, each with its reason, as is every
    regime that a replication's per-regime estimation skipped; any other
    exception is a programming error and propagates.
    """
    if replications < 1:
        raise ConfigError("need at least one replication")
    if determinants is None:
        determinants = tuple(config.beta)
    per_regime = isinstance(config.delta, tuple)
    regimes = (Regime.Growth, Regime.Recession) if per_regime else (None,)
    spec = TargetModelSpec(
        leverage=leverage,
        determinants=tuple(determinants),
        thetas=tuple(thetas),
        regime_split=config.regime_rule,
    )
    children = np.random.SeedSequence(config.seed).spawn(replications)
    draws = {(th, regime): [] for regime in regimes for th in thetas}
    failures = []
    for i, child in enumerate(children):
        rep_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        rep_config = replace(config, seed=rep_seed)
        try:
            panel, _ = generate_panel(rep_config)
            if per_regime:
                out = estimate_speed_by_regime(panel, spec)
                results, skipped = out.results, out.skipped
            else:
                results, skipped = {None: estimate_speed(panel, spec)}, {}
            for regime, regime_results in results.items():
                for res in regime_results:
                    draws[(res.theta, regime)].append(res.speed)
            for regime, reason in skipped.items():
                failures.append(f"replication {i}: {regime.value} skipped: {reason}")
        except (
            DataValidationError, DesignError, ConvergenceError,
            scipy.linalg.LinAlgError,
        ) as err:
            failures.append(f"replication {i}: {type(err).__name__}: {err}")
    cells = [
        RecoveryCell(
            theta=th,
            regime=regime,
            true_delta=config.delta_for(regime),
            estimates=np.asarray(values, dtype=float),
            n_failed=replications - len(values),
        )
        for (th, regime), values in draws.items()
    ]
    return RecoveryReport(cells=cells, replications=replications, failures=failures)


def write_ground_truth(truth, path):
    cfg = truth.config
    lines = ["# ground truth for the generated panel"]
    lines.append(f"n_firms = {cfg.n_firms}")
    lines.append(f"t_max = {cfg.t_max}")
    lines.append(f"attrition = {cfg.attrition!r}")
    lines.append(f"delta = {cfg.delta!r}")
    lines.append(f"intercept = {cfg.intercept!r}")
    lines.append(f"firm_effect_sd = {cfg.firm_effect_sd!r}")
    e = cfg.error
    lines.append(f"error = {e.kind} sigma={e.sigma!r} df={e.df!r} het_coef={e.het_coef!r}")
    lines.append(f"clamped_shock_scales = {truth.n_clamped}")
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"beta = {sorted(cfg.beta.items())!r}")
    lines.append(f"gamma = {sorted(cfg.gamma.items())!r}")
    lines.append("[regimes]")
    for year, regime in sorted(truth.regimes.items()):
        lines.append(f"{year} = {regime.value}")
    lines.append("[firm_effects]")
    for firm, a_i in sorted(truth.firm_effects.items()):
        lines.append(f"{firm} = {a_i!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
