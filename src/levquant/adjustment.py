"""Target-leverage models and partial-adjustment speed estimation.

Leverage closes a fraction delta of the gap to its target each year:

    LEV_t - LEV_{t-1} = delta * (LEV*_t - LEV_{t-1}) + e_t

with the target linear in firm determinants and macro conditions.
Substituting gives the one-step estimating equation: a quantile regression
of LEV_t on the determinants, the macro variables, and LEV_{t-1} with firm
fixed effects, where the lag coefficient is 1 - delta.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataValidationError, DesignError
from .panel import (  # lag_leverage is re-exported: levquant.adjustment.lag_leverage
    _LEVERAGE_VAR, _MACRO_FIELDS, MACRO_VARIABLES, REGRESSORS, Regime, RegimeRule,
    complete_rows, design_from_panel, lag_leverage,
)
from .quantreg import QuantileFit, _check_penalty, _fe_problem, fit_quantile_fixed_effects

DEFAULT_THETAS = (0.15, 0.35, 0.5, 0.75, 0.95)
DEFAULT_DETERMINANTS = (
    "liqta", "mbratio", "ndts", "profta", "sizeat", "growthat", "invta",
)

# a regime is estimated only with this many complete design rows per coefficient
_MIN_ROWS_PER_COEF = 10


@dataclass(frozen=True)
class TargetModelSpec:
    """What to estimate: which leverage, which regressors, which quantiles.

    ``penalty`` (0 <= penalty < inf) is the L1 weight on the firm effects of
    every fit, as in ``fit_quantile_fixed_effects``: 0 fits one free effect
    per firm.  A predictor counts once under all its names (``gdp_growth``
    is ``gdp_rate``), and the response is never one of them."""

    leverage: str = "book"
    determinants: tuple = DEFAULT_DETERMINANTS
    macro_vars: tuple = MACRO_VARIABLES
    thetas: tuple = DEFAULT_THETAS
    regime_split: RegimeRule = RegimeRule()
    penalty: float = 0.0

    def __post_init__(self):
        if self.leverage not in _LEVERAGE_VAR:
            raise ConfigError(f"leverage must be 'book' or 'market', got "
                              f"{self.leverage!r}")
        if not self.determinants:
            raise ConfigError("determinants must be non-empty")
        unknown = [v for v in self.predictors if v not in REGRESSORS]
        if unknown:
            raise ConfigError(f"unknown variable(s) {', '.join(unknown)}; "
                              f"choose from {', '.join(REGRESSORS)}")
        if self.response in self.predictors:
            raise ConfigError(f"{self.response} is the {self.leverage} leverage that the "
                              "model explains; it cannot be one of its predictors")
        if len({_MACRO_FIELDS.get(v, v) for v in self.predictors}) < len(self.predictors):
            raise ConfigError("determinants and macro_vars must name each variable once "
                              "(gdp_growth and gdp_rate are one variable)")
        for th in self.thetas:
            if not (0.0 < th < 1.0):
                raise ConfigError(f"quantile {th} outside (0, 1)")
        if len(set(self.thetas)) < len(self.thetas):
            raise ConfigError("thetas must name each quantile once")
        _check_penalty(self.penalty)

    @property
    def response(self):  # the leverage variable the model explains
        return _LEVERAGE_VAR[self.leverage]

    @property
    def predictors(self):  # the target-model regressors
        return tuple(self.determinants) + tuple(self.macro_vars)

    @property
    def lag(self):  # the previous-year leverage column of a derived panel
        return self.response + "_lag"


@dataclass
class AdjustmentResult:
    theta: float
    leverage: str
    lag_coefficient: float
    speed: float
    pseudo_r2: float
    n_used: int
    regime: Regime | None = None
    out_of_range: bool = False
    fit: QuantileFit = field(default=None, repr=False)


def fit_quantiles(design, firms, spec):
    """``{theta: fit}``: the quantile fixed-effects fits of ``design`` with
    the firms ``firms`` as its groups at every theta of ``spec``, with its
    penalty, through one theta-free problem built for all of them."""
    problem = _fe_problem(design, firms, spec.penalty) if spec.thetas else None
    return {
        theta: fit_quantile_fixed_effects(
            design, firms, theta, penalty=spec.penalty, _problem=problem
        )
        for theta in spec.thetas
    }


def estimate_speed(panel, spec):
    """Per-quantile adjustment speeds for one leverage kind.

    Each row's lag is the one ``derive_variables`` attached.  ``speed = 1 -
    lag coefficient`` holds exactly by construction; a lag coefficient
    outside [0, 1] is reported with ``out_of_range`` set, not clipped.
    """
    design, firms, _ = design_from_panel(panel, spec.response, spec.predictors + (spec.lag,))
    results = []
    for theta, fit in fit_quantiles(design, firms, spec).items():
        lam = fit.coefficients[spec.lag]
        results.append(AdjustmentResult(theta, spec.leverage, lam, 1.0 - lam, fit.pseudo_r2,
                                        design.n, out_of_range=not 0.0 <= lam <= 1.0, fit=fit))
    return results


@dataclass
class RegimeSpeeds:
    results: dict   # Regime -> list of AdjustmentResult
    skipped: dict   # Regime -> reason


def estimate_speed_by_regime(panel, spec):
    """Adjustment speeds per macroeconomic regime.

    Each row belongs to the regime of its year t (the adjustment year) under
    ``spec.regime_split``: a mask over the derived rows, which keep the lags
    taken on the full panel, so a regime-boundary row keeps its
    previous-year leverage.  A regime with fewer than 10 complete design
    rows (response, lag and every predictor present) per coefficient, or
    whose rows leave the design degenerate, is skipped and its reason
    reported in ``RegimeSpeeds.skipped``.
    """
    recession = spec.regime_split.is_recession(panel.variable("gdp_growth"))
    regressors = spec.predictors + (spec.lag,)
    complete = complete_rows(panel, spec.response, regressors)
    needed = _MIN_ROWS_PER_COEF * len(regressors)
    results, skipped = {}, {}
    for regime, mask in ((Regime.Growth, ~recession), (Regime.Recession, recession)):
        usable = int(np.count_nonzero(mask & complete))
        if usable < needed:
            skipped[regime] = (
                f"{usable} usable rows < required {needed} ({len(regressors)} coefficients)"
            )
            continue
        try:
            results[regime] = [
                replace(res, regime=regime)
                for res in estimate_speed(panel.subset(mask), spec)
            ]
        except (DataValidationError, DesignError) as err:
            # e.g. a one-year regime leaves the macro columns constant
            skipped[regime] = f"degenerate subset: {err}"
    return RegimeSpeeds(results=results, skipped=skipped)
