"""Linear fixed- and random-effects estimators and the Hausman test.
``fit_quantile_fixed_effects`` is ``quantreg``'s, re-exported here."""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.special import chdtrc

from .errors import DataValidationError, DesignError
from .quantreg import (  # fit_quantile_fixed_effects is re-exported
    INTERCEPT, _check_rank_dense, _check_within, _group_codes, _group_means,
    fit_quantile_fixed_effects,
)

DEFAULT_SIGNIFICANCE = 0.05  # the Hausman test level of a run and of hausman_test


class EffectsKind(enum.Enum):
    FixedWithin = "fixed_within"
    RandomGLS = "random_gls"
    PooledOLS = "pooled_ols"


class ModelChoice(enum.Enum):
    FixedEffects = "fixed_effects"
    RandomEffects = "random_effects"


@dataclass
class EffectsFit:
    """A linear panel fit with its covariance matrix.

    ``group_effects`` (within estimator only) are normalized to average
    exactly zero across groups; ``intercept`` carries the common level, so
    a group's estimated level is ``intercept + group_effects[g]``.
    ``sigma_u`` / ``sigma_e`` hold the *variance* components (sigma^2).
    """

    kind: EffectsKind
    names: tuple
    coefficients: dict
    vcov: np.ndarray = field(repr=False)
    nobs: int
    df_resid: int
    group_effects: dict | None = None
    intercept: float | None = None
    sigma_u: float | None = None
    sigma_e: float | None = None
    sigma_u_clamped: bool = False

    def coef_vector(self, names):
        return np.asarray([self.coefficients[m] for m in names])

    def vcov_for(self, names):
        idx = [self.names.index(m) for m in names]
        return self.vcov[np.ix_(idx, idx)]


@dataclass
class HausmanResult:
    statistic: float
    df: int
    p_value: float
    decision: ModelChoice
    rank_deficient: bool = False


def within_transform(matrix, groups):
    """Subtract group means from each column; total function.

    Post: every column has zero mean within every group (singleton groups
    become all-zero rows).
    """
    M = np.asarray(matrix, dtype=float)
    labels, codes = _group_codes(groups, M.shape[0])
    return M - _group_means(M, codes, labels.size)[codes]


def _least_squares(kind, names, X, y, dof, **fields):
    """The least-squares fit of y on X as an ``EffectsFit``: s^2 = e'e / dof,
    vcov = s^2 (X'X)^-1, and ``sigma_e`` = s^2 unless ``fields``, the fit's
    other components, sets it."""
    b, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ b
    s2 = float(resid @ resid) / dof
    fields.setdefault("sigma_e", s2)
    return EffectsFit(
        kind=kind, names=names, coefficients=dict(zip(names, (float(v) for v in b))),
        vcov=s2 * np.linalg.inv(X.T @ X), nobs=X.shape[0], df_resid=dof, **fields,
    )


def fit_fixed_effects(design, groups):
    """Within (fixed-effects) estimator.

    Slopes come from least squares on group-demeaned data; the residual
    variance uses the n - k - G degrees-of-freedom correction.  The design
    must not contain an intercept column (it is absorbed by the effects).
    """
    labels, codes, Xw = _check_within(design, groups, need_repeats=True)
    G = labels.size
    dof = design.n - design.k - G
    if dof <= 0:
        raise DataValidationError(
            f"too few observations for {design.k} slopes and {G} group effects"
        )
    yw = design.y - _group_means(design.y, codes, G)[codes]
    fit = _least_squares(EffectsKind.FixedWithin, design.names, Xw, yw, dof)
    gm = _group_means(design.y - design.X @ fit.coef_vector(design.names), codes, G)
    fit.intercept = float(np.mean(gm))
    fit.group_effects = {str(l): float(e) for l, e in zip(labels, gm - fit.intercept)}
    return fit


def fit_pooled_ols(design):
    """Ordinary least squares ignoring the panel structure."""
    _check_rank_dense(design.X, design.names)
    return _least_squares(
        EffectsKind.PooledOLS, design.names, design.X, design.y, design.n - design.k
    )


def fit_random_effects(design, groups, within):
    """Feasible GLS by quasi-demeaning with Swamy-Arora variance components.

    ``within`` is ``fit_fixed_effects(design, groups)``, whose sigma_e^2 the
    fit reuses (any other fit raises ``DesignError``); the fit adds its own
    intercept column to ``design``.  lambda_g = 1 - sqrt(sigma_e^2 / (T_g
    sigma_u^2 + sigma_e^2)).  A negative sigma_u^2 estimate is clamped to
    zero (flagged), making the fit collapse to pooled OLS exactly.
    """
    if (within.kind, within.names, within.nobs) != (EffectsKind.FixedWithin, design.names, design.n):
        raise DesignError("random-effects fit needs the within fit of its own design")
    labels, codes = _group_codes(groups, design.n)
    G = labels.size
    X = np.column_stack([np.ones(design.n), design.X])
    n, k = X.shape
    sizes = np.bincount(codes).astype(float)
    sigma_e2 = within.sigma_e
    if G <= k:
        raise DataValidationError(
            f"variance components not estimable: {G} groups for {k} coefficients"
        )
    Xb = _group_means(X, codes, G)
    yb = _group_means(design.y, codes, G)
    bb, *_ = np.linalg.lstsq(Xb, yb, rcond=None)
    rb = yb - Xb @ bb
    sigma1 = float(rb @ rb) / (G - k)
    sigma_u2 = sigma1 - sigma_e2 * float(np.mean(1.0 / sizes))
    clamped = sigma_u2 < 0.0
    if clamped:
        sigma_u2 = 0.0

    lam = 1.0 - np.sqrt(sigma_e2 / (sizes * sigma_u2 + sigma_e2))
    return _least_squares(
        EffectsKind.RandomGLS, (INTERCEPT,) + design.names,
        X - lam[codes, None] * Xb[codes], design.y - lam[codes] * yb[codes], n - k,
        sigma_u=sigma_u2, sigma_e=sigma_e2, sigma_u_clamped=clamped,
    )


def hausman_decision(statistic, df, significance=DEFAULT_SIGNIFICANCE):
    """Chi-squared tail probability and model choice for a Hausman statistic."""
    # chi2.sf's edges, which chdtrc lacks: 1.0 at a statistic <= 0, NaN unless df > 0
    p = float(chdtrc(df, max(statistic, 0.0))) if df > 0 else math.nan
    choice = ModelChoice.FixedEffects if p < significance else ModelChoice.RandomEffects
    return p, choice


def hausman_test(fe, re, significance=DEFAULT_SIGNIFICANCE):
    """Hausman specification test comparing FE and RE slope estimates.

    H = d' [V_FE - V_RE]^+ d over the slope coefficients both fits share
    (intercept excluded).  A variance difference that is not positive
    definite is projected onto its positive-semidefinite part and inverted
    by pseudo-inverse, with df reduced to the retained rank and
    ``rank_deficient`` set; the test never crashes on that pathology.
    """
    common = [m for m in fe.names if m in re.names and m != INTERCEPT]
    if not common:
        raise DataValidationError("fits share no slope coefficients to compare")
    d = fe.coef_vector(common) - re.coef_vector(common)
    k = len(common)
    if not d.any():
        p, choice = hausman_decision(0.0, k, significance)
        return HausmanResult(0.0, k, p, choice, False)
    dv = fe.vcov_for(common) - re.vcov_for(common)
    dv = 0.5 * (dv + dv.T)
    eigval, eigvec = scipy.linalg.eigh(dv)
    tol = 1e-10 * max(np.max(np.abs(eigval)), 1e-300)
    pos = eigval > tol
    rank = int(np.sum(pos))
    deficient = rank < k
    if rank == 0:
        # variance difference has no positive part: no usable contrast
        return HausmanResult(0.0, 0, 1.0, ModelChoice.RandomEffects, True)
    proj = eigvec[:, pos].T @ d
    stat = float(np.sum(proj**2 / eigval[pos]))
    df = rank if deficient else k
    p, choice = hausman_decision(stat, df, significance)
    return HausmanResult(stat, df, p, choice, deficient)
