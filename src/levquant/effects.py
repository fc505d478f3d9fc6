"""Fixed- and random-effects estimators, the Hausman test, and
fixed-effects handling inside quantile fits."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.stats import chi2

from .errors import ConfigError, DataValidationError, DesignError
from .quantreg import (
    INTERCEPT,
    DesignMatrix,
    _check_rank_dense,
    _GroupedOps,
    _solve_pinball,
    _validate_theta,
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


def _group_codes(groups, n):
    groups = np.asarray(groups)
    if groups.shape[0] != n:
        raise DataValidationError("every row needs a group label")
    labels, codes = np.unique(groups, return_inverse=True)
    return labels, codes


def within_transform(matrix, groups):
    """Subtract group means from each column; total function.

    Post: every column has zero mean within every group (singleton groups
    become all-zero rows).
    """
    M = np.asarray(matrix, dtype=float)
    labels, codes = _group_codes(groups, M.shape[0])
    return M - _group_means(M, codes, labels.size)[codes]


def _group_means(M, codes, n_groups):
    counts = np.bincount(codes, minlength=n_groups).astype(float)
    if M.ndim == 1:
        return np.bincount(codes, weights=M, minlength=n_groups) / counts
    out = np.empty((n_groups, M.shape[1]))
    for j in range(M.shape[1]):
        out[:, j] = np.bincount(codes, weights=M[:, j], minlength=n_groups) / counts
    return out


def _check_within(design, groups, *, need_repeats=False):
    """The checks every fixed-effects fit makes of its design: no intercept
    column (the group effects absorb it), a group label on every row, and
    variation within groups in every column, measured on the group-demeaned
    X by the column norms before demeaning.  Returns the group labels, the
    row codes and the demeaned X.  ``need_repeats`` first rejects groups
    that are all singletons, which leave a within fit no data."""
    if INTERCEPT in design.names:
        raise DesignError(
            "fixed-effects design must not include an intercept column; "
            "it is absorbed by the group effects",
            columns=[INTERCEPT],
        )
    labels, codes = _group_codes(groups, design.n)
    if need_repeats and codes.size == labels.size:
        raise DataValidationError("no within variation: all groups are singletons")
    Xw = design.X - _group_means(design.X, codes, labels.size)[codes]
    try:
        _check_rank_dense(Xw, design.names, np.linalg.norm(design.X, axis=0))
    except DesignError as err:
        raise DesignError(
            "no within-group variation (time-invariant or collinear after "
            f"demeaning): {', '.join(err.columns)}",
            columns=err.columns,
        ) from None
    return labels, codes, Xw


def fit_fixed_effects(design, groups):
    """Within (fixed-effects) estimator.

    Slopes come from least squares on group-demeaned data; the residual
    variance uses the n - k - G degrees-of-freedom correction.  The design
    must not contain an intercept column (it is absorbed by the effects).
    """
    labels, codes, Xw = _check_within(design, groups, need_repeats=True)
    G = labels.size
    yw = design.y - _group_means(design.y, codes, G)[codes]
    n, k = design.n, design.k
    dof = n - k - G
    if dof <= 0:
        raise DataValidationError(
            f"too few observations for {k} slopes and {G} group effects"
        )
    b, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    resid = yw - Xw @ b
    sigma_e2 = float(resid @ resid) / dof
    vcov = sigma_e2 * np.linalg.inv(Xw.T @ Xw)
    gm = _group_means(design.y - design.X @ b, codes, G)
    level = float(np.mean(gm))
    effects = gm - level
    return EffectsFit(
        kind=EffectsKind.FixedWithin,
        names=design.names,
        coefficients=dict(zip(design.names, (float(v) for v in b))),
        vcov=vcov,
        nobs=n,
        df_resid=dof,
        group_effects={str(l): float(e) for l, e in zip(labels, effects)},
        intercept=level,
        sigma_e=sigma_e2,
    )


def fit_pooled_ols(design):
    """Ordinary least squares ignoring the panel structure."""
    _check_rank_dense(design.X, design.names)
    n, k = design.n, design.k
    b, *_ = np.linalg.lstsq(design.X, design.y, rcond=None)
    resid = design.y - design.X @ b
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    return EffectsFit(
        kind=EffectsKind.PooledOLS,
        names=design.names,
        coefficients=dict(zip(design.names, (float(v) for v in b))),
        vcov=sigma2 * np.linalg.inv(design.X.T @ design.X),
        nobs=n,
        df_resid=dof,
        sigma_e=sigma2,
    )


def fit_random_effects(design, groups):
    """Feasible GLS by quasi-demeaning with Swamy-Arora variance components.

    lambda_g = 1 - sqrt(sigma_e^2 / (T_g sigma_u^2 + sigma_e^2)).  A negative
    sigma_u^2 estimate is clamped to zero (flagged), making the fit collapse
    to pooled OLS exactly.  The design must include an intercept column.
    """
    if INTERCEPT not in design.names:
        raise ConfigError("random-effects design must include an intercept column")
    labels, codes = _group_codes(groups, design.n)
    G = labels.size
    n, k = design.n, design.k
    sizes = np.bincount(codes).astype(float)

    slope_idx = [j for j, m in enumerate(design.names) if m != INTERCEPT]
    slope_names = tuple(design.names[j] for j in slope_idx)
    fe = fit_fixed_effects(
        DesignMatrix(names=slope_names, X=design.X[:, slope_idx], y=design.y),
        groups,
    )
    sigma_e2 = fe.sigma_e

    if G <= k:
        raise DataValidationError(
            f"variance components not estimable: {G} groups for {k} coefficients"
        )
    Xb = _group_means(design.X, codes, G)
    yb = _group_means(design.y, codes, G)
    bb, *_ = np.linalg.lstsq(Xb, yb, rcond=None)
    rb = yb - Xb @ bb
    sigma1 = float(rb @ rb) / (G - k)
    sigma_u2 = sigma1 - sigma_e2 * float(np.mean(1.0 / sizes))
    clamped = sigma_u2 < 0.0
    if clamped:
        sigma_u2 = 0.0

    lam = 1.0 - np.sqrt(sigma_e2 / (sizes * sigma_u2 + sigma_e2))
    Xt = design.X - lam[codes, None] * _group_means(design.X, codes, G)[codes]
    yt = design.y - lam[codes] * _group_means(design.y, codes, G)[codes]
    b, *_ = np.linalg.lstsq(Xt, yt, rcond=None)
    resid = yt - Xt @ b
    dof = n - k
    s2 = float(resid @ resid) / dof
    return EffectsFit(
        kind=EffectsKind.RandomGLS,
        names=design.names,
        coefficients=dict(zip(design.names, (float(v) for v in b))),
        vcov=s2 * np.linalg.inv(Xt.T @ Xt),
        nobs=n,
        df_resid=dof,
        sigma_u=sigma_u2,
        sigma_e=sigma_e2,
        sigma_u_clamped=clamped,
    )


def hausman_decision(statistic, df, significance=DEFAULT_SIGNIFICANCE):
    """Chi-squared tail probability and model choice for a Hausman statistic."""
    p = float(chi2.sf(statistic, df))
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


def fit_quantile_fixed_effects(
    design, groups, theta, *, penalty=0.0, _weights=None, _problem=None
):
    """Quantile regression with firm fixed effects.

    ``penalty`` is the L1 weight lambda on the effects (Koenker 2004,
    "Quantile regression for longitudinal data").  At 0 each group gets one
    free effect: one indicator column per group, fit jointly with the slopes
    (the indicator block is handled with specialized linear algebra, so
    large group counts stay cheap).  Above 0 the effects are shrunk by
    ``penalty * sum |a_i|``: one zero-response penalty row per group enters
    the same LP with symmetric weights.  A negative or non-finite penalty
    raises ``ConfigError``.

    An intercept column is rejected: the group effects absorb it.

    ``_weights`` and ``_problem`` are private to ``bootstrap_se``.
    ``_weights`` scales row i's check loss by ``_weights[i]``.  The rows of
    a group share one weight, which also scales the group's penalty row, so
    a group entered once with weight m has the optimum of m copies of it,
    each with its own effect.  The fit's objective, pseudo-R^2 and sign
    counts stay unweighted.  ``_problem`` is ``_fe_problem(design, groups,
    penalty)``, built once and passed to the refits of every theta.
    """
    theta = _validate_theta(theta)
    if not 0.0 <= penalty < np.inf:  # NaN fails both comparisons
        raise ConfigError(f"penalty must satisfy 0 <= penalty < inf, got {penalty}")
    labels, codes, ops, y = _problem or _fe_problem(design, groups, penalty)
    weights = np.ones(design.n) if _weights is None else _weights
    p = weights * theta
    q = weights * (1.0 - theta)
    if penalty > 0.0:
        group_weights = np.empty(len(labels))
        group_weights[codes] = weights
        p = np.concatenate([p, penalty * group_weights])
        q = np.concatenate([q, penalty * group_weights])

    fit, effects = _solve_pinball(ops, y, theta, p, q, design.names, data_rows=design.n)
    fit.group_effects = dict(zip(labels, effects.tolist()))
    fit.solver_meta["penalty"] = penalty
    return fit


def _fe_problem(design, groups, penalty):
    """The part of a quantile fixed-effects fit that does not depend on
    theta or row weights: the group labels (as the ``str`` keys of
    ``group_effects``) and codes, the within-rank check, and the grouped
    design operator with its response, extended by one zero-response
    penalty row per group when ``penalty > 0``."""
    labels, codes, _ = _check_within(design, groups)
    G = labels.size
    labels = [str(label) for label in labels]
    if penalty == 0.0:
        return labels, codes, _GroupedOps(design.X, codes, G), design.y
    X_ext = np.vstack([design.X, np.zeros((G, design.k))])
    codes_ext = np.concatenate([codes, np.arange(G)])
    y_ext = np.concatenate([design.y, np.zeros(G)])
    return labels, codes, _GroupedOps(X_ext, codes_ext, G), y_ext
