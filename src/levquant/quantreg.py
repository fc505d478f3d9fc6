"""Conditional-quantile linear models fit by check-loss minimization, firm effects included.

The production solver is a Frisch-Newton interior point method on the
bounded-variable dual LP (Mehrotra predictor-corrector), finished by a
vertex polish; when the interior point fails, the primal LP is solved
exactly by HiGHS (``scipy.optimize.linprog``).
``fit_quantile_oracle`` provides a provably exact small-instance reference
via brute-force basis enumeration; it is meant for tests and verification
and refuses large instances.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgesv as _gesv, dpotrf as _potrf, dpotrs as _potrs
import scipy.sparse
from scipy.special import ndtr

from .errors import (
    ConfigError,
    ConvergenceError,
    DataValidationError,
    DegenerateResampleError,
    DesignError,
    OracleCapError,
)

INTERCEPT = "intercept"
_GAP_TOL = 1e-9  # the interior point stops at duality gap < _GAP_TOL * (1 + |objective|)
_MAX_ITER = 500  # interior point iterations before the HiGHS fallback takes over
DEFAULT_BOOTSTRAP = 200  # bootstrap replications of a run and of bootstrap_se


def _validate_theta(theta):
    if not (0.0 < float(theta) < 1.0):
        raise ValueError(f"theta must lie strictly in (0, 1), got {theta}")
    return float(theta)


@dataclass(frozen=True)
class DesignMatrix:
    """Named regression design: response ``y`` and predictor columns ``X``.

    Invariants enforced at construction: n >= k, unique column names,
    finite values, and no zero-variance column other than one named
    ``"intercept"``.
    """

    names: tuple
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.X, dtype=float))
        y = np.ascontiguousarray(np.asarray(self.y, dtype=float).ravel())
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "names", tuple(self.names))
        if X.ndim != 2:
            raise DesignError("X must be a 2-d array")
        n, k = X.shape
        if len(self.names) != k:
            raise DesignError(f"{len(self.names)} names for {k} columns")
        if len(set(self.names)) != k:
            raise DesignError("column names must be unique")
        if y.shape[0] != n:
            raise DesignError("response length does not match design rows")
        if n < k:
            raise DesignError(f"need n >= k, got n={n}, k={k}")
        if not (np.isfinite(X).all() and np.isfinite(y).all()):
            raise DesignError("design contains non-finite values")
        flat = [
            name
            for j, name in enumerate(self.names)
            if name != INTERCEPT and np.ptp(X[:, j]) == 0.0
        ]
        if flat:
            raise DesignError(
                f"zero-variance column(s): {', '.join(flat)}", columns=flat
            )

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def k(self):
        return self.X.shape[1]


@dataclass
class QuantileFit:
    """Result of one quantile fit.

    ``coefficients`` holds the named slope vector (group effects, when a
    fixed-effects fit produced them, live in ``group_effects``).
    ``objective`` is the check loss of the fit's own residuals evaluated on
    the data rows.  ``std_errors``, when set, maps estimate names to
    standard errors; ``estimates`` and ``p_values`` carry, with it, every
    number a quantile table prints.
    """

    theta: float
    coefficients: dict
    objective: float
    pseudo_r2: float
    n_neg: int
    n_pos: int
    n_zero: int
    solver_meta: dict
    std_errors: dict | None = None
    group_effects: dict | None = None
    residuals: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        return self.n_neg + self.n_pos + self.n_zero

    @property
    def estimates(self):
        """The coefficients plus, for a fit with group effects, their
        unweighted mean as ``"fixed_effects_mean"``."""
        out = dict(self.coefficients)
        if self.group_effects:
            out["fixed_effects_mean"] = float(np.mean(list(self.group_effects.values())))
        return out

    @property
    def p_values(self):
        """Two-sided normal p-values of the estimates against zero, one per
        name in ``std_errors`` (None without them).  A zero standard error
        gives 0.0, or NaN (no test) when the estimate is exactly zero too."""
        if self.std_errors is None:
            return None
        est = self.estimates
        return {
            name: float(2.0 * ndtr(-(abs(est[name]) / se))) if se > 0
            else (math.nan if est[name] == 0 else 0.0)
            for name, se in self.std_errors.items()
        }

    @property
    def subgradient_ok(self):
        """Koenker-Bassett sign-count optimality: n_neg <= n*theta and
        n_pos <= n*(1-theta)."""
        n = self.n
        return (
            self.n_neg <= n * self.theta + 1e-9
            and self.n_pos <= n * (1.0 - self.theta) + 1e-9
        )


def check_loss(residuals, theta):
    """Asymmetric absolute loss: theta * r for r >= 0, (1-theta) * |r| for r < 0."""
    theta = _validate_theta(theta)
    return float(_weighted_pinball(np.asarray(residuals, dtype=float), theta, 1.0 - theta))


def _weighted_pinball(r, p, q):
    # per-row generalization, summed over the last axis: p_i * r+ + q_i * r-
    return np.sum(np.where(r >= 0.0, p * r, -q * r), axis=-1)


def _koenker_machado(objective, y, theta):
    """1 - objective / intercept-only objective, never above 1 since the
    objective is never negative; 0 for a constant response or rounding noise."""
    obj0 = _unconditional_objective(y, theta)
    if obj0 <= 0.0:
        return 0.0
    value = 1.0 - objective / obj0
    return 0.0 if -1e-9 < value < 0.0 else value


# ---------------------------------------------------------------------------
# design operators: dense and grouped (dense block + disjoint indicator block)
# ---------------------------------------------------------------------------


class _DenseOps:
    """A = X^T for a plain dense design, with its response y; each row's
    check loss weighs w = 1."""

    def __init__(self, X, y):
        self.X = X
        self.y = y
        self.w = np.ones(y.size)
        self.pen = None  # no penalty rows
        self.ncols = X.shape[1]
        self.start = None  # the interior point's start, see _start

    def matvec(self, nu):  # X @ nu, length n
        return self.X @ nu

    def rmatvec(self, v):  # X^T @ v, length k
        return self.X.T @ v

    def factor(self, d):  # solver for (X^T diag(d) X) out = rhs
        return _chol_factor((self.X * d[:, None]).T @ self.X)

    def sparse(self):
        return scipy.sparse.csr_matrix(self.X)

    def vertex(self, r):
        # the basic solution through the k smallest residuals
        idx = np.argsort(np.abs(r), kind="stable")[: self.ncols]
        return _solve_square(self.X[idx], self.y[idx])


class _GroupedOps:
    """Design [X | G], G a one-indicator-per-row group block, response y
    and the weight w of each row's check loss (default ones).  ``pen``
    appends one zero-response penalty row per group, row g of weight pen[g].

    Exploits the diagonal structure of the indicator block so Newton steps
    cost O(n * kx^2) instead of O(n * (kx + n_groups)^2), and a vertex
    costs one kx x kx solve instead of a (kx + n_groups)^2 one.  ``factor``
    writes each step's weights into a group matrix the operator owns, so
    one operator serves one fit at a time.
    """

    def __init__(self, X, y, codes, n_groups, w=None, pen=None):
        self.w = np.ones(y.size) if w is None else w
        self.pen = pen
        if pen is not None:
            X = np.vstack([X, np.zeros((n_groups, X.shape[1]))])
            y = np.concatenate([y, np.zeros(n_groups)])
            codes = np.concatenate([codes, np.arange(n_groups)])
        self.X = X
        self.y = y
        # X * d, X @ nu and X^T v run along the rows of the kx x n copy
        self.XT = np.ascontiguousarray(X.T)
        self.codes = codes
        self.n_groups = n_groups
        self.kx = X.shape[1]
        self.ncols = self.kx + n_groups
        self.start = None  # the interior point's start, see _start
        # the rows of each group in row order, one group after another, and
        # their codes; as the column indices of the G x n group indicator
        # they make a product with it sum each group's rows as bincount does
        n = codes.size
        self.group_order = np.argsort(codes, kind="stable")
        self.group_codes = codes[self.group_order]
        indptr = np.zeros(n_groups + 1, dtype=np.intp)
        np.cumsum(np.bincount(codes, minlength=n_groups), out=indptr[1:])
        self.indicator = scipy.sparse.csr_matrix(
            (np.ones(n), self.group_order, indptr), shape=(n_groups, n)
        )
        # the indicator with row weights d in place of its ones: its product
        # with the C-order X gives the group sums of X * d without forming
        # that n x kx array
        self._weighted = self.indicator.copy()

    def matvec(self, nu):
        return nu[: self.kx] @ self.XT + nu[self.kx :][self.codes]

    def rmatvec(self, v):
        return np.concatenate([self.XT @ v, self.indicator @ v])

    def factor(self, d):
        # block elimination of the diagonal group block: only the kx x kx
        # Schur complement is Cholesky-factored
        XT, kx = self.XT, self.kx
        Mxx = (XT * d) @ XT.T
        Mgg = self.indicator @ d
        np.take(d, self.group_order, out=self._weighted.data)
        Mxg = np.ascontiguousarray((self._weighted @ self.X).T)
        ratio = Mxg / Mgg[None, :]
        solve_x = _chol_factor(Mxx - ratio @ Mxg.T)

        def solve(rhs):
            fx, fg = rhs[:kx], rhs[kx:]
            out_x = solve_x(fx - ratio @ fg)
            out_g = (fg - out_x @ Mxg) / Mgg
            return np.concatenate([out_x, out_g])

        return solve

    def sparse(self):
        return scipy.sparse.hstack([self.X, self.indicator.T], format="csr")

    def polish_rows(self, r):
        # a basic solution needs one interpolated row per group plus kx
        # more: each group's smallest |r|, then the kx smallest of the other
        # rows in order of |r|; ties go to the first row in row order
        absr = np.abs(r)
        by_group = absr[self.group_order]
        low = np.minimum.reduceat(by_group, self.indicator.indptr[:-1])
        hits = np.flatnonzero(by_group == low[self.group_codes])
        first = np.ones(hits.size, dtype=bool)
        first[1:] = self.group_codes[hits[1:]] != self.group_codes[hits[:-1]]
        per_group = self.group_order[hits[first]]
        absr[per_group] = np.inf
        cut = np.partition(absr, self.kx - 1)[self.kx - 1]
        near = np.flatnonzero(absr <= cut)
        rest = near[np.argsort(absr[near], kind="stable")[: self.kx]]
        return per_group, rest

    def vertex(self, r):
        # each group's pinned row fixes its effect, a_g = y_p - x_p'b; an
        # extra row j minus the pinned row of its group leaves
        # (x_j - x_p)'b = y_j - y_p, a kx x kx system
        pinned, rest = self.polish_rows(r)
        base = pinned[self.codes[rest]]
        b = _solve_square(self.X[rest] - self.X[base], self.y[rest] - self.y[base])
        if b is None:
            return None
        cand = np.concatenate([b, self.y[pinned] - self.X[pinned] @ b])
        return cand if np.isfinite(cand).all() else None


def _chol_factor(M):
    """Cholesky-factor M, adding diagonal jitter on failure; returns a
    solver for M out = rhs.  LAPACK is called directly, with the arguments
    ``cho_factor`` and ``cho_solve`` pass it, so the solves are the same."""
    c, info = _potrf(M, lower=0, clean=0)
    if info:
        scale = float(np.trace(M)) / max(M.shape[0], 1) or 1.0
        jitter = 1e-12 * scale
        for _ in range(3):
            c, info = _potrf(M + jitter * np.eye(M.shape[0]), lower=0, clean=0)
            if not info:
                break
            jitter *= 100.0
        else:
            raise scipy.linalg.LinAlgError("normal-equation matrix is singular")
    return lambda rhs: _potrs(c, rhs, lower=0)[0]


def _solve_square(A, b):
    """Solution of the square system A x = b, or None when A is singular
    or the solution is not finite.  LAPACK ``gesv`` is called directly:
    the LU factorization and solve of ``scipy.linalg.solve`` on a general
    matrix, without its condition estimate; an ill-conditioned candidate
    is rejected on objective, not warned about."""
    _, _, x, info = _gesv(A, b)
    if info > 0 or not np.isfinite(x).all():
        return None
    return x


def _check_rank_dense(X, names, norms=None):
    """Raise DesignError naming the columns beyond X's numerical rank.

    ``norms`` are the column norms before X was demeaned: demeaning leaves
    rounding of about eps times them, which a tolerance taken from the
    demeaned columns cannot see, so each column is measured by its norm.

    A tall X is first reduced to its k x k triangle R by numpy's QR and the
    rank read from the pivoted QR of R (X = QR, RP = Q2 R2: XP = Q Q2 R2),
    so scipy's OpenBLAS thread pool, which stalls against numpy's on the
    same cores, gets no n-row work.  A deficient X is factored whole, to
    name the columns of its own pivots.
    """
    if norms is not None:
        X = X / np.where(norms > 0.0, norms, 1.0)
    n, k = X.shape
    for M in (np.linalg.qr(X, mode="r"), X) if n > k else (X,):
        _, R, piv = scipy.linalg.qr(M, mode="economic", pivoting=True)
        diag = np.abs(np.diag(R))
        top = 1.0 if norms is not None else diag.max(initial=0.0)
        rank = int(np.sum(diag > top * max(n, k) * np.finfo(float).eps))
        if rank == k:
            return
    bad = [names[j] for j in piv[rank:]]
    raise DesignError(
        f"design is rank deficient; collinear column(s): {', '.join(bad)}",
        columns=bad,
    )


# ---------------------------------------------------------------------------
# Frisch-Newton interior point
# ---------------------------------------------------------------------------


def _start(ops):
    """The interior point's first iterate: nu, A nu and the dual slacks z,
    w.  It depends on neither theta nor the row weights, so it is computed
    once per operator and kept on ``ops`` for the fits at every theta."""
    if ops.start is None:
        c = -ops.y
        nu = ops.factor(np.ones(c.size))(ops.rmatvec(c))
        Anu = ops.matvec(nu)
        rho = c - Anu
        delta = 0.1 * float(np.mean(np.abs(rho))) + 1e-10
        z = np.maximum(rho, 0.0) + delta
        w = z - rho  # keeps the dual residual exactly zero at the start
        ops.start = (nu, Anu, z, w)
    return ops.start


def _interior_point(ops, p, q):
    """Mehrotra predictor-corrector on the dual box LP.

    Solves min sum_i p_i*(r_i)+ + q_i*(r_i)- over coefficients, via its dual
    max y'a  s.t.  A'a = A'q, 0 <= a <= p + q  (A = design).  Returns the
    multiplier ``nu`` on the equality constraints; the primal coefficient
    vector is ``-nu``.  The primal slack is s = p + q - a, so its direction
    is -da and is never formed.
    """
    c = -ops.y
    n = c.size
    b = ops.rmatvec(q)
    a = q.astype(float).copy()
    s = p.astype(float).copy()
    nu, Anu, z, w = (v.copy() for v in _start(ops))
    # work arrays of this call alone, so fits on one operator share none
    za, ws, d, rhs2, da, dz, dw, g_z, g_w, tmp = np.empty((10, n))

    gap = float(a @ z + s @ w)
    for it in range(_MAX_ITER):
        obj = float(c @ a)
        if gap < _GAP_TOL * (1.0 + abs(obj)):
            return nu, it, gap, True
        np.divide(z, a, out=za)
        np.divide(w, s, out=ws)
        np.add(za, ws, out=d)
        np.divide(1.0, d, out=d)
        solve = ops.factor(d)  # shared by the predictor and the corrector

        # affine (predictor) direction; with the dual residual
        # r_d = c - A nu - z + w, its right-hand side r_d + z - w is c - A nu,
        # and the primal residual b - A'a joins A'(d * rhs2) in one product
        np.subtract(c, Anu, out=rhs2)
        np.multiply(d, rhs2, out=tmp)
        tmp -= a
        dnu = solve(b + ops.rmatvec(tmp))
        np.subtract(ops.matvec(dnu), rhs2, out=da)
        da *= d
        np.multiply(za, da, out=dz)
        dz += z
        np.negative(dz, out=dz)  # -z - za * da
        np.multiply(ws, da, out=dw)
        dw -= w
        ap = _primal_steplen(a, s, da)
        ad = _steplen(z, dz, w, dw)
        mu = gap / (2.0 * n)
        # (a + ap da)'(z + ad dz) + (s - ap da)'(w + ad dw), expanded
        mu_aff = (
            gap
            + ad * (a @ dz + s @ dw)
            + ap * (da @ z - da @ w)
            + ap * ad * (da @ dz - da @ dw)
        ) / (2.0 * n)
        sigma = min(max((mu_aff / mu) ** 3, 1e-10), 0.99999)

        # corrector
        tgt = sigma * mu
        np.multiply(da, dz, out=g_z)
        np.subtract(tgt, g_z, out=g_z)
        g_z /= a
        g_z -= z  # (tgt - da dz) / a - z
        np.multiply(da, dw, out=g_w)
        g_w += tgt
        g_w /= s
        g_w -= w  # (tgt + da dw) / s - w
        rhs2 -= z
        rhs2 += w
        rhs2 -= g_z
        rhs2 += g_w  # r_d - g_z + g_w
        np.multiply(d, rhs2, out=tmp)
        tmp -= a
        dnu = solve(b + ops.rmatvec(tmp))
        Adnu = ops.matvec(dnu)
        np.subtract(Adnu, rhs2, out=da)
        da *= d
        np.multiply(za, da, out=dz)
        np.subtract(g_z, dz, out=dz)
        np.multiply(ws, da, out=dw)
        dw += g_w
        ap = _primal_steplen(a, s, da)
        ad = _steplen(z, dz, w, dw)

        np.multiply(da, ap, out=tmp)
        a += tmp
        s -= tmp
        nu += ad * dnu
        Adnu *= ad
        Anu += Adnu  # A nu for the next step's right-hand side
        dz *= ad
        z += dz
        dw *= ad
        w += dw
        gap = float(a @ z + s @ w)
    return nu, _MAX_ITER, gap, False


def _steplen(v, dv, u, du):
    # the largest step in (0, 1] keeping v + step * dv and u + step * du
    # positive, 0.9995 of the way to the boundary.  v and u are strictly
    # positive, so no ratio divides by zero; a direction that is not below
    # zero gives a ratio that is not above zero
    return _capped_step(-float(min((dv / v).min(), (du / u).min())))


def _primal_steplen(a, s, da):
    # _steplen(a, da, s, -da) without forming -da: negation is exact, so
    # the smallest -da / s is minus the largest da / s, bit for bit
    return _capped_step(-float(min((da / a).min(), -(da / s).max())))


def _capped_step(most):
    return 1.0 if most <= 0.9995 else 0.9995 / most


def _polish_vertex(ops, beta, p, q):
    """Snap an interior solution to the best nearby basic (vertex) solution.

    Quantile-regression optima occur at coefficient vectors interpolating k
    observations; refitting through the rows with the smallest residuals
    (``ops.vertex``) sharpens the interior iterate to an exact vertex.
    Kept only when it does not worsen the objective.
    """
    r = ops.y - ops.matvec(beta)
    loss = _weighted_pinball(r, p, q)
    cand = ops.vertex(r)
    if cand is None:
        return beta, r, loss, False
    r_cand = ops.y - ops.matvec(cand)
    loss_cand = _weighted_pinball(r_cand, p, q)
    if loss_cand <= loss + 1e-9 * (1.0 + loss):
        return cand, r_cand, loss_cand, True
    return beta, r, loss, False


def _highs(ops, p, q):
    """Exact solve of the pinball LP by HiGHS: min p'u + q'v subject to
    A b + u - v = y, u, v >= 0.  Raises ConvergenceError unless HiGHS
    reports an optimal solution."""
    import scipy.optimize  # a slow import that only this fallback needs

    n, k = ops.y.size, ops.ncols
    eye = scipy.sparse.identity(n, format="csr")
    res = scipy.optimize.linprog(
        np.concatenate([np.zeros(k), p, q]),
        A_eq=scipy.sparse.hstack([ops.sparse(), eye, -eye], format="csr"),
        b_eq=ops.y,
        bounds=[(None, None)] * k + [(0.0, None)] * (2 * n),
        method="highs",
    )
    if res.status != 0:
        raise ConvergenceError(
            f"HiGHS fallback failed: {res.message}",
            diagnostics={"highs_status": res.status},
        )
    return res.x[:k]


def _unconditional_objective(y, theta):
    # intercept-only minimizer is any sample theta-quantile; the objective
    # value is identical across the minimizing set
    qv = float(np.quantile(y, theta, method="inverted_cdf"))
    return check_loss(y - qv, theta)


def _solve_pinball(ops, theta, names):
    """The fit at ``theta`` of the LP that ``ops`` holds, its coefficients
    named by ``names``, and the solution entries beyond them (group
    effects).  Data row i weighs theta * w_i above the fit and (1 - theta)
    * w_i below it, penalty row g ``pen[g]`` on both sides; the fit's
    statistics count the data rows alone.  When the interior point fails,
    HiGHS solves the LP exactly."""
    p, q = ops.w * theta, ops.w * (1.0 - theta)
    if ops.pen is not None:
        p, q = np.concatenate([p, ops.pen]), np.concatenate([q, ops.pen])
    try:
        nu, iterations, gap, converged = _interior_point(ops, p, q)
    except scipy.linalg.LinAlgError:
        nu, iterations, gap, converged = None, 0, math.inf, False
    if converged:
        algorithm, beta = "frisch-newton", -nu
    else:
        # iterations and gap stay those of the failed interior point
        try:
            algorithm, beta = "highs", _highs(ops, p, q)
        except ConvergenceError as err:
            err.diagnostics.update(iterations=iterations, duality_gap=gap)
            raise
    beta, r, _, polished = _polish_vertex(ops, beta, p, q)
    r, y = r[: ops.w.size], ops.y[: ops.w.size]
    objective = check_loss(r, theta)
    ztol = 1e-8 * max(1.0, float(np.max(np.abs(y))) if y.size else 1.0)
    fit = QuantileFit(
        theta=theta,
        coefficients=dict(zip(names, (float(v) for v in beta))),
        objective=objective,
        pseudo_r2=_koenker_machado(objective, y, theta),
        n_neg=int(np.sum(r < -ztol)),
        n_pos=int(np.sum(r > ztol)),
        n_zero=int(np.sum(np.abs(r) <= ztol)),
        solver_meta={
            "algorithm": algorithm,
            "iterations": iterations,
            "converged": True,
            "duality_gap": gap,
            "polished": polished,
        },
        residuals=r,
    )
    return fit, beta[len(names):]


def fit_quantile(design, theta):
    """Fit a linear conditional-quantile model by check-loss minimization.

    Parameters
    ----------
    design : DesignMatrix
    theta : float in (0, 1)

    Returns
    -------
    QuantileFit with coefficients named after the design columns.
    """
    theta = _validate_theta(theta)
    _check_rank_dense(design.X, design.names)
    fit, _ = _solve_pinball(_DenseOps(design.X, design.y), theta, design.names)
    return fit


# ---------------------------------------------------------------------------
# quantile regression with group (firm) fixed effects
# ---------------------------------------------------------------------------


def _group_codes(groups, n):
    """The sorted distinct labels of ``(n,)`` group labels and each row's
    code.  Only float and object labels can be missing (NaN or ``None``),
    so str labels and int codes skip that check."""
    groups = np.asarray(groups)
    kind = groups.dtype.kind
    if groups.shape != (n,) or (kind == "f" and np.isnan(groups).any()) or (
        kind == "O" and any(g is None or g != g for g in groups)
    ):
        raise DataValidationError("every row needs a group label")
    try:
        return np.unique(groups, return_inverse=True)
    except TypeError:  # labels that do not sort against each other
        raise DataValidationError("the group labels are not of one type") from None


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


def _check_penalty(penalty):
    if not 0.0 <= penalty < np.inf:  # NaN fails both comparisons
        raise ConfigError(f"penalty must satisfy 0 <= penalty < inf, got {penalty}")


def fit_quantile_fixed_effects(design, groups, theta, *, penalty=0.0, _problem=None):
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

    ``_problem`` is ``_fe_problem(design, groups, penalty, weights)``, built
    once by a caller that fits several theta on one design (the bootstrap
    refits, ``adjustment.fit_quantiles``) and passed to each of those fits.
    """
    theta = _validate_theta(theta)
    _check_penalty(penalty)
    labels, ops = _problem or _fe_problem(design, groups, penalty)
    fit, effects = _solve_pinball(ops, theta, design.names)
    fit.group_effects = dict(zip(labels, effects.tolist()))
    fit.solver_meta["penalty"] = penalty
    return fit


def _fe_problem(design, groups, penalty, weights=None):
    """The part of a quantile fixed-effects fit that does not depend on
    theta: the group labels (as the ``str`` keys of ``group_effects``), the
    within-rank check, and the grouped design operator with its response
    and row ``weights`` (default ones), which scale each row's check loss.
    The rows of a group share one weight m, so a group entered once with
    weight m has the optimum of m copies of it, each with its own effect;
    when ``penalty > 0`` the group's penalty row weighs ``penalty * m``.
    The fit's objective, pseudo-R^2 and sign counts stay unweighted."""
    labels, codes, _ = _check_within(design, groups)
    pen = None
    if penalty != 0.0:
        pen = np.empty(labels.size)
        pen[codes] = 1.0 if weights is None else weights
        pen *= penalty
    ops = _GroupedOps(design.X, design.y, codes, labels.size, weights, pen)
    return [str(label) for label in labels], ops


# ---------------------------------------------------------------------------
# exact small-instance oracle
# ---------------------------------------------------------------------------


_ORACLE_CAP = 200  # the most rows the exact oracle enumerates bases for


def fit_quantile_oracle(design, theta, *, max_bases=5_000_000):
    """Exact reference solution by brute-force basis enumeration.

    Visits every k-subset of rows as a candidate interpolating basis; an
    optimal quantile-regression vertex interpolates k observations, so the
    minimum over candidates is the global optimum.  Deliberately refuses
    instances above ``_ORACLE_CAP`` rows.
    """
    theta = _validate_theta(theta)
    n, k = design.n, design.k
    if n > _ORACLE_CAP:
        raise OracleCapError(f"oracle caps at {_ORACLE_CAP} rows, got {n}")
    n_bases = math.comb(n, k)
    if n_bases > max_bases:
        raise OracleCapError(
            f"{n_bases} candidate bases exceed the enumeration budget"
        )
    X, y = design.X, design.y
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n), k)),
        dtype=np.intp,
    ).reshape(-1, k)
    best_obj = math.inf
    best_beta = None
    chunk = 20_000
    for start in range(0, combos.shape[0], chunk):
        sel = combos[start : start + chunk]
        Xs = X[sel]  # (m, k, k)
        ys = y[sel]  # (m, k)
        dets = np.linalg.det(Xs)
        ok = np.abs(dets) > 0.0
        if not ok.any():
            continue
        betas = np.linalg.solve(Xs[ok], ys[ok][..., None])[..., 0]
        finite = np.isfinite(betas).all(axis=1)
        betas = betas[finite]
        if betas.size == 0:
            continue
        losses = _weighted_pinball(y[None, :] - betas @ X.T, theta, 1.0 - theta)
        j = int(np.argmin(losses))
        if losses[j] < best_obj:
            best_obj = float(losses[j])
            best_beta = betas[j].copy()
    if best_beta is None:
        raise DesignError("every k-subset of rows is singular; design is degenerate")
    return dict(zip(design.names, (float(v) for v in best_beta))), best_obj


# ---------------------------------------------------------------------------
# pairs bootstrap
# ---------------------------------------------------------------------------


@dataclass
class BootstrapResult:
    """The replicates and standard errors of one bootstrap problem.

    ``replicates`` is (n_boot, thetas, estimates) and ``std_errors`` maps
    each theta to its name -> standard error dict.  ``n_redrawn`` counts
    the redrawn resamples summed over theta; ``redrawn_by_theta`` and
    ``polished_by_theta`` hold, for each theta, its redrawn resamples and
    the replicates whose refit was polished to a vertex.
    """

    std_errors: dict
    replicates: np.ndarray = field(repr=False)
    n_boot: int
    n_redrawn: int
    redrawn_by_theta: dict
    polished_by_theta: dict


_REFIT_ERRORS = (DesignError, ConvergenceError, scipy.linalg.LinAlgError)


def bootstrap_se(
    design, thetas, n_boot=DEFAULT_BOOTSTRAP, seed=0, cluster=None, *, penalty=0.0,
    refit_group_effects=False, _pending=None,
):
    """Firm-cluster bootstrap standard errors of the quantile fixed-effects
    fits at each theta of the tuple ``thetas``.

    ``cluster`` holds one firm label per row; all rows of a drawn firm
    enter together.  A replicate draws as many firms as there are, with
    replacement, and refits ``fit_quantile_fixed_effects`` once on the rows
    of the distinct firms drawn, with ``penalty`` the L1 weight on the
    effects and the firms as its groups, each row's check loss (and its
    firm's penalty row) weighted by the firm's multiplicity m: the same
    optimum as refitting m copies of the firm, each with its own effect.
    The estimates are the design's columns and the multiplicity-weighted
    mean effect (``"fixed_effects_mean"``).  Labels, a penalty or a design
    that the point fit rejects raise that fit's error before the first
    draw.  Replicate seeds derive from ``seed``, so the same seed gives
    bit-identical results in every run.

    The thetas share the draws: each draw's sub-problem is built once and
    refit at every theta, so replicate b of every theta comes from the
    same resample and the replicates are joint across theta.  A resample
    whose refit fails at a theta (a rank-deficient draw, an interior point
    and fallback that both fail, a singular linear system) is redrawn for
    that theta alone, from the continuation of replicate b's random
    stream, and counted; the other thetas keep the draw.  So each theta's
    replicates are bit-identical to a call with that theta alone.  More
    than 50% failed resamples at one theta, or 50 failures in a row, is an
    error.

    A large enough call refits contiguous chunks of its draws in forked
    worker processes, each held to one BLAS thread (``_workers``); the
    result and any error are those of the in-process loop.
    ``bootstrap_many`` runs several problems on one such pool and collects
    each problem's chunks in one call of this function, with ``_pending``
    (private to it) the problem's checked work and chunk results.

    ``refit_group_effects=True``, which perfbench's tracer test passes,
    also takes a scalar theta; every refit has group effects either way.
    """
    if _pending is not None:
        return _result(*_pending)
    if refit_group_effects:
        thetas = tuple(np.ravel(thetas))
    with _pooled_draws([(design, cluster, seed)], thetas, n_boot, penalty) as (pending,):
        return _result(*pending)


def bootstrap_many(problems, thetas, n_boot=DEFAULT_BOOTSTRAP, *, penalty=0.0):
    """The ``bootstrap_se`` of each ``(design, cluster, seed)`` of
    ``problems`` at the same ``thetas``, ``n_boot`` and ``penalty``: a list
    of ``BootstrapResult`` in problem order, each bit-identical to a
    ``bootstrap_se`` call on its problem alone.

    Every problem is checked before the first draw.  The draws of all
    problems share one pool of forked workers, sized by their refit rows
    together (``_workers``): each problem's draws are cut into contiguous
    chunks, and the chunks are dealt out in problem order, so a worker
    that has finished its part of one problem refits the next problem's
    draws while the others still run.  The first error in problem order,
    then draw order, is raised; a failed replicate is named by its index
    within its problem.
    """
    problems = list(problems)
    with _pooled_draws(problems, thetas, n_boot, penalty) as pending:
        # one bootstrap_se call per problem, which waits for that problem's
        # chunks alone, so perfbench's span tracer times every problem
        return [
            bootstrap_se(design, thetas, n_boot, seed, cluster, penalty=penalty, _pending=p)
            for (design, cluster, seed), p in zip(problems, pending)
        ]


@contextlib.contextmanager
def _pooled_draws(problems, thetas, n_boot, penalty):
    """Checks ``thetas``, ``n_boot`` and every ``(design, cluster, seed)``
    of ``problems`` before the first draw, then yields one (work, parts)
    per problem: its ``_draws`` arguments and an iterator over the results
    of its contiguous chunks, in draw order.  The chunks of all problems
    run in problem order on one forked pool, or lazily in this process
    where there are fewer than two workers or the pool cannot start.  The
    pool is joined on exit; on an error, it is terminated once every
    chunk has finished."""
    import multiprocessing

    if np.ndim(thetas) != 1:
        raise ValueError(f"thetas must be a tuple of quantiles, got {thetas!r}")
    thetas = tuple(_validate_theta(t) for t in thetas)
    if not thetas or len(set(thetas)) < len(thetas):
        raise ValueError(f"need one or more distinct thetas, got {thetas}")
    if n_boot < 2:
        raise ValueError("need at least 2 bootstrap replications")
    _check_penalty(penalty)
    jobs = []
    for design, cluster, seed in problems:
        labels, codes, _ = _check_within(design, cluster)
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        jobs.append(((design, codes, labels.size, penalty, thetas), seed.spawn(n_boot)))

    refit_rows = n_boot * len(thetas) * sum(work[0].n for work, _ in jobs)
    workers, setters = _workers(n_boot * len(jobs), refit_rows)
    bounds = np.linspace(0, n_boot, min(workers, n_boot) + 1).astype(int).tolist()
    chunks = [
        [(*work, lo, children[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
        for work, children in jobs
    ]
    pool = None
    if workers >= 2:
        try:
            pool = multiprocessing.get_context("fork").Pool(workers, _one_blas_thread, (setters,))
        except OSError:
            pass
    if pool is None:
        yield [(work, itertools.starmap(_draws, c)) for (work, _), c in zip(jobs, chunks)]
        return
    # submitted in problem order, one chunk per task
    sent = [[pool.apply_async(_draws, chunk) for chunk in c] for c in chunks]
    try:
        yield [(work, (r.get() for r in s)) for (work, _), s in zip(jobs, sent)]
    except BaseException as err:
        if isinstance(err, Exception):
            # terminate kills a worker still in a task, which can leave a
            # pool lock held, and terminate then waits on it for ever
            for r in itertools.chain.from_iterable(sent):
                r.wait()
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()


def _result(work, parts):
    """The ``BootstrapResult`` of one problem from the ``_draws`` of its
    chunks; the first chunk to fail raises its error."""
    design, *_, thetas = work
    rows, *counts = zip(*parts)
    rows = np.concatenate(rows)
    attempts, degenerate, polished = (sum(c) for c in counts)
    for t, bad, tried in zip(thetas, degenerate, attempts):
        if bad > tried / 2.0:
            raise DegenerateResampleError(
                f"{bad} of {tried} resamples were degenerate at theta {t}"
            )
    names = [*design.names, "fixed_effects_mean"]
    ses = np.std(rows, axis=0, ddof=1)
    return BootstrapResult(
        std_errors={
            t: dict(zip(names, (float(v) for v in ses[i]))) for i, t in enumerate(thetas)
        },
        replicates=rows,
        n_boot=len(rows),
        n_redrawn=int(degenerate.sum()),
        redrawn_by_theta=dict(zip(thetas, degenerate.tolist())),
        polished_by_theta=dict(zip(thetas, polished.tolist())),
    )


def _draws(design, codes, n_units, penalty, thetas, first, children):
    """Replicates ``first`` to ``first + len(children) - 1`` of one
    bootstrap problem, one per seed of ``children``: (rows, attempts,
    degenerate, polished), the replicates and the per-theta counts.  The
    first replicate that gives up raises ``DegenerateResampleError``."""
    rows = np.empty((len(children), len(thetas), len(design.names) + 1))
    attempts = np.zeros(len(thetas), dtype=int)
    degenerate = np.zeros(len(thetas), dtype=int)
    polished = np.zeros(len(thetas), dtype=int)
    for b, child in enumerate(children):
        rng = np.random.default_rng(child)
        # the thetas still without replicate b have failed the same draws,
        # so they continue the stream from one point and share the next draw
        pending = list(range(len(thetas)))
        for _try in range(50):
            attempts[pending] += 1
            picks = rng.integers(0, n_units, size=n_units)
            mult = np.bincount(picks, minlength=n_units)
            try:
                refit = _refit(design, codes, mult, penalty)
            except _REFIT_ERRORS:
                failed = pending
            else:
                failed = []
                for i in pending:
                    try:
                        rows[b, i], was_polished = refit(thetas[i])
                        polished[i] += was_polished
                    except _REFIT_ERRORS:
                        failed.append(i)
            degenerate[failed] += 1
            pending = failed
            if not pending:
                break
        else:
            raise DegenerateResampleError(
                f"replicate {first + b}: 50 consecutive degenerate resamples"
                f" at theta {thetas[pending[0]]}"
            )
    return rows, attempts, degenerate, polished


# Starting and joining a forked pool of 2 took 30-65 ms (2-core VM, Python
# 3.11) and a refit 1.5-1.8 us per row, so a worker pays for its start from
# about 17,000-43,000 rows of refits; each one gets at least this many.
_ROWS_PER_WORKER = 50_000
_SET_THREADS = tuple(
    f"{prefix}_set_num_threads{suffix}"
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")
)


def _workers(n_draws, refit_rows):
    """The worker processes for ``refit_rows`` rows of refits over
    ``n_draws`` draws, and the ``_blas_setters`` to call in each; (1, ())
    where the draws run in this process."""
    # Python 3.12 warns at os.fork in a process with threads, as OpenBLAS's
    if sys.version_info >= (3, 12) or not sys.platform.startswith("linux"):
        return 1, ()
    workers = min(len(os.sched_getaffinity(0)), refit_rows // _ROWS_PER_WORKER, n_draws)
    setters = _blas_setters() if workers >= 2 else ()
    return (workers, setters) if setters else (1, ())


def _blas_setters():
    """(path, thread-count setter) of each OpenBLAS mapped into this process
    (a numpy and a scipy wheel bring one each); () if there is none, or one
    without a setter."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.split(None, 5)[-1].strip() for line in fh}
    except OSError:
        return ()
    libs = sorted(path for path in mapped if "openblas" in os.path.basename(path))
    names = [next((n for n in _SET_THREADS if hasattr(ctypes.CDLL(p), n)), None) for p in libs]
    return () if None in names else tuple(zip(libs, names))


def _one_blas_thread(setters):
    """Pool initializer: one BLAS thread per worker, so that the workers'
    OpenBLAS thread pools do not oversubscribe the cores."""
    import ctypes

    for path, name in setters:
        getattr(ctypes.CDLL(path), name)(1)


def _refit(design, codes, mult, penalty):
    """The fixed-effects refit of one draw, with ``penalty`` the effects'
    L1 weight, as a function of theta, which returns the estimates in
    design column order, then ``fixed_effects_mean``, and whether the refit
    was polished to a vertex.  The refit keeps the rows of the firms with
    ``mult > 0``, each row weighted by its firm's multiplicity; what does
    not depend on theta is built here once, and raises as a refit would.
    Its ``fixed_effects_mean`` is the mean effect over the drawn copies
    (each distinct firm weighted by its multiplicity), not over distinct
    firms."""
    idx = np.flatnonzero(mult[codes])
    weights = mult[codes[idx]].astype(float)
    sub = DesignMatrix(names=design.names, X=design.X[idx], y=design.y[idx])
    groups = codes[idx]
    problem = _fe_problem(sub, groups, penalty, weights)
    # group effects come in ascending firm order, as mult[mult > 0] does
    unit_weights = mult[mult > 0]

    def refit(theta):
        # a global looked up at call time, so a wrapper bound to it sees the refit
        fit = fit_quantile_fixed_effects(
            sub, groups, theta, penalty=penalty, _problem=problem
        )
        effect = np.fromiter(fit.group_effects.values(), dtype=float)
        vals = [*fit.coefficients.values(), float(np.average(effect, weights=unit_weights))]
        return vals, fit.solver_meta["polished"]

    return refit
