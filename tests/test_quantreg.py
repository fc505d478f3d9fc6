import itertools
import json
import multiprocessing.pool
import os
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose
from scipy.optimize import linprog
from scipy.stats import norm

from levquant import (
    ConfigError,
    ConvergenceError,
    DataValidationError,
    DegenerateResampleError,
    DesignError,
    DesignMatrix,
    OracleCapError,
    bootstrap_many,
    bootstrap_se,
    check_loss,
    fit_quantile,
    fit_quantile_oracle,
)
from levquant.effects import (
    fit_fixed_effects, fit_quantile_fixed_effects, fit_random_effects, within_transform,
)
from levquant import quantreg
from levquant.quantreg import (
    _check_rank_dense,
    _chol_factor,
    _DenseOps,
    _fe_problem,
    _GroupedOps,
    _interior_point,
    _polish_vertex,
    _primal_steplen,
    _solve_square,
    _steplen,
)


# the fixed-effects estimator each test id names: its L1 weight on the effects
PENALTY = {"dummy": 0.0, "penalized": 1.0}


def intercept_design(y):
    y = np.asarray(y, dtype=float)
    return DesignMatrix(names=("intercept",), X=np.ones((y.size, 1)), y=y)


def random_design(rng, n=None, k=None):
    n = n or int(rng.integers(8, 51))
    k = k or int(rng.integers(1, 4))
    cols = [np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)]
    names = ("intercept",) + tuple(f"x{j}" for j in range(1, k))
    y = rng.normal(size=n) * (1.0 + rng.random()) + rng.normal() * cols[-1]
    return DesignMatrix(names=names, X=np.column_stack(cols), y=y)


class TestCheckLoss:
    def test_symmetric_median(self):
        assert check_loss([1.0, -1.0], 0.5) == 1.0

    def test_asymmetric_weights(self):
        assert check_loss([2.0], 0.75) == 1.5
        assert check_loss([-2.0], 0.75) == pytest.approx(0.5)

    def test_zero_residuals(self):
        for theta in (0.1, 0.5, 0.9):
            assert check_loss(np.zeros(5), theta) == 0.0

    def test_nonnegative_zero_iff_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            r = rng.normal(size=10)
            assert check_loss(r, 0.3) > 0.0

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 1.7])
    def test_theta_domain(self, theta):
        with pytest.raises(ValueError):
            check_loss([1.0], theta)


class TestDesignMatrix:
    def test_needs_enough_rows(self):
        with pytest.raises(DesignError):
            DesignMatrix(names=("a", "b"), X=np.ones((1, 2)), y=np.ones(1))

    def test_unique_names(self):
        with pytest.raises(DesignError):
            DesignMatrix(names=("a", "a"), X=np.random.rand(5, 2), y=np.ones(5))

    def test_zero_variance_column_rejected(self):
        X = np.column_stack([np.ones(5), np.full(5, 3.0)])
        with pytest.raises(DesignError) as err:
            DesignMatrix(names=("intercept", "flat"), X=X, y=np.arange(5.0))
        assert "flat" in err.value.columns

    def test_non_finite_rejected(self):
        y = np.array([1.0, np.nan, 3.0])
        with pytest.raises(DesignError):
            DesignMatrix(names=("intercept",), X=np.ones((3, 1)), y=y)

    @pytest.mark.parametrize("names,X,y,message", [
        (("a",), np.arange(5.0), np.ones(5), "2-d"),
        (("a", "b"), np.ones((5, 3)), np.ones(5), "2 names for 3 columns"),
        (("a",), np.ones((5, 1)), np.ones(4), "response length"),
    ], ids=["1-d X", "name count", "response length"])
    def test_malformed_shape_rejected(self, names, X, y, message):
        with pytest.raises(DesignError, match=message):
            DesignMatrix(names=names, X=X, y=y)


class TestFitQuantile:
    def test_intercept_only_median(self):
        fit = fit_quantile(intercept_design([1.0, 2.0, 9.0]), 0.5)
        assert fit.coefficients["intercept"] == pytest.approx(2.0, abs=1e-9)
        assert fit.objective == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("theta", [0.15, 0.5, 0.9])
    def test_interpolating_solution(self, theta):
        x = np.linspace(0.0, 5.0, 11)
        d = DesignMatrix(
            names=("intercept", "x"),
            X=np.column_stack([np.ones(11), x]),
            y=1.0 + 2.0 * x,
        )
        fit = fit_quantile(d, theta)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-8)
        assert fit.coefficients["intercept"] == pytest.approx(1.0, abs=1e-8)
        assert fit.objective == pytest.approx(0.0, abs=1e-10)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            d = random_design(rng)
            theta = float(rng.uniform(0.1, 0.9))
            fit = fit_quantile(d, theta)
            _, obj = fit_quantile_oracle(d, theta)
            assert abs(fit.objective - obj) <= 1e-8

    def test_subgradient_condition(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = random_design(rng)
            theta = float(rng.uniform(0.05, 0.95))
            fit = fit_quantile(d, theta)
            n = fit.n
            assert fit.n_neg + fit.n_pos + fit.n_zero == n
            assert fit.n_neg <= n * theta + 1e-9
            assert fit.n_pos <= n * (1.0 - theta) + 1e-9

    def test_objective_is_check_loss_of_residuals(self):
        rng = np.random.default_rng(3)
        d = random_design(rng, n=30, k=2)
        fit = fit_quantile(d, 0.35)
        assert fit.objective == pytest.approx(
            check_loss(fit.residuals, 0.35), abs=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        d = random_design(rng, n=30, k=3)
        f1 = fit_quantile(d, 0.7)
        f2 = fit_quantile(d, 0.7)
        assert f1.coefficients == f2.coefficients
        assert f1.objective == f2.objective

    def test_rank_deficient_names_columns(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=20)
        X = np.column_stack([np.ones(20), x, 2.0 * x])
        d = DesignMatrix(names=("intercept", "x", "x_twice"), X=X, y=rng.normal(size=20))
        with pytest.raises(DesignError) as err:
            fit_quantile(d, 0.5)
        assert err.value.columns

    def test_nonconvergence_carries_diagnostics(self, monkeypatch):
        def stalled(*args, **kwargs):
            return scipy.optimize.OptimizeResult(status=1, message="Iteration limit reached.")

        rng = np.random.default_rng(7)
        d = random_design(rng, n=40, k=3)
        monkeypatch.setattr(quantreg, "_MAX_ITER", 1)
        monkeypatch.setattr(scipy.optimize, "linprog", stalled)
        with pytest.raises(ConvergenceError) as err:
            fit_quantile(d, 0.5)
        assert err.value.diagnostics["iterations"] == 1
        assert err.value.diagnostics["duality_gap"] > 0
        assert err.value.diagnostics["highs_status"] == 1

    def test_quantile_monotone_intercept_only(self):
        rng = np.random.default_rng(8)
        d = intercept_design(rng.normal(size=41))
        fitted = [
            fit_quantile(d, th).coefficients["intercept"]
            for th in np.linspace(0.1, 0.9, 9)
        ]
        assert all(b <= a + 1e-10 for a, b in zip(fitted[1:], fitted))


def pivoted_qr_of_x(X, names, norms=None):
    """The columns that a column-pivoted QR of the whole X puts beyond its
    numerical rank, in pivot order; None at full rank."""
    if norms is not None:
        X = X / np.where(norms > 0.0, norms, 1.0)
    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    top = 1.0 if norms is not None else diag.max(initial=0.0)
    rank = int(np.sum(diag > top * max(X.shape) * np.finfo(float).eps))
    return [names[j] for j in piv[rank:]] if rank < X.shape[1] else None


def collinear_case(rng, case, n, k):
    X = rng.normal(size=(n, k))
    i, j, m = rng.choice(k, 3, replace=False)
    if case == "duplicate":
        X[:, j] = X[:, i]
    elif case == "combination":
        X[:, j] = 2.0 * X[:, i] - 0.5 * X[:, m]
    elif case == "near":
        X[:, j] = X[:, i] + 1e-9 * rng.normal(size=n)
    elif case == "zero":
        X[:, j] = 0.0
    elif case == "scales":
        X[:, j] *= 1e8
        X[:, i] *= 1e-6
    elif case == "scaled_duplicate":
        X[:, j] = 1e8 * X[:, i]
    return X


class TestRankCheck:
    CASES = ("duplicate", "combination", "near", "zero", "scales", "scaled_duplicate", "full")

    @pytest.mark.parametrize("case", CASES)
    def test_raises_and_names_as_a_pivoted_qr_of_x(self, case):
        # the rank is read from the pivoted QR of X's triangle; a deficient
        # X names exactly the columns, in order, of its own pivoted QR
        rng = np.random.default_rng(60 + self.CASES.index(case))
        raised = 0
        for _ in range(6):
            k = int(rng.integers(3, 10))
            names = tuple(f"c{c}" for c in range(k))
            for n in (k, k + 1, 200, 3000):
                X = collinear_case(rng, case, n, k)
                for norms in (None, np.linalg.norm(X, axis=0) * rng.uniform(0.5, 2.0, k)):
                    want = pivoted_qr_of_x(X, names, norms)
                    if want is None:
                        _check_rank_dense(X, names, norms)
                        continue
                    raised += 1
                    with pytest.raises(DesignError) as err:
                        _check_rank_dense(X, names, norms)
                    assert list(err.value.columns) == want
        if case in ("duplicate", "combination", "zero", "scaled_duplicate"):
            assert raised == 48
        if case == "full":
            assert raised == 0

    def test_scipy_qr_sees_no_more_than_k_rows(self, monkeypatch):
        # scipy's OpenBLAS pool gets no n-row factorization from a full-rank
        # fit, fixed-effects fit or fixed-effects bootstrap
        rows = []
        qr = scipy.linalg.qr

        def recording_qr(a, *args, **kwargs):
            rows.append(np.shape(a)[0])
            return qr(a, *args, **kwargs)

        rng = np.random.default_rng(46)
        firms = np.repeat(np.arange(200), 10)
        X = rng.normal(size=(firms.size, 9))
        y = X @ rng.normal(size=9) + rng.normal(size=200)[firms] + rng.normal(size=firms.size)
        d = DesignMatrix(names=tuple(f"x{j}" for j in range(9)), X=X, y=y)
        monkeypatch.setattr(scipy.linalg, "qr", recording_qr)
        fit_quantile(d, 0.5)
        fit_quantile_fixed_effects(d, firms, 0.5)
        bootstrap_se(d, (0.25, 0.75), n_boot=2, seed=3, cluster=firms, penalty=0.0)
        assert len(rows) >= 4
        assert max(rows) <= 9


class TestEquivariance:
    def test_regression_shift(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = random_design(rng, n=35, k=3)
            gamma = rng.normal(size=3)
            base = fit_quantile(d, 0.4)
            shifted = fit_quantile(
                DesignMatrix(names=d.names, X=d.X, y=d.y + d.X @ gamma), 0.4
            )
            want = np.asarray([base.coefficients[m] for m in d.names]) + gamma
            got = np.asarray([shifted.coefficients[m] for m in d.names])
            assert_allclose(got, want, rtol=1e-9, atol=1e-9)
            assert shifted.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-12)

    def test_response_scale(self):
        rng = np.random.default_rng(22)
        d = random_design(rng, n=30, k=2)
        c = 3.7
        base = fit_quantile(d, 0.6)
        scaled = fit_quantile(DesignMatrix(names=d.names, X=d.X, y=c * d.y), 0.6)
        for m in d.names:
            assert scaled.coefficients[m] == pytest.approx(
                c * base.coefficients[m], rel=1e-9, abs=1e-12
            )
        assert scaled.objective == pytest.approx(c * base.objective, rel=1e-9)

    def test_column_scale(self):
        rng = np.random.default_rng(23)
        d = random_design(rng, n=30, k=3)
        c = 0.25
        X2 = d.X.copy()
        X2[:, 2] *= c
        base = fit_quantile(d, 0.3)
        scaled = fit_quantile(DesignMatrix(names=d.names, X=X2, y=d.y), 0.3)
        assert scaled.coefficients[d.names[2]] == pytest.approx(
            base.coefficients[d.names[2]] / c, rel=1e-9
        )
        assert scaled.objective == pytest.approx(base.objective, rel=1e-9, abs=1e-12)


class TestOracle:
    def test_intercept_only_objective(self):
        _, obj = fit_quantile_oracle(intercept_design([1.0, 2.0, 9.0]), 0.5)
        assert obj == pytest.approx(4.0, abs=1e-12)

    def test_exactly_determined_interpolates(self):
        d = DesignMatrix(
            names=("intercept", "x"),
            X=np.array([[1.0, 0.0], [1.0, 1.0]]),
            y=np.array([1.0, 3.0]),
        )
        coef, obj = fit_quantile_oracle(d, 0.27)
        assert obj == pytest.approx(0.0, abs=1e-12)
        assert coef["intercept"] == pytest.approx(1.0)
        assert coef["x"] == pytest.approx(2.0)

    def test_refuses_large_instances(self):
        rng = np.random.default_rng(1)
        d = intercept_design(rng.normal(size=250))
        with pytest.raises(OracleCapError):
            fit_quantile_oracle(d, 0.5)

    def test_basis_budget_refused(self):
        rng = np.random.default_rng(2)
        d = random_design(rng, n=30, k=3)  # C(30, 3) = 4060 candidate bases
        with pytest.raises(OracleCapError, match="4060 candidate bases exceed"):
            fit_quantile_oracle(d, 0.5, max_bases=4059)

    def test_collinear_columns_have_no_basis(self):
        # powers of two keep every 2x2 determinant exactly zero in floating point
        x = np.array([1.0, 2.0, 4.0, 8.0])
        d = DesignMatrix(names=("x", "twice_x"), X=np.column_stack([x, 2.0 * x]),
                         y=np.array([1.0, 0.0, 2.0, 1.0]))
        with pytest.raises(DesignError, match="every k-subset of rows is singular"):
            fit_quantile_oracle(d, 0.5)

    def test_against_linear_program(self):
        # independent route: the split-residual LP solved by an external
        # solver must agree with basis enumeration
        rng = np.random.default_rng(31)
        for _ in range(8):
            d = random_design(rng, n=20, k=2)
            theta = float(rng.uniform(0.15, 0.85))
            _, obj = fit_quantile_oracle(d, theta)
            n, k = d.n, d.k
            c = np.concatenate([np.zeros(k), np.full(n, theta), np.full(n, 1 - theta)])
            A_eq = np.hstack([d.X, np.eye(n), -np.eye(n)])
            res = linprog(
                c, A_eq=A_eq, b_eq=d.y,
                bounds=[(None, None)] * k + [(0, None)] * (2 * n),
                method="highs",
            )
            assert res.status == 0
            assert abs(res.fun - obj) <= 1e-8


class TestPseudoR2:
    def test_perfect_fit_is_one(self):
        x = np.linspace(0, 1, 12)
        d = DesignMatrix(
            names=("intercept", "x"),
            X=np.column_stack([np.ones(12), x]),
            y=2.0 + x,
        )
        fit = fit_quantile(d, 0.5)
        assert fit.pseudo_r2 == pytest.approx(1.0, abs=1e-9)

    def test_intercept_only_is_zero(self):
        rng = np.random.default_rng(2)
        d = intercept_design(rng.normal(size=25))
        fit = fit_quantile(d, 0.5)
        assert fit.pseudo_r2 == pytest.approx(0.0, abs=1e-9)

    def test_matches_loss_ratio_by_hand(self):
        rng = np.random.default_rng(13)
        n = 60
        x = rng.normal(size=n)
        y = 1.0 + 0.5 * x + rng.normal(size=n) * (0.5 + 0.5 * np.abs(x))
        d = DesignMatrix(
            names=("intercept", "x"), X=np.column_stack([np.ones(n), x]), y=y
        )
        theta = 0.7
        fit = fit_quantile(d, theta)
        obj0 = check_loss(y - np.quantile(y, theta, method="inverted_cdf"), theta)
        assert fit.pseudo_r2 == pytest.approx(1.0 - fit.objective / obj0, abs=1e-12)
        assert 0.0 <= fit.pseudo_r2 <= 1.0

    def test_constant_response_convention(self):
        d = intercept_design(np.full(10, 4.0))
        fit = fit_quantile(d, 0.5)
        assert fit.pseudo_r2 == 0.0


class TestBootstrap:
    def test_constant_panel_zero_se(self):
        firms = np.repeat(np.arange(6), 2)
        d = DesignMatrix(names=("x",), X=np.arange(12.0)[:, None], y=np.full(12, 2.5))
        out = bootstrap_se(d, (0.5,), n_boot=2, seed=1, cluster=firms)
        assert out.std_errors[0.5] == {"x": 0.0, "fixed_effects_mean": 0.0}

    def test_fixed_seed_reproducible(self):
        d, firms = grouped_panel(9, n_firms=8, years=3)
        a = bootstrap_se(d, (0.5,), n_boot=25, seed=42, cluster=firms)
        b = bootstrap_se(d, (0.5,), n_boot=25, seed=42, cluster=firms)
        assert a.std_errors == b.std_errors
        assert np.array_equal(a.replicates, b.replicates)

    def test_cluster_labels_must_cover(self):
        d = DesignMatrix(names=("x",), X=np.arange(10.0)[:, None], y=np.arange(10.0))
        with pytest.raises(ValueError):
            bootstrap_se(d, (0.5,), n_boot=5, seed=0, cluster=np.arange(4))

    def test_group_effects_need_cluster_labels(self):
        # the refit's groups are the clusters
        d = DesignMatrix(names=("x",), X=np.arange(10.0)[:, None], y=np.arange(10.0))
        for penalty in (0.0, 0.5):
            with pytest.raises(DataValidationError, match="every row needs a group label"):
                bootstrap_se(d, (0.5,), n_boot=5, seed=0, penalty=penalty)

    def test_scalar_theta_rejected(self):
        d = intercept_design(np.arange(10.0))
        for theta in (0.5, np.float64(0.5), np.array(0.5)):
            with pytest.raises(ValueError, match="tuple of quantiles"):
                bootstrap_se(d, theta, n_boot=5, seed=0)

    def test_needs_two_replications(self):
        d = intercept_design(np.arange(10.0))
        with pytest.raises(ValueError):
            bootstrap_se(d, (0.5,), n_boot=1, seed=0)

    def test_mostly_degenerate_resamples_error(self):
        # two predictors that vary within their own single cluster: most
        # cluster resamples lose the within variation of one of them
        rng = np.random.default_rng(17)
        n_clusters, per = 8, 4
        n = n_clusters * per
        cl = np.repeat(np.arange(n_clusters), per)
        x1 = np.where(cl == 0, rng.normal(size=n), 0.0)
        x2 = np.where(cl == 1, rng.normal(size=n), 0.0)
        X = np.column_stack([x1, x2])
        d = DesignMatrix(names=("x1", "x2"), X=X, y=rng.normal(size=n))
        with pytest.raises(DegenerateResampleError,
                           match="^[0-9]+ of [0-9]+ resamples were degenerate at theta 0.5$"):
            bootstrap_se(d, (0.5,), n_boot=30, seed=3, cluster=cl)

    def test_every_resample_degenerate_stops_after_fifty(self, monkeypatch):
        design, firms = grouped_panel(10, n_firms=5, years=2)

        def degenerate(*args, **kwargs):
            raise DesignError("forced")

        monkeypatch.setattr(quantreg, "fit_quantile_fixed_effects", degenerate)
        with pytest.raises(DegenerateResampleError,
                           match="^replicate 0: 50 consecutive degenerate resamples at theta 0.5$"):
            bootstrap_se(design, (0.5,), n_boot=5, seed=0, cluster=firms)

    def test_cluster_bootstrap_runs(self):
        design, firms = grouped_panel(19, n_firms=12, years=5)
        out = bootstrap_se(design, (0.5,), n_boot=30, seed=2, cluster=firms)
        assert out.std_errors[0.5]["x1"] > 0.0
        assert set(out.std_errors[0.5]) == {"x1", "x2", "fixed_effects_mean"}


GOOD_FIRMS = np.repeat(np.arange(6), 3)
BAD_LABELS = {
    "none": None,
    "scalar": 3,
    "two_d": GOOD_FIRMS[:, None],
    "wrong_length": GOOD_FIRMS[:-1],
}
LABELLED_FITS = {
    "fit_quantile_fixed_effects": lambda d, g: fit_quantile_fixed_effects(d, g, 0.5),
    "fit_fixed_effects": fit_fixed_effects,
    "fit_random_effects": lambda d, g: fit_random_effects(
        d, g, fit_fixed_effects(d, GOOD_FIRMS)
    ),
    "bootstrap_se": lambda d, g: bootstrap_se(d, (0.5,), 4, seed=0, cluster=g),
    "bootstrap_many": lambda d, g: bootstrap_many([(d, g, 0)], (0.5,), 4),
}


@pytest.mark.parametrize("labels", BAD_LABELS)
@pytest.mark.parametrize("fit", LABELLED_FITS)
def test_group_labels_are_one_per_row(fit, labels, monkeypatch):
    design, _ = grouped_panel(12, n_firms=6, years=3)
    LABELLED_FITS[fit](design, GOOD_FIRMS)  # the same call with good labels fits

    def no_draw(*args):
        raise AssertionError("a draw was refit")

    monkeypatch.setattr(quantreg, "_refit", no_draw)
    with pytest.raises(DataValidationError, match="^every row needs a group label$"):
        LABELLED_FITS[fit](design, BAD_LABELS[labels])


def _row_4_set_to(labels, value):
    out = labels.copy()
    out[4] = value
    return out


UNUSABLE_LABELS = {
    "float_nan": (_row_4_set_to(GOOD_FIRMS.astype(float), np.nan),
                  "^every row needs a group label$"),
    "object_none": (_row_4_set_to(GOOD_FIRMS.astype(object), None),
                    "^every row needs a group label$"),
    "object_nan": (_row_4_set_to(GOOD_FIRMS.astype(str).astype(object), np.nan),
                   "^every row needs a group label$"),
    "ints_and_strings": (_row_4_set_to(GOOD_FIRMS.astype(object), "a"),
                         "^the group labels are not of one type$"),
}
GROUPED_FITS = {**LABELLED_FITS, "within_transform": lambda d, g: within_transform(d.X, g)}


@pytest.mark.parametrize("labels", UNUSABLE_LABELS)
@pytest.mark.parametrize("fit", GROUPED_FITS)
def test_missing_or_mixed_group_labels_are_rejected(fit, labels, monkeypatch):
    # numpy sorts every NaN into one group and cannot sort None against a label
    design, _ = grouped_panel(12, n_firms=6, years=3)
    GROUPED_FITS[fit](design, GOOD_FIRMS)

    def no_draw(*args):
        raise AssertionError("a draw was refit")

    monkeypatch.setattr(quantreg, "_refit", no_draw)
    bad, message = UNUSABLE_LABELS[labels]
    with pytest.raises(DataValidationError, match=message):
        GROUPED_FITS[fit](design, bad)


def grouped_panel(seed, n_firms=30, years=6):
    rng = np.random.default_rng(seed)
    firms = np.repeat(np.arange(n_firms), years)
    X = rng.normal(size=(firms.size, 2))
    y = X @ np.array([0.8, -0.4]) + rng.normal(size=n_firms)[firms] + rng.normal(size=firms.size)
    return DesignMatrix(names=("x1", "x2"), X=X, y=y), firms


def duplicated_draw(codes, picks):
    """The rows of a cluster draw with every drawn copy of a unit repeated,
    and each row's copy index."""
    members = [np.flatnonzero(codes == g) for g in range(codes.max() + 1)]
    idx = np.concatenate([members[g] for g in picks])
    copy = np.repeat(np.arange(picks.size), [members[g].size for g in picks])
    return idx, copy


class TestWeightedRefit:
    """A replicate refits once on the distinct units drawn, weighted by
    multiplicity; that LP has the optimum of the duplicated-row refit."""

    @pytest.mark.parametrize("mode", ["dummy", "penalized"])
    @pytest.mark.parametrize("theta", [0.2, 0.5, 0.9])
    def test_objective_matches_duplicated_rows(self, mode, theta):
        design, codes = grouped_panel(51)
        n_units = codes.max() + 1
        for draw in range(4):
            picks = np.random.default_rng(draw).integers(0, n_units, n_units)
            idx, copy = duplicated_draw(codes, picks)
            dup = DesignMatrix(names=design.names, X=design.X[idx], y=design.y[idx])
            mult = np.bincount(picks, minlength=n_units)
            keep = np.flatnonzero(mult[codes])
            w = mult[codes[keep]].astype(float)
            sub = DesignMatrix(names=design.names, X=design.X[keep], y=design.y[keep])
            ref = fit_quantile_fixed_effects(dup, copy, theta, penalty=PENALTY[mode])
            problem = _fe_problem(sub, codes[keep], PENALTY[mode], w)
            fit = fit_quantile_fixed_effects(
                sub, codes[keep], theta, penalty=PENALTY[mode], _problem=problem
            )
            ref_obj = ref.objective
            obj = quantreg._weighted_pinball(fit.residuals, w * theta, w * (1.0 - theta))
            if mode == "penalized":
                ref_obj += sum(abs(a) for a in ref.group_effects.values())
                effects = np.fromiter(fit.group_effects.values(), dtype=float)
                obj += float(np.abs(effects) @ mult[mult > 0])
            assert obj <= ref_obj * (1.0 + 1e-12)
            assert obj >= ref_obj * (1.0 - 1e-8)

    @pytest.mark.parametrize("mode", ["dummy", "penalized"])
    def test_cluster_bootstrap_polishes_every_replicate(self, mode):
        design, firms = grouped_panel(52)
        out = bootstrap_se(design, (0.5,), n_boot=8, seed=3, cluster=firms, penalty=PENALTY[mode])
        assert out.n_redrawn == 0
        assert out.n_boot == 8
        assert out.polished_by_theta == {0.5: 8}

    def test_p_values_test_the_point_estimate(self):
        design, firms = grouped_panel(53)
        std_errors = bootstrap_se(
            design, (0.5,), n_boot=6, seed=4, cluster=firms, penalty=0.0
        ).std_errors[0.5]
        fit = fit_quantile_fixed_effects(design, firms, 0.5)
        assert fit.p_values is None
        estimates = dict(fit.coefficients)
        estimates["fixed_effects_mean"] = np.mean(list(fit.group_effects.values()))
        fit.std_errors = std_errors
        p_values = fit.p_values
        assert set(p_values) == set(estimates)
        for name, est in estimates.items():
            want = 2.0 * norm.sf(abs(est) / std_errors[name])
            assert p_values[name] == pytest.approx(want, rel=1e-12)
        fit.std_errors = dict(std_errors, x1=0.0)
        assert fit.p_values["x1"] == 0.0

    def test_refit_checks_rank_once_per_draw(self, monkeypatch):
        # the within-rank check and the operator are built once per draw
        # and serve every theta; one more check precedes the first draw
        design, firms = grouped_panel(55)
        calls = []

        def counted(*args):
            calls.append(args)
            return _check_rank_dense(*args)

        monkeypatch.setattr(quantreg, "_check_rank_dense", counted)
        out = bootstrap_se(design, (0.25, 0.5, 0.9), n_boot=3, seed=0, cluster=firms)
        assert out.n_redrawn == 0
        assert len(calls) == 1 + 3


THETAS = (0.15, 0.5, 0.95)


def bootstrap_case(mode):
    """A design and the bootstrap_se keywords of a cluster refit with
    group effects, dummy or penalized."""
    design, firms = grouped_panel(54)
    return design, dict(cluster=firms, penalty=PENALTY[mode])


def fail_first_refit(monkeypatch, theta):
    """Make the next fixed-effects fit at ``theta`` raise ConvergenceError,
    once."""
    real = quantreg.fit_quantile_fixed_effects
    failed = []

    def flaky(design, groups, at, **kwargs):
        if at == theta and not failed:
            failed.append(at)
            raise ConvergenceError("forced")
        return real(design, groups, at, **kwargs)

    monkeypatch.setattr(quantreg, "fit_quantile_fixed_effects", flaky)


class TestJointBootstrap:
    """A tuple of thetas refits each draw at every theta; each theta's
    replicates are those of a call with that theta alone."""

    @pytest.mark.parametrize("mode", ["dummy", "penalized"])
    def test_joint_equals_separate_bit_for_bit(self, mode):
        design, kwargs = bootstrap_case(mode)
        joint = bootstrap_se(design, THETAS, n_boot=6, seed=5, **kwargs)
        n_estimates = design.k + 1  # plus fixed_effects_mean
        assert joint.replicates.shape == (6, len(THETAS), n_estimates)
        assert joint.n_boot == 6
        for i, theta in enumerate(THETAS):
            alone = bootstrap_se(design, (theta,), n_boot=6, seed=5, **kwargs)
            assert alone.replicates.shape == (6, 1, n_estimates)
            assert joint.replicates[:, i].tobytes() == alone.replicates[:, 0].tobytes()
            assert joint.std_errors[theta] == alone.std_errors[theta]
            assert joint.polished_by_theta[theta] == alone.polished_by_theta[theta]
            assert joint.redrawn_by_theta[theta] == alone.redrawn_by_theta[theta]
        assert joint.n_redrawn == sum(joint.redrawn_by_theta.values())
        reverse = bootstrap_se(design, THETAS[::-1], n_boot=6, seed=5, **kwargs)
        assert reverse.replicates[:, ::-1].tobytes() == joint.replicates.tobytes()
        assert reverse.std_errors == joint.std_errors

    def test_thetas_must_be_distinct(self):
        design, kwargs = bootstrap_case("dummy")
        for thetas in ((), (0.5, 0.5)):
            with pytest.raises(ValueError, match="distinct thetas"):
                bootstrap_se(design, thetas, n_boot=4, seed=5, **kwargs)

    @pytest.mark.parametrize("mode", ["dummy", "penalized"])
    def test_intercept_with_penalty_raises_before_any_draw(self, mode, monkeypatch):
        design, kwargs = bootstrap_case(mode)
        X = np.column_stack([np.ones(design.n), design.X])
        design = DesignMatrix(names=("intercept", "x1", "x2"), X=X, y=design.y)
        with pytest.raises(DesignError) as point:
            fit_quantile_fixed_effects(design, kwargs["cluster"], 0.5, penalty=kwargs["penalty"])

        def no_draw(*args):
            raise AssertionError("a draw was refit")

        monkeypatch.setattr(quantreg, "_refit", no_draw)
        with pytest.raises(DesignError) as boot:
            bootstrap_se(design, THETAS, n_boot=4, seed=5, **kwargs)
        assert str(boot.value) == str(point.value)
        assert boot.value.columns == ("intercept",)

    @pytest.mark.parametrize("penalty", [-1.0, np.nan, np.inf])
    def test_bad_penalty_raises_before_any_draw(self, penalty, monkeypatch):
        design, kwargs = bootstrap_case("penalized")
        with pytest.raises(ConfigError) as point:
            fit_quantile_fixed_effects(design, kwargs["cluster"], 0.5, penalty=penalty)
        real, calls = quantreg._draws, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(quantreg, "_draws", spy)
        cluster = kwargs["cluster"]
        with pytest.raises(ConfigError) as boot:
            bootstrap_se(design, (0.5,), 4, seed=0, cluster=cluster, penalty=penalty)
        with pytest.raises(ConfigError) as many:
            bootstrap_many([(design, cluster, 0)], (0.5,), 4, penalty=penalty)
        assert str(boot.value) == str(many.value) == str(point.value)
        assert calls == []

    def test_failed_theta_redraws_alone(self, monkeypatch):
        design, kwargs = bootstrap_case("dummy")
        clean = bootstrap_se(design, THETAS, n_boot=5, seed=6, **kwargs)
        fail_first_refit(monkeypatch, 0.5)
        joint = bootstrap_se(design, THETAS, n_boot=5, seed=6, **kwargs)
        fail_first_refit(monkeypatch, 0.5)
        alone = bootstrap_se(design, (0.5,), n_boot=5, seed=6, **kwargs)
        # the other thetas keep the shared draw
        for i in (0, 2):
            assert joint.replicates[:, i].tobytes() == clean.replicates[:, i].tobytes()
        # 0.5 redraws replicate 0 from the continuation of its stream
        assert not np.array_equal(joint.replicates[0, 1], clean.replicates[0, 1])
        assert joint.replicates[1:, 1].tobytes() == clean.replicates[1:, 1].tobytes()
        assert joint.replicates[:, 1].tobytes() == alone.replicates[:, 0].tobytes()
        rng = np.random.default_rng(np.random.SeedSequence(6).spawn(5)[0])
        codes = kwargs["cluster"]
        for _ in range(2):  # the shared draw, then its continuation
            mult = np.bincount(rng.integers(0, 30, size=30), minlength=30)
        redraw, _ = quantreg._refit(design, codes, mult, 0.0)(0.5)
        assert np.array_equal(joint.replicates[0, 1], redraw)
        assert joint.redrawn_by_theta == {0.15: 0, 0.5: 1, 0.95: 0}
        assert joint.n_redrawn == alone.n_redrawn == 1
        assert clean.n_redrawn == 0


def force_workers(monkeypatch, workers):
    """Make ``bootstrap_se`` split its draws over ``workers`` processes,
    whatever the cores and the size of the call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
    monkeypatch.setattr(quantreg, "_ROWS_PER_WORKER", 1)


def redrawing_case():
    """A cluster bootstrap in which about a third of the draws lose the
    one cluster where x1 varies, so their refits fail and are redrawn."""
    rng = np.random.default_rng(23)
    cl = np.repeat(np.arange(10), 4)
    x1 = np.where(cl == 0, rng.normal(size=cl.size), 0.0)
    X = np.column_stack([x1, rng.normal(size=cl.size)])
    design = DesignMatrix(names=("x1", "x2"), X=X, y=rng.normal(size=cl.size))
    return design, dict(cluster=cl)


def blas_threads():
    """The thread count that each OpenBLAS mapped into this process reports."""
    return [get() for get, _, _ in quantreg._blas_threads()]


def set_blas_threads(counts):
    for (_, set_threads, _), count in zip(quantreg._blas_threads(), counts):
        set_threads(count)


_DRAWS = quantreg._draws


def slow_later_chunks(*args):
    """A ``_draws`` whose first chunk fails at once and whose later chunks
    refit after 0.3 s, each leaving a mark in ``$FINISHED_CHUNKS``."""
    first = args[5]
    if first == 0:
        raise RuntimeError("first chunk broke")
    time.sleep(0.3)
    out = _DRAWS(*args)
    open(os.path.join(os.environ["FINISHED_CHUNKS"], f"chunk{first}"), "w").close()
    return out


def probed_chunks(*args):
    """A ``_draws`` that first leaves a mark in ``$CHUNK_PROBES``: the
    process, its OS threads and its OpenBLAS thread counts."""
    first = args[5]
    with open(os.path.join(os.environ["CHUNK_PROBES"], f"chunk{first}"), "w") as fh:
        json.dump([os.getpid(), len(os.listdir("/proc/self/task")), blas_threads()], fh)
    return _DRAWS(*args)


def read_probes(path):
    return {name: json.loads((path / name).read_text()) for name in sorted(os.listdir(path))}


def no_pool(method):
    raise AssertionError("a worker pool was started")


class TestPooledBootstrap:
    """Draws refit in forked workers, in short contiguous chunks, give what
    the in-process loop gives, and leave no process behind."""

    @pytest.mark.parametrize("mode", ["dummy", "penalized", "redrawn"])
    def test_every_worker_count_is_bit_identical(self, mode, monkeypatch):
        design, kwargs = redrawing_case() if mode == "redrawn" else bootstrap_case(mode)
        results = []
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            assert quantreg._workers(7, 7 * len(THETAS) * design.n)[0] == workers
            results.append(bootstrap_se(design, THETAS, n_boot=7, seed=5, **kwargs))
            assert multiprocessing.active_children() == []
        serial = results[0]
        assert (serial.n_redrawn > 0) == (mode == "redrawn")
        for pooled in results[1:]:
            assert pooled.replicates.tobytes() == serial.replicates.tobytes()
            assert pooled.std_errors == serial.std_errors
            assert pooled.redrawn_by_theta == serial.redrawn_by_theta
            assert pooled.polished_by_theta == serial.polished_by_theta
            assert pooled.n_redrawn == serial.n_redrawn

    def test_a_failed_replicate_is_named_by_its_global_index(self, monkeypatch):
        design, kwargs = bootstrap_case("dummy")
        # every draw of replicate 4's stream fails, in any process
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(6)[4])
        doomed = {np.bincount(rng.integers(0, 30, size=30), minlength=30).tobytes()
                  for _ in range(50)}
        real = quantreg._refit

        def refit(design, codes, mult, penalty):
            if mult.tobytes() in doomed:
                raise DesignError("forced")
            return real(design, codes, mult, penalty)

        monkeypatch.setattr(quantreg, "_refit", refit)
        messages = []
        for workers in (1, 3):  # 3 workers: replicate 4 opens the last chunk
            force_workers(monkeypatch, workers)
            with pytest.raises(DegenerateResampleError) as err:
                bootstrap_se(design, THETAS, n_boot=6, seed=5, **kwargs)
            messages.append(str(err.value))
            assert multiprocessing.active_children() == []
        assert messages == ["replicate 4: 50 consecutive degenerate resamples at theta 0.15"] * 2

    def test_a_pooled_give_up_is_raised_in_the_worker(self, monkeypatch):
        # the worker raises the error, and the pool re-raises it in the
        # caller with the worker's traceback as its cause
        design, kwargs = bootstrap_case("dummy")
        real, parent = quantreg._refit, os.getpid()

        def refit(design, codes, mult, penalty):
            if os.getpid() != parent:
                raise DesignError("forced")
            return real(design, codes, mult, penalty)

        monkeypatch.setattr(quantreg, "_refit", refit)
        force_workers(monkeypatch, 2)
        with pytest.raises(DegenerateResampleError, match="^replicate 0: 50 consecutive") as err:
            bootstrap_se(design, THETAS, n_boot=4, seed=5, **kwargs)
        assert isinstance(err.value.__cause__, multiprocessing.pool.RemoteTraceback)
        assert "raise DegenerateResampleError(" in str(err.value.__cause__)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_problem_of_one_call_equals_the_problem_alone(self, workers, monkeypatch):
        clean, firms = grouped_panel(54)
        redrawn, kwargs = redrawing_case()
        problems = [(clean, firms, 5), (redrawn, kwargs["cluster"], 6)]
        alone = [bootstrap_se(d, THETAS, n_boot=7, seed=s, cluster=c) for d, c, s in problems]
        assert alone[1].n_redrawn > 0
        force_workers(monkeypatch, workers)
        assert quantreg._workers(14, 7 * len(THETAS) * (clean.n + redrawn.n))[0] == workers
        results = bootstrap_many(problems, THETAS, 7)
        assert multiprocessing.active_children() == []
        assert len(results) == 2
        for got, want in zip(results, alone):
            assert got.replicates.tobytes() == want.replicates.tobytes()
            assert got.std_errors == want.std_errors
            assert got.redrawn_by_theta == want.redrawn_by_theta
            assert got.polished_by_theta == want.polished_by_theta
            assert got.n_redrawn == want.n_redrawn

    def test_a_failed_replicate_is_named_within_its_problem(self, monkeypatch):
        design, kwargs = bootstrap_case("dummy")
        # every draw of the second problem's replicate 4 fails, in any process
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(6)[4])
        doomed = {np.bincount(rng.integers(0, 30, size=30), minlength=30).tobytes()
                  for _ in range(50)}
        real = quantreg._refit

        def refit(design, codes, mult, penalty):
            if mult.tobytes() in doomed:
                raise DesignError("forced")
            return real(design, codes, mult, penalty)

        monkeypatch.setattr(quantreg, "_refit", refit)
        problems = [(design, kwargs["cluster"], 9), (design, kwargs["cluster"], 5)]
        for workers in (1, 3):
            force_workers(monkeypatch, workers)
            with pytest.raises(DegenerateResampleError) as err:
                bootstrap_many(problems, THETAS, 6, penalty=kwargs["penalty"])
            assert str(err.value) == (
                "replicate 4: 50 consecutive degenerate resamples at theta 0.15"
            )
            assert multiprocessing.active_children() == []

    def test_every_problem_is_checked_before_the_first_draw(self, monkeypatch):
        design, kwargs = bootstrap_case("dummy")

        def no_draw(*args):
            raise AssertionError("a draw was refit")

        monkeypatch.setattr(quantreg, "_refit", no_draw)
        with pytest.raises(DataValidationError, match="every row needs a group label"):
            bootstrap_many([(design, kwargs["cluster"], 1), (design, None, 2)], THETAS, 4,
                           penalty=kwargs["penalty"])

    def test_a_pool_that_cannot_start_runs_in_process(self, monkeypatch):
        design, kwargs = bootstrap_case("penalized")
        serial = bootstrap_se(design, THETAS, n_boot=5, seed=8, **kwargs)

        class NoFork:
            def Pool(self, *args):
                raise OSError("fork refused")

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: NoFork())
        fallback = bootstrap_se(design, THETAS, n_boot=5, seed=8, **kwargs)
        assert fallback.replicates.tobytes() == serial.replicates.tobytes()
        assert fallback.std_errors == serial.std_errors

    def test_unreadable_memory_maps_run_in_process(self, monkeypatch):
        design, kwargs = bootstrap_case("dummy")
        serial = bootstrap_se(design, THETAS, n_boot=5, seed=8, **kwargs)

        def unreadable(path, *args, **options):
            raise PermissionError(f"cannot read {path}")

        force_workers(monkeypatch, 2)
        monkeypatch.setattr(quantreg, "open", unreadable, raising=False)
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert quantreg._blas_threads() == ()
        assert quantreg._workers(5, 5 * len(THETAS) * design.n) == (1, ())
        fallback = bootstrap_se(design, THETAS, n_boot=5, seed=8, **kwargs)
        assert fallback.replicates.tobytes() == serial.replicates.tobytes()

    def test_a_worker_error_reaches_the_caller_and_ends_the_pool(self, monkeypatch):
        design, kwargs = bootstrap_case("penalized")

        def refit(design, codes, mult, penalty):
            raise RuntimeError("refit broke")

        force_workers(monkeypatch, 2)
        assert quantreg._workers(4, 4 * len(THETAS) * design.n)[0] == 2
        monkeypatch.setattr(quantreg, "_refit", refit)
        with pytest.raises(RuntimeError, match="refit broke"):
            bootstrap_se(design, THETAS, n_boot=4, seed=8, **kwargs)
        assert multiprocessing.active_children() == []

    def test_an_error_lets_the_other_chunks_finish_before_the_pool_ends(
            self, monkeypatch, tmp_path):
        # a worker killed mid-task could leave a pool lock held, and the
        # terminate that ends the pool would wait for it forever
        design, kwargs = bootstrap_case("penalized")
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(quantreg, "_draws", slow_later_chunks)
        monkeypatch.setenv("FINISHED_CHUNKS", str(tmp_path))
        with pytest.raises(RuntimeError, match="first chunk broke"):
            bootstrap_se(design, THETAS, n_boot=4, seed=8, **kwargs)
        assert multiprocessing.active_children() == []
        # four chunks of one draw: the three after the failed one all finish
        assert sorted(os.listdir(tmp_path)) == ["chunk1", "chunk2", "chunk3"]

    def test_each_worker_has_one_thread_and_one_blas_thread(self, monkeypatch, tmp_path):
        # the workers fork from a parent held at one BLAS thread, so OpenBLAS
        # starts no thread in them; the parent gets its own counts back
        if not quantreg._blas_threads():
            pytest.skip("no OpenBLAS is mapped, so bootstrap_se starts no workers")
        design, kwargs = bootstrap_case("dummy")
        before = blas_threads()
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(quantreg, "_draws", probed_chunks)
        monkeypatch.setenv("CHUNK_PROBES", str(tmp_path))
        bootstrap_se(design, THETAS, n_boot=4, seed=5, **kwargs)
        probes = read_probes(tmp_path)
        assert list(probes) == ["chunk0", "chunk1", "chunk2", "chunk3"]
        for pid, threads, counts in probes.values():
            assert pid != os.getpid()
            assert threads == 1
            assert counts == [1] * len(before)
        assert blas_threads() == before

    @pytest.mark.parametrize("fails", ["chunk", "meanwhile"])
    def test_the_parent_holds_one_blas_thread_until_the_pool_ends(
            self, fails, monkeypatch, tmp_path):
        if not quantreg._blas_threads():
            pytest.skip("no OpenBLAS is mapped, so bootstrap_se starts no workers")
        design, kwargs = bootstrap_case("dummy")
        before = blas_threads()
        set_blas_threads([2] * len(before))  # a count that the hold changes
        try:
            force_workers(monkeypatch, 2)
            if fails == "chunk":
                monkeypatch.setattr(quantreg, "_draws", slow_later_chunks)
                monkeypatch.setenv("FINISHED_CHUNKS", str(tmp_path))
            held = []

            def meanwhile():
                held.append(blas_threads())
                if fails == "meanwhile":
                    raise RuntimeError("point fit broke")

            with pytest.raises(RuntimeError, match="broke"):
                bootstrap_many([(design, kwargs["cluster"], 5)], THETAS, 4,
                               penalty=kwargs["penalty"], meanwhile=meanwhile)
            assert held == [[1] * len(before)]
            assert blas_threads() == [2] * len(before)
            assert multiprocessing.active_children() == []
        finally:
            set_blas_threads(before)

    def test_the_parent_is_left_without_blas_helper_threads(self, monkeypatch):
        # setting a count back after the fork starts the helper threads again,
        # to spin idle on the cores; the hold stops them, as the fork did
        blas = quantreg._blas_threads()
        if not blas or any(stop is None for *_, stop in blas):
            pytest.skip("no OpenBLAS with a thread shutdown is mapped")
        for *_, stop in blas:
            stop()
        idle = len(os.listdir("/proc/self/task"))
        before = blas_threads()
        set_blas_threads([2] * len(before))
        try:
            design, kwargs = bootstrap_case("dummy")
            force_workers(monkeypatch, 2)
            bootstrap_se(design, THETAS, n_boot=4, seed=5, **kwargs)
            assert blas_threads() == [2] * len(before)
            assert len(os.listdir("/proc/self/task")) == idle
        finally:
            set_blas_threads(before)

    def test_the_hold_sets_each_count_back_and_stops_what_it_can(self):
        calls = []
        blas = (
            (lambda: 4, lambda n: calls.append(("a", n)), lambda: calls.append(("a", "stop"))),
            (lambda: 2, lambda n: calls.append(("b", n)), None),
        )
        with pytest.raises(RuntimeError, match="broke"):
            with quantreg._hold_blas(blas):
                assert calls == [("a", 1), ("b", 1)]
                raise RuntimeError("broke")
        assert calls == [("a", 1), ("b", 1), ("a", 4), ("a", "stop"), ("b", 2)]

    def test_one_problem_forms_more_chunks_than_workers(self, monkeypatch, tmp_path):
        design, kwargs = bootstrap_case("penalized")
        serial = bootstrap_se(design, THETAS, n_boot=24, seed=3, **kwargs)
        force_workers(monkeypatch, 2)
        monkeypatch.setattr(quantreg, "_draws", probed_chunks)
        monkeypatch.setenv("CHUNK_PROBES", str(tmp_path))
        pooled = bootstrap_se(design, THETAS, n_boot=24, seed=3, **kwargs)
        assert pooled.replicates.tobytes() == serial.replicates.tobytes()
        # a chunk has at most _CHUNK_DRAWS draws and a quarter of those left
        # (two workers): 5, 5, 4, 3, 2, 2, then single draws
        starts = sorted(int(name.removeprefix("chunk")) for name in read_probes(tmp_path))
        assert starts == [0, 5, 10, 14, 17, 19, 21, 22, 23]
        assert multiprocessing.active_children() == []

    def test_meanwhile_runs_before_the_first_chunk_is_collected(self, monkeypatch):
        design, kwargs = bootstrap_case("dummy")
        force_workers(monkeypatch, 2)
        order = []
        real = quantreg._result

        def collected(*args):
            order.append("collected")
            return real(*args)

        monkeypatch.setattr(quantreg, "_result", collected)
        results = bootstrap_many([(design, kwargs["cluster"], 5)] * 2, THETAS, 4,
                                 penalty=kwargs["penalty"],
                                 meanwhile=lambda: order.append("meanwhile"))
        assert order == ["meanwhile", "collected", "collected"]
        assert results[0].replicates.tobytes() == results[1].replicates.tobytes()

    def test_a_tiny_call_stays_in_process(self, monkeypatch):
        # perfbench's tracer test: 3 draws of 40 rows at one theta
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        rng = np.random.default_rng(0)
        x = rng.normal(size=40)
        design = DesignMatrix(names=("x",), X=x[:, None], y=x + rng.normal(size=40))
        bootstrap_se(design, (0.5,), 3, seed=1, cluster=np.repeat(np.arange(8), 5), penalty=0.0)
        assert quantreg._workers(3, 3 * 40) == (1, ())

    @pytest.mark.parametrize("where", ["python 3.12", "not linux", "no openblas"])
    def test_runs_in_process_where_workers_cannot_be_held(self, where, monkeypatch):
        force_workers(monkeypatch, 4)
        if where == "python 3.12":
            monkeypatch.setattr(sys, "version_info", (3, 12, 0))
        elif where == "not linux":
            monkeypatch.setattr(sys, "platform", "darwin")
        else:
            monkeypatch.setattr(quantreg, "_blas_threads", lambda: ())
        assert quantreg._workers(40, 10**6) == (1, ())
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        design, kwargs = bootstrap_case("dummy")
        bootstrap_se(design, THETAS, n_boot=4, seed=5, **kwargs)


def grouped_problem(rng, sizes, kx=2, penalized=False):
    """A grouped-ops instance laid out as ``fit_quantile_fixed_effects``
    builds it: dummy mode, or penalized mode with one zero-response
    penalty row per group appended."""
    codes = np.repeat(np.arange(len(sizes)), sizes)
    X = rng.normal(size=(codes.size, kx))
    effects = rng.normal(size=len(sizes))
    y = X @ rng.normal(size=kx) + effects[codes] + rng.normal(size=codes.size)
    if penalized:
        G = len(sizes)
        X = np.vstack([X, np.zeros((G, kx))])
        codes = np.concatenate([codes, np.arange(G)])
        y = np.concatenate([y, np.zeros(G)])
    return _GroupedOps(X, y, codes, len(sizes)), y


def dense_rows(ops, idx):
    # the explicit [X | E] rows of the indicator-augmented design
    rows = np.zeros((idx.size, ops.ncols))
    rows[:, : ops.kx] = ops.X[idx]
    rows[np.arange(idx.size), ops.kx + ops.codes[idx]] = 1.0
    return rows


def reference_solve_normal(ops, d, rhs):
    """Normal-equation solve factoring the matrix afresh on every call, as
    each Newton step's predictor and corrector once did."""
    if isinstance(ops, _DenseOps):
        M = (ops.X * d[:, None]).T @ ops.X
        cf = scipy.linalg.cho_factor(M, check_finite=False)
        return scipy.linalg.cho_solve(cf, rhs, check_finite=False)
    X, codes, G, kx = ops.X, ops.codes, ops.n_groups, ops.kx
    XT = np.ascontiguousarray(X.T)  # the kx x n layout the operator keeps
    dXT = XT * d
    Mxx = dXT @ XT.T
    Mgg = np.bincount(codes, weights=d, minlength=G)
    Mxg = np.empty((kx, G))
    for j in range(kx):
        Mxg[j] = np.bincount(codes, weights=dXT[j], minlength=G)
    ratio = Mxg / Mgg[None, :]
    cf = scipy.linalg.cho_factor(Mxx - ratio @ Mxg.T, check_finite=False)
    out_x = scipy.linalg.cho_solve(cf, rhs[:kx] - ratio @ rhs[kx:], check_finite=False)
    return np.concatenate([out_x, (rhs[kx:] - out_x @ Mxg) / Mgg])


class TestSolverPieces:
    @pytest.mark.parametrize(
        "sizes, penalized",
        [
            ([5, 5, 5, 5], False),
            ([5, 5, 5, 5], True),
            ([1, 7, 2, 12, 3], False),
            ([1, 7, 2, 12, 3], True),
        ],
        ids=["dummy", "penalized", "unbalanced-dummy", "unbalanced-penalized"],
    )
    def test_grouped_vertex_matches_dense_solve(self, sizes, penalized):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ops, y = grouped_problem(rng, sizes, penalized=penalized)
            r = y - ops.matvec(rng.normal(size=ops.ncols))
            pinned, rest = ops.polish_rows(r)
            idx = np.concatenate([pinned, rest])
            want = scipy.linalg.solve(dense_rows(ops, idx), y[idx])
            assert_allclose(ops.vertex(r), want, rtol=0, atol=1e-10)

    def test_singular_reduced_system_gives_no_vertex(self):
        # the extra row repeats the x of its group's pinned row, so the
        # reduced 1 x 1 system (x_j - x_p) b = y_j - y_p is singular
        y = np.array([0.0, 1.0, 2.0])
        ops = _GroupedOps(np.array([[1.0], [1.0], [3.0]]), y, np.array([0, 0, 1]), 2)
        assert ops.vertex(np.array([0.0, 0.1, 0.0])) is None

    def test_one_factorization_serves_both_solves(self):
        rng = np.random.default_rng(42)
        dense = _DenseOps(rng.normal(size=(30, 3)), np.zeros(30))  # factor reads no response
        grouped, _ = grouped_problem(rng, [4, 6, 1, 9], kx=3, penalized=True)
        for ops in (dense, grouped):
            n = ops.X.shape[0]
            d = rng.uniform(0.1, 2.0, size=n)
            solve = ops.factor(d)
            for _ in range(2):  # predictor and corrector right-hand sides
                rhs = rng.normal(size=ops.ncols)
                assert np.array_equal(solve(rhs), reference_solve_normal(ops, d, rhs))

    def test_steplen_matches_boolean_mask_formula(self):
        # one fused call gives the bits of 0.9995 / (largest -dv / v) over
        # the directions below zero, capped at 1, within 2 ulp of the
        # older 0.9995 * (smallest v / -dv), and raises no floating-point
        # warning on zero directions
        def reference(v, dv):
            neg = dv < 0.0
            if not neg.any():
                return 1.0
            return min(1.0, 0.9995 / float(np.max(-dv[neg] / v[neg])))

        def older(v, dv):
            neg = dv < 0.0
            if not neg.any():
                return 1.0
            return min(1.0, 0.9995 * float(np.min(-v[neg] / dv[neg])))

        rng = np.random.default_rng(44)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                n = int(rng.integers(1, 40))
                v, u = rng.exponential(size=(2, n)) * 10.0 ** rng.integers(-6, 3, size=(2, 1))
                zero = rng.random(n) < 0.5
                directions = (
                    np.zeros(n),
                    np.full(n, -0.0),
                    rng.exponential(size=n),
                    rng.normal(size=n) * 10.0 ** rng.integers(-3, 6),
                    np.where(zero, 0.0, -rng.exponential(size=n)),
                    np.where(zero, -0.0, -rng.exponential(size=n)),
                )
                for dv, du in itertools.product(directions, repeat=2):
                    want = min(reference(v, dv), reference(u, du))
                    got = _steplen(v, dv, u, du)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()
                    old = min(older(v, dv), older(u, du))
                    assert abs(got - old) <= 2.0 * np.spacing(old)

    def test_primal_steplen_is_steplen_of_negated_direction(self):
        # the primal slack moves by -da, which is never formed: the step has
        # the bits of _steplen(a, da, s, -da) on the directions of
        # test_steplen_matches_boolean_mask_formula
        rng = np.random.default_rng(45)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(300):
                n = int(rng.integers(1, 40))
                a, s = rng.exponential(size=(2, n)) * 10.0 ** rng.integers(-6, 3, size=(2, 1))
                zero = rng.random(n) < 0.5
                for da in (
                    np.zeros(n),
                    np.full(n, -0.0),
                    rng.exponential(size=n),
                    -rng.exponential(size=n),
                    rng.normal(size=n) * 10.0 ** rng.integers(-3, 6),
                    np.where(zero, 0.0, -rng.exponential(size=n)),
                    np.where(zero, -0.0, rng.exponential(size=n)),
                ):
                    got = np.float64(_primal_steplen(a, s, da)).tobytes()
                    assert got == np.float64(_steplen(a, da, s, -da)).tobytes()

    @pytest.mark.parametrize("penalized", [False, True], ids=["dummy", "penalized"])
    def test_consecutive_fits_on_one_operator_match_fresh_operators(self, penalized):
        # each call owns its work arrays: fits on one operator, one after
        # another at different theta, have the bits of fits on fresh ones
        rng = np.random.default_rng(48)
        sizes = [1, 7, 2, 12, 3, 5]
        ops, y = grouped_problem(rng, sizes, kx=3, penalized=penalized)
        weights = rng.integers(1, 4, size=len(sizes))[ops.codes].astype(float)

        def fit(ops, theta):
            return _interior_point(ops, weights * theta, weights * (1.0 - theta))

        for theta in (0.15, 0.95, 0.5, 0.15):
            nu, iterations, gap, converged = fit(ops, theta)
            fresh = fit(_GroupedOps(ops.X, y, ops.codes, len(sizes)), theta)
            assert converged and fresh[3]
            assert nu.tobytes() == fresh[0].tobytes()
            assert (iterations, gap) == fresh[1:3]

    def test_polish_rows_match_sorted_selection(self):
        # the selection by a lexsort and a full stable argsort is the
        # reference: each group's smallest |r|, then the kx smallest other
        # rows by |r|, ties to the first row in row order
        def reference(ops, r):
            absr = np.abs(r)
            order = np.lexsort((absr, ops.codes))
            first = np.ones(len(order), dtype=bool)
            first[1:] = ops.codes[order][1:] != ops.codes[order][:-1]
            per_group = order[first]
            taken = np.zeros(r.size, dtype=bool)
            taken[per_group] = True
            by_resid = np.argsort(absr, kind="stable")
            return per_group, by_resid[~taken[by_resid]][: ops.kx]

        rng = np.random.default_rng(46)
        shapes = ([4, 4, 4, 4], [1, 7, 2, 12, 3], rng.integers(1, 9, size=40).tolist())
        for sizes, kx, penalized in itertools.product(shapes, (1, 3), (False, True)):
            for _ in range(10):
                ops, _ = grouped_problem(rng, sizes, kx=kx, penalized=penalized)
                # shuffle the data rows, so groups are not contiguous; the
                # penalty rows stay appended after them
                n_data = sum(sizes)
                perm = np.concatenate([rng.permutation(n_data), np.arange(n_data, ops.X.shape[0])])
                ops = _GroupedOps(ops.X[perm], ops.y[perm], ops.codes[perm], len(sizes))
                n = perm.size
                for r in (
                    rng.normal(size=n),
                    # few distinct |r|: ties within groups and at the kx boundary
                    rng.integers(-3, 4, size=n) * 0.5,
                    np.where(rng.random(n) < 0.7, 0.0, rng.normal(size=n)),
                ):
                    got, want = ops.polish_rows(r), reference(ops, r)
                    assert np.array_equal(got[0], want[0])
                    assert np.array_equal(got[1], want[1])

    def test_square_solve_matches_scipy_solve(self):
        # LAPACK gesv gives the bytes of scipy.linalg.solve, random and
        # ill-conditioned alike, and warns about neither
        rng = np.random.default_rng(47)
        for decades in (0, 8, 15):
            for _ in range(20):
                U, _ = np.linalg.qr(rng.normal(size=(9, 9)))
                V, _ = np.linalg.qr(rng.normal(size=(9, 9)))
                A = (U * np.logspace(0, -decades, 9)) @ V.T
                b = rng.normal(size=9)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                    want = scipy.linalg.solve(A, b)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = _solve_square(A, b)
                assert got.tobytes() == want.tobytes()

    def test_grouped_polish_allocates_no_dense_basis(self):
        # a dense (kx + G)^2 basis matrix would be 3002^2 * 8 bytes = 72 MB
        rng = np.random.default_rng(43)
        ops, y = grouped_problem(rng, [3] * 3000)
        beta = rng.normal(size=ops.ncols) * 1e-3
        p = np.full(y.size, 0.5)
        tracemalloc.start()
        try:
            _polish_vertex(ops, beta, p, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 72e6 / 20


def fallback_design(seed):
    rng = np.random.default_rng(seed)
    n = 30
    X = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
    y = X @ np.array([1.0, 0.5, -0.3]) + rng.normal(size=n)
    return DesignMatrix(names=("intercept", "x1", "x2"), X=X, y=y)


@pytest.fixture
def one_iteration(monkeypatch):
    # the interior point stops after one step, so every fit falls back to HiGHS
    monkeypatch.setattr(quantreg, "_MAX_ITER", 1)


class TestExactFallback:
    @pytest.mark.parametrize("seed", [21, 43])
    def test_fallback_matches_oracle(self, seed, one_iteration):
        d = fallback_design(seed)
        fit = fit_quantile(d, 0.3)
        _, obj = fit_quantile_oracle(d, 0.3)
        assert abs(fit.objective - obj) <= 1e-9
        assert fit.solver_meta["algorithm"] == "highs"

    @pytest.mark.parametrize("mode", ["dummy", "penalized"])
    def test_grouped_fallback_matches_interior_point(self, mode, monkeypatch):
        rng = np.random.default_rng(44)
        n = 60
        groups = rng.integers(0, 6, n)
        X = rng.normal(size=(n, 2))
        y = X @ np.array([0.7, -0.2]) + rng.normal(size=6)[groups] + rng.normal(size=n)
        d = DesignMatrix(names=("x1", "x2"), X=X, y=y)
        ipm = fit_quantile_fixed_effects(d, groups, 0.4, penalty=PENALTY[mode])
        monkeypatch.setattr(quantreg, "_MAX_ITER", 1)
        exact = fit_quantile_fixed_effects(d, groups, 0.4, penalty=PENALTY[mode])
        assert exact.solver_meta["algorithm"] == "highs"
        assert ipm.solver_meta["algorithm"] == "frisch-newton"
        assert exact.objective == pytest.approx(ipm.objective, rel=1e-9, abs=1e-9)

    def test_non_optimal_highs_status_is_an_error(self, monkeypatch, one_iteration):
        def stalled(*args, **kwargs):
            return scipy.optimize.OptimizeResult(status=1, message="Iteration limit reached.")

        monkeypatch.setattr(scipy.optimize, "linprog", stalled)
        with pytest.raises(ConvergenceError, match="Iteration limit") as err:
            fit_quantile(fallback_design(21), 0.3)
        assert err.value.diagnostics["highs_status"] == 1

    def test_interior_point_linalg_error_falls_back_to_highs(self, monkeypatch):
        def singular(*args, **kwargs):
            raise scipy.linalg.LinAlgError("normal-equation matrix is singular")

        d = fallback_design(21)
        monkeypatch.setattr(quantreg, "_interior_point", singular)
        fit = fit_quantile(d, 0.3)
        _, obj = fit_quantile_oracle(d, 0.3)
        assert fit.solver_meta["algorithm"] == "highs"
        assert abs(fit.objective - obj) <= 1e-9


class TestCholeskyJitter:
    def test_singular_psd_matrix_gets_a_jittered_solve(self):
        v = np.array([1.0, 2.0, -1.0])
        M = np.outer(v, v)
        x = _chol_factor(M)(v)
        assert np.isfinite(x).all()
        assert_allclose(M @ x, v, rtol=1e-6)

    def test_negative_definite_matrix_raises(self):
        with pytest.raises(scipy.linalg.LinAlgError, match="singular"):
            _chol_factor(-np.eye(3))

    def test_positive_definite_solve_matches_cho_solve(self):
        rng = np.random.default_rng(45)
        for k in (1, 3, 8):
            A = rng.normal(size=(5 * k, k))
            M = (A * rng.uniform(0.1, 2.0, size=5 * k)[:, None]).T @ A
            rhs = rng.normal(size=k)
            cf = scipy.linalg.cho_factor(M, check_finite=False)
            want = scipy.linalg.cho_solve(cf, rhs, check_finite=False)
            assert _chol_factor(M)(rhs).tobytes() == want.tobytes()
