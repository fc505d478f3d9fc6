import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levquant import (
    ConfigError,
    DataValidationError,
    DesignError,
    DesignMatrix,
    EffectsFit,
    EffectsKind,
    ModelChoice,
    fit_fixed_effects,
    fit_pooled_ols,
    fit_quantile,
    fit_quantile_fixed_effects,
    fit_quantile_oracle,
    fit_random_effects,
    hausman_decision,
    hausman_test,
    within_transform,
)
from levquant import quantreg
from levquant.quantreg import _fe_problem


def panel_design(rng, n=60, n_groups=6, k=2, noise=0.3, effect_sd=1.0):
    groups = rng.integers(0, n_groups, n)
    X = rng.normal(size=(n, k))
    beta = rng.normal(size=k)
    effects = rng.normal(size=n_groups) * effect_sd
    y = X @ beta + effects[groups] + rng.normal(size=n) * noise
    names = tuple(f"x{j}" for j in range(1, k + 1))
    return DesignMatrix(names=names, X=X, y=y), groups, beta


class TestWithinTransform:
    def test_single_group_mean_removal(self):
        out = within_transform(np.array([1.0, 2.0, 3.0]), ["a", "a", "a"])
        assert_allclose(out, [-1.0, 0.0, 1.0])

    def test_singleton_groups_zero_out(self):
        out = within_transform(np.array([[5.0], [7.0]]), ["a", "b"])
        assert_allclose(out, [[0.0], [0.0]])

    def test_group_means_vanish(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(80, 3))
        groups = rng.integers(0, 7, 80)
        W = within_transform(M, groups)
        for g in range(7):
            sel = groups == g
            if sel.any():
                assert np.abs(W[sel].mean(axis=0)).max() < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(40, 2))
        groups = rng.integers(0, 4, 40)
        once = within_transform(M, groups)
        assert_allclose(within_transform(once, groups), once, atol=1e-12)


class TestFixedEffects:
    def test_exact_model(self):
        x = np.tile(np.arange(5.0), 3)
        groups = np.repeat(["a", "b", "c"], 5)
        offsets = np.repeat([1.0, -2.0, 4.0], 5)
        d = DesignMatrix(names=("x",), X=x[:, None], y=x + offsets)
        fit = fit_fixed_effects(d, groups)
        assert fit.coefficients["x"] == pytest.approx(1.0, abs=1e-12)
        assert fit.sigma_e == pytest.approx(0.0, abs=1e-20)

    def test_group_level_shift_moves_that_effect(self):
        rng = np.random.default_rng(3)
        d, groups, _ = panel_design(rng)
        base = fit_fixed_effects(d, groups)
        firm = str(groups[0])
        y2 = d.y + np.where(groups == groups[0], 7.0, 0.0)
        shifted = fit_fixed_effects(DesignMatrix(d.names, d.X, y2), groups)
        for m in d.names:
            assert shifted.coefficients[m] == pytest.approx(
                base.coefficients[m], abs=1e-10
            )
        level_before = base.intercept + base.group_effects[firm]
        level_after = shifted.intercept + shifted.group_effects[firm]
        assert level_after - level_before == pytest.approx(7.0, abs=1e-10)

    def test_effects_average_to_zero(self):
        rng = np.random.default_rng(4)
        d, groups, _ = panel_design(rng)
        fit = fit_fixed_effects(d, groups)
        assert np.mean(list(fit.group_effects.values())) == pytest.approx(0.0, abs=1e-12)

    def test_equals_dummy_variable_ols(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            d, groups, _ = panel_design(rng, n=30, n_groups=2)
            fit = fit_fixed_effects(d, groups)
            G = int(groups.max()) + 1
            dummies = np.zeros((d.n, G))
            dummies[np.arange(d.n), groups] = 1.0
            beta, *_ = np.linalg.lstsq(
                np.column_stack([d.X, dummies]), d.y, rcond=None
            )
            got = np.asarray([fit.coefficients[m] for m in d.names])
            assert_allclose(got, beta[: d.k], atol=1e-10)

    def test_group_labels_must_cover_every_row(self):
        d = DesignMatrix(names=("x",), X=np.arange(4.0)[:, None], y=np.arange(4.0))
        with pytest.raises(DataValidationError, match="every row needs a group label"):
            fit_fixed_effects(d, ["a", "a", "b"])

    def test_no_residual_degrees_of_freedom(self):
        # three pairs leave three within dimensions, all taken by the slopes
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(6, 3)), rng.normal(size=6)
        d = DesignMatrix(names=("x1", "x2", "x3"), X=X, y=y)
        with pytest.raises(DataValidationError, match="too few observations"):
            fit_fixed_effects(d, [0, 0, 1, 1, 2, 2])

    def test_all_singletons_error(self):
        d = DesignMatrix(names=("x",), X=np.arange(4.0)[:, None], y=np.arange(4.0))
        with pytest.raises(DataValidationError, match="within"):
            fit_fixed_effects(d, ["a", "b", "c", "d"])

    def test_time_invariant_regressor_named(self):
        groups = np.repeat(["a", "b"], 4)
        const_within = np.repeat([1.0, 5.0], 4)
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=8), const_within])
        d = DesignMatrix(names=("x", "fixed_trait"), X=X, y=rng.normal(size=8))
        with pytest.raises(DesignError) as err:
            fit_fixed_effects(d, groups)
        assert "fixed_trait" in err.value.columns

    def test_rejects_intercept(self):
        d = DesignMatrix(
            names=("intercept", "x"),
            X=np.column_stack([np.ones(6), np.arange(6.0)]),
            y=np.arange(6.0),
        )
        with pytest.raises(DesignError):
            fit_fixed_effects(d, ["a", "a", "a", "b", "b", "b"])


def re_design(rng, n_groups=40, t=5, k=2, sigma_u=0.7, sigma_e=0.4, seed_beta=None):
    beta = seed_beta if seed_beta is not None else rng.normal(size=k)
    groups = np.repeat(np.arange(n_groups), t)
    n = n_groups * t
    X = rng.normal(size=(n, k))
    u = rng.normal(size=n_groups) * sigma_u
    y = 1.0 + X @ beta + u[groups] + rng.normal(size=n) * sigma_e
    d = DesignMatrix(names=tuple(f"x{j}" for j in range(1, k + 1)), X=X, y=y)
    return d, groups


def with_intercept(d):  # the random-effects fit's columns: an intercept, then d's
    return DesignMatrix(
        names=("intercept",) + d.names, X=np.column_stack([np.ones(d.n), d.X]), y=d.y
    )


def fit_re(d, groups):
    return fit_random_effects(d, groups, fit_fixed_effects(d, groups))


class TestRandomEffects:
    def test_rejects_the_within_fit_of_another_design(self):
        d, groups = re_design(np.random.default_rng(7))
        within = fit_fixed_effects(d, groups)
        rows = groups < 30
        others = [
            (DesignMatrix(d.names[:1], d.X[:, :1], d.y), groups),  # other names
            (DesignMatrix(d.names, d.X[rows], d.y[rows]), groups[rows]),  # other rows
        ]
        for other, other_groups in others:
            with pytest.raises(DesignError, match="within fit of its own design"):
                fit_random_effects(other, other_groups, within)
        with pytest.raises(DesignError, match="within fit of its own design"):
            fit_random_effects(d, groups, fit_pooled_ols(d))  # not a within fit

    def test_rejects_an_intercept_column(self):
        # no within fit has an intercept column, so none matches this design
        d, groups = re_design(np.random.default_rng(7))
        with pytest.raises(DesignError, match="within fit of its own design"):
            fit_random_effects(with_intercept(d), groups, fit_fixed_effects(d, groups))

    def test_adds_its_own_intercept(self):
        d, groups = re_design(np.random.default_rng(12))
        re = fit_re(d, groups)
        assert re.names == ("intercept",) + d.names
        assert re.sigma_e == fit_fixed_effects(d, groups).sigma_e
        assert re.nobs == d.n

    def test_needs_more_groups_than_coefficients(self):
        d, groups = re_design(np.random.default_rng(7), n_groups=3, t=4)
        with pytest.raises(DataValidationError, match="variance components not estimable"):
            fit_re(d, groups)

    def test_clamped_equals_pooled(self):
        # huge within noise, no real group effect: sigma_u^2 goes negative
        rng = np.random.default_rng(8)
        d, groups = re_design(rng, n_groups=12, t=3, sigma_u=0.0, sigma_e=5.0)
        fit = fit_re(d, groups)
        if not fit.sigma_u_clamped:
            pytest.skip("variance estimate not negative for this draw")
        pooled = fit_pooled_ols(with_intercept(d))
        for m in pooled.names:
            assert fit.coefficients[m] == pytest.approx(
                pooled.coefficients[m], abs=1e-12
            )

    def test_sigma_e_to_zero_approaches_fixed_effects(self):
        rng = np.random.default_rng(9)
        d, groups = re_design(rng, n_groups=25, t=6, sigma_u=1.0, sigma_e=1e-4)
        re = fit_re(d, groups)
        fe = fit_fixed_effects(d, groups)
        for m in d.names:
            assert re.coefficients[m] == pytest.approx(
                fe.coefficients[m], abs=1e-4
            )

    def test_swamy_arora_recovers_components(self):
        sigma_u, sigma_e = 0.7, 0.4
        rng = np.random.default_rng(10)
        got_u, got_e = [], []
        for _ in range(200):
            d, groups = re_design(
                rng, n_groups=40, t=5, sigma_u=sigma_u, sigma_e=sigma_e
            )
            fit = fit_re(d, groups)
            got_u.append(fit.sigma_u)
            got_e.append(fit.sigma_e)
        assert abs(np.mean(got_u) - sigma_u**2) <= 0.2 * sigma_u**2
        assert abs(np.mean(got_e) - sigma_e**2) <= 0.2 * sigma_e**2

    def test_kind_markers(self):
        rng = np.random.default_rng(11)
        d, groups = re_design(rng)
        assert fit_re(d, groups).kind is EffectsKind.RandomGLS
        assert fit_pooled_ols(with_intercept(d)).kind is EffectsKind.PooledOLS

    def test_re_lies_on_quasi_demeaning_path(self):
        # balanced panel: pooled OLS is the lambda=0 end of the path, the
        # within estimator the lambda=1 end, and the RE fit sits at its
        # estimated lambda in between
        rng = np.random.default_rng(30)
        slopes, groups = re_design(rng, n_groups=30, t=4, sigma_u=0.8, sigma_e=0.5)
        re = fit_re(slopes, groups)
        assert not re.sigma_u_clamped
        d = with_intercept(slopes)

        def path_slopes(lam):
            labels, codes = np.unique(groups, return_inverse=True)
            means_X = np.stack([
                d.X[codes == g].mean(axis=0) for g in range(labels.size)
            ])
            means_y = np.asarray([
                d.y[codes == g].mean() for g in range(labels.size)
            ])
            Xt = d.X - lam * means_X[codes]
            yt = d.y - lam * means_y[codes]
            b, *_ = np.linalg.lstsq(Xt, yt, rcond=None)
            return dict(zip(d.names, b))

        t_g = 4
        lam_hat = 1.0 - math.sqrt(re.sigma_e / (t_g * re.sigma_u + re.sigma_e))
        assert 0.0 < lam_hat < 1.0
        on_path = path_slopes(lam_hat)
        for m in d.names:
            assert re.coefficients[m] == pytest.approx(on_path[m], abs=1e-10)

        pooled = fit_pooled_ols(d)
        at_zero = path_slopes(0.0)
        for m in d.names:
            assert at_zero[m] == pytest.approx(pooled.coefficients[m], abs=1e-10)

        fe = fit_fixed_effects(slopes, groups)
        at_one = path_slopes(1.0)
        for m in slopes.names:
            assert at_one[m] == pytest.approx(fe.coefficients[m], abs=1e-10)


def make_fit(kind, coefficients, vcov):
    names = tuple(coefficients)
    return EffectsFit(
        kind=kind,
        names=names,
        coefficients=dict(coefficients),
        vcov=np.asarray(vcov, dtype=float),
        nobs=100,
        df_resid=90,
    )


class TestHausman:
    def test_reported_statistic_fixed_point(self):
        p, choice = hausman_decision(140.152192, 7)
        assert p < 1e-6
        assert choice is ModelChoice.FixedEffects

    def test_identity_is_zero(self):
        rng = np.random.default_rng(12)
        d, groups, _ = panel_design(rng)
        fe = fit_fixed_effects(d, groups)
        res = hausman_test(fe, fe)
        assert res.statistic == 0.0
        assert res.p_value == pytest.approx(1.0)
        assert res.decision is ModelChoice.RandomEffects

    def test_two_coefficient_hand_case(self):
        fe = make_fit(EffectsKind.FixedWithin, {"a": 2.0, "b": 3.0}, np.diag([0.7, 0.7]))
        re = make_fit(EffectsKind.RandomGLS, {"a": 1.0, "b": 2.0}, np.diag([0.2, 0.2]))
        res = hausman_test(fe, re)
        assert res.statistic == pytest.approx(4.0, abs=1e-12)
        assert res.p_value == pytest.approx(0.1353, abs=5e-5)
        assert res.df == 2
        assert not res.rank_deficient

    def test_invariant_to_coefficient_order(self):
        fe = make_fit(
            EffectsKind.FixedWithin, {"a": 2.0, "b": 3.0}, [[0.7, 0.1], [0.1, 0.9]]
        )
        re1 = make_fit(
            EffectsKind.RandomGLS, {"a": 1.0, "b": 2.5}, [[0.2, 0.05], [0.05, 0.3]]
        )
        re2 = make_fit(
            EffectsKind.RandomGLS, {"b": 2.5, "a": 1.0}, [[0.3, 0.05], [0.05, 0.2]]
        )
        assert hausman_test(fe, re1).statistic == pytest.approx(
            hausman_test(fe, re2).statistic, rel=1e-12
        )

    def test_rank_deficient_uses_pseudo_inverse(self):
        # singular variance difference: one direction carries no variance
        dv = np.array([[0.5, 0.5], [0.5, 0.5]])
        fe = make_fit(EffectsKind.FixedWithin, {"a": 2.0, "b": 3.0}, dv + np.diag([0.0, 0.0]))
        re = make_fit(EffectsKind.RandomGLS, {"a": 1.0, "b": 2.0}, np.zeros((2, 2)))
        res = hausman_test(fe, re)
        assert res.rank_deficient
        assert res.df == 1
        assert res.statistic >= 0.0

    def test_negative_definite_difference_never_crashes(self):
        fe = make_fit(EffectsKind.FixedWithin, {"a": 2.0}, [[0.1]])
        re = make_fit(EffectsKind.RandomGLS, {"a": 1.0}, [[0.5]])
        res = hausman_test(fe, re)
        assert res.statistic == 0.0
        assert res.rank_deficient
        assert res.p_value == 1.0

    def test_needs_a_shared_slope(self):
        fe = make_fit(EffectsKind.FixedWithin, {"a": 2.0}, [[0.5]])
        re = make_fit(EffectsKind.RandomGLS, {"intercept": 1.0, "b": 1.0}, np.eye(2))
        with pytest.raises(DataValidationError, match="no slope coefficients"):
            hausman_test(fe, re)

    def test_excludes_intercept(self):
        fe = make_fit(EffectsKind.FixedWithin, {"x": 1.0}, [[0.5]])
        re = make_fit(
            EffectsKind.RandomGLS,
            {"intercept": 9.0, "x": 1.0},
            np.diag([1.0, 0.25]),
        )
        res = hausman_test(fe, re)
        assert res.df == 1
        assert res.statistic == 0.0

    def test_significance_threshold_controls_decision(self):
        fe = make_fit(EffectsKind.FixedWithin, {"a": 2.0, "b": 3.0}, np.diag([0.7, 0.7]))
        re = make_fit(EffectsKind.RandomGLS, {"a": 1.0, "b": 2.0}, np.diag([0.2, 0.2]))
        assert hausman_test(fe, re, significance=0.05).decision is ModelChoice.RandomEffects
        assert hausman_test(fe, re, significance=0.20).decision is ModelChoice.FixedEffects


class TestQuantileFixedEffects:
    def test_pure_level_shift(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=20)
        xx = np.concatenate([x, x])
        yy = np.concatenate([2.0 * x, 2.0 * x + 1.0])
        groups = np.array(["a"] * 20 + ["b"] * 20)
        d = DesignMatrix(names=("x",), X=xx[:, None], y=yy)
        fit = fit_quantile_fixed_effects(d, groups, 0.5)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-8)
        assert fit.group_effects["b"] - fit.group_effects["a"] == pytest.approx(
            1.0, abs=1e-8
        )

    def test_dummy_objective_matches_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(6):
            n = 18
            groups = rng.integers(0, 2, n)
            x = rng.normal(size=n)
            y = 1.2 * x + np.where(groups == 0, 0.4, -0.6) + rng.normal(size=n) * 0.5
            d = DesignMatrix(names=("x",), X=x[:, None], y=y)
            theta = float(rng.uniform(0.2, 0.8))
            fit = fit_quantile_fixed_effects(d, groups, theta)
            dummies = np.zeros((n, 2))
            dummies[np.arange(n), groups] = 1.0
            aug = DesignMatrix(
                names=("x", "g0", "g1"),
                X=np.column_stack([x[:, None], dummies]),
                y=y,
            )
            _, obj = fit_quantile_oracle(aug, theta)
            assert abs(fit.objective - obj) <= 1e-8

    @pytest.mark.parametrize("theta", [0.15, 0.5, 0.95])
    def test_weighted_unbalanced_objective_matches_oracle(self, theta):
        # integer row weights on three unbalanced groups: the weighted fit
        # has the optimum of the rows duplicated by their weights, which the
        # oracle finds with one dummy column per group
        rng = np.random.default_rng(17)
        sizes = [2, 4, 8]
        codes = np.repeat(np.arange(len(sizes)), sizes)
        for _ in range(4):
            X = rng.normal(size=(codes.size, 2))
            y = X @ [1.2, -0.5] + rng.normal(size=len(sizes))[codes] + rng.normal(size=codes.size)
            w = rng.integers(1, 4, size=codes.size)
            d = DesignMatrix(names=("x1", "x2"), X=X, y=y)
            problem = _fe_problem(d, codes, 0.0, w.astype(float))
            fit = fit_quantile_fixed_effects(d, codes, theta, _problem=problem)
            obj = quantreg._weighted_pinball(fit.residuals, w * theta, w * (1.0 - theta))
            dup = np.repeat(np.arange(codes.size), w)
            dummies = (codes[dup, None] == np.arange(len(sizes))).astype(float)
            aug = DesignMatrix(
                names=("x1", "x2", "g0", "g1", "g2"),
                X=np.column_stack([X[dup], dummies]),
                y=y[dup],
            )
            _, want = fit_quantile_oracle(aug, theta)
            assert abs(obj - want) <= 1e-8

    def test_penalty_limit_recovers_pooled(self):
        rng = np.random.default_rng(16)
        n = 40
        groups = rng.integers(0, 4, n)
        x = rng.normal(size=n)
        y = 1.5 * x + 0.02 * rng.normal(size=4)[groups] + rng.normal(size=n) * 0.3
        d = DesignMatrix(names=("x",), X=x[:, None], y=y)
        fit = fit_quantile_fixed_effects(d, groups, 0.5, penalty=1e6)
        assert max(abs(v) for v in fit.group_effects.values()) <= 1e-6
        pooled = fit_quantile(d, 0.5)
        assert fit.coefficients["x"] == pytest.approx(
            pooled.coefficients["x"], abs=1e-6
        )

    def test_penalized_mid_lambda_shrinks(self):
        rng = np.random.default_rng(17)
        n = 60
        groups = rng.integers(0, 5, n)
        x = rng.normal(size=n)
        effects = np.array([1.0, -1.5, 0.5, 2.0, -0.5])
        y = x + effects[groups] + rng.normal(size=n) * 0.2
        d = DesignMatrix(names=("x",), X=x[:, None], y=y)
        free = fit_quantile_fixed_effects(d, groups, 0.5)
        shrunk = fit_quantile_fixed_effects(d, groups, 0.5, penalty=0.5)
        norm_free = sum(abs(v) for v in free.group_effects.values())
        norm_shrunk = sum(abs(v) for v in shrunk.group_effects.values())
        assert norm_shrunk < norm_free + 1e-9

    def test_grouped_solver_matches_dense_augmentation(self):
        rng = np.random.default_rng(18)
        n, G = 120, 8
        groups = rng.integers(0, G, n)
        X = rng.normal(size=(n, 2))
        effects = rng.normal(size=G)
        y = X @ np.array([0.8, -0.4]) + effects[groups] + rng.normal(size=n) * 0.4
        d = DesignMatrix(names=("x1", "x2"), X=X, y=y)
        fit = fit_quantile_fixed_effects(d, groups, 0.35)
        dummies = np.zeros((n, G))
        dummies[np.arange(n), groups] = 1.0
        aug = DesignMatrix(
            names=("x1", "x2") + tuple(f"g{j}" for j in range(G)),
            X=np.column_stack([X, dummies]),
            y=y,
        )
        dense = fit_quantile(aug, 0.35)
        assert fit.objective == pytest.approx(dense.objective, rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("penalty", [0.0, 1.0], ids=["dummy", "penalized"])
    def test_shared_problem_fits_bit_for_bit(self, penalty):
        # the theta-free part of a fit, with the interior point's start, is
        # built once and serves every theta; a weighted refit reuses it
        rng = np.random.default_rng(22)
        d, groups, _ = panel_design(rng, n=90, n_groups=9)
        weights = rng.integers(1, 4, size=9)[groups].astype(float)
        problem = _fe_problem(d, groups, penalty, weights)
        for theta in (0.15, 0.5, 0.95):
            shared, alone = (
                fit_quantile_fixed_effects(d, groups, theta, penalty=penalty, _problem=prob)
                for prob in (problem, _fe_problem(d, groups, penalty, weights))
            )
            assert shared.coefficients == alone.coefficients
            assert shared.group_effects == alone.group_effects
            assert shared.residuals.tobytes() == alone.residuals.tobytes()
            assert shared.solver_meta == alone.solver_meta
        assert problem[1].start is not None

    def test_weighted_penalized_problem_owns_its_penalty_weights(self):
        # a group of weight m gets penalty row weight lambda * m, and the
        # weighted fits keep the bits of the per-theta weighting they replace
        # (sha256 prefixes of the coefficient and effect bytes)
        rng = np.random.default_rng(23)
        d, groups, _ = panel_design(rng, n=90, n_groups=9)
        m = rng.integers(1, 4, size=9)
        labels, ops = _fe_problem(d, groups, 0.5, m[groups].astype(float))
        assert ops.pen.tobytes() == (0.5 * m).tobytes()
        assert ops.w.tobytes() == m[groups].astype(float).tobytes()
        assert ops.X.shape == (d.n + 9, d.k)
        want = {
            0.15: "e79eda13893ea01c1d4350045da61708",
            0.5: "9964db1303e6a359a5c6d443ffbb580b",
            0.95: "84504dfc68bc62cddbc5755b6e8b604e",
        }
        for theta, digest in want.items():
            fit = fit_quantile_fixed_effects(d, groups, theta, penalty=0.5, _problem=(labels, ops))
            h = hashlib.sha256(np.fromiter(fit.coefficients.values(), dtype=float).tobytes())
            h.update(np.fromiter(fit.group_effects.values(), dtype=float).tobytes())
            assert h.hexdigest()[:32] == digest
            assert fit.n == d.n

    @pytest.mark.parametrize("labels", [
        np.array(["a", "b", "c"]),
        np.array([10, 20, 30]),
        np.array([0.1, 2.5, 1e16]),
    ], ids=["str", "int", "float"])
    def test_group_effect_keys_are_label_strings(self, labels):
        d, groups, _ = panel_design(np.random.default_rng(23), n=60, n_groups=3)
        by_code = fit_quantile_fixed_effects(d, groups, 0.5)
        fit = fit_quantile_fixed_effects(d, labels[groups], 0.5)
        want = {str(l): float(v) for l, v in zip(labels, by_code.group_effects.values())}
        assert list(fit.group_effects.items()) == list(want.items())
        assert all(type(k) is str and type(v) is float for k, v in fit.group_effects.items())

    def test_many_groups_fit_in_dummy_mode(self):
        # the grouped solver has no firm limit: 6,000 effects fit in dummy mode
        rng = np.random.default_rng(19)
        G, T = 6000, 4
        groups = np.repeat(np.arange(G), T)
        X = rng.normal(size=(G * T, 3))
        y = X @ np.array([0.5, -0.2, 0.1]) + rng.normal(size=G)[groups] + rng.normal(size=G * T)
        d = DesignMatrix(names=("x1", "x2", "x3"), X=X, y=y)
        fit = fit_quantile_fixed_effects(d, groups, 0.5)
        assert len(fit.group_effects) == G
        assert fit.solver_meta["algorithm"] == "frisch-newton"
        assert fit.subgradient_ok

    @pytest.mark.parametrize("fit", [
        fit_fixed_effects,
        lambda d, groups: fit_quantile_fixed_effects(d, groups, 0.5),
        lambda d, groups: fit_quantile_fixed_effects(d, groups, 0.5, penalty=1.0),
    ], ids=["within", "quantile dummy", "quantile penalized"])
    def test_large_columns_collinear_within_firms_rejected(self, fit):
        # b moves exactly -2x a within each firm; demeaning 1e8-sized values
        # leaves rounding that must not read as within variation
        a = np.array([1e8, 1e8 + 1.1, 3e8, 3e8 + 0.3, 5e8, 5e8 + 0.9])
        b = np.array([2e8, 2e8 - 2.2, 9e8, 9e8 - 0.6, 4e8, 4e8 - 1.8])
        d = DesignMatrix(names=("a", "b"), X=np.column_stack([a, b]),
                         y=np.array([1.0, 2.0, 0.5, 1.5, 3.0, 2.5]))
        with pytest.raises(DesignError, match="no within-group variation"):
            fit(d, np.repeat([0, 1, 2], 2))

    def test_too_few_rows_for_the_effects_are_rank_deficient(self):
        # 2 slopes and 2 effects on 3 rows: the demeaned columns have rank
        # at most n - G = 1, so the rank check needs no separate row count
        X = np.array([[1e8, 1e8], [1e8 + 1.1, 1e8 - 0.7], [5e8, 7e8]])
        d = DesignMatrix(names=("a", "b"), X=X, y=np.arange(3.0))
        with pytest.raises(DesignError, match="no within-group variation"):
            fit_quantile_fixed_effects(d, [0, 0, 1], 0.5)

    @pytest.mark.parametrize("penalty", [-0.5, math.inf, math.nan])
    def test_penalty_outside_zero_to_inf_rejected(self, penalty):
        d, groups, _ = panel_design(np.random.default_rng(21))
        with pytest.raises(ConfigError, match="0 <= penalty < inf"):
            fit_quantile_fixed_effects(d, groups, 0.5, penalty=penalty)

    def test_rejects_intercept_column(self):
        d = DesignMatrix(
            names=("intercept", "x"),
            X=np.column_stack([np.ones(8), np.arange(8.0)]),
            y=np.arange(8.0),
        )
        with pytest.raises(DesignError):
            fit_quantile_fixed_effects(d, np.repeat([0, 1], 4), 0.5)

    def test_subgradient_holds_with_effects(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n, G = 80, 6
            groups = rng.integers(0, G, n)
            x = rng.normal(size=n)
            y = 0.5 * x + rng.normal(size=G)[groups] + rng.normal(size=n) * 0.3
            d = DesignMatrix(names=("x",), X=x[:, None], y=y)
            theta = float(rng.uniform(0.1, 0.9))
            fit = fit_quantile_fixed_effects(d, groups, theta)
            assert fit.subgradient_ok
