"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; a failed assertion marks the criterion FAIL.  The two Monte Carlo
recovery studies are the long pole (a few minutes total).
"""
import hashlib
import math
import os
import re
import time

import numpy as np
import pytest

from levquant import (
    DesignMatrix,
    EffectsFit,
    EffectsKind,
    FirmYearRecord,
    MacroYear,
    Regime,
    RegimeRule,
    SynthConfig,
    correlation_matrix,
    derive_variables,
    fit_fixed_effects,
    fit_quantile,
    fit_quantile_fixed_effects,
    fit_quantile_oracle,
    hausman_decision,
    hausman_test,
    monte_carlo_speed,
    within_transform,
    write_macro_csv,
    write_panel_csv,
    write_tax_csv,
    yearly_means,
)
from levquant import generate_panel
from levquant.cli import main

from conftest import ingest_records

THETA_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


def ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS  {detail}")


def random_instance(rng):
    n = int(rng.integers(6, 51))
    k = int(rng.integers(1, 4))
    cols = [np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)]
    names = ("intercept",) + tuple(f"x{j}" for j in range(1, k))
    beta = rng.normal(size=k)
    y = np.column_stack(cols) @ beta + rng.standard_t(4, size=n)
    return DesignMatrix(names=names, X=np.column_stack(cols), y=y)


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    worst = 0.0
    n_instances = 200
    for i in range(n_instances):
        d = random_instance(rng)
        theta = THETA_GRID[i % len(THETA_GRID)]
        fit = fit_quantile(d, theta)
        _, obj = fit_quantile_oracle(d, theta)
        gap = abs(fit.objective - obj)
        worst = max(worst, gap)
        assert gap <= 1e-8, (i, theta, gap)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    ok(1, f"{n_instances} instances, worst |objective gap| {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_subgradient_optimality_everywhere():
    rng = np.random.default_rng(77)
    checked = violations = 0

    def check(fit):
        nonlocal checked, violations
        checked += 1
        n = fit.n
        if not (
            fit.n_neg <= n * fit.theta + 1e-9
            and fit.n_pos <= n * (1.0 - fit.theta) + 1e-9
        ):
            violations += 1

    for i in range(150):
        check(fit_quantile(random_instance(rng), THETA_GRID[i % 9]))
    for i in range(50):
        n, G = int(rng.integers(30, 90)), int(rng.integers(3, 9))
        groups = rng.integers(0, G, n)
        x = rng.normal(size=n)
        y = 0.7 * x + rng.normal(size=G)[groups] + rng.normal(size=n) * 0.4
        d = DesignMatrix(names=("x",), X=x[:, None], y=y)
        check(fit_quantile_fixed_effects(d, groups, THETA_GRID[i % 9]))
    for i in range(20):
        n, G = 50, 5
        groups = rng.integers(0, G, n)
        x = rng.normal(size=n)
        y = x + rng.normal(size=G)[groups] + rng.normal(size=n) * 0.3
        d = DesignMatrix(names=("x",), X=x[:, None], y=y)
        check(
            fit_quantile_fixed_effects(
                d, groups, THETA_GRID[i % 9], penalty=0.3
            )
        )
    assert violations == 0
    ok(2, f"{checked} fits, zero sign-count violations")


def test_criterion_3_equivariance_suite():
    rng = np.random.default_rng(31415)
    for i in range(100):
        d = random_instance(rng)
        theta = float(rng.uniform(0.1, 0.9))
        base = fit_quantile(d, theta)
        b0 = np.asarray([base.coefficients[m] for m in d.names])

        gamma = rng.normal(size=d.k)
        shift = fit_quantile(DesignMatrix(d.names, d.X, d.y + d.X @ gamma), theta)
        got = np.asarray([shift.coefficients[m] for m in d.names])
        assert np.allclose(got, b0 + gamma, rtol=1e-9, atol=1e-9)

        c = float(rng.uniform(0.5, 4.0))
        scaled = fit_quantile(DesignMatrix(d.names, d.X, c * d.y), theta)
        got = np.asarray([scaled.coefficients[m] for m in d.names])
        assert np.allclose(got, c * b0, rtol=1e-9, atol=1e-9)

        j = d.k - 1
        if d.names[j] != "intercept":
            X2 = d.X.copy()
            X2[:, j] *= c
            col = fit_quantile(DesignMatrix(d.names, X2, d.y), theta)
            assert math.isclose(
                col.coefficients[d.names[j]], b0[j] / c, rel_tol=1e-9, abs_tol=1e-9
            )
    ok(3, "shift, response-scale, column-scale equivariance on 100 instances")


def test_criterion_4_hausman_fixed_points():
    p, choice = hausman_decision(140.152192, 7)
    assert p < 1e-6
    assert choice.value == "fixed_effects"

    rng = np.random.default_rng(4)
    n, G = 60, 6
    groups = rng.integers(0, G, n)
    X = rng.normal(size=(n, 2))
    y = X @ [1.0, -1.0] + rng.normal(size=G)[groups] + rng.normal(size=n)
    fe = fit_fixed_effects(DesignMatrix(("x1", "x2"), X, y), groups)
    self_test = hausman_test(fe, fe)
    assert self_test.statistic == 0.0

    fe2 = EffectsFit(
        kind=EffectsKind.FixedWithin, names=("a", "b"),
        coefficients={"a": 2.0, "b": 3.0}, vcov=np.diag([0.7, 0.7]),
        nobs=50, df_resid=40,
    )
    re2 = EffectsFit(
        kind=EffectsKind.RandomGLS, names=("a", "b"),
        coefficients={"a": 1.0, "b": 2.0}, vcov=np.diag([0.2, 0.2]),
        nobs=50, df_resid=40,
    )
    hand = hausman_test(fe2, re2)
    assert hand.statistic == pytest.approx(4.0, abs=1e-12)
    assert f"{hand.p_value:.4f}" == "0.1353"
    ok(4, f"paper statistic p={p:.2e}; self-test 0; hand case H=4.0 p=0.1353")


def test_criterion_5_fixed_effects_correctness():
    rng = np.random.default_rng(5)
    worst_slope = worst_mean = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 60))
        G = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        groups = rng.integers(0, G, n)
        while np.bincount(groups, minlength=G).min() < 2 or n - k - G <= 0:
            groups = rng.integers(0, G, n)
        X = rng.normal(size=(n, k))
        y = X @ rng.normal(size=k) + rng.normal(size=G)[groups] + rng.normal(size=n)
        names = tuple(f"x{j}" for j in range(k))
        fit = fit_fixed_effects(DesignMatrix(names, X, y), groups)
        dummies = np.zeros((n, G))
        dummies[np.arange(n), groups] = 1.0
        lsdv, *_ = np.linalg.lstsq(np.column_stack([X, dummies]), y, rcond=None)
        got = np.asarray([fit.coefficients[m] for m in names])
        worst_slope = max(worst_slope, float(np.max(np.abs(got - lsdv[:k]))))
        assert np.allclose(got, lsdv[:k], atol=1e-10)

        W = within_transform(X, groups)
        for g in range(G):
            sel = groups == g
            if sel.any():
                m = float(np.max(np.abs(W[sel].mean(axis=0))))
                worst_mean = max(worst_mean, m)
                assert m < 1e-10
    ok(5, f"50 panels: max |FE-LSDV| {worst_slope:.1e}, max group mean {worst_mean:.1e}")


def _regime_macro_path(rng, n_years, block=4):
    path = []
    for i in range(n_years):
        growth = (i // block) % 2 == 0
        gdp = rng.uniform(1.5, 4.5) if growth else rng.uniform(-2.5, -0.5)
        path.append((rng.uniform(1.0, 5.0), gdp))
    return tuple(path)


def test_criterion_6_speed_recovery():
    start = time.monotonic()
    cfg = SynthConfig(n_firms=500, t_max=20, delta=0.6, seed=600)
    report = monte_carlo_speed(cfg, 100)
    cell = report.cells[0]
    assert cell.estimates.size == 100
    assert abs(cell.mean - 0.6) <= 0.05

    rng = np.random.default_rng(8)
    cfg2 = SynthConfig(
        n_firms=500, t_max=20, delta=(0.7, 0.3),
        macro_path=_regime_macro_path(rng, 20), seed=700,
    )
    report2 = monte_carlo_speed(cfg2, 100)
    by_regime = {c.regime: c for c in report2.cells}
    g, r = by_regime[Regime.Growth], by_regime[Regime.Recession]
    assert abs(g.mean - 0.7) <= 0.07
    assert abs(r.mean - 0.3) <= 0.07
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    ok(
        6,
        f"single delta 0.6 -> {cell.mean:.4f}; regimes 0.7/0.3 -> "
        f"{g.mean:.4f}/{r.mean:.4f}; {elapsed:.0f}s",
    )


def test_criterion_7_variable_formulas():
    rec0 = FirmYearRecord(
        firm_id="F1", fiscal_year=2000, total_assets=200.0, book_debt=50.0,
        market_equity=150.0, current_assets=80.0, current_liabilities=40.0,
        ebit=100.0, interest_payable=10.0, income_tax=21.0, sales=100.0,
        net_ppe=100.0, depreciation=15.0,
    )
    rec1 = FirmYearRecord(
        firm_id="F1", fiscal_year=2001, total_assets=200.0, book_debt=50.0,
        market_equity=150.0, current_assets=80.0, current_liabilities=40.0,
        ebit=100.0, interest_payable=10.0, income_tax=21.0, sales=110.0,
        net_ppe=120.0, depreciation=15.0,
    )
    macro = {
        y: MacroYear(year=y, inflation=3.0, gdp_growth=2.0)
        for y in (2000, 2001)
    }
    panel = derive_variables(
        ingest_records([rec0, rec1]), macro, {2000: 0.21, 2001: 0.21}
    )
    first, second = panel.rows
    assert first.levb == 0.25                     # 50 / 200
    assert first.levm == 0.25                     # 50 / (50 + 150)
    assert first.ndts == -10.0                    # 100 - 10 - 21/0.21
    assert first.profta == 0.5                    # 100 / 200
    assert first.liqta == 2.0                     # 80 / 40
    assert first.sizeat == math.log(100.0)
    assert second.invta == 35.0                   # 120 - 100 + 15
    assert second.growthat == pytest.approx(0.10)  # 100 -> 110
    ok(7, "leverage, NDTS, investment, growth, size, liquidity all exact")


def test_criterion_8_descriptive_oracles():
    rng = np.random.default_rng(88)
    recs = []
    years = [2000 + i % 5 for i in range(50)]
    for i in range(50):
        at = float(rng.uniform(50, 500))
        recs.append(
            FirmYearRecord(
                firm_id=f"F{i // 5:02d}", fiscal_year=years[i], total_assets=at,
                book_debt=float(rng.uniform(0, at)),
                market_equity=float(rng.uniform(10, 400)),
                current_assets=float(rng.uniform(1, 200)),
                current_liabilities=float(rng.uniform(1, 100)),
                ebit=float(rng.normal(20, 30)),
                interest_payable=float(rng.uniform(0, 5)),
                income_tax=float(rng.normal(5, 3)),
                sales=float(rng.uniform(1, 600)),
                net_ppe=float(rng.uniform(10, 300)),
                depreciation=float(rng.uniform(0, 20)),
            )
        )
    macro = {
        y: MacroYear(
            year=y, inflation=float(rng.uniform(0, 6)),
            gdp_growth=float(rng.normal(2, 2)),
        )
        for y in sorted(set(years))
    }
    panel = derive_variables(
        ingest_records(recs), macro, {y: 0.21 for y in macro}
    )

    cm = correlation_matrix(panel)
    k = cm.k
    worst = 0.0
    for i in range(k):
        assert cm.r[i, i] == 1.0
        for j in range(k):
            assert cm.r[i, j] == cm.r[j, i] or (
                math.isnan(cm.r[i, j]) and math.isnan(cm.r[j, i])
            )
            if i == j or math.isnan(cm.r[i, j]):
                continue
            a = panel.variable(cm.names[i])
            b = panel.variable(cm.names[j])
            keep = ~(np.isnan(a) | np.isnan(b))
            a, b = a[keep], b[keep]
            n = a.size
            ma = sum(a) / n
            mb = sum(b) / n
            sab = sum((x - ma) * (y - mb) for x, y in zip(a, b))
            saa = sum((x - ma) ** 2 for x in a)
            sbb = sum((y - mb) ** 2 for y in b)
            want = sab / math.sqrt(saa * sbb)
            worst = max(worst, abs(cm.r[i, j] - want))
            assert abs(cm.r[i, j] - want) <= 1e-12

    ym = yearly_means(panel)
    for j, var in enumerate(ym.variables):
        vals = panel.variable(var)
        row_years = np.asarray([r.fiscal_year for r in panel.rows])
        for i, year in enumerate(ym.years):
            manual = [v for v, y in zip(vals, row_years) if y == year and not np.isnan(v)]
            if manual:
                assert ym.values[i, j] == pytest.approx(
                    sum(manual) / len(manual), abs=1e-12
                )
        present = vals[~np.isnan(vals)]
        if present.size:
            assert ym.values[-1, j] == pytest.approx(
                sum(present) / present.size, abs=1e-12
            )
    ok(8, f"correlations match brute force (worst {worst:.1e}); means match sums")


@pytest.fixture(scope="module")
def replicate_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_e2e")
    cfg = SynthConfig(n_firms=150, t_max=12, delta=0.5, seed=900)
    panel, truth = generate_panel(cfg)
    write_panel_csv(panel, root / "panel.csv")
    write_macro_csv(truth.macro, root / "macro.csv")
    write_tax_csv({y: cfg.tax_rate for y in truth.macro}, root / "tax.csv")
    config = root / "run.cfg"
    out = root / "bundle"
    config.write_text(
        f"input = {root/'panel.csv'}\nmacro = {root/'macro.csv'}\n"
        f"tax_table = {root/'tax.csv'}\ndeterminants = profta,liqta,sizeat\n"
        f"bootstrap = 4\nseed = 11\nout = {out}\n"
    )
    assert main(["replicate", "--config", str(config)]) == 0
    return config, out


def _hash_dir(path):
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_criterion_9_end_to_end_determinism(replicate_bundle):
    config, out = replicate_bundle
    first = _hash_dir(out)
    assert main(["replicate", "--config", str(config)]) == 0
    second = _hash_dir(out)
    assert first == second
    ok(9, f"two replicate runs byte-identical across {len(first)} files")


def test_criterion_10_table_shapes(replicate_bundle):
    _, out = replicate_bundle
    want_thetas = ["0.15", "0.35", "0.5", "0.75", "0.95"]

    for kind in ("book", "market"):
        lines = (out / f"quantile_{kind}.txt").read_text().splitlines()
        assert lines[1].split() == want_thetas
        body = lines[2:]
        assert body[-1].startswith("R-squared")
        rows = body[:-1]
        assert len(rows) % 2 == 0
        for i in range(0, len(rows), 2):
            assert not rows[i].startswith("sterrors")
            assert rows[i + 1].startswith("sterrors")

    lines = (out / "speed.txt").read_text().splitlines()
    assert lines[1].split() == want_thetas
    labels = [line.split("  ")[0] for line in lines[2:6]]
    assert labels == ["SPEED MARKET", "R-squared", "SPEED BOOK", "R-squared"]
    for line in lines[2:6]:
        assert len(re.findall(r"-?\d+\.\d%", line)) == len(want_thetas)
    ok(10, "quantile tables and speed table carry the required row/column shape")
