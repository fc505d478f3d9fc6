import csv
import math
import warnings

import numpy as np
import pytest

from levquant import synthgen
from levquant.panel import MACRO_COLUMNS, PANEL_COLUMNS
from levquant.reports import _csv_float, render_recovery

from levquant import (
    ConfigError,
    DesignError,
    ErrorSpec,
    SynthConfig,
    TargetModelSpec,
    estimate_speed,
    generate_panel,
    monte_carlo_speed,
    read_macro_csv,
    read_panel_csv,
    read_tax_csv,
    write_macro_csv,
    write_panel_csv,
    write_tax_csv,
)
from conftest import rows_for


class TestConfigValidation:
    def test_delta_bounds(self):
        with pytest.raises(ConfigError):
            SynthConfig(delta=1.2)
        with pytest.raises(ConfigError):
            SynthConfig(delta=(-0.1, 0.5))

    def test_needs_three_years(self):
        with pytest.raises(ConfigError):
            SynthConfig(t_max=2)

    def test_unknown_beta_name(self):
        with pytest.raises(ConfigError, match="drivable"):
            SynthConfig(beta={"mbratio": 0.1})

    @pytest.mark.parametrize("fields,message", [
        (dict(macro_path=((math.nan, 1.0),) * 3), "macro_path entries must be finite"),
        (dict(macro_path=((2.0, math.inf),) * 3), "macro_path entries must be finite"),
        (dict(macro_path=((2.0,),) * 3), "macro_path entries must be finite"),
        (dict(macro_path=((2.0, 1.0, 0.5),) * 3), "macro_path entries must be finite"),
        (dict(macro_path=("ab",) * 3), "macro_path entries must be finite"),
        (dict(macro_path=((2.0, 1.0),) * 2), "macro_path covers 2 years, need 3"),
        (dict(beta={"profta": math.nan}), "intercept, beta and gamma must be finite"),
        (dict(gamma={"inflation": math.inf}), "intercept, beta and gamma must be finite"),
        (dict(intercept=math.nan), "intercept, beta and gamma must be finite"),
        (dict(firm_effect_sd=math.nan), "firm_effect_sd must be nonnegative and finite"),
        (dict(firm_effect_sd=-1.0), "firm_effect_sd must be nonnegative and finite"),
        (dict(tax_rate=0.0), "tax_rate must be positive and finite"),
        (dict(tax_rate=math.nan), "tax_rate must be positive and finite"),
    ], ids=["nan macro", "inf macro", "short pair", "long pair", "string entry", "short path",
            "nan beta", "inf gamma", "nan intercept", "nan firm sd", "negative firm sd",
            "zero tax rate", "nan tax rate"])
    def test_generator_parameters_that_would_spoil_the_panel_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            SynthConfig(n_firms=3, t_max=3, **fields)

    def test_unknown_error_kind(self):
        with pytest.raises(ConfigError):
            ErrorSpec(kind="cauchy")

    @pytest.mark.parametrize("make,message", [
        (lambda: ErrorSpec(sigma=-0.1), "sigma must be nonnegative"),
        (lambda: SynthConfig(n_firms=0), "at least one firm"),
        (lambda: SynthConfig(gamma={"gdp_growth": 0.1}), "unknown macro names in gamma"),
        (lambda: SynthConfig(seed=True), "seed must be an int"),
        (lambda: SynthConfig(n_firms=True), "n_firms must be an int"),
    ], ids=["negative sigma", "no firms", "unknown gamma name", "bool seed", "bool n_firms"])
    def test_bad_value_rejected(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    @pytest.mark.parametrize("make,message", [
        (lambda: ErrorSpec(sigma=math.nan), "sigma must be nonnegative and finite"),
        (lambda: ErrorSpec(sigma=math.inf), "sigma must be nonnegative and finite"),
        (lambda: ErrorSpec(kind="student", df=0.0), "df must be positive"),
        (lambda: ErrorSpec(kind="student", df=math.nan), "df must be positive"),
        (lambda: SynthConfig(seed=-1), "seed must be non-negative"),
        # the first burn-in year and the last emitted year bound the horizon
        (lambda: SynthConfig(start_year=-(2**63) + 9), "must lie inside int64"),
        (lambda: SynthConfig(start_year=2**63 - 14), "must lie inside int64"),
        (lambda: SynthConfig(start_year=10**20), "must lie inside int64"),
        (lambda: ErrorSpec(kind="heteroskedastic", het_coef=math.nan), "het_coef must be finite"),
        (lambda: ErrorSpec(kind="heteroskedastic", het_coef=math.inf), "het_coef must be finite"),
        (lambda: SynthConfig(start_year=2000.5), "start_year must be an int"),
        (lambda: SynthConfig(n_firms=2.5), "n_firms must be an int"),
        (lambda: SynthConfig(t_max=4.5), "t_max must be an int"),
        (lambda: SynthConfig(seed=1.5), "seed must be an int"),
    ], ids=["nan sigma", "inf sigma", "zero df", "nan df", "negative seed",
            "burn-in before int64", "last year after int64", "huge start year",
            "nan het_coef", "inf het_coef", "fractional start year", "fractional n_firms",
            "fractional t_max", "fractional seed"])
    def test_value_that_would_fail_in_generation_rejected(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    def test_years_at_the_int64_bounds_accepted(self):
        first = SynthConfig(n_firms=2, t_max=3, start_year=-(2**63) + 10)
        last = SynthConfig(n_firms=2, t_max=3, start_year=2**63 - 3)
        for config in (first, last):
            panel, truth = generate_panel(config)
            assert sorted(truth.macro) == [config.start_year + i for i in range(3)]
            assert len(panel.rows) == 6

    def test_numpy_integers_accepted_as_ints(self):
        plain = SynthConfig(n_firms=3, t_max=4, start_year=2000, seed=7)
        numpy = SynthConfig(n_firms=np.int64(3), t_max=np.int32(4), start_year=np.int64(2000),
                            seed=np.uint8(7))
        assert numpy == plain
        names = ("n_firms", "t_max", "start_year", "seed")
        assert all(type(getattr(numpy, n)) is int for n in names)
        assert generate_panel(numpy)[0].rows == generate_panel(plain)[0].rows
        # a Python int does not wrap where an int64 sum would
        with pytest.raises(ConfigError, match="must lie inside int64"):
            SynthConfig(t_max=np.int64(3), start_year=np.int64(2**63 - 2))


class TestGeneratePanel:
    def test_deterministic_for_seed(self):
        cfg = SynthConfig(n_firms=20, t_max=6, seed=5)
        a, _ = generate_panel(cfg)
        b, _ = generate_panel(cfg)
        assert a.records == b.records
        assert a.rows == b.rows

    def test_different_seeds_differ(self):
        a, _ = generate_panel(SynthConfig(n_firms=5, t_max=5, seed=1))
        b, _ = generate_panel(SynthConfig(n_firms=5, t_max=5, seed=2))
        assert a.records != b.records

    def test_full_adjustment_tracks_target_exactly(self):
        cfg = SynthConfig(
            n_firms=8, t_max=6, delta=1.0, error=ErrorSpec(sigma=0.0), seed=3
        )
        panel, truth = generate_panel(cfg)
        beta, gamma = cfg.beta, cfg.gamma
        for row in panel.rows:
            if any(getattr(row, v) is None for v in beta):
                continue
            macro = truth.macro[row.fiscal_year]
            target = (
                cfg.intercept
                + truth.firm_effects[row.firm_id]
                + sum(b * getattr(row, v) for v, b in beta.items())
                + gamma["inflation"] * macro.inflation
                + gamma["gdp_rate"] * macro.gdp_growth
            )
            assert row.levb == pytest.approx(target, abs=1e-9)

    def test_zero_adjustment_keeps_leverage_constant(self):
        cfg = SynthConfig(
            n_firms=5, t_max=6, delta=0.0, error=ErrorSpec(sigma=0.0), seed=4
        )
        panel, _ = generate_panel(cfg)
        for firm in panel.firms:
            levs = [r.levb for r in rows_for(panel, firm)]
            assert max(levs) - min(levs) <= 1e-12

    def test_attrition_survival_within_binomial_bounds(self):
        cfg = SynthConfig(n_firms=1000, t_max=20, attrition=0.1, seed=6)
        panel, _ = generate_panel(cfg)
        last_year = panel.year_span[1]
        survivors = sum(
            1 for f in panel.firms
            if any(r.fiscal_year == last_year for r in rows_for(panel, f))
        )
        p = 0.9**19
        mean, sd = 1000 * p, math.sqrt(1000 * p * (1 - p))
        assert abs(survivors - mean) <= 3 * sd

    def test_unbalanced_with_attrition(self):
        panel, _ = generate_panel(SynthConfig(n_firms=50, t_max=10, attrition=0.2, seed=7))
        lengths = {len(rows_for(panel, f)) for f in panel.firms}
        assert len(lengths) > 1

    def test_attrition_truncates_each_firm_for_good(self):
        cfg = SynthConfig(n_firms=200, t_max=12, attrition=0.3, seed=21)
        panel, truth = generate_panel(cfg)
        full, _ = generate_panel(SynthConfig(n_firms=200, t_max=12, seed=21))
        assert len(truth.firm_effects) == cfg.n_firms
        assert len(panel.records) < len(full.records)
        for firm in truth.firm_effects:
            kept = [r for r in panel.records if r.firm_id == firm]
            # one contiguous run from the first year: a firm that leaves
            # never comes back, and its years before leaving are unchanged
            years = [r.fiscal_year for r in kept]
            assert years == list(range(cfg.start_year, cfg.start_year + len(years)))
            everything = [r for r in full.records if r.firm_id == firm]
            assert kept == everything[:len(kept)]

    def test_clamped_shock_scales_counted(self, tmp_path):
        from levquant import write_ground_truth

        def clamped(kind, het_coef=0.5):
            cfg = SynthConfig(n_firms=50, t_max=6, seed=22,
                              error=ErrorSpec(kind=kind, het_coef=het_coef))
            return generate_panel(cfg)[1]

        truth = clamped("heteroskedastic", het_coef=3.0)
        # 1 + 3 z < 0.05 for z < -0.32: about 37% of 2 x 50 x (6 + 10) draws
        assert 400 < truth.n_clamped < 800
        assert clamped("heteroskedastic", het_coef=0.0).n_clamped == 0
        assert clamped("normal").n_clamped == 0
        assert clamped("student").n_clamped == 0
        write_ground_truth(truth, tmp_path / "truth.txt")
        lines = (tmp_path / "truth.txt").read_text().splitlines()
        assert f"clamped_shock_scales = {truth.n_clamped}" in lines

    def test_leverage_bounded(self):
        panel, _ = generate_panel(SynthConfig(n_firms=100, t_max=30, seed=8))
        levs = np.asarray([r.levb for r in panel.rows])
        assert np.all(np.abs(levs) < 5.0)

    def test_student_and_heteroskedastic_modes(self):
        for kind in ("student", "heteroskedastic"):
            cfg = SynthConfig(
                n_firms=150, t_max=12, delta=0.5,
                error=ErrorSpec(kind=kind, sigma=0.006), seed=9,
            )
            panel, _ = generate_panel(cfg)
            res = estimate_speed(
                panel,
                TargetModelSpec(
                    leverage="book", determinants=("profta", "liqta", "sizeat"),
                    thetas=(0.5,),
                ),
            )[0]
            assert abs(res.speed - 0.5) <= 0.1

    def test_heteroskedastic_coefficients_vary_across_quantiles(self):
        # the scale depends on profitability, so the profitability slope
        # must genuinely differ between low and high quantiles
        cfg = SynthConfig(
            n_firms=400, t_max=15, delta=0.5,
            error=ErrorSpec(kind="heteroskedastic", sigma=0.02, het_coef=0.8),
            seed=10,
        )
        panel, _ = generate_panel(cfg)
        spec = TargetModelSpec(
            leverage="book", determinants=("profta", "liqta", "sizeat"),
            thetas=(0.1, 0.9),
        )
        lo, hi = estimate_speed(panel, spec)
        b_lo = lo.fit.coefficients["profta"]
        b_hi = hi.fit.coefficients["profta"]
        assert abs(b_hi - b_lo) > 0.05

    def test_macro_path_must_cover_horizon(self):
        with pytest.raises(ConfigError, match="macro_path"):
            generate_panel(SynthConfig(n_firms=3, t_max=5, macro_path=((2.0, 1.0),)))


class TestRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        cfg = SynthConfig(n_firms=15, t_max=8, attrition=0.1, seed=11)
        panel, truth = generate_panel(cfg)
        write_panel_csv(panel, tmp_path / "panel.csv")
        write_macro_csv(truth.macro, tmp_path / "macro.csv")
        write_tax_csv({y: cfg.tax_rate for y in truth.macro}, tmp_path / "tax.csv")
        back = read_panel_csv(tmp_path / "panel.csv")
        assert back.records == panel.records
        macro = read_macro_csv(tmp_path / "macro.csv")
        assert set(macro) == set(truth.macro)
        for y, m in macro.items():
            assert m.inflation == truth.macro[y].inflation
            assert m.gdp_growth == truth.macro[y].gdp_growth
        rates = read_tax_csv(tmp_path / "tax.csv")
        assert all(v == cfg.tax_rate for v in rates.values())

    def test_simulated_files_are_written_unquoted(self, tmp_path):
        # ids without a comma, quote or line break keep the bytes of the
        # plain comma join, which the csv module's writer gives them
        def plain(columns, lines):
            return "\n".join([",".join(columns), *(",".join(c) for c in lines)]) + "\n"

        cfg = SynthConfig(n_firms=15, t_max=8, attrition=0.1, seed=11)
        panel, truth = generate_panel(cfg)
        write_panel_csv(panel, tmp_path / "panel.csv")
        write_macro_csv(truth.macro, tmp_path / "macro.csv")
        records = [
            (r.firm_id, str(r.fiscal_year), *map(_csv_float, r[2:])) for r in panel.records
        ]
        macro = [
            (str(y), _csv_float(m.inflation), _csv_float(m.gdp_growth))
            for y, m in sorted(truth.macro.items())
        ]
        assert (tmp_path / "panel.csv").read_text() == plain(PANEL_COLUMNS, records)
        assert (tmp_path / "macro.csv").read_text() == plain(MACRO_COLUMNS, macro)

    def test_unrepresentable_market_leverage_leaves_market_equity_empty(self, tmp_path):
        # shocks this large push market leverage outside (0, 1) in some years
        # while book debt stays positive
        cfg = SynthConfig(n_firms=20, t_max=6, error=ErrorSpec(sigma=0.2), seed=13)
        panel, _ = generate_panel(cfg)
        missing = {
            (r.firm_id, r.fiscal_year) for r in panel.records
            if r.market_equity is None and r.book_debt > 0.0
        }
        assert missing
        rows = [i for i, r in enumerate(panel.rows) if (r.firm_id, r.fiscal_year) in missing]
        assert len(rows) == len(missing)
        assert np.isnan(panel.variable("levm")[rows]).all()
        assert (panel.variable("levb")[rows] > 0.0).all()

        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        with open(path) as fh:
            cells = {
                (row["firm_id"], int(row["fyear"])): row["mkt_eq"] for row in csv.DictReader(fh)
            }
        assert {cells[key] for key in missing} == {""}
        back = {(r.firm_id, r.fiscal_year): r for r in read_panel_csv(path).records}
        assert all(back[key].market_equity is None for key in missing)

    def test_ground_truth_written(self, tmp_path):
        from levquant import write_ground_truth

        cfg = SynthConfig(n_firms=3, t_max=4, seed=12)
        _, truth = generate_panel(cfg)
        path = tmp_path / "truth.txt"
        write_ground_truth(truth, path)
        text = path.read_text()
        assert "delta" in text and "[firm_effects]" in text
        assert all(f"F{i}" in text for i in (1, 2, 3))

    @pytest.mark.parametrize("error", [
        ErrorSpec(kind="student", sigma=0.01, df=3.0),
        ErrorSpec(kind="heteroskedastic", sigma=0.02, het_coef=0.8),
    ], ids=["student", "heteroskedastic"])
    def test_ground_truth_determines_error_process(self, tmp_path, error):
        from levquant import write_ground_truth

        _, truth = generate_panel(SynthConfig(n_firms=3, t_max=4, error=error, seed=12))
        path = tmp_path / "truth.txt"
        write_ground_truth(truth, path)
        line, = (ln for ln in path.read_text().splitlines() if ln.startswith("error = "))
        kind, *params = line.removeprefix("error = ").split()
        read_back = {k: float(v) for k, v in (p.split("=") for p in params)}
        assert ErrorSpec(kind=kind, **read_back) == error


class TestMonteCarlo:
    def test_single_replication_sd_undefined(self):
        cfg = SynthConfig(n_firms=40, t_max=8, seed=13)
        report = monte_carlo_speed(cfg, 1)
        cell = report.cells[0]
        assert cell.sd is None
        assert cell.estimates.size == 1
        assert cell.mean == cell.estimates[0]

    def test_same_master_seed_identical(self):
        cfg = SynthConfig(n_firms=40, t_max=8, seed=14)
        a = monte_carlo_speed(cfg, 3)
        b = monte_carlo_speed(cfg, 3)
        for ca, cb in zip(a.cells, b.cells):
            assert np.array_equal(ca.estimates, cb.estimates)

    def test_replications_distinct(self):
        cfg = SynthConfig(n_firms=40, t_max=8, seed=15)
        report = monte_carlo_speed(cfg, 3)
        assert len(set(report.cells[0].estimates.tolist())) == 3

    def test_bias_fields(self):
        cfg = SynthConfig(n_firms=60, t_max=10, delta=0.5, seed=16)
        report = monte_carlo_speed(cfg, 4)
        cell = report.cells[0]
        assert cell.true_delta == 0.5
        assert cell.bias == pytest.approx(cell.mean - 0.5)
        assert cell.rmse >= abs(cell.bias) - 1e-12
        assert cell.estimates.size == 4
        assert cell.sd == pytest.approx(float(np.std(cell.estimates, ddof=1)), rel=1e-12)
        assert cell.sd > 0.0

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bad argument")

        monkeypatch.setattr(synthgen, "estimate_speed", broken)
        with pytest.raises(TypeError, match="bad argument"):
            monte_carlo_speed(SynthConfig(n_firms=20, t_max=5, seed=19), 2)

    def test_estimator_failures_counted_with_reasons(self, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DesignError("no within-group variation for column(s): sizeat")

        monkeypatch.setattr(synthgen, "estimate_speed", degenerate)
        report = monte_carlo_speed(SynthConfig(n_firms=20, t_max=5, seed=19), 2)
        assert report.n_failed == 2
        assert report.failures == [
            f"replication {i}: DesignError: no within-group variation for column(s): sizeat"
            for i in range(2)
        ]
        assert report.cells[0].n_failed == 2
        assert render_recovery(report).endswith(
            "[failed]\n" + "\n".join(report.failures) + "\n"
        )

    def test_skipped_regimes_counted_with_reasons(self):
        # one constant macro year repeated: no recession years, and the growth
        # subset has constant macro columns
        cfg = SynthConfig(n_firms=40, t_max=6, delta=(0.7, 0.3),
                          macro_path=((2.0, 1.5),) * 6, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # skips are reported, not warned
            report = monte_carlo_speed(cfg, 2)
        assert [c.estimates.size for c in report.cells] == [0, 0]
        assert report.failures == [
            f"replication {i}: {reason}"
            for i in range(2)
            for reason in (
                "growth skipped: degenerate subset: zero-variance column(s): "
                "inflation, gdp_rate",
                "recession skipped: 0 usable rows < required 60 (6 coefficients)",
            )
        ]
        assert "failed: 4" in render_recovery(report)

    def test_needs_one_replication(self):
        with pytest.raises(ConfigError):
            monte_carlo_speed(SynthConfig(seed=17), 0)

    def test_median_estimates_converge_with_size(self):
        # with symmetric errors the median-fit parameter error shrinks as
        # the panel grows; checked at two sizes with fixed seeds
        spec = TargetModelSpec(
            leverage="book", determinants=("profta", "liqta", "sizeat"),
            thetas=(0.5,),
        )
        errors = []
        for n_firms in (100, 500):
            cfg = SynthConfig(n_firms=n_firms, t_max=14, delta=0.6, seed=18)
            panel, _ = generate_panel(cfg)
            res = estimate_speed(panel, spec)[0]
            fit = res.fit
            lag_err = abs(res.lag_coefficient - (1.0 - 0.6))
            slope_err = sum(
                abs(fit.coefficients[name] - 0.6 * cfg.beta[name])
                for name in cfg.beta
            )
            macro_err = sum(
                abs(fit.coefficients[name] - 0.6 * cfg.gamma[name])
                for name in cfg.gamma
            )
            errors.append(lag_err + slope_err + macro_err)
        assert errors[1] < errors[0]
