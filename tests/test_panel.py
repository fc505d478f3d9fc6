import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from levquant import (
    ConfigError,
    DataValidationError,
    ErrorSpec,
    FirmYearRecord,
    MacroYear,
    Panel,
    SynthConfig,
    correlation_matrix,
    derive_variables,
    design_from_panel,
    generate_panel,
    ingest_panel,
    read_macro_csv,
    read_panel_csv,
    yearly_means,
)

from levquant.panel import RAW_ITEMS

from conftest import ingest_records


def record(firm="F1", year=2000, at=200.0, debt=50.0, mkt_eq=150.0, act=80.0,
           lct=40.0, ebit=100.0, ip=10.0, txt=21.0, sale=100.0, ppent=100.0,
           dp=15.0):
    return FirmYearRecord(
        firm_id=firm, fiscal_year=year, total_assets=at, book_debt=debt,
        market_equity=mkt_eq, current_assets=act, current_liabilities=lct,
        ebit=ebit, interest_payable=ip, income_tax=txt, sales=sale,
        net_ppe=ppent, depreciation=dp,
    )


def macro_for(years, inflation=3.0, gdp=2.0):
    return {
        y: MacroYear(year=y, inflation=inflation, gdp_growth=gdp)
        for y in years
    }


def simple_panel(**kw):
    recs = [record(year=2000), record(year=2001, sale=110.0, ppent=120.0)]
    panel = ingest_records(recs)
    return derive_variables(panel, macro_for([2000, 2001]), {2000: 0.21, 2001: 0.21}, **kw)


class TestIngest:
    def test_clean_two_firms_three_years(self):
        recs = [record(firm=f, year=y) for f in ("A", "B") for y in (2000, 2001, 2002)]
        panel = ingest_records(recs)
        assert len(panel.records) == 6
        assert panel.validation.n_rejected == 0
        assert panel.firms == ("A", "B")
        assert panel.year_span == (2000, 2002)

    def test_year_span_of_an_empty_panel_is_none(self):
        panel = ingest_panel([], [], {name: [] for name in RAW_ITEMS})
        assert len(panel) == 0
        assert panel.year_span is None

    def test_duplicate_rejected(self):
        panel = ingest_records([record(), record()])
        assert len(panel.records) == 1
        assert panel.validation.n_rejected == 1
        assert "duplicate" in panel.validation.rejected[0][1]

    def test_blank_firm_ids_rejected_and_ids_stripped(self):
        # two blank ids must not become one firm whose statements are chained
        items = {name: [100.0] * 4 for name in RAW_ITEMS}
        panel = ingest_panel(["", "  ", " A ", ""], [2001, 2002, 2001, 2001], items)
        assert panel.firms == ("A",)
        assert [r.firm_id for r in panel.records] == ["A"]
        assert panel.validation.n_read == 4
        assert panel.validation.n_accepted == 1
        assert panel.validation.rejected == [
            (("", 2001), "empty firm_id"),
            (("", 2002), "empty firm_id"),
            (("", 2001), "empty firm_id"),
        ]

    @pytest.mark.parametrize("missing", [None, float("nan"), np.float64("nan")],
                             ids=["none", "nan", "numpy-nan"])
    @pytest.mark.parametrize("container", [list, lambda ids: np.array(ids, dtype=object)],
                             ids=["list", "object-array"])
    def test_none_and_nan_firm_ids_rejected(self, missing, container):
        # str() would name them "None" and "nan", a firm of their own
        items = {name: [100.0] * 3 for name in RAW_ITEMS}
        panel = ingest_panel(container(["A", missing, "B"]), [2001, 2001, 2001], items)
        assert panel.firms == ("A", "B")
        assert panel.validation.rejected == [(("", 2001), "empty firm_id")]

    def test_zero_assets_flagged_and_excluded_from_derivation(self):
        recs = [record(), record(year=2001, at=0.0)]
        panel = ingest_records(recs)
        assert panel.validation.n_flagged == 1
        derived = derive_variables(panel, macro_for([2000, 2001]), {2000: 0.21, 2001: 0.21})
        assert len(derived.rows) == 1
        assert derived.rows[0].fiscal_year == 2000

    def test_one_flag_per_unusable_record_in_input_order(self):
        recs = [
            record(year=2002, debt=-1.0),
            record(year=2000, at=0.0, debt=-5.0),  # fails both: named by its assets
            record(year=2001),
            record(year=2003, debt=0.0),  # no debt is usable
        ]
        panel = ingest_records(recs)
        assert panel.validation.flagged == [
            (("F1", 2002), "book_debt < 0: unusable"),
            (("F1", 2000), "total_assets <= 0: unusable"),
        ]
        years = [2000, 2001, 2002, 2003]
        derived = derive_variables(panel, macro_for(years), dict.fromkeys(years, 0.21))
        assert derived.years.tolist() == [2001, 2003]
        kept = derived.subset([False, True])
        assert [(r.fiscal_year, r.book_debt) for r in kept.records] == [(2003, 0.0)]
        assert kept.rows[0].levb == 0.0

    def test_interleaved_duplicates_rejected_in_input_order_first_kept(self):
        recs = [
            record(firm="B", year=2001, at=1.0), record(firm="A", year=2000, at=2.0),
            record(firm="B", year=2001, at=3.0), record(firm="A", year=2000, at=4.0),
            record(firm="B", year=2000, at=5.0), record(firm="A", year=2000, at=6.0),
            record(firm="B", year=2001, at=7.0),
        ]
        panel = ingest_records(recs)
        dup = "duplicate (firm_id, fiscal_year)"
        assert panel.validation.rejected == [
            (("B", 2001), dup), (("A", 2000), dup), (("A", 2000), dup), (("B", 2001), dup),
        ]
        assert panel.validation.n_read == 7 and panel.validation.n_accepted == 3
        assert [(r.firm_id, r.fiscal_year, r.total_assets) for r in panel.records] == [
            ("A", 2000, 2.0), ("B", 2000, 5.0), ("B", 2001, 1.0),
        ]

    def test_firm_labels_sort_by_code_point(self):
        firms = ["é", "b", "B", "a10", "a9"]
        panel = ingest_records([record(firm=f) for f in firms])
        assert panel.firms == tuple(sorted(firms)) == ("B", "a10", "a9", "b", "é")

    def test_report_keys_are_plain_str_and_int(self):
        from levquant.reports import render_validation

        items = {name: np.full(3, 100.0) for name in FirmYearRecord._fields[2:]}
        items["book_debt"] = np.array([10.0, -1.0, 10.0])
        panel = ingest_panel(np.array(["B", "A", "B"]), np.array([2001, 2000, 2001]), items)
        keys = [key for key, _ in panel.validation.rejected + panel.validation.flagged]
        assert [(type(f), type(y)) for f, y in keys] == [(str, int), (str, int)]
        assert render_validation(panel.validation).splitlines()[-5:] == [
            "[rejected]",
            "('B', 2001): duplicate (firm_id, fiscal_year)",
            "",
            "[flagged]",
            "('A', 2000): book_debt < 0: unusable",
        ]

    def test_columns_must_match_the_firm_ids(self):
        items = {name: [100.0, 100.0] for name in FirmYearRecord._fields[2:]}
        with pytest.raises(DataValidationError, match="sales: 1 values for 2 firm ids"):
            ingest_panel(["A", "B"], [2000, 2000], {**items, "sales": [100.0]})
        with pytest.raises(DataValidationError, match="fiscal_years: 3 values"):
            ingest_panel(["A", "B"], [2000, 2001, 2002], items)
        del items["depreciation"]
        with pytest.raises(DataValidationError, match="raw item 'depreciation' missing"):
            ingest_panel(["A", "B"], [2000, 2000], items)

    @pytest.mark.parametrize("years", [
        [2001.0, 2001.9],  # was truncated to a duplicate of (A, 2001)
        [2001.5, 2002.7],  # was truncated to 2001 and 2002
        [2001.0, float("nan")],  # was cast to year -2**63
        [2001.0, float("inf")],
        [2001.0, 1e19],  # outside int64
    ])
    def test_years_must_be_integral(self, years):
        items = {name: [100.0, 100.0] for name in FirmYearRecord._fields[2:]}
        with pytest.raises(DataValidationError, match="is not an integral int64 year"):
            ingest_panel(["A", "A"], years, items)

    def test_integral_float_years_are_kept(self):
        items = {name: [100.0, 100.0] for name in FirmYearRecord._fields[2:]}
        panel = ingest_panel(["A", "A"], np.array([2002.0, 2001.0]), items)
        assert panel.years.tolist() == [2001, 2002]

    def test_negative_book_debt_never_reaches_the_rows(self):
        # shocks this large drive book leverage below zero in some years
        cfg = SynthConfig(n_firms=20, t_max=6, error=ErrorSpec(sigma=0.2), seed=13)
        panel, _ = generate_panel(cfg)
        negative = [(r.firm_id, r.fiscal_year) for r in panel.records if r.book_debt < 0.0]
        assert len(negative) == 7
        assert panel.validation.flagged == [(k, "book_debt < 0: unusable") for k in negative]
        assert not (panel.variable("levb") < 0.0).any()
        assert len(panel.rows) == len(panel.records) - 7


class TestDeriveVariables:
    def test_variable_needs_derivation(self):
        panel = ingest_records([record(year=2000), record(year=2001)])
        with pytest.raises(DataValidationError, match="not derived yet"):
            panel.variable("levb")

    def test_rows_are_none_before_derivation(self):
        panel = ingest_records([record(year=2000), record(year=2001)])
        assert panel.rows is None
        assert len(derive_variables(
            panel, macro_for([2000, 2001]), {2000: 0.21, 2001: 0.21}
        ).rows) == 2

    def test_unknown_variable_named(self):
        with pytest.raises(KeyError, match="unknown variable 'leverage'"):
            simple_panel().variable("leverage")

    def test_book_leverage_ratio(self):
        panel = simple_panel()
        assert panel.rows[0].levb == pytest.approx(0.25)

    def test_market_leverage_ratio(self):
        panel = simple_panel()
        # debt 50, market equity 150 -> 50 / 200
        assert panel.rows[0].levm == pytest.approx(0.25)

    def test_ndts_formula(self):
        # ebit 100 - ip 10 - txt 21 / rate 0.21 = -10, exact
        panel = simple_panel()
        assert panel.rows[0].ndts == -10.0

    def test_investment_proxy(self):
        panel = simple_panel()
        # ppent 120 - 100 + dp 15
        assert panel.rows[1].invta == pytest.approx(35.0)
        assert panel.rows[0].invta is None

    def test_growth_rate(self):
        panel = simple_panel()
        assert panel.rows[1].growthat == pytest.approx(0.10)
        assert panel.rows[0].growthat is None

    def test_size_is_log_sales(self):
        panel = simple_panel()
        assert panel.rows[0].sizeat == pytest.approx(math.log(100.0))

    def test_liquidity_ratio(self):
        panel = simple_panel()
        assert panel.rows[0].liqta == pytest.approx(2.0)

    def test_profitability_ratio(self):
        panel = simple_panel()
        assert panel.rows[0].profta == pytest.approx(0.5)

    def test_market_to_book(self):
        panel = simple_panel()
        assert panel.rows[0].mbratio == pytest.approx(200.0 / 200.0)

    def test_missing_market_equity_levm_absent(self):
        panel = ingest_records([record(mkt_eq=None)])
        derived = derive_variables(panel, macro_for([2000]), {2000: 0.21})
        assert derived.rows[0].levm is None
        assert derived.rows[0].mbratio is None
        assert derived.rows[0].levb == pytest.approx(0.25)

    def test_nonpositive_sales_size_absent(self):
        panel = ingest_records([record(sale=0.0)])
        derived = derive_variables(panel, macro_for([2000]), {2000: 0.21})
        assert derived.rows[0].sizeat is None

    def test_size_has_np_log_bytes_and_nan_without_positive_sales(self):
        # lognormal sales, with the draws where np.log and math.log differ
        # in the last bit, plus zero and negative sales, which give NaN and
        # no warning
        rng = np.random.default_rng(31)
        draws = rng.lognormal(3.0, 2.0, size=200_000)
        differ = draws[np.log(draws) != np.array([math.log(v) for v in draws.tolist()])]
        assert differ.size > 0
        sales = np.concatenate([draws[:500], differ, [0.0, -0.0, -5.0]])
        records = [record(firm=f"F{i}", sale=float(v)) for i, v in enumerate(sales)]
        panel = ingest_records(records)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            derived = derive_variables(panel, macro_for([2000]), {2000: 0.21})
        by_firm = {f"F{i}": v for i, v in enumerate(sales)}  # rows sort by firm
        got = derived.variable("sizeat")
        want = np.array([by_firm[f] for f in derived.firm_labels[derived.firm_codes]])
        positive = want > 0.0
        assert positive.sum() == 500 + differ.size
        assert got[positive].tobytes() == np.log(want[positive]).tobytes()
        assert np.isnan(got[~positive]).all()

    def test_zero_current_liabilities_liqta_absent(self):
        panel = ingest_records([record(lct=0.0)])
        derived = derive_variables(panel, macro_for([2000]), {2000: 0.21})
        assert derived.rows[0].liqta is None

    def test_missing_tax_rate_is_hard_error(self):
        panel = ingest_records([record()])
        with pytest.raises(ConfigError, match="tax rate"):
            derive_variables(panel, macro_for([2000]), {1999: 0.21})

    @pytest.mark.parametrize("rate", [0.0, -0.21])
    def test_nonpositive_tax_rate_is_config_error(self, rate):
        panel = ingest_records([record()])
        with pytest.raises(ConfigError, match="tax rate must be positive"):
            derive_variables(panel, macro_for([2000]), {2000: rate})

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_tax_rate_is_config_error(self, rate):
        # an infinite rate drops txt/tax_rate from ndts; a NaN one empties it
        panel = ingest_records([record()])
        with pytest.raises(ConfigError, match="tax rate must be positive and finite"):
            derive_variables(panel, macro_for([2000]), {2000: rate})

    @pytest.mark.parametrize("limits", [(0.9, 0.1), (0.5, 0.5), (-0.1, 0.9), (0.1, 1.5)])
    def test_bad_winsorization_limits_are_config_error(self, limits):
        with pytest.raises(ConfigError, match="bad winsorization limits"):
            simple_panel(winsorize=limits)

    def test_missing_macro_year_is_error(self):
        panel = ingest_records([record()])
        with pytest.raises(DataValidationError, match="macro"):
            derive_variables(panel, macro_for([2001]), {2000: 0.21})

    def test_gap_breaks_lag_chain(self):
        recs = [record(year=2000), record(year=2002, sale=120.0)]
        panel = ingest_records(recs)
        derived = derive_variables(panel, macro_for([2000, 2002]),
                                   {2000: 0.21, 2002: 0.21})
        assert derived.rows[1].growthat is None
        assert derived.rows[1].invta is None

    def test_idempotent(self):
        panel = simple_panel()
        again = derive_variables(panel, macro_for([2000, 2001]), {2000: 0.21, 2001: 0.21})
        assert again.rows == panel.rows

    def test_row_count_identity(self):
        # rows with growth = total - firm-first-years - post-gap rows
        recs = []
        for firm, years in (("A", [2000, 2001, 2002]), ("B", [2000, 2002, 2003]),
                            ("C", [2005])):
            recs += [record(firm=firm, year=y) for y in years]
        panel = ingest_records(recs)
        all_years = sorted({r.fiscal_year for r in recs})
        derived = derive_variables(
            panel, macro_for(all_years), {y: 0.21 for y in all_years}
        )
        with_growth = sum(r.growthat is not None for r in derived.rows)
        first_years = 3
        post_gap = 1  # B's 2002
        assert with_growth == len(derived.rows) - first_years - post_gap

    def test_currency_rescaling(self):
        panel = simple_panel()
        c = 1000.0
        scaled_recs = [
            FirmYearRecord(
                firm_id=r.firm_id, fiscal_year=r.fiscal_year,
                total_assets=r.total_assets * c, book_debt=r.book_debt * c,
                market_equity=None if r.market_equity is None else r.market_equity * c,
                current_assets=r.current_assets * c,
                current_liabilities=r.current_liabilities * c,
                ebit=r.ebit * c, interest_payable=r.interest_payable * c,
                income_tax=r.income_tax * c, sales=r.sales * c,
                net_ppe=r.net_ppe * c, depreciation=r.depreciation * c,
            )
            for r in panel.records
        ]
        scaled = derive_variables(
            ingest_records(scaled_recs), macro_for([2000, 2001]), {2000: 0.21, 2001: 0.21}
        )
        for a, b in zip(panel.rows, scaled.rows):
            for ratio in ("levb", "levm", "profta", "liqta", "mbratio"):
                assert getattr(b, ratio) == pytest.approx(getattr(a, ratio), rel=1e-12)
            assert b.sizeat - a.sizeat == pytest.approx(math.log(c), rel=1e-9)
            assert b.ndts == pytest.approx(a.ndts * c, rel=1e-12)
            if a.invta is not None:
                assert b.invta == pytest.approx(a.invta * c, rel=1e-12)
            if a.growthat is not None:
                assert b.growthat == pytest.approx(a.growthat, rel=1e-12)

    def test_winsorization_off_by_default(self):
        recs = [record(year=2000 + i, ebit=float(v) * 2.0)
                for i, v in enumerate([1, 2, 3, 4, 1000])]
        years = [r.fiscal_year for r in recs]
        panel = ingest_records(recs)
        plain = derive_variables(panel, macro_for(years), {y: 0.21 for y in years})
        assert max(r.profta for r in plain.rows) == pytest.approx(10.0)
        clipped = derive_variables(
            panel, macro_for(years), {y: 0.21 for y in years}, winsorize=(0.1, 0.9)
        )
        assert max(r.profta for r in clipped.rows) < 10.0


def build_variable_panel(values_by_var, years=None):
    """Panel whose derived levb/profta hit the requested values exactly."""
    n = len(next(iter(values_by_var.values())))
    years = years or [2000] * n
    recs = []
    for i in range(n):
        at = 100.0
        recs.append(
            record(
                firm=f"F{i}", year=years[i],
                debt=values_by_var.get("levb", [0.5] * n)[i] * at,
                ebit=values_by_var.get("profta", [0.1] * n)[i] * at,
                at=at,
            )
        )
    panel = ingest_records(recs)
    all_years = sorted(set(years))
    return derive_variables(panel, macro_for(all_years), {y: 0.21 for y in all_years})


class TestYearlyMeans:
    def test_two_point_mean(self):
        panel = build_variable_panel({"levb": [0.1, 0.2]})
        ym = yearly_means(panel, variables=("levb",))
        assert ym.values[0, 0] == pytest.approx(0.15)

    def test_all_row_is_grand_mean(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.05, 0.9, size=20).tolist()
        years = [2000 + (i % 4) for i in range(20)]
        panel = build_variable_panel({"levb": values}, years=years)
        ym = yearly_means(panel, variables=("levb",))
        assert ym.values[-1, 0] == pytest.approx(sum(values) / len(values), abs=1e-12)
        for i, year in enumerate(ym.years):
            manual = [v for v, y in zip(values, years) if y == year]
            assert ym.values[i, 0] == pytest.approx(sum(manual) / len(manual), abs=1e-12)

    def test_absent_variable_cell_marked_missing(self):
        panel = ingest_records([record(mkt_eq=None)])
        panel = derive_variables(panel, macro_for([2000]), {2000: 0.21})
        ym = yearly_means(panel, variables=("levm",))
        assert math.isnan(ym.values[0, 0])

    def test_empty_year_omitted(self):
        panel = build_variable_panel({"levb": [0.1, 0.2]}, years=[2000, 2005])
        ym = yearly_means(panel, variables=("levb",))
        assert ym.years == (2000, 2005)


def brute_force_pearson(x, y):
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    n = x.size
    mx, my = sum(x) / n, sum(y) / n
    sxy = sum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = sum((a - mx) ** 2 for a in x)
    syy = sum((b - my) ** 2 for b in y)
    return sxy / math.sqrt(sxx * syy), n


class TestCorrelation:
    def test_perfect_anticorrelation(self):
        panel = build_variable_panel(
            {"levb": [0.1, 0.2, 0.3], "profta": [0.3, 0.2, 0.1]}
        )
        cm = correlation_matrix(panel, variables=("levb", "profta"))
        assert cm.r[0, 1] == pytest.approx(-1.0, abs=1e-12)
        assert cm.p[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_exact(self):
        panel = build_variable_panel({"levb": [0.1, 0.5, 0.3, 0.7]})
        cm = correlation_matrix(panel, variables=("levb",))
        assert cm.r[0, 0] == 1.0
        assert cm.p[0, 0] == 0.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(50)
        levb = rng.uniform(0.01, 0.95, 50)
        profta = 0.4 * levb + rng.normal(0, 0.1, 50)
        panel = build_variable_panel(
            {"levb": levb.tolist(), "profta": profta.tolist()}
        )
        cm = correlation_matrix(panel, variables=("levb", "profta"))
        want, n = brute_force_pearson(panel.variable("levb"), panel.variable("profta"))
        assert abs(cm.r[0, 1] - want) <= 1e-12
        assert cm.n[0, 1] == n
        # p from the t transform, checked independently
        from scipy.stats import t as tdist

        tval = want * math.sqrt((n - 2) / (1 - want * want))
        assert cm.p[0, 1] == pytest.approx(2 * tdist.sf(abs(tval), n - 2), abs=1e-15)

    def test_symmetric_unit_diagonal_bounded(self):
        rng = np.random.default_rng(51)
        levb = rng.uniform(0.05, 0.9, 40)
        profta = rng.normal(0.1, 0.05, 40)
        panel = build_variable_panel(
            {"levb": levb.tolist(), "profta": profta.tolist()}
        )
        cm = correlation_matrix(panel)
        finite = ~np.isnan(cm.r)
        assert np.all(np.abs(cm.r[finite]) <= 1.0 + 1e-15)
        assert_allclose(cm.r, cm.r.T, equal_nan=True)
        assert_allclose(cm.p, cm.p.T, equal_nan=True)

    def test_too_few_pairs_undefined(self):
        panel = build_variable_panel({"levb": [0.1, 0.2]})
        cm = correlation_matrix(panel, variables=("levb", "profta"))
        assert math.isnan(cm.r[0, 1])

    def test_zero_variance_undefined(self):
        panel = build_variable_panel({"levb": [0.1, 0.2, 0.3], "profta": [0.1, 0.1, 0.1]})
        cm = correlation_matrix(panel, variables=("levb", "profta"))
        assert math.isnan(cm.r[0, 1])
        assert math.isnan(cm.r[1, 1])

    def test_underflowing_sum_of_squares_undefined(self):
        # a non-zero range whose squared deviations (~1e-401) underflow to 0
        profta = [0.0, 1e-200, 0.0, 1e-200, 0.0]
        panel = build_variable_panel({"levb": [0.1, 0.2, 0.3, 0.4, 0.6], "profta": profta})
        assert np.ptp(panel.variable("profta")) > 0.0
        cm = correlation_matrix(panel, variables=("levb", "profta"))
        assert math.isnan(cm.r[0, 1]) and math.isnan(cm.r[1, 0])
        assert math.isnan(cm.p[0, 1])
        assert cm.n[0, 1] == 5


class TestCsvIO:
    def test_round_trip(self, tmp_path):
        from levquant import write_panel_csv

        panel = simple_panel()
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert back.records == panel.records

    def test_round_trip_quotes_ids_with_commas_quotes_and_newlines(self, tmp_path):
        from levquant import write_panel_csv

        ids = ["Acme, Inc", 'The "B" Co', "C\nD", "plain"]
        panel = ingest_records([record(firm=f) for f in ids])
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        back = read_panel_csv(path)
        assert back.validation.rejected == []
        assert back.records == panel.records
        assert sorted(back.firms) == sorted(ids)

    def test_round_trip_quotes_a_file_with_a_carriage_return_in_an_id(self, tmp_path):
        from levquant import write_panel_csv

        ids = ["a\rb", "plain"]
        panel = ingest_records([record(firm=f) for f in ids])
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert path.read_bytes().startswith(b'"firm_id","fyear",')
        back = read_panel_csv(path)
        assert back.validation.rejected == []
        assert back.records == panel.records
        assert sorted(back.firms) == sorted(ids)

    def test_malformed_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        good = "F1,2000,200,50,150,80,40,100,10,21,100,100,15"
        bad = "F2,2000,not_a_number,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\n{good}\n{bad}\n")
        panel = read_panel_csv(path)
        assert len(panel.records) == 1
        assert panel.validation.n_rejected == 1

    def test_truncated_line_rejected_with_its_line_number(self, tmp_path):
        path = tmp_path / "truncated.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        good = "F1,2000,200,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\n{good}\nB,2001,200,50\n{good.replace('2000', '2001')}\n")
        panel = read_panel_csv(path)
        assert [r.fiscal_year for r in panel.records] == [2000, 2001]
        assert panel.validation.n_read == 3
        assert panel.validation.rejected == [("line 3", "too few fields")]

    def test_overlong_line_rejected_with_its_line_number(self, tmp_path):
        # e.g. a thousands separator in a number shifts every later value
        path = tmp_path / "overlong.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        good = "F1,2000,200,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\nF1,2000,200,50,150,80,40,100,10,21,100,100,15,999,7\n{good}\n")
        panel = read_panel_csv(path)
        assert [r.fiscal_year for r in panel.records] == [2000]
        assert panel.validation.n_read == 2
        assert panel.validation.rejected == [("line 2", "too many fields")]

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        good = "F1,2000,200,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\n{good}\nF2,2000,inf,50,150,80,40,100,10,21,100,100,15\n"
                        "F3,2000,200,nan,150,80,40,100,10,21,100,100,15\n")
        panel = read_panel_csv(path)
        assert [r.firm_id for r in panel.records] == ["F1"]
        assert panel.validation.rejected == [
            ("line 3", "malformed value: non-finite"), ("line 4", "malformed value: non-finite"),
        ]

    def test_year_outside_int64_rejected_with_its_line_number(self, tmp_path):
        path = tmp_path / "years.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        items = "200,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\nF1,2000,{items}\nF2,99999999999999999999,{items}\n"
                        f"F3,-9223372036854775809,{items}\nF4,9223372036854775807,{items}\n")
        panel = read_panel_csv(path)
        assert [(r.firm_id, r.fiscal_year) for r in panel.records] == [
            ("F1", 2000), ("F4", 2**63 - 1),
        ]
        assert panel.validation.rejected == [
            ("line 3", "malformed value: year 99999999999999999999 outside int64"),
            ("line 4", "malformed value: year -9223372036854775809 outside int64"),
        ]

    def test_every_line_malformed_gives_an_empty_panel(self, tmp_path):
        path = tmp_path / "all_bad.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        path.write_text(f"{header}\nF1,2000,x,50,150,80,40,100,10,21,100,100,15\n"
                        "F2,2000,200\nF3,20x0,200,50,150,80,40,100,10,21,100,100,15\n")
        panel = read_panel_csv(path)
        assert len(panel) == 0 and panel.records == ()
        assert panel.validation.n_read == 3 and panel.validation.n_accepted == 0
        assert [line for line, _ in panel.validation.rejected] == ["line 2", "line 3", "line 4"]
        assert panel.validation.flagged == []

    @pytest.mark.parametrize("other", ["F3,2003", "F3,20x3"])
    def test_blank_firm_id_rejected_with_its_line_number(self, tmp_path, other):
        # "F3,20x3" sends the block down the row-by-row parse before the ids are seen
        path = tmp_path / "blank_ids.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        items = "200,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\nF1,2000,{items}\n,2001,{items}\n  ,2002,{items}\n"
                        f"{other},{items}\n")
        panel = read_panel_csv(path)
        assert panel.validation.rejected[:2] == [
            ("line 3", "malformed value: empty firm_id"),
            ("line 4", "malformed value: empty firm_id"),
        ]
        assert "" not in panel.firm_labels.tolist()
        assert [r.fiscal_year for r in panel.records] == [2000] + [2003] * (other == "F3,2003")

    def test_reject_names_the_physical_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        header = "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp"
        good = "F1,2000,200,50,150,80,40,100,10,21,100,100,15"
        path.write_text(f"{header}\n{good}\n\nF2,2000,x,50,150,80,40,100,10,21,100,100,15\n"
                        "F3,2000,200\n")
        panel = read_panel_csv(path)
        assert panel.validation.n_read == 3
        assert panel.validation.rejected == [
            ("line 4", "malformed value: could not convert string to float: 'x'"),
            ("line 5", "too few fields"),
        ]

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("firm_id,fyear,at\nF1,2000,10\n")
        with pytest.raises(DataValidationError, match="missing column"):
            read_panel_csv(path)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n")
        with pytest.raises(DataValidationError, match="no data rows"):
            read_panel_csv(path)

    def test_macro_values_read(self, tmp_path):
        path = tmp_path / "macro.csv"
        path.write_text(
            "year,cpi_inflation,gdp_growth\n2001,1.8,-0.3\n2000,2.1,2.1\n"
        )
        assert read_macro_csv(path) == {
            2000: MacroYear(year=2000, inflation=2.1, gdp_growth=2.1),
            2001: MacroYear(year=2001, inflation=1.8, gdp_growth=-0.3),
        }


class TestDesignFromPanel:
    def _three_year_panel(self, third_mkt_eq=150.0):
        recs = [
            record(year=2000, ebit=90.0),
            record(year=2001, ebit=110.0, sale=110.0),
            record(year=2002, ebit=70.0, sale=105.0, mkt_eq=third_mkt_eq),
        ]
        macro = {
            y: MacroYear(year=y, inflation=float(i), gdp_growth=2.0)
            for i, y in enumerate([2000, 2001, 2002], start=1)
        }
        return derive_variables(ingest_records(recs), macro, {y: 0.21 for y in macro})

    def test_listwise_deletion(self):
        panel = self._three_year_panel(third_mkt_eq=None)
        design, firms, years = design_from_panel(panel, "levm", ("profta",))
        assert design.n == 2
        assert years.tolist() == [2000, 2001]

    def test_macro_series_are_row_columns(self):
        years = (2000, 2001, 2002)
        recs = [record(firm=f, year=y) for f in ("A", "B") for y in years]
        macro = {
            y: MacroYear(year=y, inflation=1.0 + i, gdp_growth=-1.5 + i)
            for i, y in enumerate(years)
        }
        panel = derive_variables(ingest_records(recs), macro, dict.fromkeys(years, 0.21))
        row_years = panel.years.tolist()
        gdp = [macro[y].gdp_growth for y in row_years]
        np.testing.assert_array_equal(panel.variable("gdp_rate"), gdp)
        np.testing.assert_array_equal(panel.variable("gdp_growth"), gdp)
        np.testing.assert_array_equal(
            panel.variable("inflation"), [macro[y].inflation for y in row_years]
        )

    def test_macro_variables_resolve_by_year(self):
        panel = self._three_year_panel()
        design, _, _ = design_from_panel(panel, "levb", ("profta", "inflation"))
        assert design.names == ("profta", "inflation")
        assert_allclose(design.X[:, 1], [1.0, 2.0, 3.0])


    def test_no_complete_rows_is_error(self):
        # one firm-year per firm: no row has a lag
        years = [2000, 2001, 2002]
        recs = [record(firm=firm, year=year) for firm, year in zip("ABC", years)]
        panel = derive_variables(ingest_records(recs), macro_for(years), {y: 0.21 for y in years})
        with pytest.raises(DataValidationError, match="no complete rows for levb ~ levb_lag"):
            design_from_panel(panel, "levb", ("levb_lag",))


class TestCsvValidation:
    def test_malformed_macro_value_names_path_and_line(self, tmp_path):
        path = tmp_path / "macro.csv"
        path.write_text("year,cpi_inflation,gdp_growth\n2000,2.1,2.1\n2001,x,1.0\n")
        with pytest.raises(DataValidationError, match=r"macro\.csv: line 3: malformed"):
            read_macro_csv(path)

    @pytest.mark.parametrize("name,text", [
        ("macro.csv", "year,cpi_inflation,gdp_growth\n2000,2.1,2.1\n99999999999999999999,1,1\n"),
        ("tax.csv", "year,tax_rate\n2000,0.21\n99999999999999999999,0.25\n"),
    ])
    def test_year_outside_int64_names_path_and_line(self, tmp_path, name, text):
        # the years of every input file parse as the firm-year reader's do
        from levquant import read_tax_csv

        path = tmp_path / name
        path.write_text(text)
        reader = read_macro_csv if name == "macro.csv" else read_tax_csv
        with pytest.raises(DataValidationError, match=(
            rf"{name}: line 3: malformed value: year 99999999999999999999 outside int64"
        )):
            reader(path)

    def test_malformed_tax_year_names_path_and_line(self, tmp_path):
        from levquant import read_tax_csv

        path = tmp_path / "tax.csv"
        path.write_text("year,tax_rate\n20x1,0.21\n")
        with pytest.raises(DataValidationError, match=r"tax\.csv: line 2: malformed"):
            read_tax_csv(path)

    @pytest.mark.parametrize("name,text", [
        ("macro.csv", "year,cpi_inflation,gdp_growth\n2000,2.1,2.1\n2001,1,8,1.0\n"),
        ("tax.csv", "year,tax_rate\n2000,0.21\n2001,0,25\n"),
    ])
    def test_overlong_line_names_path_and_line(self, tmp_path, name, text):
        from levquant import read_tax_csv

        path = tmp_path / name
        path.write_text(text)
        reader = read_macro_csv if name == "macro.csv" else read_tax_csv
        with pytest.raises(DataValidationError, match=rf"{name}: line 3: too many fields"):
            reader(path)

    def test_tax_error_names_the_physical_line_after_a_blank_line(self, tmp_path):
        from levquant import read_tax_csv

        path = tmp_path / "tax.csv"
        path.write_text("year,tax_rate\n2000,0.21\n\n2001,x\n")
        with pytest.raises(DataValidationError, match=r"tax\.csv: line 4: malformed"):
            read_tax_csv(path)

    def test_duplicate_tax_year_rejected(self, tmp_path):
        from levquant import read_tax_csv

        path = tmp_path / "tax.csv"
        path.write_text("year,tax_rate\n2000,0.21\n2001,0.25\n2000,0.30\n")
        with pytest.raises(DataValidationError, match="duplicate year 2000"):
            read_tax_csv(path)
