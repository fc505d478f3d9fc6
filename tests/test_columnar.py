"""The columnar Panel against a per-row reference, and its read-only arrays."""
import numpy as np
import pytest

from levquant import (
    FirmYearRecord,
    MacroYear,
    derive_variables,
    lag_leverage,
)

from conftest import ingest_records

# firm -> years present; B's first year directly follows A's last, B skips
# 2006, D's 2001 statement is unusable, A's 2002 market equity is unknown
LAYOUT = {
    "A": (2001, 2002, 2003),
    "B": (2004, 2005, 2007, 2008),
    "C": (2003,),
    "D": (2000, 2001, 2002, 2003),
}
UNUSABLE = {("D", 2001)}
NO_MARKET_EQUITY = {("A", 2002)}


def unbalanced_records():
    rng = np.random.default_rng(12)
    recs = []
    for firm, years in LAYOUT.items():
        for year in years:
            at = 0.0 if (firm, year) in UNUSABLE else float(rng.uniform(50, 150))
            mkt = None if (firm, year) in NO_MARKET_EQUITY else float(rng.uniform(20, 90))
            recs.append(FirmYearRecord(
                firm_id=firm, fiscal_year=year, total_assets=at,
                book_debt=float(rng.uniform(5, 60)), market_equity=mkt,
                current_assets=20.0, current_liabilities=10.0, ebit=8.0,
                interest_payable=1.0, income_tax=1.5,
                sales=float(rng.uniform(10, 90)), net_ppe=float(rng.uniform(10, 50)),
                depreciation=float(rng.uniform(1, 5)),
            ))
    rng.shuffle(recs)
    return recs


def reference(records):
    """growthat, invta, levb_lag, levm_lag per usable (firm, year), one row
    at a time: growth and investment from the previous record, lags from
    the previous derived row."""
    by_key = {(r.firm_id, r.fiscal_year): r for r in records}
    derived = {}
    for (firm, year), rec in sorted(by_key.items()):
        if rec.total_assets <= 0.0:
            continue
        prev = by_key.get((firm, year - 1))
        growth = invest = None
        if prev is not None:
            if prev.sales > 0.0:
                growth = rec.sales / prev.sales - 1.0
            invest = rec.net_ppe - prev.net_ppe + rec.depreciation
        levb = rec.book_debt / rec.total_assets
        levm = None
        if rec.market_equity is not None:
            levm = rec.book_debt / (rec.book_debt + rec.market_equity)
        derived[firm, year] = (growth, invest, levb, levm)
    out = {}
    for (firm, year), (growth, invest, _, _) in derived.items():
        prev_row = derived.get((firm, year - 1))
        lags = (None, None) if prev_row is None else prev_row[2:]
        out[firm, year] = (growth, invest) + lags
    return out


def derived_panel(records):
    years = sorted({r.fiscal_year for r in records})
    macro = {
        y: MacroYear(year=y, inflation=2.0, gdp_growth=1.0)
        for y in years
    }
    return derive_variables(ingest_records(records), macro, {y: 0.21 for y in years})


def lagged_panel(records):
    return lag_leverage(lag_leverage(derived_panel(records), "book"), "market")


def test_lag_dependent_columns_match_per_row_reference():
    records = unbalanced_records()
    panel = lagged_panel(records)
    want = reference(records)
    keys = list(zip(panel.firm_labels[panel.firm_codes].tolist(), panel.years.tolist()))
    assert keys == sorted(want)
    names = ("growthat", "invta", "levb_lag", "levm_lag")
    for j, name in enumerate(names):
        expected = [np.nan if want[k][j] is None else want[k][j] for k in keys]
        np.testing.assert_array_equal(panel.variable(name), expected, err_msg=name)
    # the tuple view carries the same values, None where absent
    for row in panel.rows:
        assert tuple(getattr(row, n) for n in names) == want[row.firm_id, row.fiscal_year]
    # the unusable record still feeds growth and investment ...
    assert want["D", 2002][0] is not None and want["D", 2002][1] is not None
    # ... but no lag; and absent market equity gives an absent market lag
    assert want["D", 2002][2:] == (None, None)
    assert want["A", 2003][2] is not None and want["A", 2003][3] is None
    assert want["B", 2004] == (None, None, None, None)
    assert want["B", 2007] == (None, None, None, None)


def test_derived_rows_carry_the_lags_lag_leverage_recomputes():
    derived = derived_panel(unbalanced_records())
    relagged = lag_leverage(lag_leverage(derived, "book"), "market")
    for name in ("levb_lag", "levm_lag"):
        lags = derived.variable(name)
        assert not np.isnan(lags).all()
        np.testing.assert_array_equal(lags, relagged.variable(name), err_msg=name)
    assert derived.rows == relagged.rows


def test_panel_arrays_reject_in_place_writes():
    panel = lagged_panel(unbalanced_records())
    arrays = [panel.variable(n) for n in ("levb", "growthat", "levm_lag")]
    arrays += [panel.years, panel.firm_codes, panel.firm_labels]
    sub = panel.subset(panel.years > 2002)
    arrays += [sub.variable("levb"), sub.years, sub.firm_codes]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]
