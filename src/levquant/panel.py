"""Firm-year panel ingestion, variable construction, and descriptives.

Input schema (comma-separated, header row), one row per firm-year:

    firm_id, fyear, at, debt, mkt_eq, act, lct, ebit, ip, txt, sale, ppent, dp

``mkt_eq`` may be empty (market equity unknown).  Macro series schema:
``year, cpi_inflation, gdp_growth``; tax-rate table schema:
``year, tax_rate``.  Derived ratios follow the standard panel definitions:
book leverage debt/at, market leverage debt/(debt + market equity),
profitability ebit/at, size ln(sales), liquidity act/lct, growth the annual
rate of change of sales, non-debt tax shields ebit - ip - txt/tax_rate, and
investment ppent_t - ppent_{t-1} + dp_t.
"""
from __future__ import annotations

import csv
import enum
import itertools
import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import stdtr

from .errors import ConfigError, DataValidationError
from .quantreg import DesignMatrix
from .reports import _csv_float

# CSV column tables, shared by each schema's reader and writer; the firm-year
# columns are in FirmYearRecord field order
PANEL_COLUMNS = (
    "firm_id", "fyear", "at", "debt", "mkt_eq", "act", "lct",
    "ebit", "ip", "txt", "sale", "ppent", "dp",
)
MACRO_COLUMNS = ("year", "cpi_inflation", "gdp_growth")
TAX_COLUMNS = ("year", "tax_rate")

# canonical derived-variable order (matching the descriptive tables)
VARIABLES = (
    "levb", "levm", "ndts", "growthat", "invta",
    "profta", "sizeat", "liqta", "mbratio",
)
MACRO_VARIABLES = ("inflation", "gdp_rate")
# the constant tax rate of a run or a synthetic panel without a per-year table
DEFAULT_TAX_RATE = 0.21
# the row column behind each macro variable name (gdp_rate is gdp_growth)
_MACRO_FIELDS = {"inflation": "inflation", "gdp_rate": "gdp_growth", "gdp_growth": "gdp_growth"}
_LEVERAGE_VAR = {"book": "levb", "market": "levm"}  # the leverage variable of each kind
# the names a regression can take as predictors: derived and macro variables
REGRESSORS = VARIABLES + tuple(_MACRO_FIELDS)


class Regime(enum.Enum):
    Growth = "growth"
    Recession = "recession"


@dataclass(frozen=True)
class RegimeRule:
    """Year is a recession iff gdp growth falls below the threshold."""

    threshold: float = 0.0

    def __post_init__(self):  # +-inf are allowed: every year a recession, or none
        if math.isnan(self.threshold):
            raise ConfigError("regime threshold is NaN: no gdp growth compares with it")

    def is_recession(self, gdp_growth):  # a scalar or an array of gdp growth
        return np.asarray(gdp_growth) < self.threshold

    def classify(self, gdp_growth):
        return Regime.Recession if self.is_recession(gdp_growth) else Regime.Growth


class FirmYearRecord(NamedTuple):
    """One raw statement; ``ingest_panel`` reads the raw items from
    ``total_assets`` on as columns under these field names."""

    firm_id: str
    fiscal_year: int
    total_assets: float
    book_debt: float
    market_equity: float | None
    current_assets: float
    current_liabilities: float
    ebit: float
    interest_payable: float
    income_tax: float
    sales: float
    net_ppe: float
    depreciation: float


@dataclass(frozen=True)
class MacroYear:
    year: int
    inflation: float
    gdp_growth: float


@dataclass(frozen=True)
class ObservationRow:
    firm_id: str
    fiscal_year: int
    levb: float
    levm: float | None
    ndts: float
    profta: float
    sizeat: float | None
    growthat: float | None
    invta: float | None
    liqta: float | None
    mbratio: float | None
    levb_lag: float | None = None
    levm_lag: float | None = None


@dataclass
class ValidationReport:
    n_read: int = 0
    n_accepted: int = 0
    rejected: list = field(default_factory=list)  # (key, reason)
    flagged: list = field(default_factory=list)   # (key, reason)

    @property
    def n_rejected(self):
        return len(self.rejected)

    @property
    def n_flagged(self):
        return len(self.flagged)


RAW_ITEMS = FirmYearRecord._fields[2:]  # the item columns that ingest_panel takes
_ROW_ITEMS = tuple(f.name for f in fields(ObservationRow))[2:]


# the conditions a usable record meets, on the raw item columns; an unusable
# record is flagged with the reason of the first condition it fails
_USABLE_IF = (
    (lambda items: items["total_assets"] > 0.0, "total_assets <= 0: unusable"),
    (lambda items: ~(items["book_debt"] < 0.0), "book_debt < 0: unusable"),
)


def _is_usable(items):
    return np.logical_and.reduce([meets(items) for meets, _ in _USABLE_IF])


def _frozen(array):
    array.flags.writeable = False
    return array


def _shift_year(firm, year, values):
    """``values`` moved one position down within each firm: entry i holds
    the value of entry i-1 when that is the same firm's immediately
    preceding year, NaN otherwise.  Entries are sorted by (firm, year)."""
    out = np.full(values.shape, np.nan)
    follows = (firm[1:] == firm[:-1]) & (year[1:] == year[:-1] + 1)
    out[1:][follows] = values[:-1][follows]
    return out


def lag_leverage(panel, kind="book"):
    """Attach each row's previous-year leverage of the given kind, taken
    within the rows of ``panel``; ``derive_variables`` attaches both kinds.

    The lag exists only when the same firm has the immediately preceding
    fiscal year with that leverage present; firm-first years and post-gap
    years carry no lag and drop out of adjustment designs.
    """
    if kind not in _LEVERAGE_VAR:
        raise ConfigError(f"leverage must be 'book' or 'market', got {kind!r}")
    var = _LEVERAGE_VAR[kind]
    lag = _shift_year(panel.firm_codes, panel.years, panel.variable(var))
    return panel._with_columns({var + "_lag": lag})


def _absent_as_none(column):
    return [None if math.isnan(v) else v for v in column.tolist()]


class Panel:
    """Firm-year panel as read-only numpy columns sorted by (firm, year).

    Records are the accepted raw statements, one float column per raw item.
    ``derive_variables`` adds rows: the usable records (positive total
    assets, book debt not negative) with one float column per derived
    variable, leverage lag and macro series of the row's year, NaN where
    absent.  ``firm_codes`` (indexing the sorted ``firm_labels``) and
    ``years`` describe the rows, or the records before derivation.
    ``records`` and ``rows`` are tuple views.
    """

    def __init__(self, firm_labels, firm_codes, years, items, *, columns=None, validation):
        self.firm_labels = _frozen(firm_labels)
        self._record_firm = _frozen(firm_codes)
        self._record_year = _frozen(years)
        self._items = {k: _frozen(v) for k, v in items.items()}
        self._columns = None if columns is None else {
            k: _frozen(v) for k, v in columns.items()
        }
        self.validation = validation
        if columns is None:
            self.firm_codes, self.years = self._record_firm, self._record_year
        else:
            usable = self._usable
            self.firm_codes = _frozen(self._record_firm[usable])
            self.years = _frozen(self._record_year[usable])

    @cached_property
    def _usable(self):  # the records that become rows
        return _frozen(_is_usable(self._items))

    def __len__(self):
        return len(self.years)

    @property
    def firms(self):
        return tuple(self.firm_labels[np.unique(self.firm_codes)].tolist())

    @property
    def year_span(self):
        if not len(self):
            return None
        return (int(self.years.min()), int(self.years.max()))

    def _view(self, cls, names, codes, years, columns):
        values = [self.firm_labels[codes].tolist(), years.tolist()]
        values += [_absent_as_none(columns[name]) for name in names]
        return tuple(cls(*v) for v in zip(*values))

    @cached_property
    def records(self):
        """The accepted raw statements as FirmYearRecord tuples."""
        return self._view(
            FirmYearRecord, RAW_ITEMS, self._record_firm, self._record_year,
            self._items,
        )

    @cached_property
    def rows(self):
        """The derived rows as ObservationRow tuples; None before
        ``derive_variables``."""
        if self._columns is None:
            return None
        return self._view(
            ObservationRow, _ROW_ITEMS, self.firm_codes, self.years, self._columns
        )

    def _need_rows(self):
        if self._columns is None:
            raise DataValidationError(
                "variables not derived yet: run derive_variables first"
            )

    def variable(self, name):
        """Read-only column of a derived, lag or macro variable as a float
        array with NaN for absent values."""
        self._need_rows()
        try:
            return self._columns[_MACRO_FIELDS.get(name, name)]
        except KeyError:
            raise KeyError(
                f"unknown variable {name!r}; available: "
                f"{', '.join(VARIABLES)}, levb_lag, levm_lag, "
                f"{', '.join(MACRO_VARIABLES)}"
            ) from None

    def _with_columns(self, columns):
        return Panel(
            self.firm_labels, self._record_firm, self._record_year, self._items,
            columns={**(self._columns or {}), **columns}, validation=self.validation,
        )

    def subset(self, keep_mask):
        """New panel of the derived rows, lags included, where ``keep_mask`` is
        true (records of the surviving firm-years are kept alongside)."""
        self._need_rows()
        keep = np.asarray(keep_mask, dtype=bool)
        recs = np.flatnonzero(self._usable)[keep]
        return Panel(
            self.firm_labels, self._record_firm[recs], self._record_year[recs],
            {k: v[recs] for k, v in self._items.items()},
            columns={k: v[keep] for k, v in self._columns.items()}, validation=self.validation,
        )


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def ingest_panel(firm_ids, fiscal_years, items):
    """Sort, deduplicate, and flag raw firm-year statements given as columns.

    ``firm_ids`` and ``fiscal_years`` hold one entry per statement;
    ``items`` maps each raw item name (the FirmYearRecord fields from
    ``total_assets`` on) to a column of the same length, NaN or None where a
    value is absent.  A year that is not an integer within int64 raises
    ``DataValidationError``.  Ids are stripped; an empty, None or NaN id or a
    duplicate (firm, year) key is rejected (first occurrence wins); unusable records
    (non-positive total assets or negative book debt) stay in the panel but
    are flagged and excluded from derived variables.  Both lists are in
    input order.
    """
    if not (isinstance(firm_ids, np.ndarray) and firm_ids.dtype.kind == "U"):
        # str() names a None or NaN id "None" or "nan": it is blank instead
        firm_ids = ["" if i is None or i != i else i for i in firm_ids]
    firm_ids = np.char.strip(np.asarray(firm_ids, dtype=str))
    years = np.asarray(fiscal_years)
    if years.dtype.kind != "i":  # the int64 cast would truncate, wrap or invent a year
        value = years.astype(float)
        bad = ~((value == np.trunc(value)) & (-(2.0**63) <= value) & (value < 2.0**63))
        if bad.any():
            raise DataValidationError(
                f"fiscal_years: {value[bad][0].item()} is not an integral int64 year"
            )
    years = years.astype(np.int64, copy=False)
    try:
        raw = {name: np.asarray(items[name], dtype=float) for name in RAW_ITEMS}
    except KeyError as err:
        raise DataValidationError(f"raw item {err} missing") from None
    n = len(firm_ids)
    for name, column in {"fiscal_years": years, **raw}.items():
        if len(column) != n:
            raise DataValidationError(f"{name}: {len(column)} values for {n} firm ids")
    labels, codes = np.unique(firm_ids, return_inverse=True)
    order = np.lexsort((years, codes))  # stable: equal keys keep input order
    sorted_codes, sorted_years = codes[order], years[order]
    same = (sorted_codes[1:] == sorted_codes[:-1]) & (sorted_years[1:] == sorted_years[:-1])
    first = np.ones(n, dtype=bool)  # per statement: no earlier one has its key
    first[order[1:][same]] = False
    blank = firm_ids == ""
    first &= ~blank  # a blank id is rejected, never kept as a key
    keep = order[first[order]]  # the first occurrences, sorted by key
    fails = [~meets(raw) for meets, _ in _USABLE_IF]
    reasons = np.select(fails, [reason for _, reason in _USABLE_IF], "")
    flagged = np.flatnonzero(first & (reasons != ""))
    rejected = np.flatnonzero(~first)
    why = np.where(blank[rejected], "empty firm_id", "duplicate (firm_id, fiscal_year)")
    report = ValidationReport(
        n_read=n, n_accepted=len(keep),
        rejected=list(zip(_keys(firm_ids, years, rejected), why.tolist())),
        flagged=list(zip(_keys(firm_ids, years, flagged), reasons[flagged].tolist())),
    )
    raw = {name: column[keep] for name, column in raw.items()}
    return Panel(labels, codes[keep], years[keep], raw, validation=report)


def _keys(firm_ids, years, index):  # plain (str, int) tuples, as reports print them
    return list(zip(firm_ids[index].tolist(), years[index].tolist()))


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


_BLOCK_ROWS = 4096  # data lines per block of a CSV read: bounds a columnar parse's memory


def _read_csv(path, columns):
    """Yield the data rows of a CSV file whose header must name every one of
    ``columns``, in blocks of up to ``_BLOCK_ROWS`` lines.  A block is
    (lines, rows, rejects): the line number and the cells of ``columns``
    (a tuple in that order) of each row whose field count fits the header,
    and (line number, problem) for each row whose count does not.  Line
    numbers are physical lines; as in csv.DictReader, blank lines are
    skipped and a name the header repeats means its last column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in columns if c not in header]
        if missing:
            raise DataValidationError(
                f"{path}: missing column(s): {', '.join(missing)}"
            )
        index = {name: i for i, name in enumerate(header)}
        pick = operator.itemgetter(*(index[c] for c in columns))
        need, width = max(index[c] for c in columns) + 1, len(header)
        lines, rows, rejects = [], [], []
        empty = True
        for row in reader:
            if not row:
                continue
            if need <= len(row) <= width:
                lines.append(reader.line_num)
                rows.append(pick(row))
            else:
                problem = "too many fields" if len(row) > width else "too few fields"
                rejects.append((reader.line_num, problem))
            if len(lines) + len(rejects) == _BLOCK_ROWS:
                yield lines, rows, rejects
                lines, rows, rejects = [], [], []
                empty = False
    if lines or rejects:
        yield lines, rows, rejects
    elif empty:
        raise DataValidationError(f"{path}: no data rows")


def _read_years(path, columns, parse):
    """year -> parse(*cells) for each data row of a CSV file keyed by year,
    the cells being those of ``columns`` after the year."""
    out = {}
    for lines, rows, rejects in _read_csv(path, columns):
        for lineno, row in sorted([*zip(lines, rows), *rejects]):
            if isinstance(row, str):  # a field count's problem
                raise DataValidationError(f"{path}: line {lineno}: {row}")
            try:
                year = _parse_year(row[0])
                value = parse(*row[1:])
            except ValueError as err:
                raise DataValidationError(
                    f"{path}: line {lineno}: malformed value: {err}"
                ) from None
            if year in out:
                raise DataValidationError(f"{path}: duplicate year {year}")
            out[year] = value
    return out


def _parse_optional(text):
    text = text.strip()
    return _parse_float(text) if text else None


_YEARS = range(-(2**63), 2**63)  # the years a panel holds: int64


def _parse_firm_id(text):
    firm = text.strip()
    if not firm:
        raise ValueError("empty firm_id")
    return firm


def _parse_year(text):
    year = int(text)
    if year not in _YEARS:
        raise ValueError(f"year {year} outside int64")
    return year


# the parser of each firm-year cell that is not a finite float
_PANEL_PARSERS = {"firm_id": _parse_firm_id, "fyear": _parse_year, "mkt_eq": _parse_optional}
_FLOAT_COLUMNS = tuple(c for c in PANEL_COLUMNS if c not in _PANEL_PARSERS)


def _parse_columns(rows):
    """Firm ids, years and the raw item columns of firm-year rows, parsed
    column by column; raises ValueError if any cell does not parse."""
    n = len(rows)
    cells = dict(zip(PANEL_COLUMNS, zip(*rows))) if n else dict.fromkeys(PANEL_COLUMNS, ())
    floats = np.fromiter(
        map(float, itertools.chain.from_iterable(cells[c] for c in _FLOAT_COLUMNS)),
        dtype=float, count=n * len(_FLOAT_COLUMNS),
    )
    if not np.isfinite(floats).all():
        raise ValueError("non-finite")
    items = dict(zip(_FLOAT_COLUMNS, floats.reshape(len(_FLOAT_COLUMNS), n)))
    items["mkt_eq"] = np.array([_parse_optional(t) for t in cells["mkt_eq"]], dtype=float)
    firm_ids = list(map(_parse_firm_id, cells["firm_id"]))
    years = list(map(_parse_year, cells["fyear"]))
    return firm_ids, years, [items[c] for c in PANEL_COLUMNS[2:]]


def _parse_rows(lines, rows):
    """The rows whose every cell parses, and a reject naming the first
    malformed value of each other row."""
    good, rejects = [], []
    for lineno, row in zip(lines, rows):
        try:
            for column, text in zip(PANEL_COLUMNS, row):
                _PANEL_PARSERS.get(column, _parse_float)(text)
        except ValueError as err:
            rejects.append((lineno, f"malformed value: {err}"))
        else:
            good.append(row)
    return good, rejects


def read_panel_csv(path):
    """Read the firm-year CSV into a Panel, collecting row-level rejections."""
    firm_ids, years, items, parse_rejects = [], [], [[] for _ in RAW_ITEMS], []
    for lines, rows, rejects in _read_csv(path, PANEL_COLUMNS):
        try:
            block_ids, block_years, block_items = _parse_columns(rows)
        except ValueError:  # row by row, so that each malformed line is named
            rows, malformed = _parse_rows(lines, rows)
            rejects = sorted(rejects + malformed)
            block_ids, block_years, block_items = _parse_columns(rows)
        firm_ids += block_ids
        years += block_years
        for column, values in zip(items, block_items):
            column.append(values)
        parse_rejects += [(f"line {lineno}", problem) for lineno, problem in rejects]
    panel = ingest_panel(
        np.array(firm_ids, dtype=str), years,
        {name: np.concatenate(c) for name, c in zip(RAW_ITEMS, items)},
    )
    panel.validation.n_read += len(parse_rejects)
    panel.validation.rejected = parse_rejects + panel.validation.rejected
    return panel


def read_macro_csv(path):
    """Read the macro series as a year -> MacroYear mapping."""
    series = _read_years(
        path, MACRO_COLUMNS, lambda infl, gdp: (_parse_float(infl), _parse_float(gdp))
    )
    return {
        year: MacroYear(year=year, inflation=infl, gdp_growth=gdp)
        for year, (infl, gdp) in sorted(series.items())
    }


def read_tax_csv(path):
    return _read_years(path, TAX_COLUMNS, _parse_float)


def _write_csv(path, columns, lines):
    # the writer quotes a cell holding a comma, a quote or a newline, but not
    # a bare carriage return, which a reader takes for a line end: a file
    # with one has every cell quoted
    lines = list(lines)
    quoting = csv.QUOTE_ALL if any("\r" in c for line in lines for c in line) else csv.QUOTE_MINIMAL
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(columns)
        writer.writerows(lines)


def write_panel_csv(panel, path):
    """Write a panel's accepted raw statements in the firm-year schema; the
    file reads back to the same records."""
    cells = [
        panel.firm_labels[panel._record_firm].tolist(),
        map(str, panel._record_year.tolist()),
    ]
    cells += [map(_csv_float, panel._items[name].tolist()) for name in RAW_ITEMS]
    _write_csv(path, PANEL_COLUMNS, zip(*cells))


def write_macro_csv(macro, path):
    _write_csv(path, MACRO_COLUMNS, (
        (str(year), _csv_float(macro[year].inflation), _csv_float(macro[year].gdp_growth))
        for year in sorted(macro)
    ))


def write_tax_csv(rates, path):
    _write_csv(
        path, TAX_COLUMNS, ((str(year), _csv_float(rates[year])) for year in sorted(rates))
    )


# ---------------------------------------------------------------------------
# variable derivation
# ---------------------------------------------------------------------------


def _winsorize(columns, limits):
    lo_q, hi_q = limits
    if not (0.0 <= lo_q < hi_q <= 1.0):
        raise ConfigError(f"bad winsorization limits {limits}")
    for name in VARIABLES:
        col = columns[name]
        vals = col[~np.isnan(col)]
        if len(vals) >= 2:
            lo = float(np.quantile(vals, lo_q))
            hi = float(np.quantile(vals, hi_q))
            # the ties of min(max(v, lo), hi); NaN stays absent
            col = np.where(lo > col, lo, col)
            columns[name] = np.where(hi < col, hi, col)


def derive_variables(panel, macro, tax_rate_by_year, winsorize=None):
    """Attach all derivable regression variables to a panel's usable rows.

    ``macro`` is a year -> MacroYear mapping that must cover every usable
    year; its series become row columns.  ``tax_rate_by_year`` is a year ->
    rate mapping that must cover every usable year, each rate in (0, inf).
    Lag-dependent variables (growth, investment, both leverage lags) need
    the same firm's immediately preceding fiscal year; a gap breaks the
    chain.  Idempotent: re-running on its own output reproduces it.
    """
    raw = panel._items
    usable = panel._usable
    years = panel._record_year[usable]
    # checked year by year in row order, so the first bad row names the error
    per_year = {}  # year -> (tax rate, inflation, gdp growth)
    for year in dict.fromkeys(years.tolist()):
        if year not in macro:
            raise DataValidationError(f"no macro data for year {year}")
        try:
            rate = tax_rate_by_year[year]
        except KeyError:
            raise ConfigError(f"no tax rate for year {year}") from None
        if not 0.0 < rate < np.inf:  # NaN fails both comparisons
            raise ConfigError(f"tax rate must be positive and finite, got {rate}")
        per_year[year] = (rate, macro[year].inflation, macro[year].gdp_growth)
    distinct, inverse = np.unique(years, return_inverse=True)
    table = np.array([per_year[y] for y in distinct.tolist()], dtype=float).reshape(-1, 3)
    tax_rate, inflation, gdp_growth = table[inverse].T

    # growth and investment read the preceding record, usable or not
    keys = (panel._record_firm, panel._record_year)
    prev_sales = _shift_year(*keys, raw["sales"])[usable]
    prev_ppe = _shift_year(*keys, raw["net_ppe"])[usable]
    x = {name: col[usable] for name, col in raw.items()}
    ta, debt, mkt = x["total_assets"], x["book_debt"], x["market_equity"]
    sales, lct = x["sales"], x["current_liabilities"]
    denom = debt + mkt
    nan = np.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        columns = {
            "levb": debt / ta,
            "levm": np.where(denom != 0.0, debt / denom, nan),
            "ndts": x["ebit"] - x["interest_payable"] - x["income_tax"] / tax_rate,
            "profta": x["ebit"] / ta,
            # np.log(0) is -inf, not NaN, so the mask is needed; np.log, as
            # synthgen uses, may differ from math.log in the last bit
            "sizeat": np.where(sales > 0.0, np.log(sales), nan),
            "growthat": np.where(prev_sales > 0.0, sales / prev_sales - 1.0, nan),
            "invta": x["net_ppe"] - prev_ppe + x["depreciation"],
            "liqta": np.where(lct != 0.0, x["current_assets"] / lct, nan),
            "mbratio": denom / ta,
        }
    if winsorize is not None:
        _winsorize(columns, winsorize)
    columns["inflation"], columns["gdp_growth"] = inflation, gdp_growth
    return lag_leverage(lag_leverage(panel._with_columns(columns), "book"), "market")


# ---------------------------------------------------------------------------
# descriptives
# ---------------------------------------------------------------------------


@dataclass
class YearlyMeans:
    years: tuple       # fiscal years with at least one usable row
    variables: tuple
    values: np.ndarray  # (len(years) + 1, len(variables)); last row = All

    def row_labels(self):
        return tuple(str(y) for y in self.years) + ("All",)


def yearly_means(panel, variables=VARIABLES):
    """Per-year variable means plus an over-all-rows grand mean row.

    Means run over rows where the variable is present; a cell with no
    observations is NaN (rendered with an explicit marker downstream).
    """
    panel._need_rows()
    row_years = panel.years
    years = np.unique(row_years).tolist()
    cols = {v: panel.variable(v) for v in variables}
    values = np.full((len(years) + 1, len(variables)), np.nan)
    for i, year in enumerate(years):
        in_year = row_years == year
        for j, v in enumerate(variables):
            vals = cols[v][in_year]
            vals = vals[~np.isnan(vals)]
            if vals.size:
                values[i, j] = vals.mean()
    for j, v in enumerate(variables):
        vals = cols[v][~np.isnan(cols[v])]
        if vals.size:
            values[-1, j] = vals.mean()
    return YearlyMeans(tuple(years), tuple(variables), values)


@dataclass
class CorrelationMatrix:
    names: tuple
    r: np.ndarray
    p: np.ndarray
    n: np.ndarray

    @property
    def k(self):
        return len(self.names)


def _t_two_sided_p(t, df):
    """2 * P(T > |t|) on ``df`` degrees of freedom: scipy.stats.t.sf's own
    special function, without the import of scipy.stats."""
    return 2.0 * float(stdtr(df, -abs(t)))


_MIN_PAIRS = 3  # the complete pairs a correlation cell needs


def correlation_matrix(panel, variables=None):
    """Pairwise-complete Pearson correlations with two-sided p-values.

    p comes from t = r * sqrt((n-2)/(1-r^2)) on n-2 degrees of freedom.
    Cells with fewer than ``_MIN_PAIRS`` complete pairs or zero variance are
    undefined (NaN).  The diagonal is exactly (r=1, p=0).
    """
    if variables is None:
        variables = ("levm", "levb", "ndts", "growthat", "invta", "profta",
                     "sizeat", "liqta", "mbratio") + MACRO_VARIABLES
    cols = [panel.variable(v) for v in variables]
    k = len(variables)
    r = np.full((k, k), np.nan)
    p = np.full((k, k), np.nan)
    n = np.zeros((k, k), dtype=int)
    for i in range(k):
        xi = cols[i]
        present = ~np.isnan(xi)
        n[i, i] = int(present.sum())
        if n[i, i] >= _MIN_PAIRS and np.ptp(xi[present]) > 0.0:
            r[i, i] = 1.0
            p[i, i] = 0.0
        for j in range(i + 1, k):
            xj = cols[j]
            both = present & ~np.isnan(xj)
            m = int(both.sum())
            n[i, j] = n[j, i] = m
            if m < _MIN_PAIRS:
                continue
            a, b = xi[both], xj[both]
            if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
                continue
            sa = a - a.mean()
            sb = b - b.mean()
            va = float(sa @ sa)
            vb = float(sb @ sb)
            if va == 0.0 or vb == 0.0:
                continue
            rij = float(sa @ sb) / math.sqrt(va * vb)
            rij = min(1.0, max(-1.0, rij))
            r[i, j] = r[j, i] = rij
            if abs(rij) >= 1.0:
                pij = 0.0
            else:
                t = rij * math.sqrt((m - 2) / (1.0 - rij * rij))
                pij = _t_two_sided_p(t, m - 2)
            p[i, j] = p[j, i] = pij
    return CorrelationMatrix(tuple(variables), r, p, n)


# ---------------------------------------------------------------------------
# regression design construction
# ---------------------------------------------------------------------------


def _present(*columns):  # the rows where every column has a value
    return np.logical_and.reduce([~np.isnan(c) for c in columns])


def complete_rows(panel, response, predictors):
    """Mask of the rows with the response and every predictor present: the
    rows that ``design_from_panel`` keeps."""
    return _present(*(panel.variable(v) for v in (response, *predictors)))


def design_from_panel(panel, response, predictors):
    """Listwise-complete design for a panel regression.

    Returns the DesignMatrix, the firm label per row, and the fiscal year
    per row.  Rows missing the response or any predictor are dropped.
    """
    yv, *cols = (panel.variable(v) for v in (response, *predictors))
    keep = _present(yv, *cols)
    if not keep.any():
        raise DataValidationError(
            f"no complete rows for {response} ~ {' + '.join(predictors)}"
        )
    X = np.column_stack([c[keep] for c in cols])
    firms = panel.firm_labels[panel.firm_codes[keep]]
    years = panel.years[keep]
    design = DesignMatrix(names=tuple(predictors), X=X, y=yv[keep])
    return design, firms, years
