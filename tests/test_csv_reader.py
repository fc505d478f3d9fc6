"""Differential test of the firm-year CSV reader: ``read_panel_csv`` parses
by block and by column, and must agree with a plain per-row
``csv.DictReader`` reading on seeded random files full of malformed lines."""
import csv
import math

import numpy as np
import pytest

from levquant import (
    DataValidationError, ingest_panel, read_macro_csv, read_panel_csv, read_tax_csv,
)
from levquant import panel as panel_module
from levquant.panel import PANEL_COLUMNS, RAW_ITEMS


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def _optional(text):
    text = text.strip()
    return _finite(text) if text else None


def _firm_id(text):
    if not text.strip():
        raise ValueError("empty firm_id")
    return text.strip()


PARSERS = {"firm_id": _firm_id, "fyear": int, "mkt_eq": _optional}


def reference_read(path):
    """One row at a time through csv.DictReader, each line named by
    ``line_num``: the reading that read_panel_csv must reproduce."""
    rejects, cells = [], [[] for _ in PANEL_COLUMNS]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in PANEL_COLUMNS if c not in header]
        if missing:
            raise DataValidationError(f"{path}: missing column(s): {', '.join(missing)}")
        n = 0
        for row in reader:
            n += 1
            line = f"line {reader.line_num}"
            if None in row:
                rejects.append((line, "too many fields"))
                continue
            if any(row[c] is None for c in PANEL_COLUMNS):
                rejects.append((line, "too few fields"))
                continue
            try:
                values = [PARSERS.get(c, _finite)(row[c]) for c in PANEL_COLUMNS]
            except ValueError as err:
                rejects.append((line, f"malformed value: {err}"))
                continue
            for column, value in zip(cells, values):
                column.append(value)
    if not n:
        raise DataValidationError(f"{path}: no data rows")
    firm_ids, years, *items = cells
    panel = ingest_panel(firm_ids, years, dict(zip(RAW_ITEMS, items)))
    panel.validation.n_read += len(rejects)
    panel.validation.rejected = rejects + panel.validation.rejected
    return panel


BAD_FLOATS = ("inf", "-inf", "nan", "1_000", "x", "", "1e400", "1,5")
BAD_YEARS = ("20x1", "2001.0", " 2001 ", "2_001", "")


def random_csv(rng, n_rows, *, repeat=None, extra=None, crlf=False):
    """A firm-year file of ``n_rows`` data lines in shuffled column order,
    with an ``extra`` last column and a ``repeat``ed header name if given, and
    damaged lines of every kind; the first and the last line are malformed,
    and the second has a blank firm id."""
    header = list(PANEL_COLUMNS)
    rng.shuffle(header)
    if extra:  # last, so that a line may leave it out
        header.append(extra)
    if repeat:
        header.insert(int(rng.integers(len(header) + 1)), repeat)
    # the fields a line needs: up to the last column of a name the reader reads
    need = 1 + max(len(header) - 1 - header[::-1].index(c) for c in PANEL_COLUMNS)
    keys = [(f"F{f:03d}", 2000 + y) for f in range(n_rows // 4 + 1) for y in range(4)]
    lines = []
    for i in range(n_rows):
        firm, year = keys[int(rng.integers(len(keys)))] if rng.random() < 0.05 else keys[i]
        values = {c: repr(float(rng.lognormal(3.0, 1.0))) for c in header}
        values["firm_id"] = rng.choice(["", " ", "  "]) + firm + rng.choice(["", " "])
        if i == 1:  # a blank id, which names no firm
            values["firm_id"] = "  "
        values["fyear"] = str(year)
        if rng.random() < 0.2:
            values["mkt_eq"] = rng.choice(["", "  "])
        if extra:
            values[extra] = rng.choice(["note", '"a, b"', '"two\nlines"', ""])
        if rng.random() < 0.1:
            values["at"] = f"  {values['at']} "
        kind = rng.random()
        if i in (0, n_rows - 1):  # malformed, and on one physical line
            kind = 1.0
            if extra:
                values[extra] = "note"
            values["at" if i == 0 else "fyear"] = "x"
        if kind < 0.02:
            values[rng.choice(PANEL_COLUMNS[2:])] = rng.choice(BAD_FLOATS)
        elif kind < 0.04:
            values["fyear"] = rng.choice(BAD_YEARS)
        elif kind < 0.05:
            values["debt"] = "-5.0"  # parses; ingest flags it
        elif kind < 0.06:
            values["at"] = "0"
        fields = [values[c] for c in header]
        if repeat:  # the first column of a repeated name is never read
            fields[header.index(repeat)] = repr(float(rng.lognormal()))
        if 0.06 <= kind < 0.08:
            fields = fields[: int(rng.integers(1, len(fields)))]  # short
        elif 0.08 <= kind < 0.1:
            fields += ["9"] * int(rng.integers(1, 3))  # long
        elif 0.1 <= kind < 0.12:
            fields = fields[:need]  # short, but of unread columns only
        lines.append(",".join(fields))
        if rng.random() < 0.03:
            lines.append("")  # blank line
    end = "\r\n" if crlf else "\n"
    return end.join([",".join(header), *lines]) + end


def last_line(text):
    return f"line {text.rstrip().count(chr(10)) + 1}"


def assert_same_panel(got, want):
    assert got.validation == want.validation
    assert got.firm_labels[got._record_firm].tolist() == want.firm_labels[want._record_firm].tolist()
    assert got._record_year.tolist() == want._record_year.tolist()
    for name in RAW_ITEMS:
        np.testing.assert_array_equal(got._items[name], want._items[name], err_msg=name)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("block", [5, 64])
def test_blocked_read_matches_the_per_row_reading(tmp_path, monkeypatch, seed, block):
    monkeypatch.setattr(panel_module, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(seed)
    variants = [
        {}, {"extra": "note"}, {"repeat": "at"}, {"repeat": "firm_id", "extra": "x"},
        {"repeat": "note", "extra": "note"}, {"crlf": True, "extra": "note"},
    ]
    path = tmp_path / "panel.csv"
    text = random_csv(rng, int(rng.integers(20, 300)), **variants[seed])
    path.write_text(text, newline="")
    want = reference_read(path)
    lines = [line for line, _ in want.validation.rejected]
    assert lines[0] == "line 2" and last_line(text) in lines
    assert_same_panel(read_panel_csv(path), want)


def test_default_blocks_match_the_per_row_reading(tmp_path):
    rng = np.random.default_rng(99)
    path = tmp_path / "panel.csv"
    text = random_csv(rng, 3 * panel_module._BLOCK_ROWS + 17, extra="note")
    path.write_text(text, newline="")
    want = reference_read(path)
    lines = [line for line, _ in want.validation.rejected]
    assert lines[0] == "line 2" and last_line(text) in lines
    assert want.validation.n_rejected > 100 and want.validation.n_flagged > 10
    assert_same_panel(read_panel_csv(path), want)


@pytest.mark.parametrize("text", [
    "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n",
    "firm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n\n\n",
    "firm_id,fyear,at\nF1,2000,10\n",
    "\nfirm_id,fyear,at,debt,mkt_eq,act,lct,ebit,ip,txt,sale,ppent,dp\n",
    "",
])
def test_schema_errors_match_the_per_row_reading(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text)
    with pytest.raises(DataValidationError) as want:
        reference_read(path)
    with pytest.raises(DataValidationError) as got:
        read_panel_csv(path)
    assert str(got.value) == str(want.value)


def test_a_byte_order_mark_reads_like_the_file_without_it(tmp_path):
    # Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order mark
    rng = np.random.default_rng(7)
    texts = {
        "panel": random_csv(rng, 40, extra="note"),
        "macro": "year,cpi_inflation,gdp_growth\n2000,2.5,3.0\n2001,1.5,-0.5\n",
        "tax": "year,tax_rate\n2000,0.35\n2001,0.3\n",
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.csv").write_text(text, newline="")
        (tmp_path / f"{name}_bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert_same_panel(
        read_panel_csv(tmp_path / "panel_bom.csv"), read_panel_csv(tmp_path / "panel.csv")
    )
    for name, read in (("macro", read_macro_csv), ("tax", read_tax_csv)):
        assert read(tmp_path / f"{name}_bom.csv") == read(tmp_path / f"{name}.csv")
