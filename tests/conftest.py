"""Helpers shared by the test modules."""
from levquant import FirmYearRecord, ingest_panel


def ingest_records(records):
    """``ingest_panel`` on a list of FirmYearRecords, passed as columns."""
    firm_ids, years, *items = zip(*records)
    return ingest_panel(firm_ids, years, dict(zip(FirmYearRecord._fields[2:], items)))


def rows_for(panel, firm_id):
    """The derived rows of one firm, in panel order."""
    return tuple(row for row in panel.rows if row.firm_id == firm_id)
