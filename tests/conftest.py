"""Helpers shared by the test modules."""
from levquant import FirmYearRecord, ingest_panel


def ingest_records(records):
    """``ingest_panel`` on a list of FirmYearRecords, passed as columns."""
    firm_ids, years, *items = zip(*records)
    return ingest_panel(firm_ids, years, dict(zip(FirmYearRecord._fields[2:], items)))
