"""Reading and writing the tabular patient-data format.

The file is comma-separated UTF-8 with a header row. Required columns (case
insensitive): PatID, LVEF, HFrEF, HFmrEF, HFpEF, Weight, HF diagnosis,
NT pro-BNP, Diabetes, CKD, Outcome, WBC, hsTNT, IL-6, Urea, Beta-Blocker,
ACE-I/ARNI, SGLT-2, MRA, Timestamp. Extra columns are carried along as text
attributes. An empty cell means the value is absent; numbers are ASCII
with no ``_`` digit separator, and must be finite (``nan`` and ``inf`` are
rejected).
"""

import csv
import io
import math
from datetime import date

from .errors import PathminerError, RowError, SchemaError
from .model import CLINICAL_FIELDS, Outcome, PatientDatum

# Column name -> PatientDatum field, in canonical file order.
COLUMNS: tuple[tuple[str, str], ...] = (
    ("PatID", "pat_id"),
    ("LVEF", "lvef"),
    ("HFrEF", "hfref"),
    ("HFmrEF", "hfmref"),
    ("HFpEF", "hfpef"),
    ("Weight", "weight"),
    ("HF diagnosis", "hf_diagnosis_year"),
    ("NT pro-BNP", "nt_pro_bnp"),
    ("Diabetes", "diabetes"),
    ("CKD", "ckd"),
    ("Outcome", "outcome"),
    ("WBC", "wbc"),
    ("hsTNT", "hstnt"),
    ("IL-6", "il6"),
    ("Urea", "urea"),
    ("Beta-Blocker", "beta_blocker"),
    ("ACE-I/ARNI", "acei_arni"),
    ("SGLT-2", "sglt2"),
    ("MRA", "mra"),
    ("Timestamp", "timestamp"),
)
# Lower-cased column name -> column name: header names match case-insensitively.
_REQUIRED = {column.lower(): column for column, _ in COLUMNS}

_INT_FIELDS = {"lvef", "hf_diagnosis_year"}
_BOOL_FIELDS = {"hfref", "hfmref", "hfpef", "diabetes", "ckd"}

# Cells and header names are trimmed of ASCII whitespace only: str.strip()
# would also drop U+00A0 or U+3000 from a PatID or around a number.
_SPACE = " \t\r\n\x0b\x0c"

_TRUE = {"1", "true"}
_FALSE = {"0", "false"}


def _parse_cell(field: str, text: str, row: int):
    if field == "pat_id":
        if not text:
            raise RowError(row, "PatID must not be empty")
        return text
    if not text:
        return None
    if field == "timestamp":
        try:
            return date.fromisoformat(text)
        except ValueError:
            raise RowError(row, f"bad date {text!r}, expected YYYY-MM-DD") from None
    if field == "outcome":
        try:
            return Outcome(text)
        except ValueError:
            raise RowError(row, f"unknown outcome label {text!r}") from None
    if field in _BOOL_FIELDS:
        lowered = text.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise RowError(row, f"bad boolean {text!r} in column for {field}")
    kind = "integer" if field in _INT_FIELDS else "number"
    try:
        if not text.isascii() or "_" in text:
            raise ValueError  # int() and float() take "8_0" and non-ASCII digits
        value = int(text) if field in _INT_FIELDS else float(text)
    except ValueError:
        raise RowError(row, f"bad {kind} {text!r} in column for {field}") from None
    if kind == "number" and not math.isfinite(value):
        raise RowError(row, f"non-finite number {text!r} in column for {field}")
    return value


def _record_error(record: int, message: str) -> PathminerError:
    """The error for a record: the header is record 0, as rows count from 1."""
    return RowError(record, message) if record else SchemaError(f"header row: {message}")


def _records(text: str):
    """(record number, cells) for each CSV record, the header being record 0.

    A record that the csv module refuses, such as one with a cell over its
    field size limit, raises its record's error.
    """
    number = 0
    try:
        for cells in csv.reader(io.StringIO(text)):
            yield number, cells
            number += 1
    except csv.Error as exc:
        raise _record_error(number, str(exc)) from None


def parse_patient_csv(data: bytes | str) -> list[PatientDatum]:
    """Parse a patient table into typed rows.

    Row indices are assigned in file order starting at 1 and are later used
    to break timestamp ties deterministically.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        # the record holding the byte
        record = sum(1 for _ in _records(data[: exc.start].decode("utf-8") + "x")) - 1
        message = f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        raise _record_error(record, message) from None
    records = _records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise SchemaError("empty file: header row required") from None

    named: dict[str, int] = {}  # header name -> position; a required column's is canonical
    for i, cell in enumerate(header):
        name = cell.strip(_SPACE)
        name = _REQUIRED.get(name.lower(), name)
        if name in CLINICAL_FIELDS:
            raise _record_error(0, f"column {name!r} names a clinical attribute")
        if name in named:
            raise _record_error(0, f"column {name!r} appears twice")
        if name:
            named[name] = i
    positions: dict[str, int] = {}
    for column, field in COLUMNS:
        if column not in named:
            raise SchemaError(f"missing required column {column!r}")
        positions[field] = named[column]
    known = set(positions.values())
    extras = [(name.strip(_SPACE), i) for i, name in enumerate(header) if i not in known]

    rows: list[PatientDatum] = []
    for row_index, cells in records:
        if not any(cell.strip(_SPACE) for cell in cells):
            continue
        values = {}
        for field, pos in positions.items():
            cell = cells[pos].strip(_SPACE) if pos < len(cells) else ""
            values[field] = _parse_cell(field, cell, row_index)
        if values["timestamp"] is None:
            raise RowError(row_index, "Timestamp must not be empty")
        extra = {}
        for name, pos in extras:
            cell = cells[pos].strip(_SPACE) if pos < len(cells) else ""
            if cell:
                extra[name] = cell
        try:
            rows.append(PatientDatum(row_index=row_index, extra=extra, **values))
        except Exception as exc:
            raise RowError(row_index, str(exc)) from None
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Outcome):
        return value.value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def write_patient_csv(rows) -> bytes:
    """Serialize patient rows back to the canonical column layout.

    Absent values become empty cells and booleans are written as 0/1, so a
    parse -> write -> parse round trip is a fixpoint.
    """
    extra_names = sorted({name for r in rows for name in r.extra})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([column for column, _ in COLUMNS] + extra_names)
    for row in rows:
        cells = [_format_cell(getattr(row, field)) for _, field in COLUMNS]
        cells.extend(row.extra.get(name, "") for name in extra_names)
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")
