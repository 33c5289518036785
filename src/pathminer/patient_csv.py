"""Reading and writing the tabular patient-data format.

The file is comma-separated UTF-8 with a header row. Required columns (case
insensitive): PatID, LVEF, HFrEF, HFmrEF, HFpEF, Weight, HF diagnosis,
NT pro-BNP, Diabetes, CKD, Outcome, WBC, hsTNT, IL-6, Urea, Beta-Blocker,
ACE-I/ARNI, SGLT-2, MRA, Timestamp. Extra columns are carried along as text
attributes. An empty cell means the value is absent; numbers are ASCII
with no ``_`` digit separator, and must be finite (``nan`` and ``inf`` are
rejected). Records are converted in chunks, column by column: each distinct
cell text of a column is parsed once and its value shared by every row that
holds it. A fault is still reported for the first faulty row in file order.
"""

import csv
import io
import math
from datetime import date
from itertools import islice
from operator import itemgetter

from .errors import PathminerError, RowError, SchemaError
from .model import CLINICAL_FIELDS, Outcome, PatientDatum, parse_date

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

_BOOLEANS = {"1": True, "true": True, "0": False, "false": False}

_CHUNK = 512  # records converted together, column by column


def _parse_cell(field: str, text: str):
    """The value of a stripped cell; a ValueError carrying its row error's message if none."""
    if field == "pat_id":
        if not text:
            raise ValueError("PatID must not be empty")
        return text
    if not text:
        return None
    if field == "timestamp":
        try:
            return parse_date(text)
        except ValueError:
            raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD") from None
    if field == "outcome":
        try:
            return Outcome(text)
        except ValueError:
            raise ValueError(f"unknown outcome label {text!r}") from None
    if field in _BOOL_FIELDS:
        if (flag := _BOOLEANS.get(text.lower())) is None:
            raise ValueError(f"bad boolean {text!r} in column for {field}")
        return flag
    kind = "integer" if field in _INT_FIELDS else "number"
    try:
        if not text.isascii() or "_" in text:
            raise ValueError  # int() and float() take "8_0" and non-ASCII digits
        value = int(text) if field in _INT_FIELDS else float(text)
    except ValueError:
        raise ValueError(f"bad {kind} {text!r} in column for {field}") from None
    if kind == "number" and not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r} in column for {field}")
    return value


class _Column(dict):
    """A column's cell text -> value, or the ValueError of a text with none: parsed once each."""

    def __init__(self, field: str):
        self.field, self.faulty = field, False

    def __missing__(self, text: str):
        try:
            value = _parse_cell(self.field, text.strip(_SPACE))
        except ValueError as exc:
            value, self.faulty = exc, True
        self[text] = value
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
    columns: list[tuple[_Column, int]] = []  # each field's converted cells and position
    for column, field in COLUMNS:
        if column not in named:
            raise SchemaError(f"missing required column {column!r}")
        columns.append((_Column(field), named[column]))
    known = {pos for _, pos in columns}
    extras = [(name.strip(_SPACE), i) for i, name in enumerate(header) if i not in known]

    rows: list[PatientDatum] = []
    while True:
        chunk, refused = [], None
        try:
            chunk.extend(islice(records, _CHUNK))
        except PathminerError as exc:  # the csv module refused a record, after the chunk's rows
            refused = exc
        rows += _chunk_rows(chunk, len(header), columns, extras)
        if refused:
            raise refused
        if len(chunk) < _CHUNK:
            return rows


def _chunk_rows(chunk, width: int, columns, extras) -> list[PatientDatum]:
    """The rows of (record number, cells) pairs, converted by column; raises the first fault."""
    numbers, table, faults = [], [], []  # faults: (position, message), in the order checked
    for number, cells in chunk:
        if not "".join(cells).strip(_SPACE):
            continue  # a blank record
        if len(cells) < width:
            cells += [""] * (width - len(cells))  # a missing cell converts as an empty one
        elif len(cells) > width and not faults and "".join(cells[width:]).strip(_SPACE):
            past = next(cell for cell in cells[width:] if cell.strip(_SPACE))
            faults.append((len(table), f"cell {past!r} lies past the header's {width} columns"))
        numbers.append(number)
        table.append(cells)
    texts = tuple(zip(*table)) or ((),) * width
    values = [list(map(column.__getitem__, texts[pos])) for column, pos in columns]
    faults += (next((i, str(v)) for i, v in enumerate(col) if v.__class__ is ValueError)
               for (column, _), col in zip(columns, values) if column.faulty)
    pat_ids, *clinical, timestamps = values
    if None in timestamps:
        faults.append((timestamps.index(None), "Timestamp must not be empty"))
    bad, message = min(faults, key=itemgetter(0), default=(len(table), ""))
    extra = [{name: cell for name, pos in extras if (cell := cells[pos].strip(_SPACE))}
             for cells in table] if extras else [{} for _ in table]
    rows = []
    try:
        rows.extend(map(PatientDatum, pat_ids[:bad], timestamps, numbers, *clinical, extra))
    except Exception as exc:  # the row's own checks
        raise RowError(numbers[len(rows)], str(exc)) from None
    if message:
        raise RowError(numbers[bad], message)
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
