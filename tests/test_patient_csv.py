import csv
import re
from datetime import date, datetime
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_parse_patient_csv, reference_write_patient_csv
from pathminer import patient_csv
from pathminer.errors import InputError, PathminerError, RowError, SchemaError
from pathminer.model import FIELD_CLASSES, Outcome, PatientDatum, Phenotype
from pathminer.patient_csv import parse_patient_csv, write_patient_csv

HEADER = (
    "PatID,LVEF,HFrEF,HFmrEF,HFpEF,Weight,HF diagnosis,NT pro-BNP,Diabetes,"
    "CKD,Outcome,WBC,hsTNT,IL-6,Urea,Beta-Blocker,ACE-I/ARNI,SGLT-2,MRA,Timestamp"
)


def csv_of(*rows: str) -> bytes:
    return ("\n".join((HEADER,) + rows) + "\n").encode()


def test_parses_example_table(table_rows):
    assert len(table_rows) == 4
    first = table_rows[0]
    assert first.pat_id == "007"
    assert first.lvef == 50
    assert first.hfpef is True and first.hfref is False
    assert first.nt_pro_bnp == 750.5
    assert first.diabetes is True
    assert first.ckd is None
    assert first.outcome is None
    assert first.timestamp == date(2023, 2, 20)
    assert first.row_index == 1
    assert table_rows[2].outcome is Outcome.DEATH_HF
    assert table_rows[3].pat_id == "008"
    assert table_rows[3].nt_pro_bnp is None


def test_unknown_outcome_label_is_row_error():
    data = csv_of("007,50,0,0,1,80,2017,750.5,1,,Cardiac_Arrest,,,,,,,,,2023-02-20")
    with pytest.raises(RowError, match="row 1"):
        parse_patient_csv(data)


def test_missing_required_column_names_it():
    broken = HEADER.replace("NT pro-BNP,", "")
    data = (broken + "\n").encode()
    with pytest.raises(SchemaError, match="NT pro-BNP"):
        parse_patient_csv(data)


def test_bad_date_reports_row_number():
    data = csv_of(
        "007,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-20",
        "008,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,20/02/2023",
    )
    with pytest.raises(RowError, match="row 2"):
        parse_patient_csv(data)


@pytest.mark.parametrize("text", ["2023-W08-1", "20230220"])
def test_a_date_in_another_iso_form_is_a_row_error(text):
    # Python 3.11's date.fromisoformat takes both; every reader takes YYYY-MM-DD only
    data = csv_of(f"007,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,{text}")
    with pytest.raises(RowError, match=f"^row 1: bad date '{text}', expected YYYY-MM-DD$"):
        parse_patient_csv(data)


@pytest.mark.parametrize("data", [b"", ""])
def test_an_empty_file_is_a_schema_error(data):
    with pytest.raises(SchemaError, match="^empty file: header row required$"):
        parse_patient_csv(data)


def test_bad_number_reports_row_number():
    data = csv_of("007,abc,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-20")
    with pytest.raises(RowError, match="row 1"):
        parse_patient_csv(data)


def test_header_match_is_case_insensitive():
    data = (HEADER.lower() + "\n007,50,0,0,1,,,,,,,,,,,,,,,2023-02-20\n").encode()
    rows = parse_patient_csv(data)
    assert rows[0].lvef == 50


def test_booleans_accept_words_and_digits():
    data = csv_of("007,50,FALSE,false,TRUE,,,,1,0,,,,,,,,,,2023-02-20")
    row = parse_patient_csv(data)[0]
    assert row.hfpef is True and row.hfref is False
    assert row.diabetes is True and row.ckd is False


def test_extra_columns_preserved_as_text():
    data = (
        HEADER
        + ",Note\n007,50,0,0,1,80,2017,750.5,1,,,,24.9,10.5,38,100,50,10,12.5,2023-02-20,stable\n"
    ).encode()
    rows = parse_patient_csv(data)
    assert rows[0].extra == {"Note": "stable"}


@pytest.mark.parametrize(
    "extra_header,name",
    [("LVEF", "LVEF"), (" lvef ", "LVEF"), ("Note,Note ", "Note")],
    ids=["required-again", "required-in-other-case", "extra-twice"],
)
def test_a_column_named_twice_is_a_schema_error(extra_header, name):
    # the last of two LVEF columns used to win, and the first stayed on as text
    data = (HEADER + f",{extra_header}\n007,35,0,0,1,,,,,,,,,,,,,,,2023-02-20,70,x\n").encode()
    with pytest.raises(SchemaError, match=rf"^header row: column '{name}' appears twice$"):
        parse_patient_csv(data)


def test_an_extra_column_named_like_a_clinical_attribute_is_a_schema_error():
    # its text used to replace the parsed dose among the event's attributes
    data = (HEADER + ",beta_blocker\n007,,,,,,,,,,,,,,,50,,,,2023-02-20,lots\n").encode()
    with pytest.raises(SchemaError, match="^header row: column 'beta_blocker' names a clinical"):
        parse_patient_csv(data)


def test_blank_extra_header_cells_may_repeat():
    data = (HEADER + ", ,\n007,,,,,,,,,,,,,,,,,,,2023-02-20,,x\n").encode()
    assert parse_patient_csv(data)[0].extra == {"": "x"}


def test_empty_cells_past_the_header_are_accepted():
    rows = parse_patient_csv(csv_of("007,,,,,,,,,,,,,,,,,,,2023-02-20,, ,"))
    assert rows[0].extra == {}


SPACE = " \t\x0b\x0c"  # what the parser strips from a cell, line ends aside


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["", " "]), max_size=2),
       st.text(st.characters(exclude_characters=',"\r\n\x00', exclude_categories=("Cs",)),
               min_size=1).filter(lambda cell: cell.strip(SPACE)),
       st.lists(st.sampled_from(["", " ", "x"]), max_size=2))
def test_a_non_empty_cell_past_the_header_is_a_row_error_naming_its_row(empty, cell, after):
    valid = "007,,,,,,,,,,,,,,,,,,,2023-02-20"
    data = csv_of(valid, ",".join([valid, *empty, cell, *after]))
    with pytest.raises(RowError, match="^row 2: cell .* lies past the header's 20 columns$"):
        parse_patient_csv(data)


def test_round_trip_is_fixpoint(table_rows):
    written = write_patient_csv(table_rows)
    reparsed = parse_patient_csv(written)
    assert reparsed == list(table_rows)
    assert write_patient_csv(reparsed) == written


def test_empty_patid_rejected():
    data = csv_of(",50,0,0,1,,,,,,,,,,,,,,,2023-02-20")
    with pytest.raises(RowError):
        parse_patient_csv(data)


@pytest.mark.parametrize("wbc,urea", [("nan", "38"), ("7.1", "inf"), ("7.1", "-inf")])
def test_non_finite_numbers_are_row_errors(wbc, urea):
    data = csv_of(
        "007,50,0,0,1,80,2017,750.5,1,,,7.1,24.9,10.5,38,100,50,10,12.5,2023-02-20",
        f"007,50,0,0,1,80,2017,750.5,1,,,{wbc},24.9,10.5,{urea},100,50,10,12.5,2023-02-21",
    )
    with pytest.raises(RowError, match="row 2: non-finite number"):
        parse_patient_csv(data)


def test_non_finite_dose_is_row_error():
    data = csv_of("007,50,0,0,1,80,2017,750.5,1,,,7.1,24.9,10.5,38,nan,50,10,12.5,2023-02-20")
    with pytest.raises(RowError, match="row 1: non-finite number 'nan' in column for beta_blocker"):
        parse_patient_csv(data)


@pytest.mark.parametrize("lvef,weight,message", [
    ("5_0", "80", "bad integer '5_0' in column for lvef"),
    ("\u0665\u0660", "80", "bad integer '\u0665\u0660' in column for lvef"),
    ("50", "8_0", "bad number '8_0' in column for weight"),
    ("50", "\uff18\uff10.5", "bad number '\uff18\uff10.5' in column for weight"),
])
def test_digit_separators_and_non_ascii_digits_are_row_errors(lvef, weight, message):
    # int() and float() accept both forms; the table holds plain ASCII numbers
    data = csv_of(f"007,{lvef},0,0,1,{weight},2017,750.5,1,,,,,,,,,,,2023-02-20")
    with pytest.raises(RowError, match=f"row 1: {message}"):
        parse_patient_csv(data)


def test_non_ascii_whitespace_stays_in_a_patid():
    # only ASCII whitespace is trimmed, so "\u30000001" names its own patient
    data = csv_of(
        "0001,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-20",
        "\u30000001,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-21",
        " 0001\t,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-22",
    )
    assert [row.pat_id for row in parse_patient_csv(data)] == ["0001", "\u30000001", "0001"]


def test_number_wrapped_in_no_break_spaces_is_row_error():
    data = csv_of(
        "007,50,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-20",
        "007,\u00a054\u00a0,0,0,1,80,2017,750.5,1,,,,,,,,,,,2023-02-21",
    )
    with pytest.raises(RowError, match=r"row 2: bad integer '\\xa054\\xa0' in column for lvef"):
        parse_patient_csv(data)


def test_non_utf8_byte_is_a_row_error_naming_its_row():
    data = csv_of(
        "001,50,0,0,1,,,,,,,,,,,,,,,2023-01-01",
        "002,50,0,0,1,,,,,,,,,,,,,,,2023-01-02",
    ).replace(b"002", b"0\xff2")
    with pytest.raises(RowError, match=r"^row 2: byte 0xff at offset \d+ is not UTF-8$") as err:
        parse_patient_csv(data)
    assert err.value.row == 2


def test_non_utf8_byte_row_counts_records_not_lines():
    # a quoted cell may hold a newline; the row is the record, as in parsing
    data = (HEADER + ',Note\n001,50,0,0,1,,,,,,,,,,,,,,,2023-01-01,"two\nlines"\n'
            "0\xff2,50,0,0,1,,,,,,,,,,,,,,,2023-01-02,x\n").encode("latin-1")
    with pytest.raises(RowError, match="^row 2: byte 0xff"):
        parse_patient_csv(data)


def test_non_utf8_byte_in_the_header_is_a_schema_error():
    with pytest.raises(SchemaError, match="^header row: byte 0xe9 at offset 1 is not UTF-8$"):
        parse_patient_csv(b"P\xe9tID,LVEF\n1,50\n")


@pytest.mark.parametrize(("data", "error", "message"), [
    (csv_of("q\x00z,50,0,0,1,,,,,,,,,,,,,,,2023-01-01"), RowError, "row 1: line contains NUL"),
    # the record holding it, after a quoted newline, and before a byte that is not UTF-8
    ((HEADER + ',Note\n001,50,0,0,1,,,,,,,,,,,,,,,2023-01-01,"two\nli\x00nes\xff"\n').encode("latin-1"),
     RowError, "row 1: line contains NUL"),
    (HEADER.replace("MRA", "M\x00RA") + "\n", SchemaError, "header row: line contains NUL"),
], ids=["bytes", "quoted", "header-str"])
def test_a_nul_anywhere_is_an_error_naming_its_record(data, error, message):
    # under 3.11 the csv module reads a NUL, and under 3.10 it refuses the record
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_patient_csv(data)


def test_a_byte_that_is_not_utf8_before_a_nul_is_reported_first():
    data = csv_of("0X1,50,0,0,1,,,,,,,,,,,,,,,2023-01-01", "q\x00z,50,0,0,1,,,,,,,,,,,,,,,2023-01-02")
    with pytest.raises(RowError, match=r"^row 1: byte 0xff at offset \d+ is not UTF-8$"):
        parse_patient_csv(data.replace(b"0X1", b"0\xff1"))


# A cell one character over the csv module's default field size limit.
LONG_CELL = '"' + "x" * 131_073 + '"'


def test_a_cell_over_the_field_size_limit_is_a_row_error_naming_its_row():
    data = (HEADER + ",Note\n001,50,0,0,1,,,,,,,,,,,,,,,2023-01-01,x\n"
            f"002,50,0,0,1,,,,,,,,,,,,,,,2023-01-02,{LONG_CELL}\n").encode()
    with pytest.raises(RowError, match=r"^row 2: field larger than field limit \(131072\)$"):
        parse_patient_csv(data)


def test_a_header_cell_over_the_field_size_limit_is_a_schema_error():
    with pytest.raises(SchemaError, match=r"^header row: field larger than field limit"):
        parse_patient_csv((HEADER + "," + LONG_CELL + "\n").encode())


def test_a_cell_over_the_limit_before_a_non_utf8_byte_is_a_row_error():
    # the pass that counts records up to the byte meets the long cell first
    data = (HEADER + f",Note\n001,50,0,0,1,,,,,,,,,,,,,,,2023-01-01,{LONG_CELL}\n"
            "0\xff2,50,0,0,1,,,,,,,,,,,,,,,2023-01-02,x\n").encode("latin-1")
    with pytest.raises(RowError, match=r"^row 1: field larger than field limit"):
        parse_patient_csv(data)


# --- the column-wise parser against the row-wise one it replaced -----------

# (good, bad) cell texts per column; blank cells, padding, "-0.0" and "0.0" are good.
_FLAG = (("", "0", "false", " False "), ("yes", "2"))
_NUMBER = (("", "1.5", "-0.0", "0.0", "80", " 7 ", "1e3"), ("inf", "nan", "1_0", "x"))
CELLS = {
    "PatID": (("001", "002", " 003 "), ("", " ")),
    "LVEF": (("", "35", "45", " 60"), ("4_0", "35.0", "x")),
    "HFrEF": _FLAG, "HFmrEF": _FLAG, "HFpEF": _FLAG, "Diabetes": _FLAG, "CKD": _FLAG,
    "HF diagnosis": (("", "2015", " 2016"), ("2015.5", "٢٠")),
    "Outcome": (("", "", "HF", "Death_HF"), ("Flu",)),
    "Timestamp": (("2023-01-02", "2023-01-03", " 2023-01-04"),
                  ("2023-02-30", "x", "20230105", "2023-W01-5")),
}
# What the record's own checks refuse: LVEF out of range, two flags set, no Timestamp.
CHECKS = ({"LVEF": "101"}, {"HFrEF": "1", "HFpEF": "true"}, {"Timestamp": " "})
EXTRA = (("", "memo", " x "), ())


@st.composite
def tables(draw):
    """A patient CSV with columns in any order, extra columns, and records that
    are valid, hold a bad cell, fail a record check, or are blank, short, long
    (with a blank or a non-blank cell past the header) or over the csv module's
    field size limit."""
    required = HEADER.split(",")
    columns = draw(st.permutations(required))
    columns += draw(st.lists(st.sampled_from(["Note", " Site ", ""]), max_size=2, unique=True))
    width = len(columns)
    records = [",".join(columns)]
    for _ in range(draw(st.integers(0, 12))):
        shape = draw(st.sampled_from(
            ["row"] * 9 + ["fault"] * 3 + ["check", "blank", "short", "long", "limit"]))
        if shape == "blank":
            records.append(",".join(draw(st.sampled_from(("", " ", "\t")))
                                    for _ in range(draw(st.integers(0, width + 2)))))
            continue
        if shape == "limit":
            records.append(LONG_CELL)
            continue
        cells = [draw(st.sampled_from(CELLS.get(name, _NUMBER if name in required else EXTRA)[0]))
                 for name in columns]
        if shape == "fault":
            i = draw(st.integers(0, 19))
            cells[i] = draw(st.sampled_from(CELLS.get(columns[i], _NUMBER)[1]))
        elif shape == "check":
            for name, text in draw(st.sampled_from(CHECKS)).items():
                cells[columns.index(name)] = text
        elif shape == "short":
            cells = cells[:draw(st.integers(1, width))]
        elif shape == "long":
            cells += draw(st.lists(st.sampled_from(("", " ", "late")), min_size=1, max_size=2))
        records.append(",".join(cells))
    return ("\n".join(records) + "\n").encode()


def _parsed(parse, data):
    try:
        return repr(parse(data))
    except Exception as exc:  # the exact type and message are compared
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tables(), st.integers(1, 5))
def test_the_column_wise_parser_agrees_with_the_row_wise_one(data, chunk):
    # small chunks put faults on both sides of a chunk's end and at its start
    with mock.patch.object(patient_csv, "_CHUNK", chunk):
        assert _parsed(parse_patient_csv, data) == _parsed(reference_parse_patient_csv, data)


@pytest.mark.parametrize("chunk", [1, 2, 3, 512])
@pytest.mark.parametrize("rows, error", [
    # an earlier row's bad cell comes before a later row's cell past the header
    (["001,bad,0,0,1,,,,,,,,,,,,,,,2023-01-01", "002,50,0,0,1,,,,,,,,,,,,,,,2023-01-02,late"],
     "row 1: bad integer 'bad' in column for lvef"),
    # an earlier row's bad cell comes before a later row's, whichever column holds it
    (["001,50,0,0,1,x,,,,,,,,,,,,,,2023-01-01", "002,bad,0,0,1,,,,,,,,,,,,,,,2023-01-02"],
     "row 1: bad number 'x' in column for weight"),
    # in one row, a bad cell comes before an empty timestamp
    (["001,bad,0,0,1,,,,,,,,,,,,,,, "], "row 1: bad integer 'bad' in column for lvef"),
    # an earlier row's empty timestamp comes before a later row's bad cell
    (["001,50,0,0,1,,,,,,,,,,,,,,,", "002,bad,0,0,1,,,,,,,,,,,,,,,2023-01-02"],
     "row 1: Timestamp must not be empty"),
    # an earlier row's record check comes before a later row's bad cell
    (["001,50,1,0,1,,,,,,,,,,,,,,,2023-01-01", "002,bad,0,0,1,,,,,,,,,,,,,,,2023-01-02"],
     "row 1: patient 001: more than one phenotype flag set"),
    # a bad row comes before a record the csv module refuses
    (["001,bad,0,0,1,,,,,,,,,,,,,,,2023-01-01", LONG_CELL],
     "row 1: bad integer 'bad' in column for lvef"),
    # in one row, a cell past the header comes before a bad cell
    (["001,bad,0,0,1,,,,,,,,,,,,,,,2023-01-01,late"], "row 1: cell 'late' lies past the header's 20 columns"),
    # a short row's missing Timestamp reads as an empty one
    (["", "001,50"], "row 2: Timestamp must not be empty"),
])
def test_the_first_faulty_row_in_file_order_is_reported(rows, error, chunk):
    with mock.patch.object(patient_csv, "_CHUNK", chunk):
        with pytest.raises(RowError) as caught:
            parse_patient_csv(csv_of(*rows))
    assert str(caught.value) == error


def test_each_distinct_cell_text_of_a_column_is_held_once():
    rows = parse_patient_csv(csv_of(*(f"00{i % 3},50,0,0,1,80.5,2015,,1,,HF,,,,,,,,,2023-01-0{1 + i % 2}"
                                      for i in range(9))))
    for field in ("pat_id", "lvef", "weight", "hf_diagnosis_year", "outcome", "timestamp"):
        values = {}
        for row in rows:
            values.setdefault(getattr(row, field), getattr(row, field))
            assert getattr(row, field) is values[getattr(row, field)], field
    # a float parsed twice would be two objects; texts that differ stay apart
    assert rows[0].weight is rows[8].weight
    assert len({id(row.timestamp) for row in rows}) == 2


def _row(extra, **fields):
    return PatientDatum("007", date(2023, 2, 20), 1, extra=extra, **fields)


@pytest.mark.parametrize("extra", [
    {"beta_blocker": "1"},  # the parser refuses a column named like a clinical attribute
    {"lvef": "x"},  # and reads this one as LVEF, a second time
    {"Timestamp": "x"},
    {" note": "a"},  # the parser trims ASCII whitespace from names and cells
    {"note ": "a"},
    {"note": " a "},
    {"note": "a\t"},
    {"note": ""},  # and skips empty cells
    {"note": "a\rb"},  # and takes a bare CR, which the writer leaves unquoted, as a line end
    {"note": "a\x00b"},  # and refuses a NUL, which 3.10's csv module cannot write
    {"no\x00te": "a"},
    {"note": "\ud800"},  # which UTF-8 cannot encode
    {"note": 5},  # and reads every cell as text
])
def test_an_extra_cell_that_would_not_read_back_is_refused(extra):
    (name, text), = extra.items()
    rows = [_row({}), _row({"memo": "kept"}), _row(extra)]
    message = re.escape(f"row 3: extra {name!r} = {text!r} would not read back")
    with pytest.raises(InputError, match=f"^{message}$"):
        write_patient_csv(rows)


# Names and cells that read back, drawn often, and ones that do not.
_EXTRA_NAMES = st.sampled_from(["note", "Note", "a,b", 'say "hi"', "two\nlines", "", "row_index"] * 3
                               + [" pad", "lvef", "Outcome", "wbc", "x\ry"])
_ANY_TEXT = st.text(st.sampled_from(["a", ",", '"', "\n", "\r", " ", "\t", "é"]), max_size=4)
_EXTRA_TEXTS = st.one_of(*[st.builds("{}{}{}".format, st.sampled_from(["a", ",", '"', "é"]),
                                     _ANY_TEXT.filter(lambda text: "\r" not in text),
                                     st.sampled_from(["b", "é"]))] * 3, _ANY_TEXT)


def _datum(number, pat_id, lvef, flag, weight, year, outcome, dose, day, extra):
    """A checked row: ``flag`` 0-2 sets that phenotype flag, 3 clears all three, None leaves
    them absent; the float columns take ``weight`` or ``dose``."""
    flags = [None if flag is None else i == flag for i in range(3)] if flag != 3 else [False] * 3
    return PatientDatum(pat_id, day, number, lvef, *flags, weight, year, weight, flag == 1,
                        None, outcome, dose, dose, weight, dose, dose, weight, dose, dose, extra)


_tables = st.lists(st.tuples(
    st.sampled_from(["007", "p 1", "Ünal"]), st.one_of(st.none(), st.integers(0, 100)),
    st.sampled_from([None, 0, 1, 2, 3]),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.integers(-10**20, 10**20)), st.sampled_from([None, *Outcome]),
    st.sampled_from([None, 0.0, -0.0, 2.5, 1e-300]),
    st.dates(min_value=date(1, 1, 1)),
    st.dictionaries(_EXTRA_NAMES, _EXTRA_TEXTS, max_size=3)), max_size=6)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_tables)
def test_a_written_table_parses_back_to_its_rows_or_the_writer_refuses_it(drawn):
    rows = [_datum(number, *fields) for number, fields in enumerate(drawn, 1)]
    try:
        data = write_patient_csv(rows)
    except InputError as exc:
        assert re.match(r"row \d+: extra .* would not read back$", str(exc))
        return
    assert [(repr(r[:-1]), r.extra) for r in parse_patient_csv(data)] == [
        (repr(r[:-1]), r.extra) for r in rows]  # extras in any order


class _Float(float):
    def __repr__(self):
        return "a float's own repr"


_CELL_VALUES = [True, False, 1, 0, 1.0, 0.0, -0.0, None, 2.5, -7, "x", date(2020, 1, 2),
                Outcome.HF, _Float(1.5), datetime(2020, 1, 2, 3, 4)]
_ACCEPTED_TEXTS = st.text(st.sampled_from(["a", ",", '"', "\n", "é"]), min_size=1,
                          max_size=4).filter(lambda text: text.strip("\n") == text)


def _exactly(rows) -> list:
    """Each row as its class and repr, field by field, with an int in a float column read as
    its float and the extras in any order; the row index, which the file does not hold, aside."""
    def exact(value):
        return value.__class__.__qualname__, repr(value)

    return [([exact(float(v) if v.__class__ is int and FIELD_CLASSES.get(field) is float else v)
              for field, v in zip(PatientDatum._fields, row) if field not in ("row_index", "extra")],
             [(exact(k), exact(v)) for k, v in sorted(row.extra.items(), key=repr)])
            for row in rows]


def table_reads_back(data: bytes, rows) -> bool:
    """Whether ``data`` parses back to ``rows``, as ``_exactly`` compares them."""
    try:
        return _exactly(parse_patient_csv(data)) == _exactly(rows)
    except PathminerError:
        return False


def reference_reads_back(rows) -> bool:
    """Whether the row writer's table of ``rows`` parses back to them; one it cannot
    write does not: UTF-8 has no lone surrogate, and 3.10's csv writes no NUL."""
    try:
        data = reference_write_patient_csv(rows)
    except (UnicodeEncodeError, csv.Error):
        return False
    return table_reads_back(data, rows)


def written(rows):
    """The writer's bytes, or its refusal, which must be an InputError naming a row."""
    try:
        return write_patient_csv(rows)
    except InputError as exc:
        assert re.fullmatch(r"row \d+: .* would not read back", str(exc)), exc
        return exc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(
    st.lists(st.sampled_from(_CELL_VALUES), min_size=21, max_size=21),
    st.dictionaries(st.sampled_from(["note", "a,b", 'say "hi"', "two\nlines"]),
                    _ACCEPTED_TEXTS, max_size=3)), max_size=8))
def test_the_column_writer_writes_the_bytes_the_row_writer_wrote(drawn):
    # unchecked records, so that each column mixes values that are equal but print apart;
    # the column writer refuses only rows whose table from the row writer does not parse back
    rows = [tuple.__new__(PatientDatum, (*values, extra)) for values, extra in drawn]
    new = written(rows)
    if isinstance(new, InputError):
        assert not reference_reads_back(rows), new
    else:
        assert new == reference_write_patient_csv(rows)


class _Text(str):
    pass


class _Int(int):
    pass


# Cells of every kind: each column's class and its edge values, subclasses, numpy
# scalars, enums, a list, a datetime, non-finite floats, texts that the parser trims.
_ANY_CELLS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -0.0, 2**1100, -(2**1100), 40.5, 2010.0, "HF",
                     " a", "a\r", "q\x00z", "\ud800", "", date(2020, 1, 2), datetime(2020, 1, 2),
                     [1, 2], Outcome.HF, Phenotype.HFREF, _Text("x"), _Int(3), _Float(1.5),
                     np.float64(2.5), np.int64(5), np.bool_(True), float("nan"), float("inf")]),
    st.integers(), st.floats(), st.text(max_size=3), st.dates(min_value=date(1, 1, 1)))


_FLOATS = st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False),
                   st.integers(-2**60, 2**60))
# The values of the written fields that _FLOATS does not draw; None where a field may be absent.
_OWN = {"pat_id": st.sampled_from(["007", "p 1", "Ünal"]), "timestamp": st.dates(min_value=date(1, 1, 1)),
        "lvef": st.one_of(st.none(), st.integers(0, 100)), "hf_diagnosis_year": st.one_of(st.none(), st.integers()),
        "diabetes": st.sampled_from([None, True, False]), "ckd": st.sampled_from([None, True, False]),
        "outcome": st.sampled_from([None, *Outcome])}
_WRITTEN = ("pat_id", "timestamp", *PatientDatum._fields[3:-1])
_PHENOTYPES = ("hfref", "hfmref", "hfpef")


@st.composite
def any_rows(draw):
    """Checked rows, most of whose cells are of their column's own class: in each row one
    cell, or one extra's name or text, may be of any kind, or none is."""
    rows = []
    for number in range(1, draw(st.integers(0, 4)) + 1):
        values = {field: draw(_OWN.get(field, _FLOATS)) for field in _WRITTEN if field not in _PHENOTYPES}
        flag = draw(st.sampled_from([None, 0, 1, 2, 3]))  # the flag set, as in _datum
        values.update(zip(_PHENOTYPES, [None] * 3 if flag is None else [False] * 3 if flag == 3
                          else [i == flag for i in range(3)]))
        extra = draw(st.dictionaries(st.sampled_from(["note", "a,b", "two\nlines"]), _ACCEPTED_TEXTS,
                                     max_size=2))
        spoilt = draw(st.integers(0, 3 * len(_WRITTEN)))
        if spoilt < len(_WRITTEN):
            values[_WRITTEN[spoilt]] = draw(_ANY_CELLS)
        elif spoilt == len(_WRITTEN):
            name = draw(st.one_of(_EXTRA_NAMES, st.sampled_from(["n\x00", "\ud800", _Text("n")])))
            extra[name] = draw(st.one_of(_EXTRA_TEXTS, _ANY_CELLS))
        try:
            rows.append(PatientDatum(row_index=number, extra=extra, **values))
        except (InputError, TypeError):  # the row's own checks: LVEF range, phenotype flags
            continue
    return rows


@settings(max_examples=250, deadline=None, derandomize=True)
@given(any_rows())
def test_a_table_is_written_to_parse_back_as_its_rows_or_refused(rows):
    # an int in a float column is read back as its float; a refused table is one whose
    # bytes from the writer that formatted every cell would not parse back either
    data = written(rows)
    if isinstance(data, InputError):
        assert not reference_reads_back(rows), data
    else:
        assert _exactly(parse_patient_csv(data)) == _exactly(rows)


@pytest.mark.parametrize(("field", "value", "message"), [
    ("weight", True, "Weight True"),
    ("diabetes", 1, "Diabetes 1"),
    ("outcome", "HF", "Outcome 'HF'"),
    ("lvef", 40.5, "LVEF 40.5"),
    ("hf_diagnosis_year", 2010.0, "HF diagnosis 2010.0"),
    ("weight", date(2020, 1, 2), "Weight datetime.date(2020, 1, 2)"),
    ("weight", np.float64(2.5), "Weight np.float64(2.5)"),
    ("weight", float("nan"), "Weight nan"),
    ("wbc", 2**1100, f"WBC {2**1100}"),
    ("timestamp", datetime(2020, 1, 2), "Timestamp datetime.datetime(2020, 1, 2, 0, 0)"),
    ("timestamp", None, "Timestamp None"),
    ("pat_id", " a", "PatID ' a'"),
    ("pat_id", "a\r", "PatID 'a\\r'"),
    ("pat_id", "q\x00z", "PatID 'q\\x00z'"),
    ("pat_id", "", "PatID ''"),
    ("pat_id", 7, "PatID 7"),
], ids=lambda v: v if isinstance(v, str) and v.isidentifier() else None)
def test_a_cell_that_would_not_read_back_is_refused(field, value, message):
    rows = [_row({}), _row({}), _row({})._replace(**{field: value})]
    with pytest.raises(InputError, match=f"^{re.escape(f'row 3: {message} would not read back')}$"):
        write_patient_csv(rows)


def test_an_int_in_a_float_column_is_written_and_read_back_as_its_float():
    row = _row({})._replace(weight=80, wbc=-(2**60))
    back, = parse_patient_csv(write_patient_csv([row]))
    assert (back.weight, back.wbc) == (80.0, float(-(2**60))) and back.weight.__class__ is float


def test_finite_floats_whose_sum_overflows_are_written():
    rows = [_row({})._replace(weight=1.7e308, wbc=-1.7e308) for _ in range(3)]
    assert [(r.weight, r.wbc) for r in parse_patient_csv(write_patient_csv(rows))] == [(1.7e308, -1.7e308)] * 3


def test_the_first_column_at_fault_is_named_with_its_first_row_then_the_first_extra():
    rows = [_row({}), _row({"memo": " x"})._replace(weight="a", outcome="b"), _row({})._replace(lvef=1.5),
            _row({})._replace(weight=[1])]
    with pytest.raises(InputError, match="^row 3: LVEF 1.5 would not read back$"):
        write_patient_csv(rows)
    with pytest.raises(InputError, match="^row 2: Weight 'a' would not read back$"):
        write_patient_csv(rows[:2] + rows[3:])
    with pytest.raises(InputError, match="^row 2: extra 'memo' = ' x' would not read back$"):
        write_patient_csv([rows[0], _row({"memo": " x"})])
