from datetime import date

import pytest

from pathminer.errors import RowError, SchemaError
from pathminer.model import Outcome
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
