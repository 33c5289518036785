import enum
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import date, datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceXes, reference_read_xes_expat, reference_write_xes
from pathminer import xes
from pathminer.errors import FormatError, PathminerError
from pathminer.model import Event, EventLog
from pathminer.xes import _NOT_XML_CHAR, _scan_written, read_xes, write_xes
from test_cli_fuzz import inputs, mutated

names = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    min_size=1,
    max_size=12,
)
attr_values = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    names,
    st.dates(min_value=date(1980, 1, 1), max_value=date(2100, 1, 1)),
)
events = st.builds(
    Event,
    case_id=names,
    activity=names,
    timestamp=st.dates(min_value=date(2000, 1, 1), max_value=date(2030, 12, 31)),
    attributes=st.dictionaries(names, attr_values, max_size=4),
)
logs = st.builds(lambda evs: EventLog(tuple(evs)), st.lists(events, max_size=25))

# Every character the XML 1.0 Char production allows, with the ones that need
# escaping inside value="..." drawn often.
xml_chars = st.one_of(
    st.sampled_from('\t\n\r&<>"\''),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
)
xml_names = st.text(alphabet=xml_chars, min_size=1, max_size=8)
xml_logs = st.builds(
    lambda evs: EventLog(tuple(evs)),
    st.lists(
        st.builds(
            Event,
            case_id=xml_names,
            activity=xml_names,
            timestamp=st.dates(min_value=date(2000, 1, 1), max_value=date(2030, 12, 31)),
            attributes=st.dictionaries(
                xml_names, st.one_of(attr_values, xml_names), max_size=4
            ),
        ),
        max_size=10,
    ),
)


def test_empty_log_round_trip():
    data = write_xes(EventLog())
    assert b"<log" in data
    assert read_xes(data).events == ()


def test_example_log_round_trip(example_log):
    recovered = read_xes(write_xes(example_log))
    assert recovered.traces() == example_log.traces()
    assert len(recovered) == 4
    assert recovered.case_ids() == ("007", "008")


def test_missing_attribute_omitted_and_restored_as_missing():
    event = Event("c", "a", date(2023, 1, 1), {"lvef": 50, "weight": None})
    data = write_xes(EventLog((event,)))
    assert b"weight" not in data
    back = read_xes(data).events[0]
    assert back.attributes == {"lvef": 50}
    assert back.attributes.get("weight") is None


def test_typed_attributes_survive():
    event = Event(
        "c",
        "a",
        date(2023, 1, 1),
        {"i": 3, "f": 2.5, "b": True, "s": "text", "d": date(2020, 5, 6)},
    )
    back = read_xes(write_xes(EventLog((event,)))).events[0]
    assert back.attributes == event.attributes
    assert isinstance(back.attributes["b"], bool)
    assert isinstance(back.attributes["i"], int)


@settings(max_examples=60, deadline=None)
@given(logs)
def test_round_trip_identity(log):
    assert read_xes(write_xes(log)).traces() == log.traces()


@settings(max_examples=40, deadline=None)
@given(xml_logs)
def test_round_trip_identity_over_all_xml_characters(log):
    assert read_xes(write_xes(log)).traces() == log.traces()


def test_attributes_under_the_reserved_keys_survive():
    # the writer puts the activity and timestamp first; later elements
    # under the same keys are the event's attributes
    event = Event("c", "a", date(2023, 1, 1), {"concept:name": 0, "time:timestamp": "x"})
    back = read_xes(write_xes(EventLog((event,)))).events[0]
    assert (back.activity, back.timestamp) == ("a", date(2023, 1, 1))
    assert back.attributes == event.attributes


@pytest.mark.parametrize("read", [read_xes, ReferenceXes.read_xes], ids=["reader", "reference"])
def test_an_event_that_repeats_an_attribute_key_is_rejected(read):
    # the first concept:name and time:timestamp are the activity and the
    # timestamp; a key that repeats among the rest would lose a value
    event = ('<event><string key="concept:name" value="X"/><string key="concept:name" value="Y"/>'
             '<date key="time:timestamp" value="2020-01-01"/>{}</event>')
    data = '<log><trace><string key="concept:name" value="A"/>{}</trace></log>'
    ages = '<int key="age" value="5"/><int key="age" value="6"/>'
    with pytest.raises(FormatError, match="^trace 0 event 1: attribute 'age' repeats$"):
        read(data.format(event.format("") + event.format(ages)))
    with pytest.raises(FormatError, match="^trace 0 event 0: attribute 'concept:name' repeats$"):
        read(data.format(event.format('<string key="concept:name" value="Z"/>')))


def test_write_is_deterministic(example_log):
    assert write_xes(example_log) == write_xes(example_log)


def test_a_read_log_holds_each_key_and_string_once(cohort_2k):
    # every event carries the same keys, and a patient's values repeat on
    # each of its events; an object per event would make the log grow with
    # its events rather than with its distinct values
    events = read_xes(write_xes(cohort_2k)).events
    keys = [key for event in events for key in event.attributes]
    values = [v for event in events for v in event.attributes.values()]
    values += [event.activity for event in events] + [event.timestamp for event in events]
    by_type = {kind: [v for v in values if v.__class__ is kind] for kind in (str, float, int, date)}
    assert len(by_type[date]) > 2 * len(set(by_type[date]))  # 2,329 dates, 510 distinct
    for objects in (keys, *by_type.values()):
        assert len({id(o) for o in objects}) == len(set(objects))
    # a str goes to expat, which holds each key, string, number and date once too
    events = read_xes(write_xes(cohort_2k).decode()).events
    keys = [key for event in events for key in event.attributes]
    values = [v for event in events for v in event.attributes.values()]
    values += [event.activity for event in events] + [event.timestamp for event in events]
    by_type = {kind: [v for v in values if v.__class__ is kind] for kind in (str, float, int, date)}
    assert len(by_type[float]) > 2 * len(set(by_type[float]))
    for objects in (keys, *by_type.values()):
        assert len({id(o) for o in objects}) == len(set(objects))


def test_the_writer_holds_one_copy_of_the_document(cohort_2k):
    # each trace is encoded into the buffer returned, with no list of lines,
    # joined text or encoded copy of the whole document
    tracemalloc.start()
    try:
        data = write_xes(cohort_2k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * len(data)


# --- the scan of the writer's own layout ---------------------------------

def _expat_only(data):
    with mock.patch.object(xes, "_scan_written", return_value=None):
        return _outcome(read_xes, data)


@settings(max_examples=80, deadline=None)
@given(st.one_of(logs, xml_logs), st.booleans())
def test_the_writers_layout_is_read_by_the_scan_without_expat(log, as_bytes):
    data = write_xes(log)  # a bytearray, as the writer returns it
    data = bytes(data) if as_bytes else data
    if b"&" in data:  # an escaped value is left to expat
        assert _scan_written(data) is None
        assert read_xes(data).traces() == log.traces()
        return
    with mock.patch.object(xes, "_parse", side_effect=AssertionError("expat ran")):
        assert read_xes(data).traces() == log.traces()


def test_the_scan_pattern_has_no_possessive_quantifier():
    # Python 3.10, which pyproject.toml still declares, cannot compile one
    assert not re.search(rb"[*+?}]\+", xes._TRACE.pattern)


# Bytes that a value of the writer's layout holds, may hold, or must not hold.
VALUE_BYTES = (b'"', b"<", b">", b"&", b"&amp;", b"\t", b"\x01", b"\x7f", b" ", b"_", b"1", b".5",
               b"e3", b"\xc3\xa9", b"\xef\xbf\xbe", b"\xed\xa0\x80", b"\xff", b"T00:00:00Z",
               b"T08:00:00+00:00", b"true")


@st.composite
def value_edits(draw, data: bytes) -> bytes:
    """``data`` with one to three of its attribute values cut short and
    extended by drawn bytes."""
    starts = [match.end() for match in re.finditer(rb'value="', data)]
    edits = draw(st.lists(st.sampled_from(starts), min_size=1, max_size=3, unique=True))
    for at in sorted(edits, reverse=True):
        end = data.index(b'"', at)
        keep = draw(st.integers(at, end))
        new = b"".join(draw(st.lists(st.sampled_from(VALUE_BYTES), max_size=3)))
        data = data[:keep] + new + data[end:]
    return data


def _scan_agrees_or_declines(data: bytes) -> None:
    scanned, expat = _scan_written(data), _expat_only(data)
    if scanned is not None:
        assert expat == ("events", scanned.events)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated(inputs()["xes"]))
def test_the_scan_of_a_fuzzed_log_agrees_with_expat_or_declines(data):
    _scan_agrees_or_declines(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(value_edits(inputs()["xes"]))
def test_the_scan_of_a_log_with_edited_values_agrees_with_expat_or_declines(data):
    _scan_agrees_or_declines(data)


@pytest.mark.parametrize("edit", [
    (b'value="007"', b'value="008"'),  # a repeated case id
    (b'value="Visit before CO"', b'value=""'),  # an event the model refuses
    (b'value="2023-', b'value="2023-13-'),  # a bad date
    (b'value="Visit', b'value="\xef\xbf\xbe'),  # U+FFFE, which expat refuses
    (b'value="Visit', b'value="\xed\xa0\x80'),  # a surrogate, which is not UTF-8
    (b'\n</log>\n', b'\n</log>\n\n'),  # a byte past the layout
    (b'<int key="lvef" value="50" />', b'<int key="lvef" value="50" />\n      '
                                       b'<int key="lvef" value="51" />'),  # a repeated key
])
def test_the_scan_declines_and_expat_reports(edit, example_log):
    data = bytes(write_xes(example_log)).replace(*edit, 1)
    assert data != write_xes(example_log)
    assert _scan_written(data) is None
    assert _outcome(read_xes, data) == _expat_only(data)


@pytest.mark.parametrize("text", [
    "2019-12-31T23:30:00-02:00", "2020-01-01T18:00:00+00:00", "2020-01-01T00:00:00+01:00",
    "2020-01-01T00:00:00.000+00:00", "20200101", "2020-W01-1",
])
def test_a_date_outside_the_three_forms_of_midnight_utc_is_rejected(text):
    # cut to its date, a time of day or an offset could move the event to another day
    data = "<log>" + _one_event_trace("A", f'<date key="d" value="{text}"/>') + "</log>"
    with pytest.raises(FormatError, match=re.escape(f"trace 0 event 0: bad date value '{text}'")):
        read_xes(data)


@pytest.mark.parametrize("text", ["2020-01-01T00:00:00+00:00", "2020-01-01T00:00:00Z", "2020-01-01"])
def test_midnight_utc_is_read_in_each_of_its_three_forms(text):
    data = "<log>" + _one_event_trace("A", f'<date key="d" value="{text}"/>') + "</log>"
    assert read_xes(data).events[0].attributes["d"] == date(2020, 1, 1)


def test_malformed_xml_rejected():
    with pytest.raises(FormatError, match=r"^malformed XML: .*: line 1, column \d+$"):
        read_xes(b"<log><trace>")


@pytest.mark.parametrize("encoding, reason", [
    ("TF-8", "unknown encoding: TF-8"),  # found by the CLI input fuzzer
    ("utf-32", "multi-byte encodings are not supported"),
    ("rot13", "'rot13' is not a text encoding"),
    ("idna", "decoding with 'idna' codec failed"),
])
def test_an_encoding_expat_hands_to_python_and_cannot_use_is_a_format_error(encoding, reason):
    with pytest.raises(FormatError, match=f"^unsupported XML encoding: {reason}"):
        read_xes(f"<?xml version='1.0' encoding='{encoding}'?>\n<log />".encode())


def test_event_without_activity_rejected():
    data = (
        b'<log><trace><string key="concept:name" value="c"/>'
        b'<event><date key="time:timestamp" value="2023-01-01T00:00:00+00:00"/></event>'
        b"</trace></log>"
    )
    with pytest.raises(FormatError, match="concept:name"):
        read_xes(data)


@pytest.mark.parametrize("event, missing", [
    ('<event><string key="concept:name" value="A"/></event>', "time:timestamp"),
    ("<event/>", "concept:name"),  # with both missing, the activity is reported
])
def test_an_event_missing_a_field_names_it(event, missing):
    data = f'<log><trace><string key="concept:name" value="c"/>{event}</trace></log>'
    with pytest.raises(FormatError, match=f"^trace 0 event 0: missing {missing}$"):
        read_xes(data)


def test_a_trace_below_another_element_of_the_log_is_read():
    # as a tree reader's root.iter("trace") finds it
    data = f"<log><global>{_one_event_trace('A')}</global>{_one_event_trace('B')}</log>"
    assert [e.case_id for e in read_xes(data).events] == ["A", "B"]
    assert read_xes(data) == ReferenceXes.read_xes(data)


def test_trace_without_case_id_rejected():
    data = b"<log><trace><event/></trace></log>"
    with pytest.raises(FormatError, match="trace 0"):
        read_xes(data)


def _one_event_trace(case_id: str, attribute: str = "") -> str:
    return (
        f'<trace><string key="concept:name" value="{case_id}"/><event>'
        '<string key="concept:name" value="X"/>'
        '<date key="time:timestamp" value="2020-01-01T00:00:00+00:00"/>'
        f"{attribute}</event></trace>"
    )


@pytest.mark.parametrize("text", ["true", "false", "1", "0"])
def test_xs_boolean_forms_accepted(text):
    data = "<log>" + _one_event_trace("A", f'<boolean key="b" value="{text}"/>') + "</log>"
    assert read_xes(data).events[0].attributes["b"] is (text in ("true", "1"))


def test_boolean_outside_xs_forms_rejected():
    data = "<log>" + _one_event_trace("A", '<boolean key="diabetes" value="yes"/>') + "</log>"
    with pytest.raises(FormatError, match="trace 0 event 0: bad boolean value 'yes'"):
        read_xes(data)


def test_duplicate_case_id_rejected():
    data = "<log>" + _one_event_trace("A") + _one_event_trace("B") + _one_event_trace("A") + "</log>"
    with pytest.raises(FormatError, match="trace 2: concept:name 'A' already names trace 0"):
        read_xes(data)


def test_a_trace_without_events_is_rejected_after_its_case_id_checks():
    # an EventLog cannot hold the case, which used to vanish from the log
    empty = '<trace><string key="concept:name" value="{}"/></trace>'
    data = "<log>" + empty.format("empty") + _one_event_trace("a") + "</log>"
    for read in (read_xes, ReferenceXes.read_xes):
        with pytest.raises(FormatError, match="^trace 0: 'empty' holds no <event>$"):
            read(data)
    data = "<log>" + _one_event_trace("a") + empty.format("a") + "</log>"
    with pytest.raises(FormatError, match="^trace 1: concept:name 'a' already names trace 0$"):
        read_xes(data)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(text):
    data = "<log>" + _one_event_trace("A", f'<float key="wbc" value="{text}"/>') + "</log>"
    with pytest.raises(FormatError, match=f"bad float value '{text}'"):
        read_xes(data)


@pytest.mark.parametrize("tag,text", [
    ("int", "1_000"), ("int", "\u0661\u0662"), ("float", " 8_0.5 "), ("float", "\u0668.5"),
])
def test_digit_separators_and_non_ascii_digits_rejected(tag, text):
    data = "<log>" + _one_event_trace("A", f'<{tag} key="lvef" value="{text}"/>') + "</log>"
    with pytest.raises(FormatError, match=f"trace 0 event 0: bad {tag} value {text!r}"):
        read_xes(data)


@pytest.mark.parametrize("tag,text,value", [("int", " 12\n", 12), ("float", "\t2.5 ", 2.5)])
def test_whitespace_around_a_number_is_accepted(tag, text, value):
    # xs:long and xs:double collapse surrounding whitespace
    data = "<log>" + _one_event_trace("A", f'<{tag} key="k" value="{text}"/>') + "</log>"
    assert read_xes(data).events[0].attributes["k"] == value


def test_a_number_with_a_digit_separator_is_rejected_where_the_reference_read_it():
    # the element-tree reader passed the text straight to int() and float()
    data = ("<log>" + _one_event_trace("A", '<int key="lvef" value="1_000"/>'
                                       '<float key="wbc" value="\u0668.5"/>') + "</log>")
    attributes = ReferenceXes.read_xes(data).events[0].attributes
    assert attributes == {"lvef": 1000, "wbc": 8.5}
    with pytest.raises(FormatError, match="bad int value '1_000'"):
        read_xes(data)


# --- characters that XML 1.0 cannot carry --------------------------------

NOT_XML_CHARS = {
    "c0-control": "\x01",
    "lone-surrogate": "\ud800",
    "u-fffe": "\ufffe",
    "u-ffff": "\uffff",
}


# The XML 1.0 Char production, as inclusive code-point ranges.
XML_CHAR_RANGES = ((0x9, 0x9), (0xA, 0xA), (0xD, 0xD), (0x20, 0xD7FF), (0xE000, 0xFFFD),
                   (0x10000, 0x10FFFF))


def test_the_writers_pattern_matches_exactly_the_characters_outside_xml():
    ends = {end for pair in XML_CHAR_RANGES for end in pair}
    edges = {c + step for c in ends for step in (-1, 0, 1) if 0 <= c + step <= 0x10FFFF}
    sample = random.Random(2024).sample(range(0x110000), 20_000)
    for code in sorted(edges | {0, *sample}):
        allowed = any(lo <= code <= hi for lo, hi in XML_CHAR_RANGES)
        assert bool(_NOT_XML_CHAR.fullmatch(chr(code))) is not allowed, hex(code)


def _two_cases(**second):
    fields = {"case_id": "B", "activity": "a", "timestamp": date(2023, 1, 2),
              "attributes": {"note": "ok"}}
    fields.update(second)
    return EventLog((Event("A", "a", date(2023, 1, 1), {"note": "ok"}), Event(**fields)))


@pytest.mark.parametrize("char", NOT_XML_CHARS.values(), ids=NOT_XML_CHARS.keys())
def test_write_rejects_a_character_xml_cannot_carry(char):
    log = _two_cases(attributes={"note": f"x{char}y"})
    with pytest.raises(FormatError, match=r"trace 1 event 0: 'note' holds"):
        write_xes(log)
    # the tree writer wrote it, and no XML reader takes the file back
    with pytest.raises(FormatError, match="malformed XML"):
        ReferenceXes.read_xes(ReferenceXes.write_xes(log))


@pytest.mark.parametrize(("second", "where"), [
    ({"case_id": "B\x01"}, "trace 1: 'concept:name'"),
    ({"activity": "a\x01"}, "trace 1 event 0: 'concept:name'"),
    ({"attributes": {"no\x01te": 1}}, "trace 1 event 0: key 'no\\x01te'"),
], ids=["case-id", "activity", "key"])
def test_write_error_names_the_trace_and_key(second, where):
    with pytest.raises(FormatError) as caught:
        write_xes(_two_cases(**second))
    assert str(caught.value).startswith(f"{where} holds '\\x01'")


@pytest.mark.parametrize(("second", "where"), [
    ({"timestamp": datetime(2023, 1, 2, 5, 30)}, "trace 1 event 0: 'time:timestamp'"),
    ({"attributes": {"seen": datetime(2023, 1, 2, 5, 30)}}, "trace 1 event 0: 'seen'"),
], ids=["timestamp", "attribute"])
def test_write_refuses_a_datetime_whose_time_a_date_would_drop(second, where):
    with pytest.raises(FormatError) as caught:
        write_xes(_two_cases(**second))
    assert str(caught.value) == f"{where} holds the datetime 2023-01-02 05:30:00, not a date"


# --- differential tests against the element-tree reader and writer ------

@settings(max_examples=60, deadline=None)
@given(st.one_of(logs, xml_logs))
def test_writer_bytes_equal_the_reference_writer(log):
    assert write_xes(log) == ReferenceXes.write_xes(log)


class _Text(str):
    def __str__(self):
        return "text"


class _Float(float):
    def __repr__(self):
        return "float"


class _Int(int):
    def __str__(self):
        return "int"


# Values that are equal or hash alike but are written apart, subclasses that the
# writer must convert as their own methods say, and values it must refuse.
TRICKY_VALUES = (-0.0, 0.0, 1.0, 1, 0, True, False, 2**70, -7, 1e-300, None, "1", "a&b", "x\x01",
                 _Text("s"), _Float(1.5), _Int(3), date(2023, 1, 2), datetime(2023, 1, 2, 5, 30))
TRICKY_KEYS = ("v", "w", "a&b", 'q"t', "<k>", "tab\t", "bad\x02", "")
tricky_logs = st.builds(
    lambda evs: EventLog(tuple(evs)),
    st.lists(st.builds(
        Event,
        case_id=st.sampled_from(("c1", "c2", "c&3")),
        activity=st.sampled_from(("A", "B<")),
        timestamp=st.dates(min_value=date(2023, 1, 1), max_value=date(2023, 1, 9)),
        attributes=st.dictionaries(st.sampled_from(TRICKY_KEYS), st.sampled_from(TRICKY_VALUES),
                                   max_size=5),
    ), max_size=8),
)


def _written(write, log):
    try:
        return bytes(write(log))
    except PathminerError as exc:
        return type(exc), str(exc)


def _exactly(log: EventLog) -> dict:
    """A log's traces with every field and attribute as its class and repr, its ``None``
    attributes dropped: unequal where == would take 1 for True or 0.0 for -0.0."""
    def exact(value):
        return value.__class__, repr(value)

    return {exact(case): [(exact(e.activity), exact(e.timestamp),
                           sorted((k, exact(v)) for k, v in e.attributes.items() if v is not None))
                          for e in trace]
            for case, trace in log.traces().items()}


def _reads_back(data, log: EventLog) -> bool:
    try:
        return _exactly(read_xes(data)) == _exactly(log)
    except FormatError:
        return False


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tricky_logs)
def test_writer_agrees_with_the_writer_that_built_every_line_alike(log):
    # the bytes, or the exact error, of the writer before numbers were written in line,
    # except that this writer refuses the first value of a class outside its table (here a
    # subclass, which that writer wrote by its own methods), and only where that writer's
    # bytes, if any, read_xes refuses or reads back as another log
    new, old = _written(write_xes, log), _written(reference_write_xes, log)
    refused = re.fullmatch(r"trace (\d+) event (\d+): (.*) holds .*, which read_xes would not read back",
                           str(new[1]))
    if new != old and new[0] is FormatError and refused:
        event = list(log.traces().values())[int(refused[1])][int(refused[2])]
        value, = (v for k, v in event.attributes.items() if repr(k) == refused[3])
        assert value.__class__ not in (str, bool, int, float, date), new
        assert old.__class__ is tuple or not _reads_back(old, log), new
    else:
        assert new == old


class _Flag(enum.Enum):
    ON = 1


# Values of every kind: the five classes read_xes returns, edge values of each, subclasses,
# numpy scalars, an enum, a list, a datetime, non-finite floats and text XML cannot carry.
ANY_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -0.0, 0.0, 2**70, "", "a&b", "x\x01", "\ud800",
                     date(1, 1, 1), datetime(2023, 1, 2), datetime(2023, 1, 2, 5, 30), [1, 2],
                     _Flag.ON, _Text("s"), _Float(1.5), _Int(3), np.float64(2.5), np.int64(7),
                     np.bool_(True), float("nan"), float("inf"), -float("inf")]),
    st.integers(), st.floats(), st.text(max_size=3), st.dates(), attr_values)


@st.composite
def any_logs(draw):
    # one timestamp class per log: EventLog sorts each case's events by timestamp
    stamps = draw(st.sampled_from([st.dates(), st.dates(), st.datetimes(), st.sampled_from(["d"])]))
    events = draw(st.lists(st.builds(
        Event,
        case_id=st.sampled_from(["c1", "c&2", "", _Text("c3"), "c\x01"]),
        activity=st.one_of(names, st.sampled_from([5, 2.5, True, _Text("A"), "B\x02", _Flag.ON])),
        timestamp=stamps,
        attributes=st.dictionaries(st.sampled_from(TRICKY_KEYS), ANY_VALUES, max_size=5),
    ), max_size=6))
    return EventLog(tuple(events))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(any_logs())
def test_a_log_is_written_to_read_back_as_itself_or_refused(log):
    # less its None attributes, and each value of its own class; a refused log is one
    # whose bytes from the writer that wrote every value would not read back either
    try:
        data = write_xes(log)
    except FormatError:
        assert not (isinstance(old := _written(reference_write_xes, log), bytes)
                    and _reads_back(old, log))
        return
    assert _exactly(read_xes(data)) == _exactly(log)


@pytest.mark.parametrize(("second", "message"), [
    ({"activity": 5}, "trace 1 event 0: 'concept:name' holds 5"),
    ({"activity": _Text("a")}, "trace 1 event 0: 'concept:name' holds 'a'"),
    ({"timestamp": "2023-01-02"}, "trace 1 event 0: 'time:timestamp' holds '2023-01-02'"),
    ({"attributes": {"n": [1, 2]}}, "trace 1 event 0: 'n' holds [1, 2]"),
    ({"attributes": {"w": np.float64(2.5)}}, "trace 1 event 0: 'w' holds np.float64(2.5)"),
    ({"attributes": {"w": float("nan")}}, "trace 1 event 0: 'w' holds nan"),
    ({"attributes": {"w": -float("inf")}}, "trace 1 event 0: 'w' holds -inf"),
    ({"attributes": {"f": _Flag.ON}}, "trace 1 event 0: 'f' holds <_Flag.ON: 1>"),
    ({"attributes": {"i": _Int(3)}}, "trace 1 event 0: 'i' holds 3"),
    ({"attributes": {5: 1}}, "trace 1 event 0: key 5 holds 5"),
], ids=["int-activity", "str-subclass-activity", "str-timestamp", "list", "numpy-float", "nan",
        "-inf", "enum", "int-subclass", "int-key"])
def test_the_writer_refuses_a_value_read_xes_would_not_read_back(second, message):
    with pytest.raises(FormatError) as caught:
        write_xes(_two_cases(**second))
    assert str(caught.value) == f"{message}, which read_xes would not read back"


def test_a_value_is_refused_before_its_key_and_the_first_attribute_first():
    log = _two_cases(attributes={"a": "ok", "b\x01": [1], "c": float("nan")})
    with pytest.raises(FormatError, match=r"^trace 1 event 0: 'b\\x01' holds \[1\], "):
        write_xes(log)


def _outcome(read, data):
    try:
        return "events", read(data).events
    except PathminerError as exc:
        return type(exc), str(exc)


_ENTITIES = {"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;", "'": "&apos;"}


def _attribute_text(rng: random.Random, text: str, quote: str) -> str:
    """``text`` as an attribute value, with random entity and character references."""
    out = []
    for char in text:
        if char in "&<\t\n\r" or char == quote or rng.random() < 0.2:
            forms = [f"&#{ord(char)};", f"&#x{ord(char):X};"]
            forms += [_ENTITIES[char]] if char in _ENTITIES else []
            out.append(rng.choice(forms))
        else:
            out.append(char)
    return "".join(out)


def _space(rng: random.Random) -> str:
    return rng.choice(["", "\n", "\n  ", " \t ", "\n<!-- note -->\n", "text"])


def _element(rng, tag, pairs, children="") -> str:
    quote = rng.choice("\"'")
    pairs = list(pairs)
    rng.shuffle(pairs)
    attributes = "".join(
        f"{rng.choice([' ', chr(10), '  '])}{name}{rng.choice(['=', ' = '])}"
        f"{quote}{_attribute_text(rng, text, quote)}{quote}"
        for name, text in pairs
    )
    if children or rng.random() < 0.3:
        return f"<{tag}{attributes}>{children}</{tag}>"
    return f"<{tag}{attributes}{rng.choice(['', ' '])}/>"


def _typed(rng: random.Random, value) -> tuple[str, str]:
    if isinstance(value, bool):
        return "boolean", rng.choice(["true", "1"] if value else ["false", "0"])
    if isinstance(value, int):
        return "int", str(value)
    if isinstance(value, float):
        return "float", rng.choice([repr(value), f"{value:.17e}"])
    if isinstance(value, date):
        return "date", rng.choice([f"{value.isoformat()}T00:00:00+00:00",
                                   f"{value.isoformat()}T00:00:00Z", value.isoformat()])
    return "string", value


def _attribute(rng, key, value, nested=False) -> str:
    tag, text = _typed(rng, value)
    children = ""
    if nested and rng.random() < 0.2:  # nested meta-attributes are not the event's
        children = _element(rng, "int", [("key", "meta"), ("value", "not a number")])
        children += _element(rng, "foo", [])
    return _element(rng, tag, [("key", key), ("value", text)], children)


def _variant_document(rng: random.Random, log: EventLog) -> str:
    """``log`` as an XES document that the writer never emits: other attribute
    orders, quotes and whitespace, references in values, extra trace-level
    attributes, a case id after the events, unknown and nested elements."""
    parts = []
    for case_id, trace in log.traces().items():
        items = []
        for event in trace:
            fields = [_attribute(rng, "concept:name", event.activity),
                      _attribute(rng, "time:timestamp", event.timestamp)]
            rng.shuffle(fields)
            extra = [_attribute(rng, key, value, nested=True)
                     for key, value in event.attributes.items() if value is not None]
            rng.shuffle(extra)
            if rng.random() < 0.2:
                extra.append(_element(rng, "note", [("key", "unknown tag"), ("value", "kept")]))
            items.append(_element(rng, "event", [], _space(rng).join(fields + extra)))
        if rng.random() < 0.3:
            items.insert(rng.randrange(len(items) + 1), _attribute(rng, "cohort", "x", True))
        if rng.random() < 0.3:
            items.insert(rng.randrange(len(items) + 1), _element(rng, "foo", []))
        position = len(items) if rng.random() < 0.3 else rng.randrange(len(items) + 1)
        items.insert(position, _attribute(rng, "concept:name", case_id))
        if rng.random() < 0.3:  # an earlier concept:name, which the case id overrides
            items.insert(0, _attribute(rng, "concept:name", "decoy"))
        parts.append(_element(rng, "trace", [], _space(rng).join(items)))
    head = rng.choice(["", "<?xml version='1.0' encoding='UTF-8'?>\n"])
    globals_ = _element(rng, "global", [("scope", "event")],
                        _attribute(rng, "concept:name", "UNKNOWN"))
    return f"{head}<log xes.version='1.0'>{globals_}{_space(rng).join(parts)}</log>"


@settings(max_examples=80, deadline=None)
@given(st.one_of(logs, xml_logs), st.integers(0, 2**32 - 1), st.booleans())
def test_reader_agrees_with_the_reference_on_variant_documents(log, seed, as_bytes):
    document = _variant_document(random.Random(seed), log)
    data = document.encode("utf-8") if as_bytes else document
    assert _scan_written(document.encode("utf-8")) is None
    assert _outcome(read_xes, data) == _outcome(ReferenceXes.read_xes, data)


TAGS = ("trace", "event", "string", "int", "float", "boolean", "date", "foo")
ATTRIBUTE_TAGS = ("string", "string", "int", "float", "boolean", "date", "foo")
KEYS = (None, "concept:name", "time:timestamp", "k", "k2")
VALUES = (None, "A", "B", "", "1", "0", "yes", "2.5", "inf", "13",
          "2020-01-01T00:00:00+00:00", "2020-01-01", "2020-13-01",
          "2020-01-01T08:00:00+00:00", "2019-12-31T23:30:00-02:00", "2020-01-01T00:00:00Z")
VALID = {"string": ("A", "", "x y"), "foo": ("B",), "int": ("13", "-1"), "float": ("2.5", "1e3"),
         "boolean": ("true", "0"), "date": ("2020-01-01T00:00:00+00:00", "2020-01-02")}


def _random_tree(rng: random.Random):
    """A document tree near the XES shape: traces of events whose first
    children are an activity and a timestamp, each piece now and then
    missing, mistyped, duplicated, misplaced or out of place."""
    def odd() -> bool:
        return rng.random() < 0.04

    def node(tag, key=None, value=None, children=()):
        return (tag, key, value, tuple(children))

    def any_element():
        return node(rng.choice(TAGS) if odd() else "foo", rng.choice(KEYS), rng.choice(VALUES))

    def attribute(key=None, values=None):
        tag = "string" if values and not odd() else rng.choice(ATTRIBUTE_TAGS)
        values = VALUES if odd() else values or VALID[tag]
        nested = [any_element() for _ in range(rng.randint(1, 2))] if odd() else []
        return node(tag, key or rng.choice(KEYS if odd() else KEYS[3:]), rng.choice(values),
                    nested)

    def event():
        children = [any_element() if odd() else attribute() for _ in range(rng.randint(0, 4))]
        if not odd():
            children.insert(0, node("string" if odd() else "date", "time:timestamp",
                                    rng.choice(VALUES) if odd() else VALID["date"][0]))
        if not odd():
            children.insert(rng.randint(0, len(children)),
                            attribute("concept:name", ("A", "B", "", None) if odd() else "AB1"))
        return node("event", children=children)

    def trace():
        children = [event() for _ in range(rng.randint(1, 3))]
        extra = [any_element() if odd() else attribute() for _ in range(rng.randint(0, 2))]
        if not odd():
            extra.append(attribute("concept:name", (None,) if odd() else "ABCDEFGH"))
        for element in extra:
            children.insert(rng.randint(0, len(children)), element)
        return node("trace", children=children)

    children = [any_element() if odd() else trace() for _ in range(rng.randint(0, 4))]
    return node("trace" if odd() else "log", children=children)


def _render(node) -> str:
    tag, key, value, children = node
    attributes = "".join(f' {name}="{text}"' for name, text in (("key", key), ("value", value))
                         if text is not None)
    return f"<{tag}{attributes}>{''.join(map(_render, children))}</{tag}>"


def _tree_document(seed: int) -> str:
    """A ``_random_tree`` document, one in twenty cut short."""
    rng = random.Random(seed)
    document = _render(_random_tree(rng))
    return document[: len(document) * 2 // 3] if rng.random() < 0.05 else document


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_reader_agrees_with_the_reference_on_random_trees(seed):
    document = _tree_document(seed)
    assert _scan_written(document.encode("utf-8")) is None
    new = _outcome(read_xes, document)
    if "misplaced" in str(new[1]):
        return  # the one allowed divergence, pinned below
    assert new == _outcome(ReferenceXes.read_xes, document)


def test_an_event_nested_below_an_attribute_is_rejected_where_the_reference_read_it():
    # the tree reader read every <event> below a trace, here twice over: the
    # nested one, and its parent with the nested one as a string attribute
    event = ('<event><string key="concept:name" value="X"/>'
             '<date key="time:timestamp" value="2020-01-01T00:00:00+00:00"/>{}</event>')
    nested = event.format("")
    data = ('<log><trace><string key="concept:name" value="A"/>'
            + event.format(f'<string key="note" value="n">{nested}</string>')
            + "</trace></log>")
    assert len(ReferenceXes.read_xes(data).events) == 2
    with pytest.raises(FormatError, match="trace 0: misplaced <event>"):
        read_xes(data)


def _keyless_in_an_event(data) -> bool:
    """Whether an event of a trace holds an ``<event>`` or ``<trace>`` without a key or value."""
    return any(child.tag in ("event", "trace") and None in (child.get("key"), child.get("value"))
               for trace in ET.fromstring(data).iter("trace") for event in trace.iter("event")
               for child in event)


def _not_a_non_empty_string(element) -> bool:
    return element.tag != "string" or element.get("value") == ""


def _breaks_the_element_rules(data) -> bool:
    """Whether a trace's concept:name or an event's first one is not a non-empty string
    element, or an event holds an element of another type than an attribute's."""
    traces = list(ET.fromstring(data).iter("trace"))
    events = [event for trace in traces for event in trace.iter("event")]
    activities = [[child for child in event if child.get("key") == "concept:name"][:1]
                  for event in events]
    return any(child.tag != "event" and child.get("key") == "concept:name"
               and _not_a_non_empty_string(child) for trace in traces for child in trace) or any(
        _not_a_non_empty_string(child) for first in activities for child in first) or any(
        child.tag not in ("string", "int", "float", "boolean", "date", "event", "trace")
        for event in events for child in event)


TABLE_XES = (Path(__file__).parent / "golden" / "transform_table.xes").read_bytes()


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.one_of(st.integers(0, 2**32 - 1).map(_tree_document),
                 mutated(TABLE_XES).map(lambda data: data.decode("utf-8", "replace"))),
       st.booleans())
def test_reader_agrees_with_the_single_pass_reader_it_replaced(document, as_bytes):
    # the same log, or the same error, except for a keyless <event> or <trace>
    # in an event: the parent deferred "attribute without key" to the trace's end;
    # and a case id, activity or event attribute that the parent took and this reader refuses
    data = document.encode("utf-8") if as_bytes else document
    new, old = _expat_only(data), _outcome(reference_read_xes_expat, data)
    if new != old and re.fullmatch(r"trace \d+: misplaced <(event|trace)>", str(new[1])):
        assert old[0] is FormatError and _keyless_in_an_event(data), (new, old)
    elif new != old:
        assert new[0] is FormatError and re.fullmatch(
            r"trace \d+: the case id must .*|trace \d+ event \d+: the activity must .*"
            r"|trace \d+ event \d+: <.*> is not an attribute element",
            new[1]), (new, old)
        assert _breaks_the_element_rules(data), (new, old)


@pytest.mark.parametrize("data", [
    "<log><trace><trace/></trace></log>",
    '<log><trace><string key="concept:name" value="A"><event/></string></trace></log>',
    '<log><trace><event><event key="k" value="v"/></event></trace></log>',
    # reported where it opens, not as an attribute without key after the trace's case id
    '<log><trace><string key="concept:name" value="a"/><event><event/></event></trace></log>',
    '<log><trace><event><trace value="v"/></event></trace></log>',
])
def test_a_trace_or_event_where_xes_puts_none_is_rejected(data):
    with pytest.raises(FormatError, match=r"^trace 0: misplaced <(event|trace)>$"):
        read_xes(data)


def test_malformed_xml_is_reported_before_an_error_in_its_content():
    data = '<log><trace><event/></trace><trace>'
    with pytest.raises(FormatError, match="malformed XML"):
        read_xes(data)


def test_case_id_may_follow_the_events():
    data = ('<log><trace><event><string key="concept:name" value="X"/>'
            '<date key="time:timestamp" value="2020-01-01T00:00:00Z"/></event>'
            '<string key="concept:name" value="first"/>'
            '<string key="concept:name" value="last"/></trace></log>')
    assert [e.case_id for e in read_xes(data).events] == ["last"]


@pytest.mark.parametrize("element", [
    '<int key="concept:name" value="abc"/>',
    '<date key="concept:name" value="abc"/>',
    '<foo key="concept:name" value="abc"/>',
    '<string key="concept:name" value=""/>',
])
@pytest.mark.parametrize("read", [read_xes, ReferenceXes.read_xes])
def test_a_case_id_is_a_non_empty_string_element(element, read):
    data = ("<log><trace>" + element + '<event><string key="concept:name" value="X"/>'
            '<date key="time:timestamp" value="2020-01-01T00:00:00+00:00"/></event></trace></log>')
    tag = element[1:element.index(" ")]
    value = "'abc'" if "abc" in element else "''"
    message = f"^trace 0: the case id must be a non-empty <string>, got <{tag}> with value {value}$"
    for document in (data, data.encode()):
        with pytest.raises(FormatError, match=message):
            read(document)


def test_the_scan_declines_an_empty_case_id_and_the_fallback_reports_it():
    written = bytes(write_xes(EventLog((Event("c", "a", date(2020, 1, 1)),))))
    data = written.replace(b'<string key="concept:name" value="c" />', b'<string key="concept:name" value="" />')
    assert data != written and _scan_written(data) is None
    with pytest.raises(FormatError, match="^trace 0: the case id must be a non-empty <string>"):
        read_xes(data)


@pytest.mark.parametrize("case_id", ["", 7])
def test_the_writer_refuses_a_case_id_the_reader_would_not_read_back(case_id):
    log = EventLog((Event(case_id, "x", date(2020, 1, 1)),))
    with pytest.raises(FormatError, match=f"^trace 0: case id {case_id!r} is not a non-empty string$"):
        write_xes(log)


@pytest.mark.parametrize("element", [
    '<int key="concept:name" value="5"/>',
    '<boolean key="concept:name" value="true"/>',
    '<string key="concept:name" value=""/>',
])
@pytest.mark.parametrize("read", [read_xes, ReferenceXes.read_xes])
def test_an_activity_is_a_non_empty_string_element(element, read):
    # the first concept:name of an event; a later one is an attribute of any type
    data = ('<log><trace><string key="concept:name" value="A"/><event>' + element
            + '<date key="time:timestamp" value="2020-01-01"/><int key="concept:name" value="6"/>'
            '</event></trace></log>')
    tag = element[1:element.index(" ")]
    value = repr(element.split('value="')[1].split('"')[0])
    message = f"trace 0 event 0: the activity must be a non-empty <string>, got <{tag}> with value {value}"
    for document in (data, data.encode()):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            read(document)


def test_the_scan_declines_an_empty_activity_and_the_fallback_reports_it():
    written = bytes(write_xes(EventLog((Event("c", "a", date(2020, 1, 1)),))))
    data = written.replace(b'<string key="concept:name" value="a" />', b'<string key="concept:name" value="" />')
    assert data != written and _scan_written(data) is None
    with pytest.raises(FormatError, match="^trace 0 event 0: the activity must be a non-empty <string>"):
        read_xes(data)


@pytest.mark.parametrize("read", [read_xes, ReferenceXes.read_xes])
def test_an_event_attribute_of_another_element_type_is_refused(read):
    data = "<log>" + _one_event_trace("A", '<foo key="k" value="v"/>') + "</log>"
    with pytest.raises(FormatError, match=r"^trace 0 event 0: <foo> is not an attribute element$"):
        read(data)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.builds(Event, case_id=st.sampled_from(["", "a", "b"]), activity=names,
                          timestamp=st.dates(min_value=date(2000, 1, 1),
                                             max_value=date(2030, 12, 31)),
                          attributes=st.dictionaries(names, attr_values, max_size=3)),
                max_size=6))
def test_what_the_writer_writes_reads_back_as_the_log(events):
    log = EventLog(tuple(events))
    try:
        data = write_xes(log)
    except FormatError:
        assert "" in {e.case_id for e in events}
        return
    assert read_xes(data).traces() == log.traces()


@pytest.mark.parametrize("read", [read_xes, ReferenceXes.read_xes])
def test_a_root_in_a_namespace_is_named_as_element_tree_names_it(read):
    data = '<log xmlns="http://www.xes-standard.org/"><trace/></log>'
    with pytest.raises(FormatError, match=r"^expected <log> root, found <\{http://www\.xes-standard\.org/\}log>$"):
        read(data)
