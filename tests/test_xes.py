from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathminer.errors import FormatError
from pathminer.model import Event, EventLog
from pathminer.xes import read_xes, write_xes

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


def test_attributes_under_the_reserved_keys_survive():
    # the writer puts the activity and timestamp first; later elements
    # under the same keys are the event's attributes
    event = Event("c", "a", date(2023, 1, 1), {"concept:name": 0, "time:timestamp": "x"})
    back = read_xes(write_xes(EventLog((event,)))).events[0]
    assert (back.activity, back.timestamp) == ("a", date(2023, 1, 1))
    assert back.attributes == event.attributes


def test_write_is_deterministic(example_log):
    assert write_xes(example_log) == write_xes(example_log)


def test_malformed_xml_rejected():
    with pytest.raises(FormatError, match="malformed"):
        read_xes(b"<log><trace>")


def test_event_without_activity_rejected():
    data = (
        b'<log><trace><string key="concept:name" value="c"/>'
        b'<event><date key="time:timestamp" value="2023-01-01T00:00:00+00:00"/></event>'
        b"</trace></log>"
    )
    with pytest.raises(FormatError, match="concept:name"):
        read_xes(data)


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


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_float_rejected(text):
    data = "<log>" + _one_event_trace("A", f'<float key="wbc" value="{text}"/>') + "</log>"
    with pytest.raises(FormatError, match=f"bad float value '{text}'"):
        read_xes(data)
