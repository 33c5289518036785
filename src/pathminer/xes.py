"""Minimal XES event-log interchange.

Only the concept and time extensions are used: the activity lives under
``concept:name``, the timestamp under ``time:timestamp`` (dates are emitted
as midnight UTC), and the case id is the trace-level ``concept:name``. Event
attributes are typed string/int/float/boolean/date elements; absent values
are simply omitted and come back as absent on read. An event's first
``concept:name`` and ``time:timestamp`` are its activity and timestamp;
later elements under those keys are attributes. Reading is strict: a
boolean must be one of the xs:boolean forms ``true``/``false``/``1``/``0``,
a float must be finite, and no two traces may share a case id.
"""

import xml.etree.ElementTree as ET
import math
from datetime import date, datetime, timezone

from .errors import FormatError
from .model import AttrValue, Event, EventLog

_EXTENSIONS = (
    ("Concept", "concept", "http://www.xes-standard.org/concept.xesext"),
    ("Time", "time", "http://www.xes-standard.org/time.xesext"),
)

# The xs:boolean lexical forms.
_BOOLEANS = {"true": True, "false": False, "1": True, "0": False}


def _attr_element(key: str, value: AttrValue) -> ET.Element:
    if isinstance(value, bool):
        return ET.Element("boolean", key=key, value="true" if value else "false")
    if isinstance(value, int):
        return ET.Element("int", key=key, value=str(value))
    if isinstance(value, float):
        return ET.Element("float", key=key, value=repr(value))
    if isinstance(value, date):
        return ET.Element("date", key=key, value=_date_value(value))
    return ET.Element("string", key=key, value=str(value))


def _date_value(day: date) -> str:
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).isoformat()


def write_xes(log: EventLog) -> bytes:
    """Serialize a log to XES with a stable element order."""
    root = ET.Element("log", attrib={"xes.version": "1.0"})
    for name, prefix, uri in _EXTENSIONS:
        ET.SubElement(root, "extension", name=name, prefix=prefix, uri=uri)
    for case_id, events in log.traces().items():
        trace = ET.SubElement(root, "trace")
        trace.append(_attr_element("concept:name", case_id))
        for event in events:
            node = ET.SubElement(trace, "event")
            node.append(_attr_element("concept:name", event.activity))
            node.append(
                ET.Element("date", key="time:timestamp", value=_date_value(event.timestamp))
            )
            for key in sorted(event.attributes):
                value = event.attributes[key]
                if value is None:
                    continue
                node.append(_attr_element(key, value))
    ET.indent(root, space="  ")
    return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"


def _parse_value(node: ET.Element, where: str) -> AttrValue:
    text = node.get("value")
    if text is None:
        raise FormatError(f"{where}: attribute element without value")
    tag = node.tag
    try:
        if tag == "int":
            return int(text)
        if tag == "float":
            value = float(text)
            if not math.isfinite(value):
                raise ValueError
            return value
        if tag == "boolean":
            if text not in _BOOLEANS:
                raise ValueError
            return _BOOLEANS[text]
        if tag == "date":
            return datetime.fromisoformat(text.replace("Z", "+00:00")).date()
    except ValueError:
        raise FormatError(f"{where}: bad {tag} value {text!r}") from None
    return text


def read_xes(data: bytes | str) -> EventLog:
    """Parse an XES document produced by :func:`write_xes` or compatible."""
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise FormatError(f"malformed XML: {exc}") from None
    if root.tag != "log":
        raise FormatError(f"expected <log> root, found <{root.tag}>")

    events: list[Event] = []
    trace_of_case: dict[str, int] = {}
    for t_index, trace in enumerate(root.iter("trace")):
        case_id = None
        for child in trace:
            if child.tag != "event" and child.get("key") == "concept:name":
                case_id = child.get("value")
        if case_id is None:
            raise FormatError(f"trace {t_index}: missing concept:name")
        if case_id in trace_of_case:
            raise FormatError(
                f"trace {t_index}: concept:name {case_id!r} already names trace "
                f"{trace_of_case[case_id]}"
            )
        trace_of_case[case_id] = t_index
        for e_index, node in enumerate(trace.iter("event")):
            where = f"trace {t_index} event {e_index}"
            activity = None
            timestamp = None
            attributes: dict[str, AttrValue] = {}
            for child in node:
                key = child.get("key")
                if key is None:
                    raise FormatError(f"{where}: attribute without key")
                value = _parse_value(child, where)
                if key == "concept:name" and activity is None:
                    activity = value
                elif key == "time:timestamp" and timestamp is None:
                    if not isinstance(value, date):
                        raise FormatError(f"{where}: time:timestamp is not a date")
                    timestamp = value
                else:
                    attributes[key] = value
            if activity is None:
                raise FormatError(f"{where}: missing concept:name")
            if timestamp is None:
                raise FormatError(f"{where}: missing time:timestamp")
            events.append(Event(case_id, str(activity), timestamp, attributes))
    return EventLog(tuple(events))
