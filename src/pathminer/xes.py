"""Minimal XES event-log interchange: the concept and time extensions only.

The activity and the case id live under ``concept:name``, the timestamp under
``time:timestamp`` (dates are midnight UTC). Attributes are typed
string/int/float/boolean/date elements; absent values are omitted. The writer
encodes each trace of its fixed layout into one buffer and refuses a string
outside the XML 1.0 ``Char`` production. The reader is one strict expat pass
with no element tree, and holds each distinct key and string value once.
"""

import re
from datetime import date, datetime, timezone
from math import isfinite
from xml.parsers.expat import ExpatError, ParserCreate

from .errors import FormatError, PathminerError
from .model import AttrValue, Event, EventLog

_HEAD = """<?xml version='1.0' encoding='UTF-8'?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext" />
  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext" />"""

_BOOLEANS = {"true": True, "false": False, "1": True, "0": False}

# ElementTree's attribute escapes, and a character outside the XML 1.0 Char production.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})
# Spelled as the excluded ranges: the negated Char class compiles ten times slower.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _date_value(day: date) -> str:
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).isoformat()


def _escaped(text: str, texts: dict[str, str], where: str) -> str:
    """``text`` checked and escaped as ElementTree escapes attributes; memoised."""
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise FormatError(f"{where} holds {bad.group()!r}, which XML 1.0 cannot represent")
    texts[text] = escaped = text.translate(_ESCAPES)
    return escaped


def write_xes(log: EventLog) -> bytearray:
    """Serialize a log to XES in a stable element order, each trace encoded into one
    buffer; a string XML 1.0 cannot represent is a FormatError naming its trace and key."""
    texts: dict[str, str] = {}
    days: dict[date, str] = {}

    def element(key: str, value: AttrValue, where: str) -> str:
        if value.__class__ is str:
            tag, text = "string", texts.get(value) or _escaped(value, texts, f"{where}: {key!r}")
        elif isinstance(value, bool):
            tag, text = "boolean", "true" if value else "false"
        elif isinstance(value, int):
            tag, text = "int", str(value)
        elif isinstance(value, float):
            tag, text = "float", repr(value)
        elif isinstance(value, date):
            tag, text = "date", days.get(value) or days.setdefault(value, _date_value(value))
        else:
            tag, text = "string", _escaped(str(value), texts, f"{where}: {key!r}")
        name = texts.get(key) or _escaped(key, texts, f"{where}: key {key!r}")
        return f'<{tag} key="{name}" value="{text}" />'

    buffer = bytearray(_HEAD.encode("utf-8"))
    for t_index, (case_id, events) in enumerate(log.traces().items()):
        lines = ["", "  <trace>", "    " + element("concept:name", case_id, f"trace {t_index}")]
        push = lines.append
        for e_index, event in enumerate(events):
            where = f"trace {t_index} event {e_index}"
            push("    <event>")
            push("      " + element("concept:name", event.activity, where))
            push("      " + element("time:timestamp", event.timestamp, where))
            for key, value in sorted(event.attributes.items()):
                if value is not None:
                    push("      " + element(key, value, where))
            push("    </event>")
        push("  </trace>")
        buffer += "\n".join(lines).encode("utf-8")
    buffer += b"\n</log>\n"
    return buffer


def _parse(data: bytes | bytearray | str, start=None, end=None) -> None:
    parser = ParserCreate(None, "}")  # the namespace handling ElementTree used
    parser.StartElementHandler, parser.EndElementHandler = start, end
    try:
        parser.Parse(data, True)
    except ExpatError as exc:
        raise FormatError(f"malformed XML: {exc}") from None
    except (LookupError, ValueError) as exc:
        # expat asks Python's codecs for an encoding it does not know itself,
        # at the XML declaration, before any element handler runs
        raise FormatError(f"unsupported XML encoding: {exc}") from None


def read_xes(data: bytes | bytearray | str) -> EventLog:
    """Parse an XES document produced by :func:`write_xes` or compatible.

    The case id is the last trace-level ``concept:name``; an event's first
    ``concept:name`` and ``time:timestamp`` are its activity and timestamp,
    its other direct children its attributes. Booleans must be xs:boolean,
    numbers ASCII with no ``_``, floats finite, case ids unique, traces
    not empty; a ``<trace>`` or ``<event>`` inside an event, attribute or
    trace is misplaced. Errors come in the order a tree reader meets them:
    malformed XML, root, then per trace case id, events, emptiness."""
    events: list[Event] = []
    trace_of_case: dict[str, int] = {}
    # depths of: this element, the open trace, its open event's children, the next close
    depth = trace_depth = attr_depth = closes = 0
    case_id = activity = timestamp = None
    attributes: dict[str, AttrValue] = {}
    pending: list[tuple] = []  # (activity, timestamp, attributes) per event of the open trace
    error = None  # the open trace's first event error, raised once its case id is checked
    seen: dict[str, str] = {}  # each distinct key and string value, held once

    def fail(message: str) -> None:
        nonlocal error
        if error is None:
            error = f"trace {len(trace_of_case)} event {len(pending)}: {message}"

    def start(tag, attrs):
        nonlocal depth, trace_depth, attr_depth, closes, case_id, activity, timestamp, attributes
        depth += 1
        if depth == attr_depth:
            try:
                key = seen.setdefault(attrs["key"], attrs["key"])
                text = attrs["value"]
                if tag == "float":
                    value = float(text)
                    if not isfinite(value) or "_" in text or not text.isascii():
                        raise ValueError  # float() takes "8_0.5" and non-ASCII digits
                elif tag == "boolean":
                    value = _BOOLEANS[text]
                elif tag == "int":
                    value = int(text)
                    if "_" in text or not text.isascii():
                        raise ValueError  # int() takes "1_000" and non-ASCII digits
                elif tag == "date":
                    value = datetime.fromisoformat(text.replace("Z", "+00:00")).date()
                elif tag == "event" or tag == "trace":
                    raise FormatError(f"trace {len(trace_of_case)}: misplaced <{tag}>")
                else:
                    value = seen.setdefault(text, text)
            except (KeyError, ValueError):
                fail("attribute without key" if "key" not in attrs
                     else "attribute element without value" if "value" not in attrs
                     else f"bad {tag} value {attrs['value']!r}")
                return
            if activity is None and key == "concept:name":
                activity = value
            elif timestamp is None and key == "time:timestamp":
                timestamp = value
                if not isinstance(value, date):
                    fail("time:timestamp is not a date")
            else:
                attributes[key] = value
        elif trace_depth:
            if tag == "trace" or tag == "event" and (attr_depth or depth > trace_depth + 1):
                raise FormatError(f"trace {len(trace_of_case)}: misplaced <{tag}>")
            if depth == trace_depth + 1:
                if tag == "event":
                    attr_depth, closes = depth + 1, depth
                    activity, timestamp, attributes = None, None, {}
                elif attrs.get("key") == "concept:name":
                    case_id = attrs.get("value")
        elif depth == 1 and tag != "log":
            raise FormatError(f"expected <log> root, found <{tag if '}' not in tag else '{' + tag}>")
        elif tag == "trace":
            trace_depth = closes = depth
            case_id = None
            pending.clear()

    def end(tag):
        nonlocal depth, trace_depth, attr_depth, closes
        if depth == closes:
            if attr_depth:
                attr_depth, closes = 0, trace_depth
                if activity is None:
                    fail("missing concept:name")
                elif timestamp is None:
                    fail("missing time:timestamp")
                elif error is None:
                    pending.append((str(activity), timestamp, attributes))
            else:
                trace_depth = closes = 0
                t_index = len(trace_of_case)
                if case_id is None:
                    raise FormatError(f"trace {t_index}: missing concept:name")
                if case_id in trace_of_case:
                    raise FormatError(f"trace {t_index}: concept:name {case_id!r} already "
                                      f"names trace {trace_of_case[case_id]}")
                trace_of_case[case_id] = t_index
                events.extend(Event(case_id, *fields) for fields in pending)
                if error is not None:
                    raise FormatError(error)
                if not pending:  # an EventLog holds no case without events
                    raise FormatError(f"trace {t_index}: {case_id!r} holds no <event>")
        depth -= 1

    try:
        _parse(data, start, end)
    except PathminerError:
        _parse(data)  # a malformed document is reported as such, whatever it holds
        raise
    return EventLog(tuple(events))
