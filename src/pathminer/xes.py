"""Minimal XES event-log interchange: the concept and time extensions only.

The activity and the case id live under ``concept:name``, the timestamp under
``time:timestamp`` (dates are midnight UTC). Attributes are typed
string/int/float/boolean/date elements; absent values are omitted. The writer
encodes each trace of its fixed layout into one buffer, writes an exact float,
int or bool of an already-escaped key in line, and refuses a string outside
the XML 1.0 ``Char`` production, and a ``datetime``, whose time a date would
drop. The reader scans that layout; any other document, and any error, goes
to one strict expat pass that collects each trace and checks it once it closes.
"""

import re
from datetime import date, datetime
from math import isfinite
from xml.parsers.expat import ExpatError, ParserCreate

from .errors import FormatError, PathminerError
from .model import ISO_DATE, AttrValue, Event, EventLog

_HEAD = b"""<?xml version='1.0' encoding='UTF-8'?>
<log xes.version="1.0">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext" />
  <extension name="Time" prefix="time" uri="http://www.xes-standard.org/time.xesext" />"""

_BOOLEANS = {"true": True, "false": False, "1": True, "0": False}
_DATE = re.compile(rf"({ISO_DATE})(?:T00:00:00(?:\+00:00|Z))?", re.ASCII)

# ElementTree's attribute escapes, and a character outside the XML 1.0 Char production.
_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                          "\r": "&#13;", "\n": "&#10;", "\t": "&#09;"})
# Spelled as the excluded ranges: the negated Char class compiles ten times slower.
_NOT_XML_CHAR = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escaped(text: str, texts: dict[str, str], where: str) -> str:
    """``text`` checked and escaped as ElementTree escapes attributes; memoised."""
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise FormatError(f"{where} holds {bad.group()!r}, which XML 1.0 cannot represent")
    texts[text] = escaped = text.translate(_ESCAPES)
    return escaped


def write_xes(log: EventLog) -> bytearray:
    """Serialize a log to XES in a stable element order, each trace encoded into one buffer;
    a string XML 1.0 cannot represent, or a datetime, is a FormatError naming trace and key."""
    texts: dict[str, str] = {}

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
            if isinstance(value, datetime):  # midnight UTC of its date would drop the time
                raise FormatError(f"{where}: {key!r} holds the datetime {value}, not a date")
            tag, text = "date", f"{date.isoformat(value)}T00:00:00+00:00"  # midnight UTC
        else:
            tag, text = "string", _escaped(str(value), texts, f"{where}: {key!r}")
        name = texts.get(key) or _escaped(key, texts, f"{where}: key {key!r}")
        return f'<{tag} key="{name}" value="{text}" />'

    buffer = bytearray(_HEAD)
    for t_index, (case_id, events) in enumerate(log.traces().items()):
        lines = ["", "  <trace>", "    " + element("concept:name", case_id, f"trace {t_index}")]
        push = lines.append
        for e_index, event in enumerate(events):
            where = f"trace {t_index} event {e_index}"
            push("    <event>")
            push("      " + element("concept:name", event.activity, where))
            push("      " + element("time:timestamp", event.timestamp, where))
            for key, value in sorted(event.attributes.items()):
                kind = value.__class__  # an exact number or flag of an escaped key goes in line
                if kind is float and key in texts:
                    push(f'      <float key="{texts[key]}" value="{value!r}" />')
                elif kind is int and key in texts:
                    push(f'      <int key="{texts[key]}" value="{value}" />')
                elif kind is bool and key in texts:
                    push(f'      <boolean key="{texts[key]}" value="{"true" if value else "false"}" />')
                elif value is not None:
                    push("      " + element(key, value, where))
            push("    </event>")
        push("  </trace>")
        buffer += "\n".join(lines).encode("utf-8")
    buffer += b"\n</log>\n"
    return buffer


def _value(tag: str, text: str) -> AttrValue:
    """The value of an attribute element: ValueError or KeyError if ``text`` is not one."""
    if tag == "int" or tag == "float":
        value = float(text) if tag == "float" else int(text)
        if "_" in text or not text.isascii() or tag == "float" and not isfinite(value):
            raise ValueError  # int() and float() take "1_000", non-ASCII digits and "inf"
        return value
    if tag == "date":  # midnight UTC as write_xes writes it, with a Z, or as a bare date
        midnight = _DATE.fullmatch(text)
        if midnight is None:
            raise ValueError  # a time of day or an offset would move the date
        return date.fromisoformat(midnight[1])
    return _BOOLEANS[text] if tag == "boolean" else text


# One trace of write_xes's layout, (case id, events), whose values expat reads as they stand.
# Value runs end at quotes and repeats open with distinct prefixes, so failing is linear.
_TEXT = rb'[^"<&\x00-\x1f]*'  # no markup, reference or control character
_TRACE = re.compile((
    rb'\n  <trace>\n    <string key="concept:name" value="(%s)" />((?:\n    <event>'
    rb'\n      <string key="concept:name" value="%s" />\n      <date key="time:timestamp" value="%s" />'
    rb'(?:\n      <(?:string|int|float|boolean|date) key="%s" value="%s" />)*\n    </event>)+)'
    rb'\n  </trace>') % ((_TEXT,) * 5))


def _text(raw: bytes) -> str:
    if _NOT_XML_CHAR.search(text := raw.decode()):  # strict UTF-8: else a UnicodeDecodeError
        raise ValueError  # U+FFFE or U+FFFF, which expat refuses
    return text


class _Memo(dict):
    """The scan's memo: attribute line -> (key, value), and tag, space, text ->
    value, so that each distinct key, string, number and date is one object."""

    def __missing__(self, key: bytes):
        if key[0] == 60:  # "<": an attribute line, <tag key="name" value="text" />
            start, name, _, text, _ = key.split(b'"')
            self[key] = value = self[b"string " + name], self[start[1:-5] + b" " + text]
        else:  # a tag, a space and a value's text
            tag, _, text = key.partition(b" ")
            self[key] = value = _value(tag.decode(), _text(text))
        return value


def _scan_written(data: bytes | bytearray) -> EventLog | None:
    """The log of a document in exactly write_xes's layout, else None. Outside its values
    such a document is fixed ASCII, and its values hold no quote, markup, reference or
    control character, so expat would take it as well-formed, each value as it stands."""
    if not (data.startswith(_HEAD) and data.endswith(b"\n</log>\n")):
        return None
    memo, events, cases, pos = _Memo(), [], [], len(_HEAD)
    try:
        while match := _TRACE.match(data, pos):
            cases.append(case_id := _text(match[1]))
            for event in match[2].split(b"\n    </event>")[:-1]:
                _, name, stamp, *rest = event.split(b"\n      ")
                attributes = dict(map(memo.__getitem__, rest))
                if len(attributes) < len(rest):
                    return None  # a repeated key, which expat reports
                events.append(Event(case_id, memo[name][1], memo[stamp][1], attributes))
            pos = match.end()
    except (KeyError, ValueError, PathminerError):
        return None
    return EventLog(tuple(events)) if pos == len(data) - 8 and len(set(cases)) == len(cases) else None


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
    its other direct children its attributes, each key at most once.
    Booleans must be xs:boolean, numbers ASCII with no ``_``, floats finite,
    dates midnight UTC, case ids unique, traces not empty. Errors after malformed
    XML come in document order: the root, a misplaced ``<trace>`` in a trace or
    ``<event>`` not directly in one, per closed trace its case id, events, emptiness."""
    if data.__class__ is not str and (log := _scan_written(data)) is not None:
        return log
    events: list[Event] = []
    trace_of_case: dict[str, int] = {}
    seen: dict[str, str] = {}  # each distinct key and string value, held once
    values: dict[tuple, AttrValue] = {}  # (tag, text) -> each value that converts, held once
    path: list[list | None] = []  # each open element's children, None outside a <trace>

    def start(tag, attrs):
        if path and (parent := path[-1]) is not None:
            if tag == "trace" or tag == "event" and path[-2] is not None:
                raise FormatError(f"trace {len(trace_of_case)}: misplaced <{tag}>")
            parent.append((tag, attrs, children := []))
            path.append(children)
        elif not path and tag != "log":
            raise FormatError(f"expected <log> root, found <{tag if '}' not in tag else '{' + tag}>")
        else:
            path.append([] if tag == "trace" and path else None)

    def end(tag):
        nodes = path.pop()
        if nodes is not None and path[-1] is None:  # a <trace> closed
            check(nodes)

    def check(nodes: list) -> None:  # a closed trace's elements, in document order
        t_index, case_id = len(trace_of_case), None
        for tag, attrs, _ in nodes:
            if tag != "event" and attrs.get("key") == "concept:name":
                case_id = attrs.get("value")
        if case_id is None:
            raise FormatError(f"trace {t_index}: missing concept:name")
        if case_id in trace_of_case:
            raise FormatError(f"trace {t_index}: concept:name {case_id!r} already "
                              f"names trace {trace_of_case[case_id]}")
        trace_of_case[case_id] = t_index
        trace = [children for tag, _, children in nodes if tag == "event"]
        for e_index, children in enumerate(trace):
            where = f"trace {t_index} event {e_index}"
            activity, timestamp, attributes = None, None, {}
            for tag, attrs, _ in children:
                try:
                    key = seen.setdefault(attrs["key"], attrs["key"])
                    text = attrs["value"]
                    if tag == "string":
                        value = seen.setdefault(text, text)
                    elif (value := values.get((tag, text))) is None:
                        value = values[tag, text] = _value(tag, text)
                except (KeyError, ValueError):
                    raise FormatError(f"{where}: " + ("attribute without key" if "key" not in attrs
                                      else "attribute element without value" if "value" not in attrs
                                      else f"bad {tag} value {attrs['value']!r}")) from None
                if activity is None and key == "concept:name":
                    activity = value
                elif timestamp is None and key == "time:timestamp":
                    if not isinstance(value, date):
                        raise FormatError(f"{where}: time:timestamp is not a date")
                    timestamp = value
                elif key in attributes:
                    raise FormatError(f"{where}: attribute {key!r} repeats")
                else:
                    attributes[key] = value
            if activity is None or timestamp is None:
                missing = "concept:name" if activity is None else "time:timestamp"
                raise FormatError(f"{where}: missing {missing}")
            events.append(Event(case_id, str(activity), timestamp, attributes))
        if not trace:  # an EventLog holds no case without events
            raise FormatError(f"trace {t_index}: {case_id!r} holds no <event>")

    try:
        _parse(data, start, end)
    except PathminerError:
        _parse(data)  # a malformed document is reported as such, whatever it holds
        raise
    return EventLog(tuple(events))
