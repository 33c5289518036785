"""Minimal XES event-log interchange: the concept and time extensions only.

The activity and the case id live under ``concept:name``, the timestamp under
``time:timestamp`` (dates are midnight UTC). Attributes are typed
string/int/float/boolean/date elements; absent (None) values are omitted. The
writer encodes each trace of its fixed layout into one buffer, spelling each
value through one table of the classes the reader returns, and refuses any
other value (a subclass, a ``datetime``, a non-finite float, a string outside
the XML 1.0 ``Char`` production), so what it writes reads back as it was. The
reader scans that layout; any other document, and any error, goes to one
strict expat pass that collects each trace and checks it once it closes.
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


def _escape(text: str) -> str:
    """``text`` escaped as ElementTree escapes attributes; a ValueError if XML 1.0 cannot carry it."""
    if text.__class__ is not str:
        raise ValueError
    if bad := _NOT_XML_CHAR.search(text):
        raise ValueError(f"holds {bad.group()!r}, which XML 1.0 cannot represent")
    return text.translate(_ESCAPES)


def _finite(value: float) -> str:
    if not isfinite(value):
        raise ValueError  # read_xes takes finite floats only
    return repr(value)


# The class of each value read_xes returns -> its element and the spelling of its value, a
# ValueError if it has none. write_xes writes no other class, subclasses included.
_ELEMENTS = {str: ("string", _escape), bool: ("boolean", {True: "true", False: "false"}.__getitem__),
             int: ("int", repr), float: ("float", _finite),
             date: ("date", "{}T00:00:00+00:00".format)}  # midnight UTC
_TAGS = tuple(tag for tag, _ in _ELEMENTS.values())  # an event attribute's element types


class _Spelled(dict):
    """One write's memo of one class's spelling, value -> text. A falsy value is spelled each
    time: 0.0 and -0.0 are equal keys."""

    def __init__(self, spell):
        self.spell = spell

    def __missing__(self, value):
        text = self.spell(value)
        if value:
            self[value] = text
        return text


def _refusal(t_index: int, case_id, events) -> FormatError:
    """The first fault of a trace, in the order write_xes writes it: the case id, then per event
    the activity, the timestamp, and each attribute's value before its key."""
    if case_id.__class__ is not str or not case_id:  # the reader takes no other case id
        return FormatError(f"trace {t_index}: case id {case_id!r} is not a non-empty string")
    written = [(f"trace {t_index}", "'concept:name'", case_id, (str,))]
    for e_index, (_, activity, timestamp, attributes) in enumerate(events):
        where = f"trace {t_index} event {e_index}"
        written += [(where, "'concept:name'", activity, (str,)), (where, "'time:timestamp'", timestamp, (date,))]
        for key, value in sorted(attributes.items()):
            if value is not None:
                written += [(where, repr(key), value, _ELEMENTS), (where, f"key {key!r}", key, (str,))]
    for where, subject, value, classes in written:  # written if of its classes and spelled
        if isinstance(value, datetime):  # midnight UTC of its date would drop the time
            return FormatError(f"{where}: {subject} holds the datetime {value}, not a date")
        try:
            if value.__class__ not in classes:
                raise ValueError
            _ELEMENTS[value.__class__][1](value)
        except ValueError as exc:
            fault = str(exc) or f"holds {value!r}, which read_xes would not read back"
            return FormatError(f"{where}: {subject} {fault}")


def write_xes(log: EventLog) -> bytearray:
    """Serialize a log to XES in a stable element order, each trace encoded into one buffer, every
    value spelled through ``_ELEMENTS`` and None omitted; a FormatError for any other value."""
    elements = {kind: (tag, _Spelled(spell)) for kind, (tag, spell) in _ELEMENTS.items()}
    texts = elements[str][1]  # the keys', case ids' and activities' too
    buffer = bytearray(_HEAD)
    for t_index, (case_id, events) in enumerate(log.traces().items()):
        try:
            if case_id.__class__ is not str or not case_id:
                raise ValueError
            lines = ["", "  <trace>", f'    <string key="concept:name" value="{texts[case_id]}" />']
            push = lines.append
            for _, activity, timestamp, attributes in events:
                if activity.__class__ is not str or timestamp.__class__ is not date:
                    raise ValueError
                push("    <event>")
                push(f'      <string key="concept:name" value="{texts[activity]}" />')
                push(f'      <date key="time:timestamp" value="{timestamp}T00:00:00+00:00" />')
                for key, value in sorted(attributes.items()):
                    if value is not None:
                        tag, spelled = elements[value.__class__]  # a KeyError for another class
                        push(f'      <{tag} key="{texts[key]}" value="{spelled[value]}" />')
                push("    </event>")
        except (KeyError, ValueError):
            raise _refusal(t_index, case_id, events) from None
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


# One trace of write_xes's layout, (case id, events), whose values expat reads as they stand:
# a case id is not empty. Value runs end at quotes and repeats open with distinct prefixes,
# so failing is linear.
_TEXT = rb'[^"<&\x00-\x1f]*'  # no markup, reference or control character
_TRACE = re.compile((
    rb'\n  <trace>\n    <string key="concept:name" value="(%s)" />((?:\n    <event>'
    rb'\n      <string key="concept:name" value="%s" />\n      <date key="time:timestamp" value="%s" />'
    rb'(?:\n      <(?:%s) key="%s" value="%s" />)*\n    </event>)+)'
    rb'\n  </trace>') % (_TEXT[:-1] + b"+", _TEXT, _TEXT, "|".join(_TAGS).encode(), _TEXT, _TEXT))


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

    The case id is the last trace-level ``concept:name``, a non-empty string; an
    event's first ``concept:name`` and ``time:timestamp`` are its activity and
    timestamp, its other direct children its attributes, each key at most once
    and each a string, int, float, boolean or date element.
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
                if tag != "string" or attrs.get("value") == "":
                    raise FormatError(f"trace {t_index}: the case id must be a non-empty <string>, "
                                      f"got <{tag}> with value {attrs.get('value')!r}")
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
                if tag not in _TAGS:
                    raise FormatError(f"{where}: <{tag}> is not an attribute element")
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
                    if tag != "string" or not value:
                        raise FormatError(f"{where}: the activity must be a non-empty <string>, "
                                          f"got <{tag}> with value {text!r}")
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
            events.append(Event(case_id, activity, timestamp, attributes))
        if not trace:  # an EventLog holds no case without events
            raise FormatError(f"trace {t_index}: {case_id!r} holds no <event>")

    try:
        _parse(data, start, end)
    except PathminerError:
        _parse(data)  # a malformed document is reported as such, whatever it holds
        raise
    return EventLog(tuple(events))
