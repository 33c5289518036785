"""Canonical JSON serialization and DOT rendering for Petri nets.

The JSON layout mirrors the in-memory model: places, transitions (with a
label or a silent flag), arcs, and the two markings as place-id -> count
maps. A net keeps its transitions and markings in order and serialization
sorts the rest, so equal nets produce equal bytes.
"""

import json

from .errors import FormatError
from .petri import PetriNet, Transition


def write_net_json(net: PetriNet) -> bytes:
    doc = {
        "name": net.name,
        "places": [{"id": p} for p in sorted(net.places)],
        "transitions": [
            {"id": t.id, "silent": True} if t.silent else {"id": t.id, "label": t.label}
            for t in net.transitions
        ],
        "arcs": [
            {"source": s, "target": t} for s, t in sorted(net.arcs)
        ],
        "initial_marking": dict(net.initial_marking),
        "final_marking": dict(net.final_marking),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


_JSON_TYPES = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "an integer", float: "a number", type(None): "null",
}


def _typed(value, kind, path: str):
    """``value`` if it has the JSON type ``kind`` (a type or a tuple of
    types), so a boolean is not an integer; ``path`` names it in the error."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) in kinds:
        return value
    wanted = " or ".join(_JSON_TYPES[k] for k in kinds)
    raise FormatError(f"net JSON {path} must be {wanted}, got {_JSON_TYPES[type(value)]}")


def _field(doc: dict, key: str, kind, path: str = ""):
    path = f"{path}.{key}" if path else key
    if key not in doc:
        raise FormatError(f"net JSON missing field {path}")
    return _typed(doc[key], kind, path)


def read_net_json(data: bytes | str) -> PetriNet:
    try:
        doc = json.loads(data)
    except ValueError as exc:  # also bytes that are not UTF-8, and an int past str's digit limit
        raise FormatError(f"malformed net JSON: {exc}") from None
    _typed(doc, dict, "root")

    def objects(key: str):
        """(path, object) for each entry of the array ``doc[key]``."""
        return [(f"{key}[{i}]", _typed(item, dict, f"{key}[{i}]"))
                for i, item in enumerate(_field(doc, key, list))]

    def marking(key: str) -> dict[str, int]:
        """The marking ``doc[key]`` as counts; a list names one token per entry."""
        value = _field(doc, key, (dict, list))
        if isinstance(value, dict):
            entries = [(f"{key}.{p}", p, _typed(n, int, f"{key}.{p}")) for p, n in value.items()]
        else:
            entries = [(f"{key}[{i}]", _typed(p, str, f"{key}[{i}]"), 1) for i, p in enumerate(value)]
        counts: dict[str, int] = {}
        for path, place, count in entries:
            if count < 0:
                raise FormatError(f"net JSON {path}: negative token count for place {place}")
            if place not in places:
                raise FormatError(f"net JSON {path}: marking references unknown place {place}")
            counts[place] = counts.get(place, 0) + count
        return counts

    def distinct(key: str, what: str, read, ident=lambda value: value) -> list:
        """(path, ``read(object, path)``) of each entry of ``doc[key]``; an
        entry whose ``ident`` repeats an earlier one is an error."""
        seen: set = set()
        entries = []
        for path, item in objects(key):
            value = read(item, path)
            if ident(value) in seen:
                raise FormatError(f"net JSON {path} repeats {what} {ident(value)!r}")
            seen.add(ident(value))
            entries.append((path, value))
        return entries

    places = frozenset(p for _, p in distinct("places", "place", lambda p, path: _field(p, "id", str, path)))
    transitions = distinct("transitions", "transition", lambda t, path: Transition(
        _field(t, "id", str, path),
        None if _typed(t.get("silent", False), bool, f"{path}.silent")
        else _field(t, "label", (str, type(None)), path),
    ), lambda t: t.id)
    for path, t in transitions:
        if t.id in places:
            raise FormatError(f"net JSON {path} reuses place id {t.id!r}")
    ids = places | {t.id for _, t in transitions}
    arcs = distinct("arcs", "arc", lambda a, path: (_field(a, "source", str, path),
                                                     _field(a, "target", str, path)))
    for path, (source, target) in arcs:
        if source not in ids or target not in ids:
            raise FormatError(f"net JSON {path}: arc {source}->{target} references unknown id")
        if (source in places) == (target in places):
            raise FormatError(f"net JSON {path}: arc {source}->{target} is not bipartite")
    name = _typed(doc.get("name", "net"), str, "name")
    return PetriNet(places, tuple(t for _, t in transitions), frozenset(a for _, a in arcs),
                    marking("initial_marking"), marking("final_marking"), name=name)


def _quoted(text: str) -> str:
    """``text`` as a DOT quoted string, with ``\\`` and ``"`` escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_dot(net: PetriNet) -> bytes:
    """Render the net as a Graphviz digraph.

    Places are circles, transitions are boxes, and silent transitions are
    filled black.
    """
    lines = [f"digraph {_quoted(net.name)} {{", "  rankdir=LR;"]
    initial = dict(net.initial_marking)
    for place in sorted(net.places):
        tokens = initial.get(place, 0)
        label = "&bull;" * tokens if tokens else ""
        lines.append(
            f'  {_quoted(place)} [shape=circle, label="{label}", xlabel={_quoted(place)}];'
        )
    for t in net.transitions:
        if t.silent:
            lines.append(
                f'  {_quoted(t.id)} [shape=box, style=filled, fillcolor=black, label=""];'
            )
        else:
            lines.append(f"  {_quoted(t.id)} [shape=box, label={_quoted(t.label)}];")
    for source, target in sorted(net.arcs):
        lines.append(f"  {_quoted(source)} -> {_quoted(target)};")
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
