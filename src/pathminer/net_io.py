"""Canonical JSON serialization and DOT rendering for Petri nets.

The JSON layout mirrors the in-memory model: places, transitions (with a
label or a silent flag), arcs, and the two markings as place-id -> count
maps. Serialization sorts everything, so equal nets produce equal bytes.
"""

import json

from .errors import FormatError
from .petri import Marking, PetriNet, Transition


def write_net_json(net: PetriNet) -> bytes:
    doc = {
        "name": net.name,
        "places": [{"id": p} for p in sorted(net.places)],
        "transitions": [
            {"id": t.id, "silent": True} if t.silent else {"id": t.id, "label": t.label}
            for t in sorted(net.transitions, key=lambda t: t.id)
        ],
        "arcs": [
            {"source": s, "target": t} for s, t in sorted(net.arcs)
        ],
        "initial_marking": dict(net.initial_marking.items()),
        "final_marking": dict(net.final_marking.items()),
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def read_net_json(data: bytes | str) -> PetriNet:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed net JSON: {exc}") from None

    try:
        places = frozenset(p["id"] for p in doc["places"])
        transitions = tuple(
            Transition(t["id"], None if t.get("silent") else t["label"])
            for t in doc["transitions"]
        )
        arcs = frozenset((a["source"], a["target"]) for a in doc["arcs"])
        initial = Marking(doc["initial_marking"])
        final = Marking(doc["final_marking"])
        name = doc.get("name", "net")
    except (KeyError, TypeError) as exc:
        raise FormatError(f"net JSON missing field: {exc}") from None

    try:
        return PetriNet(places, transitions, arcs, initial, final, name=name)
    except Exception as exc:
        raise FormatError(str(exc)) from None


def write_dot(net: PetriNet) -> bytes:
    """Render the net as a Graphviz digraph.

    Places are circles, transitions are boxes, and silent transitions are
    filled black.
    """
    lines = [f'digraph "{net.name}" {{', "  rankdir=LR;"]
    for place in sorted(net.places):
        tokens = net.initial_marking[place]
        label = "&bull;" * tokens if tokens else ""
        lines.append(
            f'  "{place}" [shape=circle, label="{label}", xlabel="{place}"];'
        )
    for t in sorted(net.transitions, key=lambda t: t.id):
        if t.silent:
            lines.append(
                f'  "{t.id}" [shape=box, style=filled, fillcolor=black, label=""];'
            )
        else:
            lines.append(f'  "{t.id}" [shape=box, label="{t.label}"];')
    for source, target in sorted(net.arcs):
        lines.append(f'  "{source}" -> "{target}";')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
