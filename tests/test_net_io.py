import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathminer.errors import FormatError
from pathminer.net_io import read_net_json, write_dot, write_net_json
from pathminer.petri import PetriNet, Transition


def test_dejure_json_round_trip(dejure):
    recovered = read_net_json(write_net_json(dejure))
    assert recovered == dejure
    assert write_net_json(recovered) == write_net_json(dejure)


def test_dangling_arc_is_format_error(dejure):
    doc = json.loads(write_net_json(dejure))
    doc["arcs"].append({"source": "p0", "target": "ghost"})
    with pytest.raises(FormatError, match="ghost"):
        read_net_json(json.dumps(doc))


def test_arc_between_two_unknown_ids_is_reported_as_unknown(dejure):
    # checked before the bipartite rule, which such an arc would also break
    doc = json.loads(write_net_json(dejure))
    doc["arcs"].append({"source": "ghost", "target": "phantom"})
    with pytest.raises(FormatError, match="arc ghost->phantom references unknown id"):
        read_net_json(json.dumps(doc))


def test_malformed_json_rejected():
    with pytest.raises(FormatError):
        read_net_json(b"{")


def test_dot_marks_silent_transitions_black(dejure):
    dot = write_dot(dejure).decode()
    assert dot.startswith('digraph "dejure" {')
    assert dot.rstrip().endswith("}")
    assert "fillcolor=black" in dot
    assert 'label="Visit before CO"' in dot
    assert dot.count("{") == dot.count("}")


def test_dot_renders_places_as_circles(dejure):
    dot = write_dot(dejure).decode()
    assert "shape=circle" in dot
    assert "shape=box" in dot


# A DOT quoted string: any character but '"' and '\\', or an escaped pair.
QUOTED = re.compile(r'"(?:[^"\\]|\\.)*"')


def test_dot_escapes_quotes_and_backslashes_in_every_quoted_string():
    # any XES activity is accepted, so ids, labels and names may hold both
    net = PetriNet(
        places=frozenset({'p"0', "p\\1"}),
        transitions=(Transition('t"a', 'A"B'), Transition("t\\b", "C\\"), Transition("s")),
        arcs=frozenset({('p"0', 't"a'), ('t"a', "p\\1"), ("p\\1", "t\\b"), ("t\\b", 'p"0'),
                        ("p\\1", "s"), ("s", 'p"0')}),
        initial_marking={'p"0': 1},
        final_marking={"p\\1": 1},
        name='net "x" \\',
    )
    strings = []
    for line in write_dot(net).decode().splitlines():
        rest = QUOTED.sub("", line)
        assert '"' not in rest and "\\" not in rest, line
        strings += [re.sub(r"\\(.)", r"\1", s[1:-1]) for s in QUOTED.findall(line)]
    names = {net.name, *net.places, *(t.id for t in net.transitions), "A\"B", "C\\"}
    assert set(strings) == names | {"", "&bull;"}

@st.composite
def nets(draw):
    n_places = draw(st.integers(min_value=2, max_value=6))
    n_transitions = draw(st.integers(min_value=1, max_value=6))
    places = [f"p{i}" for i in range(n_places)]
    transitions = []
    arcs = set()
    for i in range(n_transitions):
        label = draw(st.one_of(st.none(), st.text(min_size=1, max_size=5)))
        transitions.append(Transition(f"t{i}", label))
        source = draw(st.sampled_from(places))
        target = draw(st.sampled_from(places))
        arcs.add((source, f"t{i}"))
        arcs.add((f"t{i}", target))
    initial = draw(st.sampled_from(places))
    final = draw(st.sampled_from(places))
    return PetriNet(
        places=frozenset(places),
        transitions=tuple(transitions),
        arcs=frozenset(arcs),
        initial_marking={initial: 1},
        final_marking={final: 1},
        name=draw(st.sampled_from(["n1", "n2"])),
    )


@settings(max_examples=60, deadline=None)
@given(nets())
def test_json_round_trip_identity(net):
    assert read_net_json(write_net_json(net)) == net


def test_non_utf8_byte_is_a_format_error(dejure):
    data = write_net_json(dejure).replace(b'"p0"', b'"p\xff0"', 1)
    with pytest.raises(FormatError, match="malformed net JSON: 'utf-8' codec can't decode byte 0xff"):
        read_net_json(data)


def test_an_integer_past_the_digit_limit_is_a_format_error():
    # json.loads refuses it with a ValueError that is not a JSONDecodeError
    with pytest.raises(FormatError, match=r"^malformed net JSON: Exceeds the limit \(4300 digits\)"):
        read_net_json('{"places": [{"id": "p", "tokens": 1%s}]}' % ("0" * 5000))


@pytest.mark.parametrize("edit, message", [
    (lambda doc: [doc], "net JSON root must be an object, got an array"),
    (lambda doc: {**doc, "places": ["p0"]}, "net JSON places[0] must be an object, got a string"),
    (lambda doc: {**doc, "transitions": doc["transitions"][:1] + [["t1"]]},
     "net JSON transitions[1] must be an object, got an array"),
    (lambda doc: {**doc, "arcs": [7]}, "net JSON arcs[0] must be an object, got an integer"),
    (lambda doc: {**doc, "arcs": [{"source": "p0", "target": None}]},
     "net JSON arcs[0].target must be a string, got null"),
    (lambda doc: {**doc, "places": {"p0": {}}}, "net JSON places must be an array, got an object"),
    (lambda doc: {**doc, "initial_marking": {"p0": 1.0}},
     "net JSON initial_marking.p0 must be an integer, got a number"),
    (lambda doc: {**doc, "initial_marking": {"p0": True}},
     "net JSON initial_marking.p0 must be an integer, got a boolean"),
    (lambda doc: {**doc, "final_marking": {"p_end": True}},
     "net JSON final_marking.p_end must be an integer, got a boolean"),
    (lambda doc: {k: v for k, v in doc.items() if k != "arcs"}, "net JSON missing field arcs"),
], ids=["array-root", "place", "transition", "arc", "arc-target", "places", "marking-count",
        "initial-marking-boolean", "final-marking-boolean", "missing-arcs"])
def test_a_value_of_the_wrong_type_is_named(dejure, edit, message):
    doc = json.loads(write_net_json(dejure))
    with pytest.raises(FormatError) as err:
        read_net_json(json.dumps(edit(doc)))
    assert str(err.value) == message


@pytest.mark.parametrize("key, message", [
    ("places", "net JSON places[6] repeats place 'p0'"),
    ("arcs", "net JSON arcs[30] repeats arc ('back_to_watch', 'p1')"),
], ids=["place", "arc"])
def test_a_repeated_place_or_arc_is_named(dejure, key, message):
    # both used to fold into a set; a repeated arc most likely means a
    # weight, which a net of unit arcs cannot hold
    doc = json.loads(write_net_json(dejure))
    doc[key].append(doc[key][0])
    with pytest.raises(FormatError) as err:
        read_net_json(json.dumps(doc))
    assert str(err.value) == message


_SMALL = {"places": [{"id": "a"}, {"id": "b"}], "transitions": [{"id": "t", "label": "T"}],
          "arcs": [{"source": "a", "target": "t"}, {"source": "t", "target": "b"}],
          "initial_marking": {"a": 1}, "final_marking": {"b": 1}}


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["transitions"].append({"id": "t", "silent": True}),
     "net JSON transitions[1] repeats transition 't'"),
    (lambda doc: doc["transitions"].insert(0, {"id": "a", "label": "A"}),
     "net JSON transitions[0] reuses place id 'a'"),
    (lambda doc: doc["arcs"].insert(0, {"source": "a", "target": "b"}),
     "net JSON arcs[0]: arc a->b is not bipartite"),
    (lambda doc: doc["arcs"].insert(0, {"source": "a", "target": "zz"}),
     "net JSON arcs[0]: arc a->zz references unknown id"),
    (lambda doc: doc["initial_marking"].update(q=1),
     "net JSON initial_marking.q: marking references unknown place q"),
    (lambda doc: doc.update(final_marking=["b", "q"]),
     "net JSON final_marking[1]: marking references unknown place q"),
    (lambda doc: doc["initial_marking"].update(a=-1),
     "net JSON initial_marking.a: negative token count for place a"),
], ids=["repeated-transition", "transition-reuses-place", "not-bipartite", "unknown-arc-end",
        "unknown-marking-place", "unknown-marking-list-place", "negative-count"])
def test_a_net_check_names_its_entry(edit, message):
    doc = json.loads(json.dumps(_SMALL))
    read_net_json(json.dumps(doc))  # the unedited net is valid
    edit(doc)
    with pytest.raises(FormatError) as err:
        read_net_json(json.dumps(doc))
    assert str(err.value) == message
