"""Process discovery: a directly-follows miner with a path-percentage
filter, and the classic alpha algorithm.

The directly-follows miner keeps every activity. Edges are ranked by
descending frequency (ties broken lexicographically) and the smallest
prefix whose cumulative frequency reaches ``paths`` times the total edge
mass is retained. Dropped edges are then greedily re-added, most frequent
first, until every activity lies on some path from the artificial source to
the artificial sink; activities left without a retained outgoing edge are
wired straight to the sink. The resulting graph is converted to a Petri net
with exclusive-choice routing: each activity sits between a private entry
and exit place, and silent transitions carry the retained edges, the
observed start activities, and the end wiring. This keeps replay semantics
faithful to the graph (a trace that only follows retained edges aligns at
cost zero).
"""

from typing import NamedTuple

from .errors import InputError
from .model import EventLog
from .petri import PetriNet, Transition, reachable

CAUSAL = "->"
REVERSE = "<-"
PARALLEL = "||"
CHOICE = "#"


class DirectlyFollowsGraph(NamedTuple):
    activities: dict[str, int]
    edges: dict[tuple[str, str], int]
    starts: dict[str, int]
    ends: dict[str, int]


def build_dfg(log: EventLog) -> DirectlyFollowsGraph:
    """Count activities, directly-follows pairs, and trace start/end
    activities over all traces."""
    activities: dict[str, int] = {}
    edges: dict[tuple[str, str], int] = {}
    starts: dict[str, int] = {}
    ends: dict[str, int] = {}
    for sequence in log.activity_sequences().values():
        starts[sequence[0]] = starts.get(sequence[0], 0) + 1
        ends[sequence[-1]] = ends.get(sequence[-1], 0) + 1
        for activity in sequence:
            activities[activity] = activities.get(activity, 0) + 1
        for a, b in zip(sequence, sequence[1:]):
            edges[(a, b)] = edges.get((a, b), 0) + 1
    return DirectlyFollowsGraph(activities, edges, starts, ends)


def _retained_edges(dfg: DirectlyFollowsGraph, paths: float) -> tuple[set, list]:
    ranked = sorted(dfg.edges.items(), key=lambda kv: (-kv[1], kv[0]))
    threshold = paths * sum(dfg.edges.values())
    retained: set[tuple[str, str]] = set()
    cumulative = 0
    index = 0
    while cumulative < threshold and index < len(ranked):
        edge, freq = ranked[index]
        retained.add(edge)
        cumulative += freq
        index += 1
    dropped = [edge for edge, _ in ranked[index:]]
    return retained, dropped


def _wired_to_sink(dfg: DirectlyFollowsGraph, retained: set) -> set[str]:
    """The end activities and every activity without a retained outgoing edge."""
    return set(dfg.ends) | (set(dfg.activities) - {a for a, _ in retained})


def _coverage(dfg: DirectlyFollowsGraph, retained: set) -> set[str]:
    """Activities lying on a source-to-sink path of the retained graph:
    reached from a start activity, and reaching one wired to the sink."""
    forward: dict[str, set[str]] = {}
    backward: dict[str, set[str]] = {}
    for a, b in retained:
        forward.setdefault(a, set()).add(b)
        backward.setdefault(b, set()).add(a)
    return reachable(dfg.starts, forward) & reachable(_wired_to_sink(dfg, retained), backward)


def _repair_connectivity(dfg: DirectlyFollowsGraph, retained: set, dropped: list) -> set:
    retained = set(retained)
    remaining = list(dropped)
    covered = _coverage(dfg, retained)
    while len(covered) < len(dfg.activities):
        uncovered = set(dfg.activities) - covered
        candidate = next(
            (e for e in remaining if e[0] in uncovered or e[1] in uncovered), None
        )
        if candidate is None:
            break
        remaining.remove(candidate)
        retained.add(candidate)
        covered = _coverage(dfg, retained)
    return retained


def _workflow_net(places: set[str], transitions, arcs: set, name: str) -> PetriNet:
    """The net that runs from one token on ``source`` to one on ``sink``."""
    return PetriNet(frozenset(places), tuple(transitions), frozenset(arcs),
                    {"source": 1}, {"sink": 1}, name)


def dfg_to_net(dfg: DirectlyFollowsGraph, retained: set, name: str = "dfm") -> PetriNet:
    places = {"source", "sink"}
    transitions: list[Transition] = []
    arcs: set[tuple[str, str]] = set()

    for activity in sorted(dfg.activities):
        entry, exit_ = f"in [{activity}]", f"out [{activity}]"
        tid = f"act [{activity}]"
        places.update((entry, exit_))
        transitions.append(Transition(tid, activity))
        arcs.update(((entry, tid), (tid, exit_)))

    for a, b in sorted(retained):
        tid = f"edge [{a}]>[{b}]"
        transitions.append(Transition(tid))
        arcs.update(((f"out [{a}]", tid), (tid, f"in [{b}]")))

    for activity in sorted(dfg.starts):
        tid = f"start [{activity}]"
        transitions.append(Transition(tid))
        arcs.update((("source", tid), (tid, f"in [{activity}]")))

    for activity in sorted(_wired_to_sink(dfg, retained)):
        tid = f"end [{activity}]"
        transitions.append(Transition(tid))
        arcs.update(((f"out [{activity}]", tid), (tid, "sink")))

    if not dfg.activities:
        transitions.append(Transition("skip"))
        arcs.update((("source", "skip"), ("skip", "sink")))

    return _workflow_net(places, transitions, arcs, name)


def mine_dfm(log: EventLog, paths: float) -> PetriNet:
    """Mine a net from the directly-follows graph at a path percentage."""
    if not 0.0 <= paths <= 1.0:
        raise InputError(f"paths must lie in [0, 1], got {paths}")
    dfg = build_dfg(log)
    retained, dropped = _retained_edges(dfg, paths)
    retained = _repair_connectivity(dfg, retained, dropped)
    return dfg_to_net(dfg, retained, name=f"dfm_{paths:g}")


class Footprint(NamedTuple):
    """The alpha relations between every ordered pair of activities."""

    activities: tuple[str, ...]
    relations: dict[tuple[str, str], str]


def build_footprint(log: EventLog) -> Footprint:
    dfg = build_dfg(log)
    activities = tuple(sorted(dfg.activities))
    relations: dict[tuple[str, str], str] = {}
    for a in activities:
        for b in activities:
            ab = (a, b) in dfg.edges
            ba = (b, a) in dfg.edges
            if ab and ba:
                relations[(a, b)] = PARALLEL
            elif ab:
                relations[(a, b)] = CAUSAL
            elif ba:
                relations[(a, b)] = REVERSE
            else:
                relations[(a, b)] = CHOICE
    return Footprint(activities, relations)


def _choice_cliques(activities: list[str], is_choice) -> list[frozenset[str]]:
    """All non-empty activity sets that are pairwise (and self) exclusive."""
    cliques: list[frozenset[str]] = []

    def extend(current: tuple[str, ...], rest: list[str]):
        if current:
            cliques.append(frozenset(current))
        for i, candidate in enumerate(rest):
            if all(is_choice(candidate, member) for member in current):
                extend(current + (candidate,), rest[i + 1:])

    extend((), [a for a in activities if is_choice(a, a)])
    return cliques


def alpha_pairs(log: EventLog) -> list[tuple[frozenset[str], frozenset[str]]]:
    """The maximal (A, B) place candidates of the alpha algorithm."""
    footprint = build_footprint(log)
    activities = list(footprint.activities)
    causal = {
        pair for pair, rel in footprint.relations.items() if rel == CAUSAL
    }

    def is_choice(a: str, b: str) -> bool:
        return footprint.relations.get((a, b), CHOICE) == CHOICE

    candidates: list[tuple[frozenset[str], frozenset[str]]] = []
    for a_set in _choice_cliques(activities, is_choice):
        successors = set(activities)
        for a in a_set:
            successors &= {b for b in activities if (a, b) in causal}
        if not successors:
            continue
        for b_set in _choice_cliques(sorted(successors), is_choice):
            candidates.append((a_set, b_set))

    maximal = [
        (a_set, b_set)
        for a_set, b_set in candidates
        if not any(
            (a_set, b_set) != (other_a, other_b)
            and a_set <= other_a
            and b_set <= other_b
            for other_a, other_b in candidates
        )
    ]
    return sorted(maximal, key=lambda ab: (sorted(ab[0]), sorted(ab[1])))


def mine_alpha(log: EventLog) -> PetriNet:
    """Classic alpha discovery. Loops of length one and two are a known
    blind spot of the algorithm and are mined as-is, without repair."""
    dfg = build_dfg(log)
    places = {"source", "sink"}
    transitions = tuple(
        Transition(f"act [{a}]", a) for a in sorted(dfg.activities)
    )
    arcs: set[tuple[str, str]] = set()
    for a_set, b_set in alpha_pairs(log):
        place = "p [{}]>[{}]".format("+".join(sorted(a_set)), "+".join(sorted(b_set)))
        places.add(place)
        for a in sorted(a_set):
            arcs.add((f"act [{a}]", place))
        for b in sorted(b_set):
            arcs.add((place, f"act [{b}]"))
    for start in sorted(dfg.starts):
        arcs.add(("source", f"act [{start}]"))
    for end in sorted(dfg.ends):
        arcs.add((f"act [{end}]", "sink"))
    return _workflow_net(places, transitions, arcs, "alpha")
