"""Independent reference implementations used to cross-check the package.

These deliberately avoid the production search/statistics code paths: the
firing semantics are plain dicts of place ids, the alignment oracle is a
label-correcting exhaustive search, and the random model generator builds
nets compositionally so the final marking is always reachable.
"""

import math
import random
from datetime import date, timedelta

from pathminer.model import Event, EventLog
from pathminer.errors import SemanticsError
from pathminer.petri import Marking, PetriNet, Transition

PHENOTYPE_FLAGS = {
    "HFrEF": {"hfref": True, "hfmref": False, "hfpef": False},
    "HFmrEF": {"hfref": False, "hfmref": True, "hfpef": False},
    "HFpEF": {"hfref": False, "hfmref": False, "hfpef": True},
}


def cohort_log(seed: str, cases_per_group: int, death_probability) -> EventLog:
    """Six-group cohort log: every case opens with a flag-carrying visit and
    may add one Death_HF event with a group-dependent probability."""
    rng = random.Random(seed)
    events = []
    case_n = 0
    for flag in (0, 1):
        for phenotype, flags in PHENOTYPE_FLAGS.items():
            p_death = death_probability(flag, phenotype)
            for _ in range(cases_per_group):
                case_n += 1
                cid = f"c{case_n:04d}"
                attrs = dict(flags, diabetes=bool(flag), ckd=bool(flag))
                day = date(2020, 1, 1)
                events.append(Event(cid, "Visit before CO", day, dict(attrs)))
                if rng.random() < p_death:
                    events.append(
                        Event(cid, "Death_HF", day + timedelta(days=30), dict(attrs))
                    )
    return EventLog(tuple(events))


class ReferenceSemantics:
    """Token firing on :class:`Marking` objects, with presets and postsets
    as dicts of place ids: the semantics the compiled net must agree with."""

    def __init__(self, net: PetriNet):
        self.net = net
        self.pre = {t.id: net.preset(t.id) for t in net.transitions}
        self.post = {t.id: net.postset(t.id) for t in net.transitions}

    def enabled(self, marking: Marking) -> list[Transition]:
        """Enabled transitions in ``net.transitions`` order."""
        return [
            t for t in self.net.transitions
            if all(marking[p] >= 1 for p in self.pre[t.id])
        ]

    def fire(self, marking: Marking, tid: str) -> Marking:
        counts = dict(marking.items())
        for place in self.pre[tid]:
            if counts.get(place, 0) <= 0:
                raise SemanticsError(f"transition {tid} is not enabled")
            counts[place] -= 1
        for place in self.post[tid]:
            counts[place] = counts.get(place, 0) + 1
        return Marking(counts)


def brute_force_cost(net: PetriNet, labels) -> float:
    """Minimal alignment cost by exhaustive label-correcting search."""
    labels = tuple(labels)
    sem = ReferenceSemantics(net)
    n = len(labels)
    goal = (net.final_marking.key(), n)
    best: dict = {}
    best_goal = math.inf
    stack = [(net.initial_marking, 0, 0)]
    while stack:
        marking, pos, g = stack.pop()
        state = (marking.key(), pos)
        if g >= best.get(state, math.inf) or g >= best_goal:
            continue
        best[state] = g
        if state == goal:
            best_goal = g
            continue
        for t in sem.enabled(marking):
            fired = sem.fire(marking, t.id)
            if t.silent:
                stack.append((fired, pos, g))
            else:
                if pos < n and t.label == labels[pos]:
                    stack.append((fired, pos + 1, g))
                stack.append((fired, pos, g + 1))
        if pos < n:
            stack.append((marking, pos + 1, g + 1))
    return best_goal


_LABELS = ("a", "b", "c", "d", "e")


def random_workflow_net(rng: random.Random, max_transitions: int = 8) -> PetriNet:
    """A random workflow net built from sequence/choice/loop blocks.

    Every block can route a token from its entry to its exit, so the final
    marking is reachable by construction. At most ``max_transitions``
    transitions are created.
    """
    places: list[str] = []
    transitions: list[Transition] = []
    arcs: set[tuple[str, str]] = set()

    def new_place() -> str:
        place = f"q{len(places)}"
        places.append(place)
        return place

    def leaf(entry: str, exit_: str):
        tid = f"t{len(transitions)}"
        label = None if rng.random() < 0.25 else rng.choice(_LABELS)
        transitions.append(Transition(tid, label))
        arcs.update(((entry, tid), (tid, exit_)))

    def parallel(entry: str, exit_: str, capacity: int, depth: int):
        split = f"t{len(transitions)}"
        transitions.append(Transition(split))
        join = f"t{len(transitions)}"
        transitions.append(Transition(join))
        arcs.add((entry, split))
        arcs.add((join, exit_))
        first = rng.randint(1, capacity - 1)
        for branch_capacity in (first, capacity - first):
            begin, end = new_place(), new_place()
            arcs.update(((split, begin), (end, join)))
            block(begin, end, branch_capacity, depth + 1)

    def block(entry: str, exit_: str, capacity: int, depth: int):
        if capacity <= 1 or depth >= 3 or rng.random() < 0.3:
            leaf(entry, exit_)
            return
        kind = rng.choice(("seq", "xor", "loop", "and"))
        if kind == "and":
            if capacity < 4:
                leaf(entry, exit_)
            else:
                parallel(entry, exit_, capacity - 2, depth)
            return
        first = rng.randint(1, capacity - 1)
        second = capacity - first
        if kind == "seq":
            middle = new_place()
            block(entry, middle, first, depth + 1)
            block(middle, exit_, second, depth + 1)
        elif kind == "xor":
            block(entry, exit_, first, depth + 1)
            block(entry, exit_, second, depth + 1)
        else:
            block(entry, exit_, first, depth + 1)
            block(exit_, entry, second, depth + 1)  # redo branch

    source = new_place()
    sink = new_place()
    block(source, sink, rng.randint(2, max_transitions), 0)
    return PetriNet(
        places=frozenset(places),
        transitions=tuple(transitions),
        arcs=frozenset(arcs),
        initial_marking=Marking([source]),
        final_marking=Marking([sink]),
        name="random",
    )


def random_trace(rng: random.Random, net: PetriNet, max_length: int = 6) -> tuple[str, ...]:
    """A trace to align: a truncated random walk, possibly perturbed, or
    pure noise."""
    style = rng.random()
    if style < 0.25:
        length = rng.randint(0, max_length)
        return tuple(rng.choice(_LABELS + ("z",)) for _ in range(length))

    sem = ReferenceSemantics(net)
    marking = net.initial_marking
    walked: list[str] = []
    for _ in range(40):
        if marking == net.final_marking and rng.random() < 0.5:
            break
        options = sem.enabled(marking)
        if not options:
            break
        chosen = rng.choice(options)
        marking = sem.fire(marking, chosen.id)
        if chosen.label is not None:
            walked.append(chosen.label)
        if len(walked) >= max_length:
            break
    if style < 0.6:
        return tuple(walked)
    # perturb: drop, swap, or inject
    if walked and rng.random() < 0.5:
        del walked[rng.randrange(len(walked))]
    if len(walked) >= 2 and rng.random() < 0.5:
        i = rng.randrange(len(walked) - 1)
        walked[i], walked[i + 1] = walked[i + 1], walked[i]
    if len(walked) < max_length and rng.random() < 0.5:
        walked.insert(rng.randrange(len(walked) + 1), rng.choice(_LABELS + ("z",)))
    return tuple(walked[:max_length])
