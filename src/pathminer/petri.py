"""Labeled Petri nets: a checked value (PetriNet) and its token game (CompiledNet)."""

from operator import add
from typing import NamedTuple

from .errors import InputError
from .model import VISIT_AFTER, VISIT_BEFORE, Outcome


class Transition(NamedTuple):
    """A net transition; ``label is None`` marks it silent."""

    id: str
    label: str | None = None

    @property
    def silent(self) -> bool:
        return self.label is None


class Marking:
    """An immutable multiset of place ids."""

    __slots__ = ("_counts", "_key")

    def __init__(self, places=()):
        counts: dict[str, int] = {}
        if isinstance(places, dict):
            items = places.items()
        else:
            items = ((p, 1) for p in places)
        for place, n in items:
            if n < 0:
                raise InputError(f"negative token count for place {place}")
            if n:
                counts[place] = counts.get(place, 0) + n
        self._counts = counts
        self._key = tuple(sorted(counts.items()))

    def __getitem__(self, place: str) -> int:
        return self._counts.get(place, 0)

    def __iter__(self):
        return iter(self._counts)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Marking) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p}:{n}" for p, n in self._key)
        return f"Marking({{{inner}}})"

    def items(self):
        return self._key


class _NetFields(NamedTuple):
    places: frozenset[str]
    transitions: tuple[Transition, ...]
    arcs: frozenset[tuple[str, str]]
    initial_marking: Marking
    final_marking: Marking
    name: str = "net"


class PetriNet(_NetFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        trans_ids = {t.id for t in self.transitions}
        if len(trans_ids) != len(self.transitions):
            raise InputError("duplicate transition ids")
        if trans_ids & self.places:
            raise InputError("place and transition ids overlap")
        ids = self.places | trans_ids
        for source, target in self.arcs:
            if source not in ids or target not in ids:
                raise InputError(f"arc {source}->{target} references unknown id")
            if (source in self.places) == (target in self.places):
                raise InputError(f"arc {source}->{target} is not bipartite")
        for marking in (self.initial_marking, self.final_marking):
            for place in marking:
                if place not in self.places:
                    raise InputError(f"marking references unknown place {place}")
        return self

    def __eq__(self, other) -> bool:
        """Structural equality; transition order and net name are cosmetic."""
        return (
            isinstance(other, PetriNet)
            and self.places == other.places
            and frozenset(self.transitions) == frozenset(other.transitions)
            and self.arcs == other.arcs
            and self.initial_marking == other.initial_marking
            and self.final_marking == other.final_marking
        )

    def __ne__(self, other) -> bool:  # not tuple's field-by-field test
        return not self == other

    def __hash__(self) -> int:
        return hash(
            (
                self.places,
                frozenset(self.transitions),
                self.arcs,
                self.initial_marking,
                self.final_marking,
            )
        )


class DecisionPoint(NamedTuple):
    """A place where more than one transition competes for the token."""

    place: str
    transitions: tuple[Transition, ...]


class CompiledNet:
    """A net indexed for repeated firing, built once and reused.

    Places are numbered in sorted order and a marking is a tuple with one
    token count per place. ``pre[t]`` and ``post[t]`` hold the place indices
    of transition ``t`` (its position in ``net.transitions``); every input
    arc needs one token, so ``delta[t]`` (post minus pre, one entry per
    place) is the whole effect of firing. ``enabled`` looks only at the
    transitions fed by marked places, plus those with an empty preset.
    """

    __slots__ = (
        "places", "place_index", "transitions", "index", "silent",
        "pre", "post", "delta", "consumers", "unconditional", "initial", "final",
    )

    def __init__(self, net: PetriNet):
        self.places = tuple(sorted(net.places))
        self.place_index = {p: i for i, p in enumerate(self.places)}
        self.transitions = net.transitions
        self.index = {t.id: i for i, t in enumerate(net.transitions)}
        self.silent = tuple(t.silent for t in net.transitions)
        pre: list[list[int]] = [[] for _ in net.transitions]
        post: list[list[int]] = [[] for _ in net.transitions]
        for source, target in net.arcs:
            if source in self.place_index:
                pre[self.index[target]].append(self.place_index[source])
            else:
                post[self.index[source]].append(self.place_index[target])
        self.pre = tuple(tuple(sorted(places)) for places in pre)
        self.post = tuple(tuple(sorted(places)) for places in post)
        deltas = []
        for inputs, outputs in zip(self.pre, self.post):
            delta = [0] * len(self.places)
            for p in inputs:
                delta[p] -= 1
            for p in outputs:
                delta[p] += 1
            deltas.append(tuple(delta))
        self.delta = tuple(deltas)
        consumers: list[list[int]] = [[] for _ in self.places]
        for t, inputs in enumerate(self.pre):
            for p in inputs:
                consumers[p].append(t)
        self.consumers = tuple(tuple(ts) for ts in consumers)
        self.unconditional = tuple(t for t, inputs in enumerate(self.pre) if not inputs)
        self.initial = self.counts(net.initial_marking)
        self.final = self.counts(net.final_marking)

    @classmethod
    def of(cls, net: "PetriNet | CompiledNet") -> "CompiledNet":
        return net if isinstance(net, CompiledNet) else cls(net)

    def counts(self, marking: Marking) -> tuple[int, ...]:
        """The count tuple of a :class:`Marking`."""
        counts = [0] * len(self.places)
        for place, n in marking.items():
            index = self.place_index.get(place)
            if index is None:
                raise InputError(f"marking references unknown place {place}")
            counts[index] = n
        return tuple(counts)

    def enabled(self, counts: tuple[int, ...]) -> list[int]:
        """Indices of the enabled transitions, in ``net.transitions`` order.

        The alignment search pushes successors in this order, and the order
        breaks its ties, so it decides which optimal alignment is returned.
        """
        candidates = set(self.unconditional)
        for p, n in enumerate(counts):
            if n:
                candidates.update(self.consumers[p])
        pre = self.pre
        return [t for t in sorted(candidates) if all(counts[p] for p in pre[t])]

    def fire(self, counts: tuple[int, ...], t: int) -> tuple[int, ...]:
        """The marking after firing ``t``, which the caller knows is enabled."""
        return tuple(map(add, counts, self.delta[t]))


# The choice label of a silent transition at a decision point.
SILENT_CHOICE = "None"


def decision_points(net: PetriNet | CompiledNet) -> list[DecisionPoint]:
    """All places with at least two outgoing arcs, with their transitions by id."""
    compiled = CompiledNet.of(net)
    points = []
    for place, consumers in zip(compiled.places, compiled.consumers):
        if len(consumers) >= 2:
            outs = sorted((compiled.transitions[t] for t in consumers), key=lambda t: t.id)
            points.append(DecisionPoint(place, tuple(outs)))
    return points


def reachable(seeds, successors) -> set:
    """The seeds and every node reached from them over ``successors``, a
    ``node -> nodes`` map in which a node without an entry has none."""
    reached = set()
    frontier = list(seeds)
    while frontier:
        node = frontier.pop()
        if node not in reached:
            reached.add(node)
            frontier.extend(successors.get(node, ()))
    return reached


# Stable ids for the hand-built treatment-path reference model. Place names
# follow the usual sequential convention; the decision-mining API and the
# simulator address places by these ids.
P_START, P1, P2, P3, P4, P_END = "p0", "p1", "p2", "p3", "p4", "p_end"


def build_dejure() -> PetriNet:
    """The expert reference model of treatment paths.

    From the start, a patient either has a first visit or skips straight to
    the central state p1. At p1 the record may continue with more visits
    (self-loop), branch into one of the four cardiovascular outcomes, or
    move silently to p4 where it ends in a death event or in silence. After
    an outcome, optional follow-up visits lead back to p1, so recurrent
    outcomes remain replayable.
    """
    transitions = (
        Transition("visit_first", VISIT_BEFORE),
        Transition("skip_first_visit"),
        Transition("visit_repeat", VISIT_BEFORE),
        Transition("co_hf", Outcome.HF.value),
        Transition("co_cv", Outcome.CV.value),
        Transition("co_stroke", Outcome.STROKE.value),
        Transition("co_mi", Outcome.MI.value),
        Transition("end_record"),
        Transition("visit_after", VISIT_AFTER),
        Transition("skip_after_visit"),
        Transition("visit_after_repeat", VISIT_AFTER),
        Transition("back_to_watch"),
        Transition("death_any", Outcome.DEATH_ANY_CAUSE.value),
        Transition("death_hf", Outcome.DEATH_HF.value),
        Transition("end_without_death"),
    )
    arcs = {
        (P_START, "visit_first"), ("visit_first", P1),
        (P_START, "skip_first_visit"), ("skip_first_visit", P1),
        (P1, "visit_repeat"), ("visit_repeat", P1),
        (P1, "co_hf"), ("co_hf", P2),
        (P1, "co_cv"), ("co_cv", P2),
        (P1, "co_stroke"), ("co_stroke", P2),
        (P1, "co_mi"), ("co_mi", P2),
        (P1, "end_record"), ("end_record", P4),
        (P2, "visit_after"), ("visit_after", P3),
        (P2, "skip_after_visit"), ("skip_after_visit", P3),
        (P3, "visit_after_repeat"), ("visit_after_repeat", P3),
        (P3, "back_to_watch"), ("back_to_watch", P1),
        (P4, "death_any"), ("death_any", P_END),
        (P4, "death_hf"), ("death_hf", P_END),
        (P4, "end_without_death"), ("end_without_death", P_END),
    }
    return PetriNet(
        places=frozenset({P_START, P1, P2, P3, P4, P_END}),
        transitions=transitions,
        arcs=frozenset(arcs),
        initial_marking=Marking([P_START]),
        final_marking=Marking([P_END]),
        name="dejure",
    )
