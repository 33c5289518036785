"""Independent reference implementations used to cross-check the package.

These deliberately avoid the production search/statistics code paths: the
decision tree rescans ``Counter``s of row dicts for every candidate split,
the firing semantics are plain dicts of place ids, the alignment oracle is a
label-correcting exhaustive search, and the random model generator builds
nets compositionally so the final marking is always reachable.
``reference_align`` keeps the alignment search without its dead-marking
prune, so the prune can be checked move for move against it.
``ReferenceXes`` is the ElementTree XES writer and reader that the direct
writer and the one-pass expat reader must agree with. ``reference_chi2_sf``
is the chi-square tail through a general regularized incomplete gamma (a
series and a Lentz continued fraction), against which the closed form is
checked. The ``reference_*`` conformance metrics are the three-walk code the
one-walk ``conformance_report`` replaced: each variant is regrouped by
object identity and walked once per metric, and the public metrics compile
and align on their own, with their own early returns.
``ReferenceMajority``, ``ReferenceNaiveBayes``, ``ReferenceLogistic`` and
``reference_train_classifier`` are the row-based classifiers and the
training loop that one holdout and one column encoding per place replaced:
naive Bayes
rescans the rows per class and feature, logistic regression encodes one
row at a time and reduces along the class axis, and every call draws its
own split; ``ReferenceNaiveBayes.scores`` is ``predict``'s loop returning
every class's score. ``reference_coverage`` and ``reference_check_walk_ends``
are the two hand-written graph walks that ``petri.reachable`` replaced: a
forward and a backward stack search over the retained edges of a
directly-follows graph, and a stack search plus a fixpoint over the
simulator's positive-weight place steps. ``reference_matrix`` is the
logistic design matrix built from a list of parts and transposed, and
``UnprunedDecisionTree`` screens every split before it rescores any: the
code that the in-place matrix and the pruned split screen replaced.
``reference_parse_patient_csv`` and ``reference_write_xes`` are the row-wise
CSV parser and the writer with one ``element`` call per attribute line that
the column-wise parser and the in-line number lines replaced; ``_escaped`` is
that writer's escaping helper, which the one value table replaced in ``xes``.
``reference_read_xes_expat`` is the single-pass expat reader whose handlers
built the events directly, deferring a trace's first event error until its
case id was checked, that the collect-then-check reader replaced.
``reference_simulate_detailed``, with ``reference_sample`` for
``AttributeSampler.sample``, and ``reference_write_patient_csv`` are the
simulator that made a new generator and a sampler call per draw and bound
each row by keyword, and the writer that formatted cell by cell and row by
row, which the planned simulator and the column writer replaced.
"""

import csv
import heapq
import io
import itertools
import math
import random
import xml.etree.ElementTree as ET
from collections import Counter
from datetime import date, datetime, timedelta, timezone

from pathminer.classifiers import (
    DecisionTreeClassifier, _TreeNode, _categorical, _feature_space, _first_seen, make_classifier,
)
from pathminer.conformance import (
    DEFAULT_CAP, LOG, MODEL, SILENT, SYNC, Alignment, ConformanceReport, Move, _as_labels,
    _silent_closure_enabled, align_log, f1, model_path_cost, simplicity,
)
from pathminer.decision_mining import ClassifierReport, _stratified_split
from pathminer.discovery import DirectlyFollowsGraph
from pathminer.model import (
    CLINICAL_FIELDS, AttrValue, Event, EventLog, Outcome, PatientDatum, classify_phenotype,
)
from pathminer.errors import (
    ConfigError, FormatError, InputError, ModelError, PathminerError, ResourceError, RowError,
    SchemaError,
)
from pathminer.patient_csv import (
    _BOOL_FIELDS, _INT_FIELDS, _REQUIRED, _SPACE, COLUMNS, _record_error, _records,
)
from pathminer.petri import P_END, P_START, SILENT_CHOICE, CompiledNet, PetriNet, Transition
from pathminer.simulate import (
    _OUTCOME_BY_LABEL, _PLACE_CHOICES, _SAMPLED_FIELDS, AttributeSampler, SimulationConfig,
)
from pathminer.xes import _ESCAPES, _HEAD, _NOT_XML_CHAR, _parse, _value

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


def tree_fields(node: _TreeNode | None) -> dict | None:
    """A tree as nested dicts of its nodes' seven fields, for comparing two trees."""
    if node is None:
        return None
    fields = {name: getattr(node, name)
              for name in ("prediction", "feature", "threshold", "category", "missing_left")}
    return {**fields, "left": tree_fields(node.left), "right": tree_fields(node.right)}


class ReferenceDecisionTree:
    """CART-style tree on gini impurity with explicit missing handling."""

    kind = "decision-tree"

    def __init__(self, max_depth: int = 6, min_leaf: int = 5, min_split: int = 10):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.min_split = min_split

    @staticmethod
    def _gini(counter: Counter, n: int) -> float:
        if n == 0:
            return 0.0
        return 1.0 - sum((c / n) ** 2 for c in counter.values())

    @staticmethod
    def _majority(labels) -> str:
        counts = Counter(labels)
        top = max(counts.values())
        return min(l for l, c in counts.items() if c == top)

    def _best_split(self, rows, labels):
        n = len(rows)
        parent = self._gini(Counter(labels), n)
        best = None  # (gain, feature, kind-specific payload)
        for name, kind in self.space_.items():
            if kind == "numeric":
                present = [
                    (float(r[name]), l)
                    for r, l in zip(rows, labels)
                    if r.get(name) is not None
                ]
                missing_labels = [l for r, l in zip(rows, labels) if r.get(name) is None]
                if len(present) < 2:
                    continue
                present.sort(key=lambda pair: pair[0])
                missing_counter = Counter(missing_labels)
                left_counter: Counter = Counter()
                right_counter = Counter(l for _, l in present)
                n_left = 0
                n_right = len(present)
                for i in range(len(present) - 1):
                    value, label = present[i]
                    left_counter[label] += 1
                    right_counter[label] -= 1
                    n_left += 1
                    n_right -= 1
                    if present[i + 1][0] == value:
                        continue
                    threshold = (value + present[i + 1][0]) / 2.0
                    for missing_left in (True, False):
                        lc = left_counter.copy()
                        rc = right_counter.copy()
                        ln, rn = n_left, n_right
                        if missing_labels:
                            if missing_left:
                                lc.update(missing_counter)
                                ln += len(missing_labels)
                            else:
                                rc.update(missing_counter)
                                rn += len(missing_labels)
                        if ln < self.min_leaf or rn < self.min_leaf:
                            continue
                        score = (
                            ln / n * self._gini(lc, ln)
                            + rn / n * self._gini(rc, rn)
                        )
                        gain = parent - score
                        key = (-gain, name, threshold, not missing_left)
                        if best is None or key < best[0]:
                            best = (key, name, "numeric", threshold, missing_left, gain)
            else:
                values = [_categorical(r.get(name)) for r in rows]
                for category in sorted(set(values)):
                    left_idx = [i for i, v in enumerate(values) if v == category]
                    right_idx = [i for i, v in enumerate(values) if v != category]
                    if len(left_idx) < self.min_leaf or len(right_idx) < self.min_leaf:
                        continue
                    lc = Counter(labels[i] for i in left_idx)
                    rc = Counter(labels[i] for i in right_idx)
                    score = (
                        len(left_idx) / n * self._gini(lc, len(left_idx))
                        + len(right_idx) / n * self._gini(rc, len(right_idx))
                    )
                    gain = parent - score
                    key = (-gain, name, category, False)
                    if best is None or key < best[0]:
                        best = (key, name, "categorical", category, True, gain)
        if best is None or best[5] <= 1e-12:
            return None
        return best[1:]

    def _build(self, rows, labels, depth: int) -> _TreeNode:
        node = _TreeNode(prediction=self._majority(labels))
        if (
            depth >= self.max_depth
            or len(rows) < self.min_split
            or len(set(labels)) == 1
        ):
            return node
        split = self._best_split(rows, labels)
        if split is None:
            return node
        name, kind, pivot, missing_left, _gain = split
        if kind == "numeric":
            left_idx, right_idx = [], []
            for i, row in enumerate(rows):
                value = row.get(name)
                if value is None:
                    (left_idx if missing_left else right_idx).append(i)
                elif float(value) <= pivot:
                    left_idx.append(i)
                else:
                    right_idx.append(i)
            node.feature, node.threshold, node.missing_left = name, pivot, missing_left
        else:
            values = [_categorical(r.get(name)) for r in rows]
            left_idx = [i for i, v in enumerate(values) if v == pivot]
            right_idx = [i for i, v in enumerate(values) if v != pivot]
            node.feature, node.category = name, pivot
        node.left = self._build(
            [rows[i] for i in left_idx], [labels[i] for i in left_idx], depth + 1
        )
        node.right = self._build(
            [rows[i] for i in right_idx], [labels[i] for i in right_idx], depth + 1
        )
        return node

    def fit(self, rows, labels):
        self.space_ = _feature_space(rows)
        self.root_ = self._build(list(rows), list(labels), 0)
        return self

    def predict(self, row) -> str:
        node = self.root_
        while node.left is not None:
            if node.threshold is not None:
                value = row.get(node.feature)
                if value is None:
                    node = node.left if node.missing_left else node.right
                elif float(value) <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            else:
                value = _categorical(row.get(node.feature))
                node = node.left if value == node.category else node.right
        return node.prediction

    def root_split(self) -> dict:
        root = self.root_
        if root.left is None:
            return {}
        if root.threshold is not None:
            return {"feature": root.feature, "threshold": root.threshold}
        return {"feature": root.feature, "category": root.category}


class SemanticsError(Exception):
    """:class:`ReferenceSemantics` was asked to fire a disabled transition."""


class ReferenceSemantics:
    """Token firing on plain ``{place: count}`` dicts without zero counts,
    with presets and postsets as dicts of place ids: the semantics the
    compiled net must agree with."""

    def __init__(self, net: PetriNet):
        self.net = net
        ids = [t.id for t in net.transitions]
        self.pre = {tid: tuple(sorted(s for s, d in net.arcs if d == tid)) for tid in ids}
        self.post = {tid: tuple(sorted(d for s, d in net.arcs if s == tid)) for tid in ids}

    def enabled(self, marking: dict[str, int]) -> list[Transition]:
        """Enabled transitions in ``net.transitions`` order."""
        return [
            t for t in self.net.transitions
            if all(marking.get(p, 0) >= 1 for p in self.pre[t.id])
        ]

    def fire(self, marking: dict[str, int], tid: str) -> dict[str, int]:
        counts = dict(marking)
        for place in self.pre[tid]:
            if counts.get(place, 0) <= 0:
                raise SemanticsError(f"transition {tid} is not enabled")
            counts[place] -= 1
        for place in self.post[tid]:
            counts[place] = counts.get(place, 0) + 1
        return {place: n for place, n in counts.items() if n}


def reference_align(net: PetriNet | CompiledNet, trace, *, cap: int = DEFAULT_CAP) -> Alignment:
    """The uniform-cost alignment search as it was before dead markings
    were pruned: every reachable marking is explored, so a net without a
    run to its final marking ends only when the states or ``cap`` run out."""
    compiled = CompiledNet.of(net)
    labels = _as_labels(trace)

    model_moves = []
    sync_moves = []
    for t in compiled.transitions:
        if t.silent:
            model_moves.append(Move(SILENT, transition=t.id))
            sync_moves.append(None)
        else:
            model_moves.append(Move(MODEL, activity=t.label, transition=t.id))
            sync_moves.append(Move(SYNC, activity=t.label, transition=t.id))
    log_moves = [Move(LOG, activity=label) for label in labels]
    transition_labels = [t.label for t in compiled.transitions]

    n = len(labels)
    start = (compiled.initial, 0)
    goal = (compiled.final, n)
    best: dict[tuple, int] = {start: 0}
    parent: dict[tuple, tuple[tuple, Move]] = {}
    tie = itertools.count()
    heap = [(0, next(tie), compiled.initial, 0)]
    # Successors of each marking, shared by the states at every trace position.
    successors: dict[tuple, tuple] = {}
    expanded = 0

    def push(state, g: int, next_marking: tuple, next_pos: int, move: Move):
        next_state = (next_marking, next_pos)
        if g < best.get(next_state, math.inf):
            best[next_state] = g
            parent[next_state] = (state, move)
            heapq.heappush(heap, (g, next(tie), next_marking, next_pos))

    while heap:
        g, _, marking, pos = heapq.heappop(heap)
        state = (marking, pos)
        if g > best[state]:
            continue
        if state == goal:
            moves: list[Move] = []
            cursor = state
            while cursor != start:
                cursor, move = parent[cursor]
                moves.append(move)
            moves.reverse()
            return Alignment(tuple(moves), g)
        expanded += 1
        if expanded > cap:
            raise ResourceError(cap)

        steps = successors.get(marking)
        if steps is None:
            steps = tuple((t, compiled.fire(marking, t)) for t in compiled.enabled(marking))
            successors[marking] = steps
        label = labels[pos] if pos < n else None
        for t, fired in steps:
            if transition_labels[t] is None:
                push(state, g, fired, pos, model_moves[t])
            else:
                if transition_labels[t] == label:
                    push(state, g, fired, pos + 1, sync_moves[t])
                push(state, g + 1, fired, pos, model_moves[t])
        if pos < n:
            push(state, g + 1, marking, pos + 1, log_moves[pos])

    raise ModelError("final marking is unreachable for this trace")


def brute_force_cost(net: PetriNet, labels) -> float:
    """Minimal alignment cost by exhaustive label-correcting search."""
    labels = tuple(labels)
    sem = ReferenceSemantics(net)
    n = len(labels)
    goal = (net.final_marking, n)
    best: dict = {}
    best_goal = math.inf
    stack = [(dict(net.initial_marking), 0, 0)]
    while stack:
        marking, pos, g = stack.pop()
        state = (tuple(sorted(marking.items())), pos)
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
        initial_marking={source: 1},
        final_marking={sink: 1},
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
    marking = dict(net.initial_marking)
    walked: list[str] = []
    for _ in range(40):
        if marking == dict(net.final_marking) and rng.random() < 0.5:
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


_SOURCE = object()


def reference_coverage(dfg: DirectlyFollowsGraph, retained: set) -> set[str]:
    """Activities lying on a source-to-sink path of the retained graph.

    Start activities hang off the source; end activities and activities
    without any retained outgoing edge reach the sink.
    """
    forward: dict[object, set] = {a: set() for a in dfg.activities}
    forward[_SOURCE] = set(dfg.starts)
    backward: dict[object, set] = {a: set() for a in dfg.activities}
    for a, b in retained:
        forward[a].add(b)
        backward[b].add(a)
    sink_feeders = set(dfg.ends) | {
        a for a in dfg.activities if not forward[a]
    }

    reach_fwd: set[str] = set()
    frontier = list(forward[_SOURCE])
    while frontier:
        node = frontier.pop()
        if node in reach_fwd:
            continue
        reach_fwd.add(node)
        frontier.extend(forward[node])

    reach_bwd: set[str] = set()
    frontier = list(sink_feeders)
    while frontier:
        node = frontier.pop()
        if node in reach_bwd:
            continue
        reach_bwd.add(node)
        frontier.extend(backward[node])

    return reach_fwd & reach_bwd


def reference_check_walk_ends(probs: dict[str, dict[str, float]]) -> None:
    """Reject weights under which a walk reaches a place from which no
    positive-weight choices lead to the final place: that walk never ends."""
    steps = {place: {_PLACE_CHOICES[place][label] for label, p in weights.items() if p > 0}
             for place, weights in probs.items()}
    reached, frontier = {P_START}, [P_START]
    while frontier:
        for place in steps.get(frontier.pop(), set()) - reached:
            reached.add(place)
            frontier.append(place)
    ending = {P_END}
    while grown := {place for place, nexts in steps.items() if nexts & ending} - ending:
        ending |= grown
    if stuck := sorted(reached - ending):
        raise ConfigError(f"the place weights give a walk through {', '.join(stuck)} no way "
                          f"to reach {P_END}, so it never ends")


class ReferenceXes:
    """XES through an ElementTree: the writer builds, indents and serializes
    a tree, and the reader walks ``ET.fromstring``'s tree, so it reads every
    ``<trace>`` below the root and every ``<event>`` below a trace."""

    _EXTENSIONS = (
        ("Concept", "concept", "http://www.xes-standard.org/concept.xesext"),
        ("Time", "time", "http://www.xes-standard.org/time.xesext"),
    )

    # The xs:boolean lexical forms.
    _BOOLEANS = {"true": True, "false": False, "1": True, "0": False}

    @staticmethod
    def _attr_element(key: str, value: AttrValue) -> ET.Element:
        if isinstance(value, bool):
            return ET.Element("boolean", key=key, value="true" if value else "false")
        if isinstance(value, int):
            return ET.Element("int", key=key, value=str(value))
        if isinstance(value, float):
            return ET.Element("float", key=key, value=repr(value))
        if isinstance(value, date):
            return ET.Element("date", key=key, value=ReferenceXes._date_value(value))
        return ET.Element("string", key=key, value=str(value))

    @staticmethod
    def _date_value(day: date) -> str:
        return datetime(day.year, day.month, day.day, tzinfo=timezone.utc).isoformat()

    @staticmethod
    def write_xes(log: EventLog) -> bytes:
        """Serialize a log to XES with a stable element order."""
        root = ET.Element("log", attrib={"xes.version": "1.0"})
        for name, prefix, uri in ReferenceXes._EXTENSIONS:
            ET.SubElement(root, "extension", name=name, prefix=prefix, uri=uri)
        for case_id, events in log.traces().items():
            trace = ET.SubElement(root, "trace")
            trace.append(ReferenceXes._attr_element("concept:name", case_id))
            for event in events:
                node = ET.SubElement(trace, "event")
                node.append(ReferenceXes._attr_element("concept:name", event.activity))
                node.append(
                    ET.Element("date", key="time:timestamp",
                               value=ReferenceXes._date_value(event.timestamp))
                )
                for key in sorted(event.attributes):
                    value = event.attributes[key]
                    if value is None:
                        continue
                    node.append(ReferenceXes._attr_element(key, value))
        ET.indent(root, space="  ")
        return ET.tostring(root, encoding="UTF-8", xml_declaration=True) + b"\n"

    @staticmethod
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
                if text not in ReferenceXes._BOOLEANS:
                    raise ValueError
                return ReferenceXes._BOOLEANS[text]
            if tag == "date":  # midnight UTC: as written, with a Z, or a bare date
                day = date.fromisoformat(text[:10])
                if day.isoformat() != text[:10] or text[10:] not in ("", "T00:00:00+00:00",
                                                                      "T00:00:00Z"):
                    raise ValueError
                return day
        except ValueError:
            raise FormatError(f"{where}: bad {tag} value {text!r}") from None
        return text

    @staticmethod
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
                    if child.tag != "string" or child.get("value") == "":
                        raise FormatError(
                            f"trace {t_index}: the case id must be a non-empty <string>, "
                            f"got <{child.tag}> with value {child.get('value')!r}")
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
                    if child.tag not in ("string", "int", "float", "boolean", "date"):
                        raise FormatError(f"{where}: <{child.tag}> is not an attribute element")
                    key = child.get("key")
                    if key is None:
                        raise FormatError(f"{where}: attribute without key")
                    value = ReferenceXes._parse_value(child, where)
                    if key == "concept:name" and activity is None:
                        if child.tag != "string" or not value:
                            raise FormatError(
                                f"{where}: the activity must be a non-empty <string>, "
                                f"got <{child.tag}> with value {child.get('value')!r}")
                        activity = value
                    elif key == "time:timestamp" and timestamp is None:
                        if not isinstance(value, date):
                            raise FormatError(f"{where}: time:timestamp is not a date")
                        timestamp = value
                    elif key in attributes:
                        raise FormatError(f"{where}: attribute {key!r} repeats")
                    else:
                        attributes[key] = value
                if activity is None:
                    raise FormatError(f"{where}: missing concept:name")
                if timestamp is None:
                    raise FormatError(f"{where}: missing time:timestamp")
                events.append(Event(case_id, activity, timestamp, attributes))
            if next(trace.iter("event"), None) is None:
                raise FormatError(f"trace {t_index}: {case_id!r} holds no <event>")
        return EventLog(tuple(events))


_TRUE = {"1", "true"}
_FALSE = {"0", "false"}


def _reference_cell(field: str, text: str, row: int):
    if field == "pat_id":
        if not text:
            raise RowError(row, "PatID must not be empty")
        return text
    if not text:
        return None
    if field == "timestamp":
        try:
            day = date.fromisoformat(text)
            if day.isoformat() != text:  # Python 3.11 also takes 20230102 and 2023-W01-1
                raise ValueError
            return day
        except ValueError:
            raise RowError(row, f"bad date {text!r}, expected YYYY-MM-DD") from None
    if field == "outcome":
        try:
            return Outcome(text)
        except ValueError:
            raise RowError(row, f"unknown outcome label {text!r}") from None
    if field in _BOOL_FIELDS:
        lowered = text.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise RowError(row, f"bad boolean {text!r} in column for {field}")
    kind = "integer" if field in _INT_FIELDS else "number"
    try:
        if not text.isascii() or "_" in text:
            raise ValueError  # int() and float() take "8_0" and non-ASCII digits
        value = int(text) if field in _INT_FIELDS else float(text)
    except ValueError:
        raise RowError(row, f"bad {kind} {text!r} in column for {field}") from None
    if kind == "number" and not math.isfinite(value):
        raise RowError(row, f"non-finite number {text!r} in column for {field}")
    return value


def reference_parse_patient_csv(data: bytes | str) -> list[PatientDatum]:
    """The row-wise parser that the column-wise one replaced: every cell of
    every row is converted on its own, and each row is checked as it comes."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        record = sum(1 for _ in _records(data[: exc.start].decode("utf-8") + "x")) - 1
        message = f"byte 0x{data[exc.start]:02x} at offset {exc.start} is not UTF-8"
        raise _record_error(record, message) from None
    records = _records(text)
    try:
        _, header = next(records)
    except StopIteration:
        raise SchemaError("empty file: header row required") from None
    named: dict[str, int] = {}
    for i, cell in enumerate(header):
        name = cell.strip(_SPACE)
        name = _REQUIRED.get(name.lower(), name)
        if name in CLINICAL_FIELDS:
            raise _record_error(0, f"column {name!r} names a clinical attribute")
        if name in named:
            raise _record_error(0, f"column {name!r} appears twice")
        if name:
            named[name] = i
    positions: dict[str, int] = {}
    for column, field in COLUMNS:
        if column not in named:
            raise SchemaError(f"missing required column {column!r}")
        positions[field] = named[column]
    known = set(positions.values())
    extras = [(name.strip(_SPACE), i) for i, name in enumerate(header) if i not in known]
    rows: list[PatientDatum] = []
    for row_index, cells in records:
        if not any(cell.strip(_SPACE) for cell in cells):
            continue
        past = next((cell for cell in cells[len(header):] if cell.strip(_SPACE)), None)
        if past is not None:
            raise RowError(row_index, f"cell {past!r} lies past the header's {len(header)} columns")
        values = {}
        for field, pos in positions.items():
            cell = cells[pos].strip(_SPACE) if pos < len(cells) else ""
            values[field] = _reference_cell(field, cell, row_index)
        if values["timestamp"] is None:
            raise RowError(row_index, "Timestamp must not be empty")
        extra = {}
        for name, pos in extras:
            cell = cells[pos].strip(_SPACE) if pos < len(cells) else ""
            if cell:
                extra[name] = cell
        try:
            rows.append(PatientDatum(row_index=row_index, extra=extra, **values))
        except Exception as exc:
            raise RowError(row_index, str(exc)) from None
    return rows


def _escaped(text: str, texts: dict[str, str], where: str) -> str:
    """``text`` checked and escaped as ElementTree escapes attributes; memoised."""
    bad = _NOT_XML_CHAR.search(text)
    if bad:
        raise FormatError(f"{where} holds {bad.group()!r}, which XML 1.0 cannot represent")
    texts[text] = escaped = text.translate(_ESCAPES)
    return escaped


def reference_write_xes(log: EventLog) -> bytearray:
    """The writer before numbers were written in line: every attribute line,
    of any type, is built by one ``element`` call."""
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
                if value is not None:
                    push("      " + element(key, value, where))
            push("    </event>")
        push("  </trace>")
        buffer += "\n".join(lines).encode("utf-8")
    buffer += b"\n</log>\n"
    return buffer


def reference_read_xes_expat(data: bytes | bytearray | str) -> EventLog:
    """The expat pass of ``read_xes`` before it collected each trace: the
    handlers build the events as they go, and the first event error of a
    trace waits in a slot until the trace's case id has been checked."""
    events: list[Event] = []
    trace_of_case: dict[str, int] = {}
    # depths of: this element, the open trace, its open event's children, the next close
    depth = trace_depth = attr_depth = closes = 0
    case_id = activity = timestamp = None
    attributes: dict[str, AttrValue] = {}
    pending: list[tuple] = []  # (activity, timestamp, attributes) per event of the open trace
    error = None  # the open trace's first event error, raised once its case id is checked
    seen: dict[str, str] = {}
    values: dict[tuple, AttrValue] = {}

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
                if tag == "event" or tag == "trace":
                    raise FormatError(f"trace {len(trace_of_case)}: misplaced <{tag}>")
                if tag == "string":
                    value = seen.setdefault(text, text)
                elif (value := values.get((tag, text))) is None:
                    value = values[tag, text] = _value(tag, text)
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
            elif key in attributes:
                fail(f"attribute {key!r} repeats")
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
                if not pending:
                    raise FormatError(f"trace {t_index}: {case_id!r} holds no <event>")
        depth -= 1

    try:
        _parse(data, start, end)
    except PathminerError:
        _parse(data)
        raise
    return EventLog(tuple(events))


def _gamma_series(a: float, x: float, eps: float = 1e-15, itmax: int = 1000) -> float:
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(itmax):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * eps:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a: float, x: float, eps: float = 1e-15, itmax: int = 1000) -> float:
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, itmax + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x), series for small x and a
    Lentz continued fraction otherwise."""
    if a <= 0 or x < 0:
        raise InputError("gamma_q requires a > 0 and x >= 0")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def reference_chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with ``df`` degrees."""
    return gamma_q(df / 2.0, x / 2.0)


def _weighted(alignments: dict[str, Alignment]) -> list[tuple[Alignment, int]]:
    """Each distinct alignment object with the number of cases that share it.

    :func:`align_log` hands one object to every case of a variant, so the
    metrics below, which only add up integers over cases, walk each variant
    once.
    """
    by_id: dict[int, list] = {}
    for alignment in alignments.values():
        by_id.setdefault(id(alignment), [alignment, 0])[1] += 1
    return [(alignment, cases) for alignment, cases in by_id.values()]


def _fitness(weighted: list[tuple[Alignment, int]], worst_model: int) -> float:
    total_cost = sum(a.total_cost * cases for a, cases in weighted)
    total_worst = sum((len(a.log_projection()) + worst_model) * cases for a, cases in weighted)
    if total_worst == 0:
        return 1.0
    return 1.0 - total_cost / total_worst


def reference_fitness(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    if not log.events:
        return 1.0
    compiled = CompiledNet(net)
    worst_model = model_path_cost(compiled, cap=cap)
    alignments = align_log(compiled, log, cap=cap)
    return _fitness(_weighted(alignments), worst_model)


def _precision(compiled: CompiledNet, weighted: list[tuple[Alignment, int]]) -> float:
    weight: dict[tuple, int] = {}
    observed: dict[tuple, set[int]] = {}
    markings_at: dict[tuple, set[tuple]] = {}

    for alignment, cases in weighted:
        marking = compiled.initial
        prefix: tuple[int, ...] = ()
        weight[prefix] = weight.get(prefix, 0) + cases
        markings_at.setdefault(prefix, set()).add(marking)
        for tid in alignment.model_projection():
            t = compiled.index[tid]
            marking = compiled.fire(marking, t)
            if compiled.silent[t]:
                continue
            observed.setdefault(prefix, set()).add(t)
            prefix = prefix + (t,)
            weight[prefix] = weight.get(prefix, 0) + cases
            markings_at.setdefault(prefix, set()).add(marking)

    closure_cache: dict = {}
    escaping_mass = 0
    enabled_mass = 0
    for prefix, w in weight.items():
        enabled: set[int] = set()
        for marking in markings_at[prefix]:
            enabled |= _silent_closure_enabled(compiled, marking, closure_cache)
        seen = observed.get(prefix, set())
        enabled_mass += w * len(enabled)
        escaping_mass += w * len(enabled - seen)
    if enabled_mass == 0:
        return 1.0
    return 1.0 - escaping_mass / enabled_mass


def reference_precision(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    compiled = CompiledNet(net)
    alignments = align_log(compiled, log, cap=cap)
    return _precision(compiled, _weighted(alignments))


def visible_model_projection(alignment: Alignment) -> tuple[str, ...]:
    """Ids of the visible transitions an alignment fires in the model."""
    return tuple(m.transition for m in alignment.moves if m.kind in (SYNC, MODEL))


def _generalization(net: PetriNet, weighted: list[tuple[Alignment, int]]) -> float:
    visible = [t for t in net.transitions if not t.silent]
    if not visible:
        return 1.0
    counts = {t.id: 0 for t in visible}
    for alignment, cases in weighted:
        for tid in visible_model_projection(alignment):
            counts[tid] += cases
    penalty = sum(
        1.0 if c == 0 else 1.0 / math.sqrt(c) for c in counts.values()
    )
    return 1.0 - penalty / len(visible)


def reference_generalization(net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP) -> float:
    if all(t.silent for t in net.transitions):
        return 1.0
    return _generalization(net, _weighted(align_log(net, log, cap=cap)))


def reference_report(
    net: PetriNet, log: EventLog, *, cap: int = DEFAULT_CAP
) -> ConformanceReport:
    compiled = CompiledNet(net)
    worst_model = model_path_cost(compiled, cap=cap) if log.events else 0
    weighted = _weighted(align_log(compiled, log, cap=cap))
    fit = _fitness(weighted, worst_model)
    prec = _precision(compiled, weighted)
    gen = _generalization(net, weighted)
    return ConformanceReport(fit, prec, gen, simplicity(net), f1(fit, prec))


class ReferenceNaiveBayes:
    """Gaussian/categorical naive Bayes with per-row feature skipping."""

    kind = "naive-bayes"

    def fit(self, rows, labels):
        self.space_ = _feature_space(rows)
        self.classes_ = sorted(set(labels))
        counts = Counter(labels)
        total = len(labels)
        self.log_prior_ = {c: math.log(counts[c] / total) for c in self.classes_}

        self.gaussians_: dict[tuple[str, str], tuple[float, float]] = {}
        self.cat_logp_: dict[tuple[str, str, str], float] = {}
        self.categories_: dict[str, list[str]] = {}

        for name, kind in self.space_.items():
            if kind == "numeric":
                for c in self.classes_:
                    values = [
                        float(r[name])
                        for r, l in zip(rows, labels)
                        if l == c and r.get(name) is not None
                    ]
                    if values:
                        mean = sum(values) / len(values)
                        var = sum((v - mean) ** 2 for v in values) / len(values)
                        self.gaussians_[(c, name)] = (mean, var + 1e-9)
            else:
                cats = sorted(
                    {_categorical(r[name]) for r in rows if r.get(name) is not None}
                )
                self.categories_[name] = cats
                for c in self.classes_:
                    observed = [
                        _categorical(r[name])
                        for r, l in zip(rows, labels)
                        if l == c and r.get(name) is not None
                    ]
                    denominator = len(observed) + len(cats)
                    tally = Counter(observed)
                    for cat in cats:
                        self.cat_logp_[(c, name, cat)] = math.log(
                            (tally[cat] + 1) / denominator
                        )
        return self

    def predict(self, row) -> str:
        best_label = None
        best_score = -math.inf
        for c in self.classes_:
            score = self.log_prior_[c]
            for name, kind in self.space_.items():
                value = row.get(name)
                if value is None:
                    continue
                if kind == "numeric":
                    stats = self.gaussians_.get((c, name))
                    if stats is None:
                        continue
                    mean, var = stats
                    score += -0.5 * math.log(2 * math.pi * var) - (
                        (float(value) - mean) ** 2
                    ) / (2 * var)
                else:
                    cat = _categorical(value)
                    logp = self.cat_logp_.get((c, name, cat))
                    if logp is None:
                        cats = self.categories_.get(name, [])
                        logp = -math.log(len(cats) + 1) if cats else 0.0
                    score += logp
            if best_label is None or score > best_score:
                best_label, best_score = c, score
        return best_label

    def scores(self, row) -> list[float]:
        """``predict``'s loop, returning every class's score in class order."""
        out = []
        for c in self.classes_:
            score = self.log_prior_[c]
            for name, kind in self.space_.items():
                value = row.get(name)
                if value is None:
                    continue
                if kind == "numeric":
                    stats = self.gaussians_.get((c, name))
                    if stats is None:
                        continue
                    mean, var = stats
                    score += -0.5 * math.log(2 * math.pi * var) - (
                        (float(value) - mean) ** 2
                    ) / (2 * var)
                else:
                    cat = _categorical(value)
                    logp = self.cat_logp_.get((c, name, cat))
                    if logp is None:
                        cats = self.categories_.get(name, [])
                        logp = -math.log(len(cats) + 1) if cats else 0.0
                    score += logp
            out.append(score)
        return out


class ReferenceLogistic:
    """Multinomial softmax regression trained by full-batch gradient
    descent from a zero start; no randomness involved."""

    kind = "logistic"
    EPOCHS = 400
    LEARNING_RATE = 0.5
    L2 = 1e-3

    def _encode(self, row) -> "np.ndarray":
        import numpy as np

        parts = []
        for name, kind in self.space_.items():
            value = row.get(name)
            if kind == "numeric":
                mean, std = self.scaling_[name]
                if value is None:
                    parts.extend((0.0, 1.0))
                else:
                    parts.extend(((float(value) - mean) / std, 0.0))
            else:
                cats = self.categories_[name]
                cat = _categorical(value)
                parts.extend(1.0 if cat == c else 0.0 for c in cats)
        parts.append(1.0)  # intercept
        return np.array(parts)

    def fit(self, rows, labels):
        import numpy as np

        self.space_ = _feature_space(rows)
        self.classes_ = sorted(set(labels))
        self.scaling_ = {}
        self.categories_ = {}
        for name, kind in self.space_.items():
            if kind == "numeric":
                values = [float(r[name]) for r in rows if r.get(name) is not None]
                mean = sum(values) / len(values) if values else 0.0
                var = (
                    sum((v - mean) ** 2 for v in values) / len(values)
                    if values
                    else 0.0
                )
                self.scaling_[name] = (mean, math.sqrt(var) or 1.0)
            else:
                cats = {_categorical(r.get(name)) for r in rows}
                self.categories_[name] = sorted(cats)

        matrix = np.stack([self._encode(r) for r in rows])
        index = {c: i for i, c in enumerate(self.classes_)}
        target = np.zeros((len(rows), len(self.classes_)))
        for i, label in enumerate(labels):
            target[i, index[label]] = 1.0

        self.weights_ = np.zeros((matrix.shape[1], len(self.classes_)))
        n = len(rows)
        for _ in range(self.EPOCHS):
            scores = matrix @ self.weights_
            scores -= scores.max(axis=1, keepdims=True)
            exp = np.exp(scores)
            probs = exp / exp.sum(axis=1, keepdims=True)
            gradient = matrix.T @ (probs - target) / n + self.L2 * self.weights_
            self.weights_ -= self.LEARNING_RATE * gradient
        return self

    def predict(self, row) -> str:
        import numpy as np

        scores = self._encode(row) @ self.weights_
        return self.classes_[int(np.argmax(scores))]


class ReferenceMajority:
    """The most frequent training label, ties broken lexicographically."""

    def fit(self, rows, labels):
        counts = Counter(labels)
        top = max(counts.values())
        self.label_ = min(l for l, c in counts.items() if c == top)
        return self

    def predict(self, row) -> str:
        return self.label_


def _reference_classifier(kind: str):
    """``make_classifier`` over the reference models."""
    models = {"majority": ReferenceMajority, "naive-bayes": ReferenceNaiveBayes,
              "logistic": ReferenceLogistic, "decision-tree": ReferenceDecisionTree}
    if kind not in models:
        make_classifier(kind)  # raises the InputError
    return models[kind]()


def reference_train_classifier(
    instances, kind: str, split: float = 0.2, seed: int = 0
) -> ClassifierReport:
    """Train one classifier on a stratified holdout and score it.

    Deterministic under ``seed``. A single-class instance set short-circuits
    to a degenerate 100%-accuracy report.
    """
    instances = list(instances)
    if len(instances) < 2:
        raise InputError("at least two decision instances are required")
    if not 0.0 < split < 1.0:
        raise InputError(f"split must lie in (0, 1), got {split}")
    model = _reference_classifier(kind)
    labels = [inst.chosen for inst in instances]
    rows = [inst.features for inst in instances]

    distinct = sorted(set(labels))
    if len(distinct) == 1:
        only = distinct[0]
        return ClassifierReport(
            kind=kind,
            accuracy=100.0,
            confusion={only: {only: len(instances)}},
            train_size=len(instances),
            test_size=0,
            degenerate=True,
            detail={},
        )

    train_idx, test_idx = _stratified_split(labels, split, seed)
    model.fit([rows[i] for i in train_idx], [labels[i] for i in train_idx])

    confusion: dict[str, dict[str, int]] = {}
    correct = 0
    for i in test_idx:
        predicted = model.predict(rows[i])
        confusion.setdefault(labels[i], {}).setdefault(predicted, 0)
        confusion[labels[i]][predicted] += 1
        if predicted == labels[i]:
            correct += 1
    accuracy = 100.0 * correct / len(test_idx)
    detail: dict = {}
    if isinstance(model, ReferenceDecisionTree):
        detail["root_split"] = model.root_split()
    return ClassifierReport(
        kind=kind,
        accuracy=accuracy,
        confusion=confusion,
        train_size=len(train_idx),
        test_size=len(test_idx),
        degenerate=False,
        detail=detail,
    )


def reference_matrix(model, columns, rows) -> "np.ndarray":
    """``LogisticClassifier._matrix`` as it was before it filled one array in
    place: a list of per-feature parts, stacked, transposed and copied."""
    import numpy as np

    idx = np.asarray(rows, dtype=np.intp)
    parts = []
    for column, scaling in zip(columns, model.scaling_):
        values = np.asarray(column.values)[idx]
        if scaling is None:
            parts.extend(values == j for j in range(len(column.categories)))
        else:
            missing = np.asarray(column.missing, dtype=bool)[idx]
            parts += [np.where(missing, 0.0, (values - scaling[0]) / scaling[1]), missing]
    parts.append(np.ones(len(idx)))
    return np.array(parts, dtype=np.float64).T.copy()


class UnprunedDecisionTree(DecisionTreeClassifier):
    """The tree whose ``_best_split`` keeps every screened split until the
    top gain over all columns is known, as it did before it dropped the
    splits that fall out of the rescore window as the top rises."""

    def _best_split(self, columns, idx, y):
        import numpy as np

        n = len(idx)
        counts = np.bincount(y, minlength=len(self.classes_))
        order, _ = _first_seen(y)
        parent = self._gini([int(counts[c]) for c in order], n)
        screened = []  # (column, gains, rescore)
        for column in columns:
            if column.categories is None:
                splits = self._numeric_splits(column, idx, y, parent)
            else:
                splits = self._categorical_splits(column, idx, y, counts, parent)
            screened.extend((column, gains, rescore) for gains, rescore in splits)
        top = max((float(gains.max()) for _, gains, _ in screened if len(gains)), default=-math.inf)
        if top == -math.inf:
            return None

        best = None
        for column, gains, rescore in screened:
            for j in np.flatnonzero(gains >= top - self._RESCORE_WINDOW).tolist():
                gain, pivot, missing_left = rescore(j)
                key = (-gain, column.name, pivot, not missing_left)
                if best is None or key < best[0]:
                    best = (key, column, pivot, missing_left)
        key, column, pivot, missing_left = best
        if -key[0] <= 1e-12:  # the gain
            return None
        return column, pivot, missing_left


def reference_sample(sampler: AttributeSampler, rng: random.Random):
    """``AttributeSampler.sample`` as it was before the simulator planned its draws."""
    if sampler.missing_rate and rng.random() < sampler.missing_rate:
        return None
    if sampler.kind == "uniform":
        return round(rng.uniform(sampler.low, sampler.high), sampler.decimals)
    if sampler.kind == "uniform_int":
        return rng.randint(int(sampler.low), int(sampler.high))
    if sampler.kind == "bernoulli":
        return rng.random() < sampler.p
    if sampler.kind == "constant":
        return sampler.value
    return None  # "absent": SimulationConfig refuses every other kind


def _reference_patient_attrs(rng: random.Random, config: SimulationConfig) -> dict:
    attrs = {
        name: reference_sample(config.attributes[name], rng) for name in _SAMPLED_FIELDS
    }
    lvef = attrs.get("lvef")
    if lvef is None:
        attrs.update(hfref=None, hfmref=None, hfpef=None)
    else:
        phenotype = classify_phenotype(lvef).value
        attrs["hfref"] = phenotype == "HFrEF"
        attrs["hfmref"] = phenotype == "HFmrEF"
        attrs["hfpef"] = phenotype == "HFpEF"
    return attrs


def _later(day: date, days: int, pat_id: str) -> date:
    try:
        return day + timedelta(days=days)
    except OverflowError:
        raise ConfigError(f"patient {pat_id}: a timestamp falls after {date.max}") from None


def _reference_choose(rng: random.Random, probs: dict[str, float]) -> str:
    draw = rng.random()
    cumulative = 0.0
    last = None
    for label, p in probs.items():
        cumulative += p
        last = label
        if draw < cumulative:
            return label
    return last  # guard against float round-off at the top end


def reference_simulate_detailed(config: SimulationConfig):
    """``simulate_detailed`` before it planned each run: a new generator per
    patient, a sampler call per draw and keyword-bound rows."""
    decisions: dict[str, dict[str, int]] = {
        place: {label: 0 for label in sorted(_PLACE_CHOICES[place])}
        for place in _PLACE_CHOICES
    }

    rows: list[PatientDatum] = []
    row_index = 0
    gap_lo, gap_hi = config.gap_days
    for index in range(config.patients):
        rng = random.Random(f"{config.seed}:{index}")
        attrs = _reference_patient_attrs(rng, config)
        pat_id = f"{index + 1:04d}"
        current = _later(config.start_date, rng.randrange(max(1, config.start_window_days)), pat_id)
        place = P_START
        first_row = True
        while place != P_END:
            label = _reference_choose(rng, config.place_probs[place])
            decisions[place][label] += 1
            if label != SILENT_CHOICE:
                if not first_row:
                    current = _later(current, rng.randint(gap_lo, gap_hi), pat_id)
                first_row = False
                row_index += 1
                outcome = _OUTCOME_BY_LABEL.get(label)
                rows.append(
                    PatientDatum(
                        pat_id=pat_id,
                        timestamp=current,
                        row_index=row_index,
                        outcome=outcome,
                        **attrs,
                    )
                )
            place = _PLACE_CHOICES[place][label]
    return rows, decisions


def _reference_format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Outcome):
        return value.value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, date):
        return value.isoformat()
    return str(value)


def reference_write_patient_csv(rows) -> bytes:
    """The row-wise writer that formatting by column replaced: one
    ``_format_cell`` call per cell and one ``writerow`` per row."""
    extra_names = sorted({name for r in rows for name in r.extra})
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow([column for column, _ in COLUMNS] + extra_names)
    for row in rows:
        cells = [_reference_format_cell(getattr(row, field)) for _, field in COLUMNS]
        cells.extend(row.extra.get(name, "") for name in extra_names)
        writer.writerow(cells)
    return out.getvalue().encode("utf-8")
