"""Decision mining at Petri-net places.

A decision instance is recorded every time a token in the place of interest
is consumed during the aligned replay of a trace: ``chosen`` is the label of
the consuming transition ("None" for any silent alternative) and the
features are the attributes of the most recent visible event at the moment
the token was deposited (trace-initial tokens fall back to the first
event's attributes). Traces that do not align at cost zero have no
unambiguous decision path; they are skipped and counted.
"""

import random
from collections import Counter, deque
from functools import cached_property
from typing import NamedTuple

from .classifiers import Column, DecisionTreeClassifier, _feature_space, encode, make_classifier
from .conformance import align_log
from .errors import InputError
from .model import AttrValue, EventLog, case_phenotype
from .petri import SILENT_CHOICE, CompiledNet, PetriNet, decision_points


class DecisionInstance(NamedTuple):
    case_id: str
    place: str
    features: dict[str, AttrValue]
    chosen: str


class ExtractionResult(NamedTuple):
    instances: tuple[DecisionInstance, ...]
    skipped_cases: tuple[str, ...]


def extract_instances(net: PetriNet, log: EventLog, place: str) -> ExtractionResult:
    """Replay aligned traces and capture every choice made at ``place``."""
    compiled = CompiledNet(net)
    if place not in {dp.place for dp in decision_points(compiled)}:
        raise InputError(f"{place!r} is not a decision point of the net")

    place_index = compiled.place_index[place]
    alignments = align_log(compiled, log)
    traces = log.traces()

    instances: list[DecisionInstance] = []
    skipped: list[str] = []
    for case in sorted(traces):
        alignment = alignments[case]
        if alignment.total_cost != 0:
            skipped.append(case)
            continue
        events = traces[case]
        first_attrs = events[0].attributes

        queues = [deque() for _ in compiled.places]
        for p, count in enumerate(compiled.initial):
            for _ in range(count):
                queues[p].append(None)  # resolved to the first event later

        latest_attrs = None
        event_cursor = 0
        for tid in alignment.model_projection():
            t = compiled.index[tid]
            transition = compiled.transitions[t]
            event_attrs = None
            if not transition.silent:
                event_attrs = events[event_cursor].attributes
                event_cursor += 1
            for p in compiled.pre[t]:
                deposit_context = queues[p].popleft()
                if p == place_index:
                    features = deposit_context if deposit_context is not None else first_attrs
                    chosen = transition.label if transition.label else SILENT_CHOICE
                    instances.append(DecisionInstance(case, place, features, chosen))
            produced_context = event_attrs if event_attrs is not None else latest_attrs
            if event_attrs is not None:
                latest_attrs = event_attrs
            for p in compiled.post[t]:
                queues[p].append(produced_context)
    return ExtractionResult(tuple(instances), tuple(skipped))


def distribution(instances) -> dict[str, float]:
    """Label shares as percentages, ordered by descending share."""
    counts = Counter(inst.chosen for inst in instances)
    total = sum(counts.values())
    if total == 0:
        return {}
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {label: 100.0 * count / total for label, count in ordered}


class ClassifierReport(NamedTuple):
    kind: str
    accuracy: float  # percentage on the holdout
    confusion: dict[str, dict[str, int]]
    train_size: int
    test_size: int
    degenerate: bool
    detail: dict


def _stratified_split(labels: list[str], split: float, seed: int):
    """Deterministic stratified holdout; returns (train_idx, test_idx)."""
    by_label: dict[str, list[int]] = {}
    for i, label in enumerate(labels):
        by_label.setdefault(label, []).append(i)
    train: list[int] = []
    test: list[int] = []
    for label in sorted(by_label):
        indices = list(by_label[label])
        random.Random(f"{seed}:{label}").shuffle(indices)
        n_test = min(len(indices) - 1, round(split * len(indices)))
        n_test = max(n_test, 0)
        test.extend(indices[:n_test])
        train.extend(indices[n_test:])
    if not test and len(labels) >= 2:
        # tiny sets: surrender one training row of the largest class
        largest = max(sorted(by_label), key=lambda l: len(by_label[l]))
        moved = next(i for i in train if labels[i] == largest)
        train.remove(moved)
        test.append(moved)
    return sorted(train), sorted(test)


class Holdout:
    """The stratified holdout of one instance set, drawn once for every
    classifier trained on it, and its rows encoded once on first use."""

    def __init__(self, instances, split: float = 0.2, seed: int = 0):
        if len(instances) < 2:
            raise InputError("at least two decision instances are required")
        if not 0.0 < split < 1.0:
            raise InputError(f"split must lie in (0, 1), got {split}")
        self.instances = instances
        self.labels = [inst.chosen for inst in instances]
        self.rows = [inst.features for inst in instances]
        self.classes = sorted(set(self.labels))
        if len(self.classes) > 1:
            self.train, self.test = _stratified_split(self.labels, split, seed)

    @cached_property
    def columns(self) -> list[Column]:
        """The rows encoded over the training rows' feature space, after a
        check that no test row holds a non-number where it is numeric."""
        space = _feature_space([self.rows[i] for i in self.train])
        for i in self.test:
            for name, kind in space.items():
                value = self.rows[i].get(name)
                if kind == "numeric" and value is not None and not isinstance(value, (int, float)):
                    raise InputError(f"case {self.instances[i].case_id!r}: attribute {name!r} holds "
                                     f"{value!r} where the training rows hold numbers")
        return encode(self.rows, space, self.train)


def train_classifier(holdout: Holdout, kind: str) -> ClassifierReport:
    """Train one classifier on the holdout's training rows and score it on
    its test rows.

    A single-class instance set short-circuits to a degenerate
    100%-accuracy report.
    """
    model = make_classifier(kind)
    labels = holdout.labels
    if len(holdout.classes) == 1:
        only, n = holdout.classes[0], len(labels)
        return ClassifierReport(kind, 100.0, {only: {only: n}}, n, 0, degenerate=True, detail={})

    train_idx, test_idx = holdout.train, holdout.test
    columns = None if kind == "majority" else holdout.columns
    model.fit(columns, train_idx, [labels[i] for i in train_idx])

    confusion: dict[str, dict[str, int]] = {}
    correct = 0
    for i, predicted in zip(test_idx, model.predict(columns, test_idx)):
        confusion.setdefault(labels[i], {}).setdefault(predicted, 0)
        confusion[labels[i]][predicted] += 1
        if predicted == labels[i]:
            correct += 1
    detail = {"root_split": model.root_split()} if isinstance(model, DecisionTreeClassifier) else {}
    return ClassifierReport(kind, 100.0 * correct / len(test_idx), confusion, len(train_idx),
                            len(test_idx), degenerate=False, detail=detail)


class DecisionMiningReport(NamedTuple):
    place: str
    phenotype_filter: str | None
    n_instances: int
    skipped_cases: tuple[str, ...]
    distribution: dict[str, float]
    classifiers: tuple[ClassifierReport, ...]


def mine_place(
    net: PetriNet,
    log: EventLog,
    place: str,
    kinds,
    *,
    phenotype_filter: str | None = None,
    split: float = 0.2,
    seed: int = 0,
) -> DecisionMiningReport:
    """Distribution plus classifier reports for one decision place,
    optionally restricted to cases of one phenotype."""
    if phenotype_filter is not None:
        keep = {
            case
            for case, trace in log.traces().items()
            if case_phenotype(trace) == phenotype_filter
        }
        log = EventLog(tuple(e for e in log if e.case_id in keep))
    extraction = extract_instances(net, log, place)
    kinds = tuple(kinds)
    # one holdout and one encoding for all kinds; bench/tracing.py wraps
    # train_classifier to time each kind
    holdout = Holdout(extraction.instances, split, seed) if kinds else None
    reports = tuple(train_classifier(holdout, kind) for kind in kinds)
    return DecisionMiningReport(
        place=place,
        phenotype_filter=phenotype_filter,
        n_instances=len(extraction.instances),
        skipped_cases=extraction.skipped_cases,
        distribution=distribution(extraction.instances),
        classifiers=reports,
    )
