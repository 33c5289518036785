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


def _encoded(instances, train, test) -> list[Column] | str:
    """The rows encoded over the training rows' feature space or, for the first test row
    with a non-number where it is numeric, else the first row with a number past 1e100 in
    size, the message that names its case."""
    rows = [inst.features for inst in instances]
    space = _feature_space([rows[i] for i in train])
    numeric = [name for name, kind in space.items() if kind == "numeric"]
    for i in test:
        for name in numeric:
            value = rows[i].get(name)
            if value is not None and not isinstance(value, (int, float)):
                return (f"case {instances[i].case_id!r}: attribute {name!r} holds "
                        f"{value!r} where the training rows hold numbers")
    for i, row in enumerate(rows):  # the classifiers sum squared differences, which must stay finite
        for name in numeric:
            if not -1e100 <= (row.get(name) or 0) <= 1e100:
                return (f"case {instances[i].case_id!r}: attribute {name!r} holds {row[name]!r}, "
                        "beyond the classifiers' range of ±1e100")
    return encode(rows, space, train)


class Holdout:
    """The stratified holdout of one instance set, drawn once for every
    classifier trained on it: the labels, the train and test positions and,
    when ``encoded`` and more than one label occurs, the rows encoded once,
    here. It keeps no instance and no feature dict, and so no event alive;
    of a refused row it keeps only the message, which names the row's case."""

    def __init__(self, instances, split: float = 0.2, seed: int = 0, encoded: bool = True):
        if len(instances) < 2:
            raise InputError("at least two decision instances are required")
        if not 0.0 < split < 1.0:
            raise InputError(f"split must lie in (0, 1), got {split}")
        self.labels = [inst.chosen for inst in instances]
        self.classes = sorted(set(self.labels))
        if len(self.classes) > 1:
            self.train, self.test = _stratified_split(self.labels, split, seed)
            if encoded:
                self._columns = _encoded(instances, self.train, self.test)

    @property
    def columns(self) -> list[Column]:
        """The encoded rows; a refused row is an InputError when a classifier first reads them."""
        if self._columns.__class__ is str:
            raise InputError(self._columns)
        return self._columns


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


class PreparedPlace(NamedTuple):
    """A decision place's report before training, and the kinds to train on its one holdout."""

    report: DecisionMiningReport  # with no classifiers
    kinds: tuple[str, ...]
    holdout: Holdout | None  # None when no kind is asked for


def prepare_place(net: PetriNet, log: EventLog, place: str, kinds, *, phenotype_filter: str | None = None,
                  split: float = 0.2, seed: int = 0) -> PreparedPlace:
    """The instances at one decision place, optionally restricted to cases of one phenotype,
    as their count, skipped cases, distribution and holdout, which encodes the features
    only for a kind other than the majority baseline. The result holds no event and no
    feature dict: once this returns, the caller's reference is the last one to ``log``."""
    if phenotype_filter is not None:
        keep = {case for case, trace in log.traces().items() if case_phenotype(trace) == phenotype_filter}
        log = EventLog(tuple(e for e in log if e.case_id in keep))
    extraction = extract_instances(net, log, place)
    instances, kinds = extraction.instances, tuple(kinds)
    holdout = Holdout(instances, split, seed, any(k != "majority" for k in kinds)) if kinds else None
    report = DecisionMiningReport(place, phenotype_filter, len(instances), extraction.skipped_cases,
                                  distribution(instances), ())
    return PreparedPlace(report, kinds, holdout)


def train_place(prepared: PreparedPlace) -> DecisionMiningReport:
    """The place's report, with each kind trained on its one holdout."""
    # bench/tracing.py wraps train_classifier to time each kind
    reports = tuple(train_classifier(prepared.holdout, kind) for kind in prepared.kinds)
    return prepared.report._replace(classifiers=reports)


def mine_place(net: PetriNet, log: EventLog, place: str, kinds, **options) -> DecisionMiningReport:
    """:func:`prepare_place`, then :func:`train_place`. The caller holds ``log`` until this returns,
    so through training; ``decide`` makes the two calls itself and lets go of it in between."""
    return train_place(prepare_place(net, log, place, kinds, **options))
