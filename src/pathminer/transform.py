"""Event-log construction from patient sequences.

Each patient sequence is split at the first row carrying a cardiovascular
outcome. Rows before the split become "Visit before CO" events; rows from
the split onward become events named after their outcome, or "Visit after
CO" when they carry none. Every clinical attribute is copied onto the event
so downstream statistics and decision mining never need to re-join the
source table.
"""

from typing import NamedTuple

from .errors import InputError
from .model import (
    CLINICAL_FIELDS,
    VISIT_AFTER,
    VISIT_BEFORE,
    AttrValue,
    Event,
    EventLog,
    PatientDatum,
    PatientSequence,
    build_sequences,
)


class SplitSequence(NamedTuple):
    """A patient sequence cut at the first outcome-bearing row."""

    pat_id: str
    pre: tuple[PatientDatum, ...]
    post: tuple[PatientDatum, ...]


def split_sequence(seq: PatientSequence) -> SplitSequence:
    """Cut ``seq`` before its first row with a non-missing outcome.

    The outcome row itself starts the post part; patients without any
    outcome get an empty post part.
    """
    for i, datum in enumerate(seq.data):
        if datum.outcome is not None:
            return SplitSequence(seq.pat_id, seq.data[:i], seq.data[i:])
    return SplitSequence(seq.pat_id, seq.data, ())


def _event_attributes(datum: PatientDatum) -> dict[str, AttrValue]:
    attrs: dict[str, AttrValue] = {}
    for name in CLINICAL_FIELDS:
        value = getattr(datum, name)
        if value is None:
            continue
        attrs[name] = value.value if name == "outcome" else value
    for key, value in datum.extra.items():
        attrs[key] = value
    return attrs


def trans_pre(datum: PatientDatum) -> Event:
    """Map a pre-outcome row to a "Visit before CO" event."""
    if datum.outcome is not None:
        raise InputError(
            f"patient {datum.pat_id}: pre-outcome row carries outcome "
            f"{datum.outcome.value}"
        )
    return Event(
        case_id=datum.pat_id,
        activity=VISIT_BEFORE,
        timestamp=datum.timestamp,
        attributes=_event_attributes(datum),
    )


def trans_post(datum: PatientDatum) -> Event:
    """Map a post-outcome row to an outcome event or a "Visit after CO"."""
    activity = datum.outcome.value if datum.outcome is not None else VISIT_AFTER
    return Event(
        case_id=datum.pat_id,
        activity=activity,
        timestamp=datum.timestamp,
        attributes=_event_attributes(datum),
    )


def transform_log(data) -> EventLog:
    """Turn a collection of patient rows into an event log.

    The mapping is a bijection: one event per row, no events invented or
    dropped. Output order is by patient id, then sequence order, so repeated
    runs on the same input are identical.
    """
    events: list[Event] = []
    for pat_id, seq in build_sequences(data).items():
        split = split_sequence(seq)
        events.extend(trans_pre(d) for d in split.pre)
        events.extend(trans_post(d) for d in split.post)
    return EventLog(tuple(events))
