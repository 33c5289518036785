"""Domain model shared by every analysis stage.

Patient records are sparse: any clinical attribute may be absent. Absence is
encoded as ``None`` and is deliberately distinct from 0, ``False``, and the
empty string; no stage of the pipeline may impute over it silently.
"""

import enum
import re
from datetime import date
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

from .errors import InputError

# One clinical attribute value: a number, flag, text, calendar date, or
# None when the source recorded nothing.
AttrValue = int | float | bool | str | date | None

ISO_DATE = r"\d{4}-\d\d-\d\d"  # every reader's one date form; 3.11's fromisoformat takes more
VISIT_BEFORE = "Visit before CO"
VISIT_AFTER = "Visit after CO"


class Outcome(enum.Enum):
    """Adverse cardiovascular endpoints that may appear in a record."""

    HF = "HF"
    MI = "MI"
    STROKE = "Stroke"
    CV = "CV"
    DEATH_ANY_CAUSE = "Death_AnyCause"
    DEATH_HF = "Death_HF"


class Phenotype(enum.Enum):
    """Heart-failure phenotype by left ventricular ejection fraction."""

    HFREF = "HFrEF"
    HFMREF = "HFmrEF"
    HFPEF = "HFpEF"


def parse_date(text: str) -> date:
    """The date of a ``YYYY-MM-DD`` text; a ValueError for any other form."""
    if isinstance(text, str) and not re.fullmatch(ISO_DATE, text, re.ASCII):
        raise ValueError(f"Invalid isoformat string: {text!r}")  # as Python 3.10 words it
    return date.fromisoformat(text)


def classify_phenotype(lvef: int) -> Phenotype:
    """Map an LVEF percentage to its phenotype class.

    The boundary value 40 belongs to HFrEF; 41-49 is HFmrEF; 50 and above
    is HFpEF. Values outside [0, 100] are rejected.
    """
    if not 0 <= lvef <= 100:
        raise InputError(f"LVEF must lie in [0, 100], got {lvef}")
    if lvef <= 40:
        return Phenotype.HFREF
    if lvef <= 49:
        return Phenotype.HFMREF
    return Phenotype.HFPEF


# A NamedTuple body cannot define __new__: a record that checks its fields subclasses them.
class _PatientFields(NamedTuple):
    pat_id: str
    timestamp: date
    row_index: int
    lvef: int | None = None
    hfref: bool | None = None
    hfmref: bool | None = None
    hfpef: bool | None = None
    weight: float | None = None
    hf_diagnosis_year: int | None = None
    nt_pro_bnp: float | None = None
    diabetes: bool | None = None
    ckd: bool | None = None
    outcome: Outcome | None = None
    wbc: float | None = None
    hstnt: float | None = None
    il6: float | None = None
    urea: float | None = None
    beta_blocker: float | None = None
    acei_arni: float | None = None
    sglt2: float | None = None
    mra: float | None = None
    extra: dict[str, str] | None = None  # None: a fresh empty dict


class PatientDatum(_PatientFields):
    """One row of patient data: biomarkers, medication doses, comorbidity
    flags, an optional outcome, and the date of the record."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks its fields

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):  # bind keywords and defaults
            if len(args) < len(cls._fields) and kwargs.get("extra") is None:
                kwargs["extra"] = {}
            args = _PatientFields(*args, **kwargs)
        self = tuple.__new__(cls, args)
        if self.lvef is not None and not 0 <= self.lvef <= 100:
            raise InputError(f"LVEF must lie in [0, 100], got {self.lvef}")
        if sum(map(bool, (self.hfref, self.hfmref, self.hfpef))) > 1:
            raise InputError(f"patient {self.pat_id}: more than one phenotype flag set")
        return self


# Clinical fields copied onto events by the transform stage, in the order of the source
# table: every PatientDatum field but the row's identity (the first three) and extras (the last).
CLINICAL_FIELDS: tuple[str, ...] = tuple(
    name for name in PatientDatum._fields
    if name not in ("pat_id", "timestamp", "row_index", "extra")
)


class _EventFields(NamedTuple):
    case_id: str
    activity: str
    timestamp: date
    attributes: dict[str, AttrValue]


class Event(_EventFields):
    """A case/activity/timestamp triple with an attribute payload."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks its fields

    def __new__(cls, case_id: str, activity: str, timestamp: date,
                attributes: dict[str, AttrValue] | None = None):
        if not activity:
            raise InputError("event activity must be non-empty")
        return tuple.__new__(cls, (case_id, activity, timestamp, {} if attributes is None else attributes))


def case_phenotype(trace: tuple[Event, ...]) -> str | None:
    """Initial phenotype of a case: the first event's phenotype flags, or
    its LVEF when no flag is set. None when undeterminable."""
    attrs = trace[0].attributes
    for key, phenotype in (("hfref", Phenotype.HFREF),
                           ("hfmref", Phenotype.HFMREF),
                           ("hfpef", Phenotype.HFPEF)):
        if attrs.get(key) is True:
            return phenotype.value
    lvef = attrs.get("lvef")
    if isinstance(lvef, int) and not isinstance(lvef, bool) and 0 <= lvef <= 100:
        return classify_phenotype(lvef).value
    return None


class EventLog:
    """A collection of events with a deterministic trace view.

    Traces group events by case and order them by timestamp; events with
    equal timestamps keep their insertion order, which for transformed
    patient data is source-row order. The grouping is computed once per log.
    """

    def __init__(self, events: tuple[Event, ...] = ()):
        object.__setattr__(self, "events", events)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        return self.events == other.events if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash((self.events,))

    def __repr__(self) -> str:
        return f"EventLog(events={self.events!r})"

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def case_ids(self) -> tuple[str, ...]:
        return tuple(sorted({e.case_id for e in self.events}))

    def activities(self) -> set[str]:
        return {e.activity for e in self.events}

    @cached_property
    def _traces(self) -> tuple[tuple[str, tuple[Event, ...]], ...]:
        grouped: dict[str, list[Event]] = {}
        for event in self.events:
            grouped.setdefault(event.case_id, []).append(event)
        return tuple(
            (case, tuple(sorted(grouped[case], key=attrgetter("timestamp"))))
            for case in sorted(grouped)
        )

    def traces(self) -> dict[str, tuple[Event, ...]]:
        """Case id -> its events, in case id order; a fresh dict per call."""
        return dict(self._traces)

    def activity_sequences(self) -> dict[str, tuple[str, ...]]:
        return {
            case: tuple(e.activity for e in trace)
            for case, trace in self.traces().items()
        }


class PatientSequence(NamedTuple):
    """All rows of one patient, sorted by (timestamp, source row)."""

    pat_id: str
    data: tuple[PatientDatum, ...]

    def __len__(self) -> int:
        return len(self.data)


def build_sequences(data) -> dict[str, PatientSequence]:
    """Partition patient rows into per-patient sequences.

    Rows are ordered by timestamp; the source row index breaks ties, so the
    result is total and deterministic even for same-day records.
    """
    grouped: dict[str, list[PatientDatum]] = {}
    for datum in data:
        grouped.setdefault(datum.pat_id, []).append(datum)
    by_day = attrgetter("timestamp", "row_index")
    return {pat_id: PatientSequence(pat_id, tuple(sorted(rows, key=by_day)))
            for pat_id, rows in sorted(grouped.items())}
