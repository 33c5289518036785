"""Stochastic cohort generation on the treatment-path reference model.

Each simulated patient performs a random walk over the reference net,
sampling the outgoing transition at every decision place from a configured
probability map keyed by transition label, with ``"None"`` standing for the
silent alternative. Every visible firing emits one patient-data row: visit
labels leave the outcome empty, outcome labels fill it, and the walk stops
at the final place, so deaths are always last. Timestamps strictly increase
per patient by sampled day gaps.

Clinical attributes are sampled once per patient (records repeat them row
by row, like the source registry) from per-attribute samplers with an
optional missing-rate. These defaults are plumbing: they produce plausible
but synthetic values.

A seed's rows are fixed by the order of the draws. Patient ``i`` (from 0)
draws from a generator seeded with ``f"{seed}:{i}"``: for each attribute in
``DEFAULT_ATTRIBUTE_SAMPLERS`` order the missing-rate draw, when the rate is
not zero, then the value; the start offset; then per step the place draw
and, from the second visible firing on, the day gap.

Configuration is also accepted as JSON::

    {
      "patients": 240,
      "seed": 7,
      "start_date": "2019-04-01",
      "start_window_days": 365,
      "gap_days": [7, 120],
      "places": {"p1": {"None": 91.86, "HF": 5.78, ...}, ...},
      "attributes": {"lvef": {"kind": "uniform_int", "low": 10, "high": 70}, ...}
    }

Place weights are normalized; they must be non-negative numbers with a
positive sum. Omitted places and attributes keep their defaults; any other
key is an error.
"""

import json
import math
import random
import sys
from bisect import bisect
from datetime import date, timedelta
from itertools import accumulate
from typing import NamedTuple

from .errors import ConfigError
from .model import FIELD_CLASSES, Outcome, PatientDatum, Phenotype, classify_phenotype, parse_date
from .patient_csv import _writes
from .petri import (P1, P2, P3, P4, P_END, P_START, SILENT_CHOICE, CompiledNet, build_dejure,
                    decision_points, reachable)

_OUTCOME_BY_LABEL = {o.value: o for o in Outcome}

_DEJURE = CompiledNet(build_dejure())

# The place each choice label leads to, at each decision place of the reference net.
_PLACE_CHOICES: dict[str, dict[str, str]] = {
    point.place: {t.label or SILENT_CHOICE: _DEJURE.places[_DEJURE.post[_DEJURE.index[t.id]][0]]
                  for t in point.transitions}
    for point in decision_points(_DEJURE)
}

# Default decision probabilities. The observed next-activity shares at the
# two clinically interesting places drive p1 and p4; the remaining places
# have no published distribution, so the start place mirrors p1's dominant
# share for the visit-versus-skip choice and the follow-up places use even
# odds.
DEFAULT_PLACE_WEIGHTS: dict[str, dict[str, float]] = {
    P_START: {"Visit before CO": 91.86, SILENT_CHOICE: 8.14},
    P1: {
        SILENT_CHOICE: 91.86,
        "HF": 5.78,
        "CV": 1.90,
        "Stroke": 0.30,
        "MI": 0.15,
    },
    P2: {"Visit after CO": 50.0, SILENT_CHOICE: 50.0},
    P3: {"Visit after CO": 50.0, SILENT_CHOICE: 50.0},
    P4: {SILENT_CHOICE: 98.29, "Death_AnyCause": 1.39, "Death_HF": 0.33},
}


class AttributeSampler(NamedTuple):
    """Distribution spec for one clinical attribute.

    kinds: uniform (real in [low, high], rounded to ``decimals``),
    uniform_int, bernoulli (``p``), constant (``value``), absent.
    A draw is replaced by None with probability ``missing_rate``.
    """

    kind: str
    low: float = 0.0
    high: float = 1.0
    decimals: int = 1
    p: float = 0.5
    value: object = None
    missing_rate: float = 0.0


DEFAULT_ATTRIBUTE_SAMPLERS: dict[str, AttributeSampler] = {
    "lvef": AttributeSampler("uniform_int", low=10, high=70),
    "weight": AttributeSampler("uniform", low=50, high=120, missing_rate=0.05),
    "hf_diagnosis_year": AttributeSampler("uniform_int", low=2005, high=2022, missing_rate=0.05),
    "nt_pro_bnp": AttributeSampler("uniform", low=50, high=5000, missing_rate=0.05),
    "diabetes": AttributeSampler("bernoulli", p=0.4),
    "ckd": AttributeSampler("bernoulli", p=0.3),
    "wbc": AttributeSampler("uniform", low=4, high=15, missing_rate=0.1),
    "hstnt": AttributeSampler("uniform", low=5, high=100, missing_rate=0.1),
    "il6": AttributeSampler("uniform", low=1, high=50, missing_rate=0.1),
    "urea": AttributeSampler("uniform", low=15, high=60, missing_rate=0.1),
    "beta_blocker": AttributeSampler("uniform", low=2.5, high=200, missing_rate=0.2),
    "acei_arni": AttributeSampler("uniform", low=2.5, high=100, missing_rate=0.2),
    "sglt2": AttributeSampler("uniform", low=5, high=25, missing_rate=0.2),
    "mra": AttributeSampler("uniform", low=12.5, high=50, missing_rate=0.2),
}

_SAMPLED_FIELDS = tuple(DEFAULT_ATTRIBUTE_SAMPLERS)


# The sampler kinds whose draws have a field's type, so that the CSV written
# parses back: an int is also a float field's number.
_DRAWS = {bool: ("bernoulli",), int: ("uniform_int",), float: ("uniform", "uniform_int")}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite float, or an int that a float can stand for: not a bool, not a string."""
    return (isinstance(value, float) and math.isfinite(value)
            or _is_integer(value) and abs(value) <= sys.float_info.max)


def _check_sampler(name: str, sampler: AttributeSampler) -> None:
    """Reject a sampler whose draws would fail or not fit the attribute."""

    def bad(message: str):
        raise ConfigError(f"attribute {name!r}: {message}")

    if sampler.kind not in ("uniform", "uniform_int", "bernoulli", "constant", "absent"):
        bad(f"unknown sampler kind {sampler.kind!r}")
    for key in ("low", "high", "p", "missing_rate"):
        value = getattr(sampler, key)
        if not _is_number(value):
            bad(f"{key} must be a finite number, got {value!r}")
        if key in ("p", "missing_rate") and not 0 <= value <= 1:
            bad(f"{key} must lie in [0, 1], got {value!r}")
    if sampler.low > sampler.high:
        bad(f"low {sampler.low} exceeds high {sampler.high}")
    if not sampler.high - sampler.low <= sys.float_info.max:  # a uniform draw scales high - low
        bad("high - low must be a finite float")
    if not _is_integer(sampler.decimals):
        bad(f"decimals must be an integer, got {sampler.decimals!r}")
    kind = FIELD_CLASSES[name]
    if sampler.kind not in _DRAWS[kind] + ("constant", "absent"):
        bad(f"sampler kind {sampler.kind!r} does not draw values of type {kind.__name__}")
    if sampler.kind == "constant" and not _writes(name, (sampler.value,)):  # as the CSV takes it
        bad(f"constant value {sampler.value!r} is not of type {kind.__name__}")
    if name == "lvef":  # a PatientDatum holds an LVEF in [0, 100]
        ends = {"uniform_int": (int(sampler.low), int(sampler.high)), "constant": (sampler.value,)}
        if any(end is not None and not 0 <= end <= 100 for end in ends.get(sampler.kind, ())):
            bad("draws LVEF values outside [0, 100]")


def _normalize_weights(place: str, weights: dict[str, float]) -> dict[str, float]:
    choices = _PLACE_CHOICES[place]
    unknown = set(weights) - set(choices)
    if unknown:
        raise ConfigError(f"place {place}: unknown choice labels {sorted(unknown)}")
    for label, weight in weights.items():
        if not _is_number(weight):
            raise ConfigError(f"place {place}: weight of {label!r} is not a finite number: {weight!r}")
    weights = {label: float(weight) for label, weight in weights.items()}
    if any(w < 0 for w in weights.values()):
        raise ConfigError(f"place {place}: negative weight")
    total = sum(weights.values())
    if total <= 0:
        raise ConfigError(f"place {place}: weights sum to zero")
    return {label: weights[label] / total for label in sorted(weights)}


def _check_walk_ends(probs: dict[str, dict[str, float]]) -> None:
    """Reject weights under which a walk reaches a place from which no
    positive-weight choices lead to the final place: that walk never ends."""
    steps = {place: {_PLACE_CHOICES[place][label] for label, p in weights.items() if p > 0}
             for place, weights in probs.items()}
    before: dict[str, set[str]] = {}
    for place, nexts in steps.items():
        for following in nexts:
            before.setdefault(following, set()).add(place)
    if stuck := sorted(reachable([P_START], steps) - reachable([P_END], before)):
        raise ConfigError(f"the place weights give a walk through {', '.join(stuck)} no way "
                          f"to reach {P_END}, so it never ends")


class _ConfigFields(NamedTuple):
    patients: int = 240
    seed: int = 7
    start_date: date = date(2019, 4, 1)
    start_window_days: int = 365
    gap_days: tuple[int, int] = (7, 120)
    # None: the defaults. A config holds fresh dicts of every place's weights and every sampler.
    place_probs: dict[str, dict[str, float]] | None = None
    attributes: dict[str, AttributeSampler] | None = None


class SimulationConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        lo, hi = self.gap_days
        for key, value in (
            ("patients", self.patients),
            ("seed", self.seed),
            ("start_window_days", self.start_window_days),
            ("gap_days", lo),
            ("gap_days", hi),
        ):
            if not _is_integer(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.patients < 0:
            raise ConfigError("patients must be non-negative")
        if self.start_window_days < 0:
            raise ConfigError("start_window_days must be non-negative")
        if not 1 <= lo <= hi:
            raise ConfigError("gap_days must satisfy 1 <= min <= max")
        probs = {
            place: _normalize_weights(place, dict(DEFAULT_PLACE_WEIGHTS[place]))
            for place in _PLACE_CHOICES
        }
        for place, weights in (self.place_probs or {}).items():
            if place not in _PLACE_CHOICES:
                raise ConfigError(f"unknown decision place {place!r}")
            probs[place] = _normalize_weights(place, dict(weights))
        _check_walk_ends(probs)
        samplers = dict(DEFAULT_ATTRIBUTE_SAMPLERS)
        for name, sampler in (self.attributes or {}).items():
            if name not in samplers:
                raise ConfigError(f"unknown attribute {name!r}")
            _check_sampler(name, sampler)
            samplers[name] = sampler
        return tuple.__new__(cls, (*self[:5], probs, samplers))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks its fields


def load_config(data: bytes | str, **overrides) -> SimulationConfig:
    """Build a config from JSON, with keyword arguments taking precedence."""
    try:
        doc = json.loads(data)
    except ValueError as exc:  # also bytes that are not UTF-8, and an int past str's digit limit
        raise ConfigError(f"malformed config JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")
    if unknown := sorted(set(doc) - {"patients", "seed", "start_date", "start_window_days",
                                     "gap_days", "places", "attributes"}):
        raise ConfigError(f"unknown config keys {unknown}")

    kwargs = {}
    try:
        for key in ("patients", "seed", "start_window_days"):
            if key in doc:
                kwargs[key] = doc[key]
        if "start_date" in doc:
            kwargs["start_date"] = parse_date(doc["start_date"])
        if "gap_days" in doc:
            gap = doc["gap_days"]
            if not (isinstance(gap, list) and len(gap) == 2):
                raise ConfigError("gap_days must be a [min, max] pair")
            kwargs["gap_days"] = tuple(gap)
        if "places" in doc:
            kwargs["place_probs"] = {place: dict(weights.items())
                                     for place, weights in doc["places"].items()}
        if "attributes" in doc:
            samplers = {}
            for name, spec in doc["attributes"].items():
                if not isinstance(spec, dict) or "kind" not in spec:
                    raise ConfigError(f"attribute {name!r}: sampler needs a kind")
                samplers[name] = AttributeSampler(**spec)
            kwargs["attributes"] = samplers
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


def _draw(sampler: AttributeSampler, random_, randrange):
    """The sampler's draw, its bounds worked out once: the missing-rate draw when the
    rate is not zero, then the value. The random docs define ``uniform(a, b)`` as
    ``a + (b-a) * random()`` and ``randint(a, b)`` as ``randrange(a, b+1)``."""
    kind, low, high, decimals, p, value, rate = sampler
    if kind == "uniform":
        width = high - low
        return lambda: None if rate and random_() < rate else round(low + width * random_(), decimals)
    if kind == "uniform_int":
        low, stop = int(low), int(high) + 1
        return lambda: None if rate and random_() < rate else randrange(low, stop)
    if kind == "bernoulli":
        return lambda: None if rate and random_() < rate else random_() < p
    value = value if kind == "constant" else None  # absent: SimulationConfig refuses other kinds
    return lambda: None if rate and random_() < rate else value


def _flags(lvef) -> tuple:
    """The phenotype flags (hfref, hfmref, hfpef) of an LVEF."""
    return (None,) * 3 if lvef is None else tuple(classify_phenotype(lvef) is p for p in Phenotype)


_FLAGS = {lvef: _flags(lvef) for lvef in (None, *range(101))}  # each LVEF a config can draw


def simulate_detailed(config: SimulationConfig):
    """Run the walk and also report per-place decision counts.

    Returns ``(rows, decisions)`` where ``decisions`` maps each decision
    place to a label -> count dict of the choices actually drawn.
    """
    rng = random.Random()
    random_, randrange = rng.random, rng.randrange
    plan = [_draw(config.attributes[name], random_, randrange) for name in _SAMPLED_FIELDS]
    # Per place: the running sums of the weights over the sorted labels, a draw taking the
    # first label whose sum exceeds it; each label's (label, next place, outcome), the last
    # one also for a draw at or past the last sum, as float round-off allows; and how often
    # each was drawn.
    walks = {}
    for place, probs in config.place_probs.items():
        steps = [(label, _PLACE_CHOICES[place][label], _OUTCOME_BY_LABEL.get(label))
                 for label in probs]
        walks[place] = list(accumulate(probs.values())), steps + steps[-1:], [0] * (len(steps) + 1)
    rows: list[PatientDatum] = []
    window, (gap_lo, gap_hi) = max(1, config.start_window_days), config.gap_days
    # The values in PatientDatum's order: LVEF, its flags, up to the outcome, and after it.
    draw_lvef, before_outcome, after_outcome = plan[0], plan[1:6], plan[6:]
    for index in range(config.patients):
        rng.seed(f"{config.seed}:{index}")  # the state of a new Random(f"{seed}:{index}")
        lvef = draw_lvef()
        before = (lvef, *(_FLAGS.get(lvef) or _flags(lvef)), *[draw() for draw in before_outcome])
        after = [draw() for draw in after_outcome]
        pat_id = f"{index + 1:04d}"
        try:  # date arithmetic past date.max
            current = config.start_date + timedelta(days=randrange(window))
            place, first_row = P_START, True
            while place != P_END:
                sums, steps, tally = walks[place]
                choice = bisect(sums, random_())
                tally[choice] += 1
                label, place, outcome = steps[choice]
                if label != SILENT_CHOICE:
                    if not first_row:
                        current += timedelta(days=randrange(gap_lo, gap_hi + 1))
                    first_row = False
                    rows.append(PatientDatum(pat_id, current, len(rows) + 1,
                                             *before, outcome, *after, {}))
        except OverflowError:
            raise ConfigError(f"patient {pat_id}: a timestamp falls after {date.max}") from None
    decisions = {place: dict.fromkeys(sorted(_PLACE_CHOICES[place]), 0) for place in _PLACE_CHOICES}
    for place, (_, steps, tally) in walks.items():
        for (label, _, _), times in zip(steps, tally):
            decisions[place][label] += times
    return rows, decisions


def simulate(config: SimulationConfig) -> list[PatientDatum]:
    """Generate a synthetic cohort; same seed, same rows, bit for bit."""
    rows, _ = simulate_detailed(config)
    return rows
