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

Place weights are normalized; they only need to be non-negative with a
positive sum. Omitted places and attributes keep their defaults.
"""

import json
import math
import random
from datetime import date, timedelta
from typing import NamedTuple, get_type_hints

from .errors import ConfigError
from .model import Outcome, PatientDatum, classify_phenotype
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

    def sample(self, rng: random.Random):
        if self.missing_rate and rng.random() < self.missing_rate:
            return None
        if self.kind == "uniform":
            return round(rng.uniform(self.low, self.high), self.decimals)
        if self.kind == "uniform_int":
            return rng.randint(int(self.low), int(self.high))
        if self.kind == "bernoulli":
            return rng.random() < self.p
        if self.kind == "constant":
            return self.value
        if self.kind == "absent":
            return None
        raise ConfigError(f"unknown sampler kind {self.kind!r}")


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

# The type a sampled attribute holds in a PatientDatum: int for ``int | None``.
_FIELD_TYPES = {name: hint.__args__[0] for name, hint in get_type_hints(PatientDatum).items()
                if name in _SAMPLED_FIELDS}


# The sampler kinds whose draws have a field's type, so that the CSV written
# parses back: an int is also a float field's number.
_DRAWS = {bool: ("bernoulli",), int: ("uniform_int",), float: ("uniform", "uniform_int")}


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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
    if not _is_integer(sampler.decimals):
        bad(f"decimals must be an integer, got {sampler.decimals!r}")
    kind = _FIELD_TYPES[name]
    if sampler.kind not in _DRAWS[kind] + ("constant", "absent"):
        bad(f"sampler kind {sampler.kind!r} does not draw values of type {kind.__name__}")
    if sampler.kind == "constant" and sampler.value is not None:
        fits = (
            isinstance(sampler.value, bool) if kind is bool
            else _is_integer(sampler.value) if kind is int
            else _is_number(sampler.value)
        )
        if not fits:
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


def _later(day: date, days: int, pat_id: str) -> date:
    try:
        return day + timedelta(days=days)
    except OverflowError:
        raise ConfigError(f"patient {pat_id}: a timestamp falls after {date.max}") from None


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
        return self._replace(place_probs=probs, attributes=samplers)


def load_config(data: bytes | str, **overrides) -> SimulationConfig:
    """Build a config from JSON, with keyword arguments taking precedence."""
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config JSON must be an object")

    kwargs = {}
    try:
        for key in ("patients", "seed", "start_window_days"):
            if key in doc:
                kwargs[key] = doc[key]
        if "start_date" in doc:
            kwargs["start_date"] = date.fromisoformat(doc["start_date"])
        if "gap_days" in doc:
            gap = doc["gap_days"]
            if not (isinstance(gap, list) and len(gap) == 2):
                raise ConfigError("gap_days must be a [min, max] pair")
            kwargs["gap_days"] = tuple(gap)
        if "places" in doc:
            kwargs["place_probs"] = {
                place: {str(k): float(v) for k, v in weights.items()}
                for place, weights in doc["places"].items()
            }
        if "attributes" in doc:
            samplers = {}
            for name, spec in doc["attributes"].items():
                if not isinstance(spec, dict) or "kind" not in spec:
                    raise ConfigError(f"attribute {name!r}: sampler needs a kind")
                samplers[name] = AttributeSampler(**spec)
            kwargs["attributes"] = samplers
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"bad config value: {exc}") from None
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


def _sample_patient_attrs(rng: random.Random, config: SimulationConfig) -> dict:
    attrs = {
        name: config.attributes[name].sample(rng) for name in _SAMPLED_FIELDS
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


def _choose(rng: random.Random, probs: dict[str, float]) -> str:
    draw = rng.random()
    cumulative = 0.0
    last = None
    for label, p in probs.items():
        cumulative += p
        last = label
        if draw < cumulative:
            return label
    return last  # guard against float round-off at the top end


def simulate_detailed(config: SimulationConfig):
    """Run the walk and also report per-place decision counts.

    Returns ``(rows, decisions)`` where ``decisions`` maps each decision
    place to a label -> count dict of the choices actually drawn.
    """
    decisions: dict[str, dict[str, int]] = {
        place: {label: 0 for label in sorted(_PLACE_CHOICES[place])}
        for place in _PLACE_CHOICES
    }

    rows: list[PatientDatum] = []
    row_index = 0
    gap_lo, gap_hi = config.gap_days
    for index in range(config.patients):
        rng = random.Random(f"{config.seed}:{index}")
        attrs = _sample_patient_attrs(rng, config)
        pat_id = f"{index + 1:04d}"
        current = _later(config.start_date, rng.randrange(max(1, config.start_window_days)), pat_id)
        place = P_START
        first_row = True
        while place != P_END:
            label = _choose(rng, config.place_probs[place])
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


def simulate(config: SimulationConfig) -> list[PatientDatum]:
    """Generate a synthetic cohort; same seed, same rows, bit for bit."""
    rows, _ = simulate_detailed(config)
    return rows
