import json
from datetime import date

import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_check_walk_ends
from pathminer.conformance import conformance_report
from pathminer.errors import ConfigError, PathminerError
from pathminer.model import Outcome
from pathminer.patient_csv import parse_patient_csv, write_patient_csv
from pathminer.simulate import (
    DEFAULT_ATTRIBUTE_SAMPLERS,
    DEFAULT_PLACE_WEIGHTS,
    AttributeSampler,
    SimulationConfig,
    _check_walk_ends,
    _PLACE_CHOICES,
    load_config,
    simulate,
    simulate_detailed,
)
from pathminer.transform import transform_log


class TestConfig:
    def test_weights_are_normalized(self):
        config = SimulationConfig()
        for place, probs in config.place_probs.items():
            assert sum(probs.values()) == pytest.approx(1.0, abs=1e-9)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(place_probs={"p1": {"HF": -1.0, "None": 2.0}})

    def test_zero_sum_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(place_probs={"p2": {"Visit after CO": 0.0, "None": 0.0}})

    def test_unknown_label_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(place_probs={"p1": {"Teleport": 1.0}})

    def test_unknown_place_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig(place_probs={"p9": {"None": 1.0}})

    def test_json_round_trip_with_overrides(self):
        doc = {
            "patients": 10,
            "seed": 3,
            "gap_days": [5, 9],
            "places": {"p0": {"Visit before CO": 1.0}},
            "attributes": {"lvef": {"kind": "uniform_int", "low": 20, "high": 30}},
        }
        config = load_config(json.dumps(doc), seed=99)
        assert config.patients == 10
        assert config.seed == 99
        assert config.gap_days == (5, 9)
        assert config.place_probs["p0"] == {"Visit before CO": 1.0}

    # The deviant-paths weights of the benchmark: JSON integers.
    DEVIANT_PLACES = {
        "p0": {"Visit before CO": 100},
        "p1": {"Visit before CO": 30, "None": 40, "HF": 12, "CV": 9, "Stroke": 5, "MI": 4},
        "p2": {"Visit after CO": 60, "None": 40},
        "p3": {"Visit after CO": 40, "None": 60},
        "p4": {"None": 70, "Death_AnyCause": 20, "Death_HF": 10},
    }

    def test_integer_weights_give_the_probabilities_of_their_floats(self):
        # each weight is divided as a float by the float sum, in the config's order
        config = load_config(json.dumps({"places": self.DEVIANT_PLACES}))
        for place, weights in self.DEVIANT_PLACES.items():
            total = sum(float(w) for w in weights.values())
            assert config.place_probs[place] == {label: float(weights[label]) / total
                                                 for label in sorted(weights)}
        floats = {place: {label: float(w) for label, w in weights.items()}
                  for place, weights in self.DEVIANT_PLACES.items()}
        assert load_config(json.dumps({"places": floats})) == config
        assert (write_patient_csv(simulate(load_config(json.dumps(
            {"patients": 40, "seed": 5, "places": self.DEVIANT_PLACES}))))
            == write_patient_csv(simulate(load_config(json.dumps(
                {"patients": 40, "seed": 5, "places": floats})))))

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            load_config(b"{nope")

    def test_malformed_places_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(json.dumps({"places": {"p1": ["not", "a", "map"]}}))

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"attributes": {"lvef": {"kind": "uniform_int", "low": 70, "high": 10}}},
             "attribute 'lvef': low 70 exceeds high 10"),
            ({"attributes": {"weight": {"kind": "uniform", "decimals": 1.5}}},
             "attribute 'weight': decimals must be an integer, got 1.5"),
            ({"attributes": {"diabetes": {"kind": "bernoulli", "p": "0.4"}}},
             "attribute 'diabetes': p must be a finite number, got '0.4'"),
            ({"attributes": {"lvef": {"kind": "constant", "value": "abc"}}},
             "attribute 'lvef': constant value 'abc' is not of type int"),
            ({"patients": 2.7}, "patients must be an integer, got 2.7"),
            ({"start_window_days": -5}, "start_window_days must be non-negative"),
            ({"attributes": {"wbc": {"kind": "uniform", "missing_rate": 7}}},
             "attribute 'wbc': missing_rate must lie in [0, 1], got 7"),
            ({"patients": 0, "attributes": {"ckd": {"kind": "poisson"}}},
             "attribute 'ckd': unknown sampler kind 'poisson'"),
            ({"places": {"p1": {"HF": 10, "CV": 5}}},
             "the place weights give a walk through p0, p1, p2, p3 no way to reach p_end, "
             "so it never ends"),
            ({"places": {"p3": {"Visit after CO": 1, "None": 0}}},
             "the place weights give a walk through p2, p3 no way to reach p_end, "
             "so it never ends"),
            ([], "config JSON must be an object"),
            ({"attributes": {"smoker": {"kind": "absent"}}}, "unknown attribute 'smoker'"),
            ({"gap_days": [7]}, "gap_days must be a [min, max] pair"),
            ({"attributes": {"lvef": {"low": 10}}}, "attribute 'lvef': sampler needs a kind"),
            # Python 3.11's date.fromisoformat takes both; every reader takes YYYY-MM-DD only
            ({"start_date": "20190401"}, "bad config value: Invalid isoformat string: '20190401'"),
            ({"start_date": "2019-W14-1"},
             "bad config value: Invalid isoformat string: '2019-W14-1'"),
        ],
        ids=[
            "uniform_int-low-above-high", "non-integer-decimals", "string-p",
            "constant-lvef-abc", "fractional-patients", "negative-start-window",
            "missing-rate-7", "unknown-kind-with-no-patients", "p1-never-ends",
            "p3-loops-forever", "non-object", "unknown-attribute", "gap-days-single",
            "sampler-without-kind", "compact-start-date", "week-start-date",
        ],
    )
    def test_bad_value_rejected_when_the_config_is_built(self, doc, message):
        with pytest.raises(ConfigError) as err:
            load_config(json.dumps(doc))
        assert str(err.value) == message


    @pytest.mark.parametrize("fields, message", [
        ({"attributes": {"ckd": AttributeSampler("poisson")}},
         "attribute 'ckd': unknown sampler kind 'poisson'"),
        ({"patients": -3}, "patients must be non-negative"),
    ])
    def test_replace_checks_like_the_constructor(self, fields, message):
        # the sampler's draw has no check of its own kind; every way to a config refuses it
        with pytest.raises(ConfigError) as err:
            SimulationConfig()._replace(**fields)
        assert str(err.value) == message

    def test_replace_normalises_like_the_constructor(self):
        assert SimulationConfig()._replace(seed=3, place_probs={"p1": {"None": 2, "HF": 2}}) == \
            SimulationConfig(seed=3, place_probs={"p1": {"HF": 1, "None": 1}})

    def test_a_place_no_walk_reaches_may_loop_forever(self):
        # every walk ends at p1, so p3's weights never come into play
        config = SimulationConfig(patients=5, place_probs={"p1": {"None": 1},
                                                           "p3": {"Visit after CO": 1}})
        assert {r.pat_id for r in simulate(config)} <= {f"{i:04d}" for i in range(1, 6)}

    @pytest.mark.parametrize("config", [
        SimulationConfig(patients=100, gap_days=(7, 999_999_999)),
        SimulationConfig(patients=20, start_window_days=10**10),
        SimulationConfig(patients=20, start_date=date(9999, 12, 31)),
    ], ids=["gap", "start-window", "start-date"])
    def test_a_timestamp_past_the_last_date_is_a_config_error(self, config):
        with pytest.raises(ConfigError, match=r"^patient \d{4}: a timestamp falls after 9999-12-31$"):
            simulate(config)

    def test_non_utf8_byte_is_a_config_error(self):
        with pytest.raises(ConfigError, match="malformed config JSON: 'utf-8' codec can't decode"):
            load_config(b'{"patients": 3, "seed": "\xff"}')


# One sampler of each kind, with bounds that fit every attribute's range.
_SAMPLERS = {
    "uniform": AttributeSampler("uniform", low=0, high=60),
    "uniform_int": AttributeSampler("uniform_int", low=0, high=60),
    "bernoulli": AttributeSampler("bernoulli", p=0.5),
    "absent": AttributeSampler("absent"),
    "constant-int": AttributeSampler("constant", value=3),
    "constant-float": AttributeSampler("constant", value=2.5),
    "constant-bool": AttributeSampler("constant", value=True),
}


def _round_trips(name, sampler) -> bool:
    """Whether the CSV of a cohort drawn with ``sampler`` parses back to the
    drawn values, of the attribute's type, and transforms."""
    config = SimulationConfig(patients=20, seed=3)
    config.attributes[name] = sampler  # bypasses the check under test
    try:
        rows = simulate(config)
        parsed = parse_patient_csv(write_patient_csv(rows))
        transform_log(parsed)
    except PathminerError:
        return False
    drawn = [(getattr(r, name), getattr(p, name)) for r, p in zip(rows, parsed)]
    return all(a == b and isinstance(a, bool) == isinstance(b, bool) for a, b in drawn)


@pytest.mark.parametrize("kind", sorted(_SAMPLERS))
@pytest.mark.parametrize("name", sorted(DEFAULT_ATTRIBUTE_SAMPLERS))
def test_a_sampler_is_accepted_exactly_when_its_draws_round_trip(name, kind):
    # a refused sampler names the attribute; an accepted one writes a CSV
    # that transform reads back, value for value
    sampler = _SAMPLERS[kind]
    try:
        SimulationConfig(attributes={name: sampler})
        accepted = True
    except ConfigError as err:
        assert str(err).startswith(f"attribute {name!r}: ")
        accepted = False
    assert accepted == _round_trips(name, sampler)


def test_a_uniform_lvef_is_refused_and_names_the_type():
    with pytest.raises(ConfigError, match="^attribute 'lvef': sampler kind 'uniform' does not "
                                          "draw values of type int$"):
        load_config(json.dumps({"patients": 3, "attributes": {
            "lvef": {"kind": "uniform", "low": 10, "high": 70}}}))


@pytest.mark.parametrize("spec", [
    {"kind": "uniform_int", "low": 10, "high": 170},
    {"kind": "constant", "value": -1},
])
def test_lvef_draws_outside_0_to_100_are_refused(spec):
    with pytest.raises(ConfigError, match="^attribute 'lvef': draws LVEF values outside"):
        SimulationConfig(attributes={"lvef": AttributeSampler(**spec)})


# Each decision place with every one of its choices weighted 0, 0.5 or 1.
_place_weights = st.fixed_dictionaries({
    place: st.fixed_dictionaries({label: st.sampled_from([0.0, 0.5, 1.0]) for label in choices})
    for place, choices in _PLACE_CHOICES.items()
})


@settings(max_examples=300, deadline=None)
@given(_place_weights)
def test_walk_end_check_matches_the_fixpoint_reference(probs):
    try:
        reference_check_walk_ends(probs)
    except ConfigError as expected:
        with pytest.raises(ConfigError) as err:
            _check_walk_ends(probs)
        assert str(err.value) == str(expected)
    else:
        _check_walk_ends(probs)


class TestWalks:
    def test_same_seed_is_bit_identical(self):
        config = SimulationConfig(patients=50, seed=11)
        assert write_patient_csv(simulate(config)) == write_patient_csv(
            simulate(config)
        )

    def test_different_seeds_differ(self):
        a = simulate(SimulationConfig(patients=50, seed=1))
        b = simulate(SimulationConfig(patients=50, seed=2))
        assert write_patient_csv(a) != write_patient_csv(b)

    def test_all_silent_path_emits_nothing(self):
        config = SimulationConfig(
            patients=25,
            seed=4,
            place_probs={
                "p0": {"None": 1.0},
                "p1": {"None": 1.0},
                "p4": {"None": 1.0},
            },
        )
        assert simulate(config) == []

    def test_single_visit_path(self):
        config = SimulationConfig(
            patients=25,
            seed=4,
            place_probs={
                "p0": {"Visit before CO": 1.0},
                "p1": {"None": 1.0},
                "p4": {"None": 1.0},
            },
        )
        rows = simulate(config)
        assert len(rows) == 25
        assert all(r.outcome is None for r in rows)
        assert len({r.pat_id for r in rows}) == 25

    def test_timestamps_strictly_increase_per_patient(self):
        rows = simulate(SimulationConfig(patients=150, seed=6))
        by_patient = {}
        for row in rows:
            by_patient.setdefault(row.pat_id, []).append(row.timestamp)
        for stamps in by_patient.values():
            assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_deaths_terminate_the_walk(self):
        rows = simulate(SimulationConfig(patients=400, seed=8))
        by_patient = {}
        for row in rows:
            by_patient.setdefault(row.pat_id, []).append(row)
        for patient_rows in by_patient.values():
            for row in patient_rows[:-1]:
                assert row.outcome not in (
                    Outcome.DEATH_ANY_CAUSE,
                    Outcome.DEATH_HF,
                )

    def test_every_generated_trace_fits_the_model(self, dejure):
        log = transform_log(simulate(SimulationConfig(patients=120, seed=10)))
        assert conformance_report(dejure, log).fitness == 1.0

    def test_decision_frequencies_match_config(self):
        config = SimulationConfig(patients=5000, seed=17)
        _, decisions = simulate_detailed(config)
        for place, probs in config.place_probs.items():
            labels = sorted(probs)
            observed = [decisions[place][label] for label in labels]
            total = sum(observed)
            expected = [probs[label] * total for label in labels]
            _, p = sps.chisquare(observed, expected)
            assert p > 0.01, f"GOF failed at {place}"

    def test_log_frequencies_match_config_at_study_scale(self, dejure):
        # the same check on the transformed 240-patient log, measured at the
        # two reported places through the decision-mining extractor
        from pathminer.decision_mining import extract_instances

        config = SimulationConfig(patients=240, seed=7)
        log = transform_log(simulate(config))
        for place in ("p1", "p4"):
            probs = config.place_probs[place]
            instances = extract_instances(dejure, log, place).instances
            labels = sorted(probs)
            counts = {label: 0 for label in labels}
            for inst in instances:
                counts[inst.chosen] += 1
            total = sum(counts.values())
            observed = [counts[label] for label in labels]
            expected = [probs[label] * total for label in labels]
            _, p = sps.chisquare(observed, expected)
            assert p > 0.01, f"GOF failed at {place}"

    def test_phenotype_flags_follow_lvef(self):
        rows = simulate(SimulationConfig(patients=80, seed=12))
        for row in rows:
            if row.lvef is None:
                continue
            flags = (row.hfref, row.hfmref, row.hfpef)
            assert sum(flags) == 1
            if row.lvef <= 40:
                assert row.hfref
            elif row.lvef <= 49:
                assert row.hfmref
            else:
                assert row.hfpef

    def test_default_weights_follow_published_shares(self):
        assert DEFAULT_PLACE_WEIGHTS["p1"]["HF"] == 5.78
        assert DEFAULT_PLACE_WEIGHTS["p4"]["Death_AnyCause"] == 1.39
