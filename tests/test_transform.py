import hashlib
from collections import Counter
from datetime import date

import pytest

from pathminer.errors import InputError
from pathminer.model import (
    VISIT_AFTER,
    VISIT_BEFORE,
    Outcome,
    PatientDatum,
    build_sequences,
)
from pathminer.patient_csv import parse_patient_csv, write_patient_csv
from pathminer.simulate import SimulationConfig, simulate
from pathminer.transform import split_sequence, trans_post, trans_pre, transform_log
from pathminer.xes import write_xes


def row(pat_id, day, index, **kwargs):
    return PatientDatum(
        pat_id=pat_id, timestamp=date(2023, 3, day), row_index=index, **kwargs
    )


def seq_of(*rows):
    return build_sequences(rows)[rows[0].pat_id]


class TestSplitSequence:
    def test_example_patient_with_outcomes(self, table_rows):
        seq = build_sequences(table_rows)["007"]
        split = split_sequence(seq)
        assert [d.row_index for d in split.pre] == [1]
        assert [d.row_index for d in split.post] == [2, 3]
        assert split.post[0].outcome is Outcome.HF

    def test_example_patient_without_outcome(self, table_rows):
        split = split_sequence(build_sequences(table_rows)["008"])
        assert [d.row_index for d in split.pre] == [4]
        assert split.post == ()

    def test_outcome_on_first_datum(self):
        seq = seq_of(row("x", 1, 1, outcome=Outcome.MI), row("x", 2, 2))
        split = split_sequence(seq)
        assert split.pre == ()
        assert len(split.post) == 2

    def test_pre_concat_post_is_sequence(self):
        seq = seq_of(
            row("x", 1, 1),
            row("x", 2, 2, outcome=Outcome.CV),
            row("x", 3, 3),
        )
        split = split_sequence(seq)
        assert split.pre + split.post == seq.data
        assert all(d.outcome is None for d in split.pre)


class TestRowTransforms:
    def test_pre_event_shape(self, table_rows):
        event = trans_pre(table_rows[0])
        assert event.case_id == "007"
        assert event.activity == VISIT_BEFORE
        assert event.timestamp == date(2023, 2, 20)
        assert event.attributes["lvef"] == 50
        assert event.attributes["mra"] == 12.5

    def test_pre_rejects_outcome_rows(self):
        with pytest.raises(InputError):
            trans_pre(row("x", 1, 1, outcome=Outcome.HF))

    def test_post_uses_outcome_label(self):
        event = trans_post(row("x", 1, 1, outcome=Outcome.HF))
        assert event.activity == "HF"
        event = trans_post(row("x", 1, 1, outcome=Outcome.DEATH_HF))
        assert event.activity == "Death_HF"

    def test_post_without_outcome_is_follow_up_visit(self):
        assert trans_post(row("x", 1, 1)).activity == VISIT_AFTER

    def test_missing_attributes_are_not_copied(self):
        event = trans_pre(row("x", 1, 1, lvef=33))
        assert "weight" not in event.attributes
        assert event.attributes["lvef"] == 33


class TestTransformLog:
    def test_example_table(self, example_log):
        assert len(example_log) == 4
        assert example_log.case_ids() == ("007", "008")
        assert Counter(e.activity for e in example_log) == Counter(
            {VISIT_BEFORE: 2, "HF": 1, "Death_HF": 1}
        )
        assert example_log.activity_sequences() == {
            "007": (VISIT_BEFORE, "HF", "Death_HF"),
            "008": (VISIT_BEFORE,),
        }

    def test_empty_input(self):
        assert len(transform_log([])) == 0

    def test_simulated_cohort_counts(self):
        config = SimulationConfig(
            patients=240,
            seed=13,
            place_probs={"p0": {"Visit before CO": 1.0}},
        )
        rows = simulate(config)
        log = transform_log(rows)
        assert len(log) == len(rows)
        assert len(log.case_ids()) == 240

    def test_bijection_no_events_invented_or_dropped(self):
        rows = [
            row("a", 1, 1),
            row("a", 2, 2, outcome=Outcome.STROKE),
            row("a", 3, 3),
            row("b", 1, 4),
        ]
        log = transform_log(rows)
        assert len(log) == len(rows)

    def test_trace_shape_invariant(self):
        # before the first outcome only "Visit before CO"; after it only
        # outcome labels and "Visit after CO"
        config = SimulationConfig(patients=120, seed=5)
        log = transform_log(simulate(config))
        outcome_labels = {o.value for o in Outcome}
        for sequence in log.activity_sequences().values():
            seen_outcome = False
            for activity in sequence:
                if activity in outcome_labels:
                    seen_outcome = True
                elif seen_outcome:
                    assert activity == VISIT_AFTER
                else:
                    assert activity == VISIT_BEFORE

    def test_activities_stay_in_vocabulary(self):
        config = SimulationConfig(patients=60, seed=9)
        log = transform_log(simulate(config))
        vocabulary = {VISIT_BEFORE, VISIT_AFTER} | {o.value for o in Outcome}
        assert log.activities() <= vocabulary

    def test_post_death_rows_are_tolerated(self):
        # anomalous source data may date a death before later records; the
        # transform maps rows faithfully instead of rejecting them
        rows = [
            row("x", 1, 1),
            row("x", 2, 2, outcome=Outcome.DEATH_HF),
            row("x", 3, 3, outcome=Outcome.HF),
        ]
        log = transform_log(rows)
        assert log.activity_sequences()["x"] == (VISIT_BEFORE, "Death_HF", "HF")


def test_the_registry_cohort_keeps_its_bytes():
    # the benchmark's 2,000-patient cohort through the CSV, the parser, the
    # transform and the XES writer, against hashes recorded before the parser
    # converted by column and the writer wrote numbers in line
    data = write_patient_csv(simulate(SimulationConfig(patients=2000, seed=101)))
    assert hashlib.sha256(data).hexdigest() == \
        "c90a6b98e696e8e09b15e4d0ce3989d6de3b568a071e143367fa00baa9ec41f9"
    document = write_xes(transform_log(parse_patient_csv(data)))
    assert hashlib.sha256(document).hexdigest() == \
        "13a433f4878ad338168ef93ccd9c8b6ff9d3ac890d0bc5db861bd1309689cca6"
