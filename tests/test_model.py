import re
from datetime import date

import pytest

from pathminer.errors import InputError
from pathminer.model import (
    Event,
    EventLog,
    Outcome,
    PatientDatum,
    Phenotype,
    build_sequences,
    case_phenotype,
    classify_phenotype,
    parse_date,
)


def row(pat_id, day, index, **kwargs):
    return PatientDatum(
        pat_id=pat_id, timestamp=date(2023, 2, day), row_index=index, **kwargs
    )


class TestBuildSequences:
    def test_source_table_with_out_of_order_dates(self):
        # patient 007's rows appear as 20th, 21st, 20th in the source; the
        # same-day rows keep file order and the later date sorts last
        rows = [
            row("007", 20, 1),
            row("007", 21, 2, outcome=Outcome.HF),
            row("007", 20, 3, outcome=Outcome.DEATH_HF),
            row("008", 20, 4),
        ]
        sequences = build_sequences(rows)
        assert sorted(sequences) == ["007", "008"]
        assert [d.row_index for d in sequences["007"].data] == [1, 3, 2]
        assert [d.row_index for d in sequences["008"].data] == [4]

    def test_empty_input(self):
        assert build_sequences([]) == {}

    def test_same_timestamp_orders_by_row_index(self):
        rows = [row("x", 5, 2), row("x", 5, 1)]
        assert [d.row_index for d in build_sequences(rows)["x"].data] == [1, 2]

    def test_partitions_the_input(self):
        rows = [row(f"p{i % 3}", 1 + i % 5, i) for i in range(20)]
        sequences = build_sequences(rows)
        assert sum(len(s) for s in sequences.values()) == len(rows)
        seen = {d.row_index for s in sequences.values() for d in s.data}
        assert seen == set(range(20))

    def test_idempotent_on_sorted_data(self):
        rows = [row("p", 1 + i % 4, i) for i in range(12)]
        once = build_sequences(rows)["p"].data
        twice = build_sequences(list(once))["p"].data
        assert once == twice


class TestClassifyPhenotype:
    def test_boundary_40_is_reduced(self):
        assert classify_phenotype(40) is Phenotype.HFREF

    def test_45_is_mildly_reduced(self):
        assert classify_phenotype(45) is Phenotype.HFMREF

    def test_50_is_preserved(self):
        assert classify_phenotype(50) is Phenotype.HFPEF

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            classify_phenotype(101)
        with pytest.raises(InputError):
            classify_phenotype(-1)

    def test_partitions_the_whole_range(self):
        buckets = {Phenotype.HFREF: 0, Phenotype.HFMREF: 0, Phenotype.HFPEF: 0}
        for lvef in range(0, 101):
            buckets[classify_phenotype(lvef)] += 1
        assert buckets == {
            Phenotype.HFREF: 41,
            Phenotype.HFMREF: 9,
            Phenotype.HFPEF: 51,
        }


class TestDatumInvariants:
    def test_lvef_range_checked(self):
        with pytest.raises(InputError):
            row("p", 1, 1, lvef=150)

    def test_at_most_one_phenotype_flag(self):
        with pytest.raises(InputError):
            row("p", 1, 1, hfref=True, hfmref=True, hfpef=False)
        with pytest.raises(InputError, match="more than one phenotype flag set"):
            row("p", 1, 1, hfref=True, hfmref=True)  # the third flag missing
        row("p", 1, 1, hfref=True, hfmref=False, hfpef=False)
        row("p", 1, 1, hfmref=True)

    @pytest.mark.parametrize("fields, message", [
        ({"lvef": 500}, r"LVEF must lie in \[0, 100\], got 500"),
        ({"hfref": True, "hfpef": True}, "patient p: more than one phenotype flag set"),
    ])
    def test_replace_checks_like_the_constructor(self, fields, message):
        with pytest.raises(InputError, match=message):
            row("p", 1, 1)._replace(**fields)
        assert row("p", 1, 1)._replace(lvef=40) == row("p", 1, 1, lvef=40)

    def test_missing_is_not_zero_or_false(self):
        datum = row("p", 1, 1)
        assert datum.lvef is None
        assert datum.diabetes is None
        assert datum.lvef != 0
        assert datum.diabetes is not False


class TestEventLog:
    def test_activity_must_be_non_empty(self):
        with pytest.raises(InputError):
            Event("c", "", date(2023, 1, 1))

    def test_replace_checks_like_the_constructor(self):
        event = Event("c", "a", date(2023, 1, 1))
        with pytest.raises(InputError, match="event activity must be non-empty"):
            event._replace(activity="")
        assert event._replace(activity="b") == Event("c", "b", date(2023, 1, 1))

    def test_trace_view_orders_by_timestamp_then_insertion(self):
        events = (
            Event("c", "b", date(2023, 1, 2)),
            Event("c", "a", date(2023, 1, 1)),
            Event("c", "tie1", date(2023, 1, 3)),
            Event("c", "tie2", date(2023, 1, 3)),
        )
        log = EventLog(events)
        assert log.activity_sequences() == {"c": ("a", "b", "tie1", "tie2")}

    def test_case_ids_sorted(self):
        log = EventLog(
            (
                Event("b", "x", date(2023, 1, 1)),
                Event("a", "x", date(2023, 1, 1)),
            )
        )
        assert log.case_ids() == ("a", "b")

    def test_traces_are_grouped_once_and_returned_as_fresh_dicts(self):
        log = EventLog(
            (
                Event("b", "x", date(2023, 1, 2)),
                Event("a", "y", date(2023, 1, 1)),
                Event("b", "z", date(2023, 1, 1)),
            )
        )
        first = log.traces()
        second = log.traces()
        assert first == second == {
            "a": (log.events[1],),
            "b": (log.events[2], log.events[0]),
        }
        assert first is not second
        assert next(iter(first.values())) is next(iter(second.values()))  # grouped once
        first["a"] = ()
        del first["b"]
        assert log.traces() == second
        assert list(log.traces()) == ["a", "b"]


class TestRecords:
    """The records keep what their frozen dataclasses gave: field-wise
    equality, hash and repr, and no assignment."""

    def test_fields_refuse_assignment(self):
        event = Event("c", "a", date(2023, 1, 1))
        for record, name in ((event, "activity"), (EventLog((event,)), "events"),
                             (row("p", 1, 1), "lvef")):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    def test_each_record_gets_its_own_default_dict(self):
        first, second = Event("c", "a", date(2023, 1, 1)), Event("c", "a", date(2023, 1, 1))
        assert first.attributes == second.attributes == {}
        assert first.attributes is not second.attributes
        assert row("p", 1, 1).extra is not row("p", 1, 1).extra

    def test_a_record_hashes_and_prints_its_fields(self):
        day = date(2023, 1, 1)
        log = EventLog((Event("c", "a", day),))
        assert repr(Event("c", "a", day, {"x": 1})) == (
            "Event(case_id='c', activity='a', timestamp=datetime.date(2023, 1, 1), "
            "attributes={'x': 1})")
        assert repr(log) == f"EventLog(events=({log.events[0]!r},))"
        assert log == EventLog((Event("c", "a", day),)) != EventLog()
        assert hash(EventLog()) == hash(((),))
        assert repr(row("p", 1, 1)).startswith(
            "PatientDatum(pat_id='p', timestamp=datetime.date(2023, 2, 1), row_index=1, lvef=None")


@pytest.mark.parametrize("attributes, phenotype", [
    ({"lvef": 40}, "HFrEF"),
    ({"lvef": 41}, "HFmrEF"),
    ({"lvef": 49}, "HFmrEF"),
    ({"lvef": 50, "hfref": False, "hfmref": None}, "HFpEF"),
    ({"lvef": 30, "hfpef": True}, "HFpEF"),  # a set flag wins over the LVEF
    ({"lvef": 60, "hfmref": True}, "HFmrEF"),
    ({"lvef": True}, None),  # a flag is not an LVEF
    ({"lvef": 101}, None),
    ({"lvef": -1}, None),
    ({"lvef": 45.0}, None),
    ({}, None),
])
def test_case_phenotype_falls_back_to_the_lvef_when_no_flag_is_set(attributes, phenotype):
    later = Event("c", "b", date(2023, 1, 2), {"hfref": True})  # only the first event counts
    assert case_phenotype((Event("c", "a", date(2023, 1, 1), attributes), later)) == phenotype


@pytest.mark.parametrize("text", ["20230102", "2023-W01-1", "2023-002", "2023-01-02T00:00",
                                  "2023-1-02", " 2023-01-02", "２０２３-01-02", "2023-01-02\n"])
def test_a_date_is_only_yyyy_mm_dd(text):
    # date.fromisoformat takes the first two from Python 3.11 on; 3.10 refuses them
    with pytest.raises(ValueError, match=f"^Invalid isoformat string: {re.escape(repr(text))}$"):
        parse_date(text)
    assert parse_date("2023-01-02") == date(2023, 1, 2)
