import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathminer.decision_mining as decision_mining
from conftest import make_log
from oracles import reference_train_classifier
from pathminer.classifiers import KINDS, _feature_space
from pathminer.decision_mining import (
    distribution,
    extract_instances,
    mine_place,
    train_classifier,
    DecisionInstance,
    Holdout,
)
from pathminer.petri import build_dejure
from test_classifiers import classifier_rows
from pathminer.errors import InputError
from pathminer.model import EventLog
from pathminer.simulate import SimulationConfig, simulate
from pathminer.transform import transform_log


class TestExtraction:
    def test_patient_with_outcome_at_p1(self, dejure, example_log):
        result = extract_instances(dejure, example_log, "p1")
        by_case = {}
        for inst in result.instances:
            by_case.setdefault(inst.case_id, []).append(inst.chosen)
        # 007: the first token is consumed by HF; the return loop's token
        # leaves silently toward the record end
        assert by_case["007"] == ["HF", "None"]
        assert by_case["008"] == ["None"]
        assert result.skipped_cases == ()

    def test_patient_at_p4(self, dejure, example_log):
        result = extract_instances(dejure, example_log, "p4")
        chosen = {inst.case_id: inst.chosen for inst in result.instances}
        assert chosen == {"007": "Death_HF", "008": "None"}

    def test_features_snapshot_deposit_moment(self, dejure, example_log):
        result = extract_instances(dejure, example_log, "p1")
        first_007 = next(i for i in result.instances if i.case_id == "007")
        # deposited by the first visit: its attributes are the snapshot
        assert first_007.features["nt_pro_bnp"] == 750.5
        assert first_007.features.get("outcome") is None

    def test_empty_log(self, dejure):
        result = extract_instances(dejure, EventLog(), "p1")
        assert result.instances == ()

    def test_non_decision_place_rejected(self, dejure, example_log):
        with pytest.raises(InputError):
            extract_instances(dejure, example_log, "p_end")

    def test_nonconforming_traces_are_skipped_and_counted(self, dejure):
        log = make_log(("Death_HF", "HF"), ("Visit before CO",))
        result = extract_instances(dejure, log, "p1")
        assert result.skipped_cases == ("c000",)
        assert [i.case_id for i in result.instances] == ["c001"]

    def test_instance_count_equals_token_arrivals(self, dejure):
        log = transform_log(simulate(SimulationConfig(patients=200, seed=31)))
        result = extract_instances(dejure, log, "p1")
        # every case deposits one initial token into p1 plus one per return
        # loop; each outcome event beyond the first returns through p1
        expected = 0
        for sequence in log.activity_sequences().values():
            outcomes = sum(
                1 for a in sequence if a not in ("Visit before CO", "Visit after CO")
            )
            deaths = sum(1 for a in sequence if a.startswith("Death"))
            expected += 1 + (outcomes - deaths)
        assert len(result.instances) == expected


class TestDistribution:
    def test_percentages(self):
        instances = [
            DecisionInstance("c", "p1", {}, "None"),
            DecisionInstance("c", "p1", {}, "None"),
            DecisionInstance("c", "p1", {}, "HF"),
        ]
        table = distribution(instances)
        assert table["None"] == pytest.approx(200 / 3)
        assert table["HF"] == pytest.approx(100 / 3)
        assert sum(table.values()) == pytest.approx(100.0)

    def test_single_instance(self):
        table = distribution([DecisionInstance("c", "p1", {}, "MI")])
        assert table == {"MI": 100.0}

    def test_empty(self):
        assert distribution([]) == {}


class TestTrainClassifier:
    def _instances(self, n=200, seed=5):
        import random

        rng = random.Random(seed)
        out = []
        for i in range(n):
            value = rng.uniform(0.0, 2000.0)
            label = "Death_HF" if value > 1000 else "None"
            out.append(
                DecisionInstance(f"c{i}", "p4", {"nt_pro_bnp": value}, label)
            )
        return out

    def test_deterministic_under_seed(self):
        instances = self._instances()
        a = train_classifier(Holdout(instances, seed=3), "decision-tree")
        b = train_classifier(Holdout(instances, seed=3), "decision-tree")
        assert a == b

    def test_single_class_is_degenerate(self):
        instances = [
            DecisionInstance("a", "p4", {}, "None"),
            DecisionInstance("b", "p4", {}, "None"),
        ]
        report = train_classifier(Holdout(instances), "majority")
        assert report.degenerate and report.accuracy == 100.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            train_classifier(Holdout(self._instances()), "svm")

    def test_unknown_kind_rejected_when_every_instance_chose_one_label(self):
        instances = [DecisionInstance("a", "p1", {}, "x"), DecisionInstance("b", "p1", {}, "x")]
        with pytest.raises(InputError, match="unknown classifier kind 'bogus'"):
            train_classifier(Holdout(instances), "bogus")

    def test_too_few_instances_rejected(self):
        with pytest.raises(InputError):
            train_classifier(Holdout([DecisionInstance("a", "p4", {}, "x")]), "majority")

    @pytest.mark.parametrize("split", [0.0, 1.0, 1.5, -0.2, float("nan")])
    def test_a_split_outside_the_open_unit_interval_rejected(self, split):
        with pytest.raises(InputError, match=rf"^split must lie in \(0, 1\), got {split}$"):
            Holdout(self._instances(), split=split)

    def test_majority_accuracy_equals_top_share(self):
        instances = self._instances(300, seed=8)
        report = train_classifier(Holdout(instances, split=0.2, seed=0), "majority")
        # reconstruct the holdout share directly from the confusion counts
        total = sum(sum(row.values()) for row in report.confusion.values())
        top = max(
            sum(report.confusion.get(label, {}).values())
            for label in ("None", "Death_HF")
        )
        assert report.accuracy == pytest.approx(100.0 * top / total)

    def test_planted_rule_tree(self):
        instances = self._instances(600, seed=9)
        report = train_classifier(Holdout(instances, seed=1), "decision-tree")
        assert report.accuracy >= 95.0
        assert report.detail["root_split"]["feature"] == "nt_pro_bnp"

    @pytest.mark.parametrize("bad", ["abc", date(2020, 1, 1)])
    def test_a_non_number_where_training_holds_numbers_names_its_case(self, bad):
        instances = self._instances(50, seed=4)
        _, test = decision_mining._stratified_split([i.chosen for i in instances], 0.2, 0)
        case = instances[test[0]].case_id
        instances[test[0]] = instances[test[0]]._replace(features={"nt_pro_bnp": bad})
        for kind in ("naive-bayes", "logistic", "decision-tree"):
            with pytest.raises(InputError, match=re.escape(
                    f"case '{case}': attribute 'nt_pro_bnp' holds {bad!r} where the training")):
                train_classifier(Holdout(instances), kind)
        # the majority classifier reads no feature
        assert train_classifier(Holdout(instances), "majority").test_size == len(test)

    @pytest.mark.parametrize("big", [1.01e100, -1.7e308, 10**400], ids=["1.01e100", "-1.7e308", "10**400"])
    @pytest.mark.parametrize("where", ["train", "test"])
    def test_a_number_too_large_to_square_and_sum_names_its_case(self, big, where):
        # naive Bayes raised OverflowError on 1.7e308 and logistic regression
        # scaled it to NaN; an int past the float range failed to encode
        instances = self._instances(50, seed=4)
        train, test = decision_mining._stratified_split([i.chosen for i in instances], 0.2, 0)
        at = (train if where == "train" else test)[0]
        case = instances[at].case_id
        instances[at] = instances[at]._replace(features={"nt_pro_bnp": big})
        for kind in ("naive-bayes", "logistic", "decision-tree"):
            with pytest.raises(InputError, match=re.escape(
                    f"case '{case}': attribute 'nt_pro_bnp' holds {big!r}, beyond the classifiers' "
                    "range of ±1e100")):
                train_classifier(Holdout(instances), kind)
        assert train_classifier(Holdout(instances), "majority").test_size == len(test)
        instances[at] = instances[at]._replace(features={"nt_pro_bnp": 1e100})
        assert train_classifier(Holdout(instances), "naive-bayes").test_size == len(test)

    def test_learners_clear_majority_floor_on_planted_rule(self):
        instances = self._instances(500, seed=10)
        holdout = Holdout(instances, split=0.2, seed=2)
        baseline = train_classifier(holdout, "majority")
        for kind in ("naive-bayes", "decision-tree"):
            report = train_classifier(holdout, kind)
            assert report.accuracy >= baseline.accuracy - 0.5


class TestMinePlace:
    def test_filter_restricts_to_phenotype(self, dejure):
        log = transform_log(simulate(SimulationConfig(patients=300, seed=41)))
        full = mine_place(dejure, log, "p1", ("majority",))
        reduced = mine_place(
            dejure, log, "p1", ("majority",), phenotype_filter="HFrEF"
        )
        hfref_cases = {
            case
            for case, trace in log.traces().items()
            if trace[0].attributes.get("hfref") is True
        }
        expected = 0
        for case, sequence in log.activity_sequences().items():
            if case not in hfref_cases:
                continue
            outcomes = sum(
                1 for a in sequence if a not in ("Visit before CO", "Visit after CO")
            )
            deaths = sum(1 for a in sequence if a.startswith("Death"))
            expected += 1 + (outcomes - deaths)
        assert reduced.n_instances == expected
        assert reduced.n_instances < full.n_instances

    def test_single_kind_gives_single_report(self, dejure, example_log):
        report = mine_place(dejure, example_log, "p4", ("majority",))
        assert len(report.classifiers) == 1
        assert report.classifiers[0].kind == "majority"

    def test_place_must_be_decision_point(self, dejure, example_log):
        with pytest.raises(InputError):
            mine_place(dejure, example_log, "p_end", ("majority",))


# Raised outcome and death weights, so small cohorts reach every class.
_DEVIANT = {"p1": {"None": 40, "HF": 20, "CV": 20, "Stroke": 10, "MI": 10},
            "p4": {"None": 50, "Death_AnyCause": 25, "Death_HF": 25}}


def _outcome(call):
    """What ``call`` returns, or what it raises."""
    try:
        return repr(call())
    except (InputError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


class TestAgainstParentTraining:
    @settings(max_examples=60, deadline=None)
    @given(classifier_rows(), st.sampled_from([0.1, 0.2, 0.5]), st.integers(0, 3))
    def test_one_holdout_per_place_gives_the_parents_reports(self, data, split, seed):
        rows, labels = data
        # the test rows stay within the training rows' feature space: a
        # non-number where training holds numbers is an InputError, pinned in
        # TestTrainClassifier
        train, test = decision_mining._stratified_split(labels, split, seed)
        numeric = {name for name, kind in _feature_space([rows[i] for i in train]).items()
                   if kind == "numeric"}
        for i in test:
            rows[i] = {name: None if name in numeric and not isinstance(v, (int, float)) else v
                       for name, v in rows[i].items()}
        instances = [DecisionInstance(f"c{i}", "p1", row, label)
                     for i, (row, label) in enumerate(zip(rows, labels))]
        holdout = Holdout(instances, split, seed)
        for kind in KINDS:
            expected = _outcome(lambda: reference_train_classifier(instances, kind, split, seed))
            assert _outcome(lambda: train_classifier(holdout, kind)) \
                == _outcome(lambda: train_classifier(Holdout(instances, split, seed), kind)) == expected

    @settings(max_examples=12, deadline=None)
    @given(st.integers(5, 60), st.integers(0, 10_000), st.booleans(), st.sampled_from(["p1", "p4"]))
    def test_mine_place_equals_the_parents_per_kind_loop(self, patients, seed, deviant, place):
        config = SimulationConfig(patients=patients, seed=seed, place_probs=_DEVIANT if deviant else {})
        log = transform_log(simulate(config))
        instances = extract_instances(build_dejure(), log, place).instances
        expected = _outcome(lambda: tuple(
            reference_train_classifier(instances, kind, 0.2, seed) for kind in KINDS))
        assert _outcome(lambda: mine_place(build_dejure(), log, place, KINDS, seed=seed).classifiers) \
            == expected


def test_mine_place_calls_the_module_train_classifier_once_per_kind(dejure, monkeypatch):
    # the traced benchmark times each kind by replacing this module global
    calls = []
    original = decision_mining.train_classifier

    def counting(instances, kind, *args, **kwargs):
        calls.append(kind)
        return original(instances, kind, *args, **kwargs)

    monkeypatch.setattr(decision_mining, "train_classifier", counting)
    log = transform_log(simulate(SimulationConfig(patients=60, seed=3)))
    report = mine_place(dejure, log, "p4", KINDS)
    assert calls == list(KINDS)
    assert [c.kind for c in report.classifiers] == list(KINDS)


def test_mine_place_encodes_each_place_once_and_only_for_a_feature_reader(dejure, monkeypatch):
    calls = []
    original = decision_mining.encode

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(decision_mining, "encode", counting)
    log = transform_log(simulate(SimulationConfig(patients=60, seed=3)))
    for place in ("p1", "p4"):
        mine_place(dejure, log, place, KINDS)
    assert len(calls) == 2
    mine_place(dejure, log, "p1", ("majority",))
    assert len(calls) == 2


def test_mine_place_with_no_kinds_draws_no_holdout(dejure):
    # a single instance is too few to train on, but nothing is trained
    log = make_log(("Visit before CO",))
    report = mine_place(dejure, log, "p1", ())
    assert (report.n_instances, report.classifiers) == (1, ())


def test_a_date_attribute_is_no_feature(tmp_path):
    # decide reads an XES whose events carry a <date> attribute, and encodes no column for it
    from pathminer.cli import main
    from pathminer.decision_mining import prepare_place
    from pathminer.xes import read_xes, write_xes

    log = transform_log(simulate(SimulationConfig(patients=60, seed=3)))
    dated = EventLog(tuple(e._replace(attributes={**e.attributes, "seen": e.timestamp}) for e in log))
    data = write_xes(dated)
    assert b'<date key="seen" value="' in data
    (tmp_path / "log.xes").write_bytes(data)
    assert main(["dejure", "--output", str(tmp_path / "dejure.json")]) == 0
    assert main(["decide", "--log", str(tmp_path / "log.xes"), "--net", str(tmp_path / "dejure.json"),
                 "--place", "p1", "--classifiers", "naive-bayes,decision-tree",
                 "--output", str(tmp_path / "decide.json")]) == 0
    names = [column.name for column in
             prepare_place(build_dejure(), read_xes(data), "p1", ("naive-bayes",)).holdout.columns]
    assert "lvef" in names and "seen" not in names
