import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceDecisionTree, ReferenceLogistic, ReferenceNaiveBayes, tree_fields
from pathminer.classifiers import (
    DecisionTreeClassifier,
    LogisticClassifier,
    MajorityClassifier,
    NaiveBayesClassifier,
    _feature_space,
    encode,
    make_classifier,
)
from pathminer.decision_mining import extract_instances
from pathminer.errors import InputError
from pathminer.petri import build_dejure
from pathminer.simulate import SimulationConfig, simulate
from pathminer.transform import transform_log


class Encoded:
    """``model`` fitted on ``rows`` through the one column encoding.

    Test rows are encoded together with the training rows, after them, so a
    test row that cannot be encoded fails on its own, as a row-based
    reference fails per row.
    """

    def __init__(self, model, rows, labels):
        self.rows = list(rows)
        self.space = _feature_space(self.rows)
        self.train = list(range(len(self.rows)))
        self.model = model.fit(self.encode()[0], self.train, labels)

    def encode(self, *test_rows):
        """The columns of the training rows and ``test_rows``, and the
        positions of ``test_rows``."""
        n = len(self.rows)
        columns = encode(self.rows + list(test_rows), self.space, self.train)
        return columns, list(range(n, n + len(test_rows)))

    def predict(self, *test_rows) -> list[str]:
        return self.model.predict(*self.encode(*test_rows))


def planted_rows(n, seed, threshold=1000.0, missing_rate=0.0):
    """Rows where the label is decided by nt_pro_bnp against a threshold."""
    rng = random.Random(seed)
    rows, labels = [], []
    for _ in range(n):
        value = round(rng.uniform(100.0, 2000.0), 1)
        row = {
            "nt_pro_bnp": value,
            "lvef": rng.randint(10, 70),
            "diabetes": rng.random() < 0.4,
        }
        if missing_rate and rng.random() < missing_rate:
            row["lvef"] = None
        rows.append(row)
        labels.append("Death_HF" if value > threshold else "None")
    return rows, labels


class TestMajority:
    def test_predicts_mode(self):
        model = Encoded(MajorityClassifier(), [{}] * 5, ["a", "b", "b", "b", "a"])
        assert model.predict({}) == ["b"]

    def test_tie_breaks_lexicographically(self):
        model = Encoded(MajorityClassifier(), [{}] * 4, ["b", "a", "b", "a"])
        assert model.predict({}) == ["a"]


class TestNaiveBayes:
    def test_learns_numeric_separation(self):
        rows, labels = planted_rows(400, seed=1)
        model = Encoded(NaiveBayesClassifier(), rows, labels)
        assert model.predict({"nt_pro_bnp": 1900.0}, {"nt_pro_bnp": 150.0}) == ["Death_HF", "None"]

    def test_missing_feature_is_skipped(self):
        rows, labels = planted_rows(400, seed=2)
        model = Encoded(NaiveBayesClassifier(), rows, labels)
        [prediction] = model.predict({"nt_pro_bnp": None, "lvef": 30})
        assert prediction in ("Death_HF", "None")  # prior-driven, no crash

    def test_categorical_features(self):
        rows = [{"flag": True}] * 30 + [{"flag": False}] * 30
        labels = ["yes"] * 30 + ["no"] * 30
        model = Encoded(NaiveBayesClassifier(), rows, labels)
        assert model.predict({"flag": True}, {"flag": False}) == ["yes", "no"]


class TestLogistic:
    def test_learns_numeric_separation(self):
        rows, labels = planted_rows(400, seed=3)
        model = Encoded(LogisticClassifier(), rows, labels)
        correct = sum(p == l for p, l in zip(model.predict(*rows), labels))
        assert correct / len(rows) >= 0.95

    def test_deterministic(self):
        rows, labels = planted_rows(120, seed=4, missing_rate=0.2)
        a = Encoded(LogisticClassifier(), rows, labels)
        b = Encoded(LogisticClassifier(), rows, labels)
        assert a.predict(*rows) == b.predict(*rows)

    def test_handles_missing_numerics(self):
        rows, labels = planted_rows(200, seed=5, missing_rate=0.5)
        model = Encoded(LogisticClassifier(), rows, labels)
        assert model.predict({"nt_pro_bnp": None, "lvef": None})[0] in ("Death_HF", "None")


class TestDecisionTree:
    def test_recovers_planted_threshold_at_root(self):
        rows, labels = planted_rows(600, seed=6)
        model = Encoded(DecisionTreeClassifier(), rows, labels)
        root = model.model.root_split()
        assert root["feature"] == "nt_pro_bnp"
        assert abs(root["threshold"] - 1000.0) < 60.0
        correct = sum(p == l for p, l in zip(model.predict(*rows), labels))
        assert correct / len(rows) >= 0.98

    def test_missing_values_route_consistently(self):
        rows, labels = planted_rows(300, seed=7, missing_rate=0.3)
        model = Encoded(DecisionTreeClassifier(), rows, labels)
        assert model.predict({"nt_pro_bnp": None, "lvef": None})[0] in ("Death_HF", "None")

    def test_categorical_split_on_missingness(self):
        # the label is determined by whether the flag is recorded at all
        rows = [{"flag": True} for _ in range(30)] + [{"flag": None} for _ in range(30)]
        labels = ["recorded"] * 30 + ["absent"] * 30
        model = Encoded(DecisionTreeClassifier(min_leaf=2, min_split=4), rows, labels)
        assert model.predict({"flag": True}, {"flag": None}) == ["recorded", "absent"]


_NUMBERS = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([-1.5, 0.25, 0.5, 2.0, 2.75]))


@st.composite
def tree_training_sets(draw):
    """Rows with repeated and missing numeric, boolean and string values.

    ``low_x`` is ``x <= cut`` and ``x_text`` is ``x`` as text, so they
    partition rows exactly as some thresholds on ``x`` do. Labels lean on
    ``low_x``, so those equal partitions are often the best split, and the
    top classes occur only in rows without an ``x``, which exercises the
    class order on each missing side.
    """
    k = draw(st.integers(2, 6))
    only_missing = draw(st.integers(1, k - 1))
    cut = draw(st.sampled_from([-1, 0.5, 2]))
    drawn = draw(st.lists(
        st.tuples(
            st.fixed_dictionaries({
                "x": _NUMBERS,
                "dose": _NUMBERS,
                "flag": st.one_of(st.none(), st.booleans()),
                "site": st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
            }),
            st.integers(0, k - 1),
            st.integers(0, k - 1),
        ),
        min_size=2,
        max_size=120,
    ))
    rows, labels = [], []
    for row, a, b in drawn:
        x = row["x"]
        if x is None:
            label = a
        else:
            label = (min(a, b) if x <= cut else max(a, b)) % (k - only_missing)
        row["low_x"] = None if x is None else x <= cut
        row["x_text"] = None if x is None else str(x)
        if row["dose"] is None and label % 2:
            del row["dose"]
        rows.append(row)
        labels.append(f"class{label}")
    return rows, labels


# Near ties decided by the order in which one side's class shares are
# summed: in another order a gini moves in its last bit and another split
# wins. Labels are class numbers.
_ORDER_CASES = [
    pytest.param(  # a numeric split with its missing rows on the left
        {"dose": [None, None, None, None, None, 2, None, None, -2, None, None, -1],
         "site": ["b", None, None, "a", "b", "a", "c", "a", "a", "a", "a", "a"]},
        [0, 2, 3, 4, 2, 3, 4, 0, 3, 1, 5, 4],
        dict(max_depth=3, min_leaf=2, min_split=4),
        id="missing-left",
    ),
    pytest.param(  # a numeric split with its missing rows on the right
        {"x": [0, 0.5, None, 0.5, -1.5, 0.25, None, None, 3, 2, None, -2, None, None, 2,
               -1.5, 2, 0.5]},
        [0, 0, 0, 0, 0, 0, 4, 5, 1, 0, 3, 1, 4, 4, 0, 1, 0, 0],
        dict(max_depth=1, min_leaf=2, min_split=11),
        id="missing-right",
    ),
    pytest.param(  # a categorical split
        {"flag": [None, None, None, None, None, True, None, None]},
        [0, 3, 1, 1, 1, 1, 2, 2],
        dict(max_depth=1, min_leaf=1, min_split=4),
        id="categorical",
    ),
]


class TestDecisionTreeAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(
        tree_training_sets(),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(1, 12),
    )
    def test_same_tree_as_reference(self, data, max_depth, min_leaf, min_split):
        rows, labels = data
        params = dict(max_depth=max_depth, min_leaf=min_leaf, min_split=min_split)
        expected = ReferenceDecisionTree(**params).fit(rows, labels)
        model = Encoded(DecisionTreeClassifier(**params), rows, labels).model
        assert tree_fields(model.root_) == tree_fields(expected.root_)
        assert model.root_split() == expected.root_split()

    @pytest.mark.parametrize("columns, classes, params", _ORDER_CASES)
    def test_class_order_decides_near_ties(self, columns, classes, params):
        rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
        labels = [f"class{c}" for c in classes]
        expected = ReferenceDecisionTree(**params).fit(rows, labels)
        model = Encoded(DecisionTreeClassifier(**params), rows, labels).model
        assert tree_fields(model.root_) == tree_fields(expected.root_)

    def test_equal_partitions_tie_on_feature_name(self):
        # "hfref" and "lvef <= 40.5" split the rows identically; the name decides
        rows = [{"lvef": v, "hfref": v <= 40} for v in (20, 25, 30, 35, 40, 45, 50, 55, 60, 65)]
        labels = ["HF"] * 5 + ["None"] * 5
        params = dict(min_leaf=1, min_split=2)
        model = Encoded(DecisionTreeClassifier(**params), rows, labels).model
        expected = ReferenceDecisionTree(**params).fit(rows, labels)
        assert model.root_split() == expected.root_split() == {
            "feature": "hfref", "category": "false"}

    def test_same_tree_on_simulated_instances(self):
        cohort = transform_log(simulate(SimulationConfig(patients=240, seed=11)))
        for place in ("p1", "p4"):
            instances = extract_instances(build_dejure(), cohort, place).instances
            rows = [i.features for i in instances]
            labels = [i.chosen for i in instances]
            expected = ReferenceDecisionTree().fit(rows, labels)
            model = Encoded(DecisionTreeClassifier(), rows, labels).model
            assert tree_fields(model.root_) == tree_fields(expected.root_)


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        make_classifier("svm")


def test_sanity_floor_against_majority():
    rows, labels = planted_rows(500, seed=8)
    majority = Encoded(MajorityClassifier(), rows, labels)
    baseline = sum(p == l for p, l in zip(majority.predict(*rows), labels)) / len(rows)
    for kind in ("naive-bayes", "decision-tree"):
        model = Encoded(make_classifier(kind), rows, labels)
        score = sum(p == l for p, l in zip(model.predict(*rows), labels)) / len(rows)
        assert score >= baseline - 0.005


_INTS = [None, -7, -1, 0, 2, 3, 11]
_FLOATS = [None, -250.5, -0.0, 0.1, 0.25, 3.0, 42.75, 1e3]
_WORDS = [None, True, False, "a", "b", "c", "⊥"]  # "⊥" is a text, not a missing value
_FEATURES = {
    "count": _INTS,
    "level": _FLOATS + [1, 4],
    "mixed": _INTS + _FLOATS + _WORDS,
    "flag": [None, True, False],
    "site": [None, "a", "b", "c", "⊥"],
    "void": [None],  # a numeric column that is missing in every row
    "dose": _INTS + _FLOATS + _WORDS + ["absent"] * 4,  # absent from some rows
}


@st.composite
def classifier_rows(draw, min_size=2, max_size=40):
    """Rows of mixed int, float, bool and str values with missing values, an
    all-missing column and a feature absent from some rows, labelled with
    2-5 classes that lean on ``count``."""
    k = draw(st.integers(2, 5))
    drawn = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in _FEATURES.values()), st.integers(0, k - 1)),
        min_size=min_size,
        max_size=max_size,
    ))
    rows, labels = [], []
    for *values, noise in drawn:
        row = {name: v for name, v in zip(_FEATURES, values) if v != "absent"}
        count = row["count"]
        rows.append(row)
        labels.append(f"class{noise if count is None or noise % 2 else count % k}")
    return rows, labels


def _outcome(call):
    """What ``call`` returns, or the type of what it raises: a test row may
    hold a string where training saw only numbers."""
    try:
        return call()
    except ValueError as exc:
        return type(exc)


class TestAgainstParentClassifiers:
    @settings(max_examples=100, deadline=None)
    @given(classifier_rows(), classifier_rows(min_size=1, max_size=10))
    def test_same_bits_as_the_parent(self, train, test):
        rows, labels = train
        test_rows = test[0] + rows[:5]
        expected = ReferenceLogistic().fit(rows, labels)
        fitted = Encoded(LogisticClassifier(), rows, labels)
        model = fitted.model
        assert model.weights_.tobytes() == expected.weights_.tobytes()
        for row in test_rows:
            assert _outcome(lambda: (model._matrix(*fitted.encode(row))[0] @ model.weights_).tobytes()) \
                == _outcome(lambda: (expected._encode(row) @ expected.weights_).tobytes())
            assert _outcome(lambda: fitted.predict(row)) == _outcome(lambda: [expected.predict(row)])

        expected = ReferenceNaiveBayes().fit(rows, labels)
        fitted = Encoded(NaiveBayesClassifier(), rows, labels)

        def scores(row):
            columns, [i] = fitted.encode(row)
            return fitted.model._scores(columns, i)

        for row in test_rows:
            assert repr(_outcome(lambda: scores(row))) == repr(_outcome(lambda: expected.scores(row)))
            assert _outcome(lambda: fitted.predict(row)) == _outcome(lambda: [expected.predict(row)])

    @settings(max_examples=50, deadline=None)
    @given(classifier_rows())
    def test_tree_on_a_shared_space_equals_the_reference(self, train):
        rows, labels = train
        params = dict(min_leaf=1, min_split=2)
        expected = ReferenceDecisionTree(**params).fit(rows, labels)
        model = Encoded(DecisionTreeClassifier(**params), rows, labels).model
        assert tree_fields(model.root_) == tree_fields(expected.root_)

    def test_naive_bayes_tie_goes_to_the_first_class(self):
        # identical rows and equal priors give every class the same score
        rows = [{"x": 1.5, "site": "a"}, {"x": 2.5, "site": None}] * 3
        labels = ["b", "b", "c", "c", "a", "a"]
        expected = ReferenceNaiveBayes().fit(rows, labels)
        fitted = Encoded(NaiveBayesClassifier(), rows, labels)
        for row in ({"x": 2.0, "site": "a"}, {"site": "z"}, {}):
            columns, [i] = fitted.encode(row)
            assert len(set(fitted.model._scores(columns, i))) == 1
            assert fitted.predict(row) == [expected.predict(row)] == ["a"]

    def test_on_simulated_instances(self):
        cohort = transform_log(simulate(SimulationConfig(patients=240, seed=11)))
        for place in ("p1", "p4"):
            instances = extract_instances(build_dejure(), cohort, place).instances
            rows = [i.features for i in instances]
            labels = [i.chosen for i in instances]
            logistic = Encoded(LogisticClassifier(), rows, labels).model
            assert logistic.weights_.tobytes() == ReferenceLogistic().fit(rows, labels).weights_.tobytes()
            bayes, expected = Encoded(NaiveBayesClassifier(), rows, labels), ReferenceNaiveBayes().fit(rows, labels)
            columns, _ = bayes.encode()
            assert [bayes.model._scores(columns, i) for i in bayes.train] == [expected.scores(r) for r in rows]
