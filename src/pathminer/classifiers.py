"""Small deterministic classifiers over attribute-map features.

All four models consume rows as ``{attribute: value}`` dicts in which any
value may be None. Missing data is part of the contract, never imputed
behind the caller's back:

- majority: ignores features entirely.
- naive Bayes: a missing value simply drops that feature's likelihood term.
- logistic regression: numeric features are mean-imputed and paired with a
  missing indicator column; categoricals are one-hot with an explicit
  missing category.
- decision tree: missing is its own branch content; numeric splits route
  missing rows to whichever side scores better, and categorical splits may
  test for missingness itself.

Nothing here draws randomness: training is deterministic given the rows.
``fit`` takes the rows' ``_feature_space`` as ``space`` if the caller has it.
"""

import math
from bisect import bisect_right
from collections import Counter
from functools import partial, reduce
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError

if TYPE_CHECKING:
    import numpy as np

MISSING = "⊥"  # rendering of an absent categorical value

KINDS = ("majority", "naive-bayes", "logistic", "decision-tree")

# priority when a feature shows mixed value types across rows
_RANK = {"unknown": 0, "numeric": 1, "categorical": 2, "ignored": 3}


def _feature_space(rows: list[dict]) -> dict[str, str]:
    """Infer feature names and kinds (numeric/categorical) over all rows.

    Booleans and strings are categorical; ints and floats numeric; a
    feature mixing both is treated as categorical. Dates and other types
    are ignored.
    """
    kinds: dict[str, str] = {}

    def observe(name: str, kind: str):
        if _RANK[kind] > _RANK.get(kinds.get(name, "unknown"), 0):
            kinds[name] = kind

    for row in rows:
        for name, value in row.items():
            if value is None:
                kinds.setdefault(name, "unknown")
            elif isinstance(value, (bool, str)):
                observe(name, "categorical")
            elif isinstance(value, (int, float)):
                observe(name, "numeric")
            else:
                observe(name, "ignored")
    return {
        name: kind
        for name, kind in sorted(kinds.items())
        if kind in ("numeric", "categorical")
    }


def _categorical(value) -> str:
    if value is None:
        return MISSING
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


class _Classifier:
    """Predicts many rows; a subclass may encode them together."""

    def predict_rows(self, rows) -> list[str]:
        return [self.predict(row) for row in rows]


class MajorityClassifier(_Classifier):
    """Predicts the most frequent training label, ties broken
    lexicographically."""

    kind = "majority"

    def fit(self, rows, labels, space=None):
        counts = Counter(labels)
        top = max(counts.values())
        self.label_ = min(l for l, c in counts.items() if c == top)
        return self

    def predict(self, row) -> str:
        return self.label_


def _gaussian(values) -> tuple[float, float, float] | None:
    """One class's Gaussian as (mean, -0.5*log(2πvar), 2*var)."""
    if not values:
        return None
    values = [float(v) for v in values]
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values) + 1e-9
    return mean, -0.5 * math.log(2 * math.pi * var), 2 * var


class NaiveBayesClassifier(_Classifier):
    """Gaussian/categorical naive Bayes with per-row feature skipping.

    Per feature, ``terms_`` holds each class's Gaussian (None without
    values), or per-class log-probabilities by category and for an unseen one.
    """

    kind = "naive-bayes"

    def fit(self, rows, labels, space=None):
        self.space_ = _feature_space(rows) if space is None else space
        self.classes_ = sorted(set(labels))
        by_class = {c: [] for c in self.classes_}
        for row, label in zip(rows, labels):
            by_class[label].append(row)
        self.log_prior_ = [math.log(len(by_class[c]) / len(labels)) for c in self.classes_]
        self.terms_ = []
        for name, kind in self.space_.items():
            present = [[r[name] for r in by_class[c] if r.get(name) is not None] for c in self.classes_]
            if kind == "numeric":
                self.terms_.append((name, True, [_gaussian(values) for values in present]))
                continue
            tallies = [Counter(map(_categorical, values)) for values in present]
            cats = sorted(set().union(*tallies))
            table = {cat: [math.log((t[cat] + 1) / (t.total() + len(cats))) for t in tallies] for cat in cats}
            unseen = [-math.log(len(cats) + 1) if cats else 0.0] * len(self.classes_)
            self.terms_.append((name, False, (table, unseen)))
        return self

    def _scores(self, row) -> list[float]:
        """Each class's prior plus the terms of the row's present features,
        added in feature order."""
        scores = list(self.log_prior_)
        for name, numeric, terms in self.terms_:
            value = row.get(name)
            if value is None:
                continue
            if numeric:
                x = float(value)
                for i, gaussian in enumerate(terms):
                    if gaussian is not None:
                        scores[i] += gaussian[1] - ((x - gaussian[0]) ** 2) / gaussian[2]
            else:
                for i, logp in enumerate(terms[0].get(_categorical(value), terms[1])):
                    scores[i] += logp
        return scores

    def predict(self, row) -> str:
        scores = self._scores(row)
        return self.classes_[max(range(len(scores)), key=scores.__getitem__)]


class LogisticClassifier(_Classifier):
    """Multinomial softmax regression trained by full-batch gradient
    descent from a zero start; no randomness involved.

    The rows are encoded column by column into one matrix, and each row is
    scored as its own vector-matrix product. The epoch loop reduces over
    the class columns left to right and works in place, with the float
    operations of a row-wise softmax, so the weights keep their bits.
    """

    kind = "logistic"
    EPOCHS = 400
    LEARNING_RATE = 0.5
    L2 = 1e-3

    def _matrix(self, rows) -> "np.ndarray":
        """Per numeric feature the scaled value (0 when missing) and a
        missing indicator, per categorical feature one indicator per
        category, and the intercept last, as a C-ordered matrix."""
        import numpy as np

        columns = []
        for name, kind in self.space_.items():
            values = [row.get(name) for row in rows]
            if kind == "numeric":
                mean, std = self.scaling_[name]
                columns.append([0.0 if v is None else (float(v) - mean) / std for v in values])
                columns.append([1.0 if v is None else 0.0 for v in values])
            else:
                text = [_categorical(v) for v in values]
                columns.extend([1.0 if t == c else 0.0 for t in text] for c in self.categories_[name])
        columns.append([1.0] * len(rows))
        return np.array(columns, dtype=np.float64).T.copy()

    def fit(self, rows, labels, space=None):
        import numpy as np

        self.space_ = _feature_space(rows) if space is None else space
        self.classes_ = sorted(set(labels))
        self.scaling_ = {}
        self.categories_ = {}
        for name, kind in self.space_.items():
            if kind == "numeric":
                values = [float(r[name]) for r in rows if r.get(name) is not None]
                mean = sum(values) / len(values) if values else 0.0
                var = sum((v - mean) ** 2 for v in values) / len(values) if values else 0.0
                self.scaling_[name] = (mean, math.sqrt(var) or 1.0)
            else:
                cats = {_categorical(r.get(name)) for r in rows}
                self.categories_[name] = sorted(cats)

        matrix = self._matrix(rows)
        index = {c: i for i, c in enumerate(self.classes_)}
        target = np.zeros((len(rows), len(self.classes_)))
        for i, label in enumerate(labels):
            target[i, index[label]] = 1.0

        self.weights_ = weights = np.zeros((matrix.shape[1], len(self.classes_)))
        n, decay = len(rows), np.empty_like(weights)
        for _ in range(self.EPOCHS):
            scores = matrix @ weights
            columns = [scores[:, j] for j in range(len(self.classes_))]
            scores -= reduce(np.maximum, columns)[:, None]
            np.exp(scores, out=scores)
            scores /= sum(columns[1:], columns[0])[:, None]
            scores -= target  # now probs - target
            gradient = matrix.T @ scores
            gradient /= n
            gradient += np.multiply(self.L2, weights, out=decay)
            gradient *= self.LEARNING_RATE
            weights -= gradient
        return self

    def predict_rows(self, rows) -> list[str]:
        import numpy as np

        return [self.classes_[int(np.argmax(row @ self.weights_))] for row in self._matrix(rows)]

    def predict(self, row) -> str:
        return self.predict_rows([row])[0]


class _TreeNode:
    """A leaf, or a split whose fields ``_build`` sets after creating it."""

    __slots__ = ("prediction", "feature", "threshold", "category", "missing_left", "left", "right")

    def __init__(self, prediction: str, feature: str | None = None,
                 threshold: float | None = None, category: str | None = None,
                 missing_left: bool = True, left: "_TreeNode | None" = None,
                 right: "_TreeNode | None" = None):
        self.prediction = prediction
        self.feature = feature
        self.threshold = threshold
        self.category = category
        self.missing_left = missing_left
        self.left = left
        self.right = right


class _Column(NamedTuple):
    """One feature of a tree's training rows, encoded once per fit.

    A numeric column holds float values with a missing mask (the values
    under the mask are placeholders); a categorical column holds codes into
    its sorted categories and no mask.
    """

    name: str
    values: "np.ndarray"
    missing: "np.ndarray | None" = None
    categories: tuple[str, ...] = ()

    @classmethod
    def encode(cls, rows, name: str, kind: str) -> "_Column":
        import numpy as np

        raw = [row.get(name) for row in rows]
        if kind == "numeric":
            values = np.array([0.0 if v is None else float(v) for v in raw], dtype=np.float64)
            return cls(name, values, np.array([v is None for v in raw], dtype=bool))
        text = [_categorical(v) for v in raw]
        categories = tuple(sorted(set(text)))
        code = {category: i for i, category in enumerate(categories)}
        return cls(name, np.array([code[t] for t in text], dtype=np.intp), categories=categories)


def _first_seen(codes) -> tuple[list[int], list[int]]:
    """The distinct codes in order of first appearance, and the position of
    each first appearance."""
    import numpy as np

    distinct, first = np.unique(codes, return_index=True)
    order = np.argsort(first)
    return distinct[order].tolist(), first[order].tolist()


class DecisionTreeClassifier(_Classifier):
    """CART-style tree on gini impurity with explicit missing handling.

    ``fit`` encodes the rows once: each numeric feature as a float column
    with a missing mask, each categorical feature as codes over its sorted
    categories (``⊥`` among them), and the labels as codes over the sorted
    labels. Each node then screens every split in vector form, from
    cumulative class counts over one stable sort of each numeric column and
    one category-by-class count table per categorical column.

    A split's gain is defined by the float expression in ``_gini``, with
    each side's class shares summed in order of first appearance: rows in
    their order, a numeric side in sorted order, and classes seen only in
    missing rows last, in missing-row order. Vector powers and other orders
    can move its last bit, and that bit decides between splits of equal
    partitions such as ``hfref`` and ``lvef <= 40.5``. So the splits whose
    screened gain lies within ``_RESCORE_WINDOW`` of the best are scored
    again that way, and the key ``(-gain, feature, threshold or category,
    not missing_left)`` picks among them.
    """

    kind = "decision-tree"

    _RESCORE_WINDOW = 1e-9  # far above the screen's rounding error

    def __init__(self, max_depth: int = 6, min_leaf: int = 5, min_split: int = 10):
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.min_split = min_split

    @staticmethod
    def _gini(counts: list[int], n: int) -> float:
        if n == 0:
            return 0.0
        return 1.0 - sum((c / n) ** 2 for c in counts)

    def _screen_gains(self, parent, n, left, n_left, right, n_right):
        """Approximate gains of many splits at once, with the splits that
        leave a side below ``min_leaf`` marked by -inf."""
        import numpy as np

        def gini(counts, size):
            return 1.0 - ((counts / np.maximum(size, 1)[:, None]) ** 2).sum(axis=1)

        gains = parent - (n_left / n * gini(left, n_left) + n_right / n * gini(right, n_right))
        allowed = (n_left >= self.min_leaf) & (n_right >= self.min_leaf)
        return np.where(allowed, gains, -np.inf)

    def _numeric_splits(self, column: _Column, idx, y, parent: float):
        """Screened gains and a re-scorer for every threshold of a numeric
        column, per missing side."""
        import numpy as np

        n = len(idx)
        missing = column.missing[idx]
        values = column.values[idx][~missing]
        if len(values) < 2:
            return []
        order = np.argsort(values, kind="stable")
        values, ranked = values[order], y[~missing][order]
        k = len(self.classes_)
        cumulative = np.cumsum(np.eye(k, dtype=np.int64)[ranked], axis=0)
        cuts = np.flatnonzero(values[:-1] != values[1:])  # last row left of a boundary
        left = cumulative[cuts]
        right = cumulative[-1] - left
        n_left = cuts + 1
        n_right = len(values) - n_left
        missing_labels = y[missing]
        n_missing = len(missing_labels)
        missing_counts = np.bincount(missing_labels, minlength=k)

        total = cumulative[-1].tolist()
        extra = missing_counts.tolist()

        def rescore(j: int, missing_left: bool):
            present_order, present_first = _first_seen(ranked)
            missing_order, _ = _first_seen(missing_labels)
            i = int(cuts[j])
            threshold = (float(values[i]) + float(values[i + 1])) / 2.0
            lc = cumulative[i].tolist()
            rc = [t - c for t, c in zip(total, lc)]
            left_keys = present_order[: bisect_right(present_first, i)]
            right_keys = present_order
            ln, rn = i + 1, len(values) - i - 1
            if missing_left:
                left_keys = left_keys + [c for c in missing_order if c not in left_keys]
                lc = [c + e for c, e in zip(lc, extra)]
                ln += n_missing
            else:
                right_keys = right_keys + [c for c in missing_order if c not in right_keys]
                rc = [c + e for c, e in zip(rc, extra)]
                rn += n_missing
            score = ln / n * self._gini([lc[c] for c in left_keys], ln) + rn / n * self._gini(
                [rc[c] for c in right_keys], rn
            )
            return parent - score, threshold, missing_left

        # with nothing missing both sides score alike and missing-left wins the key
        sides = [(True, left + missing_counts, n_left + n_missing, right, n_right)]
        if n_missing:
            sides.append((False, left, n_left, right + missing_counts, n_right + n_missing))
        return [
            (self._screen_gains(parent, n, lc, ln, rc, rn), partial(rescore, missing_left=missing_left))
            for missing_left, lc, ln, rc, rn in sides
        ]

    def _categorical_splits(self, column: _Column, idx, y, counts, parent: float):
        """Screened gains and a re-scorer for every category of a
        categorical column; index j of the gains is category code j."""
        import numpy as np

        k = len(self.classes_)
        n = len(idx)
        codes = column.values[idx]
        table = np.bincount(codes * k + y, minlength=len(column.categories) * k).reshape(-1, k)
        n_left = table.sum(axis=1)
        gains = self._screen_gains(parent, n, table, n_left, counts - table, n - n_left)
        gains[n_left == 0] = -np.inf  # categories absent from this node

        def rescore(j: int):
            on_left = codes == j
            lc, rc = table[j].tolist(), (counts - table[j]).tolist()
            ln = int(n_left[j])
            left_keys, _ = _first_seen(y[on_left])
            right_keys, _ = _first_seen(y[~on_left])
            score = ln / n * self._gini([lc[c] for c in left_keys], ln) + (n - ln) / n * self._gini(
                [rc[c] for c in right_keys], n - ln
            )
            return parent - score, column.categories[j], True

        return [(gains, rescore)]

    def _best_split(self, columns: list[_Column], idx, y):
        """The best split of the rows ``idx`` as ``(column, threshold or
        category, missing_left)``, or None when no split gains more than
        1e-12."""
        import numpy as np

        n = len(idx)
        counts = np.bincount(y, minlength=len(self.classes_))
        order, _ = _first_seen(y)
        parent = self._gini([int(counts[c]) for c in order], n)
        screened = []  # (column, gains, rescore)
        for column in columns:
            if column.missing is None:
                splits = self._categorical_splits(column, idx, y, counts, parent)
            else:
                splits = self._numeric_splits(column, idx, y, parent)
            screened.extend((column, gains, rescore) for gains, rescore in splits)
        top = max((float(gains.max()) for _, gains, _ in screened if len(gains)), default=-math.inf)
        if top == -math.inf:
            return None

        best = None
        for column, gains, rescore in screened:
            for j in np.flatnonzero(gains >= top - self._RESCORE_WINDOW).tolist():
                gain, pivot, missing_left = rescore(j)
                key = (-gain, column.name, pivot, not missing_left)
                if best is None or key < best[0]:
                    best = (key, column, pivot, missing_left)
        key, column, pivot, missing_left = best
        if -key[0] <= 1e-12:  # the gain
            return None
        return column, pivot, missing_left

    def _build(self, columns: list[_Column], labels, idx, depth: int) -> _TreeNode:
        import numpy as np

        y = labels[idx]
        counts = np.bincount(y, minlength=len(self.classes_))
        # codes follow the sorted labels, so the first maximum is the
        # lexicographically smallest of the most frequent labels
        node = _TreeNode(prediction=self.classes_[int(np.argmax(counts))])
        if (
            depth >= self.max_depth
            or len(idx) < self.min_split
            or np.count_nonzero(counts) == 1
        ):
            return node
        split = self._best_split(columns, idx, y)
        if split is None:
            return node
        column, pivot, missing_left = split
        if column.missing is None:
            goes_left = column.values[idx] == column.categories.index(pivot)
            node.feature, node.category = column.name, pivot
        else:
            goes_left = np.where(column.missing[idx], missing_left, column.values[idx] <= pivot)
            node.feature, node.threshold, node.missing_left = column.name, pivot, missing_left
        node.left = self._build(columns, labels, idx[goes_left], depth + 1)
        node.right = self._build(columns, labels, idx[~goes_left], depth + 1)
        return node

    def fit(self, rows, labels, space=None):
        import numpy as np

        rows = list(rows)
        self.space_ = _feature_space(rows) if space is None else space
        self.classes_ = sorted(set(labels))
        code = {label: i for i, label in enumerate(self.classes_)}
        codes = np.array([code[label] for label in labels], dtype=np.intp)
        columns = [_Column.encode(rows, name, kind) for name, kind in self.space_.items()]
        self.root_ = self._build(columns, codes, np.arange(len(rows)), 0)
        return self

    def predict(self, row) -> str:
        node = self.root_
        while node.left is not None:
            if node.threshold is not None:
                value = row.get(node.feature)
                if value is None:
                    node = node.left if node.missing_left else node.right
                elif float(value) <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            else:
                value = _categorical(row.get(node.feature))
                node = node.left if value == node.category else node.right
        return node.prediction

    def root_split(self) -> dict:
        root = self.root_
        if root.left is None:
            return {}
        if root.threshold is not None:
            return {"feature": root.feature, "threshold": root.threshold}
        return {"feature": root.feature, "category": root.category}


def make_classifier(kind: str):
    if kind == "majority":
        return MajorityClassifier()
    if kind == "naive-bayes":
        return NaiveBayesClassifier()
    if kind == "logistic":
        return LogisticClassifier()
    if kind == "decision-tree":
        return DecisionTreeClassifier()
    raise InputError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
