"""Small deterministic classifiers over one column encoding per place.

``encode`` turns rows, ``{attribute: value}`` dicts in which any value may
be None, into one column per feature: floats with a missing mask, or codes
into the training rows' sorted categories, where a missing value is the
``⊥`` category and a text that no training row holds is -1. Each model fits
on the columns at the training row positions and predicts at others.
Missing data is part of the contract, never imputed behind the caller's
back:

- majority: ignores features entirely.
- naive Bayes: a missing value simply drops that feature's likelihood term;
  a literal ``⊥`` text is a category like any other.
- logistic regression: numeric features are mean-imputed and paired with a
  missing indicator column; categoricals are one-hot, ``⊥`` included.
- decision tree: missing is its own branch content; numeric splits route
  missing rows to whichever side scores better, and categorical splits may
  test for missingness itself.

Nothing here draws randomness: training is deterministic given the rows.
``encode`` is pure Python, so only logistic regression and the tree load
numpy.
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


class Column(NamedTuple):
    """One feature of a place's rows, indexed by row position.

    A numeric column (``categories`` None) holds floats, 0.0 where missing;
    a categorical one holds codes into ``categories``. ``missing`` marks the
    rows whose value is None.
    """

    name: str
    values: list
    missing: list[bool]
    categories: tuple[str, ...] | None = None


def encode(rows, space: dict[str, str], train) -> list[Column]:
    """One column per feature of ``space`` over ``rows``, with categories
    drawn from the rows at the positions ``train``."""
    columns = []
    for name, kind in space.items():
        raw = [row.get(name) for row in rows]
        missing = [value is None for value in raw]
        if kind == "numeric":
            columns.append(Column(name, [0.0 if v is None else float(v) for v in raw], missing))
            continue
        text = [_categorical(v) for v in raw]
        categories = tuple(sorted({text[i] for i in train}))
        code = {category: j for j, category in enumerate(categories)}
        columns.append(Column(name, [code.get(t, -1) for t in text], missing, categories))
    return columns


class MajorityClassifier:
    """Predicts the most frequent training label, ties broken
    lexicographically."""

    def fit(self, columns, rows, labels):
        counts = Counter(labels)
        top = max(counts.values())
        self.label_ = min(l for l, c in counts.items() if c == top)
        return self

    def predict(self, columns, rows) -> list[str]:
        return [self.label_] * len(rows)


def _gaussian(values) -> tuple[float, float, float] | None:
    """One class's Gaussian as (mean, -0.5*log(2πvar), 2*var)."""
    if not values:
        return None
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values) + 1e-9
    return mean, -0.5 * math.log(2 * math.pi * var), 2 * var


class NaiveBayesClassifier:
    """Gaussian/categorical naive Bayes with per-row feature skipping.

    Per column, ``terms_`` holds each class's Gaussian (None without
    values), or per-class log-probabilities by category code and for an
    unseen one. Only rows with a value count, so a missing value is no
    category here.
    """

    def fit(self, columns, rows, labels):
        self.classes_ = sorted(set(labels))
        by_class = {c: [] for c in self.classes_}
        for i, label in zip(rows, labels):
            by_class[label].append(i)
        self.log_prior_ = [math.log(len(by_class[c]) / len(labels)) for c in self.classes_]
        self.terms_ = []
        for column in columns:
            present = [[column.values[i] for i in by_class[c] if not column.missing[i]]
                       for c in self.classes_]
            if column.categories is None:
                self.terms_.append([_gaussian(values) for values in present])
                continue
            tallies = [Counter(codes) for codes in present]
            cats = set().union(*tallies)
            table = {cat: [math.log((t[cat] + 1) / (t.total() + len(cats))) for t in tallies] for cat in cats}
            unseen = [-math.log(len(cats) + 1) if cats else 0.0] * len(self.classes_)
            self.terms_.append((table, unseen))
        return self

    def _scores(self, columns, i: int) -> list[float]:
        """Each class's prior plus the terms of row ``i``'s present
        features, added in feature order."""
        scores = list(self.log_prior_)
        for column, terms in zip(columns, self.terms_):
            if column.missing[i]:
                continue
            x = column.values[i]
            if column.categories is None:
                for c, gaussian in enumerate(terms):
                    if gaussian is not None:
                        scores[c] += gaussian[1] - ((x - gaussian[0]) ** 2) / gaussian[2]
            else:
                for c, logp in enumerate(terms[0].get(x, terms[1])):
                    scores[c] += logp
        return scores

    def predict(self, columns, rows) -> list[str]:
        predicted = []
        for i in rows:
            scores = self._scores(columns, i)
            predicted.append(self.classes_[max(range(len(scores)), key=scores.__getitem__)])
        return predicted


class LogisticClassifier:
    """Multinomial softmax regression trained by full-batch gradient
    descent from a zero start; no randomness involved.

    Each row is scored as its own vector-matrix product. The epoch loop
    reduces over the class columns left to right and works in place, with
    the float operations of a row-wise softmax, so the weights keep their
    bits.
    """

    EPOCHS = 400
    LEARNING_RATE = 0.5
    L2 = 1e-3

    def _matrix(self, columns, rows) -> "np.ndarray":
        """Per numeric column the scaled value (0 when missing) and a
        missing indicator, per categorical column one indicator per
        category, and the intercept last, as a C-ordered matrix."""
        import numpy as np

        idx = np.asarray(rows, dtype=np.intp)
        parts = []
        for column, scaling in zip(columns, self.scaling_):
            values = np.asarray(column.values)[idx]
            if scaling is None:
                parts.extend(values == j for j in range(len(column.categories)))
            else:
                missing = np.asarray(column.missing, dtype=bool)[idx]
                parts += [np.where(missing, 0.0, (values - scaling[0]) / scaling[1]), missing]
        parts.append(np.ones(len(idx)))
        return np.array(parts, dtype=np.float64).T.copy()

    def fit(self, columns, rows, labels):
        import numpy as np

        self.classes_ = sorted(set(labels))
        self.scaling_ = []  # per column (mean, std) of its present values, None if categorical
        for column in columns:
            if column.categories is not None:
                self.scaling_.append(None)
                continue
            values = [column.values[i] for i in rows if not column.missing[i]]
            mean = sum(values) / len(values) if values else 0.0
            var = sum((v - mean) ** 2 for v in values) / len(values) if values else 0.0
            self.scaling_.append((mean, math.sqrt(var) or 1.0))

        matrix = self._matrix(columns, rows)
        index = {c: i for i, c in enumerate(self.classes_)}
        target = np.zeros((len(rows), len(self.classes_)))
        for i, label in enumerate(labels):
            target[i, index[label]] = 1.0

        self.weights_ = weights = np.zeros((matrix.shape[1], len(self.classes_)))
        n, decay = len(rows), np.empty_like(weights)
        for _ in range(self.EPOCHS):
            scores = matrix @ weights
            per_class = [scores[:, j] for j in range(len(self.classes_))]
            scores -= reduce(np.maximum, per_class)[:, None]
            np.exp(scores, out=scores)
            scores /= sum(per_class[1:], per_class[0])[:, None]
            scores -= target  # now probs - target
            gradient = matrix.T @ scores
            gradient /= n
            gradient += np.multiply(self.L2, weights, out=decay)
            gradient *= self.LEARNING_RATE
            weights -= gradient
        return self

    def predict(self, columns, rows) -> list[str]:
        import numpy as np

        return [self.classes_[int(np.argmax(row @ self.weights_))] for row in self._matrix(columns, rows)]


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


def _first_seen(codes) -> tuple[list[int], list[int]]:
    """The distinct codes in order of first appearance, and the position of
    each first appearance."""
    import numpy as np

    distinct, first = np.unique(codes, return_index=True)
    order = np.argsort(first)
    return distinct[order].tolist(), first[order].tolist()


class DecisionTreeClassifier:
    """CART-style tree on gini impurity with explicit missing handling.

    ``fit`` reads the columns as arrays, where a categorical column's
    missing mask plays no part (a missing value is the ``⊥`` category), and
    the labels as codes over the sorted labels. Each node then screens every
    split in vector form, from cumulative class counts over one stable sort
    of each numeric column and one category-by-class count table per
    categorical column.

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

    def _numeric_splits(self, column: Column, idx, y, parent: float):
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

    def _categorical_splits(self, column: Column, idx, y, counts, parent: float):
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

    def _best_split(self, columns: list[Column], idx, y):
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
            if column.categories is None:
                splits = self._numeric_splits(column, idx, y, parent)
            else:
                splits = self._categorical_splits(column, idx, y, counts, parent)
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

    def _build(self, columns: list[Column], labels, idx, depth: int) -> _TreeNode:
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
        if column.categories is None:
            goes_left = np.where(column.missing[idx], missing_left, column.values[idx] <= pivot)
            node.feature, node.threshold, node.missing_left = column.name, pivot, missing_left
        else:
            goes_left = column.values[idx] == column.categories.index(pivot)
            node.feature, node.category = column.name, pivot
        node.left = self._build(columns, labels, idx[goes_left], depth + 1)
        node.right = self._build(columns, labels, idx[~goes_left], depth + 1)
        return node

    def fit(self, columns, rows, labels):
        import numpy as np

        self.classes_ = sorted(set(labels))
        code = {label: i for i, label in enumerate(self.classes_)}
        codes = np.zeros(max(rows) + 1, dtype=np.intp)
        codes[rows] = [code[label] for label in labels]
        arrays = [column._replace(values=np.asarray(column.values),
                                  missing=np.asarray(column.missing, dtype=bool)) for column in columns]
        self.root_ = self._build(arrays, codes, np.asarray(rows, dtype=np.intp), 0)
        return self

    def predict(self, columns, rows) -> list[str]:
        by_name = {column.name: column for column in columns}
        predicted = []
        for i in rows:
            node = self.root_
            while node.left is not None:
                column = by_name[node.feature]
                if node.threshold is None:
                    code = column.values[i]
                    goes_left = code >= 0 and column.categories[code] == node.category
                elif column.missing[i]:
                    goes_left = node.missing_left
                else:
                    goes_left = column.values[i] <= node.threshold
                node = node.left if goes_left else node.right
            predicted.append(node.prediction)
        return predicted

    def root_split(self) -> dict:
        root = self.root_
        if root.left is None:
            return {}
        if root.threshold is not None:
            return {"feature": root.feature, "threshold": root.threshold}
        return {"feature": root.feature, "category": root.category}


_MODELS = {"majority": MajorityClassifier, "naive-bayes": NaiveBayesClassifier,
           "logistic": LogisticClassifier, "decision-tree": DecisionTreeClassifier}
KINDS = tuple(_MODELS)


def make_classifier(kind: str):
    if kind not in _MODELS:
        raise InputError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
    return _MODELS[kind]()
