"""Nonparametric cohort statistics over activity occurrence counts.

The Kruskal-Wallis omnibus test and Dunn's pairwise post-hoc test (with
Bonferroni adjustment) are implemented directly on mid-ranks, including the
usual tie corrections; both rank the pooled groups once, through one helper.
The chi-square tail is the closed form for integer degrees of freedom (a
finite Poisson sum, plus the complementary error function for odd degrees)
and the normal tail is the complementary error function, so results agree
with a statistics library to about 1e-14 without depending on one.

Cohorts cross a comorbidity axis (diabetes or CKD, taken from the first
event of each case) with the initial heart-failure phenotype, giving six
groups; the per-case occurrence counts of each activity are the samples
compared across groups.
"""

import math
from collections import Counter
from typing import NamedTuple

from .errors import InputError
from .model import VISIT_AFTER, VISIT_BEFORE, Event, EventLog, case_phenotype

# The activity rows of a cohort report, in canonical order: the two visit
# activities, the four hospitalization outcomes, then the two deaths.
ANALYSIS_ACTIVITIES: tuple[str, ...] = (
    VISIT_BEFORE,
    VISIT_AFTER,
    "CV",
    "HF",
    "Stroke",
    "MI",
    "Death_AnyCause",
    "Death_HF",
)

COHORT_AXES = ("diabetes", "ckd")
_AXIS_PREFIX = {"diabetes": "D", "ckd": "CKD"}

_PHENOTYPE_ORDER = ("HFmrEF", "HFpEF", "HFrEF")


def count_c(activity: str, case: str, log: EventLog) -> int:
    """How often ``activity`` occurs in the given case."""
    return sum(1 for e in log if e.case_id == case and e.activity == activity)


def count_l(activity: str, log: EventLog) -> list[int]:
    """Case-wise occurrence counts of ``activity``, one entry per case.

    The multiset is materialized as a list ordered by case id.
    """
    counts = {case: 0 for case in log.case_ids()}
    for event in log:
        if event.activity == activity:
            counts[event.case_id] += 1
    return [counts[case] for case in sorted(counts)]


# --- rank machinery and tail probabilities ---------------------------------


def midranks(values) -> list[float]:
    """Ranks 1..n with tied values sharing their average rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        average = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = average
        i = j + 1
    return ranks


def chi2_sf(x: float, df: int) -> float:
    """Upper tail of the chi-square distribution with an integer ``df``.

    The closed form of Abramowitz & Stegun 26.4.4-26.4.5: exp(-x/2) times a
    Poisson sum for even ``df``; erfc(sqrt(x/2)) plus exp(-x/2) times a sum
    over odd powers of sqrt(x) for odd ``df``. Each term is the previous one
    times x / d and stays at most 1. Above x = 1416, exp(-x/2) is no longer
    a normal float: the tail is then below 1e-48 for df <= x / 2, and any
    larger df is an ``InputError`` rather than a wrong tail.
    """
    if x < 0 or df < 1 or df % 1:
        raise InputError("chi2_sf requires x >= 0 and an integer df >= 1")
    if x > 1416.0 and df > x / 2:
        raise InputError(f"chi2_sf cannot resolve x = {x} with df = {df} > x / 2 above x = 1416")
    df = int(df)
    total, term = 0.0, math.exp(-x / 2.0)
    if df % 2:
        total, term = math.erfc(math.sqrt(x / 2.0)), term * math.sqrt(2.0 * x / math.pi)
    for d in range(2 + df % 2, df + 2, 2):
        total += term
        term *= x / d
    return min(1.0, total)  # the sum may round one ulp above 1 for small x


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal distribution."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# --- the tests --------------------------------------------------------------


class KruskalResult(NamedTuple):
    h: float
    df: int
    p_value: float


class DunnMatrix(NamedTuple):
    labels: tuple[str, ...]
    p_values: tuple[tuple[float, ...], ...]

    def pair(self, a: str, b: str) -> float:
        return self.p_values[self.labels.index(a)][self.labels.index(b)]


def _ranked(groups):
    """Check the groups and rank them pooled: the group sizes, the pooled
    size, each group's sum of mid-ranks, and the tie sum, sum(t^3 - t)."""
    groups = [list(g) for g in groups]
    if len(groups) < 2:
        raise InputError("at least two groups are required")
    if any(len(g) == 0 for g in groups):
        raise InputError("every group must be non-empty")
    if sum(len(g) for g in groups) < 3:
        raise InputError("at least three observations are required")
    pooled = [v for g in groups for v in g]
    ranks = midranks(pooled)
    rank_sums = []
    offset = 0
    for g in groups:
        rank_sums.append(sum(ranks[offset:offset + len(g)]))
        offset += len(g)
    ties = float(sum(t**3 - t for t in Counter(pooled).values() if t > 1))
    return [len(g) for g in groups], len(pooled), rank_sums, ties


def kruskal_wallis(groups) -> KruskalResult:
    """Rank-based k-group omnibus test with tie correction.

    H = [12 / (N (N+1)) * sum R_j^2 / n_j - 3 (N+1)] / (1 - sum(t^3 - t) / (N^3 - N)).
    When every observation is tied the correction degenerates and the result
    is defined as H = 0, p = 1. The p-value is the chi-square upper tail
    with k - 1 degrees of freedom.
    """
    sizes, n_total, rank_sums, ties = _ranked(groups)
    h_raw = 0.0
    for rank_sum, size in zip(rank_sums, sizes):
        h_raw += rank_sum * rank_sum / size
    h_raw = 12.0 / (n_total * (n_total + 1)) * h_raw - 3.0 * (n_total + 1)

    correction = 1.0 - ties / (n_total**3 - n_total)
    df = len(sizes) - 1
    if correction <= 0.0:
        return KruskalResult(0.0, df, 1.0)
    h = h_raw / correction
    if h < 0.0:  # guard against round-off below zero
        h = 0.0
    return KruskalResult(h, df, chi2_sf(h, df))


def dunn_bonferroni(groups, labels=None) -> DunnMatrix:
    """Dunn's pairwise z-tests on mean ranks, Bonferroni-adjusted.

    z_ij = (Rbar_i - Rbar_j) / sqrt((N (N+1) / 12 - T) (1/n_i + 1/n_j)) with
    tie term T = sum(t^3 - t) / (12 (N - 1)); the two-sided normal p-value
    is multiplied by the number of pairs and clipped at 1.
    """
    sizes, n_total, rank_sums, ties = _ranked(groups)
    k = len(sizes)
    if labels is None:
        labels = tuple(f"group{i + 1}" for i in range(k))
    labels = tuple(labels)
    if len(labels) != k:
        raise InputError("labels and groups disagree in length")

    mean_ranks = [rank_sum / size for rank_sum, size in zip(rank_sums, sizes)]
    tie_term = ties / (12.0 * (n_total - 1))
    variance_factor = n_total * (n_total + 1) / 12.0 - tie_term

    pair_count = k * (k - 1) // 2
    matrix = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            scale = variance_factor * (1.0 / sizes[i] + 1.0 / sizes[j])
            if scale <= 0.0:
                z = 0.0
            else:
                z = abs(mean_ranks[i] - mean_ranks[j]) / math.sqrt(scale)
            adjusted = min(1.0, pair_count * 2.0 * normal_sf(z))
            matrix[i][j] = matrix[j][i] = adjusted
    return DunnMatrix(labels, tuple(tuple(row) for row in matrix))


# --- cohort comparison -------------------------------------------------------


def case_flag(trace: tuple[Event, ...], axis: str) -> int | None:
    """Comorbidity flag (0/1) of a case from its first event, or None."""
    value = trace[0].attributes.get(axis)
    if isinstance(value, bool):
        return int(value)
    return None


class ActivityTest(NamedTuple):
    activity: str
    testable: bool
    reason: str = ""
    kruskal: KruskalResult | None = None
    dunn: DunnMatrix | None = None


class CohortReport(NamedTuple):
    axis: str
    alpha: float
    group_labels: tuple[str, ...]
    group_sizes: dict[str, int]
    excluded_cases: int
    rows: tuple[ActivityTest, ...]


def group_label(axis: str, flag: int, phenotype: str) -> str:
    return f"{_AXIS_PREFIX[axis]}={flag} and {phenotype}"


def compare_cohorts(log: EventLog, axis: str, alpha: float = 0.05) -> CohortReport:
    """Kruskal-Wallis per activity across the six comorbidity-phenotype
    groups, with Dunn post-hoc matrices where the omnibus test rejects.

    Cases whose flag or phenotype cannot be determined are excluded and
    counted. An activity whose six groups cannot all be populated is flagged
    not testable instead of raising. ``alpha`` must lie in (0, 1).
    """
    if axis not in COHORT_AXES:
        raise InputError(f"axis must be one of {COHORT_AXES}, got {axis!r}")
    if not 0 < alpha < 1:  # false for nan too
        raise InputError(f"alpha must lie in (0, 1), got {alpha}")

    traces = log.traces()
    keys = [
        (flag, phenotype)
        for flag in (0, 1)
        for phenotype in _PHENOTYPE_ORDER
    ]
    members: dict[tuple[int, str], list[str]] = {key: [] for key in keys}
    excluded = 0
    for case, trace in traces.items():
        flag = case_flag(trace, axis)
        phenotype = case_phenotype(trace)
        if flag is None or phenotype is None:
            excluded += 1
            continue
        members[(flag, phenotype)].append(case)

    labels = tuple(group_label(axis, flag, phenotype) for flag, phenotype in keys)
    sizes = {
        group_label(axis, flag, phenotype): len(members[(flag, phenotype)])
        for flag, phenotype in keys
    }

    case_counts: dict[tuple[str, str], int] = {}
    for event in log:
        key = (event.case_id, event.activity)
        case_counts[key] = case_counts.get(key, 0) + 1

    rows: list[ActivityTest] = []
    for activity in ANALYSIS_ACTIVITIES:
        groups = [
            [case_counts.get((case, activity), 0) for case in members[key]]
            for key in keys
        ]
        if any(not g for g in groups):
            rows.append(ActivityTest(activity, False, reason="empty group"))
            continue
        result = kruskal_wallis(groups)
        dunn = None
        if result.p_value < alpha:
            dunn = dunn_bonferroni(groups, labels)
        rows.append(ActivityTest(activity, True, kruskal=result, dunn=dunn))
    return CohortReport(axis, alpha, labels, sizes, excluded, tuple(rows))
