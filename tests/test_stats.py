import math
import random
from datetime import date, timedelta

import numpy as np
import pytest
import scipy.stats as sps

from oracles import PHENOTYPE_FLAGS, cohort_log, reference_chi2_sf
from pathminer.errors import InputError
from pathminer.model import Event, EventLog
from pathminer.stats import (
    ANALYSIS_ACTIVITIES,
    chi2_sf,
    compare_cohorts,
    count_c,
    count_l,
    dunn_bonferroni,
    kruskal_wallis,
    midranks,
    normal_sf,
)


class TestOccurrenceCounts:
    def test_case_counts_on_example_log(self, example_log):
        assert count_c("HF", "007", example_log) == 1
        assert count_c("HF", "008", example_log) == 0
        assert count_c("Visit before CO", "007", example_log) == 1

    def test_log_counts_on_example_log(self, example_log):
        assert count_l("Visit before CO", example_log) == [1, 1]
        assert count_l("HF", example_log) == [1, 0]

    def test_empty_log(self):
        assert count_l("HF", EventLog()) == []

    def test_cardinality_and_total(self, example_log):
        cases = example_log.case_ids()
        for activity in example_log.activities():
            assert len(count_l(activity, example_log)) == len(cases)
        total = sum(
            sum(count_l(activity, example_log))
            for activity in example_log.activities()
        )
        assert total == len(example_log)


def random_groups(rng):
    k = rng.randint(2, 6)
    groups = []
    for _ in range(k):
        size = rng.randint(3, 12)
        if rng.random() < 0.5:
            groups.append([rng.randint(0, 6) for _ in range(size)])
        else:
            groups.append([round(rng.uniform(0, 5), 1) for _ in range(size)])
    flat = {v for g in groups for v in g}
    if len(flat) == 1:
        groups[0][0] += 1  # avoid the fully degenerate all-ties case
    return groups


def reference_dunn(groups):
    """Dunn's test re-derived with scipy/numpy primitives."""
    pooled = np.concatenate([np.asarray(g, dtype=float) for g in groups])
    ranks = sps.rankdata(pooled)
    n = len(pooled)
    sizes, means = [], []
    at = 0
    for g in groups:
        sizes.append(len(g))
        means.append(ranks[at:at + len(g)].mean())
        at += len(g)
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float((tie_counts**3 - tie_counts).sum()) / (12.0 * (n - 1))
    variance = n * (n + 1) / 12.0 - tie_term
    k = len(groups)
    pairs = k * (k - 1) // 2
    matrix = [[1.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            scale = variance * (1.0 / sizes[i] + 1.0 / sizes[j])
            z = abs(means[i] - means[j]) / math.sqrt(scale) if scale > 0 else 0.0
            matrix[i][j] = matrix[j][i] = min(1.0, pairs * 2.0 * sps.norm.sf(z))
    return matrix


class TestKruskalWallis:
    def test_worked_example(self):
        result = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert result.h == pytest.approx(7.2, abs=1e-9)
        assert result.df == 2
        assert result.p_value == pytest.approx(0.0273, abs=1e-3)

    def test_all_tied_is_defined(self):
        result = kruskal_wallis([[5, 5], [5, 5], [5, 5]])
        assert result.h == 0.0 and result.p_value == 1.0

    def test_single_group_rejected(self):
        with pytest.raises(InputError, match="^at least two groups are required$"):
            kruskal_wallis([[1, 2, 3]])

    def test_empty_group_rejected(self):
        with pytest.raises(InputError, match="^every group must be non-empty$"):
            kruskal_wallis([[1, 2], []])

    def test_fewer_than_three_observations_rejected(self):
        with pytest.raises(InputError, match="^at least three observations are required$"):
            kruskal_wallis([[1], [2]])

    def test_matches_reference_on_random_inputs(self):
        rng = random.Random(101)
        for _ in range(300):
            groups = random_groups(rng)
            mine = kruskal_wallis(groups)
            expected_h, expected_p = sps.kruskal(*groups)
            assert mine.h == pytest.approx(expected_h, abs=1e-9)
            assert mine.p_value == pytest.approx(expected_p, abs=1e-9)

    def test_invariant_under_monotone_transforms(self):
        rng = random.Random(55)
        for _ in range(50):
            groups = [[rng.randint(0, 8) for _ in range(5)] for _ in range(3)]
            if len({v for g in groups for v in g}) == 1:
                continue
            base = kruskal_wallis(groups)
            transformed = kruskal_wallis(
                [[2 * v**3 + 5 for v in g] for g in groups]
            )
            assert transformed.h == pytest.approx(base.h, abs=1e-12)


class TestDunn:
    def test_worked_example_pair(self):
        matrix = dunn_bonferroni([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert matrix.p_values[0][2] == pytest.approx(0.022, abs=1e-3)

    @pytest.mark.parametrize("labels", [("a",), ("a", "b", "c")])
    def test_labels_of_another_length_rejected(self, labels):
        with pytest.raises(InputError, match="^labels and groups disagree in length$"):
            dunn_bonferroni([[1, 2, 3], [4, 5, 6]], labels)

    def test_identical_groups_not_flagged(self):
        matrix = dunn_bonferroni([[1, 2, 3], [1, 2, 3]])
        assert matrix.p_values[0][1] == 1.0

    def test_matrix_shape_properties(self):
        rng = random.Random(9)
        for _ in range(50):
            groups = random_groups(rng)
            matrix = dunn_bonferroni(groups)
            k = len(groups)
            for i in range(k):
                assert matrix.p_values[i][i] == 1.0
                for j in range(k):
                    value = matrix.p_values[i][j]
                    assert value == matrix.p_values[j][i]
                    assert 0.0 <= value <= 1.0

    def test_adjusted_never_below_raw(self):
        groups = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        matrix = dunn_bonferroni(groups)
        z = 6 / math.sqrt(7.5 * (2 / 3))
        raw = 2 * normal_sf(z)
        assert matrix.p_values[0][2] >= raw

    def test_matches_reference_on_random_inputs(self):
        rng = random.Random(303)
        for _ in range(300):
            groups = random_groups(rng)
            mine = dunn_bonferroni(groups)
            expected = reference_dunn(groups)
            for i in range(len(groups)):
                for j in range(len(groups)):
                    assert mine.p_values[i][j] == pytest.approx(
                        expected[i][j], abs=1e-9
                    )


class TestTailProbabilities:
    def test_chi2_against_scipy(self):
        for x in (0.0, 0.5, 1.0, 3.3, 7.2, 15.0, 40.0):
            for df in (1, 2, 5, 10):
                assert chi2_sf(x, df) == pytest.approx(
                    sps.chi2.sf(x, df), abs=1e-12
                )

    def test_chi2_closed_form_against_the_incomplete_gamma_and_scipy(self):
        rng = random.Random(26)
        grid = [(x, df) for df in range(1, 31)
                for x in (0.0, 1e-300, 1e-12, 1e-6, 0.5, 3.3, 7.2, 40.0, 200.0)]
        drawn = [(rng.choice((rng.uniform(0.0, 200.0), 10 ** rng.uniform(-12.0, 2.0))),
                  rng.randint(1, 30)) for _ in range(3000)]
        for x, df in grid + drawn:
            closed = chi2_sf(x, df)
            assert abs(closed - reference_chi2_sf(x, df)) <= 1e-14, (x, df)
            assert abs(closed - sps.chi2.sf(x, df)) <= 1e-12, (x, df)
            assert 0.0 <= closed <= 1.0

    @pytest.mark.parametrize("x,df", [(1.0, 0), (1.0, -1), (1.0, 2.5), (-1.0, 3)])
    def test_chi2_rejects_negative_x_and_non_integer_or_non_positive_df(self, x, df):
        with pytest.raises(InputError, match="x >= 0 and an integer df >= 1"):
            chi2_sf(x, df)

    def test_chi2_beyond_the_normal_range_of_exp(self):
        # exp(-x/2) is no longer a normal float above x = 1416: the tail is
        # still exact to double precision for df <= x / 2, and refused above
        for x, df in ((1416.0, 1416), (1417.0, 708), (1500.0, 750), (3000.0, 5)):
            assert abs(chi2_sf(x, df) - sps.chi2.sf(x, df)) <= 1e-12 * sps.chi2.sf(x, df) + 1e-48
        with pytest.raises(InputError, match="cannot resolve"):
            chi2_sf(1500.0, 751)

    def test_normal_against_scipy(self):
        for z in (0.0, 0.5, 1.96, 2.683, 4.0, 8.0):
            assert normal_sf(z) == pytest.approx(sps.norm.sf(z), rel=1e-12)

    def test_midranks_match_scipy(self):
        rng = random.Random(4)
        for _ in range(50):
            values = [rng.randint(0, 5) for _ in range(rng.randint(1, 30))]
            assert midranks(values) == list(sps.rankdata(values))


class TestCompareCohorts:
    def test_planted_diabetic_hfref_excess(self):
        log = cohort_log(
            "planted:0",
            60,
            lambda flag, phen: 0.5 if (flag, phen) == (1, "HFrEF") else 0.1,
        )
        report = compare_cohorts(log, "diabetes")
        rows = {r.activity: r for r in report.rows}
        death = rows["Death_HF"]
        assert death.testable
        assert death.kruskal.p_value < 0.05
        assert death.dunn is not None
        assert death.dunn.pair("D=1 and HFrEF", "D=0 and HFrEF") < 0.05

    def test_null_generation_calibration(self):
        # identical generation across the six groups: the family-wise
        # "all 8 clear" rate sits near 0.95^8 ~ 0.66 for calibrated tests
        # and the per-activity false-positive rate near alpha
        family_clear = 0
        false_positives = {a: 0 for a in ANALYSIS_ACTIVITIES}
        seeds = 100
        for seed in range(seeds):
            log = _null_log(seed)
            report = compare_cohorts(log, "diabetes")
            all_clear = True
            for row in report.rows:
                assert row.testable
                if row.kruskal.p_value <= 0.05:
                    false_positives[row.activity] += 1
                    all_clear = False
            if all_clear:
                family_clear += 1
        assert family_clear >= 65
        for activity, count in false_positives.items():
            assert count <= 12, f"{activity} rejected too often under the null"

    def test_log_without_ckd_information_is_not_testable(self, example_log):
        report = compare_cohorts(example_log, "ckd")
        assert all(not row.testable for row in report.rows)

    def test_excluded_cases_are_counted(self):
        events = [
            Event("known", "Visit before CO", date(2020, 1, 1),
                  {"diabetes": True, "hfref": True, "hfmref": False, "hfpef": False}),
            Event("unknown", "Visit before CO", date(2020, 1, 1), {}),
        ]
        report = compare_cohorts(EventLog(tuple(events)), "diabetes")
        assert report.excluded_cases == 1

    def test_unknown_axis_rejected(self, example_log):
        with pytest.raises(InputError):
            compare_cohorts(example_log, "smoking")

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.05, math.nan, math.inf])
    def test_alpha_outside_the_open_unit_interval_rejected(self, example_log, alpha):
        with pytest.raises(InputError, match=r"alpha must lie in \(0, 1\)"):
            compare_cohorts(example_log, "diabetes", alpha)

    def test_report_covers_all_eight_activities(self):
        log = _null_log(1)
        report = compare_cohorts(log, "diabetes")
        assert tuple(r.activity for r in report.rows) == ANALYSIS_ACTIVITIES


def _null_log(seed, cases_per_group=20):
    """Identical generation in every group; rare extra events per activity."""
    rng = random.Random(f"null:{seed}")
    events = []
    case_n = 0
    for flag in (0, 1):
        for phenotype, flags in PHENOTYPE_FLAGS.items():
            for _ in range(cases_per_group):
                case_n += 1
                cid = f"c{case_n:04d}"
                attrs = dict(flags, diabetes=bool(flag), ckd=bool(flag))
                day = date(2020, 1, 1)
                events.append(Event(cid, "Visit before CO", day, dict(attrs)))
                for activity in ANALYSIS_ACTIVITIES[1:]:
                    extra = sum(rng.random() < 0.15 for _ in range(2))
                    for _ in range(extra):
                        day += timedelta(days=1)
                        events.append(Event(cid, activity, day, dict(attrs)))
    return EventLog(tuple(events))


def test_dunn_on_groups_all_tied_gives_p_one_for_every_pair():
    assert dunn_bonferroni([[1, 1], [1, 1, 1]]).p_values == ((1.0, 1.0), (1.0, 1.0))


def test_kruskal_wallis_clips_a_round_off_below_zero():
    # equal mean ranks, so H is 0; in floats its raw sum comes to -2.8e-14 at N = 66
    groups = [[*range(1, 17), *range(51, 67)], list(range(17, 51))]
    assert kruskal_wallis(groups) == (0.0, 1, 1.0)
