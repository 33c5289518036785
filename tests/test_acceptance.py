"""Acceptance suite: one test (or parametrized group) per criterion, each
printing a pass line; run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 2 carries one strict xfail: the source table's row for the
directly-follows miner at paths=1.0 prints an F1 of 0.83 that no harmonic
mean of its printed fitness/precision (1.00, 0.72 -> 0.8372) can reproduce
within +/-0.005; the other 25 rows reproduce exactly.
"""

import random
import time

import pytest
import scipy.stats as sps

from conftest import DATA_DIR, make_log
from oracles import brute_force_cost, cohort_log, random_trace, random_workflow_net
from pathminer.cli import main as cli_main
from pathminer.conformance import align, f1, fitness
from pathminer.decision_mining import Holdout, distribution, extract_instances, train_classifier
from pathminer.discovery import mine_dfm
from pathminer.patient_csv import parse_patient_csv
from pathminer.simulate import SimulationConfig, simulate
from pathminer.stats import compare_cohorts, dunn_bonferroni, kruskal_wallis
from pathminer.transform import split_sequence, transform_log
from pathminer.model import build_sequences
from test_stats import random_groups, reference_dunn


def report(criterion: str, message: str):
    print(f"[acceptance] {criterion} PASS — {message}")


def test_c01_worked_example_fidelity(table_csv_bytes):
    started = time.time()
    rows = parse_patient_csv(table_csv_bytes)
    log = transform_log(rows)
    assert log.activity_sequences() == {
        "007": ("Visit before CO", "HF", "Death_HF"),
        "008": ("Visit before CO",),
    }
    sequences = build_sequences(rows)
    split_007 = split_sequence(sequences["007"])
    split_008 = split_sequence(sequences["008"])
    assert [d.row_index for d in split_007.pre] == [1]
    assert [d.row_index for d in split_007.post] == [2, 3]
    assert [d.row_index for d in split_008.pre] == [4]
    assert split_008.post == ()
    elapsed = time.time() - started
    assert elapsed < 1.0
    report("C1", f"transformed sequences and splits match exactly ({elapsed:.2f}s)")


# (algorithm, parameter, fitness, precision, printed F1) from the published
# conformance table; the paths=1.0 row is arithmetically inconsistent.
PUBLISHED_F1_ROWS = [
    ("alpha", "-", 0.39, 0.44, 0.41),
    ("alpha-plus", "-", 0.39, 0.44, 0.41),
    ("alpha-sharp", "-", 0.96, 0.57, 0.72),
    ("dfm", "0.1", 0.75, 1.00, 0.86),
    ("dfm", "0.2", 0.75, 1.00, 0.86),
    ("dfm", "0.3", 0.75, 1.00, 0.86),
    ("dfm", "0.4", 0.75, 1.00, 0.86),
    ("dfm", "0.5", 0.75, 1.00, 0.86),
    ("dfm", "0.6", 0.75, 1.00, 0.86),
    ("dfm", "0.7", 0.84, 0.98, 0.90),
    ("dfm", "0.8", 0.91, 0.96, 0.93),
    pytest.param(
        "dfm", "1.0", 1.00, 0.72, 0.83,
        marks=pytest.mark.xfail(
            strict=True,
            reason="printed F1 0.83 is not the harmonic mean of the printed "
            "1.00/0.72 pair (exact value 0.8372); the source rounded from "
            "unrounded inputs",
        ),
    ),
    ("dfm", "0.9", 0.97, 0.94, 0.95),
    ("im-complete", "-", 1.00, 0.62, 0.77),
    ("im-frequent", "0.0", 1.00, 0.63, 0.77),
    ("im-frequent", "0.1", 0.99, 0.59, 0.74),
    ("im-frequent", "0.2", 0.96, 0.55, 0.70),
    ("im-frequent", "0.3", 0.46, 0.74, 0.57),
    ("im-frequent", "0.4", 0.45, 0.74, 0.56),
    ("im-frequent", "0.5", 0.41, 0.82, 0.55),
    ("im-frequent", "0.6", 0.41, 0.82, 0.55),
    ("im-frequent", "0.7", 0.33, 0.79, 0.47),
    ("im-frequent", "0.8", 0.33, 0.79, 0.47),
    ("im-frequent", "0.9", 0.33, 0.79, 0.47),
    ("im-frequent", "1.0", 0.27, 0.67, 0.38),
    ("dejure", "-", 1.00, 0.56, 0.72),
]


@pytest.mark.parametrize("algorithm,param,fit,prec,printed", PUBLISHED_F1_ROWS)
def test_c02_f1_matches_published_table(algorithm, param, fit, prec, printed):
    assert abs(f1(fit, prec) - printed) <= 0.005


def test_c02_summary():
    consistent = sum(
        1
        for row in PUBLISHED_F1_ROWS
        if not hasattr(row, "marks")
    )
    report(
        "C2",
        f"{consistent}/26 published F1 values reproduced within ±0.005; the "
        "paths=1.0 row is inconsistent in the source itself (strict xfail)",
    )


def test_c03_dejure_fitness_on_synthetic_cohorts(dejure):
    started = time.time()
    for seed in range(50):
        log = transform_log(simulate(SimulationConfig(patients=240, seed=seed)))
        value = fitness(dejure, log)
        assert f"{value:.4f}" == "1.0000"
    elapsed = time.time() - started
    assert elapsed < 60.0
    report("C3", f"fitness 1.0000 on all 50 seeded cohorts ({elapsed:.1f}s)")


def test_c04_dfm_self_fitness():
    started = time.time()
    rng = random.Random(404)
    for _ in range(25):
        alphabet = [chr(ord("a") + i) for i in range(rng.randint(2, 10))]
        traces = [
            tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(rng.randint(1, 200))
        ]
        log = make_log(*traces)
        net = mine_dfm(log, 1.0)
        value = fitness(net, log)
        assert f"{value:.4f}" == "1.0000"
    elapsed = time.time() - started
    assert elapsed < 60.0
    report("C4", f"paths=1.0 self-fitness 1.0000 on 25 random logs ({elapsed:.1f}s)")


def test_c05_alignment_optimality_oracle():
    started = time.time()
    rng = random.Random(505)
    checked = 0
    for _ in range(500):
        net = random_workflow_net(rng, max_transitions=8)
        trace = random_trace(rng, net, max_length=6)
        expected = brute_force_cost(net, trace)
        assert align(net, trace).total_cost == expected
        checked += 1
    elapsed = time.time() - started
    assert elapsed < 120.0
    report("C5", f"A* cost equals exhaustive minimum on {checked} instances ({elapsed:.1f}s)")


def test_c06_statistics_oracle():
    started = time.time()
    worked = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert worked.h == pytest.approx(7.2, abs=1e-9)
    assert worked.p_value == pytest.approx(0.0273, abs=1e-3)
    dunn = dunn_bonferroni([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert dunn.p_values[0][2] == pytest.approx(0.022, abs=1e-3)

    rng = random.Random(606)
    for _ in range(1000):
        groups = random_groups(rng)
        mine = kruskal_wallis(groups)
        expected_h, expected_p = sps.kruskal(*groups)
        assert mine.h == pytest.approx(expected_h, abs=1e-9)
        assert mine.p_value == pytest.approx(expected_p, abs=1e-9)
        mine_dunn = dunn_bonferroni(groups)
        ref = reference_dunn(groups)
        for i in range(len(groups)):
            for j in range(len(groups)):
                assert mine_dunn.p_values[i][j] == pytest.approx(ref[i][j], abs=1e-9)
    elapsed = time.time() - started
    assert elapsed < 30.0
    report("C6", f"1000 randomized inputs match the reference to 1e-9 ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def big_cohort_instances(dejure):
    log = transform_log(simulate(SimulationConfig(patients=10000, seed=2024)))
    p1 = extract_instances(dejure, log, "p1").instances
    p4 = extract_instances(dejure, log, "p4").instances
    return p1, p4


def test_c07_distribution_recovery(big_cohort_instances):
    started = time.time()
    p1, p4 = big_cohort_instances
    table_p1 = distribution(p1)
    for label, target in (
        ("None", 91.86), ("HF", 5.78), ("CV", 1.90), ("Stroke", 0.30), ("MI", 0.15),
    ):
        assert abs(table_p1.get(label, 0.0) - target) <= 1.0, label
    table_p4 = distribution(p4)
    for label, target in (
        ("None", 98.29), ("Death_AnyCause", 1.39), ("Death_HF", 0.33),
    ):
        assert abs(table_p4.get(label, 0.0) - target) <= 0.5, label
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(
        "C7",
        "p1 shares {} and p4 shares {} inside tolerance ({:.1f}s)".format(
            {k: round(v, 2) for k, v in table_p1.items()},
            {k: round(v, 2) for k, v in table_p4.items()},
            elapsed,
        ),
    )


def test_c08_majority_baseline_consistency(big_cohort_instances):
    started = time.time()
    from collections import Counter

    from pathminer.decision_mining import _stratified_split

    results = {}
    for place, instances, target in (
        ("p1", big_cohort_instances[0], 91.8),
        ("p4", big_cohort_instances[1], 98.0),
    ):
        report_obj = train_classifier(Holdout(instances, split=0.2, seed=0), "majority")
        labels = [inst.chosen for inst in instances]
        _, test_idx = _stratified_split(labels, 0.2, 0)
        holdout = [labels[i] for i in test_idx]
        top_share = 100.0 * max(Counter(holdout).values()) / len(holdout)
        assert report_obj.accuracy == pytest.approx(top_share, abs=1e-12)
        assert abs(report_obj.accuracy - target) <= 1.0
        results[place] = round(report_obj.accuracy, 2)
    elapsed = time.time() - started
    assert elapsed < 30.0
    report("C8", f"majority accuracy equals holdout top share: {results} ({elapsed:.1f}s)")


def test_c09_planted_rule_recovery(dejure):
    started = time.time()
    # decision-tree half: Death_HF happens exactly when NT pro-BNP > 1000
    from datetime import date, timedelta

    from pathminer.model import Outcome, PatientDatum

    rng = random.Random(909)
    rows = []
    index = 0
    for i in range(600):
        pat = f"t{i:04d}"
        bnp = round(rng.uniform(100.0, 2000.0), 1)
        day = date(2020, 1, 1) + timedelta(days=rng.randrange(300))
        for _ in range(rng.randint(1, 2)):
            index += 1
            rows.append(PatientDatum(pat, day, index, nt_pro_bnp=bnp, lvef=rng.randint(10, 70)))
            day += timedelta(days=30)
        if bnp > 1000.0:
            index += 1
            rows.append(
                PatientDatum(pat, day, index, nt_pro_bnp=bnp, outcome=Outcome.DEATH_HF)
            )
    log = transform_log(rows)
    instances = extract_instances(dejure, log, "p4").instances
    tree = train_classifier(Holdout(instances, split=0.2, seed=1), "decision-tree")
    assert tree.accuracy >= 95.0
    assert tree.detail["root_split"]["feature"] == "nt_pro_bnp"

    # cohort half: Death_HF five times more frequent for diabetic HFrEF
    log2 = cohort_log(
        "acceptance:planted",
        60,
        lambda flag, phen: 0.5 if (flag, phen) == (1, "HFrEF") else 0.1,
    )
    cohort_report = compare_cohorts(log2, "diabetes", alpha=0.05)
    death_row = {r.activity: r for r in cohort_report.rows}["Death_HF"]
    assert death_row.testable and death_row.kruskal.p_value < 0.05
    assert death_row.dunn is not None
    assert death_row.dunn.pair("D=1 and HFrEF", "D=0 and HFrEF") < 0.05
    elapsed = time.time() - started
    assert elapsed < 60.0
    report(
        "C9",
        f"tree {tree.accuracy:.1f}% with root on nt_pro_bnp; Dunn flags the "
        f"diabetic-HFrEF pair at {death_row.dunn.pair('D=1 and HFrEF', 'D=0 and HFrEF'):.4f} "
        f"({elapsed:.1f}s)",
    )


def test_c10_cli_determinism(tmp_path):
    started = time.time()
    table = DATA_DIR / "patients_table.csv"

    def run(args):
        assert cli_main([str(a) for a in args]) == 0

    log = tmp_path / "log.xes"
    net = tmp_path / "net.json"
    run(["transform", "--input", table, "--output", log])
    run(["dejure", "--output", net])

    invocations = [
        ("transform", lambda out: ["transform", "--input", table, "--output", out]),
        ("dejure", lambda out: ["dejure", "--output", out]),
        ("discover", lambda out: [
            "discover", "--input", log, "--algorithm", "dfg", "--paths", "0.9",
            "--output", out,
        ]),
        ("discover-alpha", lambda out: [
            "discover", "--input", log, "--algorithm", "alpha", "--output", out,
        ]),
        ("conform", lambda out: ["conform", "--log", log, "--net", net, "--output", out]),
        ("decide", lambda out: [
            "decide", "--log", log, "--net", net, "--place", "p1",
            "--classifiers", "majority,naive-bayes,logistic,decision-tree",
            "--seed", "5", "--output", out,
        ]),
        ("simulate", lambda out: [
            "simulate", "--patients", "120", "--seed", "9", "--output", out,
        ]),
    ]
    for name, build in invocations:
        first = tmp_path / f"{name}_1.out"
        second = tmp_path / f"{name}_2.out"
        run(build(first))
        run(build(second))
        assert first.read_bytes() == second.read_bytes(), name

    for axis in ("diabetes", "ckd"):
        dir_one = tmp_path / f"cohorts_{axis}_1"
        dir_two = tmp_path / f"cohorts_{axis}_2"
        run(["cohorts", "--log", log, "--axis", axis, "--outdir", dir_one])
        run(["cohorts", "--log", log, "--axis", axis, "--outdir", dir_two])
        for path in sorted(dir_one.iterdir()):
            assert path.read_bytes() == (dir_two / path.name).read_bytes()

    elapsed = time.time() - started
    assert elapsed < 60.0
    report("C10", f"all subcommands byte-identical across reruns ({elapsed:.1f}s)")
