"""Output checks that are computed apart from pathminer.

Every expected value here is derived from the generated patient CSV with
this file's own ``csv`` and XML reading, or from scipy, never from a stored
copy of an earlier output. A failed check raises :class:`CheckError`.
"""

import csv
import json
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass

VISIT_BEFORE = "Visit before CO"
VISIT_AFTER = "Visit after CO"
DEATHS = ("Death_AnyCause", "Death_HF")
# The activities a cohort report tests, in the order the CLI prints them.
COHORT_ACTIVITIES = (VISIT_BEFORE, VISIT_AFTER, "CV", "HF", "Stroke", "MI") + DEATHS
PHENOTYPES = ("HFmrEF", "HFpEF", "HFrEF")
AXIS_PREFIX = {"diabetes": "D", "ckd": "CKD"}

# Printed metrics carry four decimals, so a value recomputed here may differ
# from the printed one by half a unit in the last place plus float noise.
HALF_ULP_4 = 0.5e-4 + 1e-9


class CheckError(Exception):
    """An output of the program disagrees with the independent expectation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass(frozen=True)
class CohortFacts:
    """What the benchmark knows about one patient CSV without pathminer."""

    rows: int
    sequences: dict  # case id -> tuple of activity labels, in time order
    first_rows: dict  # case id -> {lower-cased column: cell} of the first row

    @property
    def variants(self) -> int:
        return len(set(self.sequences.values()))

    @property
    def activities(self) -> set:
        return {a for seq in self.sequences.values() for a in seq}


def read_cohort(path) -> CohortFacts:
    """Derive cases, activity sequences and first rows from a patient CSV.

    A patient's rows are ordered by timestamp, then file position. The
    sequence is cut at the first row with an outcome: rows before it are
    ``Visit before CO``; that row and later ones are named after their
    outcome, or ``Visit after CO`` when they have none.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = [name.strip().lower() for name in next(reader)]
        pat, stamp, outcome = (header.index(n) for n in ("patid", "timestamp", "outcome"))
        by_case: dict[str, list] = {}
        rows = 0
        for position, cells in enumerate(reader):
            rows += 1
            by_case.setdefault(cells[pat], []).append((cells[stamp], position, cells))
    sequences = {}
    first_rows = {}
    for case, entries in by_case.items():
        entries.sort(key=lambda e: (e[0], e[1]))
        labels = []
        after = False
        for _, _, cells in entries:
            after = after or bool(cells[outcome])
            labels.append(cells[outcome] or (VISIT_AFTER if after else VISIT_BEFORE))
        sequences[case] = tuple(labels)
        first_rows[case] = dict(zip(header, entries[0][2]))
    return CohortFacts(rows, sequences, first_rows)


def _flag(text: str):
    text = text.strip().lower()
    if text in ("1", "true"):
        return 1
    if text in ("0", "false"):
        return 0
    return None


def _phenotype(first_row: dict):
    for column, phenotype in (("hfref", "HFrEF"), ("hfmref", "HFmrEF"), ("hfpef", "HFpEF")):
        if _flag(first_row.get(column, "")) == 1:
            return phenotype
    try:
        lvef = int(first_row.get("lvef", ""))
    except ValueError:
        return None
    if not 0 <= lvef <= 100:
        return None
    return "HFrEF" if lvef <= 40 else "HFmrEF" if lvef < 50 else "HFpEF"


def check_inputs_identical(first, second) -> None:
    """Set-up repeated from the same seed must give byte-identical files."""
    _require(first.read_bytes() == second.read_bytes(),
             f"{second.name}: differs between two set-ups from the same seed")


def check_transform(xes_path, facts: CohortFacts) -> None:
    """One XES event per CSV data row and one trace per distinct PatID."""
    traces = events = 0
    for _, node in ET.iterparse(xes_path, events=("end",)):
        if node.tag == "event":
            events += 1
        elif node.tag == "trace":
            traces += 1
            node.clear()
    _require(events == facts.rows, f"transform: {events} events for {facts.rows} CSV rows")
    _require(traces == len(facts.sequences),
             f"transform: {traces} traces for {len(facts.sequences)} patients")


def _read_net(net_path) -> dict:
    doc = json.loads(net_path.read_text(encoding="utf-8"))
    nodes = {p["id"] for p in doc["places"]} | {t["id"] for t in doc["transitions"]}
    for arc in doc["arcs"]:
        _require(arc["source"] in nodes and arc["target"] in nodes,
                 f"{net_path.name}: arc {arc} has an unknown end")
    return doc


def check_discover(net_path, facts: CohortFacts) -> None:
    """Both miners give every activity of the log a visible transition."""
    doc = _read_net(net_path)
    labels = {t["label"] for t in doc["transitions"] if t.get("label")}
    _require(labels == facts.activities,
             f"{net_path.name}: visible labels {sorted(labels)} "
             f"!= log activities {sorted(facts.activities)}")


def check_conform(report_path, net_path, perfect_fit: bool) -> None:
    """Metric ranges, F1 and simplicity identities, and fitness 1 where
    the net is known to replay every trace."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    name = report_path.name
    _require(set(report) == {"fitness", "precision", "generalization", "simplicity", "f1"},
             f"{name}: keys {sorted(report)}")
    for key, value in report.items():
        _require(0.0 <= value <= 1.0, f"{name}: {key} = {value} outside [0, 1]")
    if perfect_fit:
        _require(report["fitness"] == 1.0, f"{name}: fitness {report['fitness']} != 1.0000")

    fit, prec = report["fitness"], report["precision"]
    f1 = 0.0 if fit + prec == 0 else 2 * fit * prec / (fit + prec)
    # d(f1)/d(fit) + d(f1)/d(prec) <= 2, so two rounded inputs move f1 by
    # at most two half-units, plus f1's own rounding.
    _require(abs(f1 - report["f1"]) <= 3 * HALF_ULP_4,
             f"{name}: f1 {report['f1']} is not the harmonic mean {f1:.6f}")

    doc = _read_net(net_path)
    degree = Counter({p["id"]: 0 for p in doc["places"]})
    degree.update({t["id"]: 0 for t in doc["transitions"]})
    for arc in doc["arcs"]:
        degree[arc["source"]] += 1
        degree[arc["target"]] += 1
    mean = sum(degree.values()) / len(degree) if degree else 2.0
    simplicity = 1.0 / (1.0 + max(0.0, mean - 2.0))
    _require(abs(simplicity - report["simplicity"]) <= HALF_ULP_4,
             f"{name}: simplicity {report['simplicity']} != {simplicity:.6f} from the arcs")


def check_cohorts(outdir, axis: str, facts: CohortFacts) -> None:
    """Group sizes, exclusions, H and p against ``scipy.stats.kruskal`` on
    per-case activity counts taken from the CSV."""
    from scipy.stats import kruskal

    summary = json.loads((outdir / f"cohorts_{axis}.json").read_text(encoding="utf-8"))
    with open(outdir / f"kruskal_{axis}.csv", newline="", encoding="utf-8") as handle:
        printed_p = {row["activity"]: row["p_value"] for row in csv.DictReader(handle)}

    keys = [(flag, phenotype) for flag in (0, 1) for phenotype in PHENOTYPES]
    members = {key: [] for key in keys}
    excluded = 0
    for case, first in facts.first_rows.items():
        flag, phenotype = _flag(first.get(axis, "")), _phenotype(first)
        if flag is None or phenotype is None:
            excluded += 1
        else:
            members[(flag, phenotype)].append(case)
    sizes = {f"{AXIS_PREFIX[axis]}={f} and {ph}": len(members[(f, ph)]) for f, ph in keys}
    _require(summary["group_sizes"] == sizes,
             f"cohorts {axis}: group sizes {summary['group_sizes']} != {sizes}")
    _require(summary["excluded_cases"] == excluded,
             f"cohorts {axis}: {summary['excluded_cases']} excluded, expected {excluded}")

    for activity in COHORT_ACTIVITIES:
        row = summary["activities"][activity]
        groups = [[facts.sequences[c].count(activity) for c in members[key]] for key in keys]
        if any(not g for g in groups):
            _require(row.get("testable") is False,
                     f"cohorts {axis}/{activity}: an empty group must be untestable")
            continue
        if len({v for g in groups for v in g}) == 1:
            # Every count tied: scipy returns nan or, after round-off, inf;
            # the program defines H = 0, p = 1.
            h, p = 0.0, 1.0
        else:
            h, p = kruskal(*groups)
        where = f"cohorts {axis}/{activity}"
        _require(row["df"] == len(keys) - 1, f"{where}: df {row['df']}")
        _require(abs(row["h"] - h) <= HALF_ULP_4 + 1e-6, f"{where}: H {row['h']} != scipy {h:.6f}")
        _require(abs(row["p_value"] - p) <= HALF_ULP_4 + 1e-6,
                 f"{where}: p {row['p_value']} != scipy {p:.6f}")
        _require(abs(float(printed_p[activity]) - p) <= HALF_ULP_4 + 1e-6,
                 f"{where}: CSV p {printed_p[activity]} != scipy {p:.6f}")


def check_decide(report_path, place: str, facts: CohortFacts) -> None:
    """Confusion and split totals at every place; at p4 the outcome counts
    equal the deaths in the CSV, since every record passes p4 exactly once."""
    report = json.loads(report_path.read_text(encoding="utf-8"))
    name = report_path.name
    n = report["n_instances"]
    if place == "p4":
        _require(report["skipped_traces"] == 0, f"{name}: {report['skipped_traces']} skipped")
        counts = Counter()
        for seq in facts.sequences.values():
            death = next((a for a in seq if a in DEATHS), "None")
            counts[death] += 1
        cases = len(facts.sequences)
        _require(n == cases, f"{name}: {n} instances for {cases} cases")
        expected = {label: round(100.0 * c / cases, 2) for label, c in counts.items()}
        _require(report["distribution"] == expected,
                 f"{name}: distribution {report['distribution']} != CSV counts {dict(counts)}")
    for clf in report["classifiers"]:
        where = f"{name}/{clf['kind']}"
        confusion = clf["confusion"]
        total = sum(sum(row.values()) for row in confusion.values())
        diagonal = sum(row.get(label, 0) for label, row in confusion.items())
        if clf["degenerate"]:
            _require(total == clf["train_size"] == n, f"{where}: degenerate totals")
            continue
        _require(total == clf["test_size"], f"{where}: confusion total {total} != test_size")
        _require(clf["train_size"] + clf["test_size"] == n,
                 f"{where}: train {clf['train_size']} + test {clf['test_size']} != {n}")
        accuracy = round(100.0 * diagonal / clf["test_size"], 1)
        _require(clf["accuracy"] == accuracy,
                 f"{where}: accuracy {clf['accuracy']} != diagonal/test {accuracy}")
