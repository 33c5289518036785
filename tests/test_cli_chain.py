"""The case study's command chain, run in one process on parsed inputs.

The benchmark's eleven commands (transform, three discovers, three
conforms, two cohorts, two decides) are parsed with the CLI's own parser,
and their command functions are fed the parsed CSV, the log that transform
builds in memory, and the nets that discover and dejure build, where
``main()`` reads them back from their JSON. A net keeps its transitions in
id order, so the two give the same results. What the functions return must
be what eleven ``main()`` calls write, byte for byte, and a command that
exits 1 must raise the message it prints.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathminer.cli as cli
from conftest import GOLDEN_DIR
from pathminer import SimulationConfig, parse_patient_csv, simulate, transform_log, write_patient_csv
from pathminer.errors import PathminerError

CLASSIFIERS = "majority,naive-bayes,logistic,decision-tree"
# Raised outcome, follow-up and death weights, as in the benchmark's deviant cohorts.
DEVIANT_PLACES = {
    "p0": {"Visit before CO": 100},
    "p1": {"Visit before CO": 30, "None": 40, "HF": 12, "CV": 9, "Stroke": 5, "MI": 4},
    "p2": {"Visit after CO": 60, "None": 40},
    "p3": {"Visit after CO": 40, "None": 60},
    "p4": {"None": 70, "Death_AnyCause": 20, "Death_HF": 10},
}


def chain(inputs: Path, out: Path) -> list[tuple[str, list[str]]]:
    """(net the command reads or writes, argv) for each of the eleven commands."""
    xes, csv, dejure = out / "log.xes", inputs / "patients.csv", inputs / "dejure.json"
    commands = [("", ["transform", "--input", csv, "--output", xes])]
    for label, flags in (("dfm-0.9", ["--algorithm", "dfg", "--paths", "0.9"]),
                         ("dfm-1.0", ["--algorithm", "dfg", "--paths", "1.0"]),
                         ("alpha", ["--algorithm", "alpha"])):
        commands.append((label, ["discover", "--input", xes, *flags,
                                 "--output", out / f"{label}.json"]))
    for label in ("dejure", "dfm-0.9", "dfm-1.0"):
        net = dejure if label == "dejure" else out / f"{label}.json"
        commands.append((label, ["conform", "--log", xes, "--net", net,
                                 "--output", out / f"conform_{label}.json"]))
    for axis in ("diabetes", "ckd"):
        commands.append(("", ["cohorts", "--log", xes, "--axis", axis,
                              "--outdir", out / f"cohorts_{axis}"]))
    for place in ("p1", "p4"):
        commands.append(("dejure", ["decide", "--log", xes, "--net", dejure, "--place", place,
                                    "--classifiers", CLASSIFIERS,
                                    "--output", out / f"decide_{place}.json"]))
    return [(net, [str(a) for a in argv]) for net, argv in commands]


def by_main(inputs: Path, out: Path) -> tuple[dict, list]:
    """The files that eleven ``main()`` calls write, and each call's exit code
    and stderr."""
    outcomes = []
    for _, argv in chain(inputs, out):
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            outcomes.append((cli.main(argv), stderr.getvalue()))
    return {p: p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}, outcomes


class Building:
    """The CLI's stages, keeping the last net that a stage built."""

    def __getattr__(self, name):
        stage = getattr(cli, name)
        if name not in ("build_dejure", "mine_dfm", "mine_alpha"):
            return stage

        def build(*args):
            self.net = stage(*args)
            return self.net
        return build


def in_memory(inputs: Path, out: Path) -> tuple[dict, list]:
    """What the command functions return on parsed inputs, and for each
    command the exit code and stderr that ``main`` would give."""
    parse = cli.build_parser().parse_args
    building = Building()
    cli._dejure(parse(["dejure", "--output", str(inputs / "dejure.json")]), building, {})
    nets = {"dejure": building.net}
    rows = parse_patient_csv((inputs / "patients.csv").read_bytes())
    log = transform_log(rows)
    files, outcomes = {}, []
    for net, argv in chain(inputs, out):
        args = parse(argv)
        parsed = {"transform": {"input": rows}, "discover": {"input": log}, "cohorts": {"log": log},
                  "conform": {"log": log, "net": nets.get(net)},
                  "decide": {"log": log, "net": nets.get(net)}}[args.command]
        try:
            if None in parsed.values():  # the net of a discover that failed: main finds no file
                raise OSError(2, "No such file or directory", str(args.net))
            produced = args.artifacts(args, building, parsed)
        except (PathminerError, OSError) as exc:
            outcomes.append((1, f"pathminer: error: {exc}\n"))
            continue
        if args.command == "discover":
            nets[net] = building.net
        files.update(produced)
        outcomes.append((0, ""))
    return dict(sorted(files.items())), outcomes


def assert_chain_matches(csv: bytes) -> tuple[dict, list]:
    with tempfile.TemporaryDirectory() as tmp:
        inputs, out = Path(tmp) / "in", Path(tmp) / "out"
        inputs.mkdir()
        (inputs / "patients.csv").write_bytes(csv)
        assert cli.main(["dejure", "--output", str(inputs / "dejure.json")]) == 0
        returned = in_memory(inputs, out)
        assert not out.exists()  # the command functions write nothing
        out.mkdir()
        assert returned == by_main(inputs, out)
        return returned


def test_the_seed_7_cohort_gives_the_files_of_eleven_commands():
    csv = write_patient_csv(simulate(SimulationConfig(patients=240, seed=7)))
    files, outcomes = assert_chain_matches(csv)
    assert outcomes == [(0, "")] * 11
    for place in ("p1", "p4"):
        decide = next(b for p, b in files.items() if p.name == f"decide_{place}.json")
        assert decide == (GOLDEN_DIR / f"decide_sim240_{place}.json").read_bytes()


@settings(max_examples=10, deadline=None, derandomize=True)
@given(patients=st.integers(5, 60), seed=st.integers(0, 10_000), deviant=st.booleans())
def test_a_small_cohort_gives_the_files_and_errors_of_eleven_commands(patients, seed, deviant):
    config = SimulationConfig(patients=patients, seed=seed,
                              place_probs=DEVIANT_PLACES if deviant else None)
    assert_chain_matches(write_patient_csv(simulate(config)))


@pytest.mark.parametrize("patients", [0, 1])
def test_a_cohort_too_small_to_decide_fails_in_memory_as_main_does(patients):
    csv = write_patient_csv(simulate(SimulationConfig(patients=patients, seed=0)))
    _, outcomes = assert_chain_matches(csv)
    error = "pathminer: error: at least two decision instances are required\n"
    assert outcomes == [(0, "")] * 9 + [(1, error)] * 2


def test_the_files_of_eleven_commands_do_not_depend_on_the_hash_seed(tmp_path):
    # str and bytes hash by the seed, and so does the order of a set of them;
    # no such order may reach an artifact
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "patients.csv").write_bytes(
        write_patient_csv(simulate(SimulationConfig(patients=30, seed=7))))
    assert cli.main(["dejure", "--output", str(inputs / "dejure.json")]) == 0
    child = "import json, sys\nfrom pathminer.cli import main\n" \
            "sys.exit(max([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    files = []
    for seed in ("0", "12345"):
        out = tmp_path / seed
        out.mkdir()
        argvs = [argv for _, argv in chain(inputs, out)]
        result = subprocess.run([sys.executable, "-c", child, json.dumps(argvs)], capture_output=True,
                                text=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert (result.returncode, result.stderr) == (0, "")
        files.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(files[0]) > 11 and files[0] == files[1]
