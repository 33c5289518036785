"""Byte-level mutations of every input kind, run through every command that reads it.

Whatever the bytes, a command exits 0 or 1, never 2. On exit 1 it prints
one ``pathminer: error:`` line and creates or changes no output file.
"""

import contextlib
import io
import json
import tempfile
from functools import cache, partial
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pathminer import (SimulationConfig, build_dejure, parse_patient_csv, simulate,
                       transform_log, write_net_json, write_patient_csv, write_xes)
from pathminer import decision_mining
from pathminer.cli import main
from pathminer.conformance import align_log

SENTINEL = b"left by an earlier run\n"

CONFIG = {
    "seed": 3,
    "start_date": "2020-01-01",
    "start_window_days": 30,
    "gap_days": [7, 60],
    "places": {"p1": {"None": 80, "HF": 10, "CV": 5, "Stroke": 3, "MI": 2},
               "p3": {"Visit after CO": 40, "None": 60}},
    "attributes": {"lvef": {"kind": "uniform_int", "low": 10, "high": 70},
                   "weight": {"kind": "uniform", "low": 50, "high": 120, "missing_rate": 0.1},
                   "diabetes": {"kind": "bernoulli", "p": 0.4}},
}


@cache
def inputs() -> dict[str, bytes]:
    """The unmutated input of each kind: a 30-patient cohort, its log, the
    reference net and a simulator config."""
    csv = write_patient_csv(simulate(SimulationConfig(patients=30, seed=11)))
    return {
        "csv": csv,
        "xes": write_xes(transform_log(parse_patient_csv(csv))),
        "net": write_net_json(build_dejure()),
        "config": json.dumps(CONFIG, indent=2).encode(),
    }


def commands(d: Path) -> dict[str, list[list[str]]]:
    """The argv of every command that reads each input kind, with outputs in ``d``."""

    def at(name: str) -> str:
        return str(d / name)

    csv, xes, net, config = at("in.csv"), at("in.xes"), at("in.json"), at("in.cfg")
    return {
        "csv": [["transform", "--input", csv, "--output", at("t.xes")]],
        "xes": [
            ["discover", "--input", xes, "--output", at("dfm.json"), "--dot", at("dfm.dot")],
            ["discover", "--input", xes, "--algorithm", "alpha", "--output", at("alpha.json")],
            ["conform", "--log", xes, "--net", net, "--cap", "2000", "--output", at("c1.json")],
            ["cohorts", "--log", xes, "--axis", "diabetes", "--outdir", at("co")],
            ["decide", "--log", xes, "--net", net, "--place", "p1", "--output", at("d1.json")],
        ],
        "net": [
            ["conform", "--log", xes, "--net", net, "--cap", "2000", "--output", at("c2.json")],
            ["decide", "--log", xes, "--net", net, "--place", "p4", "--output", at("d2.json")],
        ],
        "config": [["simulate", "--config", config, "--patients", "5", "--output", at("s.csv")]],
    }


def outputs(argv: list[str]) -> list[Path]:
    return [Path(value) for flag, value in zip(argv, argv[1:]) if flag in ("--output", "--dot")]


def snapshot(d: Path) -> dict[str, bytes | None]:
    """Every path under ``d``, with a file's bytes or None for a directory."""
    return {str(p.relative_to(d)): p.read_bytes() if p.is_file() else None for p in d.rglob("*")}


@st.composite
def mutants(draw):
    """(input kind, its bytes after one to three replaces, deletes or splices)."""
    kind = draw(st.sampled_from(sorted(inputs())))
    return kind, draw(mutated(inputs()[kind]))


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to three replaces, deletes or splices."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "delete", "splice")))
        if op == "replace":
            new = draw(st.binary(min_size=1, max_size=8))
            data = data[:at] + new + data[at + len(new):]
        elif op == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 64)):]
        else:  # a run copied from elsewhere in the same input
            start = draw(st.integers(0, len(data)))
            data = data[:at] + data[start:start + draw(st.integers(1, 64))] + data[at:]
    return data


def check_mutant(kind: str, data: bytes, existing: bool) -> None:
    # decide has no --cap: on a net with unbounded silent runs its search
    # grows to the default cap of 10^5 markings, about 4 s per command, so
    # a cap of 2000 keeps each example fast
    small_cap = partial(align_log, cap=2000)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(decision_mining, "align_log", small_cap):
        d = Path(tmp)
        for name, key in (("in.csv", "csv"), ("in.xes", "xes"), ("in.json", "net"),
                          ("in.cfg", "config")):
            (d / name).write_bytes(data if key == kind else inputs()[key])
        for argv in commands(d)[kind]:
            for path in outputs(argv) if existing else ():
                path.write_bytes(SENTINEL)
            before = snapshot(d)
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv)
            assert code in (0, 1), (argv, err.getvalue())
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and lines[0].startswith("pathminer: error:"), lines
                assert snapshot(d) == before, argv


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mutants(), st.booleans())
def test_a_mutated_input_exits_0_or_1_and_an_error_writes_nothing(mutant, existing):
    check_mutant(*mutant, existing)
