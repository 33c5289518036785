"""Workloads, the command sequence and the child-process runner shared by
the untraced run (``run.py``) and the traced run (``tracing.py``)."""

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0
CLASSIFIERS = "majority,naive-bayes,logistic,decision-tree"
_TICKS_PER_S = os.sysconf("SC_CLK_TCK")


def run_clock() -> float:
    """Seconds on a monotonic clock, less the time the hypervisor has
    stolen from this VM's CPUs (``steal`` in /proc/stat).

    On a shared VM, steal can take a third of a run's wall time and swing
    from run to run. During steal the VM does not run at all, so it is not
    the program's time. Where /proc/stat has no steal column this is the
    plain monotonic clock.
    """
    now = time.perf_counter()
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            steal = int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        steal = 0
    return now - steal / _TICKS_PER_S


# Raised outcome, follow-up and death weights: traces several times longer
# than with the default weights, and hundreds of variants per run.
DEVIANT_PLACES = {
    "p0": {"Visit before CO": 100},
    "p1": {"Visit before CO": 30, "None": 40, "HF": 12, "CV": 9, "Stroke": 5, "MI": 4},
    "p2": {"Visit after CO": 60, "None": 40},
    "p3": {"Visit after CO": 40, "None": 60},
    "p4": {"None": 70, "Death_AnyCause": 20, "Death_HF": 10},
}


@dataclass(frozen=True)
class Cohort:
    name: str
    patients: int
    seed: int
    places: dict = field(default_factory=dict)


ROUND_S = {"registry": 10.0, "deviant-paths": 25.0, "paper-scale": 25.0}


def rounds_for(workload: str, seed: int, seconds: float) -> list[list[Cohort]]:
    """The cohorts of each round of a run.

    A run makes as many whole rounds as the workload's planned round length
    (``ROUND_S``) fits into ``seconds``, at least one, so every run of a
    workload does the same operations. ``registry`` analyses a fresh cohort
    in each round: at 2000 patients the alignment time of one cohort varies
    by 0.15 (interquartile range over median) from seed to seed, so a run
    averages over several cohorts. The other workloads average it over the
    three or four cohorts of every round.
    """
    rounds = max(1, int(seconds // ROUND_S[workload]))
    if workload == "registry":
        return [[Cohort(f"registry{i}", 2000, seed * 100 + i)] for i in range(rounds)]
    if workload == "deviant-paths":
        cohorts = [Cohort(f"deviant{i}", 200, seed * 3 + i, DEVIANT_PLACES) for i in range(3)]
    elif workload == "paper-scale":
        cohorts = [Cohort(f"paper{i}", 240, seed * 4 + i) for i in range(4)]
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return [cohorts] * rounds


@dataclass
class Op:
    """One CLI invocation and the check of its output."""

    kind: str
    argv: list
    check: object  # callable raising checks.CheckError


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def record(self, op: Op, returncode: int, stderr: str) -> bool:
        self.attempted += 1
        if returncode != 0:
            self.failed += 1
            print(f"FAILED {' '.join(map(str, op.argv))}: exit {returncode}\n{stderr}",
                  file=sys.stderr)
        return returncode == 0

    def run_checks(self, pending) -> None:
        for op in pending:
            try:
                op.check()
            except (checks.CheckError, OSError, KeyError, TypeError, ValueError) as exc:
                self.errors.append(f"{op.kind}: {exc}")
                print(f"CHECK {op.kind}: {exc}", file=sys.stderr)


@dataclass(frozen=True)
class ChildResult:
    seconds: float  # spawn to exit on ``run_clock``
    rss_mb: float  # peak RSS from the child's rusage
    returncode: int
    stdout: str
    stderr: str


class Children:
    """Runs one child process at a time and reads its own peak RSS."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv) -> "ChildResult":
        out_path, err_path = self.workdir / "child.stdout", self.workdir / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = run_clock()
            proc = subprocess.Popen([sys.executable, *map(str, argv)], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            seconds = run_clock() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(seconds, usage.ru_maxrss / 1024.0, proc.returncode,
                           out_path.read_text(encoding="utf-8", errors="replace"),
                           err_path.read_text(encoding="utf-8", errors="replace"))

    def pathminer(self, tally: Tally, op: Op) -> float:
        child = self.run(["-m", "pathminer", *op.argv])
        tally.peak_rss_mb = max(tally.peak_rss_mb, child.rss_mb)
        tally.record(op, child.returncode, child.stderr)
        return child.seconds


def generate_inputs(cohorts, inputs: Path, run_op) -> None:
    """Write each cohort's simulator config, then ``simulate`` every cohort
    and emit ``dejure`` through ``run_op``. Their outputs are checked by
    comparing repeated set-ups, so each op's own check is empty."""
    inputs.mkdir(parents=True, exist_ok=True)
    for cohort in cohorts:
        config = inputs / f"{cohort.name}.config.json"
        doc = {"patients": cohort.patients, "seed": cohort.seed}
        if cohort.places:
            doc["places"] = cohort.places
        config.write_text(json.dumps(doc), encoding="utf-8")
        run_op(Op("simulate", ["simulate", "--config", config,
                               "--output", inputs / f"{cohort.name}.csv"], lambda: None))
    run_op(Op("dejure", ["dejure", "--output", inputs / "dejure.json"], lambda: None))


def pipeline_ops(cohort: Cohort, inputs: Path, out: Path, facts) -> list[Op]:
    """The analysis sequence for one cohort, each command with its check."""
    out.mkdir(parents=True, exist_ok=True)
    csv_path = inputs / f"{cohort.name}.csv"
    dejure = inputs / "dejure.json"
    xes = out / "log.xes"
    ops = [Op("transform", ["transform", "--input", csv_path, "--output", xes],
              lambda: checks.check_transform(xes, facts))]
    mined = {}
    for label, flags in (("dfm-0.9", ["--algorithm", "dfg", "--paths", "0.9"]),
                         ("dfm-1.0", ["--algorithm", "dfg", "--paths", "1.0"]),
                         ("alpha", ["--algorithm", "alpha"])):
        net = mined[label] = out / f"{label}.json"
        ops.append(Op("discover", ["discover", "--input", xes, *flags, "--output", net],
                      lambda net=net: checks.check_discover(net, facts)))
    # Every simulated trace is a run of dejure, and dfm at paths 1.0 replays
    # its own training log, so both must fit at 1.0000. The alpha net is
    # mined but not conformed against: for some seeds its final marking is
    # unreachable, and conform then fails on the state cap (see README.md).
    for label, net, perfect in (("dejure", dejure, True), ("dfm-0.9", mined["dfm-0.9"], False),
                                ("dfm-1.0", mined["dfm-1.0"], True)):
        report = out / f"conform_{label}.json"
        ops.append(Op("conform", ["conform", "--log", xes, "--net", net, "--output", report],
                      lambda r=report, n=net, p=perfect: checks.check_conform(r, n, p)))
    for axis in ("diabetes", "ckd"):
        outdir = out / f"cohorts_{axis}"
        ops.append(Op("cohorts", ["cohorts", "--log", xes, "--axis", axis, "--outdir", outdir],
                      lambda d=outdir, a=axis: checks.check_cohorts(d, a, facts)))
    for place in ("p1", "p4"):
        report = out / f"decide_{place}.json"
        ops.append(Op("decide", ["decide", "--log", xes, "--net", dejure, "--place", place,
                                 "--classifiers", CLASSIFIERS, "--output", report],
                      lambda r=report, p=place: checks.check_decide(r, p, facts)))
    return ops


PER_COMMAND = ("transform", "discover", "conform", "cohorts", "decide")
