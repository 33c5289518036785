#!/usr/bin/env python3
"""Pipeline benchmark: the paper's analysis through the pathminer CLI.

Run from the repository root:

    python3 bench/run.py --workload registry --seed 1 --seconds 10 --trace 0

Set-up writes a simulator config and runs ``pathminer simulate`` and
``pathminer dejure`` to make the inputs, three times, and reports the median
time. A round then runs the fixed command sequence (transform; discover dfg
0.9, dfg 1.0, alpha; conform against dejure and both dfm nets; cohorts for
diabetes and ckd; decide at p1 and p4) on each cohort of the round, one
child process at a time. A run makes as many whole rounds as the workload's
planned round length fits into ``--seconds``, at least one (see
``rounds_for``); each metric is the mean over rounds of its sum in a
round. Times exclude hypervisor
steal (see ``run_clock``). Every output is checked with ``checks.py``. With
``--trace 1`` the same commands run in-process instead, with spans around
each layer (see ``tracing.py``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See README.md for the workloads.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import checks
from pipeline import (PER_COMMAND, RUN_DEADLINE_S, SETUP_REPEATS, SRC, WORK, Children, Op,
                      Tally, generate_inputs, pipeline_ops, rounds_for, run_clock)


def setup_inputs(cohorts, work: Path, run_op, tally: Tally) -> tuple[Path, float]:
    """Generate the inputs SETUP_REPEATS times; returns the last set and the
    median set-up time. Repeats must agree byte for byte."""
    times = []
    for repeat in range(SETUP_REPEATS):
        inputs = work / f"inputs{repeat}"
        start = run_clock()
        generate_inputs(cohorts, inputs, run_op)
        times.append(run_clock() - start)
        if repeat:
            previous = work / f"inputs{repeat - 1}"
            tally.run_checks([
                Op("setup", [], lambda a=previous / f.name, b=f:
                   checks.check_inputs_identical(a, b))
                for f in sorted(inputs.iterdir())])
            shutil.rmtree(previous)
    return inputs, statistics.median(times)


def untraced_run(rounds, work: Path, children: Children) -> tuple[dict, Tally]:
    tally = Tally()
    cohorts = list({c.name: c for round_cohorts in rounds for c in round_cohorts}.values())
    inputs, setup_s = setup_inputs(cohorts, work, lambda op: children.pathminer(tally, op), tally)
    facts = {c.name: checks.read_cohort(inputs / f"{c.name}.csv") for c in cohorts}

    # Checks run after the last child: scipy, which they import, would
    # otherwise sit in this process when later children are spawned, and a
    # child's peak RSS counts the memory of the process that spawned it.
    pending = []
    sums = []
    for index, round_cohorts in enumerate(rounds):
        round_sums = dict.fromkeys(PER_COMMAND, 0.0)
        round_start = run_clock()
        for cohort in round_cohorts:
            ops = pipeline_ops(cohort, inputs, work / f"round{index}" / cohort.name,
                               facts[cohort.name])
            for op in ops:
                round_sums[op.kind] += children.pathminer(tally, op)
            pending.extend(ops)
        round_sums["pipeline"] = run_clock() - round_start
        sums.append(round_sums)
    tally.run_checks(pending)

    # The mean, not the median, over rounds: over ten registry runs its
    # spread was lower for every kind but discover (0.13 against 0.19 for
    # transform_s); steal is already taken out, so no round is an outlier.
    metrics = {"setup_s": (setup_s, "s")}
    metrics["pipeline_s"] = (statistics.mean(s["pipeline"] for s in sums), "s")
    for kind in PER_COMMAND:
        metrics[f"{kind}_s"] = (statistics.mean(s[kind] for s in sums), "s")
    metrics["peak_rss_mb"] = (tally.peak_rss_mb, "MB")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("registry", "deviant-paths", "paper-scale"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pathminer" / "cli.py").is_file():
        print(f"bench: no pathminer sources under {SRC}", file=sys.stderr)
        return 2

    # Every pathminer command imports numpy, and numpy's OpenBLAS starts one
    # busy-waiting thread per CPU on import. On a 2-CPU host those threads
    # compete with the command itself: one `transform` then took 0.62-0.96 s
    # wall, against 0.71-0.72 s with a single BLAS thread. Children inherit
    # this, and it is set before this process imports numpy for the traced
    # run or the checks. Each process then runs one thread, as the
    # one-child-at-a-time design intends.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    # On SIGTERM, unwind through the ``finally`` blocks that kill and reap
    # the running child and remove the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_DEADLINE_S
    rounds = rounds_for(args.workload, args.seed, args.seconds)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        children = Children(work, deadline)
        if args.trace:
            import tracing

            metrics, tally = tracing.traced_run(rounds[0], work, children)
        else:
            metrics, tally = untraced_run(rounds, work, children)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
