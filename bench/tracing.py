"""The traced run: the same commands in-process, with spans per layer.

Each command is ``pathminer.cli.main(argv)`` called in this process. The
layer functions it reaches are wrapped from outside, by replacing the names
that ``pathminer.cli``, ``pathminer.conformance`` and
``pathminer.decision_mining`` look up at call time, so the program itself
is unchanged. Spans stay in memory until the run ends. Every command runs
twice, once without wrappers and once with them, in alternating order, and
the difference of the two total times is reported as the tracing overhead.
"""

import statistics
import sys
from contextlib import contextmanager

import checks
from pipeline import (CLASSIFIERS, PER_COMMAND, SRC, Op, Tally, generate_inputs, pipeline_ops,
                      run_clock)

STARTUP_REPEATS = 5
# The child prints its own high-water RSS in KiB from /proc: the rusage of
# a spawned child also counts the memory of this (large) process, so rusage
# is only the fallback where /proc cannot be read.
READ_XES_CHILD = """
import resource, sys
from pathminer.xes import read_xes
read_xes(open(sys.argv[1], 'rb').read())
try:
    with open('/proc/self/status') as status:
        print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))
except (OSError, StopIteration):
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class Tracer:
    """Spans as ``[name, parent index, start, end]``; nesting by a stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, self._stack[-1] if self._stack else -1, run_clock(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = run_clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def totals(self) -> tuple[dict, dict]:
        """Total and self seconds by span name; self time is a span's
        duration minus the time its direct children cover."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for i, (name, _, start, end) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + end - start
            self_time[name] = self_time.get(name, 0.0) + end - start - child_time[i]
        return total, self_time

    def count_under(self, name: str, parent_name: str) -> int:
        return sum(1 for n, p, _, _ in self.spans
                   if n == name and p >= 0 and self.spans[p][0] == parent_name)


@contextmanager
def layers_wrapped(tracer: Tracer):
    """Replace each layer entry point with a span-recording wrapper."""
    import pathminer.cli as cli
    import pathminer.conformance as conformance
    import pathminer.decision_mining as decision_mining

    original_train = decision_mining.train_classifier

    def train(instances, kind, *args, **kwargs):
        return tracer.call(f"classifiers.train.{kind}", original_train,
                           instances, kind, *args, **kwargs)

    patches = [(cli, attr, tracer.wrap(span, getattr(cli, attr))) for attr, span in (
        ("simulate", "simulate.simulate"),
        ("write_patient_csv", "patient_csv.write"),
        ("parse_patient_csv", "patient_csv.parse"),
        ("transform_log", "transform.transform_log"),
        ("write_xes", "xes.write"),
        ("read_xes", "xes.read"),
        ("mine_dfm", "discovery.mine_dfm"),
        ("mine_alpha", "discovery.mine_alpha"),
        ("conformance_report", "conformance.report"),
        ("compare_cohorts", "stats.compare_cohorts"),
        ("mine_place", "decision_mining.mine_place"),
    )]
    patches += [
        (conformance, "align", tracer.wrap("conformance.align", conformance.align)),
        (decision_mining, "extract_instances",
         tracer.wrap("decision_mining.extract_instances", decision_mining.extract_instances)),
        (decision_mining, "train_classifier", train),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    for module, attr, replacement in patches:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def _in_process(tally: Tally, tracer: Tracer | None):
    import pathminer.cli as cli

    def run_op(op: Op) -> None:
        argv = [str(a) for a in op.argv]
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        tally.record(op, code, "(see above)")
    return run_op


def _paired_passes(cohorts, inputs, work, facts, tally: Tally, tracer: Tracer):
    """Run every command plain and traced, into separate directories.

    The two runs of a command alternate which goes first, so that a process
    slowing as it ages, or the host's speed drifting, does not count as
    tracing overhead. Returns the total plain and traced times.
    """
    run_plain, run_traced = _in_process(tally, None), _in_process(tally, tracer)
    plain_s = traced_s = 0.0
    pending = []
    for cohort in cohorts:
        plain_ops = pipeline_ops(cohort, inputs, work / "plain" / cohort.name, facts[cohort.name])
        traced_ops = pipeline_ops(cohort, inputs, work / "traced" / cohort.name,
                                  facts[cohort.name])
        for index, (plain_op, traced_op) in enumerate(zip(plain_ops, traced_ops)):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                start = run_clock()
                if traced:
                    with layers_wrapped(tracer):
                        run_traced(traced_op)
                    traced_s += run_clock() - start
                else:
                    run_plain(plain_op)
                    plain_s += run_clock() - start
        pending.extend(plain_ops + traced_ops)
    tally.run_checks(pending)
    return plain_s, traced_s


def traced_run(cohorts, work, children) -> tuple[dict, Tally]:
    sys.path.insert(0, str(SRC))
    import pathminer.cli  # noqa: F401  (import cost stays out of every span)

    tally = Tally()
    inputs = work / "inputs"
    setup_tracer = Tracer()
    with layers_wrapped(setup_tracer):
        generate_inputs(cohorts, inputs, _in_process(tally, setup_tracer))
    facts = {c.name: checks.read_cohort(inputs / f"{c.name}.csv") for c in cohorts}

    tracer = Tracer()
    untraced_s, traced_s = _paired_passes(cohorts, inputs, work, facts, tally, tracer)

    startup = []
    for _ in range(STARTUP_REPEATS):
        child = children.run(["-c", "import pathminer.cli"])
        tally.record(Op("startup", ["import pathminer.cli"], None), child.returncode, child.stderr)
        startup.append(child.seconds)
    xes_paths = [work / "traced" / c.name / "log.xes" for c in cohorts]
    read_rss = 0.0
    for path in xes_paths:
        child = children.run(["-c", READ_XES_CHILD, path])
        if tally.record(Op("read_xes", ["read_xes", path], None), child.returncode, child.stderr):
            read_rss = max(read_rss, int(child.stdout) / 1024.0)

    setup_total, _ = setup_tracer.totals()
    total, self_time = tracer.totals()
    align_calls = tracer.count_under("conformance.align", "conformance.report")
    # Every cohort gets the same conform commands, so each report's base is
    # the variant count of its own cohort.
    reports_per_cohort = sum(1 for span in tracer.spans if span[0] == "conformance.report")
    reports_per_cohort /= len(cohorts)
    report_variants = reports_per_cohort * sum(facts[c.name].variants for c in cohorts)

    def s(name):
        return (total.get(name, 0.0), "s")

    # ``align`` is the only wrapped call inside a report or an extraction,
    # so their self time is the time outside alignment.
    def self_s(name):
        return (self_time.get(name, 0.0), "s")

    metrics = {
        "cli.startup_s": (statistics.median(startup), "s"),
        "cli.self_s": (sum(self_time.get(f"cli.{kind}", 0.0) for kind in PER_COMMAND), "s"),
        "simulate.simulate_s": (setup_total.get("simulate.simulate", 0.0), "s"),
        "patient_csv.write_s": (setup_total.get("patient_csv.write", 0.0), "s"),
        "patient_csv.parse_s": s("patient_csv.parse"),
        "transform.transform_log_s": s("transform.transform_log"),
        "xes.write_s": s("xes.write"),
        "xes.read_s": s("xes.read"),
        "xes.bytes": (sum(p.stat().st_size for p in xes_paths), "bytes"),
        "xes.read_peak_rss_mb": (read_rss, "MB"),
        "discovery.mine_dfm_s": s("discovery.mine_dfm"),
        "discovery.mine_alpha_s": s("discovery.mine_alpha"),
        "conformance.report_s": s("conformance.report"),
        "conformance.report.self_s": self_s("conformance.report"),
        "conformance.align_s": (total.get("conformance.report", 0.0)
                                - self_time.get("conformance.report", 0.0), "s"),
        "conformance.align_calls": (align_calls, "count"),
        "conformance.align_calls_per_variant": (align_calls / report_variants, "ratio"),
        "stats.compare_cohorts_s": s("stats.compare_cohorts"),
        "decision_mining.extract_instances_s": s("decision_mining.extract_instances"),
        "decision_mining.extract_instances.self_s": self_s("decision_mining.extract_instances"),
    }
    for kind in CLASSIFIERS.split(","):
        metrics[f"classifiers.train_s.{kind}"] = s(f"classifiers.train.{kind}")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics, tally
