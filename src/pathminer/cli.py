"""Command-line interface.

Every subcommand writes its artifacts to the paths given on the command
line and keeps diagnostics on stderr. All randomness is driven by explicit
seeds and output formatting is fixed (metrics with 4 decimals, percentage
shares with 2, accuracies with 1), so identical invocations produce
byte-identical files.
"""

import argparse
import json
import re
import sys
from pathlib import Path

from .errors import InputError, PathminerError
from .model import Phenotype


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def __getattr__(name: str):
    """A stage function, imported on first use and kept in this module.

    ``run`` looks every stage up here at call time, so a command loads only
    the stages it runs, and a replacement set on this module is what runs.
    """
    package = sys.modules[__package__]
    if name not in package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(package, name)
    return value


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def _format_conformance(report) -> bytes:
    lines = (
        "{",
        f'  "fitness": {report.fitness:.4f},',
        f'  "precision": {report.precision:.4f},',
        f'  "generalization": {report.generalization:.4f},',
        f'  "simplicity": {report.simplicity:.4f},',
        f'  "f1": {report.f1:.4f}',
        "}",
    )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _format_cohorts_csv(report) -> bytes:
    lines = ["activity,p_value,testable"]
    for row in report.rows:
        if row.testable:
            lines.append(f"{row.activity},{row.kruskal.p_value:.4f},yes")
        else:
            lines.append(f"{row.activity},,no ({row.reason})")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _format_dunn_csv(dunn) -> bytes:
    header = "," + ",".join(dunn.labels)
    lines = [header]
    for label, row in zip(dunn.labels, dunn.p_values):
        lines.append(label + "," + ",".join(f"{p:.4f}" for p in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _cohorts_summary_json(report) -> bytes:
    doc = {
        "axis": report.axis,
        "alpha": report.alpha,
        "group_sizes": report.group_sizes,
        "excluded_cases": report.excluded_cases,
        "activities": {
            row.activity: (
                {
                    "p_value": round(row.kruskal.p_value, 4),
                    "h": round(row.kruskal.h, 4),
                    "df": row.kruskal.df,
                    "significant": row.kruskal.p_value < report.alpha,
                }
                if row.testable
                else {"testable": False, "reason": row.reason}
            )
            for row in report.rows
        },
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _decide_json(report) -> bytes:
    doc = {
        "place": report.place,
        "filter": report.phenotype_filter,
        "n_instances": report.n_instances,
        "skipped_traces": len(report.skipped_cases),
        "distribution": {k: round(v, 2) for k, v in report.distribution.items()},
        "classifiers": [
            {
                "kind": c.kind,
                "accuracy": round(c.accuracy, 1),
                "confusion": c.confusion,
                "train_size": c.train_size,
                "test_size": c.test_size,
                "degenerate": c.degenerate,
                **({"detail": c.detail} if c.detail else {}),
            }
            for c in report.classifiers
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def build_parser() -> _Parser:
    parser = _Parser(prog="pathminer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="patient CSV -> XES event log")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)

    p = sub.add_parser("discover", help="XES -> discovered net JSON (and DOT)")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--algorithm", choices=("dfg", "alpha"), default="dfg")
    p.add_argument("--paths", type=float, default=0.9)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--dot", type=Path)

    p = sub.add_parser("conform", help="XES + net JSON -> metric report JSON")
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--net", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--cap", type=int, default=1_000_000)

    p = sub.add_parser("dejure", help="emit the built-in reference net")
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--dot", type=Path)

    p = sub.add_parser("cohorts", help="XES -> cohort statistics CSV/JSON")
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--axis", choices=("diabetes", "ckd"), required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--outdir", required=True, type=Path)

    p = sub.add_parser("decide", help="XES + net JSON -> decision mining JSON")
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--net", required=True, type=Path)
    p.add_argument("--place", required=True)
    p.add_argument("--filter", choices=tuple(ph.value.lower() for ph in Phenotype))
    p.add_argument(
        "--classifiers",
        default="majority",
        help="comma-separated: majority,naive-bayes,logistic,decision-tree",
    )
    p.add_argument("--split", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True, type=Path)

    p = sub.add_parser("simulate", help="config -> synthetic patient CSV")
    p.add_argument("--config", type=Path)
    p.add_argument("--patients", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True, type=Path)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    stage = sys.modules[__name__]

    if args.command == "transform":
        rows = stage.parse_patient_csv(args.input.read_bytes())
        args.output.write_bytes(stage.write_xes(stage.transform_log(rows)))

    elif args.command == "discover":
        log = stage.read_xes(args.input.read_bytes())
        if args.algorithm == "dfg":
            net = stage.mine_dfm(log, args.paths)
        else:
            net = stage.mine_alpha(log)
        args.output.write_bytes(stage.write_net_json(net))
        if args.dot:
            args.dot.write_bytes(stage.write_dot(net))

    elif args.command == "conform":
        log = stage.read_xes(args.log.read_bytes())
        net = stage.read_net_json(args.net.read_bytes())
        report = stage.conformance_report(net, log, cap=args.cap)
        args.output.write_bytes(_format_conformance(report))

    elif args.command == "dejure":
        net = stage.build_dejure()
        args.output.write_bytes(stage.write_net_json(net))
        if args.dot:
            args.dot.write_bytes(stage.write_dot(net))

    elif args.command == "cohorts":
        log = stage.read_xes(args.log.read_bytes())
        report = stage.compare_cohorts(log, args.axis, args.alpha)
        args.outdir.mkdir(parents=True, exist_ok=True)
        (args.outdir / f"kruskal_{args.axis}.csv").write_bytes(
            _format_cohorts_csv(report)
        )
        (args.outdir / f"cohorts_{args.axis}.json").write_bytes(
            _cohorts_summary_json(report)
        )
        for row in report.rows:
            if row.dunn is not None:
                name = f"dunn_{args.axis}_{_slug(row.activity)}.csv"
                (args.outdir / name).write_bytes(_format_dunn_csv(row.dunn))

    elif args.command == "decide":
        log = stage.read_xes(args.log.read_bytes())
        net = stage.read_net_json(args.net.read_bytes())
        kinds = tuple(k.strip() for k in args.classifiers.split(",") if k.strip())
        if not kinds:
            raise InputError("--classifiers must name at least one classifier")
        phenotype = None
        if args.filter:
            phenotype = {ph.value.lower(): ph.value for ph in Phenotype}[args.filter]
        report = stage.mine_place(
            net,
            log,
            args.place,
            kinds,
            phenotype_filter=phenotype,
            split=args.split,
            seed=args.seed,
        )
        args.output.write_bytes(_decide_json(report))

    elif args.command == "simulate":
        overrides = {}
        if args.patients is not None:
            overrides["patients"] = args.patients
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.config:
            config = stage.load_config(args.config.read_bytes(), **overrides)
        else:
            config = stage.SimulationConfig(**overrides)
        args.output.write_bytes(stage.write_patient_csv(stage.simulate(config)))

    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"pathminer: error: {exc}", file=sys.stderr)
        return 1
    except PathminerError as exc:
        print(f"pathminer: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"pathminer: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"pathminer: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
