"""Command-line interface.

Each subcommand computes every artifact before it writes any, and first
checks that each target can be written, so a command that exits 1 on an
input, model, resource or missing-directory error writes nothing. --dot
must name a different file from --output. Diagnostics go to stderr. All
randomness is driven by explicit seeds and output formatting is fixed
(metrics with 4 decimals, percentage shares with 2, accuracies with 1), so
identical invocations produce byte-identical files.
"""

import argparse
import errno
import json
import os
import re
import sys
from pathlib import Path

from .errors import DEFAULT_CAP, InputError, PathminerError
from .model import Phenotype


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


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


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode("utf-8")


def _json(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def _net_files(args, stage, net) -> dict[Path, bytes]:
    """The net JSON at ``--output`` and, with ``--dot``, its DOT rendering."""
    files = {args.output: stage.write_net_json(net)}
    if args.dot:
        if os.path.realpath(args.dot) == os.path.realpath(args.output):
            raise InputError("--dot must name a different file from --output")
        files[args.dot] = stage.write_dot(net)
    return files


def _transform(args, stage) -> dict[Path, bytes]:
    rows = stage.parse_patient_csv(args.input.read_bytes())
    return {args.output: stage.write_xes(stage.transform_log(rows))}


def _discover(args, stage) -> dict[Path, bytes]:
    log = stage.read_xes(args.input.read_bytes())
    if args.algorithm == "dfg":
        net = stage.mine_dfm(log, args.paths)
    else:
        net = stage.mine_alpha(log)
    return _net_files(args, stage, net)


def _conform(args, stage) -> dict[Path, bytes]:
    log = stage.read_xes(args.log.read_bytes())
    net = stage.read_net_json(args.net.read_bytes())
    report = stage.conformance_report(net, log, cap=args.cap)
    metrics = ("fitness", "precision", "generalization", "simplicity", "f1")
    body = ",\n".join(f'  "{name}": {getattr(report, name):.4f}' for name in metrics)
    return {args.output: _text(("{", body, "}"))}


def _dejure(args, stage) -> dict[Path, bytes]:
    return _net_files(args, stage, stage.build_dejure())


def _cohorts(args, stage) -> dict[Path, bytes]:
    log = stage.read_xes(args.log.read_bytes())
    report = stage.compare_cohorts(log, args.axis, args.alpha)
    kruskal = ["activity,p_value,testable"]
    activities = {}
    dunn_files = {}
    for row in report.rows:
        if not row.testable:
            kruskal.append(f"{row.activity},,no ({row.reason})")
            activities[row.activity] = {"testable": False, "reason": row.reason}
            continue
        kruskal.append(f"{row.activity},{row.kruskal.p_value:.4f},yes")
        activities[row.activity] = {
            "p_value": round(row.kruskal.p_value, 4),
            "h": round(row.kruskal.h, 4),
            "df": row.kruskal.df,
            "significant": row.kruskal.p_value < report.alpha,
        }
        if row.dunn is not None:
            dunn = ["," + ",".join(row.dunn.labels)]
            for label, p_values in zip(row.dunn.labels, row.dunn.p_values):
                dunn.append(label + "," + ",".join(f"{p:.4f}" for p in p_values))
            slug = re.sub(r"[^a-z0-9]+", "_", row.activity.lower()).strip("_")
            dunn_files[args.outdir / f"dunn_{args.axis}_{slug}.csv"] = _text(dunn)
    summary = {
        "axis": report.axis,
        "alpha": report.alpha,
        "group_sizes": report.group_sizes,
        "excluded_cases": report.excluded_cases,
        "activities": activities,
    }
    args.outdir.mkdir(parents=True, exist_ok=True)
    return {
        args.outdir / f"kruskal_{args.axis}.csv": _text(kruskal),
        args.outdir / f"cohorts_{args.axis}.json": _json(summary),
        **dunn_files,
    }


def _decide(args, stage) -> dict[Path, bytes]:
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
    return {args.output: _json(doc)}


def _simulate(args, stage) -> dict[Path, bytes]:
    overrides = {}
    if args.patients is not None:
        overrides["patients"] = args.patients
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        config = stage.load_config(args.config.read_bytes(), **overrides)
    else:
        config = stage.SimulationConfig(**overrides)
    return {args.output: stage.write_patient_csv(stage.simulate(config))}


def build_parser() -> _Parser:
    parser = _Parser(prog="pathminer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="patient CSV -> XES event log")
    p.set_defaults(artifacts=_transform)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)

    p = sub.add_parser("discover", help="XES -> discovered net JSON (and DOT)")
    p.set_defaults(artifacts=_discover)
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--algorithm", choices=("dfg", "alpha"), default="dfg")
    p.add_argument("--paths", type=float, default=0.9)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--dot", type=Path)

    p = sub.add_parser("conform", help="XES + net JSON -> metric report JSON")
    p.set_defaults(artifacts=_conform)
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--net", required=True, type=Path)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("dejure", help="emit the built-in reference net")
    p.set_defaults(artifacts=_dejure)
    p.add_argument("--output", required=True, type=Path)
    p.add_argument("--dot", type=Path)

    p = sub.add_parser("cohorts", help="XES -> cohort statistics CSV/JSON")
    p.set_defaults(artifacts=_cohorts)
    p.add_argument("--log", required=True, type=Path)
    p.add_argument("--axis", choices=("diabetes", "ckd"), required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--outdir", required=True, type=Path)

    p = sub.add_parser("decide", help="XES + net JSON -> decision mining JSON")
    p.set_defaults(artifacts=_decide)
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
    p.set_defaults(artifacts=_simulate)
    p.add_argument("--config", type=Path)
    p.add_argument("--patients", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", required=True, type=Path)

    return parser


def _write(files: dict[Path, bytes]) -> None:
    """Write every artifact, or none: first raise the error that a write
    would raise for a target that is a directory or whose parent is not."""
    for path in files:
        try:
            if path.is_dir():
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
            os.stat(os.path.join(path.parent, ""))  # the trailing "/" requires a directory
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, str(path)) from None
    for path, data in files.items():
        path.write_bytes(data)


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    _write(args.artifacts(args, sys.modules[__name__]))
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except (PathminerError, OSError) as exc:
        print(f"pathminer: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"pathminer: internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
