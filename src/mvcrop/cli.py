"""``mvcrop`` command line: dataset tooling and experiment protocols.

Subcommands: ``synth`` (generate a synthetic dataset), ``import`` (CSV to
container), ``inspect-params`` (parameter counts vs. reference targets),
``entropy`` (spectral-entropy diagnostics), ``train`` (one cell), ``grid``
(full 31-cell protocol), ``search`` (reduced 16-cell protocol), and
``report`` (re-emit tables from a run directory).

Exit codes: 0 success, 1 validation error (bad flags, unreadable or invalid
configs and inputs), 2 runtime error (training or scoring failed).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .data import (
    SYNTH_KINDS,
    SynthSpec,
    entropy_report,
    import_csv,
    load_dataset,
    save_dataset,
    synth_generate,
    with_ndvi,
)
from .errors import ConfigError, FormatError, ShapeError, check_structure
from .experiments import (
    ExperimentConfig,
    inspect_parameters,
    run_cell,
    run_grid,
    run_search,
)
from .rundir import RECORDS, REPORTS, reemit_reports, write_table
from .views import ViewSchema, canonical_schema


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise _UsageError(message)


_RUN_COMMANDS = (
    ("train", "run the single cell named by the config", run_cell),
    ("grid", "run the full 31-cell protocol", run_grid),
    ("search", "run the reduced 16-cell protocol", run_search),
)


def _add_run_flags(parser) -> None:
    parser.add_argument("--config", required=True,
                        help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the seed base")
    parser.add_argument("--reps", type=int, default=None,
                        help="override the repetition count")
    parser.add_argument("--jobs", type=int, default=None,
                        help="parallel workers over (cell, repetition)")
    parser.add_argument("--out", default=None,
                        help="override the output directory")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mvcrop", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command")

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    synth.add_argument("--samples", type=int, default=400)
    synth.add_argument("--noise", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)

    imp = sub.add_parser("import", help="assemble a container from CSVs")
    imp.add_argument("--manifest", required=True,
                     help="JSON describing views, schemas, and labels")
    imp.add_argument("--out", required=True)

    inspect = sub.add_parser("inspect-params",
                             help="parameter counts vs. reference targets")
    inspect.add_argument("--json", action="store_true")

    entropy = sub.add_parser("entropy",
                             help="spectral-entropy diagnostics per view")
    entropy.add_argument("--data", required=True)
    entropy.add_argument("--segments", type=int, default=2)
    entropy.add_argument("--out", default=None)

    for name, text, runner in _RUN_COMMANDS:
        run = sub.add_parser(name, help=text)
        _add_run_flags(run)
        run.set_defaults(runner=runner)

    report = sub.add_parser("report",
                            help="re-emit tables from a run directory")
    report.add_argument("--records", required=True,
                        help="run directory holding records.csv")
    return parser


def _load_json(path):
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(blob)
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from None


def _cmd_synth(args) -> int:
    spec = SynthSpec(kind=args.kind, samples=args.samples, noise=args.noise)
    dataset = synth_generate(spec, args.seed)
    save_dataset(dataset, args.out)
    print(f"wrote {args.out}: {len(dataset)} samples, "
          f"views: {', '.join(dataset.view_names)}")
    return 0


def _schema_from_manifest(name: str, spec) -> ViewSchema:
    where = f"import manifest.schemas.{name}"
    check_structure(spec, {}, where)
    spec = {"canonical": False, "temporal": True, **spec}
    check_structure(spec, {"canonical": bool, "temporal": bool}, where)
    if spec["canonical"]:
        return canonical_schema(name)
    if not spec["temporal"]:
        check_structure(spec, {"channels": int}, where)
        return ViewSchema(name, False, spec["channels"])
    check_structure(spec, {"channels": int, "steps": int}, where)
    return ViewSchema(name, True, spec["channels"], spec["steps"])


def _cmd_import(args) -> int:
    manifest_path = Path(args.manifest)
    payload = _load_json(manifest_path)
    check_structure(payload, {}, "import manifest")
    payload = {"task": "binary", "classes": 2, "ndvi": False, **payload}
    check_structure(payload, {"labels": str, "views": {}, "schemas": {},
                              "task": str, "classes": int, "ndvi": bool},
                    "import manifest")
    base = manifest_path.parent
    views = payload["views"]
    schemas = []
    view_files = {}
    for name, path in views.items():
        if name not in payload["schemas"]:
            raise ConfigError(f"no schema declared for view {name!r}")
        check_structure(path, str, f"import manifest.views.{name}")
        schemas.append(_schema_from_manifest(name, payload["schemas"][name]))
        view_files[name] = base / path
    dataset = import_csv(view_files, base / payload["labels"], schemas,
                         task=payload["task"], classes=payload["classes"])
    if payload["ndvi"]:
        dataset = with_ndvi(dataset)
    save_dataset(dataset, args.out)
    print(f"imported {len(dataset)} samples "
          f"({', '.join(dataset.view_names)}) into {args.out}")
    return 0


def _cmd_inspect_params(args) -> int:
    rows = inspect_parameters()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    print(f"{'component':<22} {'view':<12} {'computed':>10} "
          f"{'reference':>10}  status")
    for row in rows:
        reference = "-" if row["reference"] is None else row["reference"]
        print(f"{row['component']:<22} {row['view']:<12} "
              f"{row['computed']:>10} {reference:>10}  {row['status']}")
    checked = [row for row in rows if row["status"] != "info"]
    ok = sum(row["status"] == "ok" for row in checked)
    mismatched = sum(row["status"] == "mismatch" for row in checked)
    excluded = sum(row["status"] == "excluded" for row in checked)
    print(f"checks: {ok} ok, {mismatched} mismatch (documented), "
          f"{excluded} excluded")
    return 0


def _cmd_entropy(args) -> int:
    dataset = load_dataset(args.data)
    report = entropy_report(dataset, segments=args.segments)
    for view, stats in report.summary.items():
        print(f"{view}: mean spectral entropy {stats['mean']:.4f} "
              f"(min {stats['min']:.4f}, max {stats['max']:.4f}, "
              f"std {stats['std']:.4f})")
    if args.out:
        write_table(args.out, ("view", "feature", "entropy"),
                    [(view, feature, value)
                     for view, values in report.per_feature.items()
                     for feature, value in enumerate(values)])
        print(f"wrote {args.out}")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    payload = _load_json(args.config)
    config = ExperimentConfig.from_dict(payload)
    overrides = {}
    if args.seed is not None:
        overrides["seed_base"] = args.seed
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        config = replace(config, **overrides)
    if not config.dataset:
        raise ConfigError("config must set a dataset path")
    # Relative paths in the config resolve against the config file itself;
    # an --out override resolves against the working directory instead.
    base = Path(args.config).resolve().parent
    dataset = Path(config.dataset)
    if not dataset.is_absolute():
        dataset = base / dataset
    output = Path(config.output_dir)
    if not output.is_absolute() and args.out is None:
        output = base / output
    return replace(config, dataset=str(dataset), output_dir=str(output))


def _cmd_run(args) -> int:
    config = _experiment_config(args)
    outcome = args.runner(config.dataset, config)
    print(f"cells: {len(outcome.cells)}  "
          f"trainings: {outcome.trainings_executed}  "
          f"best: {outcome.best_cell}")
    print(f"records: {Path(outcome.output_dir) / RECORDS}")
    print(f"reports: {Path(outcome.output_dir) / REPORTS}")
    return 0


def _cmd_report(args) -> int:
    reemit_reports(args.records)
    print(f"re-emitted reports under {Path(args.records) / REPORTS}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "import": _cmd_import,
    "inspect-params": _cmd_inspect_params,
    "entropy": _cmd_entropy,
    "report": _cmd_report,
    **{name: _cmd_run for name, _, _ in _RUN_COMMANDS},
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"mvcrop: error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, FormatError, ShapeError, FileNotFoundError,
            IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        print(f"mvcrop: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a runtime failure
        print(f"mvcrop: runtime error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
