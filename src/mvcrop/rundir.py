"""The run directory, ``manifest``, ``records.csv``, ``checkpoints/`` and
``reports/``: its file names and, but for checkpoint bytes (``training``),
each file's one writer, at most one reader and cell format.

A record row per (cell, repetition) holds identity columns, seed, config
fingerprint, status, metrics and, in memory only, its train and infer
seconds. ``records.csv`` writes only ``RECORD_COLUMNS``, so it is byte
reproducible for identical (config, seed base) inputs; the seconds go to
``reports/timings.csv``. Tables, ``summary.md`` and the manifest replace
their file from a sibling temporary file, so a kill mid-write leaves the old.
"""
from __future__ import annotations

import csv
import ctypes
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .container import replacing
from .data import METADATA_COLUMNS, parse_cell, read_csv
from .errors import ConfigError, check_structure
from .kernels import active_backend
from .metrics import evaluate, grouped_report, row_entropy

MANIFEST = "manifest"
RECORDS = "records.csv"
CHECKPOINTS = "checkpoints"
REPORTS = "reports"
_PREDICTIONS = "predictions.csv"

METRIC_FIELDS = (
    "average_accuracy", "kappa", "f1_macro", "f1_positive", "auc_roc",
    "max_probability", "prediction_entropy",
)

RECORD_COLUMNS = (
    "cell", "phase", "view", "encoder", "strategy", "component", "merge",
    "repetition", "seed", "fingerprint", "status", "error", "parameters",
    "samples", *METRIC_FIELDS, "checkpoint",
)

SUMMARY_COLUMNS = (
    "cell", "phase", "view", "encoder", "strategy", "component",
    "parameters", "reps_total", "reps_ok", "reps_failed",
    *(f"{metric}_{stat}" for metric in METRIC_FIELDS
      for stat in ("mean", "std")),
)

_TIMING_COLUMNS = ("cell", "phase", "view", "repetitions",
                   "train_seconds_mean", "infer_seconds_mean")

_GROUP_COLUMNS = ("group", "samples", "average_accuracy", "kappa", "f1_macro")

# records.csv columns that parse as numbers; an empty cell reads as None
_NUMERIC_TYPES = {**dict.fromkeys(("repetition", "seed", "parameters",
                                   "samples"), int),
                  **dict.fromkeys(METRIC_FIELDS, float)}

_PREDICTION_METADATA = ("latitude", "longitude", "year", "continent",
                        "country")


def checkpoint_name(cell_label: str, rep: int) -> str:
    """A repetition's checkpoint path relative to the run directory, as its
    record's ``checkpoint`` column holds it; the name is filesystem safe."""
    slug = (cell_label.replace("/", "_").replace("+", "_")
            .replace("[", "_").replace("]", ""))
    return f"{CHECKPOINTS}/{slug}-rep{rep:02d}.mvlc"


def group_rows(rows, key) -> dict:
    """Rows grouped by ``key(row)`` in first-seen order."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(key(row), []).append(row)
    return groups


def mean_or_none(values) -> float | None:
    """Mean of the values that are not None; None when none is left."""
    values = [value for value in values if value is not None]
    return float(np.mean(values)) if values else None


def metric_values(report, names) -> dict:
    """The ``names`` fields of a MetricsReport as floats; each is None when
    the report is None or leaves that metric undefined."""
    values = {name: getattr(report, name) if report else None for name in names}
    return {name: None if v is None else float(v) for name, v in values.items()}


def check_group_fields(metadata: dict, group_by) -> None:
    for key in group_by:
        if key not in metadata:
            raise ConfigError(
                f"grouping by {key!r} requires per-sample metadata field "
                f"{key!r}; available fields: {sorted(metadata)}")


def write_table(path, header, rows) -> None:
    """A CSV of ``header`` and ``rows``, each a sequence of values in header
    order. ``csv`` formats every cell: a float by ``repr``, so it reads back
    exactly, None as an empty cell and anything else by ``str``."""
    with replacing(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cells(rows, columns):
    """Dict rows as value sequences in ``columns`` order."""
    return ([row[column] for column in columns] for row in rows)


def write_records_csv(path, rows: list) -> None:
    write_table(path, RECORD_COLUMNS, _cells(rows, RECORD_COLUMNS))


def read_records_csv(path) -> list:
    """The rows of a ``records.csv``; a missing column or an unparsable
    cell raises FormatError naming the file and line."""
    header, table = read_csv(path, RECORD_COLUMNS)
    rows = []
    for line, cells in table:
        raw = dict(zip(header, cells))
        row = {column: raw[column] for column in RECORD_COLUMNS}
        for column, convert in _NUMERIC_TYPES.items():
            row[column] = (parse_cell(path, line, column, convert, row[column])
                           if row[column] else None)
        rows.append(row)
    return rows


def summarize(rows: list) -> list:
    """Per-cell mean/std (population) over successful repetitions.

    The oracle property: running this over ``records.csv`` reproduces the
    stored summary exactly.
    """
    summary = []
    for (phase, label, view), group in group_rows(
            rows, lambda row: (row["phase"], row["cell"], row["view"])).items():
        scored = [row for row in group if row["status"] in ("ok", "reused")]
        first = group[0]
        entry = {
            "cell": label, "phase": phase, "view": view,
            **{key: first[key] for key in ("encoder", "strategy", "component")},
            "parameters": next((row["parameters"] for row in group
                                if row["parameters"] is not None), None),
            "reps_total": len(group), "reps_ok": len(scored),
            "reps_failed": sum(row["status"] == "error" for row in group),
        }
        for metric in METRIC_FIELDS:
            values = [row[metric] for row in scored
                      if row[metric] is not None]
            entry[f"{metric}_mean"] = mean_or_none(values)
            entry[f"{metric}_std"] = float(np.std(values)) if values else None
        summary.append(entry)
    return summary


def _mean_std(entry: dict, metric: str, scale: int, digits: int) -> str:
    """A summary entry's ``mean±std`` of ``metric``, both times ``scale``."""
    mean, std = entry[f"{metric}_mean"], entry[f"{metric}_std"]
    if mean is None:
        return "-"
    return f"{scale * mean:.{digits}f}±{scale * (std or 0.0):.{digits}f}"


def _write_summary_markdown(path, summary: list, best_cell: str,
                            kind: str) -> None:
    lines = [f"# Run summary ({kind})", "",
             f"Best cell by mean selection metric: **{best_cell}**", "",
             "## Overall results (mean±std over repetitions, ×100)", "",
             "| cell | AA | kappa | F1 | AUC | failed |",
             "| --- | --- | --- | --- | --- | --- |"]
    for entry in summary:
        cells = [_mean_std(entry, metric, 100, 1) for metric in
                 ("average_accuracy", "kappa", "f1_macro", "auc_roc")]
        lines.append(f"| {entry['cell']} | {' | '.join(cells)} "
                     f"| {entry['reps_failed'] or ''} |")
    lines += ["", "## Uncertainty (mean±std over repetitions)", "",
              "| cell | max probability | normalized entropy |",
              "| --- | --- | --- |"]
    for entry in summary:
        cells = [_mean_std(entry, metric, 1, 3) for metric in
                 ("max_probability", "prediction_entropy")]
        lines.append(f"| {entry['cell']} | {' | '.join(cells)} |")
    with replacing(path) as handle:
        handle.write("\n".join(lines) + "\n")


def _timing_rows(rows: list) -> list:
    """Per cell in run order: its repetition count and its mean train and
    infer seconds over the repetitions that did not fail."""
    table = []
    for (phase, label), group in group_rows(
            rows, lambda row: (row["phase"], row["cell"])).items():
        scored = [row for row in group if row["status"] != "error"]
        table.append({
            "cell": label, "phase": phase, "view": group[0]["view"],
            "repetitions": len(group),
            "train_seconds_mean": mean_or_none(row["train_seconds"] for row in scored),
            "infer_seconds_mean": mean_or_none(row["infer_seconds"] for row in scored),
        })
    return table


def write_reports(run_dir, kind: str, best_cell: str, group_by, rows: list,
                  scores=None) -> None:
    """``summary.csv``/``summary.md`` from the record rows and, when the best
    cell's ``(labels, probabilities, metadata, report)`` scores are given,
    ``per_class.csv`` from its MetricsReport and one ``per_<group>.csv`` per
    grouping field."""
    reports = Path(run_dir) / REPORTS
    reports.mkdir(parents=True, exist_ok=True)
    summary = summarize(rows)
    write_table(reports / "summary.csv", SUMMARY_COLUMNS,
                _cells(summary, SUMMARY_COLUMNS))
    _write_summary_markdown(reports / "summary.md", summary, best_cell, kind)
    if scores is None:
        return
    labels, probabilities, metadata, report = scores
    per_class = (report.precision, report.recall, report.f1)
    write_table(reports / "per_class.csv", ("class", "precision", "recall", "f1"),
                zip(range(len(report.f1)), *(map(float, v) for v in per_class)))
    for key in group_by:
        check_group_fields(metadata, (key,))
        groups = grouped_report(labels, probabilities, metadata, key,
                                probabilities.shape[1])
        write_table(reports / f"per_{key}.csv", _GROUP_COLUMNS, [
            (group, int(group_report.samples),
             *metric_values(group_report, _GROUP_COLUMNS[2:]).values())
            for group, group_report in groups.items()])


def write_timings(run_dir, rows: list) -> None:
    """``reports/timings.csv`` from record rows that carry their seconds,
    into the directory that ``write_reports`` made."""
    write_table(Path(run_dir) / REPORTS / "timings.csv", _TIMING_COLUMNS,
                _cells(_timing_rows(rows), _TIMING_COLUMNS))


def _prediction_metadata(available, group_by) -> list:
    """The metadata columns of ``predictions.csv``: the listed ones that
    ``available`` holds, then each other grouping field, so that
    ``reemit_reports`` can group by it again."""
    listed = [key for key in _PREDICTION_METADATA if key in available]
    return listed + [key for key in group_by
                     if key not in listed and key in available]


def write_predictions(run_dir, labels: np.ndarray, probabilities: np.ndarray,
                      metadata: dict, group_by) -> None:
    """``reports/predictions.csv`` in the directory that ``write_reports``
    made, built column by column with one row per sample: its metadata, true
    and predicted label, maximum probability, normalised entropy and class
    probabilities."""
    classes = probabilities.shape[1]
    predicted = probabilities.argmax(axis=1)
    entropy = row_entropy(probabilities) / np.log(classes)
    meta_columns = _prediction_metadata(metadata, group_by)
    header = (["index"] + meta_columns
              + ["true_label", "predicted_label", "correct",
                 "max_probability", "entropy"]
              + [f"prob_{k}" for k in range(classes)])
    columns = [np.arange(labels.shape[0]),
               *(metadata[key] for key in meta_columns),
               labels, predicted, (predicted == labels).astype(np.int64),
               probabilities.max(axis=1), entropy, *probabilities.T]
    write_table(Path(run_dir) / REPORTS / _PREDICTIONS, header,
                zip(*(column.tolist() for column in columns)))


def _read_scores(path, group_by) -> tuple:
    """``predictions.csv`` back into the best cell's scores: (labels,
    probabilities, metadata, MetricsReport). A metadata column that the
    dataset types as a number reads back as that number, so groups sort as
    they did in the run."""
    header, table = read_csv(path, ("true_label",))
    if not table:
        raise ConfigError(f"{path} holds no prediction rows")
    prob_columns = sorted(
        (c for c in header if c.startswith("prob_")),
        key=lambda c: parse_cell(path, 1, "column", int, c[len("prob_"):]))
    rows = [(line, dict(zip(header, cells))) for line, cells in table]
    labels = np.array(
        [parse_cell(path, line, "true_label", int, row["true_label"])
         for line, row in rows], dtype=np.int64)
    probabilities = np.array(
        [[parse_cell(path, line, c, float, row[c]) for c in prob_columns]
         for line, row in rows], dtype=np.float64)
    metadata = {}
    for key in _prediction_metadata(header, group_by):
        convert = METADATA_COLUMNS[key][0] if key in METADATA_COLUMNS else str
        metadata[key] = np.array([
            row[key] if convert is str
            else parse_cell(path, line, key, convert, row[key])
            for line, row in rows])
    return (labels, probabilities, metadata,
            evaluate(labels, probabilities, probabilities.shape[1]))


def _blas_threads() -> int | str:
    """Thread count of the OpenBLAS that numpy loaded, read through its
    ``*openblas_get_num_threads*`` entry point; the process's memory map
    names the loaded library. ``"unknown"`` for a BLAS that cannot be
    queried, or where there is no ``/proc/self/maps``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return "unknown"
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            query = getattr(lib, name, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                return int(query())
    return "unknown"


def _numeric_environment() -> dict:
    """What the numbers of a run depend on besides config and data: the
    numpy and BLAS builds, the BLAS thread count and the CPU count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": _blas_threads(),
            "cpu_count": os.cpu_count()}


def write_manifest(run_dir, kind: str, config, fingerprint: str, cells,
                   trainings: int, best_cell: str) -> None:
    payload = {
        "kind": kind,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "backend": active_backend(), "environment": _numeric_environment(),
        "package_version": __version__, "fingerprint": fingerprint,
        "config": config.to_dict(), "cells": [cell.label for cell in cells],
        "trainings_executed": trainings, "best_cell": best_cell,
    }
    with replacing(Path(run_dir) / MANIFEST) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def reemit_reports(run_dir) -> None:
    """Rebuild the summary and grouped tables of an existing run directory
    from its persisted ``records.csv`` and per-sample dump."""
    from .experiments import ExperimentConfig  # experiments imports rundir

    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST
    records_path = run_dir / RECORDS
    if not manifest_path.is_file() or not records_path.is_file():
        raise ConfigError(
            f"{run_dir} is not a run directory; it needs {MANIFEST!r} and "
            f"{RECORDS!r}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise ConfigError(f"unreadable manifest: {exc}") from None
    check_structure(manifest, {"kind": str, "best_cell": str, "config": dict},
                    str(manifest_path))
    config = ExperimentConfig.from_dict(manifest["config"])
    rows = read_records_csv(records_path)
    predictions_path = run_dir / REPORTS / _PREDICTIONS
    write_reports(run_dir, manifest["kind"], manifest["best_cell"],
                  config.group_by, rows,
                  _read_scores(predictions_path, config.group_by)
                  if predictions_path.is_file() else None)
