#!/usr/bin/env python3
"""Byte-identity check of run outputs between a git revision and this tree.

    python tools/identity.py --against REV [--threads 1 2] [--smoke]
                             [--expect-diff GLOB ...]

REV is checked out with ``git worktree`` into a temporary directory and
removed again afterwards; nothing leaves the machine. For each BLAS thread
count (``OPENBLAS_NUM_THREADS``) a fresh child process per tree runs one
fixed matrix with that tree's ``mvcrop``:

- data: synthetic ``complementary``, 131 samples (odd trailing batches),
  plus the derived ``ndvi`` view and a 2-channel ``weather`` view;
- training: batch 16, 3 epochs, patience 2, tiny widths, dropout 0.2;
- protocols: ``run_grid`` at jobs 1 and at jobs 2, ``run_search`` and TAE
  ``single_view_baselines``, one repetition each;
- seven ``run_cell`` configs (``CELLS``), two repetitions each;
- ``PAPER_CELLS``: two-view cells at the default (paper) encoder widths on
  700 synthetic ``complementary`` samples with batch 128, 2 epochs and two
  repetitions, so that the fit part ends in a batch of 57 rows and the
  per-view encoders, and the validation and test batches, are large enough
  to run on helper threads; one cell (Input) has a single encoder, and the
  TAE and L-TAE cells pool with a per-sample and a shared query;
- ``early-stop``: an LSTM Feature cell, two repetitions, trained up to 12
  epochs at learning rate 5e-2 with patience 2, so that early stopping
  fires and the validation loss decides which epoch's parameters are kept;
- ``import``: the matrix dataset written by this script's own ``csv``
  module as one CSV per view (``repr`` floats) plus a labels CSV with all
  six metadata columns, so that both trees read identical bytes; the last
  three samples lack their ``weather`` row and the labels file ends in a
  blank line. ``import_csv`` reads them and ``save_dataset`` writes
  ``import/dataset.mvds``;
- ``report``: ``reemit_reports`` over a copy of the manifest, records and
  per-sample predictions of ``grid`` (of the first smoke cell with
  ``--smoke``).

``--smoke`` runs only ``SMOKE_CELLS`` at one repetition, then ``import``
and ``report``. Every output file
is hashed with sha256. Before hashing, a manifest's ``created`` and
``output_dir`` values are blanked, and in ``timings.csv`` every non-empty
seconds cell becomes ``*``: its header and its ``cell``, ``phase``, ``view``
and ``repetitions`` columns are compared as they are, and a cell without a
successful repetition keeps its empty means. The JSON
report goes to stdout. The exit status is 1 when a file differs, or exists
in one tree only, and matches no ``--expect-diff`` glob (``fnmatch`` on the
path relative to the output root, e.g. ``grid/manifest``).

Comparing one thread count's outputs with another's is not done here.
"""
from __future__ import annotations

import argparse
import csv
import fnmatch
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALL_VIEWS = ("optical", "radar", "ndvi", "weather")
TINY = {"hidden": 8, "layers": 2, "embedding_dim": 8, "dense": 16,
        "heads": 2, "key_dim": 4, "attn_width": 8, "kernel": 3,
        "dropout": 0.2}
# name -> (views, encoder, strategy, component, merge)
CELLS = {
    "gru-input-average": (("radar", "weather"), "GRU", "Input", "none",
                          "average"),
    "lstm-feature-average": (ALL_VIEWS, "LSTM", "Feature", "none",
                             "average"),
    "tempcnn-decision-gated": (ALL_VIEWS, "TempCNN", "Decision", "none",
                               "gated"),
    "tae-hybrid-gfusion": (ALL_VIEWS, "TAE", "Hybrid", "gfusion", None),
    "ltae-feature-multiloss-gated": (ALL_VIEWS, "LTAE", "Feature",
                                     "multiloss", "gated"),
    "gru-ensemble": (ALL_VIEWS, "GRU", "Ensemble", "none", None),
    "lstm-hybrid-multiloss": (ALL_VIEWS, "LSTM", "Hybrid", "multiloss", None),
}
SMOKE_CELLS = ("gru-input-average", "ltae-feature-multiloss-gated")
# name -> (encoder, strategy), at paper widths
PAPER_CELLS = {"paper-gru-feature": ("GRU", "Feature"),
               "paper-tae-hybrid": ("TAE", "Hybrid"),
               "paper-tempcnn-input": ("TempCNN", "Input"),
               "paper-ltae-decision": ("LTAE", "Decision")}
_BLANKED = re.compile(rb'("(?:created|output_dir)": )"[^"]*"')
_METADATA_COLUMNS = ("country", "continent", "year", "latitude", "longitude",
                     "is_test")


def _write_rows(path: Path, header, rows) -> None:
    """A CSV of ``repr`` floats and ``str`` of everything else."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(cell) if isinstance(cell, float) else str(cell)
                          for cell in row] for row in rows)


def import_run(dataset) -> None:
    """Write ``dataset`` as CSVs into ``import/``, import them back and save
    the result as ``import/dataset.mvds``."""
    from mvcrop.data import import_csv, save_dataset

    out = Path("import")
    out.mkdir()
    ids = [f"s{i:03d}" for i in range(len(dataset))]
    for schema in dataset.schemas:
        values = dataset.arrays[schema.name].reshape(len(dataset), -1).tolist()
        kept = len(ids) - 3 if schema.name == "weather" else len(ids)
        _write_rows(out / f"{schema.name}.csv",
                    ["id", *(f"c{j}" for j in range(len(values[0])))],
                    ([sid, *row] for sid, row in zip(ids[:kept], values)))
    metadata = [dataset.metadata[key].tolist() for key in _METADATA_COLUMNS]
    _write_rows(out / "labels.csv", ["id", "label", *_METADATA_COLUMNS],
                zip(ids, dataset.labels.tolist(), *metadata))
    with open(out / "labels.csv", "a") as handle:
        handle.write("\n")
    imported = import_csv(
        {schema.name: out / f"{schema.name}.csv" for schema in dataset.schemas},
        out / "labels.csv", dataset.schemas, task=dataset.task,
        classes=dataset.classes)
    save_dataset(imported, out / "dataset.mvds")


def report_run(source: str) -> None:
    """Rebuild the report tables of run ``source`` in ``report/`` from a
    copy of its manifest, records and per-sample predictions."""
    try:
        from mvcrop.rundir import reemit_reports
    except ImportError:  # a revision from before ``mvcrop.rundir``
        from mvcrop.experiments import reemit_reports

    for name in ("manifest", "records.csv", "reports/predictions.csv"):
        target = Path("report", name)
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(Path(source, name), target)
    reemit_reports("report")


def run_matrix(smoke: bool) -> None:
    """Write every run of the matrix below the working directory. A run
    that raises leaves ``error.txt`` in its directory instead."""
    from dataclasses import replace

    import numpy as np

    from mvcrop.data import SynthSpec, synth_generate, with_ndvi
    from mvcrop.experiments import (
        ExperimentConfig,
        run_cell,
        run_grid,
        run_search,
        single_view_baselines,
    )
    from mvcrop.training import TrainConfig
    from mvcrop.views import ViewSchema

    base = with_ndvi(synth_generate(
        SynthSpec(kind="complementary", samples=131), seed=5))
    steps = base.schema("optical").steps
    dataset = replace(
        base, schemas=base.schemas + (ViewSchema("weather", True, 2, steps),),
        arrays={**base.arrays, "weather": np.random.default_rng(7).normal(
            size=(len(base), steps, 2))})
    config = ExperimentConfig(
        task="binary", views=ALL_VIEWS, repetitions=1 if smoke else 2,
        seed_base=3, encoder_options=TINY,
        train=TrainConfig(batch_size=16, max_epochs=3, patience=2))
    runs = [(name, run_cell, dict(
        views=views, encoder=encoder, strategy=strategy,
        component=component, merge=merge))
        for name, (views, encoder, strategy, component, merge)
        in CELLS.items() if not smoke or name in SMOKE_CELLS]
    if not smoke:
        runs += [("grid", run_grid, dict(repetitions=1, jobs=2)),
                 ("grid-jobs1", run_grid, dict(repetitions=1, jobs=1)),
                 ("early-stop", run_cell, dict(
                     views=ALL_VIEWS, encoder="LSTM", strategy="Feature",
                     component="none", merge="average", train=replace(
                         config.train, max_epochs=12,
                         learning_rate=5e-2))),
                 ("search", run_search, dict(repetitions=1)),
                 ("baselines", single_view_baselines,
                  dict(repetitions=1, encoder="TAE"))]
    steps = [(name, lambda runner=runner, name=name, fields=fields: runner(
        dataset, replace(config, output_dir=name, **fields)))
        for name, runner, fields in runs]
    if not smoke:
        paper = synth_generate(SynthSpec(kind="complementary", samples=700),
                               seed=5)
        steps += [(name, lambda name=name, encoder=encoder, strategy=strategy:
                   run_cell(paper, replace(
                       config, views=("optical", "radar"), encoder=encoder,
                       strategy=strategy, encoder_options={},
                       train=TrainConfig(batch_size=128, max_epochs=2,
                                         patience=2), output_dir=name)))
                  for name, (encoder, strategy) in PAPER_CELLS.items()]
    steps += [("import", lambda: import_run(dataset)),
              ("report", lambda: report_run(SMOKE_CELLS[0] if smoke else "grid"))]
    for name, step in steps:
        try:
            step()
        except Exception as exc:  # an identical failure is identical output
            Path(name).mkdir(parents=True, exist_ok=True)
            Path(name, "error.txt").write_text(
                f"{type(exc).__name__}: {exc}\n")


def _blank_seconds(blob: bytes) -> bytes:
    """A ``timings.csv`` with every non-empty seconds cell replaced by
    ``*``; the wall-clock seconds differ from run to run."""
    header, *rows = csv.reader(io.StringIO(blob.decode()))
    seconds = {i for i, name in enumerate(header) if "seconds" in name}
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(["*" if i in seconds and cell else cell
                      for i, cell in enumerate(row)] for row in rows)
    return out.getvalue().encode()


def digest_outputs(root: Path) -> dict[str, str]:
    """sha256 of every output file below ``root`` by relative path."""
    digests = {}
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        blob = path.read_bytes()
        if path.name == "manifest":
            blob = _BLANKED.sub(rb'\1""', blob)
        elif path.name == "timings.csv":
            blob = _blank_seconds(blob)
        digests[path.relative_to(root).as_posix()] = (
            hashlib.sha256(blob).hexdigest())
    return digests


def compare(rev: dict, tree: dict, expected=()) -> list[dict]:
    """One entry per file that differs or exists in one tree only."""
    out = []
    for name in sorted(set(rev) | set(tree)):
        if rev.get(name) == tree.get(name):
            continue
        status = ("only-in-tree" if name not in rev
                  else "only-in-rev" if name not in tree else "changed")
        out.append({"file": name, "status": status,
                    "expected": any(fnmatch.fnmatchcase(name, pattern)
                                    for pattern in expected)})
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def _outputs(src: Path, out: Path, threads: int, smoke: bool) -> dict:
    """Run the matrix in a child process on ``src``'s package."""
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src),
           "OPENBLAS_NUM_THREADS": str(threads)}
    command = [sys.executable, str(Path(__file__).resolve()), "--child",
               str(src)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(command, cwd=out, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"matrix on {src} failed:\n{proc.stderr}")
    return digest_outputs(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", help="git revision to compare with")
    parser.add_argument("--threads", type=int, nargs="+", default=[1, 2],
                        help="BLAS thread counts (default: 1 2)")
    parser.add_argument("--smoke", action="store_true",
                        help="only the smoke cells, one repetition")
    parser.add_argument("--expect-diff", action="append", default=[],
                        metavar="GLOB", help="a by-design difference")
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        import mvcrop
        if Path(mvcrop.__file__).resolve().parents[1] != Path(args.child).resolve():
            raise SystemExit(f"imported {mvcrop.__file__}, not {args.child}")
        run_matrix(args.smoke)
        return 0
    if not args.against:
        parser.error("--against is required")
    if not all(1 <= n <= 64 for n in args.threads):
        parser.error("thread counts must lie in [1, 64]")
    commit = _git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    report = {"against": args.against, "commit": commit, "smoke": args.smoke,
              "expect_diff": args.expect_diff, "threads": {}}
    with tempfile.TemporaryDirectory(prefix="mvcrop-identity-") as tmp:
        checkout = Path(tmp, "rev")
        _git("worktree", "add", "--detach", "--quiet", str(checkout), commit)
        try:
            for n in args.threads:
                rev = _outputs(checkout / "src", Path(tmp, f"rev-{n}"), n,
                               args.smoke)
                tree = _outputs(ROOT / "src", Path(tmp, f"tree-{n}"), n,
                                args.smoke)
                report["threads"][str(n)] = {
                    "files": len(set(rev) | set(tree)),
                    "failed_runs": sorted({name.split("/")[0]
                                           for name in set(rev) | set(tree)
                                           if name.endswith("/error.txt")}),
                    "differences": compare(rev, tree, args.expect_diff)}
        finally:
            _git("worktree", "remove", "--force", str(checkout))
    unexpected = [d for entry in report["threads"].values()
                  for d in entry["differences"] if not d["expected"]]
    report["ok"] = not unexpected
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
