"""One pass of a workload in a fresh process.

A pass is what a user of ``mvcrop`` waits for: import the package, load the
``.mvds`` file, build the config (set-up), then run the workload's protocol
calls (wall). Running each pass in its own process keeps passes independent:
every one starts cold and its peak RSS is its own.

Usage (from ``run.py``)::

    python3 perfbench/worker.py --workload NAME --data FILE --out DIR \
        --trace 0|1 --result FILE [--setup-only]
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402  (perfbench sibling; imports no numpy)
from workloads import GRID_COMPONENT_ENCODER, WORKLOADS  # noqa: E402


def _configs(workload, experiments, TrainConfig, out_dir: Path) -> list:
    train = TrainConfig(batch_size=128, max_epochs=workload.epochs,
                        patience=workload.epochs,
                        learning_rate=workload.learning_rate)
    common = dict(repetitions=1, seed_base=0, jobs=workload.jobs,
                  test_fraction=workload.test_fraction, train=train)
    if workload.protocol == "run_grid":
        return [(experiments.run_grid, experiments.ExperimentConfig(
            component_encoder=GRID_COMPONENT_ENCODER,
            output_dir=str(out_dir / "grid"), **common))]
    return [(experiments.run_cell, experiments.ExperimentConfig(
        encoder=encoder, strategy=strategy,
        output_dir=str(out_dir / f"{encoder}_{strategy}"), **common))
        for encoder, strategy in workload.cells]


def _timings(run_dir: Path) -> tuple:
    """(sum of train seconds, sum of infer seconds) over timings.csv rows."""
    train = infer = 0.0
    with open(run_dir / "reports" / "timings.csv", newline="") as handle:
        for row in csv.DictReader(handle):
            reps = int(row["repetitions"])
            train += float(row["train_seconds_mean"] or 0.0) * reps
            infer += float(row["infer_seconds_mean"] or 0.0) * reps
    return train, infer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report only its time")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = Path(args.out)

    started = perf_counter()
    from mvcrop import data, experiments, kernels  # noqa: PLC0415
    from mvcrop.training import TrainConfig  # noqa: PLC0415
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    dataset = data.load_dataset(args.data)
    configs = _configs(workload, experiments, TrainConfig, out_dir)
    setup_s = perf_counter() - started
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    records = []
    rows = []
    wall_s = train_s = infer_s = 0.0
    for protocol, config in configs:
        started = perf_counter()
        if tracer is None:
            outcome = protocol(dataset, config)
        else:
            outcome = tracer.call(tracing.PROTOCOL, protocol,
                                  (dataset, config), {})
        wall_s += perf_counter() - started
        run_dir = Path(outcome.output_dir)
        records.append((run_dir / "records.csv").read_bytes())
        rows.extend(outcome.records)
        train, infer = _timings(run_dir)
        train_s += train
        infer_s += infer

    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
             + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "train_seconds": train_s,
        "infer_seconds": infer_s,
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
        "records_sha256": hashlib.sha256(b"".join(records)).hexdigest(),
        "rows": [{"cell": r["cell"], "status": r["status"],
                  "error": r["error"], "kappa": r["kappa"],
                  "samples": r["samples"]} for r in rows],
        "backend": kernels.active_backend(),
    }
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer,
                                             threading.main_thread().ident)
        result["step_ms"] = [1000.0 * s for s in tracer.step_seconds]
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
