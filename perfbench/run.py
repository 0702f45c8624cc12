#!/usr/bin/env python3
"""End-to-end and per-layer training benchmark for mvcrop.

Run from the repository root:

    python3 perfbench/run.py --workload cell-recurrent --seed 1 \
        --seconds 20 --trace 0

The benchmark generates the workload's synthetic dataset from ``--seed``,
saves it as ``.mvds`` and hands the program only that path. It then runs
passes (``worker.py``, one fresh process each) until ``--seconds`` have
elapsed, checks their outputs and prints every metric by name and unit. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from traced passes, alternated with
untraced ones to measure the tracing overhead) with ``--trace 1``.
"""
from __future__ import annotations

import os

# Pin the numeric environment before numpy is imported anywhere, here or in
# the worker processes that inherit it: one BLAS thread per Python thread,
# so a jobs=2 grid stays within two cores and results do not depend on the
# BLAS thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_LIMIT_S = 150.0   # stop starting passes past this, whatever --seconds says
PASS_LIMIT_S = 170.0  # hard timeout of the whole run
SETUP_PROBES = 6      # extra set-up-only processes per --trace 0 run


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# numeric environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Threads of the loaded OpenBLAS, asked through its own API."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libraries = sorted({line.split()[-1] for line in maps.splitlines()
                        if "openblas" in line.split()[-1]})
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30,
                          check=False)
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "mvcrop").rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _cpu_ticks():
    """Machine-wide (steal, total) CPU ticks, or None off Linux."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    ticks = [int(value) for value in fields[1:]]
    return ticks[7], sum(ticks)


def _pass(workload, data_path: Path, work: Path, index: int, traced: bool,
          timeout: float, setup_only: bool = False) -> dict:
    """Run one worker process; returns its result or the reason it failed."""
    out = work / f"pass{index:02d}"
    result_path = work / f"pass{index:02d}.json"
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload.name, "--data", str(data_path),
               "--out", str(out), "--trace", str(int(traced)),
               "--result", str(result_path)]
    if setup_only:
        command.append("--setup-only")
    before = _cpu_ticks()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": "pass timed out"}
    after = _cpu_ticks()
    shutil.rmtree(out, ignore_errors=True)
    if done.returncode != 0 or not result_path.is_file():
        tail = " ".join(done.stderr.strip().splitlines()[-3:])
        return {"traced": traced,
                "error": f"worker exited {done.returncode}: {tail}"}
    result = json.loads(result_path.read_text())
    result["traced"] = traced
    if before and after and after[1] > before[1]:
        # Time the hypervisor ran something else: context for noisy runs.
        result["steal_share"] = (after[0] - before[0]) / (after[1] - before[1])
    return result


def run_passes(workload, data_path: Path, work: Path, seconds: int,
               trace: bool, started: float) -> list:
    """Untraced passes, or untraced and traced alternately with --trace 1,
    as many as fit in ``seconds``; at least two either way."""
    passes = []
    measuring = perf_counter()
    while True:
        elapsed = perf_counter() - measuring
        if len(passes) >= 2 and (
                elapsed * (len(passes) + 1) / len(passes) > seconds
                or perf_counter() - started > RUN_LIMIT_S):
            break
        traced = trace and len(passes) % 2 == 1
        remaining = PASS_LIMIT_S - (perf_counter() - started)
        passes.append(_pass(workload, data_path, work, len(passes), traced,
                            remaining))
    return passes


def setup_probes(workload, data_path: Path, work: Path,
                 started: float) -> list:
    """Set-up seconds of processes that stop right after set-up."""
    seconds = []
    for index in range(SETUP_PROBES):
        remaining = PASS_LIMIT_S - (perf_counter() - started)
        probe = _pass(workload, data_path, work, 100 + index, False,
                      remaining, setup_only=True)
        if "error" in probe:
            break
        seconds.append(probe["setup_s"])
    return seconds


# ---------------------------------------------------------------------------
# metrics and checks
# ---------------------------------------------------------------------------


def end_to_end(workload, result: dict) -> dict:
    rows = result["rows"]
    ok = [row for row in rows if row["status"] == "ok"]
    tasks = len(workload.planned_cells())
    kappas = [row["kappa"] for row in ok if row["kappa"] is not None]
    train_s, infer_s = result["train_seconds"], result["infer_seconds"]
    return {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "train_samples_per_s":
            workload.planned_sample_epochs() / train_s if train_s else 0.0,
        "infer_samples_per_s":
            workload.test_samples * tasks / infer_s if infer_s else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": len(ok) / tasks,
        "kappa_mean": statistics.fmean(kappas) if kappas else 0.0,
    }


def _percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def per_layer(passes: list) -> tuple:
    traced = [p for p in passes if p["traced"] and "error" not in p]
    plain = [p for p in passes if not p["traced"] and "error" not in p]
    names = traced[0]["layers"]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in names}
    steps = [ms for p in traced for ms in p["step_ms"]]
    values["training.step_ms_p50"] = _percentile(steps, 0.5)
    values["training.step_ms_p90"] = _percentile(steps, 0.9)
    values["trace.overhead_share"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in plain) - 1.0)
    return values, len(steps)


def check(workload, passes: list) -> tuple:
    """Failed (cell, rep) count and the list of failed checks."""
    tasks = len(workload.planned_cells())
    failed = 0
    problems = []
    digests = set()
    for index, result in enumerate(passes):
        if "error" in result:
            failed += tasks
            problems.append(f"pass {index}: {result['error']}")
            continue
        rows = result["rows"]
        bad = [row for row in rows if row["status"] != "ok"]
        failed += len(bad) + max(0, tasks - len(rows))
        for row in bad:
            problems.append(f"pass {index}: {row['cell']} {row['status']}: "
                            f"{row['error']}")
        if len(rows) != tasks:
            problems.append(f"pass {index}: {len(rows)} records, "
                            f"planned {tasks}")
        if any(row["samples"] != workload.test_samples for row in rows
               if row["status"] == "ok"):
            problems.append(f"pass {index}: scored a test split of the "
                            f"wrong size")
        digests.add(result["records_sha256"])
        if result["traced"]:
            steps = result["layers"]["training.steps"]
            if steps != workload.planned_steps():
                problems.append(f"pass {index}: {steps} training steps, "
                                f"planned {workload.planned_steps()}")
    if len(digests) > 1:
        problems.append("records.csv differs between passes")
    return failed, problems


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def _metrics_block(values: dict, spec: list) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not (SOURCE / "mvcrop" / "__init__.py").is_file():
        return _fail(f"no mvcrop sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import mvcrop
    from mvcrop import data
    if Path(mvcrop.__file__).resolve().parent != SOURCE / "mvcrop":
        return _fail(f"imported mvcrop from {mvcrop.__file__}")

    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        dataset = data.synth_generate(
            data.SynthSpec("complementary", samples=workload.samples),
            args.seed)
        data_path = work / "input.mvds"
        data.save_dataset(dataset, data_path)
        passes = run_passes(workload, data_path, work, args.seconds,
                            bool(args.trace), started)
        probes = ([] if args.trace
                  else setup_probes(workload, data_path, work, started))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, problems = check(workload, passes)
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    info = {"workload": workload.name, "seed": args.seed,
            "samples": workload.samples, "passes": len(passes),
            "traced_passes": sum(p["traced"] for p in passes),
            "environment": environment(),
            "backend": good[0]["backend"] if good else None,
            "records_sha256": (good[0]["records_sha256"] if good else None),
            "steal_share": [p.get("steal_share") for p in good],
            "problems": problems}
    values = {}
    if args.trace:
        if any(p["traced"] for p in good) and plain:
            values, info["step_samples"] = per_layer(passes)
        spec = SPEC["per_layer"]
    else:
        per_pass = [end_to_end(workload, p) for p in plain]
        if per_pass:
            values = {name: statistics.median(p[name] for p in per_pass)
                      for name in per_pass[0]}
            setups = [p["setup_s"] for p in per_pass] + probes
            values["setup_s"] = statistics.median(setups)
            info["per_pass"] = {name: [p[name] for p in per_pass]
                                for name in per_pass[0]}
            info["per_pass"]["setup_s"] = setups
        spec = SPEC["end_to_end"]
    if values:
        metrics = _metrics_block(values, spec)
    else:
        metrics = {}
        problems.append("too few passes completed to measure")

    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(passes) * len(workload.planned_cells()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
