"""Configuration-driven experiment runner.

Three evaluation protocols over one dataset: the full encoder × strategy grid
(25 base cells plus 6 component cells = 31), the reduced encoder search
(5 Input-fusion cells, then 11 follow-up cells with the winning encoder, one
of which reuses a phase-1 result = 16 cells, 15 trainings per repetition),
and per-view single-model baselines. Each protocol is an ordered tuple of
phases, and one engine (``_run_protocol``) runs any of them. What a run
leaves on disk is written through ``mvcrop.rundir``.
"""
from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from . import rundir
from .cpus import BUDGET
from .data import Dataset, load_dataset, stratified_split
from .encoders import EncoderConfig, build_encoder
from .errors import ConfigError, check_fields
from .fusion import (
    COMPONENT_STRATEGIES,
    COMPONENTS,
    STRATEGIES,
    EnsembleModel,
    PredictionHead,
    build_model,
    resolve_merge,
)
from .metrics import evaluate
from .rngutil import rep_seed
from .rundir import write_records_csv  # perfbench wraps this binding
from .tensor import branches
from .training import (  # load_checkpoint: public re-export
    TrainConfig,
    load_checkpoint as load_checkpoint,
    save_checkpoint,
    train,
    train_ensemble,
)
from .views import canonical_schema

GRID_ENCODERS = ("LSTM", "GRU", "TempCNN", "TAE", "LTAE")
GRID_CELL_COUNT = 31
SEARCH_CELL_COUNT = 16

_SELECTION_METRICS = ("kappa", "average_accuracy", "f1_macro")
_TASKS = ("binary", "multicrop")


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: encoder × strategy × optional component."""

    encoder: str
    strategy: str
    component: str = "none"
    phase: str = ""
    view: str = ""

    @property
    def label(self) -> str:
        text = f"{self.encoder}/{self.strategy}"
        if self.component != "none":
            text += f"+{self.component}"
        if self.view:
            text += f"[{self.view}]"
        return text


def grid_cells(component_encoder: str) -> tuple[CellSpec, ...]:
    """The full protocol: every encoder × strategy pair, then the two
    components over the three strategies that accept them."""
    cells = [CellSpec(enc, strat)
             for enc in GRID_ENCODERS for strat in STRATEGIES]
    cells += [CellSpec(component_encoder, strat, comp)
              for comp in COMPONENTS for strat in COMPONENT_STRATEGIES]
    assert len(cells) == GRID_CELL_COUNT, len(cells)
    return tuple(cells)


def search_cells(winner: str) -> tuple[CellSpec, ...]:
    """The reduced protocol: Input fusion over all encoders, then every
    strategy and component with the winning encoder."""
    cells = [CellSpec(enc, "Input", phase="phase1") for enc in GRID_ENCODERS]
    cells += [CellSpec(winner, strat, phase="phase2")
              for strat in STRATEGIES]
    cells += [CellSpec(winner, strat, comp, phase="phase2")
              for comp in COMPONENTS for strat in COMPONENT_STRATEGIES]
    assert len(cells) == SEARCH_CELL_COUNT, len(cells)
    return tuple(cells)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _build(cls, options: dict, what: str, **fixed):
    """``cls(**fixed, **options)``. A name in ``options`` that is not a
    field of ``cls``, or is one of ``fixed``, is reported as an unknown
    ``what`` by name, and a ``TypeError`` while building as a value of the
    wrong type; both raise ConfigError. ``cls`` checks its field types."""
    names = {f.name for f in fields(cls)} - set(fixed)
    unknown = [key for key in options if key not in names]
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(map(repr, unknown))}")
    try:
        return cls(**fixed, **options)
    except TypeError as exc:
        raise ConfigError(f"wrong value type among the {what}s: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; JSON round-trippable via to/from_dict."""

    dataset: str = ""
    task: str = "binary"
    views: tuple = ()
    encoder: str = "GRU"
    strategy: str = "Feature"
    component: str = "none"
    merge: str | None = None
    gamma: float = 0.3
    repetitions: int = 20
    seed_base: int = 0
    jobs: int = 1
    test_fraction: float = 0.3
    selection_metric: str = "kappa"
    component_encoder: str = "best"
    group_by: tuple = ("year", "continent")
    encoder_options: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    output_dir: str = "runs/run"

    def __post_init__(self) -> None:
        check_fields(self)
        for key in ("views", "group_by"):
            if isinstance(getattr(self, key), str):
                raise ConfigError(
                    f"{key} must be a list of names, not a string")
            object.__setattr__(self, key, tuple(getattr(self, key)))
        object.__setattr__(self, "encoder_options",
                           dict(self.encoder_options))
        if self.component is None:  # JSON null names no component
            object.__setattr__(self, "component", "none")
        if self.task not in _TASKS:
            raise ConfigError(f"unknown task {self.task!r}; known: {_TASKS}")
        if self.encoder not in GRID_ENCODERS:
            raise ConfigError(
                f"unknown encoder {self.encoder!r}; known: {GRID_ENCODERS}")
        resolve_merge(self.strategy, self.component, self.merge)
        if self.gamma < 0:
            raise ConfigError(
                f"auxiliary loss weight must be >= 0, got {self.gamma}")
        if self.repetitions < 1:
            raise ConfigError(
                f"repetitions must be >= 1, got {self.repetitions}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError(
                f"test fraction must lie in (0, 1), got {self.test_fraction}")
        if self.selection_metric not in _SELECTION_METRICS:
            raise ConfigError(
                f"unknown selection metric {self.selection_metric!r}; "
                f"known: {_SELECTION_METRICS}")
        if (self.component_encoder != "best"
                and self.component_encoder not in GRID_ENCODERS):
            raise ConfigError(
                f"component encoder must be 'best' or one of {GRID_ENCODERS},"
                f" got {self.component_encoder!r}")
        if not all(isinstance(v, str) for v in self.views):
            raise ConfigError("views must be view names")
        if not all(isinstance(k, str) for k in self.group_by):
            raise ConfigError("group_by must be metadata field names")
        if not isinstance(self.train, TrainConfig):
            raise ConfigError("train must be a TrainConfig")
        # Surfaces unknown option names and invalid widths immediately.
        self._encoder_config(self.encoder)

    def _encoder_config(self, architecture: str) -> EncoderConfig:
        return _build(EncoderConfig, self.encoder_options, "encoder option",
                      architecture=architecture)

    def to_dict(self) -> dict:
        """Every field, ``train`` as a nested mapping; JSON writes the
        tuple fields as lists."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("experiment config must be a mapping")
        payload = dict(data)
        train_data = payload.pop("train", None)
        if train_data is not None:
            if not isinstance(train_data, dict):
                raise ConfigError("train must be a mapping")
            payload["train"] = _build(TrainConfig, train_data, "train option")
        return _build(cls, payload, "config key")

    def fingerprint(self, dataset_hash: str = "", unread: tuple = ()) -> str:
        """Stable hash of the canonicalized config.

        Paths and the parallelism degree never change what gets computed, so
        they are excluded; the dataset enters through its content hash. The
        ``unread`` fields are hashed at their defaults, so runs of a protocol
        that ignores them share one fingerprint.
        """
        payload = self.to_dict()
        for key in ("dataset", "output_dir", "jobs"):
            payload.pop(key)
        for key in unread:
            payload[key] = self.__dataclass_fields__[key].default
        payload["dataset_hash"] = dataset_hash
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash over schemas, arrays, labels, and metadata."""
    digest = hashlib.sha256()
    digest.update(f"{dataset.task}/{dataset.classes}".encode())
    for schema in dataset.schemas:
        digest.update(
            f"{schema.name}/{schema.temporal}/{schema.channels}/"
            f"{schema.steps}".encode())
        digest.update(np.ascontiguousarray(
            dataset.arrays[schema.name]).tobytes())
    digest.update(dataset.labels.tobytes())
    for key in sorted(dataset.metadata):
        values = dataset.metadata[key]
        digest.update(key.encode())
        if values.dtype.kind == "U":
            digest.update("\x1f".join(values.tolist()).encode())
        else:
            digest.update(values.tobytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# selection rules
# ---------------------------------------------------------------------------


def _ok_groups(rows, key) -> dict:
    """Successful rows grouped by ``key(row)`` in first-seen order; reused
    rows repeat a phase-1 result and are left out, so none counts twice."""
    return rundir.group_rows(
        [row for row in rows if row["status"] == "ok"], key)


def _min_parameters(rows: list) -> int:
    values = [row["parameters"] for row in rows
              if row["parameters"] is not None]
    return min(values) if values else 1 << 62


def _select(candidates: list) -> str:
    """argmax of (mean metric, then lower parameter count, then order).

    ``candidates`` holds (name, mean, parameters) with None means excluded.
    """
    best = None
    for name, mean, parameters in candidates:
        if mean is None:
            continue
        if (best is None or mean > best[1]
                or (mean == best[1] and parameters < best[2])):
            best = (name, mean, parameters)
    if best is None:
        raise ConfigError("no successful repetitions to select from")
    return best[0]


def best_cell_label(rows: list, metric: str) -> str:
    """Cell with the best mean metric over its successful repetitions."""
    groups = _ok_groups(rows, lambda row: row["cell"])
    return _select([(label, rundir.mean_or_none(row[metric] for row in group),
                     _min_parameters(group)) for label, group in groups.items()])


def best_encoder(rows: list, metric: str) -> str:
    """Encoder with the best mean metric pooled over its successful rows.

    Ties break toward the encoder whose Input-fusion cell is smaller.
    """
    groups = _ok_groups(rows, lambda row: row["encoder"])
    candidates = []
    for encoder, group in groups.items():
        inputs = [row for row in group if row["strategy"] == "Input"]
        candidates.append((encoder, rundir.mean_or_none(
            row[metric] for row in group), _min_parameters(inputs or group)))
    return _select(candidates)


# ---------------------------------------------------------------------------
# execution engine
# ---------------------------------------------------------------------------


def _build_cell_model(cell: CellSpec, config: ExperimentConfig,
                      dataset: Dataset, merge: str | None):
    return build_model(
        list(dataset.schemas), cell.strategy,
        config._encoder_config(cell.encoder), classes=dataset.classes,
        merge=merge, component=cell.component, gamma=config.gamma)


def _predict_all(model, dataset: Dataset, batch_size: int) -> np.ndarray:
    """Test-split probabilities in sample order. The batches run as
    concurrent branches (``tensor.branches``): a prediction reads the model
    and changes nothing, so where a batch runs changes no bit. The model
    switches to infer mode once, before any batch runs."""
    if model.mode != "infer":
        model.set_mode("infer")
    parts = branches([
        lambda start=start: model.predict(
            dataset.batch(slice(start, start + batch_size)))
        for start in range(0, len(dataset), batch_size)],
        model.spreads(batch_size))
    return np.concatenate(parts, axis=0)


def _fit(cell: CellSpec, model, dataset: Dataset,
         config: TrainConfig) -> float:
    """Train one model; returns training wall-clock seconds."""
    if isinstance(model, EnsembleModel):
        results = train_ensemble(model, dataset, config)
        return float(sum(res.wall_clock for res in results.values()))
    return float(train(model, dataset, config).wall_clock)


def _error_text(exc: Exception) -> str:
    text = f"{type(exc).__name__}: {exc}"
    return " ".join(text.split())


def _run_one(cell: CellSpec, rep: int, data, config: ExperimentConfig,
             fingerprint: str, out_dir: Path, merge: str) -> tuple:
    """Train and score one (cell, repetition): its record row, which also
    carries its train and infer seconds, and its test-split probabilities
    (None when it failed)."""
    train_ds, test_ds = data
    seed = rep_seed(config.seed_base, rep)
    parameters = probabilities = report = None
    train_seconds = infer_seconds = 0.0
    status, error, checkpoint = "ok", "", ""
    try:
        model = _build_cell_model(cell, config, train_ds, merge)
        parameters = model.parameter_count()
        model.initialize(seed)
        train_seconds = _fit(cell, model, train_ds,
                             replace(config.train, seed=seed))
        started = perf_counter()
        probabilities = _predict_all(model, test_ds,
                                     config.train.batch_size)
        infer_seconds = perf_counter() - started
        report = evaluate(test_ds.labels, probabilities, test_ds.classes)
        checkpoint = rundir.checkpoint_name(cell.label, rep)
        save_checkpoint(model, out_dir / checkpoint, extra={
            "cell": cell.label, "phase": cell.phase, "repetition": rep,
            "seed": seed, "fingerprint": fingerprint})
    except Exception as exc:  # crash isolation: siblings keep running
        status, error = "error", _error_text(exc)
        probabilities = report = None
        checkpoint = ""
    row = {
        "cell": cell.label, "phase": cell.phase, "view": cell.view,
        "encoder": cell.encoder, "strategy": cell.strategy,
        "component": cell.component, "merge": merge,
        "repetition": rep, "seed": seed, "fingerprint": fingerprint,
        "status": status, "error": error, "parameters": parameters,
        "samples": None if report is None else int(report.samples),
        **rundir.metric_values(report, rundir.METRIC_FIELDS),
        "checkpoint": checkpoint,
        "train_seconds": train_seconds, "infer_seconds": infer_seconds,
    }
    return row, probabilities


def _cell_split(cell: CellSpec, split: tuple) -> tuple:
    """A cell's (train, test) data: the whole split, or one view of it."""
    if not cell.view:
        return split
    return tuple(part.restrict([cell.view]) for part in split)


def _execute(cells, split: tuple, config: ExperimentConfig, out_dir: Path,
             fingerprint: str, predictions: dict) -> list:
    """Run every (cell, repetition) in cell-major order; returns the rows.

    The test-split probabilities of each cell's lowest-numbered successful
    repetition go into ``predictions`` under its checkpoint path, which is
    all the reports read; the others are dropped as they arrive. An
    illegal merge raises ConfigError before anything is written.
    """
    merges = {cell: resolve_merge(cell.strategy, cell.component,
                                  config.merge) for cell in cells}
    (out_dir / rundir.CHECKPOINTS).mkdir(parents=True, exist_ok=True)
    tasks = [(cell, rep) for cell in cells
             for rep in range(config.repetitions)]

    def work(task):
        cell, rep = task
        return _run_one(cell, rep, _cell_split(cell, split), config,
                        fingerprint, out_dir, merges[cell])

    def pooled_work(task):
        with BUDGET.held():  # a running task keeps a CPU busy
            return work(task)

    pooled = config.jobs > 1 and len(tasks) > 1
    rows, kept = [], set()
    # a pooled caller only waits on the pool: its CPU is the pool's
    with ThreadPoolExecutor(max_workers=config.jobs) as pool, (
            BUDGET.lent() if pooled else nullcontext()):
        # ``map`` yields in task order, so rows come out cell-major.
        results = pool.map(pooled_work, tasks) if pooled else map(work, tasks)
        for row, probabilities in results:
            if row["status"] == "ok" and row["cell"] not in kept:
                kept.add(row["cell"])
                predictions[row["checkpoint"]] = probabilities
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# protocol runners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunOutcome:
    """Everything a protocol run produced, with records as CSV row dicts
    holding exactly ``RECORD_COLUMNS``."""

    records: tuple
    cells: tuple
    trainings_executed: int
    best_cell: str
    output_dir: str


def _finalize(kind: str, config: ExperimentConfig, out_dir: Path,
              fingerprint: str, cells: list, rows: list, trainings: int,
              split: tuple, predictions: dict) -> RunOutcome:
    write_records_csv(out_dir / rundir.RECORDS, rows)
    if not any(row["status"] == "ok" for row in rows):
        first = next((row["error"] for row in rows if row["error"]),
                     "unknown error")
        raise RuntimeError(f"every repetition failed; first error: {first}")
    best = best_cell_label(rows, config.selection_metric)
    rundir.write_manifest(out_dir, kind, config, fingerprint, cells,
                          trainings, best)
    # Best-cell diagnostics: its first successful repetition's scores on
    # the shared test split, sample by sample.
    source = next(row for row in rows
                  if row["cell"] == best and row["status"] == "ok")
    probabilities = predictions[source["checkpoint"]]
    _, test_ds = _cell_split(next(cell for cell in cells
                                  if cell.label == best), split)
    labels = test_ds.labels
    rundir.write_reports(out_dir, kind, best, config.group_by, rows, (
        labels, probabilities, test_ds.metadata,
        evaluate(labels, probabilities, probabilities.shape[1])))
    rundir.write_timings(out_dir, rows)
    rundir.write_predictions(out_dir, labels, probabilities, test_ds.metadata,
                             config.group_by)
    records = tuple({column: row[column] for column in rundir.RECORD_COLUMNS}
                    for row in rows)
    return RunOutcome(records=records, cells=tuple(cells),
                      trainings_executed=trainings, best_cell=best,
                      output_dir=str(out_dir))


# Config fields that a protocol never reads. A cell run also leaves
# ``gamma`` unread unless its component is ``multiloss``.
_UNREAD_FIELDS = {
    "cell": ("component_encoder",),
    "grid": ("encoder", "strategy"),
    "search": ("encoder", "strategy", "component_encoder"),
    "baselines": ("strategy", "component", "gamma", "component_encoder"),
}


def _run_protocol(kind: str, phases, dataset,
                  config: ExperimentConfig) -> RunOutcome:
    """Run a protocol: an ordered tuple of phases.

    A phase maps the prepared dataset, the config and the rows of the
    earlier phases to the cells it trains and the cells that repeat the
    rows of an earlier cell with the same label; the repeated cells come
    first in the run's cell order. A phase that cannot choose its cells
    from those rows raises RuntimeError after the rows so far are written
    to ``records.csv``. Each phase trains ``cells × repetitions`` models.
    """
    if isinstance(dataset, (str, Path)):
        dataset = load_dataset(dataset)
    if config.views:
        dataset = dataset.restrict(list(config.views))
    if dataset.task != config.task:
        raise ConfigError(
            f"config expects task {config.task!r} but dataset is "
            f"{dataset.task!r}")
    rundir.check_group_fields(dataset.metadata, config.group_by)
    out_dir = Path(config.output_dir)
    unread = _UNREAD_FIELDS[kind]
    if kind == "cell" and config.component != "multiloss":
        unread += ("gamma",)
    fingerprint = config.fingerprint(dataset_fingerprint(dataset), unread)
    split = stratified_split(dataset, config.test_fraction, config.seed_base)

    cells, rows, predictions, trainings = [], [], {}, 0
    for phase in phases:
        try:
            trained, reused = phase(dataset, config, rows)
        except RuntimeError:
            write_records_csv(out_dir / rundir.RECORDS, rows)
            raise
        for cell in reused:
            rows += [dict(row, phase=cell.phase, status=(
                "reused" if row["status"] == "ok" else "error"))
                for row in rows if row["cell"] == cell.label]
        cells += (*reused, *trained)
        rows += _execute(trained, split, config, out_dir, fingerprint,
                         predictions)
        trainings += len(trained) * config.repetitions
    return _finalize(kind, config, out_dir, fingerprint, cells, rows,
                     trainings, split, predictions)


def _config_cell(dataset, config, rows) -> tuple:
    return (CellSpec(config.encoder, config.strategy, config.component),), ()


def _view_cells(dataset, config, rows) -> tuple:
    return tuple(CellSpec(config.encoder, "Input", phase="baseline",
                          view=name) for name in dataset.view_names), ()


def _grid_base_cells(dataset, config, rows) -> tuple:
    return tuple(cell for cell in grid_cells(GRID_ENCODERS[0])
                 if cell.component == "none"), ()


def _grid_component_cells(dataset, config, rows) -> tuple:
    encoder = config.component_encoder
    if encoder == "best":
        try:
            encoder = best_encoder(rows, config.selection_metric)
        except ConfigError as exc:
            raise RuntimeError(
                f"cannot resolve component encoder: {exc}") from exc
    return tuple(cell for cell in grid_cells(encoder)
                 if cell.component != "none"), ()


def _search_input_cells(dataset, config, rows) -> tuple:
    return tuple(cell for cell in search_cells(GRID_ENCODERS[0])
                 if cell.phase == "phase1"), ()


def _search_winner_cells(dataset, config, rows) -> tuple:
    ok = {row["encoder"] for row in rows if row["status"] == "ok"}
    failed = sorted({row["encoder"] for row in rows} - ok)
    if failed:
        raise RuntimeError(
            f"phase 1 failed for encoder(s) {failed}; phase 2 aborted")
    winner = best_encoder(rows, config.selection_metric)
    phase2 = [cell for cell in search_cells(winner) if cell.phase == "phase2"]
    # The winner's Input cell repeats its phase-1 numbers verbatim.
    return (tuple(cell for cell in phase2 if cell.strategy != "Input"),
            tuple(cell for cell in phase2 if cell.strategy == "Input"))


def _reject_cell_choice(kind: str, config: ExperimentConfig) -> None:
    """The grid and the search run fixed cells, so a merge or component
    set in the config would be dropped; refuse it instead."""
    if config.merge is not None or config.component != "none":
        raise ConfigError(
            f"{kind} runs its own cells and cannot apply 'merge' or "
            f"'component'; got merge={config.merge!r}, "
            f"component={config.component!r}")


def run_cell(dataset, config: ExperimentConfig) -> RunOutcome:
    """Train and score the single cell named by the config."""
    return _run_protocol("cell", (_config_cell,), dataset, config)


def run_grid(dataset, config: ExperimentConfig) -> RunOutcome:
    """Full protocol: 25 base cells, then 6 component cells with the
    resolved component encoder."""
    _reject_cell_choice("grid", config)
    return _run_protocol("grid", (_grid_base_cells, _grid_component_cells),
                         dataset, config)


def run_search(dataset, config: ExperimentConfig) -> RunOutcome:
    """Reduced protocol: Input-fusion over all encoders picks a winner,
    which then runs every strategy and component; the winner's Input cell
    is reused, not retrained."""
    _reject_cell_choice("search", config)
    return _run_protocol("search", (_search_input_cells, _search_winner_cells),
                         dataset, config)


def single_view_baselines(dataset, config: ExperimentConfig) -> RunOutcome:
    """One Input-fusion model per view with the configured encoder."""
    return _run_protocol("baselines", (_view_cells,), dataset, config)


# ---------------------------------------------------------------------------
# parameter inspection
# ---------------------------------------------------------------------------

_REFERENCE_COUNTS = {
    ("GRU", "optical"): 43904,
    ("GRU", "radar"): 42176,
    ("GRU", "weather"): 42176,
    ("GRU", "ndvi"): 41984,
    ("LSTM", "optical"): 57152,
    ("LSTM", "radar"): 54592,
    ("LSTM", "weather"): 54592,
    ("TempCNN", "optical"): 258880,
    ("TempCNN", "radar"): 256000,
    ("TempCNN", "weather"): 256000,
    ("TempCNN", "ndvi"): 255680,
    ("MLP", "topography"): 4352,
}

# The single-channel LSTM reference cannot be reproduced by any
# width/geometry assignment consistent with the other rows, so it is
# reported but not checked; see README.
_EXCLUDED_REFERENCE = {("LSTM", "ndvi"): 50688}

_TEMPORAL_VIEWS = ("optical", "radar", "weather", "ndvi")
_REFERENCE_HEAD = 20802
_REFERENCE_DELTAS = (("optical", "radar", 594), ("radar", "ndvi", 66))
_REFERENCE_TAE_MINUS_LTAE = 8192


def inspect_parameters() -> list:
    """Computed parameter counts next to the published reference targets.

    Rows are dicts with component, view, computed, reference, and a status
    of ok / mismatch / excluded / info.
    """
    rows = []
    counts: dict = {}
    for architecture in ("GRU", "LSTM", "TempCNN", "TAE", "LTAE"):
        counts[architecture] = {}
        for view in _TEMPORAL_VIEWS:
            encoder = build_encoder(canonical_schema(view),
                                    EncoderConfig(architecture))
            counts[architecture][view] = encoder.parameter_count()
    counts["MLP"] = {"topography": build_encoder(
        canonical_schema("topography"),
        EncoderConfig("MLP")).parameter_count()}

    def add(component, view, computed, reference, excluded=False):
        if excluded:
            status = "excluded"
        elif reference is None:
            status = "info"
        else:
            status = "ok" if computed == reference else "mismatch"
        rows.append({"component": component, "view": view,
                     "computed": computed, "reference": reference,
                     "status": status})

    for architecture in ("GRU", "LSTM", "TempCNN"):
        for view in _TEMPORAL_VIEWS:
            key = (architecture, view)
            if key in _EXCLUDED_REFERENCE:
                add(architecture, view, counts[architecture][view],
                    _EXCLUDED_REFERENCE[key], excluded=True)
            else:
                add(architecture, view, counts[architecture][view],
                    _REFERENCE_COUNTS[key])
    add("MLP", "topography", counts["MLP"]["topography"],
        _REFERENCE_COUNTS[("MLP", "topography")])
    add("head[320->2]", "", PredictionHead(320, 2).parameter_count(),
        _REFERENCE_HEAD)
    for architecture in ("TAE", "LTAE"):
        for view in _TEMPORAL_VIEWS:
            add(architecture, view, counts[architecture][view], None)
        for wide, narrow, delta in _REFERENCE_DELTAS:
            add(f"{architecture} {wide}-{narrow}", "",
                counts[architecture][wide] - counts[architecture][narrow],
                delta)
    add("TAE-LTAE", "",
        counts["TAE"]["optical"] - counts["LTAE"]["optical"],
        _REFERENCE_TAE_MINUS_LTAE)
    return rows
