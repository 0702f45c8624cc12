"""Oracle tests for the experiment runner: cell enumeration, config
fingerprinting, grid/search/baseline protocols, crash isolation, selection
rules, records/summary CSV round trips, and report emission."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mvcrop
from mvcrop import rundir
from mvcrop.data import (
    Dataset,
    SynthSpec,
    save_dataset,
    stratified_split,
    synth_generate,
)
from mvcrop.encoders import EncoderConfig
from mvcrop.errors import ConfigError
from mvcrop.experiments import (
    GRID_CELL_COUNT,
    GRID_ENCODERS,
    SEARCH_CELL_COUNT,
    CellSpec,
    ExperimentConfig,
    _predict_all,
    best_cell_label,
    best_encoder,
    dataset_fingerprint,
    grid_cells,
    inspect_parameters,
    run_cell,
    run_grid,
    run_search,
    search_cells,
    single_view_baselines,
)
from mvcrop.fusion import STRATEGIES, build_model, resolve_merge
from mvcrop.layers import Module
from mvcrop.rngutil import rep_seed
from mvcrop.rundir import (
    RECORD_COLUMNS,
    SUMMARY_COLUMNS,
    checkpoint_name,
    read_records_csv,
    reemit_reports,
    summarize,
    write_records_csv,
)
from mvcrop.training import TrainConfig, train

TINY_OPTIONS = {
    "hidden": 8,
    "layers": 1,
    "embedding_dim": 8,
    "dense": 16,
    "heads": 2,
    "key_dim": 4,
    "attn_width": 8,
    "kernel": 3,
    "dropout": 0.0,
}


def tiny_train_config(**kw):
    base = dict(batch_size=16, max_epochs=2, patience=1,
                validation_fraction=0.25)
    base.update(kw)
    return TrainConfig(**base)


def tiny_config(out, **kw):
    base = dict(
        task="binary",
        encoder="GRU",
        strategy="Feature",
        component="none",
        repetitions=1,
        seed_base=3,
        test_fraction=0.3,
        encoder_options=dict(TINY_OPTIONS),
        train=tiny_train_config(),
        output_dir=str(out),
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_dataset():
    return synth_generate(SynthSpec(kind="complementary", samples=48,
                                    noise=0.1), seed=5)


@pytest.fixture(scope="module")
def grid_run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("grid")
    config = tiny_config(out)
    outcome = run_grid(tiny_dataset, config)
    return outcome, out, config


@pytest.fixture(scope="module")
def search_run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("search")
    config = tiny_config(out)
    outcome = run_search(tiny_dataset, config)
    return outcome, out, config


def fake_row(encoder, strategy, component="none", phase="", view="",
             repetition=0, status="ok", kappa=0.5, accuracy=0.7,
             parameters=1000):
    cell = CellSpec(encoder, strategy, component, phase=phase, view=view)
    return {
        "cell": cell.label,
        "phase": phase,
        "view": view,
        "encoder": encoder,
        "strategy": strategy,
        "component": component,
        "merge": "concat",
        "repetition": repetition,
        "seed": 3 + repetition,
        "fingerprint": "f" * 16,
        "status": status,
        "error": "" if status == "ok" else "RuntimeError: boom",
        "parameters": parameters,
        "samples": 14 if status == "ok" else None,
        "average_accuracy": accuracy if status == "ok" else None,
        "kappa": kappa if status == "ok" else None,
        "f1_macro": accuracy if status == "ok" else None,
        "f1_positive": accuracy if status == "ok" else None,
        "auc_roc": accuracy if status == "ok" else None,
        "max_probability": 0.8 if status == "ok" else None,
        "prediction_entropy": 0.4 if status == "ok" else None,
        "checkpoint": "checkpoints/x.mvlc" if status == "ok" else "",
    }


# ---------------------------------------------------------------------------
# cell enumeration
# ---------------------------------------------------------------------------


class TestCellSpec:
    def test_label_plain(self):
        assert CellSpec("GRU", "Input").label == "GRU/Input"

    def test_label_with_component(self):
        cell = CellSpec("TAE", "Decision", "multiloss")
        assert cell.label == "TAE/Decision+multiloss"

    def test_label_with_view(self):
        cell = CellSpec("GRU", "Input", view="radar")
        assert cell.label == "GRU/Input[radar]"

    def test_slug_is_filesystem_safe(self):
        cell = CellSpec("TAE", "Hybrid", "gfusion", view="optical")
        assert checkpoint_name(cell.label, 3) == \
            "checkpoints/TAE_Hybrid_gfusion_optical-rep03.mvlc"


class TestGridCells:
    def test_cardinality(self):
        assert len(grid_cells("GRU")) == GRID_CELL_COUNT == 31

    def test_base_block_covers_all_pairs(self):
        base = [c for c in grid_cells("GRU") if c.component == "none"]
        assert len(base) == 25
        pairs = {(c.encoder, c.strategy) for c in base}
        assert pairs == {(e, s) for e in GRID_ENCODERS for s in STRATEGIES}

    def test_component_block(self):
        comp = [c for c in grid_cells("TAE") if c.component != "none"]
        assert len(comp) == 6
        assert {c.component for c in comp} == {"gfusion", "multiloss"}
        assert {c.strategy for c in comp} == {"Feature", "Decision", "Hybrid"}
        assert all(c.encoder == "TAE" for c in comp)

    def test_cells_unique(self):
        cells = grid_cells("LSTM")
        assert len(set(cells)) == len(cells)


class TestSearchCells:
    def test_cardinality(self):
        assert len(search_cells("TempCNN")) == SEARCH_CELL_COUNT == 16

    def test_phase_one_is_input_over_all_encoders(self):
        phase1 = [c for c in search_cells("GRU") if c.phase == "phase1"]
        assert len(phase1) == 5
        assert all(c.strategy == "Input" and c.component == "none"
                   for c in phase1)
        assert {c.encoder for c in phase1} == set(GRID_ENCODERS)

    def test_phase_two_uses_winner(self):
        phase2 = [c for c in search_cells("TAE") if c.phase == "phase2"]
        assert len(phase2) == 11
        assert all(c.encoder == "TAE" for c in phase2)
        strategies = [c.strategy for c in phase2 if c.component == "none"]
        assert sorted(strategies) == sorted(STRATEGIES)
        comp = [c for c in phase2 if c.component != "none"]
        assert len(comp) == 6

    def test_exactly_one_reusable_input_cell_in_phase_two(self):
        cells = search_cells("GRU")
        reusable = [c for c in cells
                    if c.phase == "phase2" and c.strategy == "Input"]
        assert len(reusable) == 1
        assert reusable[0].encoder == "GRU"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


class TestExperimentConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.repetitions == 20
        assert config.selection_metric == "kappa"
        assert config.component_encoder == "best"

    def test_rejects_zero_repetitions(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(repetitions=0)

    def test_rejects_component_on_input(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="Input", component="gfusion")

    def test_rejects_component_on_ensemble(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="Ensemble", component="multiloss")

    def test_rejects_unknown_encoder(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(encoder="Transformer")

    def test_rejects_mlp_as_grid_encoder(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(encoder="MLP")

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy="Late")

    def test_rejects_unknown_component(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(component="attention")

    def test_rejects_unknown_metric(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(selection_metric="accuracy")

    def test_rejects_bad_test_fraction(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(test_fraction=0.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(test_fraction=1.0)

    def test_rejects_unknown_encoder_option(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(encoder_options={"width": 32})

    def test_rejects_bad_merge(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(merge="median")

    @pytest.mark.parametrize("strategy,merge", [
        ("Decision", "concat"), ("Hybrid", "concat"), ("Input", "gated"),
        ("Ensemble", "gated")])
    def test_rejects_merge_the_strategy_does_not_accept(self, strategy,
                                                         merge):
        with pytest.raises(ConfigError):
            ExperimentConfig(strategy=strategy, merge=merge)

    def test_rejects_negative_gamma(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(gamma=-0.1)

    def test_rejects_zero_jobs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(jobs=0)

    def test_rejects_unknown_component_encoder(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(component_encoder="MLP")

    def test_dict_round_trip(self):
        config = ExperimentConfig(
            dataset="data.mvds",
            views=("optical", "radar"),
            encoder="TAE",
            strategy="Hybrid",
            component="multiloss",
            gamma=0.5,
            repetitions=3,
            seed_base=11,
            encoder_options={"hidden": 32},
            train=TrainConfig(batch_size=64, max_epochs=7),
            output_dir="runs/x",
        )
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_key(self):
        data = ExperimentConfig().to_dict()
        data["learning_rate"] = 0.1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_from_dict_rejects_unknown_train_key(self):
        data = ExperimentConfig().to_dict()
        data["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)


class TestConfigFieldTypes:
    """Each config object checks its own ``int``, ``float`` and ``bool``
    fields on construction, from Python as from a config file."""

    @pytest.mark.parametrize("build, field", [
        (lambda: ExperimentConfig(repetitions=2.5), "repetitions"),
        (lambda: ExperimentConfig(jobs=True), "jobs"),
        (lambda: ExperimentConfig(seed_base=-1), "seed_base"),
        (lambda: ExperimentConfig(gamma="0.3"), "gamma"),
        (lambda: ExperimentConfig(test_fraction=False), "test_fraction"),
        (lambda: TrainConfig(batch_size=16.0), "batch_size"),
        (lambda: TrainConfig(seed=True), "seed"),
        (lambda: TrainConfig(learning_rate=None), "learning_rate"),
        (lambda: TrainConfig(class_weighting=1), "class_weighting"),
        (lambda: EncoderConfig("GRU", hidden=3.5), "hidden"),
        (lambda: EncoderConfig("GRU", dropout=True), "dropout"),
        (lambda: EncoderConfig("GRU", value_split="no"), "value_split"),
    ], ids=["repetitions-float", "jobs-bool", "seed-base-negative",
            "gamma-str", "test-fraction-bool", "batch-size-float",
            "seed-bool", "learning-rate-none", "class-weighting-int",
            "hidden-float", "dropout-bool", "value-split-str"])
    def test_wrong_type_names_the_field(self, build, field):
        with pytest.raises(ConfigError,
                           match=rf"^wrong value type: {field} must be"):
            build()

    def test_nested_construction_names_the_first_bad_field(self):
        with pytest.raises(ConfigError, match="batch_size"):
            ExperimentConfig(repetitions=2.5, jobs=True,
                             train=TrainConfig(batch_size=16.0))
        with pytest.raises(ConfigError, match="repetitions"):
            ExperimentConfig(repetitions=2.5, jobs=True)

    def test_integers_hold_float_fields(self):
        config = ExperimentConfig(gamma=1, train=TrainConfig(learning_rate=1,
                                                              min_delta=0))
        assert (config.gamma, config.train.learning_rate) == (1, 1)
        assert EncoderConfig("GRU", dropout=0).dropout == 0

    def test_encoder_options_are_checked_by_the_encoder_config(self):
        with pytest.raises(ConfigError, match="hidden must be a non-negative"):
            ExperimentConfig(encoder_options={"hidden": "2"})


class TestFingerprint:
    def test_stable(self):
        a = ExperimentConfig(seed_base=7)
        b = ExperimentConfig(seed_base=7)
        assert a.fingerprint() == b.fingerprint()

    def test_sixteen_hex_chars(self):
        fp = ExperimentConfig().fingerprint()
        assert len(fp) == 16
        int(fp, 16)

    def test_pinned_literals(self):
        """Manifests and fingerprints must not drift with the config code."""
        assert ExperimentConfig().fingerprint() == "913216bb2458efd9"
        config = ExperimentConfig(
            views=("optical", "radar"), encoder="TAE", strategy="Hybrid",
            component="multiloss", gamma=0.5,
            encoder_options={"hidden": 32},
            train=TrainConfig(batch_size=64), group_by=["year"])
        assert config.fingerprint() == "174828c244d4ab24"

    def test_seed_changes_fingerprint(self):
        assert (ExperimentConfig(seed_base=0).fingerprint()
                != ExperimentConfig(seed_base=1).fingerprint())

    def test_output_dir_does_not_change_fingerprint(self):
        assert (ExperimentConfig(output_dir="a").fingerprint()
                == ExperimentConfig(output_dir="b").fingerprint())

    def test_dataset_path_does_not_change_fingerprint(self):
        assert (ExperimentConfig(dataset="x.mvds").fingerprint()
                == ExperimentConfig(dataset="y.mvds").fingerprint())

    def test_jobs_do_not_change_fingerprint(self):
        assert (ExperimentConfig(jobs=1).fingerprint()
                == ExperimentConfig(jobs=4).fingerprint())

    def test_dataset_hash_changes_fingerprint(self):
        config = ExperimentConfig()
        assert config.fingerprint("aaaa") != config.fingerprint("bbbb")

    def test_dataset_fingerprint_deterministic(self, tiny_dataset):
        assert (dataset_fingerprint(tiny_dataset)
                == dataset_fingerprint(tiny_dataset))

    def test_dataset_fingerprint_sensitive_to_content(self, tiny_dataset):
        other = synth_generate(
            SynthSpec(kind="complementary", samples=48, noise=0.1), seed=6)
        assert dataset_fingerprint(tiny_dataset) != dataset_fingerprint(other)

    @pytest.mark.parametrize("run,runner,unread", [
        ("cell_run", run_cell, {"component_encoder": "LTAE", "gamma": 0.5}),
        ("grid_run", run_grid, {"encoder": "LSTM", "strategy": "Input"}),
        ("search_run", run_search, {"encoder": "TAE", "strategy": "Hybrid",
                                    "component_encoder": "LTAE"}),
        ("baseline_run", single_view_baselines,
         {"strategy": "Decision", "component": "gfusion", "gamma": 0.5,
          "component_encoder": "LTAE"}),
    ], ids=["cell", "grid", "search", "baselines"])
    def test_unread_fields_keep_records(self, request, tiny_dataset, tmp_path,
                                        run, runner, unread):
        _, out, config = request.getfixturevalue(run)
        runner(tiny_dataset, dataclasses.replace(
            config, output_dir=str(tmp_path), **unread))
        assert ((tmp_path / "records.csv").read_bytes()
                == (out / "records.csv").read_bytes())

    def test_multiloss_cell_hashes_gamma(self, tiny_dataset, tmp_path):
        prints = []
        for gamma in (0.3, 0.5):
            out = tmp_path / str(gamma)
            outcome = run_cell(tiny_dataset, tiny_config(
                out, component="multiloss", gamma=gamma))
            prints.append(outcome.records[0]["fingerprint"])
        assert prints[0] != prints[1]


# ---------------------------------------------------------------------------
# selection rules (pure, no training)
# ---------------------------------------------------------------------------


class TestSelection:
    def test_best_cell_by_mean_metric(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.4, repetition=0),
            fake_row("GRU", "Input", kappa=0.6, repetition=1),
            fake_row("TAE", "Input", kappa=0.45, repetition=0),
            fake_row("TAE", "Input", kappa=0.45, repetition=1),
        ]
        assert best_cell_label(rows, "kappa") == "GRU/Input"

    def test_best_cell_tie_breaks_on_parameters(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.5, parameters=900),
            fake_row("TAE", "Input", kappa=0.5, parameters=800),
        ]
        assert best_cell_label(rows, "kappa") == "TAE/Input"

    def test_best_cell_skips_none_metric_repetitions(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.9, repetition=0),
            fake_row("GRU", "Input", kappa=None, repetition=1),
            fake_row("TAE", "Input", kappa=0.8, repetition=0),
            fake_row("TAE", "Input", kappa=0.8, repetition=1),
        ]
        rows[1]["status"] = "ok"
        assert best_cell_label(rows, "kappa") == "GRU/Input"

    def test_best_cell_ignores_failed_rows(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.9, status="error"),
            fake_row("TAE", "Input", kappa=0.2),
        ]
        assert best_cell_label(rows, "kappa") == "TAE/Input"

    def test_best_cell_alternate_metric(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.9, accuracy=0.6),
            fake_row("TAE", "Input", kappa=0.1, accuracy=0.8),
        ]
        assert best_cell_label(rows, "average_accuracy") == "TAE/Input"

    def test_best_encoder_pools_across_cells(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.2),
            fake_row("GRU", "Feature", kappa=0.9),
            fake_row("TAE", "Input", kappa=0.5),
            fake_row("TAE", "Feature", kappa=0.5),
        ]
        # GRU mean 0.55 beats TAE mean 0.5.
        assert best_encoder(rows, "kappa") == "GRU"

    def test_best_encoder_tie_breaks_on_input_cell_parameters(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.5, parameters=500),
            fake_row("TAE", "Input", kappa=0.5, parameters=400),
        ]
        assert best_encoder(rows, "kappa") == "TAE"

    def test_best_encoder_with_no_usable_rows_raises(self):
        rows = [fake_row("GRU", "Input", status="error")]
        with pytest.raises(ConfigError):
            best_encoder(rows, "kappa")


# ---------------------------------------------------------------------------
# summaries and CSV round trips (pure, no training)
# ---------------------------------------------------------------------------


class TestSummarize:
    def test_mean_and_population_std(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.4, accuracy=0.6, repetition=0),
            fake_row("GRU", "Input", kappa=0.6, accuracy=0.8, repetition=1),
        ]
        summary = summarize(rows)
        assert len(summary) == 1
        entry = summary[0]
        assert entry["kappa_mean"] == pytest.approx(0.5, abs=1e-15)
        assert entry["kappa_std"] == pytest.approx(0.1, abs=1e-15)
        assert entry["average_accuracy_mean"] == pytest.approx(0.7, abs=1e-15)
        assert entry["reps_total"] == 2
        assert entry["reps_ok"] == 2
        assert entry["reps_failed"] == 0

    def test_single_repetition_std_is_zero(self):
        summary = summarize([fake_row("GRU", "Input", kappa=0.5)])
        assert summary[0]["kappa_std"] == 0.0

    def test_failed_repetitions_counted_and_skipped(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.5, repetition=0),
            fake_row("GRU", "Input", status="error", repetition=1),
        ]
        entry = summarize(rows)[0]
        assert entry["reps_failed"] == 1
        assert entry["reps_ok"] == 1
        assert entry["kappa_mean"] == 0.5

    def test_all_failed_cell_has_blank_metrics(self):
        entry = summarize([fake_row("GRU", "Input", status="error")])[0]
        assert entry["kappa_mean"] is None
        assert entry["reps_ok"] == 0

    def test_cells_keep_planned_order(self):
        rows = [
            fake_row("LSTM", "Input"),
            fake_row("GRU", "Ensemble"),
            fake_row("GRU", "Input"),
        ]
        summary = summarize(rows)
        assert [s["cell"] for s in summary] == [
            "LSTM/Input", "GRU/Ensemble", "GRU/Input"]

    def test_none_metric_skipped_in_mean(self):
        rows = [
            fake_row("GRU", "Input", kappa=0.5, repetition=0),
            fake_row("GRU", "Input", kappa=None, repetition=1),
        ]
        entry = summarize(rows)[0]
        assert entry["kappa_mean"] == 0.5
        assert entry["kappa_std"] == 0.0


class TestRecordsCsv:
    def test_round_trip_types(self, tmp_path):
        rows = [
            fake_row("GRU", "Feature", kappa=1 / 3, repetition=0),
            fake_row("GRU", "Feature", status="error", repetition=1),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, rows)
        back = read_records_csv(path)
        assert len(back) == 2
        assert back[0]["kappa"] == 1 / 3  # repr round trip is exact
        assert back[0]["repetition"] == 0
        assert back[0]["parameters"] == 1000
        assert back[1]["kappa"] is None
        assert back[1]["error"] == "RuntimeError: boom"
        assert [tuple(r.keys()) for r in back] == [RECORD_COLUMNS] * 2

    def test_header_is_frozen_column_list(self, tmp_path):
        path = tmp_path / "records.csv"
        write_records_csv(path, [fake_row("GRU", "Input")])
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RECORD_COLUMNS)

    def test_column_lists_are_pinned(self):
        assert RECORD_COLUMNS == (
            "cell", "phase", "view", "encoder", "strategy", "component",
            "merge", "repetition", "seed", "fingerprint", "status", "error",
            "parameters", "samples", "average_accuracy", "kappa", "f1_macro",
            "f1_positive", "auc_roc", "max_probability",
            "prediction_entropy", "checkpoint")
        assert SUMMARY_COLUMNS == (
            "cell", "phase", "view", "encoder", "strategy", "component",
            "parameters", "reps_total", "reps_ok", "reps_failed",
            "average_accuracy_mean", "average_accuracy_std",
            "kappa_mean", "kappa_std", "f1_macro_mean", "f1_macro_std",
            "f1_positive_mean", "f1_positive_std", "auc_roc_mean",
            "auc_roc_std", "max_probability_mean", "max_probability_std",
            "prediction_entropy_mean", "prediction_entropy_std")


def timed_row(encoder, strategy, train_seconds, infer_seconds, **kw):
    return dict(fake_row(encoder, strategy, **kw),
                train_seconds=train_seconds, infer_seconds=infer_seconds)


class TestTimingTable:
    def test_error_repetitions_are_counted_but_not_averaged(self):
        rows = [timed_row("GRU", "Input", 2.0, 0.5, repetition=0),
                timed_row("GRU", "Input", 9.0, 0.0, repetition=1,
                          status="error"),
                timed_row("GRU", "Input", 4.0, 1.5, repetition=2)]
        assert rundir._timing_rows(rows) == [{
            "cell": "GRU/Input", "phase": "", "view": "", "repetitions": 3,
            "train_seconds_mean": 3.0, "infer_seconds_mean": 1.0}]

    def test_reused_cell_and_all_error_cell(self):
        first = [timed_row("GRU", "Input", 2.0, 0.5, phase="phase1"),
                 timed_row("GRU", "Input", 7.0, 0.0, phase="phase1",
                           repetition=1, status="error")]
        reused = [dict(first[0], phase="phase2", status="reused"),
                  dict(first[1], phase="phase2")]
        failed = [timed_row("GRU", "Feature", 1.0, 0.0, phase="phase2",
                            repetition=rep, status="error")
                  for rep in range(2)]
        table = rundir._timing_rows(first + reused + failed)
        assert [(t["phase"], t["cell"], t["repetitions"]) for t in table] == [
            ("phase1", "GRU/Input", 2), ("phase2", "GRU/Input", 2),
            ("phase2", "GRU/Feature", 2)]
        assert [(t["train_seconds_mean"], t["infer_seconds_mean"])
                for t in table] == [(2.0, 0.5), (2.0, 0.5), (None, None)]

    def test_baseline_cells_keep_their_view(self):
        rows = [timed_row("GRU", "Input", 1.0, 0.25, phase="baseline",
                          view=view) for view in ("radar", "optical")]
        assert [(t["cell"], t["view"]) for t in rundir._timing_rows(rows)] == [
            ("GRU/Input[radar]", "radar"), ("GRU/Input[optical]", "optical")]


# ---------------------------------------------------------------------------
# single-cell runs
# ---------------------------------------------------------------------------


class TestPredictAll:
    """``_predict_all`` scores a dataset batch by batch with ``predict``."""

    @staticmethod
    def _model(dataset):
        options = dict(TINY_OPTIONS, dropout=0.5)  # train mode would differ
        model = build_model(dataset.schemas, "Feature",
                            EncoderConfig("GRU", **options), dataset.classes)
        model.initialize(1)
        return model

    @staticmethod
    def _per_batch_infer(model, dataset, batch_size):
        """The reference: switch to infer mode before every batch."""
        parts = []
        for start in range(0, len(dataset), batch_size):
            model.set_mode("infer")
            parts.append(model.forward(dataset.batch(
                slice(start, start + batch_size))).probabilities.data)
        return np.concatenate(parts, axis=0)

    def test_infer_mode_model_is_not_walked(self, tiny_dataset, monkeypatch):
        model = self._model(tiny_dataset)
        want = self._per_batch_infer(model, tiny_dataset, 10)
        walked = []
        walk = Module._walk
        monkeypatch.setattr(Module, "_walk", lambda self, prefix="": (
            walked.append(self), walk(self, prefix))[1])
        got = _predict_all(model, tiny_dataset, 10)
        assert walked == []
        assert got.tobytes() == want.tobytes()

    def test_train_mode_model_is_switched_to_infer(self, tiny_dataset):
        model = self._model(tiny_dataset)
        want = self._per_batch_infer(model, tiny_dataset, 10)
        model.set_mode("train")
        got = _predict_all(model, tiny_dataset, 10)
        assert {m.mode for m in model.modules()} == {"infer"}
        assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def cell_run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("cell")
    config = tiny_config(out, repetitions=2)
    outcome = run_cell(tiny_dataset, config)
    return outcome, out, config


class TestRunCell:
    def test_one_record_per_repetition(self, cell_run):
        outcome, _, _ = cell_run
        assert len(outcome.cells) == 1
        assert len(outcome.records) == 2
        assert [r["repetition"] for r in outcome.records] == [0, 1]
        assert all(r["status"] == "ok" for r in outcome.records)

    def test_seeds_are_base_plus_repetition(self, cell_run):
        outcome, _, config = cell_run
        assert [r["seed"] for r in outcome.records] == [
            rep_seed(config.seed_base, 0), rep_seed(config.seed_base, 1)]
        assert [r["seed"] for r in outcome.records] == [3, 4]

    def test_fingerprint_matches_config(self, cell_run, tiny_dataset):
        outcome, _, config = cell_run
        expected = config.fingerprint(dataset_fingerprint(tiny_dataset))
        assert all(r["fingerprint"] == expected for r in outcome.records)

    def test_parameters_match_fresh_model(self, cell_run, tiny_dataset):
        outcome, _, config = cell_run
        model = build_model(
            list(tiny_dataset.schemas), "Feature",
            EncoderConfig(architecture="GRU", **TINY_OPTIONS), classes=2)
        assert outcome.records[0]["parameters"] == model.parameter_count()

    def test_null_component_is_the_default_cell(self, cell_run, tiny_dataset,
                                                tmp_path):
        _, out, _ = cell_run
        outcome = run_cell(tiny_dataset,
                           tiny_config(tmp_path, repetitions=2, component=None))
        assert [cell.label for cell in outcome.cells] == ["GRU/Feature"]
        assert ((tmp_path / "records.csv").read_bytes()
                == (out / "records.csv").read_bytes())
        assert (sorted(p.name for p in (tmp_path / "checkpoints").iterdir())
                == sorted(p.name for p in (out / "checkpoints").iterdir()))

    def test_run_directory_layout(self, cell_run):
        _, out, _ = cell_run
        assert (out / "manifest").is_file()
        assert (out / "records.csv").is_file()
        assert (out / "checkpoints").is_dir()
        assert (out / "reports").is_dir()

    def test_checkpoints_written_per_repetition(self, cell_run):
        outcome, out, _ = cell_run
        for record in outcome.records:
            path = out / record["checkpoint"]
            assert path.is_file()
        assert len(list((out / "checkpoints").iterdir())) == 2

    def test_manifest_content(self, cell_run):
        outcome, out, config = cell_run
        manifest = json.loads((out / "manifest").read_text())
        assert manifest["kind"] == "cell"
        assert manifest["cells"] == [c.label for c in outcome.cells]
        assert manifest["trainings_executed"] == 2
        assert manifest["best_cell"] == outcome.best_cell
        assert manifest["config"]["seed_base"] == config.seed_base
        assert manifest["backend"] == "numpy"

    def test_manifest_records_numeric_environment(self, cell_run):
        _, out, _ = cell_run
        environment = json.loads((out / "manifest").read_text())["environment"]
        assert sorted(environment) == ["blas", "blas_threads", "blas_version",
                                       "cpu_count", "numpy"]
        assert environment["numpy"] == np.__version__
        assert environment["cpu_count"] == os.cpu_count()
        assert isinstance(environment["blas"], str)
        threads = environment["blas_threads"]
        assert threads == "unknown" or (isinstance(threads, int) and threads >= 1)

    @pytest.mark.skipif(
        "openblas" not in str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]),
        reason="the BLAS thread count is read from OpenBLAS only")
    def test_blas_threads_reads_the_loaded_library(self):
        """A child started at one OpenBLAS thread reports 1: the count comes
        from the library that numpy loaded, not from this host's cores."""
        source = str(Path(mvcrop.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH")))))
        done = subprocess.run(
            [sys.executable, "-c", "from mvcrop.rundir import _numeric_environment;"
             "print(_numeric_environment()['blas_threads'])"],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "1"

    def test_records_csv_matches_outcome(self, cell_run):
        outcome, out, _ = cell_run
        assert read_records_csv(out / "records.csv") == list(outcome.records)

    def test_summary_files_written(self, cell_run):
        _, out, _ = cell_run
        summary = (out / "reports" / "summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        assert len(summary) == 2  # header + one cell
        assert (out / "reports" / "summary.md").is_file()

    def test_predictions_dump_row_count_is_test_set_size(
            self, cell_run, tiny_dataset, tmp_path):
        _, out, config = cell_run
        _, test = stratified_split(tiny_dataset, config.test_fraction,
                                   config.seed_base)
        lines = (out / "reports" / "predictions.csv").read_text().splitlines()
        assert len(lines) == len(test) + 1

    def test_predictions_dump_has_location_and_correctness(self, cell_run):
        _, out, _ = cell_run
        header = (out / "reports" / "predictions.csv").read_text().splitlines()[0]
        for column in ("latitude", "longitude", "correct", "true_label",
                       "predicted_label", "prob_0", "prob_1"):
            assert column in header.split(",")

    def test_per_group_reports_partition_test_set(self, cell_run,
                                                  tiny_dataset, tmp_path):
        _, out, config = cell_run
        _, test = stratified_split(tiny_dataset, config.test_fraction,
                                   config.seed_base)
        years = (out / "reports" / "per_year.csv").read_text().splitlines()
        assert len(years) == len(np.unique(test.metadata["year"])) + 1
        continents = (out / "reports" /
                      "per_continent.csv").read_text().splitlines()
        assert len(continents) == len(np.unique(test.metadata["continent"])) + 1

    def test_per_class_rows(self, cell_run):
        _, out, _ = cell_run
        lines = (out / "reports" / "per_class.csv").read_text().splitlines()
        assert len(lines) == 3  # header + one row per class

    def test_timing_table_rows_equal_cells(self, cell_run):
        _, out, _ = cell_run
        lines = (out / "reports" / "timings.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_byte_identical_rerun(self, tiny_dataset, tmp_path):
        config_a = tiny_config(tmp_path / "a", repetitions=2)
        config_b = tiny_config(tmp_path / "b", repetitions=2)
        run_cell(tiny_dataset, config_a)
        run_cell(tiny_dataset, config_b)
        bytes_a = (tmp_path / "a" / "records.csv").read_bytes()
        bytes_b = (tmp_path / "b" / "records.csv").read_bytes()
        assert bytes_a == bytes_b

    def test_jobs_do_not_change_records(self, tiny_dataset, tmp_path):
        serial = tiny_config(tmp_path / "serial", repetitions=3)
        threaded = tiny_config(tmp_path / "threaded", repetitions=3, jobs=3)
        run_cell(tiny_dataset, serial)
        run_cell(tiny_dataset, threaded)
        assert ((tmp_path / "serial" / "records.csv").read_bytes()
                == (tmp_path / "threaded" / "records.csv").read_bytes())

    def test_task_mismatch_rejected(self, tiny_dataset, tmp_path):
        config = tiny_config(tmp_path, task="multicrop")
        with pytest.raises(ConfigError):
            run_cell(tiny_dataset, config)

    def test_views_restriction(self, tiny_dataset, tmp_path):
        config = tiny_config(tmp_path, views=("radar",), strategy="Input")
        outcome = run_cell(tiny_dataset, config)
        assert outcome.records[0]["status"] == "ok"

    def test_unknown_view_rejected(self, tiny_dataset, tmp_path):
        config = tiny_config(tmp_path, views=("lidar",))
        with pytest.raises(ConfigError):
            run_cell(tiny_dataset, config)

    def test_accepts_dataset_path(self, tiny_dataset, tmp_path):
        data_path = tmp_path / "tiny.mvds"
        save_dataset(tiny_dataset, data_path)
        config = tiny_config(tmp_path / "run", dataset=str(data_path),
                             strategy="Input")
        outcome = run_cell(str(data_path), config)
        assert all(r["status"] == "ok" for r in outcome.records)

    def test_all_repetitions_failing_raises_runtime_error(
            self, tiny_dataset, tmp_path, monkeypatch):
        import mvcrop.experiments as exp

        def boom(cell, model, dataset, config):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(exp, "_fit", boom)
        config = tiny_config(tmp_path)
        with pytest.raises(RuntimeError, match="injected failure|failed"):
            run_cell(tiny_dataset, config)


# ---------------------------------------------------------------------------
# grid protocol
# ---------------------------------------------------------------------------


# The merge column of every protocol cell: gfusion forces gated, every
# other cell runs its strategy's default merge.
PROTOCOL_MERGES = {
    ("Input", "none"): "concat",
    ("Feature", "none"): "concat",
    ("Decision", "none"): "average",
    ("Hybrid", "none"): "average",
    ("Ensemble", "none"): "average",
    ("Feature", "gfusion"): "gated",
    ("Decision", "gfusion"): "gated",
    ("Hybrid", "gfusion"): "gated",
    ("Feature", "multiloss"): "concat",
    ("Decision", "multiloss"): "average",
    ("Hybrid", "multiloss"): "average",
}


class TestMergeColumn:
    @pytest.mark.parametrize("cells", [grid_cells("GRU"), search_cells("TAE")],
                             ids=["grid", "search"])
    def test_protocol_cells_resolve_to_pinned_merges(self, cells):
        pairs = {(c.strategy, c.component) for c in cells}
        assert pairs == set(PROTOCOL_MERGES)
        for cell in cells:
            assert (resolve_merge(cell.strategy, cell.component)
                    == PROTOCOL_MERGES[(cell.strategy, cell.component)])

    def test_grid_records_carry_pinned_merges(self, grid_run):
        outcome, _, _ = grid_run
        for row in outcome.records:
            assert row["merge"] == PROTOCOL_MERGES[(row["strategy"],
                                                    row["component"])]

    def test_explicit_override_reaches_records(self, tiny_dataset, tmp_path):
        config = tiny_config(tmp_path, strategy="Decision", merge="gated")
        outcome = run_cell(tiny_dataset, config)
        assert outcome.records[0]["merge"] == "gated"
        assert outcome.records[0]["status"] == "ok"


class TestRunGrid:
    def test_thirty_one_cells_and_records(self, grid_run):
        outcome, _, _ = grid_run
        assert len(outcome.cells) == 31
        assert len(outcome.records) == 31
        assert outcome.trainings_executed == 31

    def test_all_cells_succeed(self, grid_run):
        outcome, _, _ = grid_run
        assert all(r["status"] == "ok" for r in outcome.records)

    def test_component_cells_use_resolved_best_encoder(self, grid_run):
        outcome, _, config = grid_run
        base = [r for r in outcome.records if r["component"] == "none"]
        resolved = best_encoder(base, config.selection_metric)
        comp = [r for r in outcome.records if r["component"] != "none"]
        assert len(comp) == 6
        assert all(r["encoder"] == resolved for r in comp)

    def test_explicit_component_encoder_respected(self, tiny_dataset):
        cells = grid_cells("LSTM")
        comp = [c for c in cells if c.component != "none"]
        assert all(c.encoder == "LSTM" for c in comp)

    def test_records_csv_row_count(self, grid_run):
        _, out, _ = grid_run
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 32

    def test_summary_covers_every_cell_with_zero_std(self, grid_run):
        _, out, _ = grid_run
        rows = (out / "reports" / "summary.csv").read_text().splitlines()
        assert len(rows) == 32
        header = rows[0].split(",")
        std_idx = header.index("kappa_std")
        for row in rows[1:]:
            assert row.split(",")[std_idx] == "0.0"

    def test_summary_equals_recomputation_from_records(self, grid_run):
        _, out, _ = grid_run
        rows = read_records_csv(out / "records.csv")
        recomputed = summarize(rows)
        stored = (out / "reports" / "summary.csv").read_text().splitlines()
        header = stored[0].split(",")
        assert tuple(header) == SUMMARY_COLUMNS
        for entry, line in zip(recomputed, stored[1:]):
            values = line.split(",")
            for column, value in zip(header, values):
                expected = entry[column]
                assert value == ("" if expected is None else
                                 (repr(expected) if isinstance(expected, float)
                                  else str(expected)))

    def test_checkpoint_per_record(self, grid_run):
        outcome, out, _ = grid_run
        files = {p.name for p in (out / "checkpoints").iterdir()}
        assert len(files) == 31
        assert {r["checkpoint"].split("/")[-1]
                for r in outcome.records} == files

    def test_timing_table_rows_equal_grid_cells(self, grid_run):
        _, out, _ = grid_run
        lines = (out / "reports" / "timings.csv").read_text().splitlines()
        assert len(lines) == 32

    def test_manifest_kind_and_cells(self, grid_run):
        outcome, out, _ = grid_run
        manifest = json.loads((out / "manifest").read_text())
        assert manifest["kind"] == "grid"
        assert len(manifest["cells"]) == 31
        assert manifest["trainings_executed"] == 31

    def test_best_cell_selected_from_ok_records(self, grid_run):
        outcome, _, config = grid_run
        assert outcome.best_cell == best_cell_label(
            list(outcome.records), config.selection_metric)


# ---------------------------------------------------------------------------
# search protocol
# ---------------------------------------------------------------------------


class TestRunSearch:
    def test_sixteen_cells_fifteen_trainings(self, search_run):
        outcome, _, _ = search_run
        assert len(outcome.cells) == 16
        assert len(outcome.records) == 16
        assert outcome.trainings_executed == 15

    def test_winner_is_best_phase_one_encoder(self, search_run):
        outcome, _, config = search_run
        phase1 = [r for r in outcome.records if r["phase"] == "phase1"]
        assert len(phase1) == 5
        winner = best_encoder(phase1, config.selection_metric)
        phase2 = [r for r in outcome.records if r["phase"] == "phase2"]
        assert len(phase2) == 11
        assert all(r["encoder"] == winner for r in phase2)

    def test_input_cell_reused_not_retrained(self, search_run):
        outcome, _, _ = search_run
        reused = [r for r in outcome.records if r["status"] == "reused"]
        assert len(reused) == 1
        record = reused[0]
        assert record["phase"] == "phase2"
        assert record["strategy"] == "Input"
        source = [r for r in outcome.records
                  if r["phase"] == "phase1"
                  and r["encoder"] == record["encoder"]
                  and r["repetition"] == record["repetition"]][0]
        for key in ("kappa", "average_accuracy", "f1_macro", "checkpoint",
                    "seed", "parameters"):
            assert record[key] == source[key]

    def test_records_csv_row_count(self, search_run):
        _, out, _ = search_run
        lines = (out / "records.csv").read_text().splitlines()
        assert len(lines) == 17

    def test_manifest_kind(self, search_run):
        _, out, _ = search_run
        manifest = json.loads((out / "manifest").read_text())
        assert manifest["kind"] == "search"
        assert manifest["trainings_executed"] == 15

    def test_phase_one_failure_aborts_phase_two(self, tiny_dataset,
                                                tmp_path, monkeypatch):
        import mvcrop.experiments as exp

        original = exp._fit

        def sabotage(cell, model, dataset, config):
            if cell.encoder == "GRU":
                raise RuntimeError("phase-1 sabotage")
            return original(cell, model, dataset, config)

        monkeypatch.setattr(exp, "_fit", sabotage)
        config = tiny_config(tmp_path)
        with pytest.raises(RuntimeError, match="phase 1"):
            run_search(tiny_dataset, config)
        # Partial phase-1 records are still persisted for diagnosis.
        rows = read_records_csv(tmp_path / "records.csv")
        assert len(rows) == 5
        failed = [r for r in rows if r["status"] == "error"]
        assert len(failed) == 1
        assert failed[0]["encoder"] == "GRU"
        assert "phase-1 sabotage" in failed[0]["error"]


# ---------------------------------------------------------------------------
# protocol plans
# ---------------------------------------------------------------------------


class TestProtocolPlans:
    @pytest.mark.parametrize("runner,options,planned", [
        (run_cell, {"repetitions": 2}, 2),
        (run_grid, {}, 31),
        (run_search, {}, 15),
        (single_view_baselines, {"repetitions": 2}, 4),
    ], ids=["cell", "grid", "search", "baselines"])
    def test_planned_trainings_equal_fits(self, tiny_dataset, tmp_path,
                                          monkeypatch, runner, options,
                                          planned):
        import mvcrop.experiments as exp

        fits = []

        def counted_fit(cell, model, dataset, config):
            fits.append((cell.label, config.seed))
            return 0.0

        monkeypatch.setattr(exp, "_fit", counted_fit)
        outcome = runner(tiny_dataset, tiny_config(tmp_path, **options))
        manifest = json.loads((tmp_path / "manifest").read_text())
        assert len(fits) == planned
        assert outcome.trainings_executed == planned
        assert manifest["trainings_executed"] == planned

    @pytest.mark.parametrize("runner", [run_grid, run_search],
                             ids=["grid", "search"])
    @pytest.mark.parametrize("choice", [{"merge": "average"},
                                        {"component": "gfusion"}],
                             ids=["merge", "component"])
    def test_fixed_cell_protocols_reject_cell_choice(
            self, tiny_dataset, tmp_path, runner, choice):
        config = tiny_config(tmp_path / "run", **choice)
        with pytest.raises(ConfigError, match=next(iter(choice))):
            runner(tiny_dataset, config)
        assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# single-view baselines and crash isolation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline_run(tiny_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("svl")
    config = tiny_config(out, repetitions=2, encoder="GRU")
    outcome = single_view_baselines(tiny_dataset, config)
    return outcome, out, config


class TestSingleViewBaselines:
    def test_one_cell_per_view(self, baseline_run, tiny_dataset):
        outcome, _, _ = baseline_run
        assert len(outcome.cells) == len(tiny_dataset.view_names)
        assert {c.view for c in outcome.cells} == set(tiny_dataset.view_names)
        assert all(c.strategy == "Input" for c in outcome.cells)

    def test_records_count(self, baseline_run):
        outcome, _, _ = baseline_run
        assert len(outcome.records) == 4  # 2 views x 2 repetitions

    def test_best_view_is_argmax_of_mean_metric(self, baseline_run):
        outcome, _, config = baseline_run
        assert outcome.best_cell == best_cell_label(
            list(outcome.records), config.selection_metric)

    def test_baseline_equals_manual_input_fusion_bitwise(
            self, baseline_run, tiny_dataset):
        outcome, out, config = baseline_run
        record = [r for r in outcome.records
                  if r["view"] == "radar" and r["repetition"] == 1][0]

        train_part, test_part = stratified_split(
            tiny_dataset, config.test_fraction, config.seed_base)
        train_radar = train_part.restrict(["radar"])
        test_radar = test_part.restrict(["radar"])

        model = build_model(
            list(train_radar.schemas), "Input",
            EncoderConfig(architecture="GRU", **TINY_OPTIONS), classes=2)
        seed = rep_seed(config.seed_base, 1)
        model.initialize(seed)
        train(model, train_radar,
              dataclasses.replace(config.train, seed=seed))
        manual = model.predict(
            {"radar": test_radar.arrays["radar"]})

        from mvcrop.training import load_checkpoint
        stored_model = build_model(
            list(train_radar.schemas), "Input",
            EncoderConfig(architecture="GRU", **TINY_OPTIONS), classes=2)
        load_checkpoint(stored_model, out / record["checkpoint"])
        stored = stored_model.predict(
            {"radar": test_radar.arrays["radar"]})
        assert np.array_equal(manual, stored)

    def test_illegal_merge_rejected_before_training(self, tiny_dataset,
                                                     tmp_path):
        config = tiny_config(tmp_path / "run", strategy="Feature",
                             merge="gated", repetitions=2)
        with pytest.raises(ConfigError):
            single_view_baselines(tiny_dataset, config)
        assert not (tmp_path / "run").exists()

    def test_merge_resolved_once_per_cell_before_training(
            self, tiny_dataset, tmp_path, monkeypatch):
        import mvcrop.experiments as exp

        config = tiny_config(tmp_path, merge="concat", repetitions=2)
        events = []
        resolve, fit = exp.resolve_merge, exp._fit

        def counted_resolve(*args):
            events.append(("resolve", args))
            return resolve(*args)

        def counted_fit(cell, model, dataset, config):
            events.append(("fit", cell.view))
            return fit(cell, model, dataset, config)

        monkeypatch.setattr(exp, "resolve_merge", counted_resolve)
        monkeypatch.setattr(exp, "_fit", counted_fit)
        single_view_baselines(tiny_dataset, config)
        views = len(tiny_dataset.view_names)
        assert events[:views] == [("resolve", ("Input", "none", "concat"))] * views
        assert [kind for kind, _ in events[views:]] == ["fit"] * 2 * views

    def test_crash_isolation_records_error_and_continues(
            self, tiny_dataset, tmp_path, monkeypatch):
        import mvcrop.experiments as exp

        original = exp._fit

        def sabotage(cell, model, dataset, config):
            if cell.view == "optical":
                raise RuntimeError("optical exploded")
            return original(cell, model, dataset, config)

        monkeypatch.setattr(exp, "_fit", sabotage)
        config = tiny_config(tmp_path, repetitions=1)
        outcome = single_view_baselines(tiny_dataset, config)

        by_view = {r["view"]: r for r in outcome.records}
        assert by_view["optical"]["status"] == "error"
        assert "optical exploded" in by_view["optical"]["error"]
        assert by_view["optical"]["kappa"] is None
        assert by_view["radar"]["status"] == "ok"
        assert outcome.best_cell == by_view["radar"]["cell"]
        # Summary marks the failed cell.
        summary = summarize(list(outcome.records))
        failed = [s for s in summary if s["view"] == "optical"][0]
        assert failed["reps_failed"] == 1
        assert (tmp_path / "records.csv").is_file()


# ---------------------------------------------------------------------------
# grouped reporting errors
# ---------------------------------------------------------------------------


class TestGroupedReporting:
    def test_missing_grouping_field_is_explicit_error(self, tiny_dataset,
                                                      tmp_path):
        stripped = Dataset(
            task=tiny_dataset.task,
            classes=tiny_dataset.classes,
            schemas=tiny_dataset.schemas,
            arrays=dict(tiny_dataset.arrays),
            labels=tiny_dataset.labels,
            metadata={"continent": tiny_dataset.metadata["continent"]},
        )
        config = tiny_config(tmp_path, group_by=("year",))
        with pytest.raises(ConfigError, match="year"):
            run_cell(stripped, config)

    def test_error_lists_available_fields(self, tiny_dataset, tmp_path):
        stripped = Dataset(
            task=tiny_dataset.task,
            classes=tiny_dataset.classes,
            schemas=tiny_dataset.schemas,
            arrays=dict(tiny_dataset.arrays),
            labels=tiny_dataset.labels,
            metadata={"continent": tiny_dataset.metadata["continent"]},
        )
        config = tiny_config(tmp_path, group_by=("year",))
        with pytest.raises(ConfigError, match="continent"):
            run_cell(stripped, config)

    def test_empty_group_by_skips_grouped_tables(self, tiny_dataset,
                                                 tmp_path):
        config = tiny_config(tmp_path, group_by=(), strategy="Input",
                             views=("radar",))
        run_cell(tiny_dataset, config)
        reports = tmp_path / "reports"
        assert not (reports / "per_year.csv").exists()
        assert (reports / "summary.csv").is_file()


# ---------------------------------------------------------------------------
# best-cell reports come from the run's own test-split scores
# ---------------------------------------------------------------------------


def per_row_predictions_csv(path, labels, probabilities, metadata):
    """Reference ``predictions.csv`` writer: one dict per sample, each value
    formatted on its own: ``repr`` of a float, ``str`` of anything else."""
    classes = probabilities.shape[1]
    predicted = probabilities.argmax(axis=1)
    max_probability = probabilities.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probabilities > 0.0,
                         probabilities * np.log(probabilities), 0.0)
    entropy = -terms.sum(axis=1) / np.log(classes)
    meta_columns = [key for key in rundir._PREDICTION_METADATA
                    if key in metadata]
    columns = (["index"] + meta_columns
               + ["true_label", "predicted_label", "correct",
                  "max_probability", "entropy"]
               + [f"prob_{k}" for k in range(classes)])
    rows = []
    for i in range(labels.shape[0]):
        row = {"index": i}
        for key in meta_columns:
            value = metadata[key][i]
            row[key] = (str(value) if metadata[key].dtype.kind == "U"
                        else value.item())
        row["true_label"] = int(labels[i])
        row["predicted_label"] = int(predicted[i])
        row["correct"] = int(predicted[i] == labels[i])
        row["max_probability"] = float(max_probability[i])
        row["entropy"] = float(entropy[i])
        for k in range(classes):
            row[f"prob_{k}"] = float(probabilities[i, k])
        rows.append(row)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(row[col]) if isinstance(row[col], float)
                             else str(row[col]) for col in columns])


def reloaded_report_files(outcome, out, config, dataset, dump_dir):
    """``predictions.csv`` and ``per_class.csv`` built the long way: reload
    the best cell's first successful checkpoint and score the test split."""
    import mvcrop.experiments as exp
    from mvcrop.metrics import evaluate
    from mvcrop.training import load_checkpoint

    source = next(r for r in outcome.records
                  if r["cell"] == outcome.best_cell and r["status"] == "ok")
    cell = next(c for c in outcome.cells if c.label == outcome.best_cell)
    train_part, test_part = stratified_split(dataset, config.test_fraction,
                                             config.seed_base)
    model = exp._build_cell_model(cell, config, train_part, config.merge)
    load_checkpoint(model, out / source["checkpoint"])
    probabilities = exp._predict_all(model, test_part,
                                     config.train.batch_size)
    dump_dir.mkdir()
    report = evaluate(test_part.labels, probabilities, test_part.classes)
    rundir.write_table(dump_dir / "per_class.csv",
                       ("class", "precision", "recall", "f1"),
                       [(k, float(report.precision[k]), float(report.recall[k]),
                         float(report.f1[k])) for k in range(len(report.precision))])
    per_row_predictions_csv(dump_dir / "predictions.csv", test_part.labels,
                            probabilities, test_part.metadata)
    return dump_dir


def assert_reports_match_reload(outcome, out, config, dataset, dump_dir):
    dump = reloaded_report_files(outcome, out, config, dataset, dump_dir)
    for name in ("predictions.csv", "per_class.csv"):
        assert (out / "reports" / name).read_bytes() == \
            (dump / name).read_bytes(), name


def _reports(out) -> dict:
    return {path.name: path.read_bytes()
            for path in sorted((out / "reports").iterdir())}


class TestReemitReports:
    """``reemit_reports`` rebuilds the run's own report bytes."""

    def test_groups_by_a_field_that_predictions_did_not_list(
            self, tiny_dataset, tmp_path):
        config = tiny_config(tmp_path, group_by=("is_test",))
        run_cell(tiny_dataset, config)
        before = _reports(tmp_path)
        assert "per_is_test.csv" in before
        reemit_reports(tmp_path)
        assert _reports(tmp_path) == before
        header = before["predictions.csv"].split(b"\n")[0].split(b",")
        assert header[1:8] == [b"latitude", b"longitude", b"year", b"continent",
                               b"country", b"is_test", b"true_label"]

    def test_numeric_groups_keep_their_order(self, tiny_dataset, tmp_path):
        years = np.where(np.arange(len(tiny_dataset)) % 2, 999, 2016)
        data = dataclasses.replace(
            tiny_dataset, metadata={**tiny_dataset.metadata, "year": years})
        config = tiny_config(tmp_path, group_by=("year", "latitude"))
        run_cell(data, config)
        before = _reports(tmp_path)
        groups = [line.split(b",")[0]
                  for line in before["per_year.csv"].splitlines()[1:]]
        assert groups == [b"999", b"2016"]
        reemit_reports(tmp_path)
        assert _reports(tmp_path) == before


class TestReportsFromRunScores:
    @pytest.fixture
    def counted(self, monkeypatch):
        import mvcrop.experiments as exp

        calls = {"predict": 0, "load": 0}
        predict = exp._predict_all

        def counting_predict(*args):
            calls["predict"] += 1
            return predict(*args)

        def counting_load(*args):
            calls["load"] += 1
            raise AssertionError("reports must not reload a checkpoint")

        monkeypatch.setattr(exp, "_predict_all", counting_predict)
        monkeypatch.setattr(exp, "load_checkpoint", counting_load)
        return calls

    def test_cell_scores_each_repetition_once(self, counted, tiny_dataset,
                                              tmp_path):
        outcome = run_cell(tiny_dataset,
                           tiny_config(tmp_path, repetitions=2))
        assert outcome.trainings_executed == 2
        assert counted == {"predict": 2, "load": 0}

    def test_search_scores_each_training_once(self, counted, tiny_dataset,
                                              tmp_path):
        outcome = run_search(tiny_dataset, tiny_config(tmp_path))
        assert outcome.trainings_executed == 15
        assert counted == {"predict": 15, "load": 0}

    def test_cell_reports_equal_reload(self, cell_run, tiny_dataset,
                                       tmp_path):
        assert_reports_match_reload(*cell_run, tiny_dataset, tmp_path / "d")

    def test_grid_with_two_jobs_reports_equal_reload(self, tiny_dataset,
                                                     tmp_path):
        config = tiny_config(tmp_path / "run", jobs=2)
        outcome = run_grid(tiny_dataset, config)
        assert_reports_match_reload(outcome, tmp_path / "run", config,
                                    tiny_dataset, tmp_path / "d")

    def test_search_reports_equal_reload(self, search_run, tiny_dataset,
                                         tmp_path):
        assert_reports_match_reload(*search_run, tiny_dataset,
                                    tmp_path / "d")

    def test_predictions_csv_equals_per_row_writer(self, tiny_dataset,
                                                   tmp_path):
        _, test_part = stratified_split(tiny_dataset, 0.3, 3)
        kinds = {test_part.metadata[key].dtype.kind
                 for key in rundir._PREDICTION_METADATA}
        assert kinds == {"U", "i", "f"}
        rng = np.random.default_rng(4)
        probabilities = rng.dirichlet(np.ones(3), size=len(test_part))
        probabilities[0] = (1.0, 0.0, 0.0)  # a zero entropy term
        probabilities[1] = (0.5, 0.5, 0.0)  # a tie
        labels = test_part.labels.copy()
        labels[2] = 2
        (tmp_path / "reports").mkdir()
        rundir.write_predictions(tmp_path, labels, probabilities,
                                 test_part.metadata, ("year", "continent"))
        per_row_predictions_csv(tmp_path / "rows.csv", labels,
                                probabilities, test_part.metadata)
        assert (tmp_path / "reports" / "predictions.csv").read_bytes() == \
            (tmp_path / "rows.csv").read_bytes()

    def test_only_first_successful_repetition_is_kept(
            self, tiny_dataset, tmp_path, monkeypatch):
        import mvcrop.experiments as exp

        fit = exp._fit

        def fail_first(cell, model, dataset, config):
            if config.seed == rep_seed(3, 0):
                raise RuntimeError("first repetition lost")
            return fit(cell, model, dataset, config)

        monkeypatch.setattr(exp, "_fit", fail_first)
        config = tiny_config(tmp_path, repetitions=3, jobs=2)
        train_part, test_part = stratified_split(tiny_dataset, 0.3, 3)
        cells = (CellSpec("GRU", "Feature"), CellSpec("TAE", "Input"))
        (tmp_path / "checkpoints").mkdir()
        predictions = {}
        rows = exp._execute(cells, (train_part, test_part), config,
                            tmp_path, "fp", predictions)
        assert [(r["cell"], r["repetition"]) for r in rows] == [
            (c.label, rep) for c in cells for rep in range(3)]
        assert list(predictions) == [rows[1]["checkpoint"],
                                     rows[4]["checkpoint"]]
        assert all(p.shape == (len(test_part), 2)
                   for p in predictions.values())

    def test_reports_use_first_successful_repetition(
            self, tiny_dataset, tmp_path, monkeypatch):
        import mvcrop.experiments as exp

        fit = exp._fit
        failing_seed = rep_seed(3, 0)

        def fail_first(cell, model, dataset, config):
            if config.seed == failing_seed:
                raise RuntimeError("first repetition lost")
            return fit(cell, model, dataset, config)

        monkeypatch.setattr(exp, "_fit", fail_first)
        config = tiny_config(tmp_path / "run", repetitions=3)
        outcome = run_cell(tiny_dataset, config)
        assert [r["status"] for r in outcome.records] == ["error", "ok", "ok"]
        assert_reports_match_reload(outcome, tmp_path / "run", config,
                                    tiny_dataset, tmp_path / "d")


# ---------------------------------------------------------------------------
# parameter inspection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def param_rows():
    return inspect_parameters()


class TestInspectParameters:
    def by_name(self, rows, component, view=""):
        match = [r for r in rows
                 if r["component"] == component and r["view"] == view]
        assert len(match) == 1, (component, view)
        return match[0]

    def test_gru_counts_match_reference(self, param_rows):
        for view, expected in (("optical", 43904), ("radar", 42176),
                               ("weather", 42176), ("ndvi", 41984)):
            row = self.by_name(param_rows, "GRU", view)
            assert row["computed"] == expected
            assert row["reference"] == expected
            assert row["status"] == "ok"

    def test_tempcnn_counts_match_reference(self, param_rows):
        for view, expected in (("optical", 258880), ("radar", 256000),
                               ("weather", 256000), ("ndvi", 255680)):
            row = self.by_name(param_rows, "TempCNN", view)
            assert row["computed"] == expected
            assert row["status"] == "ok"

    def test_lstm_optical_matches(self, param_rows):
        row = self.by_name(param_rows, "LSTM", "optical")
        assert row["computed"] == 57152
        assert row["status"] == "ok"

    def test_lstm_two_channel_rows_flagged_as_mismatch(self, param_rows):
        for view in ("radar", "weather"):
            row = self.by_name(param_rows, "LSTM", view)
            assert row["computed"] == 54848
            assert row["reference"] == 54592
            assert row["status"] == "mismatch"

    def test_lstm_ndvi_excluded(self, param_rows):
        row = self.by_name(param_rows, "LSTM", "ndvi")
        assert row["computed"] == 54592
        assert row["reference"] == 50688
        assert row["status"] == "excluded"

    def test_static_mlp_row(self, param_rows):
        row = self.by_name(param_rows, "MLP", "topography")
        assert row["computed"] == row["reference"] == 4352
        assert row["status"] == "ok"

    def test_head_row(self, param_rows):
        row = self.by_name(param_rows, "head[320->2]")
        assert row["computed"] == row["reference"] == 20802
        assert row["status"] == "ok"

    def test_attention_deltas(self, param_rows):
        for arch in ("TAE", "LTAE"):
            row = self.by_name(param_rows, f"{arch} optical-radar")
            assert row["computed"] == row["reference"] == 594
            assert row["status"] == "ok"
            row = self.by_name(param_rows, f"{arch} radar-ndvi")
            assert row["computed"] == row["reference"] == 66
            assert row["status"] == "ok"

    def test_tae_minus_ltae_delta(self, param_rows):
        row = self.by_name(param_rows, "TAE-LTAE")
        assert row["computed"] == row["reference"] == 8192
        assert row["status"] == "ok"

    def test_fast(self):
        start = time.perf_counter()
        inspect_parameters()
        assert time.perf_counter() - start < 1.0
