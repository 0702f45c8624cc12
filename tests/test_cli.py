"""Command-line interface tests: every subcommand, flag overrides, the
run-directory layout, report re-emission, and the 0/1/2 exit-code contract."""

import csv
import io
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import mvcrop
from mvcrop.cli import main
from mvcrop.data import (
    SynthSpec,
    entropy_report,
    load_dataset,
    save_dataset,
    synth_generate,
)

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


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.mvds"
    dataset = synth_generate(
        SynthSpec(kind="complementary", samples=48, noise=0.1), seed=5)
    save_dataset(dataset, path)
    return path


def write_config(path, data_path, out_dir, **overrides):
    payload = {
        "dataset": str(data_path),
        "task": "binary",
        "encoder": "GRU",
        "strategy": "Input",
        "views": ["radar"],
        "repetitions": 1,
        "seed_base": 3,
        "encoder_options": dict(TINY_OPTIONS),
        "train": {"batch_size": 16, "max_epochs": 2, "patience": 1,
                  "validation_fraction": 0.25},
        "output_dir": str(out_dir),
    }
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestUsage:
    def test_no_arguments_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert err

    def test_unknown_command_is_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "fly")
        assert code == 1
        assert err


class TestSynth:
    def test_writes_loadable_container(self, capsys, tmp_path):
        out = tmp_path / "synth.mvds"
        code, stdout, _ = run_cli(
            capsys, "synth", "--kind", "complementary", "--samples", "24",
            "--noise", "0.1", "--seed", "7", "--out", str(out))
        assert code == 0
        assert "24" in stdout
        dataset = load_dataset(out)
        assert len(dataset) == 24
        assert dataset.view_names == ("optical", "radar")

    def test_bad_kind_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "synth", "--kind", "impossible", "--out",
            str(tmp_path / "x.mvds"))
        assert code == 1
        assert err

    def test_bad_sample_count_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "synth", "--kind", "redundant", "--samples", "0",
            "--out", str(tmp_path / "x.mvds"))
        assert code == 1
        assert err


class TestInspectParams:
    def test_prints_reference_table(self, capsys):
        code, stdout, _ = run_cli(capsys, "inspect-params")
        assert code == 0
        assert "43904" in stdout
        assert "258880" in stdout
        assert "mismatch" in stdout
        assert "excluded" in stdout

    def test_json_output(self, capsys):
        code, stdout, _ = run_cli(capsys, "inspect-params", "--json")
        assert code == 0
        rows = json.loads(stdout)
        gru = [r for r in rows
               if r["component"] == "GRU" and r["view"] == "optical"]
        assert gru[0]["computed"] == 43904


class TestEntropy:
    def test_prints_per_view_means(self, capsys, data_path):
        code, stdout, _ = run_cli(capsys, "entropy", "--data",
                                  str(data_path))
        assert code == 0
        assert "optical" in stdout
        assert "radar" in stdout

    def test_csv_output(self, capsys, data_path, tmp_path):
        out = tmp_path / "entropy.csv"
        code, _, _ = run_cli(capsys, "entropy", "--data", str(data_path),
                             "--segments", "2", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "view,feature,entropy"
        assert len(lines) == 1 + 11 + 2  # optical channels + radar channels

    def test_csv_output_bytes_match_a_plain_csv_writer(self, capsys,
                                                       data_path, tmp_path):
        out = tmp_path / "entropy.csv"
        assert run_cli(capsys, "entropy", "--data", str(data_path),
                       "--out", str(out))[0] == 0
        report = entropy_report(load_dataset(data_path), segments=2)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("view", "feature", "entropy"))
        for view, values in report.per_feature.items():
            for feature, value in enumerate(values):
                writer.writerow((view, feature, repr(float(value))))
        assert out.read_bytes() == expected.getvalue().encode()

    def test_missing_file_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "entropy", "--data",
                               str(tmp_path / "nope.mvds"))
        assert code == 1
        assert err

    @pytest.mark.parametrize("edit", [
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "blocks"},
        lambda m: {**m, "blocks": [{**m["blocks"][0], "offset": -4}]
                   + m["blocks"][1:]},
        lambda m: {**m, "blocks": [{**m["blocks"][0], "shape": ["x"]}]
                   + m["blocks"][1:]},
        lambda m: {**m, "blocks": [{**m["blocks"][0], "shape": [0, 1 << 70],
                                    "nbytes": 0}] + m["blocks"][1:]},
        lambda m: {**m, "blocks": [{**b, "kind": "junk"} if b["name"] == "year" else b
                                   for b in m["blocks"]]},
    ], ids=["json_list", "no_blocks", "negative_offset", "non_integer_shape",
            "zero_size_oversized_shape", "unknown_block_kind"])
    def test_malformed_container_is_validation_error(self, capsys, data_path,
                                                     tmp_path, edit):
        raw = data_path.read_bytes()
        manifest_len = struct.unpack("<Q", raw[16:24])[0]
        body = json.dumps(edit(json.loads(raw[24:24 + manifest_len])))
        path = tmp_path / "bad.mvds"
        path.write_bytes(raw[:16] + struct.pack("<Q", len(body))
                         + body.encode() + raw[24 + manifest_len:])
        code, _, err = run_cli(capsys, "entropy", "--data", str(path))
        assert code == 1
        assert "mvcrop: error:" in err


class TestImport:
    def make_csvs(self, directory, samples=4):
        width_a, steps_a = 2, 3
        a_lines = ["id," + ",".join(
            f"t{t}_c{c}" for t in range(steps_a) for c in range(width_a))]
        b_lines = ["id,f0,f1"]
        label_lines = ["id,label,year"]
        for i in range(samples):
            a_lines.append(f"s{i}," + ",".join(
                str(0.1 * (i + j)) for j in range(width_a * steps_a)))
            b_lines.append(f"s{i},{i},{i + 1}")
            label_lines.append(f"s{i},{i % 2},{2016 + i % 3}")
        (directory / "a.csv").write_text("\n".join(a_lines) + "\n")
        (directory / "b.csv").write_text("\n".join(b_lines) + "\n")
        (directory / "labels.csv").write_text("\n".join(label_lines) + "\n")

    def make_manifest(self, directory, edit=lambda manifest: None):
        manifest = {
            "task": "binary",
            "classes": 2,
            "labels": "labels.csv",
            "views": {"a": "a.csv", "b": "b.csv"},
            "schemas": {
                "a": {"temporal": True, "channels": 2, "steps": 3},
                "b": {"temporal": False, "channels": 2},
            },
        }
        edit(manifest)
        path = directory / "manifest.json"
        path.write_text(json.dumps(manifest))
        return path

    def test_imports_and_saves(self, capsys, tmp_path):
        self.make_csvs(tmp_path)
        manifest = self.make_manifest(tmp_path)
        out = tmp_path / "imported.mvds"
        code, stdout, _ = run_cli(capsys, "import", "--manifest",
                                  str(manifest), "--out", str(out))
        assert code == 0
        dataset = load_dataset(out)
        assert len(dataset) == 4
        assert dataset.view_names == ("a", "b")
        assert "year" in dataset.metadata

    def test_missing_view_file_is_validation_error(self, capsys, tmp_path):
        self.make_csvs(tmp_path)
        manifest = self.make_manifest(tmp_path)
        (tmp_path / "b.csv").unlink()
        code, _, err = run_cli(capsys, "import", "--manifest",
                               str(manifest), "--out",
                               str(tmp_path / "x.mvds"))
        assert code == 1
        assert err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(classes="x"), "import manifest.classes"),
        (lambda m: m.update(views=["a", "b"]), "import manifest.views"),
        (lambda m: m["schemas"]["a"].update(channels=[2]),
         "import manifest.schemas.a.channels"),
        (lambda m: m["views"].update(a=5), "import manifest.views.a"),
        (lambda m: m.update(labels=5), "import manifest.labels"),
        (lambda m: m["schemas"]["b"].update(temporal="false"),
         "import manifest.schemas.b.temporal"),
    ], ids=["classes-str", "views-list", "channels-list", "view-path-int",
            "labels-int", "temporal-str"])
    def test_malformed_manifest_exits_1_naming_the_field(
            self, capsys, tmp_path, edit, message):
        self.make_csvs(tmp_path)
        manifest = self.make_manifest(tmp_path, edit)
        code, _, err = run_cli(capsys, "import", "--manifest", str(manifest),
                               "--out", str(tmp_path / "x.mvds"))
        assert code == 1
        assert message in err and "runtime error" not in err
        assert not (tmp_path / "x.mvds").exists()

    @pytest.mark.parametrize("name, edit", [
        ("labels.csv", lambda blob: blob.replace(b"s1,", b"s\xff1,")),
        ("a.csv", lambda blob: blob.replace(b"s2,", b"s2\xfe,")),
        ("labels.csv",
         lambda blob: blob.replace(b"2016", b"1" * 140_000, 1)),
        ("a.csv", lambda blob: blob.replace(b",0.1,", b",nan,", 1)),
        ("labels.csv", lambda blob: blob.replace(b"s1,1,", b"s1,7,")),
        ("labels.csv", lambda blob: blob + b"s0,1,2016\n"),
        ("manifest.json",
         lambda blob: blob.replace(b"labels.csv", b"labels\xff.csv")),
    ], ids=["labels-non-utf8", "view-non-utf8", "labels-long-field",
            "view-nan", "label-out-of-range", "labels-repeated-id",
            "manifest-non-utf8"])
    def test_malformed_input_exits_1_naming_the_file(
            self, capsys, tmp_path, name, edit):
        self.make_csvs(tmp_path)
        manifest = self.make_manifest(tmp_path)
        path = tmp_path / name
        path.write_bytes(edit(path.read_bytes()))
        code, _, err = run_cli(capsys, "import", "--manifest", str(manifest),
                               "--out", str(tmp_path / "x.mvds"))
        assert code == 1
        assert name in err and "runtime error" not in err
        assert not (tmp_path / "x.mvds").exists()

    def test_bad_manifest_json_is_validation_error(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        code, _, err = run_cli(capsys, "import", "--manifest", str(manifest),
                               "--out", str(tmp_path / "x.mvds"))
        assert code == 1
        assert err


class TestTrain:
    def test_single_cell_run(self, capsys, data_path, tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run")
        code, stdout, _ = run_cli(capsys, "train", "--config", str(config))
        assert code == 0
        assert "best" in stdout
        records = (tmp_path / "run" / "records.csv").read_text().splitlines()
        assert len(records) == 2

    def test_reps_and_out_overrides(self, capsys, data_path, tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "ignored")
        code, _, _ = run_cli(capsys, "train", "--config", str(config),
                             "--reps", "2", "--out", str(tmp_path / "other"))
        assert code == 0
        assert not (tmp_path / "ignored").exists()
        records = (tmp_path / "other" /
                   "records.csv").read_text().splitlines()
        assert len(records) == 3

    def test_seed_override_changes_seed_column(self, capsys, data_path,
                                               tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run")
        code, _, _ = run_cli(capsys, "train", "--config", str(config),
                             "--seed", "90", "--out", str(tmp_path / "s"))
        assert code == 0
        from mvcrop.rundir import read_records_csv
        rows = read_records_csv(tmp_path / "s" / "records.csv")
        assert rows[0]["seed"] == 90

    def test_relative_dataset_resolves_against_config_dir(
            self, capsys, data_path, tmp_path):
        local = tmp_path / "tiny.mvds"
        local.write_bytes(data_path.read_bytes())
        config = write_config(tmp_path / "config.json", "tiny.mvds",
                              "run")
        code, _, _ = run_cli(capsys, "train", "--config", str(config))
        assert code == 0
        assert (tmp_path / "run" / "records.csv").is_file()

    def test_missing_config_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--config",
                               str(tmp_path / "nope.json"))
        assert code == 1
        assert err

    def test_malformed_config_is_validation_error(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{oops")
        code, _, err = run_cli(capsys, "train", "--config", str(path))
        assert code == 1
        assert err

    def test_illegal_component_is_validation_error(self, capsys, data_path,
                                                   tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", strategy="Input",
                              component="gfusion")
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert err

    @pytest.mark.parametrize("strategy,merge", [
        ("Decision", "concat"), ("Hybrid", "concat"), ("Input", "gated")])
    def test_illegal_merge_is_validation_error(self, capsys, data_path,
                                               tmp_path, strategy, merge):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", strategy=strategy,
                              merge=merge, views=["optical", "radar"])
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert merge in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override", [
        {"views": 5},
        {"train": {"batch_size": "x"}},
        {"gamma": "x"},
        {"repetitions": "2"},
        {"encoder_options": [1]},
    ], ids=["views-int", "batch-size-str", "gamma-str", "repetitions-str",
            "encoder-options-list"])
    def test_wrong_value_type_is_reported_as_a_value(
            self, capsys, data_path, tmp_path, override):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", **override)
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert "wrong value type" in err and "unknown" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, message", [
        ({"gamma": "x"}, "gamma must be a number"),
        ({"gamma": True}, "gamma must be a number"),
        ({"train": {"class_weighting": "no"}},
         "class_weighting must be of type bool"),
        ({"train": {"class_weighting": 0}},
         "class_weighting must be of type bool"),
        ({"repetitions": "2"}, "repetitions must be a non-negative integer"),
        ({"train": {"batch_size": "2"}},
         "batch_size must be a non-negative integer"),
        ({"encoder_options": {**TINY_OPTIONS, "hidden": "2"}},
         "hidden must be a non-negative integer"),
    ], ids=["gamma-str", "gamma-bool", "class-weighting-str",
            "class-weighting-int", "repetitions-str", "batch-size-str",
            "hidden-str"])
    def test_wrong_scalar_type_names_the_field(
            self, capsys, data_path, tmp_path, override, message):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", **override)
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert f"wrong value type: {message}" in err
        assert not (tmp_path / "run").exists()

    def test_undecodable_config_exits_1_naming_the_file(
            self, capsys, data_path, tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run")
        config.write_bytes(config.read_bytes().replace(b"GRU", b"GR\xffU"))
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert "config.json" in err and "runtime error" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, message", [
        ({"views": "radar"}, "views must be a list of names"),
        ({"group_by": "year"}, "group_by must be a list of names"),
        ({"repetitions": 2.5}, "repetitions must be a non-negative integer"),
        ({"repetitions": True}, "repetitions must be a non-negative integer"),
        ({"seed_base": 1.0}, "seed_base must be a non-negative integer"),
        ({"jobs": 1.5}, "jobs must be a non-negative integer"),
        ({"train": {"batch_size": 16.0}},
         "batch_size must be a non-negative integer"),
        ({"train": {"max_epochs": 1.5}},
         "max_epochs must be a non-negative integer"),
        ({"train": {"patience": True}},
         "patience must be a non-negative integer"),
        ({"encoder_options": {**TINY_OPTIONS, "hidden": 4.0}},
         "hidden must be a non-negative integer"),
        ({"encoder_options": {**TINY_OPTIONS, "layers": 1.0}},
         "layers must be a non-negative integer"),
    ], ids=["views-str", "group-by-str", "repetitions-float",
            "repetitions-bool", "seed-base-float", "jobs-float",
            "batch-size-float", "max-epochs-float", "patience-bool",
            "hidden-float", "layers-float"])
    def test_wrong_list_or_count_type_names_the_field(
            self, capsys, data_path, tmp_path, override, message):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", **override)
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert message in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, message", [
        ({"learning_rate": 0.1}, "unknown config key: 'learning_rate'"),
        ({"train": {"momentum": 0.9}}, "unknown train option: 'momentum'"),
        ({"encoder_options": {"width": 8}}, "unknown encoder option: 'width'"),
    ], ids=["config-key", "train-option", "encoder-option"])
    def test_unknown_name_is_reported_by_name(self, capsys, data_path,
                                              tmp_path, override, message):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", **override)
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert message in err

    def test_empty_dataset_path_is_validation_error(self, capsys, tmp_path):
        config = write_config(tmp_path / "config.json", "", tmp_path / "run")
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 1
        assert err

    def test_runtime_failure_exits_two(self, capsys, data_path, tmp_path,
                                       monkeypatch):
        import mvcrop.experiments as exp

        def boom(cell, model, dataset, config):
            raise RuntimeError("training blew up")

        monkeypatch.setattr(exp, "_fit", boom)
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run")
        code, _, err = run_cli(capsys, "train", "--config", str(config))
        assert code == 2
        assert "training blew up" in err


class TestGridAndSearch:
    @pytest.fixture(autouse=True)
    def fast_fit(self, monkeypatch):
        # CLI plumbing test: skip gradient descent, keep the full pipeline.
        import mvcrop.experiments as exp
        monkeypatch.setattr(exp, "_fit",
                            lambda cell, model, dataset, config: 0.0)

    def test_grid_runs_thirty_one_cells(self, capsys, data_path, tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", views=[])
        code, stdout, _ = run_cli(capsys, "grid", "--config", str(config))
        assert code == 0
        records = (tmp_path / "run" / "records.csv").read_text().splitlines()
        assert len(records) == 32
        manifest = json.loads((tmp_path / "run" / "manifest").read_text())
        assert manifest["kind"] == "grid"
        assert manifest["trainings_executed"] == 31

    def test_search_runs_sixteen_cells(self, capsys, data_path, tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", views=[])
        code, stdout, _ = run_cli(capsys, "search", "--config", str(config))
        assert code == 0
        records = (tmp_path / "run" / "records.csv").read_text().splitlines()
        assert len(records) == 17
        manifest = json.loads((tmp_path / "run" / "manifest").read_text())
        assert manifest["kind"] == "search"
        assert manifest["trainings_executed"] == 15

    @pytest.mark.parametrize("command", ["grid", "search"])
    def test_explicit_merge_is_validation_error(self, capsys, data_path,
                                                tmp_path, command):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", views=[], merge="average")
        code, _, err = run_cli(capsys, command, "--config", str(config))
        assert code == 1
        assert "merge" in err
        assert not (tmp_path / "run").exists()

    def test_jobs_flag_accepted(self, capsys, data_path, tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run", views=[])
        code, _, _ = run_cli(capsys, "grid", "--config", str(config),
                             "--jobs", "2")
        assert code == 0


@pytest.fixture(scope="module")
def report_run(data_path, tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    config = write_config(root / "config.json", data_path, root / "run")
    assert main(["train", "--config", str(config)]) == 0
    return root / "run"


def _truncate_first_row(path, cells=5):
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:cells])
    path.write_text("\n".join(lines) + "\n")


def _edit_csv(path, column, value=None):
    """Set ``column`` of the first data row to ``value``, or drop the
    column when ``value`` is None."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    header = [c for c in rows[0] if value is not None or c != column]
    rows[0][column] = value
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


class TestReport:
    def test_re_emits_summary_byte_identical(self, capsys, data_path,
                                             tmp_path):
        config = write_config(tmp_path / "config.json", data_path,
                              tmp_path / "run")
        assert run_cli(capsys, "train", "--config", str(config))[0] == 0
        run_dir = tmp_path / "run"
        before = {name: (run_dir / "reports" / name).read_bytes()
                  for name in ("summary.csv", "summary.md", "per_class.csv",
                               "per_year.csv", "per_continent.csv")}
        for name in before:
            (run_dir / "reports" / name).unlink()
        code, _, _ = run_cli(capsys, "report", "--records", str(run_dir))
        assert code == 0
        for name, blob in before.items():
            assert (run_dir / "reports" / name).read_bytes() == blob

    def test_missing_run_dir_is_validation_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", "--records",
                               str(tmp_path / "none"))
        assert code == 1
        assert err

    @pytest.mark.parametrize("edit,needle", [
        (lambda run: (run / "manifest").write_text("{}"), "manifest lacks"),
        (lambda run: (run / "manifest").write_text("[1]"),
         "manifest must be an object"),
        (lambda run: _edit_csv(run / "records.csv", "repetition", "x"),
         "records.csv line 2"),
        (lambda run: _edit_csv(run / "records.csv", "samples"),
         "records.csv line 1"),
        (lambda run: _truncate_first_row(run / "records.csv"),
         "records.csv line 2"),
        (lambda run: _edit_csv(run / "reports" / "predictions.csv",
                               "prob_1", "x"), "predictions.csv line 2"),
        (lambda run: _edit_csv(run / "reports" / "predictions.csv",
                               "true_label"), "predictions.csv line 1"),
    ], ids=["manifest-empty-object", "manifest-list", "records-bad-int",
            "records-missing-column", "records-short-row",
            "predictions-bad-float",
            "predictions-missing-column"])
    def test_malformed_input_exits_1_naming_the_file(
            self, capsys, tmp_path, report_run, edit, needle):
        run_dir = tmp_path / "run"
        shutil.copytree(report_run, run_dir)
        edit(run_dir)
        code, _, err = run_cli(capsys, "report", "--records", str(run_dir))
        assert code == 1
        assert needle in err
        assert "runtime error" not in err


    @pytest.mark.parametrize("name, edit", [
        ("records.csv", lambda blob: blob.replace(b"GRU", b"GR\xffU", 1)),
        ("records.csv", lambda blob: blob.replace(b"GRU", b"G" * 140_000, 1)),
        ("reports/predictions.csv",
         lambda blob: blob.replace(b"\n", b"\n\xfe", 1)),
    ], ids=["records-non-utf8", "records-long-field",
            "predictions-non-utf8"])
    def test_unreadable_csv_exits_1_naming_the_file(
            self, capsys, tmp_path, report_run, name, edit):
        run_dir = tmp_path / "run"
        shutil.copytree(report_run, run_dir)
        path = run_dir / name
        path.write_bytes(edit(path.read_bytes()))
        code, _, err = run_cli(capsys, "report", "--records", str(run_dir))
        assert code == 1
        assert path.name in err and "runtime error" not in err


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the same mvcrop as this process, installed or not
        source = str(Path(mvcrop.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "mvcrop", "inspect-params"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        assert "43904" in proc.stdout
