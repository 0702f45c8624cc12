"""Guard for the benchmark's span tracer: ``perfbench/tracing.py`` wraps
entry points of the package by name, so a refactor that renames or bypasses
one of them must fail here rather than only in a traced benchmark pass."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from mvcrop.data import SynthSpec, stratified_split, synth_generate
from mvcrop.training import validation_split

ROOT = Path(__file__).resolve().parents[1]

TINY_OPTIONS = {"hidden": 8, "layers": 1, "embedding_dim": 8, "dense": 16,
                "dropout": 0.0}
BATCH, EPOCHS, VALIDATION, TEST, SEED = 16, 2, 0.25, 0.3, 3

CHILD = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import tracing
    from mvcrop.data import SynthSpec, synth_generate
    from mvcrop.experiments import ExperimentConfig, run_cell
    from mvcrop.training import TrainConfig

    tracer = tracing.Tracer()
    tracing.install(tracer)
    batch, epochs, validation, test, seed = json.loads(sys.argv[3])
    dataset = synth_generate(SynthSpec("complementary", samples=48), seed=5)
    runs = []
    for strategy in ("Feature", "Ensemble"):
        tracer.spans, tracer.step_seconds = [], []
        run_cell(dataset, ExperimentConfig(
            encoder="GRU", strategy=strategy, repetitions=1,
            seed_base=seed, test_fraction=test,
            encoder_options=json.loads(sys.argv[4]),
            train=TrainConfig(batch_size=batch, max_epochs=epochs,
                              patience=epochs,
                              validation_fraction=validation),
            output_dir=f"{sys.argv[2]}-{strategy}"))
        names = [span.name for span in tracer.spans]
        runs.append({
            "counts": {name: names.count(name) for name in set(names)},
            "epochs": [span.attrs["epochs"] for span in tracer.spans
                       if span.name == "training.train"],
            "records": [span.attrs["records"] for span in tracer.spans
                        if span.name == "tensor.backward"],
            "summary": tracing.summarize(tracer, 0),
        })
    print(json.dumps(runs))
""")


def test_tracer_counts_every_training_step(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT / "perfbench"),
         str(tmp_path / "run"), json.dumps([BATCH, EPOCHS, VALIDATION, TEST,
                                            SEED]),
         json.dumps(TINY_OPTIONS)],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    traced, ensemble = json.loads(done.stdout.splitlines()[-1])

    # patience == max_epochs, so the single fit runs every epoch
    dataset = synth_generate(SynthSpec("complementary", samples=48), seed=5)
    train_part, _ = stratified_split(dataset, TEST, SEED)
    fit = len(validation_split(train_part, VALIDATION, 0)[0])
    batches = fit // BATCH + (1 if fit % BATCH >= 2 else 0)
    steps = EPOCHS * batches

    counts = traced["counts"]
    assert traced["epochs"] == [EPOCHS]
    assert counts["training.adam_step"] == steps
    assert counts["tensor.backward"] == steps
    assert traced["summary"]["training.steps"] == steps
    # the tracer reads the tape's length before the sweep empties it: every
    # step of this fixed-shape model tapes the same positive record count
    records = traced["records"]
    assert len(records) == steps and records[0] > 0
    assert set(records) == {records[0]}
    assert traced["summary"]["tensor.tape_records_per_step"] == pytest.approx(
        records[0])
    assert counts["fusion.predict"] >= 1
    assert counts["metrics.evaluate"] >= 1
    assert counts["training.checkpoint_save"] == 1

    # one repetition: each protocol binding that perfbench wraps in
    # ``experiments`` is called once, and an Ensemble cell fits through
    # ``train_ensemble``, one ``train`` per view
    for run in (traced, ensemble):
        assert [run["counts"].get(name) for name in (
            "experiments.records", "data.split", "fusion.build_model")] == [
            1, 1, 1]
    assert "training.train_ensemble" not in counts
    assert ensemble["counts"]["training.train_ensemble"] == 1
    assert ensemble["epochs"] == [EPOCHS] * len(dataset.view_names)
    assert ensemble["summary"]["training.steps"] == (
        len(dataset.view_names) * steps)


BRANCH_CHILD = textwrap.dedent("""
    import json, os, sys, threading
    sys.path.insert(0, sys.argv[1])
    import tracing
    from mvcrop import encoders, training
    from mvcrop.data import SynthSpec, synth_generate
    from mvcrop.encoders import EncoderConfig
    from mvcrop.fusion import build_model

    tracer = tracing.Tracer()
    tracing.install(tracer)
    traced_call = encoders.Encoder.__call__
    calls = []

    def by_view(self, *args):
        calls.append((self.schema.name, self.mode))
        return traced_call(self, *args)

    encoders.Encoder.__call__ = by_view
    samples, batch = json.loads(sys.argv[2])
    dataset = synth_generate(SynthSpec("complementary", samples=samples), seed=5)
    model = build_model(list(dataset.schemas), "Feature", EncoderConfig("GRU"),
                        classes=dataset.classes)
    model.initialize(1)
    training.train(model, dataset, training.TrainConfig(
        batch_size=batch, max_epochs=1, patience=1))
    main = threading.main_thread().ident
    steps = [span for span in tracer.spans
             if span.name == "encoders.forward" and span.phase == "step"]
    print(json.dumps({
        "summary": tracing.summarize(tracer, main),
        "views": dataset.view_names,
        "train_calls": [name for name, mode in calls if mode == "train"],
        "step_spans": len(steps),
        "helper_spans": sum(span.thread != main for span in steps),
        "cpus": os.cpu_count(),
    }))
""")


def test_tracer_sees_each_view_encoder_once_per_step():
    """A paper-width two-view Feature step runs its encoders as branches:
    the tracer still counts the planned steps, and each view's encoder
    gives one ``encoders.forward`` span per step, on whichever thread ran
    it. With a second CPU some of those spans come from a helper thread."""
    samples, batch = 300, 128
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", BRANCH_CHILD, str(ROOT / "perfbench"),
         json.dumps([samples, batch])],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])

    dataset = synth_generate(SynthSpec("complementary", samples=samples), seed=5)
    fit = len(validation_split(dataset, 0.1, 0)[0])
    steps = fit // batch + (1 if fit % batch >= 2 else 0)
    assert run["summary"]["training.steps"] == steps
    views = run["views"]
    assert len(views) == 2
    assert sorted(run["train_calls"]) == sorted(views * steps)
    assert run["step_spans"] == len(views) * steps
    if run["cpus"] > 1:
        assert run["helper_spans"] > 0


SCORING_CHILD = textwrap.dedent("""
    import json, os, sys, threading
    sys.path.insert(0, sys.argv[1])
    import tracing
    from mvcrop.data import SynthSpec, synth_generate
    from mvcrop.experiments import ExperimentConfig, run_cell
    from mvcrop.training import TrainConfig

    tracer = tracing.Tracer()
    tracing.install(tracer)
    samples, batch, test, seed = json.loads(sys.argv[3])
    dataset = synth_generate(SynthSpec("complementary", samples=samples), seed=5)
    run_cell(dataset, ExperimentConfig(
        encoder="LTAE", strategy="Input", repetitions=1, seed_base=seed,
        test_fraction=test, output_dir=sys.argv[2],
        train=TrainConfig(batch_size=batch, max_epochs=1, patience=1)))
    main = threading.main_thread().ident
    predicts = [span for span in tracer.spans if span.name == "fusion.predict"]
    print(json.dumps({
        "phases": [span.phase for span in predicts],
        "helper_spans": sum(span.thread != main for span in predicts),
        "cpus": os.cpu_count(),
    }))
""")


def test_tracer_sees_each_scoring_batch_once(tmp_path):
    """A paper-width single-encoder cell scores its test split in batches
    that run as branches: the tracer gives one ``fusion.predict`` span per
    test batch, each in the ``predict`` phase, on whichever thread ran it,
    so ``encoders.infer_ms_per_batch`` keeps its denominator. With a second
    CPU some of those spans come from a helper thread."""
    samples, batch, test, seed = 2000, 128, 0.3, 3
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", SCORING_CHILD, str(ROOT / "perfbench"),
         str(tmp_path / "run"), json.dumps([samples, batch, test, seed])],
        capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    run = json.loads(done.stdout.splitlines()[-1])

    dataset = synth_generate(SynthSpec("complementary", samples=samples), seed=5)
    scored = len(stratified_split(dataset, test, seed)[1])
    batches = -(-scored // batch)
    assert batches > 1
    assert run["phases"] == ["predict"] * batches
    if run["cpus"] > 1:
        assert run["helper_spans"] > 0
