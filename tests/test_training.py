"""Oracle tests for the training module: class weights, weighted
cross-entropy, the Adam optimizer, validation splitting, early stopping,
the training loop, ensemble training, and checkpoints."""

import dataclasses
import json
import struct

import numpy as np
import pytest

from mvcrop.data import SynthSpec, synth_generate
from mvcrop.encoders import EncoderConfig
from mvcrop.errors import ConfigError, FormatError, NumericError, ShapeError
from mvcrop.fusion import build_model
from mvcrop.rngutil import member_seed
from mvcrop.tensor import Parameter, Tape, Tensor, backward
from mvcrop.training import (
    Adam,
    TrainConfig,
    TrainResult,
    class_weights,
    early_stop_schedule,
    load_checkpoint,
    save_checkpoint,
    train,
    train_ensemble,
    validation_split,
    weighted_cross_entropy,
)

LN2 = float(np.log(2.0))


def labels_from_counts(counts):
    return np.repeat(np.arange(len(counts)), counts).astype(np.int64)


def fast_config(**kw):
    base = dict(
        batch_size=32,
        max_epochs=3,
        patience=5,
        validation_fraction=0.25,
        learning_rate=1e-3,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


def tempcnn_config(**kw):
    base = dict(architecture="TempCNN", hidden=16, dense=32, embedding_dim=16, dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def gru_config(**kw):
    base = dict(architecture="GRU", hidden=12, layers=1, embedding_dim=12, dropout=0.0)
    base.update(kw)
    return EncoderConfig(**base)


def batch_of(dataset, indices=None):
    return dataset.batch(np.arange(len(dataset)) if indices is None else indices)


# ---------------------------------------------------------------------------
# class weights
# ---------------------------------------------------------------------------


class TestClassWeights:
    def test_nine_to_one_imbalance(self):
        w = class_weights(labels_from_counts([900, 100]), classes=2)
        assert np.allclose(w, [0.2, 1.8], atol=1e-12)

    def test_balanced_weights_are_exactly_one(self):
        assert np.array_equal(class_weights(labels_from_counts([50, 50]), 2), np.ones(2))
        assert np.array_equal(class_weights(labels_from_counts([7, 7, 7]), 3), np.ones(3))

    def test_three_class_example(self):
        w = class_weights(labels_from_counts([1, 1, 2]), classes=3)
        assert np.allclose(w, [1.2, 1.2, 0.6], atol=1e-12)

    def test_weights_sum_to_class_count(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 4, size=500)
        labels[:4] = [0, 1, 2, 3]
        w = class_weights(labels, classes=4)
        assert abs(w.sum() - 4.0) < 1e-12
        assert np.all(w > 0)

    def test_rarer_class_gets_larger_weight(self):
        w = class_weights(labels_from_counts([10, 30, 60]), classes=3)
        assert w[0] > w[1] > w[2]

    def test_empty_class_rejected(self):
        with pytest.raises(ConfigError):
            class_weights(labels_from_counts([5, 0, 5]), classes=3)
        with pytest.raises(ConfigError):
            class_weights(np.zeros(10, dtype=np.int64), classes=2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            class_weights(np.array([0, 1, 2]), classes=2)


# ---------------------------------------------------------------------------
# weighted cross-entropy
# ---------------------------------------------------------------------------


class TestWeightedCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        loss = weighted_cross_entropy(probs, np.array([0, 1]), np.ones(2))
        assert loss.data == 0.0

    def test_uniform_binary_is_ln_two(self):
        probs = Tensor(np.full((4, 2), 0.5))
        loss = weighted_cross_entropy(probs, np.array([0, 1, 0, 1]), np.ones(2))
        assert abs(loss.data - LN2) < 1e-12

    def test_weights_average_out_on_balanced_batch(self):
        probs = Tensor(np.full((2, 2), 0.5))
        loss = weighted_cross_entropy(probs, np.array([0, 1]), np.array([0.2, 1.8]))
        assert abs(loss.data - LN2) < 1e-12

    def test_weighted_arithmetic(self):
        p = np.array([[0.8, 0.2], [0.6, 0.4], [0.3, 0.7]])
        y = np.array([0, 1, 1])
        w = np.array([2.0, 0.5])
        want = np.mean(w[y] * -np.log(p[np.arange(3), y]))
        loss = weighted_cross_entropy(Tensor(p), y, w)
        assert abs(loss.data - want) < 1e-12

    def test_zero_probability_is_clamped(self):
        probs = Tensor(np.array([[0.0, 1.0]]))
        loss = weighted_cross_entropy(probs, np.array([0]), np.ones(2))
        assert abs(loss.data - (-np.log(1e-12))) < 1e-9

    def test_unit_weights_default(self):
        p = np.array([[0.7, 0.3], [0.4, 0.6]])
        y = np.array([0, 1])
        a = weighted_cross_entropy(Tensor(p), y, None)
        b = weighted_cross_entropy(Tensor(p), y, np.ones(2))
        assert a.data == b.data

    def test_gradient_matches_closed_form(self):
        p = np.array([[0.8, 0.2], [0.25, 0.75]])
        y = np.array([0, 1])
        w = np.array([1.5, 0.5])
        with Tape() as tape:
            probs = Tensor(p, requires_grad=True)
            loss = weighted_cross_entropy(probs, y, w)
            backward(loss, tape)
        want = np.zeros_like(p)
        want[0, 0] = -w[0] / (2 * p[0, 0])
        want[1, 1] = -w[1] / (2 * p[1, 1])
        assert np.allclose(probs.grad, want, atol=1e-12)

    def test_label_out_of_range(self):
        probs = Tensor(np.full((2, 2), 0.5))
        with pytest.raises(ConfigError):
            weighted_cross_entropy(probs, np.array([0, 2]), np.ones(2))

    def test_length_mismatch(self):
        probs = Tensor(np.full((3, 2), 0.5))
        with pytest.raises(ShapeError):
            weighted_cross_entropy(probs, np.array([0, 1]), np.ones(2))

    def test_weight_width_mismatch(self):
        probs = Tensor(np.full((2, 2), 0.5))
        with pytest.raises(ShapeError):
            weighted_cross_entropy(probs, np.array([0, 1]), np.ones(3))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def make_param(values):
    return Parameter(np.asarray(values, dtype=np.float64), init="zeros")


class TestAdam:
    def test_first_step_closed_form(self):
        p = make_param([2.0])
        p.grad = np.array([1.0])
        Adam().step({"p": p})
        delta = p.data[0] - 2.0
        # stated update rule: theta -= lr * mhat / (sqrt(vhat) + eps)
        assert abs(delta - (-1e-3 / (1.0 + 1e-8))) < 1e-15
        assert abs(delta - (-9.99999995e-4)) < 1e-11

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = make_param([3.0, -1.0])
        before = p.data.copy()
        p.grad = np.zeros(2)
        Adam().step({"p": p})
        assert np.array_equal(p.data, before)

    def test_none_gradient_is_skipped(self):
        p = make_param([3.0])
        before = p.data.copy()
        opt = Adam()
        opt.step({"p": p})
        assert np.array_equal(p.data, before)

    def test_monotone_movement_for_constant_gradient(self):
        p = make_param([0.0])
        opt = Adam()
        seen = [p.data[0]]
        for _ in range(4):
            p.grad = np.array([-2.0])
            opt.step({"p": p})
            seen.append(p.data[0])
        diffs = np.diff(seen)
        assert np.all(diffs > 0)  # moving opposite the gradient sign

    def test_constant_unit_gradient_accumulates_linearly(self):
        p = make_param([0.0])
        opt = Adam()
        for _ in range(3):
            p.grad = np.array([1.0])
            opt.step({"p": p})
        assert abs(p.data[0] - 3 * (-1e-3 / (1.0 + 1e-8))) < 1e-12

    def test_non_finite_gradient_names_parameter(self):
        p = make_param([1.0])
        p.grad = np.array([np.nan])
        with pytest.raises(NumericError, match="encoders.radar.proj.weight"):
            Adam().step({"encoders.radar.proj.weight": p})

    def test_step_counter_and_state_shapes(self):
        p = make_param(np.zeros((2, 3)))
        opt = Adam()
        for _ in range(2):
            p.grad = np.ones((2, 3))
            opt.step({"p": p})
        assert opt.step_count == 2
        m, v = opt.state["p"]
        assert m.shape == (2, 3) and v.shape == (2, 3)

    def test_parameters_update_independently(self):
        a, b = make_param([0.0]), make_param([0.0])
        opt = Adam()
        a.grad = np.array([1.0])
        b.grad = np.array([-1.0])
        opt.step({"a": a, "b": b})
        assert a.data[0] < 0 < b.data[0]
        assert abs(a.data[0] + b.data[0]) < 1e-18

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigError):
            Adam(lr=0.0)


# ---------------------------------------------------------------------------
# config and splits
# ---------------------------------------------------------------------------


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 256
        assert cfg.max_epochs == 100
        assert cfg.patience == 5
        assert cfg.validation_fraction == 0.1
        assert cfg.learning_rate == 1e-3
        assert cfg.min_delta == 0.0
        assert cfg.class_weighting is True
        assert cfg.seed == 0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(validation_fraction=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)
        with pytest.raises(ConfigError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(min_delta=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0.0)


class TestValidationSplit:
    def test_ninety_ten(self):
        ds = synth_generate(SynthSpec("complementary", samples=100), seed=1)
        train_part, val_part = validation_split(ds, 0.1, seed=3)
        assert len(train_part) == 90
        assert len(val_part) == 10

    def test_disjoint_and_exhaustive(self):
        ds = synth_generate(SynthSpec("complementary", samples=40), seed=1)
        train_part, val_part = validation_split(ds, 0.25, seed=3)
        a = set(train_part.metadata["latitude"])
        b = set(val_part.metadata["latitude"])
        assert a.isdisjoint(b)
        assert sorted(list(a) + list(b)) == sorted(ds.metadata["latitude"])

    def test_determinism(self):
        ds = synth_generate(SynthSpec("complementary", samples=40), seed=1)
        _, v1 = validation_split(ds, 0.25, seed=3)
        _, v2 = validation_split(ds, 0.25, seed=3)
        assert np.array_equal(v1.metadata["latitude"], v2.metadata["latitude"])
        _, v3 = validation_split(ds, 0.25, seed=4)
        assert list(v1.metadata["latitude"]) != list(v3.metadata["latitude"])

    def test_small_sets_keep_one_each(self):
        ds = synth_generate(SynthSpec("complementary", samples=8), seed=1).subset([0, 1])
        train_part, val_part = validation_split(ds, 0.1, seed=0)
        assert len(train_part) == 1
        assert len(val_part) == 1

    def test_fraction_out_of_range(self):
        ds = synth_generate(SynthSpec("complementary", samples=10), seed=1)
        with pytest.raises(ConfigError):
            validation_split(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            validation_split(ds, 1.0, seed=0)

    def test_single_sample_rejected(self):
        ds = synth_generate(SynthSpec("complementary", samples=8), seed=1).subset([0])
        with pytest.raises(ConfigError):
            validation_split(ds, 0.5, seed=0)


# ---------------------------------------------------------------------------
# early stopping rule
# ---------------------------------------------------------------------------


class TestEarlyStopSchedule:
    def test_worked_example(self):
        losses = [1.0, 0.9, 0.95, 0.96, 0.97, 0.98, 0.99]
        epochs_run, best_epoch = early_stop_schedule(losses, patience=5)
        assert epochs_run == 7
        assert best_epoch == 2

    def test_monotone_improvement_never_stops(self):
        losses = [0.9, 0.8, 0.7, 0.6]
        epochs_run, best_epoch = early_stop_schedule(losses, patience=2)
        assert epochs_run == 4
        assert best_epoch == 4

    def test_equal_loss_counts_as_no_improvement(self):
        losses = [1.0, 1.0, 1.0]
        epochs_run, best_epoch = early_stop_schedule(losses, patience=2)
        assert epochs_run == 3
        assert best_epoch == 1

    def test_min_delta_raises_the_bar(self):
        losses = [1.0, 0.995, 0.99]
        assert early_stop_schedule(losses, patience=2)[0] == 3
        assert early_stop_schedule(losses, patience=2, min_delta=0.1) == (3, 1)

    def test_recovery_resets_patience(self):
        losses = [1.0, 1.1, 1.2, 0.5, 1.3, 1.4]
        epochs_run, best_epoch = early_stop_schedule(losses, patience=3)
        assert epochs_run == 6
        assert best_epoch == 4


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------


def feature_model(dataset, seed=11, encoder=None, **build_kw):
    model = build_model(
        list(dataset.schemas),
        "Feature",
        encoder or tempcnn_config(),
        classes=dataset.classes,
        **build_kw,
    )
    model.initialize(seed)
    return model


class TestTrain:
    def test_history_bookkeeping(self):
        ds = synth_generate(SynthSpec("redundant", samples=64, noise=0.2), seed=2)
        model = feature_model(ds)
        result = train(model, ds, fast_config(max_epochs=3))
        assert isinstance(result, TrainResult)
        assert result.epochs_run == 3
        assert not result.stopped_early
        assert len(result.train_loss) == 3
        assert len(result.val_loss) == 3
        assert result.best_epoch == 1 + int(np.argmin(result.val_loss))
        assert result.wall_clock > 0
        assert result.seed == 0

    def test_bit_reproducible_histories(self):
        ds = synth_generate(SynthSpec("redundant", samples=64, noise=0.2), seed=2)
        results = []
        for _ in range(2):
            model = feature_model(ds, seed=5)
            results.append(train(model, ds, fast_config(max_epochs=3, seed=4)))
        assert results[0].train_loss == results[1].train_loss
        assert results[0].val_loss == results[1].val_loss

    def test_restored_weights_match_best_validation_loss(self):
        ds = synth_generate(SynthSpec("complementary", samples=80, noise=0.3), seed=3)
        model = feature_model(ds, seed=1)
        cfg = fast_config(max_epochs=8, patience=2, learning_rate=0.05, seed=2)
        result = train(model, ds, cfg)
        _, val_part = validation_split(ds, cfg.validation_fraction, cfg.seed)
        probs = model.predict(batch_of(val_part))
        picked = probs[np.arange(len(val_part)), val_part.labels]
        from mvcrop.training import class_weights as cw

        train_part, _ = validation_split(ds, cfg.validation_fraction, cfg.seed)
        w = cw(train_part.labels, ds.classes)
        recomputed = float(np.mean(w[val_part.labels] * -np.log(np.maximum(picked, 1e-12))))
        assert abs(recomputed - min(result.val_loss)) < 1e-12
        assert result.best_epoch == 1 + int(np.argmin(result.val_loss))

    def test_early_stopping_stops_before_cap(self):
        ds = synth_generate(SynthSpec("noisy-view", samples=64, noise=0.3), seed=4)
        model = feature_model(ds, seed=2)
        cfg = fast_config(max_epochs=60, patience=1, learning_rate=0.2, seed=1)
        result = train(model, ds, cfg)
        assert result.stopped_early
        assert result.epochs_run < 60
        assert result.epochs_run == len(result.val_loss)

    def test_stopping_follows_early_stop_schedule(self):
        ds = synth_generate(SynthSpec("complementary", samples=240), seed=0)
        model = feature_model(ds, seed=0, encoder=gru_config(hidden=8, embedding_dim=8))
        cfg = fast_config(max_epochs=30, patience=3, learning_rate=5e-2, seed=0)
        result = train(model, ds, cfg)
        assert result.stopped_early
        assert result.epochs_run == 9
        assert (result.epochs_run, result.best_epoch) == early_stop_schedule(
            result.val_loss, cfg.patience, cfg.min_delta)

    def test_separable_two_view_reaches_95_percent(self):
        ds = synth_generate(SynthSpec("redundant", samples=240, noise=0.1), seed=6)
        model = feature_model(ds, seed=7, encoder=tempcnn_config(dropout=0.2))
        cfg = TrainConfig(
            batch_size=32,
            max_epochs=50,
            patience=50,
            validation_fraction=0.1,
            seed=5,
        )
        result = train(model, ds, cfg)
        assert result.epochs_run <= 50
        _, val_part = validation_split(ds, cfg.validation_fraction, cfg.seed)
        probs = model.predict(batch_of(val_part))
        accuracy = float(np.mean(probs.argmax(axis=1) == val_part.labels))
        assert accuracy >= 0.95

    def test_single_class_training_set_rejected(self):
        ds = synth_generate(SynthSpec("redundant", samples=64), seed=2)
        only_zero = ds.subset(np.flatnonzero(ds.labels == 0))
        model = feature_model(only_zero)
        with pytest.raises(ConfigError):
            train(model, only_zero, fast_config())

    def test_equal_weights_match_unweighted_exactly(self):
        base = synth_generate(SynthSpec("redundant", samples=80, noise=0.2), seed=8)
        zeros = np.flatnonzero(base.labels == 0)[:24]
        ones = np.flatnonzero(base.labels == 1)[:24]
        ds = base.subset(np.concatenate([zeros, ones]))
        histories = []
        for weighting in (True, False):
            model = feature_model(ds, seed=3)
            # split seed 8 leaves the 36-sample training part balanced 18/18,
            # so the derived weights are exactly [1, 1]
            cfg = fast_config(max_epochs=2, class_weighting=weighting, seed=8)
            histories.append(train(model, ds, cfg))
        assert histories[0].train_loss == histories[1].train_loss
        assert histories[0].val_loss == histories[1].val_loss

    def test_trailing_one_sample_batch_is_dropped(self, monkeypatch):
        """33 training samples in batches of 8: four steps per epoch, and
        the epoch's loss averages over the 32 samples that were used."""
        ds = synth_generate(SynthSpec("redundant", samples=44, noise=0.2), seed=2)
        cfg = fast_config(batch_size=8, max_epochs=2)
        train_part, _ = validation_split(ds, cfg.validation_fraction, cfg.seed)
        assert len(train_part) == 33
        steps, batches = [], []
        adam_step = Adam.step

        def counting_step(self, params):
            steps.append(len(batches))
            return adam_step(self, params)

        def recording_loss(probabilities, labels, weights=None):
            loss = weighted_cross_entropy(probabilities, labels, weights)
            batches.append((float(loss.data), len(labels)))
            return loss

        monkeypatch.setattr(Adam, "step", counting_step)
        monkeypatch.setattr("mvcrop.training.weighted_cross_entropy", recording_loss)
        result = train(feature_model(ds), ds, cfg)
        assert result.epochs_run == 2
        assert steps == list(range(1, 9))
        for epoch in range(2):
            running = 0.0
            for loss, size in batches[4 * epoch: 4 * epoch + 4]:
                assert size == 8
                running += loss * size
            assert result.train_loss[epoch] == running / 32

    def test_model_left_in_inference_mode(self):
        ds = synth_generate(SynthSpec("redundant", samples=48, noise=0.2), seed=2)
        model = feature_model(ds)
        train(model, ds, fast_config(max_epochs=1))
        batch = batch_of(ds, np.arange(8))
        assert np.array_equal(model.predict(batch), model.predict(batch))


class TestSanityDescent:
    def test_first_step_decreases_loss_in_19_of_20_trials(self):
        ds = synth_generate(SynthSpec("redundant", samples=64, noise=0.2), seed=9)
        solo = ds.restrict(["radar"])
        batch = batch_of(solo)
        wins = 0
        for seed in range(20):
            model = build_model(
                list(solo.schemas), "Input", gru_config(), classes=2
            )
            model.initialize(seed)
            model.set_mode("train")
            opt = Adam()
            with Tape() as tape:
                loss = weighted_cross_entropy(
                    model.forward(batch).probabilities, solo.labels, None
                )
                backward(loss, tape)
            before = loss.data.item()
            opt.step(dict(model.named_parameters()))
            after_t = weighted_cross_entropy(
                model.forward(batch).probabilities, solo.labels, None
            )
            wins += after_t.data.item() < before
        assert wins >= 19


# ---------------------------------------------------------------------------
# multi-loss interaction
# ---------------------------------------------------------------------------


class TestMultiLossTraining:
    def test_gamma_zero_reproduces_plain_run_bitwise(self):
        ds = synth_generate(SynthSpec("redundant", samples=64, noise=0.2), seed=10)
        plain = feature_model(ds, seed=9)
        fitted_plain = train(plain, ds, fast_config(max_epochs=2, seed=6))

        gated = feature_model(ds, seed=9, component="multiloss", gamma=0.0)
        fitted_gated = train(gated, ds, fast_config(max_epochs=2, seed=6))

        assert fitted_plain.train_loss == fitted_gated.train_loss
        assert fitted_plain.val_loss == fitted_gated.val_loss
        batch = batch_of(ds, np.arange(10))
        assert np.array_equal(plain.predict(batch), gated.predict(batch))

    def test_gamma_positive_changes_the_run(self):
        ds = synth_generate(SynthSpec("redundant", samples=64, noise=0.2), seed=10)
        plain = feature_model(ds, seed=9)
        fitted_plain = train(plain, ds, fast_config(max_epochs=2, seed=6))
        aux = feature_model(ds, seed=9, component="multiloss", gamma=0.3)
        fitted_aux = train(aux, ds, fast_config(max_epochs=2, seed=6))
        assert fitted_plain.train_loss != fitted_aux.train_loss


# ---------------------------------------------------------------------------
# ensemble training
# ---------------------------------------------------------------------------


class TestEnsembleTraining:
    def test_members_match_isolated_single_view_runs(self):
        ds = synth_generate(SynthSpec("redundant", samples=64, noise=0.2), seed=12)
        cfg = fast_config(max_epochs=2, seed=13)
        ensemble = build_model(list(ds.schemas), "Ensemble", gru_config(), classes=2)
        results = train_ensemble(ensemble, ds, cfg)
        assert set(results) == {"optical", "radar"}

        for view in ("optical", "radar"):
            seed = member_seed(cfg.seed, view)
            solo_ds = ds.restrict([view])
            solo = build_model([ds.schema(view)], "Input", gru_config(), classes=2)
            solo.initialize(seed)
            solo_result = train(solo, solo_ds, dataclasses.replace(cfg, seed=seed))
            assert solo_result.train_loss == results[view].train_loss
            assert solo_result.val_loss == results[view].val_loss
            batch = {view: ds.arrays[view][:9]}
            assert np.array_equal(
                ensemble.members[view].predict(batch), solo.predict(batch)
            )

    def test_ensemble_prediction_after_training_is_member_average(self):
        ds = synth_generate(SynthSpec("redundant", samples=48, noise=0.2), seed=12)
        cfg = fast_config(max_epochs=1, seed=3)
        ensemble = build_model(list(ds.schemas), "Ensemble", gru_config(), classes=2)
        train_ensemble(ensemble, ds, cfg)
        batch = batch_of(ds, np.arange(6))
        combined = ensemble.predict(batch)
        members = [
            ensemble.members[v].predict({v: batch[v]}) for v in ("optical", "radar")
        ]
        assert np.allclose(combined, (members[0] + members[1]) / 2.0, atol=1e-12)

    def test_requires_ensemble_model(self):
        ds = synth_generate(SynthSpec("redundant", samples=48, noise=0.2), seed=12)
        model = feature_model(ds)
        with pytest.raises(ConfigError):
            train_ensemble(model, ds, fast_config())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def build(self, seed=4):
        ds = synth_generate(SynthSpec("redundant", samples=48, noise=0.2), seed=1)
        model = feature_model(ds, seed=seed)
        return ds, model

    def test_round_trip_restores_predictions(self, tmp_path):
        ds, model = self.build()
        train(model, ds, fast_config(max_epochs=1))
        batch = batch_of(ds, np.arange(7))
        want = model.predict(batch)
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path)

        _, fresh = self.build(seed=99)  # different weights
        assert not np.array_equal(fresh.predict(batch), want)
        extra = load_checkpoint(fresh, path)
        assert np.array_equal(fresh.predict(batch), want)
        assert extra == {}

    def test_buffers_round_trip(self, tmp_path):
        ds, model = self.build()
        train(model, ds, fast_config(max_epochs=1))
        buffers = {k: v.copy() for k, v in model.named_buffers().items()}
        assert any(np.any(v != 0) for v in buffers.values())
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path)
        _, fresh = self.build(seed=99)
        load_checkpoint(fresh, path)
        for key, value in fresh.named_buffers().items():
            assert np.array_equal(value, buffers[key])

    def test_batch_norm_running_statistics(self):
        from mvcrop.layers import BatchNorm

        norm = BatchNorm(3)  # momentum 0.1
        x = np.random.default_rng(4).standard_normal((5, 3))
        want_mean = 0.9 * np.zeros(3) + 0.1 * x.mean(axis=0)
        want_var = 0.9 * np.ones(3) + 0.1 * x.var(axis=0)
        norm(Tensor(x))
        buffers = norm.named_buffers()
        assert np.array_equal(buffers["running_mean"], want_mean)
        assert np.array_equal(buffers["running_var"], want_var)
        # loaded buffers are what inference normalises with
        norm.load_buffers({"running_mean": np.full(3, 2.0), "running_var": np.full(3, 4.0)})
        norm.set_mode("infer")
        out = norm(Tensor(np.full((2, 3), 4.0)))
        np.testing.assert_allclose(out.data, 1.0, atol=1e-5)

    def test_extra_manifest_round_trip(self, tmp_path):
        _, model = self.build()
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path, extra={"strategy": "Feature", "seed": 4})
        _, fresh = self.build()
        extra = load_checkpoint(fresh, path)
        assert extra == {"strategy": "Feature", "seed": 4}

    def test_magic_bytes_checked(self, tmp_path):
        _, model = self.build()
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path)
        assert path.read_bytes()[:4] == b"MVLC"
        raw = bytearray(path.read_bytes())
        raw[0] = ord(b"Z")
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_checkpoint(model, path)

    def test_truncated_file_rejected(self, tmp_path):
        _, model = self.build()
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(FormatError):
            load_checkpoint(model, path)

    def test_mismatched_model_rejected(self, tmp_path):
        ds, model = self.build()
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path)
        other = build_model(list(ds.schemas), "Feature", gru_config(), classes=2)
        other.initialize(0)
        with pytest.raises(FormatError):
            load_checkpoint(other, path)

    @pytest.mark.parametrize("edit", [
        lambda m: [m],
        lambda m: {k: v for k, v in m.items() if k != "entries"},
        lambda m: {**m, "entries": {"name": "w"}},
        lambda m: {**m, "entries": [7] + m["entries"][1:]},
        lambda m: {**m, "entries": [{**m["entries"][0], "shape": ["x"]}] + m["entries"][1:]},
        lambda m: {**m, "entries": [{**m["entries"][0], "shape": [-1]}] + m["entries"][1:]},
        lambda m: {**m, "extra": [1]},
    ], ids=["json_list", "no_entries", "entries_not_list", "entry_not_object",
            "non_integer_shape", "negative_shape", "extra_not_object"])
    def test_malformed_manifest_rejected(self, edit, tmp_path):
        _, model = self.build()
        path = tmp_path / "model.mvlc"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        manifest_len = struct.unpack("<Q", raw[8:16])[0]
        manifest = json.loads(raw[16 : 16 + manifest_len])
        body = json.dumps(edit(manifest)).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(body)) + body
                         + raw[16 + manifest_len :])
        with pytest.raises(FormatError):
            load_checkpoint(model, path)
