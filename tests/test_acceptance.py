"""End-to-end acceptance checks for the multi-view classification engine.

Ten checks, one test per check, each enforcing its own wall-clock budget:

 1. frozen parameter accounting against the bundled reference table
 2. closed-form parameter totals for width-preserving merges at five views
 3. central-finite-difference gradients for every tensor op, every encoder,
    and every fusion strategy (ten random instances each)
 4. metric implementations against exact hand/brute-force oracles, including
    the binary closed form of the agreement score on an exhaustive grid
 5. the complementary synthetic task: single-view baselines stay at chance
    while feature fusion separates the classes
 6. structural equivalences that must hold bit for bit
 7. uncertainty identities and temperature monotonicity
 8. spectral-entropy diagnostics (constant, bin-aligned sinusoid, white noise)
 9. protocol cardinalities of the grid and search runners
10. byte-identical records from repeated runs with identical seeds

Two additional strict-xfail tests pin the two-channel recurrent counts at
the reference table's values; the honest computed counts differ (see the
README's known-discrepancy note), so these must keep failing until the
table and the architecture agree.
"""
from __future__ import annotations

import itertools
import json
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mvcrop import cli
from mvcrop.data import SynthSpec, save_dataset, spectral_entropy, stratified_split, synth_generate
from mvcrop.encoders import EncoderConfig, build_encoder
from mvcrop.errors import NumericError
from mvcrop.experiments import (
    GRID_CELL_COUNT,
    SEARCH_CELL_COUNT,
    ExperimentConfig,
    _predict_all,
    grid_cells,
    inspect_parameters,
    search_cells,
    single_view_baselines,
)
from mvcrop.fusion import (
    EnsembleModel,
    InputFusion,
    PredictionHead,
    build_model,
    multi_loss,
)
from mvcrop.metrics import (
    auc_roc,
    average_accuracy,
    cohen_kappa,
    confusion_matrix,
    f1_scores,
    uncertainty,
)
from mvcrop.rngutil import rep_seed
from mvcrop.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    batch_norm_infer,
    batch_norm_train,
    broadcast_to,
    concat,
    conv1d_same,
    div,
    dropout,
    grad_check,
    layer_norm,
    mul,
    narrow,
    reduce_mean,
    reduce_sum,
    relu,
    reshape,
    softmax,
)
from mvcrop.training import TrainConfig, load_checkpoint, train, weighted_cross_entropy
from mvcrop.views import ViewSchema
from reference import (
    flatten,
    formula_count,
    kappa_binary_closed_form,
    matmul,
    neg,
    reduce_max,
    safe_log,
    sigmoid,
    split,
    stack,
    sub,
    tanh,
)

_STEP = 1e-5
_TOL = 1e-4

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


def _done(label: str, started: float, budget: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{label}: took {elapsed:.1f}s, budget {budget:.0f}s"
    suffix = f" ({detail})" if detail else ""
    print(f"{label}: PASS in {elapsed:.2f}s{suffix}")


def _rows_by_key():
    return {(r["component"], r["view"]): r for r in inspect_parameters()}


# ---------------------------------------------------------------------------
# 1. parameter accounting
# ---------------------------------------------------------------------------


def test_01_reference_parameter_counts():
    started = time.perf_counter()
    by = _rows_by_key()
    call_seconds = time.perf_counter() - started
    assert call_seconds < 1.0, f"parameter table took {call_seconds:.2f}s"

    for view, count in (("optical", 43904), ("radar", 42176),
                        ("weather", 42176), ("ndvi", 41984)):
        row = by[("GRU", view)]
        assert row["computed"] == count == row["reference"]
        assert row["status"] == "ok"

    assert by[("LSTM", "optical")]["computed"] == 57152
    assert by[("LSTM", "optical")]["status"] == "ok"
    # The two-channel rows carry the reference targets but are documented
    # mismatches; the strict-xfail tests below pin the target values.
    for view in ("radar", "weather"):
        row = by[("LSTM", view)]
        assert row["reference"] == 54592
        assert row["status"] == "mismatch"
    excluded = by[("LSTM", "ndvi")]
    assert excluded["reference"] == 50688
    assert excluded["status"] == "excluded"

    for view, count in (("optical", 258880), ("radar", 256000),
                        ("weather", 256000), ("ndvi", 255680)):
        row = by[("TempCNN", view)]
        assert row["computed"] == count == row["reference"]
        assert row["status"] == "ok"

    assert by[("MLP", "topography")]["computed"] == 4352
    assert by[("MLP", "topography")]["status"] == "ok"

    head = by[("head[320->2]", "")]
    assert head["computed"] == 20802
    assert head["status"] == "ok"

    for arch in ("TAE", "LTAE"):
        wide = by[(f"{arch} optical-radar", "")]
        assert wide["computed"] == 594 == wide["reference"]
        assert wide["status"] == "ok"
        narrow_row = by[(f"{arch} radar-ndvi", "")]
        assert narrow_row["computed"] == 66 == narrow_row["reference"]
        assert narrow_row["status"] == "ok"
    gap = by[("TAE-LTAE", "")]
    assert gap["computed"] == 8192 == gap["reference"]
    assert gap["status"] == "ok"

    _done("check 01 parameter accounting", started, 1.0,
          f"table built in {call_seconds:.2f}s")


@pytest.mark.xfail(
    strict=True,
    reason="computed two-channel recurrent count is 54848; the bundled "
           "reference table says 54592 and no gate geometry consistent with "
           "the eleven-channel row reproduces it",
)
def test_01_lstm_radar_count_matches_reference_table():
    assert _rows_by_key()[("LSTM", "radar")]["computed"] == 54592


@pytest.mark.xfail(
    strict=True,
    reason="computed two-channel recurrent count is 54848; the bundled "
           "reference table says 54592 and no gate geometry consistent with "
           "the eleven-channel row reproduces it",
)
def test_01_lstm_weather_count_matches_reference_table():
    assert _rows_by_key()[("LSTM", "weather")]["computed"] == 54592


# ---------------------------------------------------------------------------
# 2. closed-form parameter totals at five views
# ---------------------------------------------------------------------------


def test_02_merge_formula_consistency():
    started = time.perf_counter()
    schemas = [ViewSchema(f"view{i}", True, 4, 8) for i in range(5)]
    for arch in ("GRU", "LSTM", "TempCNN", "TAE", "LTAE"):
        cfg = EncoderConfig(arch, hidden=6, layers=1, embedding_dim=6,
                            kernel=3, dense=8, heads=2, key_dim=2,
                            attn_width=4, dropout=0.0)
        n_e = build_encoder(schemas[0], cfg).parameter_count()
        n_p = PredictionHead(cfg.embedding_dim, 2,
                             dropout=cfg.dropout).parameter_count()
        totals = {
            "Input": build_model(schemas, "Input", cfg, 2,
                                 merge="average").parameter_count(),
            "Feature": build_model(schemas, "Feature", cfg, 2,
                                   merge="average").parameter_count(),
            "Decision": build_model(schemas, "Decision", cfg, 2,
                                    merge="average").parameter_count(),
            "Ensemble": build_model(schemas, "Ensemble", cfg,
                                    2).parameter_count(),
            "Hybrid": build_model(schemas, "Hybrid", cfg, 2,
                                  merge="average").parameter_count(),
        }
        assert totals["Input"] == n_e + n_p
        assert totals["Feature"] == 5 * n_e + n_p
        assert totals["Decision"] == 5 * (n_e + n_p)
        assert totals["Ensemble"] == 5 * (n_e + n_p)
        assert totals["Hybrid"] == 5 * (n_e + n_p) + n_p
        for strategy, total in totals.items():
            assert total == formula_count(strategy, n_e, n_p, 5), (arch, strategy)
    _done("check 02 merge formulas", started, 1.0)


# ---------------------------------------------------------------------------
# 3. gradient suite
# ---------------------------------------------------------------------------


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    return reduce_sum(mul(out, Tensor(weights)))


def _well_separated(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    n = int(np.prod(shape))
    values = np.linspace(-1.0, 1.0, n)
    rng.shuffle(values)
    return values.reshape(shape)


def _away_from_zero(rng: np.random.Generator, shape: tuple,
                    low: float = 0.05, high: float = 1.5) -> np.ndarray:
    signs = rng.choice([-1.0, 1.0], size=shape)
    return signs * rng.uniform(low, high, size=shape)


def _op_cases(rng: np.random.Generator, instance: int):
    """One (name, scalar function, probe point) triple per differentiable
    input slot of every tensor op."""
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    den = _away_from_zero(rng, (3, 4), low=0.5, high=2.0)
    w34 = rng.normal(size=(3, 4))
    m_lhs = rng.normal(size=(3, 4))
    m_rhs = rng.normal(size=(4, 2))
    w32 = rng.normal(size=(3, 2))
    cx = rng.normal(size=(2, 6, 3))
    cw = rng.normal(size=(4, 3, 3))
    cb = rng.normal(size=(4,))
    wc = rng.normal(size=(2, 6, 4))
    cx2 = rng.normal(size=(6, 3))
    wc2 = rng.normal(size=(6, 4))
    pos = rng.uniform(0.2, 2.0, size=(3, 4))
    w35 = rng.normal(size=(3, 5))
    s35 = 2.0 * rng.normal(size=(3, 5))
    w12 = rng.normal(size=(12,))
    w43 = rng.normal(size=(4, 3))
    col = rng.normal(size=(3, 1))
    w33 = rng.normal(size=(3, 3))
    wkeep = rng.normal(size=(1, 4))
    w3 = rng.normal(size=(3,))
    wm = rng.normal(size=(2, 3, 4))
    sep = _well_separated(rng, (3, 4))
    bn_x = rng.normal(size=(4, 3))
    bn_g = _away_from_zero(rng, (3,), low=0.5, high=1.5)
    bn_b = rng.normal(size=(3,))
    run_mean = rng.normal(size=(3,))
    run_var = rng.uniform(0.5, 2.0, size=(3,))
    drop_seed = 9000 + instance

    return [
        ("add/lhs", lambda t, b=b, w=w34: _scalarize(add(t, b), w), a),
        ("add/rhs", lambda t, a=a, w=w34: _scalarize(add(a, t), w), b),
        ("sub/lhs", lambda t, b=b, w=w34: _scalarize(sub(t, b), w), a),
        ("sub/rhs", lambda t, a=a, w=w34: _scalarize(sub(a, t), w), b),
        ("mul/lhs", lambda t, b=b, w=w34: _scalarize(mul(t, b), w), a),
        ("mul/rhs", lambda t, a=a, w=w34: _scalarize(mul(a, t), w), b),
        ("div/lhs", lambda t, d=den, w=w34: _scalarize(div(t, d), w), a),
        ("div/rhs", lambda t, a=a, w=w34: _scalarize(div(a, t), w), den),
        ("neg", lambda t, w=w34: _scalarize(neg(t), w), a),
        ("matmul/lhs", lambda t, r=m_rhs, w=w32: _scalarize(matmul(t, r), w), m_lhs),
        ("matmul/rhs", lambda t, l=m_lhs, w=w32: _scalarize(matmul(l, t), w), m_rhs),
        ("conv1d_same/x", lambda t, w=cw, bb=cb, ww=wc:
            _scalarize(conv1d_same(t, Tensor(w), Tensor(bb)), ww), cx),
        ("conv1d_same/w", lambda t, x=cx, bb=cb, ww=wc:
            _scalarize(conv1d_same(Tensor(x), t, Tensor(bb)), ww), cw),
        ("conv1d_same/b", lambda t, x=cx, w=cw, ww=wc:
            _scalarize(conv1d_same(Tensor(x), Tensor(w), t), ww), cb),
        ("conv1d_same/unbatched", lambda t, w=cw, bb=cb, ww=wc2:
            _scalarize(conv1d_same(t, Tensor(w), Tensor(bb)), ww), cx2),
        ("sigmoid", lambda t, w=w34: _scalarize(sigmoid(t), w), a),
        ("tanh", lambda t, w=w34: _scalarize(tanh(t), w), a),
        ("relu", lambda t, w=w34: _scalarize(relu(t), w),
            _away_from_zero(rng, (3, 4))),
        ("softmax/last", lambda t, w=w35: _scalarize(softmax(t, axis=-1), w), s35),
        ("softmax/first", lambda t, w=w35: _scalarize(softmax(t, axis=0), w), s35),
        ("safe_log", lambda t, w=w34: _scalarize(safe_log(t), w), pos),
        ("reshape", lambda t, w=w12: _scalarize(reshape(t, (12,)), w), a),
        ("flatten", lambda t, w=w12: _scalarize(flatten(t), w), a),
        ("broadcast_to", lambda t, w=w34: _scalarize(broadcast_to(t, (3, 4)), w), col),
        ("concat/first", lambda t, b=b, w=rng.normal(size=(3, 8)):
            _scalarize(concat([t, Tensor(b)], axis=1), w), a),
        ("concat/second", lambda t, a=a, w=rng.normal(size=(3, 8)):
            _scalarize(concat([Tensor(a), t], axis=1), w), b),
        ("narrow", lambda t, w=w33: _scalarize(narrow(t, 1, 4, axis=1), w), a),
        ("split", lambda t, w=w34: sum(
            (_scalarize(part, w[:, i:i + 1])
             for i, part in enumerate(split(t, (1, 1, 1, 1), axis=1))),
            start=Tensor(np.zeros(()))), a),
        ("stack/first", lambda t, b=b, w=wm:
            _scalarize(stack([t, Tensor(b)], axis=0), w), a),
        ("stack/second", lambda t, a=a, w=wm:
            _scalarize(stack([Tensor(a), t], axis=0), w), b),
        ("reduce_sum/all", lambda t: reduce_sum(t), a),
        ("reduce_sum/axis", lambda t, w=wkeep:
            _scalarize(reduce_sum(t, axis=0, keepdims=True), w), a),
        ("reduce_mean/all", lambda t: reduce_mean(t), a),
        ("reduce_mean/axis", lambda t, w=w3:
            _scalarize(reduce_mean(t, axis=1), w), a),
        ("reduce_max/all", lambda t: reduce_max(t), sep),
        ("reduce_max/axis", lambda t, w=w3:
            _scalarize(reduce_max(t, axis=1), w), sep),
        ("batch_norm_train/x", lambda t, g=bn_g, bb=bn_b, w=w43:
            _scalarize(batch_norm_train(t, Tensor(g), Tensor(bb))[0], w), bn_x),
        ("batch_norm_train/gamma", lambda t, x=bn_x, bb=bn_b, w=w43:
            _scalarize(batch_norm_train(Tensor(x), t, Tensor(bb))[0], w), bn_g),
        ("batch_norm_train/beta", lambda t, x=bn_x, g=bn_g, w=w43:
            _scalarize(batch_norm_train(Tensor(x), Tensor(g), t)[0], w), bn_b),
        ("batch_norm_infer/x", lambda t, g=bn_g, bb=bn_b, w=w43:
            _scalarize(batch_norm_infer(t, Tensor(g), Tensor(bb),
                                        run_mean, run_var), w), bn_x),
        ("batch_norm_infer/gamma", lambda t, x=bn_x, bb=bn_b, w=w43:
            _scalarize(batch_norm_infer(Tensor(x), t, Tensor(bb),
                                        run_mean, run_var), w), bn_g),
        ("layer_norm/x", lambda t, g=bn_g, bb=bn_b, w=w43:
            _scalarize(layer_norm(t, Tensor(g), Tensor(bb)), w), bn_x),
        ("layer_norm/gain", lambda t, x=bn_x, bb=bn_b, w=w43:
            _scalarize(layer_norm(Tensor(x), t, Tensor(bb)), w), bn_g),
        ("layer_norm/bias", lambda t, x=bn_x, g=bn_g, w=w43:
            _scalarize(layer_norm(Tensor(x), Tensor(g), t), w), bn_b),
        ("dropout", lambda t, w=w34, s=drop_seed: _scalarize(
            dropout(t, 0.35, np.random.default_rng(s), "train"), w), a),
    ]


# ops of mvcrop.tensor, then the reference ops of tests/reference.py
_EXPECTED_OPS = {
    "add", "mul", "div", "conv1d_same", "relu", "softmax", "reshape",
    "broadcast_to", "concat", "narrow", "reduce_sum", "reduce_mean",
    "batch_norm_train", "batch_norm_infer", "layer_norm", "dropout",
} | {
    "sub", "neg", "matmul", "sigmoid", "tanh", "safe_log", "flatten",
    "split", "stack", "reduce_max",
}


def _module_fd(loss_fn, module, step: float = _STEP) -> float:
    """Max relative error between analytic and central-difference gradients
    over every element of every parameter of ``module``.

    Elements where both readings fall below 1e-8 are structurally zero
    gradients (a convolution bias feeding straight into batch normalisation
    is cancelled by the mean subtraction); the finite-difference value there
    is pure round-off, so comparing the two against the 1e-6 denominator
    floor would only measure evaluation noise.

    Elements whose error exceeds the tolerance are re-measured at step/4 and
    step/16: a probe interval that straddles an activation kink produces a
    one-off discrepancy that vanishes once the interval clears the kink,
    while a genuinely wrong gradient disagrees at every step size.
    """
    params = module.named_parameters()
    for p in params.values():
        p.grad = None
    with Tape() as tape:
        loss = loss_fn()
    backward(loss, tape)
    worst = 0.0
    for p in params.values():
        grad = p.grad
        analytic = (np.zeros(p.data.shape) if grad is None else grad).reshape(-1)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            for h in (step, step / 4.0, step / 16.0):
                flat[i] = orig + h
                hi = float(loss_fn().data)
                flat[i] = orig - h
                lo = float(loss_fn().data)
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * h)
                if abs(analytic[i]) < 1e-8 and abs(numeric) < 1e-8:
                    error = 0.0
                    break
                denom = max(abs(analytic[i]), abs(numeric), 1e-6)
                error = abs(analytic[i] - numeric) / denom
                if error < _TOL:
                    break
            worst = max(worst, error)
    return worst


def test_03_gradient_suite():
    started = time.perf_counter()

    seen = set()
    for instance in range(10):
        rng = np.random.default_rng(1000 + instance)
        for name, fn, x0 in _op_cases(rng, instance):
            result = grad_check(fn, x0, step=_STEP, tol=_TOL)
            assert result.ok, (
                f"{name} instance {instance}: rel err {result.max_rel_err:.2e}")
            seen.add(name.split("/")[0])
    assert seen == _EXPECTED_OPS

    temporal = ViewSchema("series", True, 3, 5)
    static = ViewSchema("terrain", False, 4)
    for arch in ("GRU", "LSTM", "TempCNN", "TAE", "LTAE", "MLP"):
        schema = static if arch == "MLP" else temporal
        cfg = EncoderConfig(arch, hidden=4, layers=1, embedding_dim=4,
                            kernel=3, dense=6, heads=2, key_dim=2,
                            attn_width=4, dropout=0.0)
        for instance in range(10):
            rng = np.random.default_rng(2000 + instance)
            encoder = build_encoder(schema, cfg)
            encoder.set_mode("train")
            encoder.initialize(instance)
            shape = ((2, schema.steps, schema.channels) if schema.temporal
                     else (2, schema.channels))
            x0 = rng.normal(size=shape)
            weights = rng.normal(size=(2, cfg.embedding_dim))
            result = grad_check(
                lambda t, e=encoder, w=weights: _scalarize(e(t), w),
                x0, step=_STEP, tol=_TOL)
            assert result.ok, (
                f"{arch} input instance {instance}: {result.max_rel_err:.2e}")
            worst = _module_fd(
                lambda e=encoder, x=x0, w=weights: _scalarize(e(Tensor(x)), w),
                encoder)
            assert worst < _TOL, (
                f"{arch} parameters instance {instance}: {worst:.2e}")

    views = [ViewSchema("pulse", True, 2, 4), ViewSchema("terrain", False, 3)]
    fusion_cfg = EncoderConfig("GRU", hidden=4, layers=1, embedding_dim=4,
                               kernel=3, dense=6, heads=2, key_dim=2,
                               attn_width=4, dropout=0.0)
    cases = [
        ("Input", None, None),
        ("Feature", None, None),
        ("Feature", "gated", None),
        ("Feature", None, "multiloss"),
        ("Decision", None, None),
        ("Decision", "gated", None),
        ("Hybrid", None, None),
        ("Ensemble", None, None),
    ]
    for strategy, merge, component in cases:
        for instance in range(10):
            rng = np.random.default_rng(3000 + instance)
            batch = {
                "pulse": rng.normal(size=(3, 4, 2)),
                "terrain": rng.normal(size=(3, 3)),
            }
            labels = np.array([0, 1, instance % 2])
            model = build_model(views, strategy, fusion_cfg, 2, merge=merge,
                                component=component, gamma=0.4)
            model.set_mode("train")
            model.initialize(instance)

            def loss_fn(model=model, batch=batch, labels=labels):
                out = model.forward(batch)
                main = weighted_cross_entropy(out.probabilities, labels)
                if out.view_probabilities:
                    aux = [weighted_cross_entropy(p, labels)
                           for p in out.view_probabilities.values()]
                    return multi_loss(main, aux, model.multiloss_gamma)
                return main

            worst = _module_fd(loss_fn, model)
            assert worst < _TOL, (
                f"{strategy}/{merge}/{component} instance {instance}: {worst:.2e}")

    _done("check 03 gradient suite", started, 120.0,
          f"{len(_EXPECTED_OPS)} ops, 6 encoders, {len(cases)} fusion graphs")


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------


def _counts(cm: np.ndarray, k: int) -> tuple[int, int, int, int]:
    tp = int(cm[k, k])
    fn = int(cm[k].sum()) - tp
    fp = int(cm[:, k].sum()) - tp
    tn = int(cm.sum()) - tp - fn - fp
    return tp, fn, fp, tn


def _oracle_average_accuracy(cm: np.ndarray) -> float:
    n = int(cm.sum())
    acc = sum(Fraction(tp + tn, n) for tp, _, _, tn in
              (_counts(cm, k) for k in range(cm.shape[0])))
    return float(acc / cm.shape[0])


def _oracle_kappa(cm: np.ndarray) -> float:
    n = int(cm.sum())
    po = Fraction(int(np.trace(cm)), n)
    pe = Fraction(int(cm.sum(axis=1) @ cm.sum(axis=0)), n * n)
    return float((po - pe) / (1 - pe))


def _oracle_macro_f1(cm: np.ndarray) -> float:
    total = Fraction(0)
    for k in range(cm.shape[0]):
        tp, fn, fp, _ = _counts(cm, k)
        precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        if precision + recall:
            total += 2 * precision * recall / (precision + recall)
    return float(total / cm.shape[0])


def _oracle_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    pos = scores[labels == 1][:, None]
    neg = scores[labels == 0][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return float(wins / (pos.size * neg.size))


def test_04_metric_oracles():
    started = time.perf_counter()

    worked = np.array([[45, 10], [5, 40]])
    assert abs(average_accuracy(worked) - 0.85) <= 1e-12
    assert abs(cohen_kappa(worked) - 0.70) <= 1e-12
    assert abs(kappa_binary_closed_form(40, 5, 10, 45) - 0.70) <= 1e-12
    report = f1_scores(worked)
    assert abs(report.macro - float(Fraction(113, 133))) <= 1e-12
    assert abs(report.positive - float(Fraction(16, 19))) <= 1e-12
    assert abs(auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) <= 1e-12

    rng = np.random.default_rng(404)
    for _ in range(60):
        classes = int(rng.integers(2, 6))
        n = int(rng.integers(20, 120))
        y_true = rng.integers(0, classes, n)
        y_pred = rng.integers(0, classes, n)
        cm = confusion_matrix(y_true, y_pred, classes)
        assert abs(average_accuracy(cm) - _oracle_average_accuracy(cm)) <= 1e-12
        chance = int(cm.sum(axis=1) @ cm.sum(axis=0))
        if n * n != chance:
            assert abs(cohen_kappa(cm) - _oracle_kappa(cm)) <= 1e-12
        assert abs(f1_scores(cm).macro - _oracle_macro_f1(cm)) <= 1e-12

    for i in range(40):
        n = int(rng.integers(30, 80))
        n_pos = int(rng.integers(5, n - 5))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.permutation(n)[:n_pos]] = 1
        if i % 2:
            scores = rng.integers(0, 5, n) / 4.0  # tie-heavy
        else:
            scores = rng.normal(size=n)
        assert abs(auc_roc(scores, labels) - _oracle_auc(scores, labels)) <= 1e-12

    # The general agreement score reduces to the binary closed form on the
    # exhaustive grid of 2x2 tables with entries 0..50. Layout: the table is
    # [[a, b], [c, d]] with rows = true class, so tn=a, fp=b, fn=c, tp=d.
    values = np.arange(51, dtype=np.int64)
    grid_b, grid_c, grid_d = (g.ravel() for g in
                              np.meshgrid(values, values, values, indexing="ij"))
    closed_checked = 0
    invalid_checked = 0
    for a_value in range(51):
        a = np.full(grid_b.shape, a_value, dtype=np.int64)
        b, c, d = grid_b, grid_c, grid_d
        n = a + b + c + d
        chance = (a + b) * (a + c) + (c + d) * (b + d)
        num_general = n * (a + d) - chance
        den_general = n * n - chance
        num_closed = 2 * (d * a - c * b)
        den_closed = (d + b) * (b + a) + (d + c) * (c + a)
        assert np.array_equal(num_general, num_closed)
        assert np.array_equal(den_general, den_closed)

        valid = den_general != 0
        expected = num_general[valid] / den_general[valid]
        got = np.fromiter(
            (kappa_binary_closed_form(tp, fn, fp, tn)
             for tp, fn, fp, tn in zip(d[valid].tolist(), c[valid].tolist(),
                                       b[valid].tolist(), a[valid].tolist())),
            dtype=np.float64, count=int(valid.sum()))
        assert np.array_equal(got, expected)
        closed_checked += got.size
        for tp, fn, fp, tn in zip(d[~valid].tolist(), c[~valid].tolist(),
                                  b[~valid].tolist(), a[~valid].tolist()):
            with pytest.raises(NumericError):
                kappa_binary_closed_form(tp, fn, fp, tn)
            invalid_checked += 1
    assert closed_checked + invalid_checked == 51 ** 4

    # The general implementation agrees bitwise with the closed form on a
    # dense sub-lattice plus a large random sample of the same grid.
    lattice = [0, 1, 2, 3, 5, 7, 10, 13, 17, 21, 26, 31, 37, 43, 49, 50]
    cells = list(itertools.product(lattice, repeat=4))
    sample = np.random.default_rng(505).integers(0, 51, size=(30000, 4))
    for a, b, c, d in itertools.chain(cells, map(tuple, sample.tolist())):
        n = a + b + c + d
        den = (d + b) * (b + a) + (d + c) * (c + a)
        cm = np.array([[a, b], [c, d]], dtype=np.int64)
        if n == 0 or den == 0:
            with pytest.raises(NumericError):
                cohen_kappa(cm)
        else:
            assert cohen_kappa(cm) == 2 * (d * a - c * b) / den

    _done("check 04 metric oracles", started, 30.0,
          f"{closed_checked} closed-form cells, "
          f"{len(cells) + len(sample)} general-form cells")


# ---------------------------------------------------------------------------
# 5. multi-view beats single-view
# ---------------------------------------------------------------------------


def test_05_multi_view_beats_single_view():
    started = time.perf_counter()
    seed_base = 11
    dataset = synth_generate(SynthSpec("complementary", samples=2600),
                             seed=seed_base)
    train_part, test_part = stratified_split(dataset, 600 / 2600,
                                             seed=seed_base)
    assert len(train_part) == 2000 and len(test_part) == 600

    enc_cfg = EncoderConfig("GRU", hidden=32, layers=1, embedding_dim=32,
                            dense=64, dropout=0.0)
    schedule = TrainConfig(batch_size=256, max_epochs=40, patience=5,
                           validation_fraction=0.1, learning_rate=2e-3)

    def accuracy_of(model, part):
        probabilities = _predict_all(model, part, schedule.batch_size)
        cm = confusion_matrix(part.labels, probabilities.argmax(axis=1), 2)
        return average_accuracy(cm)

    baseline_means = {}
    for view in ("optical", "radar"):
        restricted_train = train_part.restrict([view])
        restricted_test = test_part.restrict([view])
        scores = []
        for rep in range(5):
            seed = rep_seed(seed_base, rep)
            model = build_model(list(restricted_train.schemas), "Input",
                                enc_cfg, 2)
            model.initialize(seed)
            train(model, restricted_train, replace(schedule, seed=seed))
            scores.append(accuracy_of(model, restricted_test))
        for score in scores:
            assert 0.45 <= score <= 0.55, (view, scores)
        baseline_means[view] = float(np.mean(scores))
        assert 0.45 <= baseline_means[view] <= 0.55

    fused_scores = []
    for rep in range(5):
        seed = rep_seed(seed_base, rep)
        model = build_model(list(train_part.schemas), "Feature", enc_cfg, 2)
        model.initialize(seed)
        train(model, train_part, replace(schedule, seed=seed))
        fused_scores.append(accuracy_of(model, test_part))
    for score in fused_scores:
        assert score >= 0.95, fused_scores
    assert float(np.mean(fused_scores)) >= 0.95

    _done("check 05 multi-view beats single-view", started, 600.0,
          f"baselines {baseline_means}, fused mean "
          f"{float(np.mean(fused_scores)):.4f}")


# ---------------------------------------------------------------------------
# 6. bit-level structural equivalences
# ---------------------------------------------------------------------------


def _copy_weights(source, target) -> None:
    source_params = source.named_parameters()
    target_params = target.named_parameters()
    assert list(source_params) == list(target_params)
    for name, parameter in source_params.items():
        target_params[name].data = parameter.data.copy()
    buffers = source.named_buffers()
    if buffers:
        target.load_buffers({name: array.copy()
                             for name, array in buffers.items()})


def test_06_structural_equivalences(tmp_path):
    started = time.perf_counter()
    seed_base = 5
    dataset = synth_generate(SynthSpec("complementary", samples=64),
                             seed=seed_base)
    train_part, test_part = stratified_split(dataset, 0.25, seed=seed_base)
    views = list(train_part.schemas)
    enc_cfg = EncoderConfig("GRU", **TINY_OPTIONS)
    schedule = TrainConfig(batch_size=16, max_epochs=3, patience=2,
                           validation_fraction=0.25,
                           seed=rep_seed(seed_base, 0))
    test_batch = {name: test_part.arrays[name]
                  for name in test_part.view_names}

    # (a) decision fusion == ensemble once the per-view weights are copied
    decision = build_model(views, "Decision", enc_cfg, 2)
    decision.initialize(41)
    train(decision, train_part, schedule)
    members = {v.name: InputFusion([v], enc_cfg, 2) for v in views}
    for v in views:
        _copy_weights(decision.encoders[v.name], members[v.name].encoder)
        _copy_weights(decision.heads[v.name], members[v.name].head)
    ensemble = EnsembleModel(views, members)
    assert np.array_equal(decision.predict(test_batch),
                          ensemble.predict(test_batch))

    # (b) input fusion restricted to one view == the stored single-view
    # baseline under the same seed
    data_path = tmp_path / "equiv.mvds"
    save_dataset(dataset, data_path)
    config = ExperimentConfig(
        dataset=str(data_path), views=("optical", "radar"), encoder="GRU",
        strategy="Input", repetitions=1, seed_base=seed_base,
        test_fraction=0.25, encoder_options=dict(TINY_OPTIONS),
        train=replace(schedule, seed=0), group_by=(),
        output_dir=str(tmp_path / "baselines"))
    outcome = single_view_baselines(dataset, config)
    optical_row = next(r for r in outcome.records if r["view"] == "optical")
    assert optical_row["status"] == "ok"

    manual = build_model(list(train_part.restrict(["optical"]).schemas),
                         "Input", enc_cfg, 2)
    manual.initialize(rep_seed(seed_base, 0))
    train(manual, train_part.restrict(["optical"]),
          replace(schedule, seed=rep_seed(seed_base, 0)))
    manual_probs = _predict_all(manual, test_part.restrict(["optical"]),
                                schedule.batch_size)

    reloaded = build_model(list(train_part.restrict(["optical"]).schemas),
                           "Input", enc_cfg, 2)
    load_checkpoint(reloaded,
                    tmp_path / "baselines" / optical_row["checkpoint"])
    stored_probs = _predict_all(reloaded, test_part.restrict(["optical"]),
                                schedule.batch_size)
    assert np.array_equal(manual_probs, stored_probs)

    # (c) a zero-weight auxiliary loss changes nothing
    plain = build_model(views, "Feature", enc_cfg, 2)
    plain.initialize(77)
    train(plain, train_part, schedule)
    zeroed = build_model(views, "Feature", enc_cfg, 2,
                         component="multiloss", gamma=0.0)
    assert zeroed.parameter_count() > plain.parameter_count()
    zeroed.initialize(77)
    train(zeroed, train_part, schedule)
    assert np.array_equal(plain.predict(test_batch),
                          zeroed.predict(test_batch))

    _done("check 06 structural equivalences", started, 120.0)


# ---------------------------------------------------------------------------
# 7. uncertainty identities
# ---------------------------------------------------------------------------


def test_07_uncertainty_identities():
    started = time.perf_counter()

    for classes in range(2, 13):
        max_probability, entropy = uncertainty(np.eye(classes))
        assert max_probability == 1.0
        assert entropy == 0.0
        # the uniform row: max probability is exact; the normalized entropy
        # goes through transcendental evaluation, so it is pinned at 64-bit
        # resolution (a few ulps around 1.0)
        uniform = np.full((1, classes), 1.0 / classes)
        max_probability, entropy = uncertainty(uniform)
        assert max_probability == 1.0 / classes
        assert abs(entropy - 1.0) <= 1e-15

    rng = np.random.default_rng(7)
    for i in range(100):
        classes = 2 + i % 5
        logits = rng.normal(scale=3.0, size=(8, classes))
        previous = None
        for temperature in (0.5, 1.0, 2.0, 4.0):
            scaled = logits / temperature
            shifted = np.exp(scaled - scaled.max(axis=1, keepdims=True))
            probabilities = shifted / shifted.sum(axis=1, keepdims=True)
            max_probability, entropy = uncertainty(probabilities)
            assert 1.0 / classes <= max_probability <= 1.0
            assert 0.0 <= entropy <= 1.0 + 1e-15
            if previous is not None:
                assert max_probability < previous[0]
                assert entropy > previous[1]
            previous = (max_probability, entropy)

    _done("check 07 uncertainty identities", started, 10.0)


# ---------------------------------------------------------------------------
# 8. spectral-entropy diagnostics
# ---------------------------------------------------------------------------


def test_08_spectral_entropy_diagnostics():
    started = time.perf_counter()

    assert spectral_entropy(np.full(256, 3.7)) == 0.0

    steps = np.arange(256)
    for cycles in (8, 16, 32):  # whole cycles inside each half-length segment
        sinusoid = np.sin(2.0 * np.pi * cycles * steps / 256)
        assert spectral_entropy(sinusoid) <= 1e-12

    rng = np.random.default_rng(2026)
    trials = np.array([spectral_entropy(rng.normal(size=256))
                       for _ in range(1000)])
    mean = float(trials.mean())
    assert abs(mean - 0.95) <= 0.03, mean

    _done("check 08 spectral entropy", started, 30.0,
          f"white-noise mean {mean:.4f}")


# ---------------------------------------------------------------------------
# 9. protocol cardinalities
# ---------------------------------------------------------------------------


def test_09_protocol_cardinalities():
    started = time.perf_counter()

    grid = grid_cells("GRU")
    assert len(grid) == 31 == GRID_CELL_COUNT
    assert sum(1 for cell in grid if cell.component == "none") == 25
    assert sum(1 for cell in grid if cell.component != "none") == 6

    search = search_cells("GRU")
    assert len(search) == 16 == SEARCH_CELL_COUNT
    assert sum(1 for cell in search if cell.phase == "phase1") == 5
    assert sum(1 for cell in search if cell.phase == "phase2") == 11

    _done("check 09 protocol cardinalities", started, 1.0)


# ---------------------------------------------------------------------------
# 10. byte-identical repeat runs
# ---------------------------------------------------------------------------


def test_10_byte_identical_reruns(tmp_path):
    started = time.perf_counter()

    data_path = tmp_path / "tiny.mvds"
    save_dataset(synth_generate(SynthSpec("complementary", samples=48), seed=5),
                 data_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "dataset": str(data_path),
        "task": "binary",
        "views": ["optical", "radar"],
        "encoder": "GRU",
        "strategy": "Input",
        "repetitions": 1,
        "seed_base": 3,
        "test_fraction": 0.3,
        "encoder_options": TINY_OPTIONS,
        "train": {"batch_size": 16, "max_epochs": 2, "patience": 1,
                  "validation_fraction": 0.25},
        "output_dir": "unused",
    }))

    contents = []
    for run_dir in (tmp_path / "first", tmp_path / "second"):
        code = cli.main(["grid", "--config", str(config_path),
                         "--out", str(run_dir)])
        assert code == 0
        contents.append((run_dir / "records.csv").read_bytes())

    assert contents[0] == contents[1]
    assert contents[0].count(b"\n") == 32  # header plus one row per cell

    _done("check 10 byte-identical reruns", started, 900.0,
          f"{len(contents[0])} bytes per records file")
