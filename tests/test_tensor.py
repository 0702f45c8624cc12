"""Tensor-core oracles: frozen op values, tape semantics, gradient checks,
and what the backward sweep releases."""
import ast
import gc
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcrop import tensor as T
from mvcrop.encoders import EncoderConfig, _ConvBlock, build_encoder
from mvcrop.errors import ConfigError, NumericError, ShapeError
from mvcrop.fusion import build_model, multi_loss
from mvcrop.training import weighted_cross_entropy
from mvcrop.views import canonical_schema
import reference as R


@pytest.fixture
def rng():
    return np.random.default_rng(99)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose(R.matmul(a, b).data, b.data)

    def test_dot_product(self):
        out = R.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        want = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                for k in range(3):
                    want[i, j] += a[i, k] * b[k, j]
        np.testing.assert_allclose(R.matmul(T.Tensor(a), T.Tensor(b)).data, want, atol=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            R.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
        with pytest.raises(ShapeError):
            R.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones((3, 2))))


class TestConv:
    def test_hand_example(self):
        x = T.Tensor([[1.0], [2.0], [3.0]])
        w = T.Tensor(np.ones((1, 1, 3)))
        out = T.conv1d_same(x, w, T.Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data[:, 0], [3.0, 6.0, 5.0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            T.conv1d_same(T.Tensor(np.ones((4, 1))), T.Tensor(np.ones((1, 1, 4))),
                          T.Tensor(np.zeros(1)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.conv1d_same(T.Tensor(np.ones((4, 2))), T.Tensor(np.ones((1, 3, 3))),
                          T.Tensor(np.zeros(1)))


class TestActivations:
    def test_frozen_values(self):
        assert float(R.sigmoid(T.Tensor(0.0)).data) == 0.5
        assert abs(float(R.tanh(T.Tensor(1.0)).data) - 0.7615941559557649) < 1e-12
        assert float(T.relu(T.Tensor(-2.0)).data) == 0.0

    def test_sigmoid_stable_at_extremes(self):
        out = R.sigmoid(T.Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)


class TestSoftmax:
    def test_frozen_values(self):
        np.testing.assert_allclose(T.softmax(T.Tensor([0.0, 0.0])).data, [0.5, 0.5])
        np.testing.assert_allclose(
            T.softmax(T.Tensor([0.0, np.log(3.0)])).data, [0.25, 0.75], atol=1e-12)
        np.testing.assert_allclose(T.softmax(T.Tensor([1000.0, 1000.0])).data, [0.5, 0.5])

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6), st.floats(-5, 5))
    @settings(max_examples=50, deadline=None)
    def test_simplex_and_shift_invariance(self, logits, shift):
        x = np.array(logits)
        p = T.softmax(T.Tensor(x)).data
        q = T.softmax(T.Tensor(x + shift)).data
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p >= 0).all()
        np.testing.assert_allclose(p, q, atol=1e-9)


class TestWeightedNll:
    def test_gradient_in_closed_form(self):
        """``-w[y] / (B * p[y])`` on each label entry above the 1e-12 floor,
        0 on the floored label entry and on every other entry."""
        p = np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25],
                      [1.0 - 1e-13, 1e-13, 0.0], [0.1, 0.3, 0.6]])
        labels = np.array([0, 2, 1, 2])
        weights = np.array([0.5, 1.0, 3.0])
        leaf = T.Tensor(p, requires_grad=True)
        with T.Tape() as tape:
            loss = T.weighted_nll(leaf, labels, weights)
        T.backward(loss, tape)
        want = np.zeros(p.shape)
        for row in (0, 1, 3):
            want[row, labels[row]] = -weights[labels[row]] / (4 * p[row, labels[row]])
        np.testing.assert_allclose(leaf.grad, want, rtol=1e-14, atol=0.0)
        assert leaf.grad[2, 1] == 0.0


def _batch_norm_reference(x, gamma, beta, g, eps=1e-5):
    """``batch_norm_train`` as a standalone formula: ``[out, mean, var]``
    and the gradients of ``x``, ``gamma`` and ``beta`` for upstream ``g``."""
    axes = 0 if x.ndim == 2 else tuple(range(x.ndim - 1))
    count = float(x.size // x.shape[-1])
    mean = np.add.reduce(x, axis=axes) / count
    centred = x - mean
    var = np.add.reduce(centred * centred, axis=axes) / count
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = centred * ivar
    dxhat = g * gamma
    m1 = np.add.reduce(dxhat, axis=axes, keepdims=True) / count
    m2 = np.add.reduce(dxhat * xhat, axis=axes, keepdims=True) / count
    return ([gamma * xhat + beta, mean, var],
            [ivar * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)])


def _layer_norm_reference(x, gain, bias, g, eps=1e-5):
    """``layer_norm`` as a standalone formula: ``[out]`` and the gradients
    of ``x``, ``gain`` and ``bias`` for upstream ``g``."""
    width = float(x.shape[-1])
    centred = x - np.add.reduce(x, axis=-1, keepdims=True) / width
    var = np.add.reduce(centred * centred, axis=-1, keepdims=True) / width
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = centred * ivar
    axes = tuple(range(x.ndim - 1))
    dxhat = g * gain
    m1 = np.add.reduce(dxhat, axis=-1, keepdims=True) / width
    m2 = np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / width
    return ([gain * xhat + bias],
            [ivar * (dxhat - m1 - xhat * m2), (g * xhat).sum(axis=axes), g.sum(axis=axes)])


class TestNormalisation:
    @pytest.mark.parametrize("layout", ["c_order", "channel_outermost"])
    @pytest.mark.parametrize("shape", [(4, 3), (57, 64), (57, 256), (3, 5, 7),
                                       (128, 12, 64), (2, 12, 256)],
                             ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("op, reference", [
        (T.batch_norm_train, _batch_norm_reference),
        (lambda *a: (T.layer_norm(*a),), _layer_norm_reference),
    ], ids=["batch_norm", "layer_norm"])
    def test_bit_identical_to_reference(self, op, reference, shape, layout):
        """Outputs, batch statistics and all three gradients equal the op's
        standalone formula bit for bit, signs of zeros included, on C order
        and on the channel-outermost strides that conv kernels return."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal(shape) * 2.0 + 0.5
        if layout == "channel_outermost":
            x = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
        scale, shift = rng.standard_normal(shape[-1]), rng.standard_normal(shape[-1])
        g = rng.standard_normal(shape)
        leaves = [T.Tensor(a, requires_grad=True) for a in (x, scale, shift)]
        with T.Tape() as tape:
            outs = op(*leaves)
            loss = T.reduce_sum(T.mul(outs[0], T.Tensor(g)))
        T.backward(loss, tape)
        want_outs, want_grads = reference(x, scale, shift, g)
        got = [outs[0].data, *outs[1:]] + [t.grad for t in leaves]
        assert len(got) == len(want_outs) + 3
        for got_a, want_a in zip(got, want_outs + want_grads):
            _assert_bit_identical(got_a, want_a)

    def test_batch_norm_train_frozen(self):
        x = T.Tensor([[1.0], [3.0]])
        out, mean, var = T.batch_norm_train(x, T.Tensor([1.0]), T.Tensor([0.0]))
        np.testing.assert_allclose(out.data[:, 0], [-0.9999950000374997, 0.9999950000374997])
        assert mean[0] == 2.0 and var[0] == 1.0

    def test_batch_norm_train_needs_two_rows(self):
        with pytest.raises(ShapeError):
            T.batch_norm_train(T.Tensor([[1.0]]), T.Tensor([1.0]), T.Tensor([0.0]))

    def test_batch_norm_infer_identity(self, rng):
        x = rng.standard_normal((5, 3))
        out = T.batch_norm_infer(T.Tensor(x), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)),
                                 np.zeros(3), np.ones(3))
        np.testing.assert_allclose(out.data, x / np.sqrt(1.0 + T.NORM_EPS), rtol=1e-15)

    def test_batch_norm_infer_uses_running_statistics(self, rng):
        x = rng.standard_normal((6, 3)) * 2.0
        gamma, beta = np.array([0.5, -1.5, 2.0]), np.array([0.3, -0.2, 1.0])
        mean, var = np.array([0.8, -1.2, 2.5]), np.array([0.25, 3.0, 9.0])
        out = T.batch_norm_infer(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), mean, var)
        want = gamma * (x - mean) / np.sqrt(var + 1e-5) + beta
        np.testing.assert_allclose(out.data, want, rtol=1e-12, atol=1e-14)

    def test_layer_norm_frozen(self):
        out = T.layer_norm(T.Tensor([[1.0, 3.0]]), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data[0], [-0.9999950000374997, 0.9999950000374997])
        affine = T.layer_norm(T.Tensor([[1.0, 3.0]]), T.Tensor([2.0, 2.0]), T.Tensor([1.0, 1.0]))
        np.testing.assert_allclose(affine.data[0], [-0.999990000075, 2.999990000075])

    def test_layer_norm_constant_row_guarded(self):
        out = T.layer_norm(T.Tensor([[5.0, 5.0, 5.0]]), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


class TestDropout:
    def test_identity_cases(self, rng):
        x = T.Tensor(rng.standard_normal(8))
        assert T.dropout(x, 0.0, rng, "train") is x
        assert T.dropout(x, 0.2, None, "infer") is x
        with pytest.raises(ConfigError):
            T.dropout(x, 1.0, rng, "train")
        with pytest.raises(ConfigError):
            T.dropout(x, 0.2, None, "train")

    def test_train_mean_preserved(self):
        rng = np.random.default_rng(5)
        out = T.dropout(T.Tensor(np.ones(1_000_000)), 0.2, rng, "train")
        assert abs(out.data.mean() - 1.0) < 0.01


class TestShapesAndReductions:
    def test_frozen_values(self):
        np.testing.assert_allclose(T.reduce_mean(T.Tensor([[1.0, 3.0]]), axis=1).data, [2.0])
        np.testing.assert_allclose(T.concat([T.Tensor([1.0, 2.0]), T.Tensor([3.0])]).data,
                                   [1.0, 2.0, 3.0])
        assert R.flatten(T.Tensor(np.zeros((12, 64)))).shape == (768,)
        assert float(R.reduce_max(T.Tensor([1.0, 5.0, 2.0])).data) == 5.0

    def test_split_roundtrip(self, rng):
        x = rng.standard_normal((4, 6))
        parts = R.split(T.Tensor(x), [2, 3, 1], axis=1)
        np.testing.assert_allclose(np.concatenate([p.data for p in parts], axis=1), x)
        with pytest.raises(ShapeError):
            R.split(T.Tensor(x), [2, 2], axis=1)

    def test_broadcast_to(self):
        out = T.broadcast_to(T.Tensor([[7.0, 9.0]]), (3, 2))
        np.testing.assert_allclose(out.data, [[7.0, 9.0]] * 3)


class TestTapeSemantics:
    def test_sum_of_squares_gradient(self):
        x = T.Tensor(3.0, requires_grad=True)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(x, x))
        T.backward(loss, tape)
        assert x.grad == pytest.approx(6.0)

    def test_reused_operand_accumulates(self):
        x = T.Tensor(1.5, requires_grad=True)
        with T.Tape() as tape:
            y = T.add(x, 0.0)
            loss = T.add(y, y)
        T.backward(loss, tape)
        assert x.grad == pytest.approx(2.0)

    def test_no_tape_means_no_tracking(self):
        x = T.Tensor(3.0, requires_grad=True)
        y = T.mul(x, x)
        assert not y.requires_grad

    def test_backward_needs_scalar(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ShapeError):
            T.backward(y, tape)

    def test_untouched_branch_is_skipped(self):
        x = T.Tensor(2.0, requires_grad=True)
        with T.Tape() as tape:
            _side = T.mul(x, 10.0)  # never reaches the loss
            loss = T.mul(x, x)
        T.backward(loss, tape)
        assert x.grad == pytest.approx(4.0)

    @pytest.mark.parametrize("op, shapes", [
        (T.linear, [(4, 3), (3, 2), (2,)]),
        (T.conv1d_same, [(2, 5, 3), (4, 3, 3), (4,)]),
        (T.gru_sequence, [(2, 5, 3), (3, 6), (2, 6), (6,), (6,)]),
        (T.lstm_sequence, [(2, 5, 3), (3, 8), (2, 8), (8,), (8,)]),
        (T.layer_norm, [(4, 3), (3,), (3,)]),
        (lambda *a: T.batch_norm_train(*a)[0], [(4, 3), (3,), (3,)]),
    ], ids=["linear", "conv1d_same", "gru_sequence", "lstm_sequence",
            "layer_norm", "batch_norm_train"])
    def test_raw_data_input_gets_no_gradient(self, op, shapes, rng):
        """A rule returns None, not a dropped array, for a first input that
        needs no gradient, and a gradient for each parameter."""
        data, *params = (rng.standard_normal(shape) for shape in shapes)
        with T.Tape():
            out = op(T.Tensor(data), *(T.Tensor(p, requires_grad=True)
                                      for p in params))
        grads = out.producer.backward(np.ones(out.shape))
        assert grads[0] is None
        assert all(g is not None for g in grads[1:])

    def test_mlp_grads_match_finite_differences(self, rng):
        w1 = rng.standard_normal((4, 8))
        w2 = rng.standard_normal((8, 1))
        x0 = rng.standard_normal((3, 4))

        def f(x):
            h = T.relu(R.matmul(x, T.Tensor(w1)))
            return T.reduce_sum(R.matmul(h, T.Tensor(w2)))

        res = T.grad_check(f, T.Tensor(x0))
        assert res.ok, res.max_rel_err


class TestGradCheckHarness:
    def test_polynomial_tight(self):
        res = T.grad_check(lambda x: T.mul(x, x), T.Tensor(3.0), tol=1e-8)
        assert res.ok

    def test_cross_entropy_of_softmax(self, rng):
        logits = rng.standard_normal((4, 3))
        onehot = np.eye(3)[[0, 2, 1, 1]]

        def f(x):
            p = T.softmax(x, axis=1)
            lp = R.safe_log(p)
            return R.neg(T.reduce_mean(T.reduce_sum(T.mul(lp, T.Tensor(onehot)), axis=1)))

        assert T.grad_check(f, T.Tensor(logits)).ok

    def test_nonfinite_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                T.grad_check(lambda x: T.div(x, R.sub(x, x)), T.Tensor(2.0))


OP_CASES = {}


def _op_cases(rng):
    """(name, f, x0) triples covering every differentiable op.

    Every constant is sampled once, outside the closure, so repeated
    evaluations of f during finite differencing see the same function.
    """
    mk = rng.standard_normal
    w = mk((3, 4))
    conv_w = mk((2, 3, 3))
    conv_b = T.Tensor(mk(2))
    conv_x = T.Tensor(mk((2, 6, 3)))
    m_r = T.Tensor(mk((4, 2)))
    m_l = T.Tensor(mk((2, 3)))
    proj34 = T.Tensor(mk((3, 4)))
    proj62 = T.Tensor(mk((6, 2)))
    proj6 = T.Tensor(mk(6))
    proj43 = T.Tensor(mk((4, 3)))
    proj54a, proj54b, proj54c, proj54d, proj54e = (T.Tensor(mk((5, 4))) for _ in range(5))
    bn_x = T.Tensor(mk((5, 4)))
    ln_x = T.Tensor(mk((5, 4)))
    rmean, rvar = mk(4), np.abs(mk(4)) + 0.5
    gamma, beta = T.Tensor(mk(4)), T.Tensor(mk(4))
    cases = [
        ("add", lambda x: T.reduce_sum(T.add(x, T.Tensor(w))), mk((3, 4))),
        ("add_broadcast", lambda x: T.reduce_sum(T.add(T.Tensor(w), x)), mk(4)),
        ("sub", lambda x: T.reduce_sum(R.sub(T.Tensor(w), x)), mk((3, 4))),
        ("mul", lambda x: T.reduce_sum(T.mul(x, T.Tensor(w))), mk((3, 4))),
        ("div", lambda x: T.reduce_sum(T.div(T.Tensor(w), x)), mk((3, 4)) + 3.0),
        ("neg", lambda x: T.reduce_sum(R.neg(x)), mk(5)),
        ("matmul_l", lambda x: T.reduce_sum(R.matmul(x, m_r)), mk((3, 4))),
        ("matmul_r", lambda x: T.reduce_sum(R.matmul(m_l, x)), mk((3, 4))),
        ("conv_x", lambda x: T.reduce_sum(T.conv1d_same(x, T.Tensor(conv_w), conv_b)),
         mk((2, 6, 3))),
        ("conv_w", lambda x: T.reduce_sum(T.conv1d_same(conv_x, x, conv_b)), conv_w.copy()),
        ("sigmoid", lambda x: T.reduce_sum(R.sigmoid(x)), mk(6)),
        ("tanh", lambda x: T.reduce_sum(R.tanh(x)), mk(6)),
        ("relu", lambda x: T.reduce_sum(T.relu(x)), mk(6) + 0.3),
        ("softmax", lambda x: T.reduce_sum(T.mul(T.softmax(x, axis=1), proj34)), mk((3, 4))),
        ("safe_log", lambda x: T.reduce_sum(R.safe_log(x)), np.abs(mk(5)) + 0.5),
        ("reduce_sum", lambda x: T.reduce_sum(x), mk((2, 3))),
        ("reduce_mean_ax", lambda x: T.reduce_sum(T.reduce_mean(x, axis=0)), mk((4, 3))),
        ("reduce_max", lambda x: T.reduce_sum(R.reduce_max(x, axis=1)), mk((3, 5))),
        ("concat", lambda x: T.reduce_sum(T.mul(T.concat([x, x], axis=0), proj62)), mk((3, 2))),
        ("narrow", lambda x: T.reduce_sum(T.narrow(x, 1, 3, axis=1)), mk((2, 5))),
        ("reshape", lambda x: T.reduce_sum(T.mul(T.reshape(x, (6,)), proj6)), mk((2, 3))),
        ("broadcast", lambda x: T.reduce_sum(T.mul(T.broadcast_to(x, (4, 3)), proj43)),
         mk((1, 3))),
        ("bn_train_x", lambda x: T.reduce_sum(
            T.mul(T.batch_norm_train(x, gamma, beta)[0], proj54a)), mk((5, 4))),
        ("bn_train_gamma", lambda g: T.reduce_sum(
            T.mul(T.batch_norm_train(bn_x, g, beta)[0], proj54b)), mk(4)),
        ("bn_infer", lambda x: T.reduce_sum(
            T.mul(T.batch_norm_infer(x, gamma, beta, rmean, rvar), proj54c)), mk((5, 4))),
        ("ln_x", lambda x: T.reduce_sum(T.mul(T.layer_norm(x, gamma, beta), proj54d)),
         mk((5, 4))),
        ("ln_gain", lambda g: T.reduce_sum(T.mul(T.layer_norm(ln_x, g, beta), proj54e)), mk(4)),
    ]
    return cases


def test_every_op_passes_grad_check_on_ten_instances():
    """Acceptance support: each differentiable op, >=10 seeded random instances."""
    failures = []
    for seed in range(10):
        rng = np.random.default_rng(1234 + seed)
        for name, f, x0 in _op_cases(rng):
            res = T.grad_check(f, T.Tensor(x0))
            if not res.ok:
                failures.append((name, seed, res.max_rel_err))
    assert not failures, failures


def test_dropout_grad_with_frozen_mask():
    rng = np.random.default_rng(3)
    mask_rng_state = np.random.default_rng(77)
    keep = (mask_rng_state.random(6) >= 0.4) / 0.6

    def f(x):  # same mask applied on every probe: differentiable path is linear
        return T.reduce_sum(T.mul(x, T.Tensor(keep)))

    assert T.grad_check(f, T.Tensor(rng.standard_normal(6))).ok


def _masked_sigmoid(x):
    """The two-branch logistic with boolean-mask indexing, as a reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_two_branch_formula_bit_for_bit():
    x = np.concatenate([np.random.default_rng(8).standard_normal(5000) * 40.0,
                        [0.0, -0.0, 1e-300, -1e-300, 37.0, -37.0, 745.0, -745.0,
                         800.0, -800.0, np.inf, -np.inf]])
    with np.errstate(over="raise"):
        got = R.sigmoid(T.Tensor(x)).data
    assert np.array_equal(got.view(np.int64), _masked_sigmoid(x).view(np.int64))


def test_sigmoid_matches_the_two_exp_form_byte_for_byte():
    """One exp gives the bytes of the two-exp form on 200k random values,
    on signed zeros, infinities and NaNs, past exp's overflow and underflow,
    on subnormals, and on a strided view."""
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.standard_normal(100_000) * 10.0,
                        rng.standard_normal(100_000) * 300.0,
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.0,
                         -710.0, 750.0, -750.0, 5e-324, -5e-324]])
    assert T._sigmoid(x).tobytes() == R.sigmoid_two_exp(x).tobytes()
    block = rng.standard_normal((128, 256)) * 5.0
    view = block[:, 64:]
    assert T._sigmoid(view).tobytes() == R.sigmoid_two_exp(view).tobytes()


class TestUntapedFastPath:
    """With no active tape an op builds no record and returns a plain
    float64 ndarray, whatever its inputs' ``requires_grad``."""

    def test_untaped_results(self):
        leaf = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        outs = [T.add(leaf, 1.0), T.relu(leaf), T.softmax(leaf, axis=1),
                T.reshape(leaf, (3, 2)), T.reduce_sum(leaf), T.reduce_mean(leaf),
                T.linear(leaf, T.Tensor(np.ones((3, 2)), requires_grad=True),
                         T.Tensor(np.zeros(2)))]
        for out in outs:
            assert out.requires_grad is False
            assert out.grad is None
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64
        for full in outs[4:6]:
            assert full.data.shape == ()  # a 0-d array, not a numpy scalar
        assert float(outs[4].data) == 15.0 and float(outs[5].data) == 2.5

    def test_untaped_result_is_a_constant_under_a_later_tape(self):
        leaf = T.Tensor(np.ones(3), requires_grad=True)
        const = T.mul(leaf, 2.0)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(leaf, const))
        assert len(tape.records) == 2
        T.backward(loss, tape)
        np.testing.assert_array_equal(leaf.grad, [2.0, 2.0, 2.0])
        assert const.grad is None

    def test_one_record_per_op_on_tracked_inputs(self, rng):
        x = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        w = T.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        constant = T.Tensor(rng.standard_normal((4, 2)))
        with T.Tape() as tape:
            h = T.relu(R.matmul(x, w))                          # 2
            p = T.softmax(T.add(h, constant), axis=1)           # 2
            skip = T.mul(constant, constant)                    # untracked: 0
            loss = T.reduce_mean(T.mul(R.safe_log(p), skip))    # 3
        assert len(tape.records) == 7
        assert skip.requires_grad is False and loss.requires_grad is True


def _gru_steps(x, w_in, w_hid, b_in, b_hid):
    """Step-by-step GRU graph of elementary ops from a zero state: the
    reference for the fused sequence op."""
    hidden = w_hid.shape[0]
    h = T.Tensor(np.zeros((x.shape[0], hidden)))
    hs = []
    for t in range(x.shape[1]):
        x_t = T.reshape(T.narrow(x, t, t + 1, axis=1), (x.shape[0], x.shape[2]))
        gi = T.add(R.matmul(x_t, w_in), b_in)
        gh = T.add(R.matmul(h, w_hid), b_hid)
        gi_z, gi_r, gi_n = R.split(gi, [hidden] * 3, axis=1)
        gh_z, gh_r, gh_n = R.split(gh, [hidden] * 3, axis=1)
        z = R.sigmoid(gi_z + gh_z)
        r = R.sigmoid(gi_r + gh_r)
        n = R.tanh(gi_n + r * gh_n)
        h = R.sub(1.0, z) * n + z * h
        hs.append(h)
    return R.stack(hs, axis=1)


def _lstm_steps(x, w_in, w_hid, b_in, b_hid):
    hidden = w_hid.shape[0]
    h = c = T.Tensor(np.zeros((x.shape[0], hidden)))
    hs = []
    for t in range(x.shape[1]):
        x_t = T.reshape(T.narrow(x, t, t + 1, axis=1), (x.shape[0], x.shape[2]))
        gi = T.add(R.matmul(x_t, w_in), b_in)
        gh = T.add(R.matmul(h, w_hid), b_hid)
        gi_i, gi_f, gi_g, gi_o = R.split(gi, [hidden] * 4, axis=1)
        gh_i, gh_f, gh_g, gh_o = R.split(gh, [hidden] * 4, axis=1)
        i, f = R.sigmoid(gi_i + gh_i), R.sigmoid(gi_f + gh_f)
        g, o = R.tanh(gi_g + gh_g), R.sigmoid(gi_o + gh_o)
        c = f * c + i * g
        h = o * R.tanh(c)
        hs.append(h)
    return R.stack(hs, axis=1)


def _recurrent_case(rng, gates, batch=3, steps=5, width=2, hidden=3):
    return {
        "x": rng.standard_normal((batch, steps, width)),
        "w_in": rng.standard_normal((width, gates * hidden)) * 0.7,
        "w_hid": rng.standard_normal((hidden, gates * hidden)) * 0.7,
        "b_in": rng.standard_normal(gates * hidden) * 0.3,
        "b_hid": rng.standard_normal(gates * hidden) * 0.3,
        "w_out": rng.standard_normal((batch, steps, hidden)),
    }


_WEIGHTS = ("x", "w_in", "w_hid", "b_in", "b_hid")


def _sequence_loss(case, op, name, t):
    """Every timestep's hidden state weighted into a scalar, with ``t`` as
    the operand ``name``."""
    args = {k: T.Tensor(case[k]) for k in _WEIGHTS}
    args[name] = t
    hs = op(*(args[k] for k in _WEIGHTS))
    return T.reduce_sum(T.mul(hs, T.Tensor(case["w_out"])))


class TestRecurrentSequences:
    """The fused recurrent ops from their zero state against finite
    differences with the loss over every timestep, and against the
    elementary step-by-step graph bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_gru_grad_check_every_input(self, seed):
        case = _recurrent_case(np.random.default_rng(300 + seed), gates=3)
        for name in _WEIGHTS:
            res = T.grad_check(lambda t: _sequence_loss(case, T.gru_sequence, name, t),
                               case[name])
            assert res.ok, (name, res.max_rel_err)

    @pytest.mark.parametrize("seed", range(4))
    def test_lstm_grad_check_every_input(self, seed):
        case = _recurrent_case(np.random.default_rng(400 + seed), gates=4)
        for name in _WEIGHTS:
            res = T.grad_check(lambda t: _sequence_loss(case, T.lstm_sequence, name, t),
                               case[name])
            assert res.ok, (name, res.max_rel_err)

    @pytest.mark.parametrize("layout", ["c_order", "channel_outermost", "time_major"])
    @pytest.mark.parametrize("steps", [1, 12])
    @pytest.mark.parametrize("batch", [1, 57, 128])
    @pytest.mark.parametrize("fused, reference, gates", [
        (T.gru_sequence, _gru_steps, 3),
        (T.lstm_sequence, _lstm_steps, 4),
    ], ids=["gru_sequence-_gru_steps-state0", "lstm_sequence-_lstm_steps-state1"])
    def test_bit_identical_to_step_graph(self, fused, reference, gates, batch, steps, layout):
        """Outputs and every gradient equal the step graph's bit for bit,
        signs of zeros included, and the untaped output equals the taped
        one. One unit of the tanh block (GRU n, LSTM g) gets a pre-activation
        near 800, whose sigmoid would underflow: any floating-point
        exception raises, so an op that evaluated a gate on a block it does
        not read would fail."""
        hidden = 7
        case = _recurrent_case(np.random.default_rng(9), gates=gates,
                               batch=batch, steps=steps, hidden=hidden)
        case["b_in"][2 * hidden] = 800.0
        if layout == "channel_outermost":  # the strides conv kernels return
            case["x"] = case["x"].transpose(2, 0, 1).copy().transpose(1, 2, 0)
        elif layout == "time_major":  # a stacked layer's input: a lower layer's output
            case["x"] = case["x"].transpose(1, 0, 2).copy().transpose(1, 0, 2)
        runs = []
        with np.errstate(all="raise"):
            for op in (fused, reference):
                leaves = {k: T.Tensor(case[k], requires_grad=True) for k in _WEIGHTS}
                with T.Tape() as tape:
                    hs = op(*(leaves[k] for k in _WEIGHTS))
                    value = T.reduce_sum(T.mul(hs, T.Tensor(case["w_out"])))
                T.backward(value, tape)
                runs.append([hs.data, value.data] + [leaves[k].grad for k in _WEIGHTS])
            untaped = fused(*(case[k] for k in _WEIGHTS))
        assert np.array_equal(untaped.data, runs[0][0])
        for got, want in zip(*runs):
            assert got is not None and np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_one_record_per_sequence(self, rng):
        case = _recurrent_case(rng, gates=3)
        w_in = T.Tensor(case["w_in"], requires_grad=True)
        with T.Tape() as tape:
            T.gru_sequence(case["x"], w_in, case["w_hid"], case["b_in"], case["b_hid"])
        assert len(tape.records) == 1

    def test_shape_errors(self, rng):
        case = _recurrent_case(rng, gates=3)
        with pytest.raises(ShapeError):
            T.gru_sequence(case["x"][0], case["w_in"], case["w_hid"], case["b_in"], case["b_hid"])
        with pytest.raises(ShapeError):
            T.lstm_sequence(case["x"], case["w_in"], case["w_hid"], case["b_in"], case["b_hid"])
        empty = case["x"][:, :0]  # no time steps: there is nothing to backpropagate
        with pytest.raises(ShapeError):
            T.gru_sequence(empty, case["w_in"], case["w_hid"], case["b_in"], case["b_hid"])
        lstm = _recurrent_case(rng, gates=4)
        with pytest.raises(ShapeError):
            T.lstm_sequence(empty, lstm["w_in"], lstm["w_hid"], lstm["b_in"], lstm["b_hid"])

    @pytest.mark.parametrize("op, gates, arrays", [
        # [T+1,B,H] state buffer, then z|r, n and gh_n per step
        (T.gru_sequence, 3, lambda t: (t + 1) + 2 * t + t + t),
        # state buffer, c_0..c_T, then i|f|o and g per step
        (T.lstm_sequence, 4, lambda t: (t + 1) + (t + 1) + 3 * t + t),
    ], ids=["gru", "lstm"])
    def test_taped_layer_retains_its_closed_form(self, op, gates, arrays):
        """A taped layer keeps each hidden state once, in its state buffer
        (which is also its output), and recomputes what the backward pass can
        get cheaply: the bytes it holds until the sweep are the closed form
        in units of ``[B, H]`` float64 blocks plus the time-major input copy
        ``[T, B, D]``, within a few kilobytes of Python objects."""
        batch, steps, width, hidden = 57, 12, 11, 64
        case = _recurrent_case(np.random.default_rng(5), gates=gates, batch=batch,
                               steps=steps, width=width, hidden=hidden)
        leaves = [T.Tensor(case[k], requires_grad=True) for k in _WEIGHTS]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with T.Tape() as tape:
                out = op(*leaves)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape.records) == 1 and out is not None
        bound = 8 * (arrays(steps) * batch * hidden + steps * batch * width)
        assert retained <= bound + 32 * 1024, (retained, bound)


def _attention_graph(query, keys, values, key_dim):
    """Attention pooling as a graph of elementary ops: the reference for the
    fused op."""
    scores = T.reduce_sum(keys * query, axis=3) * (1.0 / np.sqrt(key_dim))
    weights = T.softmax(scores, axis=1)
    batch, steps, heads = weights.shape
    expanded = T.reshape(weights, (batch, steps, heads, 1))
    return T.reduce_sum(expanded * values, axis=1), weights


def _attention_case(rng, batch, steps, heads, key_dim, width, shared_query):
    return {
        "query": rng.standard_normal((1 if shared_query else batch, 1, heads, key_dim)),
        "keys": rng.standard_normal((batch, steps, heads, key_dim)),
        "values": rng.standard_normal((batch, steps, heads, width)),
        "w_out": rng.standard_normal((batch, heads, width)),
    }


_ATTENTION_INPUTS = ("query", "keys", "values")


def _attention_loss(case, name, t):
    args = {k: T.Tensor(case[k]) for k in _ATTENTION_INPUTS}
    args[name] = t
    pooled, _ = T.attention_pool(*(args[k] for k in _ATTENTION_INPUTS),
                                 key_dim=case["keys"].shape[3])
    return T.reduce_sum(T.mul(pooled, T.Tensor(case["w_out"])))


def _attention_run(op, case):
    """``pooled``, ``weights`` and the three input gradients of one taped
    call of ``op`` and its backward sweep."""
    leaves = {k: T.Tensor(case[k], requires_grad=True) for k in _ATTENTION_INPUTS}
    with T.Tape() as tape:
        pooled, weights = op(*(leaves[k] for k in _ATTENTION_INPUTS),
                             case["keys"].shape[3])
        loss = T.reduce_sum(T.mul(pooled, T.Tensor(case["w_out"])))
    T.backward(loss, tape)
    return [pooled.data, weights.data] + [leaves[k].grad for k in _ATTENTION_INPUTS]


def _assert_attention_matches_graph(case):
    runs = [_attention_run(op, case) for op in (T.attention_pool, _attention_graph)]
    shape = case["values"].shape
    for got, want in zip(*runs):
        assert got is not None and got.shape == want.shape, shape
        assert np.array_equal(got, want), shape
        assert np.array_equal(np.signbit(got), np.signbit(want)), shape


class TestAttentionPool:
    """The fused attention pooling against the elementary graph bit for bit
    (sign of zero included) and against finite differences."""

    @pytest.mark.parametrize("shared_query", [False, True], ids=["per-sample", "shared"])
    def test_bit_identical_to_graph(self, shared_query):
        rng = np.random.default_rng(17)
        shapes = [(b, t, h, kd, w) for b in (1, 2, 57) for t in (1, 12)
                  for h in (1, 4) for kd in (1, 4) for w in (1, 16)]
        shapes.append((128, 24, 4, 32, 64))
        for shape in shapes:
            _assert_attention_matches_graph(_attention_case(rng, *shape, shared_query))

    @pytest.mark.parametrize("shared_query", [False, True], ids=["per-sample", "shared"])
    def test_smaller_calls_after_a_large_one_match_graph(self, shared_query):
        """Products written into a buffer grown by a larger call keep the
        graph's bits, signed zeros included."""
        rng = np.random.default_rng(29)
        for batch in (128, 57, 1):
            case = _attention_case(rng, batch, 24, 4, 32, 64, shared_query)
            case["values"][:, ::5, :, ::3] = -0.0
            case["keys"][:, ::7] = 0.0
            case["w_out"][:, :, ::4] = -0.0
            _assert_attention_matches_graph(case)

    @pytest.mark.parametrize("steps", [1, 12])
    @pytest.mark.parametrize("shared_query", [False, True], ids=["per-sample", "shared"])
    def test_results_share_no_memory_with_the_scratch_buffer(self, steps, shared_query):
        rng = np.random.default_rng(31)
        results = _attention_run(T.attention_pool,
                                 _attention_case(rng, 3, steps, 2, 4, 5, shared_query))
        kept = [a.copy() for a in results]
        for a in results:
            assert not np.shares_memory(a, T._SCRATCH.buf)
        _attention_run(T.attention_pool,
                       _attention_case(rng, 3, steps, 2, 4, 5, shared_query))
        for a, want in zip(results, kept):
            _assert_bit_identical(a, want)

    def test_repeated_call_allocates_no_product(self):
        """A second untaped call at the same shape reuses the buffer: its
        traced peak stays below one ``[B, T, H, W]`` product."""
        case = _attention_case(np.random.default_rng(37), 128, 24, 4, 32, 64,
                               shared_query=False)
        args = [T.Tensor(case[k]) for k in _ATTENTION_INPUTS]
        T.attention_pool(*args, key_dim=32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            T.attention_pool(*args, key_dim=32)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < case["values"].nbytes, peak

    @pytest.mark.parametrize("shared_query", [False, True], ids=["per-sample", "shared"])
    @pytest.mark.parametrize("seed", range(3))
    def test_grad_check_every_input(self, seed, shared_query):
        case = _attention_case(np.random.default_rng(500 + seed), 3, 5, 2, 3, 4,
                               shared_query)
        for name in _ATTENTION_INPUTS:
            res = T.grad_check(lambda t: _attention_loss(case, name, t), case[name])
            assert res.ok, (name, res.max_rel_err)

    def test_one_record_and_untracked_weights(self, rng):
        case = _attention_case(rng, 3, 5, 2, 3, 4, shared_query=False)
        leaves = [T.Tensor(case[k], requires_grad=True) for k in _ATTENTION_INPUTS]
        with T.Tape() as tape:
            pooled, weights = T.attention_pool(*leaves, key_dim=3)
        assert len(tape.records) == 1
        assert pooled.requires_grad and not weights.requires_grad

    def test_shape_errors(self, rng):
        case = _attention_case(rng, 3, 5, 2, 4, 6, shared_query=False)
        q, k, v = (case[name] for name in _ATTENTION_INPUTS)
        bad = [
            (q, k, v, 3),  # key_dim does not match the keys
            (q, k[0], v, 4),  # keys are not 4-d
            (q[:, :, :1], k, v, 4),  # query has too few heads
            (q[:2], k, v, 4),  # query batch is neither B nor 1
            (np.concatenate([q, q], axis=1), k, v, 4),  # query over time
            (q, k, v[:, :4], 4),  # values have too few steps
            (q, k, v[..., 0], 4),  # values are not 4-d
        ]
        for args in bad:
            with pytest.raises(ShapeError):
                T.attention_pool(*args)


def _flat(records):
    """A tape's records with each fork record replaced by the records of its
    sub-tapes, in call order: the tape of the same forward run serially."""
    out = []
    for rec in records:
        if isinstance(rec, T._Fork):
            assert rec.routes == () and rec.shapes == () and rec.grad is None
            for tape in rec.tapes:
                out += _flat(tape.records)
        else:
            out.append(rec)
    return out


def _keeping_backward(loss, tape):
    """A serial sweep that releases nothing: it keeps every record's output
    gradient, every route and every record, and sweeps the records of a
    fork's sub-tapes where a serial forward would have taped them. The
    reference for ``backward``'s leaf gradients."""
    loss.producer.grad = np.ones_like(loss.data)
    for rec in reversed(_flat(tape.records)):
        g = rec.grad
        if g is None:
            continue
        for route, shape, gi in zip(rec.routes, rec.shapes, rec.backward(g)):
            if gi is None or route is None:
                continue
            gi = np.asarray(gi, dtype=np.float64).reshape(shape)
            route.grad = gi if route.grad is None else route.grad + gi


def _assert_bit_identical(got, want):
    assert got is not None and np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestBackwardReleases:
    """``backward`` drops each consumed non-leaf gradient during the sweep
    and empties the tape when it ends; leaf gradients keep their bits."""

    def _sweep(self, sweep):
        """A graph with shared intermediates: the LSTM's hidden states reach
        the loss directly and through ``tanh``, which is read twice. Returns
        the leaves' gradients, the intermediates and the tape after
        ``sweep``."""
        case = _recurrent_case(np.random.default_rng(4), gates=4)
        leaves = {k: T.Tensor(case[k], requires_grad=True) for k in _WEIGHTS}
        with T.Tape() as tape:
            hs = T.lstm_sequence(*(leaves[k] for k in _WEIGHTS))
            shared = R.tanh(hs)
            loss = T.add(T.reduce_sum(T.mul(shared, shared)),
                         T.reduce_sum(T.mul(hs, T.Tensor(case["w_out"]))))
        intermediates = list(tape.records)
        sweep(loss, tape)
        return [leaves[k].grad for k in _WEIGHTS], intermediates, tape

    def test_tape_is_empty_after_backward(self):
        _, records, tape = self._sweep(T.backward)
        assert tape.records == []
        assert all(rec.routes is None and rec.backward is None for rec in records)

    def test_intermediate_gradients_are_dropped_leaf_gradients_kept(self):
        got, intermediates, _ = self._sweep(T.backward)
        want, kept, _ = self._sweep(_keeping_backward)
        assert len(intermediates) == 7  # one output gradient slot per record
        assert all(rec.grad is None for rec in intermediates)
        assert all(rec.grad is not None for rec in kept)  # the reference keeps them
        for g, w in zip(got, want):
            _assert_bit_identical(g, w)

    def test_tape_is_emptied_when_the_loss_is_untracked(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.Tape() as tape:
            T.mul(x, 2.0)
            loss = T.reduce_sum(T.Tensor(np.ones(3)))
        assert len(tape.records) == 1
        T.backward(loss, tape)
        assert tape.records == [] and x.grad is None

    def test_tape_is_emptied_when_a_rule_raises(self):
        x = T.Tensor(np.ones(3), requires_grad=True)
        with T.Tape() as tape:
            loss = T.reduce_sum(T.mul(x, 2.0))

        def fails(g):
            raise NumericError("rule failed")

        rec = tape.records[0]
        rec.backward = fails
        with pytest.raises(NumericError):
            T.backward(loss, tape)
        assert tape.records == []
        assert rec.routes is None and rec.backward is None and rec.grad is None


_TINY_WIDTHS = dict(hidden=6, layers=2, embedding_dim=8, dense=12, heads=2,
                    key_dim=4, attn_width=8, kernel=3, dropout=0.2)


def _taped_step(module, loss_of, sweep):
    """One training step of ``module`` under ``sweep``: a seeded forward in
    train mode and the backward sweep. Returns every parameter gradient and
    the step's records."""
    module.set_mode("train")
    params = module.named_parameters()
    for p in params.values():
        p.grad = None
    with T.Tape() as tape:
        loss = loss_of(module, np.random.default_rng(11))
    records = _flat(tape.records)
    sweep(loss, tape)
    return {name: p.grad for name, p in params.items()}, records


def _assert_step_matches_keeping_sweep(module, loss_of):
    want, _ = _taped_step(module, loss_of, _keeping_backward)
    got, records = _taped_step(module, loss_of, T.backward)
    assert records and all(rec.grad is None for rec in records)
    assert got.keys() == want.keys()
    for name in want:
        _assert_bit_identical(got[name], want[name])


_ENCODERS = ["GRU", "LSTM", "TempCNN", "TAE", "LTAE"]
_MODELS = [("Hybrid", "gfusion"), ("Feature", "multiloss")]


def _encoder_step(arch):
    """A tiny encoder over the optical view and a loss of its embedding."""
    schema = canonical_schema("optical")
    encoder = build_encoder(schema, EncoderConfig(architecture=arch, **_TINY_WIDTHS))
    encoder.initialize(2)
    data = np.random.default_rng(3)
    x = data.standard_normal((5,) + schema.shape)
    encoder.set_mode("infer")
    weights = T.Tensor(data.standard_normal((5, encoder(x).shape[1])))

    def loss_of(module, rng):
        return T.reduce_sum(T.mul(module.drop(module(x), rng), weights))

    return encoder, loss_of


def _model_step(strategy, component, arch):
    """A tiny three-view model and its training loss, multi-loss included."""
    views = [canonical_schema(n) for n in ("optical", "radar", "topography")]
    model = build_model(views, strategy, EncoderConfig(arch, **_TINY_WIDTHS),
                        classes=3, component=component)
    model.initialize(2)
    data = np.random.default_rng(3)
    batch = {v.name: data.standard_normal((6,) + v.shape) for v in views}
    labels = np.array([0, 1, 2, 0, 1, 2])
    class_weights = np.array([0.5, 1.0, 2.0])

    def loss_of(module, rng):
        outputs = module(batch, rng)
        loss = weighted_cross_entropy(outputs.probabilities, labels, class_weights)
        if module.multiloss_gamma > 0:
            loss = multi_loss(loss, [
                weighted_cross_entropy(p, labels, class_weights)
                for p in outputs.view_probabilities.values()], module.multiloss_gamma)
        return loss

    return model, loss_of


@pytest.mark.parametrize("arch", _ENCODERS)
def test_encoder_step_gradients_match_keeping_sweep(arch):
    _assert_step_matches_keeping_sweep(*_encoder_step(arch))


@pytest.mark.parametrize("strategy, component", _MODELS)
def test_model_step_gradients_match_keeping_sweep(strategy, component):
    _assert_step_matches_keeping_sweep(*_model_step(strategy, component, "GRU"))


def _is_route(route):
    """A record, a leaf tensor that needs a gradient, or ``None``."""
    if isinstance(route, T.Tensor):
        return route.requires_grad and route.producer is None
    return route is None or type(route) is T._Record


def _routed_sweep(loss, tape):
    """``backward``, after checking that every record keeps one route and
    one shape per input, and with each rule checked to run after its
    record's gradient slot was dropped and to return one gradient per
    route, shaped as its input."""
    assert tape.records
    for rec in _flat(tape.records):
        assert len(rec.routes) == len(rec.shapes)
        assert all(_is_route(route) for route in rec.routes)

        def checked(g, rec=rec, rule=rec.backward, shapes=rec.shapes):
            assert rec.grad is None
            grads = rule(g)
            assert len(grads) == len(shapes)
            assert all(gi is None or np.size(gi) == int(np.prod(shape))
                       for gi, shape in zip(grads, shapes))
            return grads

        rec.backward = checked
    T.backward(loss, tape)


@pytest.mark.parametrize("step", [(_encoder_step, arch) for arch in _ENCODERS]
                         + [(_model_step, *model, "LSTM") for model in _MODELS],
                         ids=_ENCODERS + ["-".join(model) for model in _MODELS])
def test_step_records_route_each_input(step):
    """One taped training step of each encoder, and of two LSTM models,
    gives each record one route and one shape per input, and its rule one
    gradient per route."""
    build, *args = step
    _taped_step(*build(*args), _routed_sweep)


def _reachable_tensors(roots):
    """Every ``Tensor`` reachable from ``roots`` through ``gc.get_referents``.
    A function is followed through its closure cells and defaults only, not
    its globals; the walk stops at tensors, types and modules."""
    seen, found, stack = set(), [], list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, T.Tensor):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            stack += (obj.__closure__ or ()) + (obj.__defaults__ or ())
        elif not isinstance(obj, (type, types.ModuleType)):
            stack += gc.get_referents(obj)
    return found


@pytest.mark.parametrize("step", [(_encoder_step, arch) for arch in _ENCODERS]
                         + [(_model_step, "Hybrid", "gfusion", "TempCNN")],
                         ids=_ENCODERS + ["Hybrid-gfusion"])
def test_tape_holds_no_intermediate_tensor(step):
    """After a taped forward of each encoder and of one model, the only
    tensors that the tape's records reach, through their routes or their
    rules' closures, are the module's parameters: every intermediate array
    lives only as long as the forward code or a rule holds it."""
    build, *args = step
    module, loss_of = build(*args)
    module.set_mode("train")
    with T.Tape() as tape:
        loss = loss_of(module, np.random.default_rng(11))
    reached = _reachable_tensors(_flat(tape.records))
    leaves = {id(p) for p in module.named_parameters().values()}
    stray = [t.shape for t in reached if id(t) not in leaves]
    assert reached and not stray, stray
    T.backward(loss, tape)


def test_taped_conv_block_frees_conv_and_norm_outputs():
    """A taped TempCNN conv block (conv, batch norm, ReLU) holds, once it
    returns, the batch-norm rule's normalised input, the ReLU mask and the
    block's output: ``8 + 1 + 8`` bytes per ``[B, T, C]`` entry, within a
    few kilobytes of Python objects. The conv output and the batch-norm
    output are freed as soon as the next op has read them."""
    batch, steps, channels = 57, 12, 64
    block = _ConvBlock(channels, channels, 5)
    block.initialize(3)
    x = T.Tensor(np.random.default_rng(6).standard_normal((batch, steps, channels)),
                 requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with T.Tape() as tape:
            out = block(x)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.records) == 3 and out is not None
    entries = batch * steps * channels
    assert retained <= (8 + 1 + 8) * entries + 32 * 1024, (retained, entries)


_PACKAGE = Path(T.__file__).parent
# the Tensor operator methods; __radd__ and __rmul__ are __add__ and __mul__
_OPERATORS = ("__add__", "__mul__", "__truediv__")


def test_every_public_op_is_called_by_the_package():
    """Each public function of ``mvcrop.tensor`` but the ``grad_check``
    utility is named by another package module or called by a Tensor
    operator method; an op that only tests call belongs in
    ``tests/reference.py``."""
    tree = ast.parse((_PACKAGE / "tensor.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    tensor_class = next(node for node in tree.body
                        if isinstance(node, ast.ClassDef) and node.name == "Tensor")
    used = {call.func.id for method in tensor_class.body
            if isinstance(method, ast.FunctionDef) and method.name in _OPERATORS
            for call in ast.walk(method)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    for path in _PACKAGE.glob("*.py"):  # each imports its tensor names by name
        if path.name != "tensor.py":
            used |= {alias.name for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.ImportFrom) and node.module == "tensor"
                     for alias in node.names}
    assert sorted(public - used - {"grad_check"}) == []
