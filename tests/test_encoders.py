"""Encoder suite: schemas, exact parameter totals, hand-checked cell math,
attention pooling, and cross-architecture invariants."""
from __future__ import annotations

import numpy as np
import pytest

from mvcrop import encoders
from mvcrop import tensor as T
from mvcrop.encoders import (
    ARCHITECTURES,
    AttentionEncoder,
    EncoderConfig,
    GRUCell,
    GRUEncoder,
    LSTMCell,
    LSTMEncoder,
    MLPEncoder,
    TempCNNEncoder,
    attention_pool,
    build_encoder,
    positional_encoding,
)
from mvcrop.errors import ConfigError, ShapeError
from mvcrop.views import CANONICAL_VIEWS, ViewSchema, canonical_schema
from test_acceptance import _module_fd


def cfg(arch: str, **kw) -> EncoderConfig:
    kw.setdefault("dropout", 0.0)
    return EncoderConfig(architecture=arch, **kw)


def temporal_schema(channels: int, steps: int = 12) -> ViewSchema:
    return ViewSchema(f"custom{channels}x{steps}", temporal=True,
                      channels=channels, steps=steps)


SIG1 = 1.0 / (1.0 + np.exp(-1.0))
TANH1 = np.tanh(1.0)


class TestViewSchema:
    def test_canonical_registry(self):
        geo = {name: (s.temporal, s.channels, s.steps)
               for name, s in CANONICAL_VIEWS.items()}
        assert geo == {
            "optical": (True, 11, 12),
            "radar": (True, 2, 12),
            "weather": (True, 2, 12),
            "ndvi": (True, 1, 12),
            "topography": (False, 2, None),
        }

    def test_shape_property(self):
        assert canonical_schema("optical").shape == (12, 11)
        assert canonical_schema("topography").shape == (2,)

    def test_custom_schema_allowed(self):
        s = ViewSchema("soil", temporal=True, channels=3, steps=12)
        assert s.shape == (12, 3)

    def test_canonical_name_with_wrong_geometry_rejected(self):
        with pytest.raises(ConfigError):
            ViewSchema("optical", temporal=True, channels=4, steps=12)
        with pytest.raises(ConfigError):
            ViewSchema("topography", temporal=True, channels=2, steps=12)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            ViewSchema("x", temporal=True, channels=3, steps=None)
        with pytest.raises(ConfigError):
            ViewSchema("x", temporal=False, channels=3, steps=12)
        with pytest.raises(ConfigError):
            ViewSchema("x", temporal=True, channels=0, steps=12)

    def test_unknown_canonical_name(self):
        with pytest.raises(ConfigError):
            canonical_schema("elevation")


class TestEncoderConfig:
    def test_defaults(self):
        c = EncoderConfig(architecture="GRU")
        assert (c.hidden, c.layers, c.embedding_dim) == (64, 2, 64)
        assert (c.kernel, c.dense) == (5, 256)
        assert (c.heads, c.key_dim, c.attn_width) == (4, 32, 256)
        assert c.dropout == 0.2
        assert c.value_split is False

    def test_rejections(self):
        with pytest.raises(ConfigError):
            EncoderConfig(architecture="Transformer")
        with pytest.raises(ConfigError):
            EncoderConfig(architecture="TempCNN", kernel=4)
        with pytest.raises(ConfigError):
            EncoderConfig(architecture="GRU", dropout=1.0)
        with pytest.raises(ConfigError):
            EncoderConfig(architecture="TAE", heads=0)
        with pytest.raises(ConfigError):
            EncoderConfig(architecture="GRU", layers=0)


def gru_total(d: int, hidden: int = 64, layers: int = 2) -> int:
    total = 0
    d_in = d
    for _ in range(layers):
        total += 3 * hidden * (d_in + hidden) + 2 * 3 * hidden
        d_in = hidden
    return total + hidden * hidden + hidden


def lstm_total(d: int, hidden: int = 64, layers: int = 2) -> int:
    total = 0
    d_in = d
    for _ in range(layers):
        total += 4 * hidden * (d_in + hidden) + 2 * 4 * hidden
        d_in = hidden
    return total + hidden * hidden + hidden


class TestParameterTotals:
    @pytest.mark.parametrize("view,expected", [
        ("optical", 43904), ("radar", 42176), ("weather", 42176), ("ndvi", 41984),
    ])
    def test_gru_totals(self, view, expected):
        enc = build_encoder(canonical_schema(view), cfg("GRU"))
        assert enc.parameter_count() == expected
        assert enc.parameter_count() == gru_total(canonical_schema(view).channels)

    @pytest.mark.parametrize("view,expected", [
        # Totals follow the per-layer closed form 4*64*(D_in+64) + 2*4*64
        # plus a 4160-parameter output projection.
        ("optical", 57152), ("radar", 54848), ("weather", 54848), ("ndvi", 54592),
    ])
    def test_lstm_totals(self, view, expected):
        enc = build_encoder(canonical_schema(view), cfg("LSTM"))
        assert enc.parameter_count() == expected
        assert enc.parameter_count() == lstm_total(canonical_schema(view).channels)

    @pytest.mark.parametrize("view,expected", [
        ("optical", 258880), ("radar", 256000), ("weather", 256000), ("ndvi", 255680),
    ])
    def test_tempcnn_totals(self, view, expected):
        enc = build_encoder(canonical_schema(view), cfg("TempCNN"))
        assert enc.parameter_count() == expected

    def test_tempcnn_total_by_explicit_sum(self):
        d = 11
        expected = (d * 64 * 5 + 64) + 2 * (64 * 64 * 5 + 64) + 3 * 128 \
            + (768 * 256 + 256) + 512 + (256 * 64 + 64)
        enc = build_encoder(canonical_schema("optical"), cfg("TempCNN"))
        assert enc.parameter_count() == expected == 258880

    def test_mlp_total(self):
        enc = build_encoder(canonical_schema("topography"), cfg("MLP"))
        assert enc.parameter_count() == 2 * 64 + 64 + 64 * 64 + 64 == 4352

    @pytest.mark.parametrize("arch", ["TAE", "LTAE"])
    def test_attention_interview_deltas(self, arch):
        counts = {v: build_encoder(canonical_schema(v), cfg(arch)).parameter_count()
                  for v in ("optical", "radar", "ndvi")}
        assert counts["optical"] - counts["radar"] == 594 == 9 * 64 + 2 * 9
        assert counts["radar"] - counts["ndvi"] == 66

    def test_ltae_smaller_than_tae_by_query_projection(self):
        schema = canonical_schema("radar")
        tae = build_encoder(schema, cfg("TAE")).parameter_count()
        ltae = build_encoder(schema, cfg("LTAE")).parameter_count()
        assert ltae < tae
        # per-step query projection (64*128 + 128) replaced by one [4,32] query
        assert tae - ltae == (64 * 128 + 128) - 128 == 8192

    def test_value_split_removes_value_projection(self):
        schema = canonical_schema("radar")
        base = build_encoder(schema, cfg("LTAE")).parameter_count()
        split = build_encoder(schema, cfg("LTAE", value_split=True)).parameter_count()
        # drops the 64->256 value projection, shrinks the 256->64 output to 64->64
        assert base - split == (64 * 256 + 256) + (256 * 64 + 64) - (64 * 64 + 64)

    def test_count_deterministic_across_builds(self):
        a = build_encoder(canonical_schema("optical"), cfg("GRU")).parameter_count()
        b = build_encoder(canonical_schema("optical"), cfg("GRU")).parameter_count()
        assert a == b


class TestMLPEncoder:
    def test_zero_parameters_give_zero_embedding(self):
        enc = MLPEncoder(canonical_schema("topography"), cfg("MLP"))
        out = enc(T.Tensor(np.random.default_rng(0).standard_normal((4, 2))))
        assert out.shape == (4, 64)
        assert np.all(out.data == 0.0)

    def test_temporal_schema_rejected(self):
        with pytest.raises(ConfigError):
            MLPEncoder(canonical_schema("radar"), cfg("MLP"))

    def test_temporal_input_rejected(self):
        enc = MLPEncoder(canonical_schema("topography"), cfg("MLP"))
        with pytest.raises(ShapeError):
            enc(T.Tensor(np.zeros((4, 12, 2))))
        with pytest.raises(ShapeError):
            enc(T.Tensor(np.zeros((4, 3))))

    def test_grad_check(self):
        rng = np.random.default_rng(3)
        enc = MLPEncoder(canonical_schema("topography"), cfg("MLP"))
        enc.initialize(3)
        proj = T.Tensor(rng.standard_normal((3, 64)))
        res = T.grad_check(lambda x: T.reduce_sum(T.mul(enc(x), proj)),
                           rng.standard_normal((3, 2)))
        assert res.ok, res.max_rel_err


class TestGRU:
    def _unit_cell(self) -> GRUCell:
        cell = GRUCell(1, 1)
        cell.w_in.data[...] = 1.0
        cell.w_hid.data[...] = 1.0
        return cell

    def test_scalar_step_hand_value(self):
        hs = self._unit_cell().outputs(T.Tensor([[[1.0]]]))
        expected = (1.0 - SIG1) * TANH1
        assert hs.shape == (1, 1, 1)
        assert abs(hs.data[0, 0, 0] - expected) < 1e-12
        assert abs(hs.data[0, 0, 0] - 0.2048) < 1e-4

    def test_two_step_recurrence_applies_reset_before_sum(self):
        hs = self._unit_cell().outputs(T.Tensor([[[1.0], [1.0]]]))
        h1 = (1.0 - SIG1) * TANH1
        z2 = r2 = 1.0 / (1.0 + np.exp(-(1.0 + h1)))
        n2 = np.tanh(1.0 + r2 * h1)
        expected = (1.0 - z2) * n2 + z2 * h1
        assert abs(hs.data[0, 0, 0] - h1) < 1e-12
        assert abs(hs.data[0, 1, 0] - expected) < 1e-12

    def test_zero_parameters_fixed_point(self):
        enc = GRUEncoder(canonical_schema("radar"), cfg("GRU"))
        out = enc(T.Tensor(np.random.default_rng(1).standard_normal((3, 12, 2))))
        assert out.shape == (3, 64)
        assert np.all(out.data == 0.0)

    def test_empty_series_rejected(self):
        enc = GRUEncoder(canonical_schema("radar"), cfg("GRU"))
        with pytest.raises(ShapeError):
            enc(T.Tensor(np.zeros((3, 0, 2))))

    def test_channel_mismatch_rejected(self):
        enc = GRUEncoder(canonical_schema("radar"), cfg("GRU"))
        with pytest.raises(ShapeError):
            enc(T.Tensor(np.zeros((3, 12, 5))))


class TestLSTM:
    """The cell state is internal to ``lstm_sequence``; it is checked
    through ``h = o * tanh(c)``."""

    def _unit_cell(self) -> LSTMCell:
        cell = LSTMCell(1, 1)
        cell.w_in.data[...] = 1.0
        cell.w_hid.data[...] = 1.0
        return cell

    def test_scalar_step_hand_values(self):
        cell = self._unit_cell()
        hs = T.lstm_sequence(T.Tensor([[[1.0]]]), cell.w_in, cell.w_hid,
                             cell.b_in, cell.b_hid)
        c_expected = SIG1 * TANH1
        h_expected = SIG1 * np.tanh(c_expected)
        c = np.arctanh(hs.data[0, 0, 0] / SIG1)  # o = sigmoid(1)
        assert abs(c - c_expected) < 1e-12
        assert abs(hs.data[0, 0, 0] - h_expected) < 1e-12
        assert abs(c - 0.5569) < 2.5e-4
        assert abs(hs.data[0, 0, 0] - 0.3695) < 2.5e-4
        assert np.array_equal(cell.outputs(T.Tensor([[[1.0]]])).data, hs.data)

    def test_two_step_recurrence(self):
        cell = self._unit_cell()
        hs = T.lstm_sequence(T.Tensor([[[1.0], [1.0]]]), cell.w_in,
                             cell.w_hid, cell.b_in, cell.b_hid)
        c1 = SIG1 * TANH1
        h1 = SIG1 * np.tanh(c1)
        gate = 1.0 / (1.0 + np.exp(-(1.0 + h1)))
        c2 = gate * c1 + gate * np.tanh(1.0 + h1)
        assert abs(hs.data[0, 0, 0] - h1) < 1e-12
        assert abs(np.arctanh(hs.data[0, 1, 0] / gate) - c2) < 1e-12  # o = gate
        assert abs(hs.data[0, 1, 0] - gate * np.tanh(c2)) < 1e-12

    def test_zero_parameters_fixed_point(self):
        enc = LSTMEncoder(canonical_schema("radar"), cfg("LSTM"))
        out = enc(T.Tensor(np.random.default_rng(1).standard_normal((3, 12, 2))))
        assert np.all(out.data == 0.0)

    def test_empty_series_rejected(self):
        enc = LSTMEncoder(canonical_schema("radar"), cfg("LSTM"))
        with pytest.raises(ShapeError):
            enc(T.Tensor(np.zeros((2, 0, 2))))


@pytest.mark.parametrize("arch", ["GRU", "LSTM"])
@pytest.mark.parametrize("seed", range(3))
def test_two_layer_recurrent_encoder_gradients(arch, seed):
    """The second layer reads every timestep of the first, so the gradient
    entering each step of a hidden sequence is checked here."""
    rng = np.random.default_rng(50 + seed)
    enc = build_encoder(temporal_schema(2, steps=4),
                        cfg(arch, hidden=3, layers=2, embedding_dim=2))
    enc.initialize(seed)
    x = rng.standard_normal((2, 4, 2))
    proj = T.Tensor(rng.standard_normal((2, 2)))
    assert len(enc.cells) == 2
    assert _module_fd(lambda: T.reduce_sum(T.mul(enc(T.Tensor(x)), proj)), enc) < 1e-4
    res = T.grad_check(lambda t: T.reduce_sum(T.mul(enc(t), proj)), x)
    assert res.ok, res.max_rel_err


class TestTempCNN:
    def test_wrong_length_rejected(self):
        enc = TempCNNEncoder(canonical_schema("radar"), cfg("TempCNN"))
        with pytest.raises(ShapeError):
            enc(T.Tensor(np.zeros((2, 10, 2))))

    def test_identity_middle_kernel_preserves_pattern(self):
        from mvcrop.layers import Conv1dSame
        conv = Conv1dSame(3, 3, 5)
        w = np.zeros((3, 3, 5))
        for ch in range(3):
            w[ch, ch, 2] = 1.0
        conv.weight.data[...] = w
        x = np.random.default_rng(5).standard_normal((2, 12, 3))
        out = conv(T.Tensor(x))
        assert np.allclose(out.data, x, atol=1e-15, rtol=0)

    def test_grad_check_through_all_blocks_in_train_mode(self):
        rng = np.random.default_rng(7)
        enc = TempCNNEncoder(canonical_schema("radar"), cfg("TempCNN"))
        enc.initialize(7)
        enc.set_mode("train")
        proj = T.Tensor(rng.standard_normal((2, 64)))
        res = T.grad_check(lambda x: T.reduce_sum(T.mul(enc(x), proj)),
                           rng.standard_normal((2, 12, 2)))
        assert res.ok, res.max_rel_err

    def test_raw_input_gets_no_input_gradient(self, monkeypatch):
        from mvcrop import kernels

        calls = []
        grad_input = kernels.conv1d_grad_input

        def counting(gy, w):
            calls.append(w.shape)
            return grad_input(gy, w)

        monkeypatch.setattr(kernels, "conv1d_grad_input", counting)
        enc = TempCNNEncoder(canonical_schema("radar"), cfg("TempCNN"))
        enc.initialize(7)
        enc.set_mode("train")
        x = T.Tensor(np.random.default_rng(7).standard_normal((4, 12, 2)))
        with T.Tape() as tape:
            loss = T.reduce_sum(enc(x))
        T.backward(loss, tape)
        # the second and third blocks pass a gradient down; the first reads data
        assert calls == [(64, 64, 5), (64, 64, 5)]
        assert x.grad is None
        assert all(p.grad is not None for p in enc.named_parameters().values())


class TestAttentionPooling:
    def test_hand_example_single_head(self):
        q = T.Tensor(np.array(1.0).reshape(1, 1, 1, 1))
        k = T.Tensor(np.array([1.0, 0.0]).reshape(1, 2, 1, 1))
        v = T.Tensor(np.array([2.0, 4.0]).reshape(1, 2, 1, 1))
        pooled, weights = attention_pool(q, k, v, key_dim=1)
        a0 = np.exp(1.0) / (np.exp(1.0) + 1.0)
        assert np.allclose(weights.data[0, :, 0], [a0, 1.0 - a0], atol=1e-12)
        assert np.allclose(weights.data[0, :, 0], [0.731, 0.269], atol=5e-4)
        z = a0 * 2.0 + (1.0 - a0) * 4.0
        assert abs(pooled.data[0, 0, 0] - z) < 1e-12
        assert abs(pooled.data[0, 0, 0] - 2.538) < 1e-3

    def test_uniform_keys_average_values(self):
        rng = np.random.default_rng(2)
        q = T.Tensor(rng.standard_normal((2, 1, 3, 4)))
        k = T.Tensor(np.ones((2, 5, 3, 4)))
        v = T.Tensor(rng.standard_normal((2, 5, 3, 2)))
        pooled, weights = attention_pool(q, k, v, key_dim=4)
        assert np.allclose(weights.data, 0.2, atol=1e-12)
        assert np.allclose(pooled.data, v.data.mean(axis=1), atol=1e-12)

    def test_positional_encoding_values(self):
        pe = positional_encoding(12, 64)
        assert pe.shape == (12, 64)
        assert np.allclose(pe[0, 0::2], 0.0, atol=1e-15)
        assert np.allclose(pe[0, 1::2], 1.0, atol=1e-15)
        assert abs(pe[3, 0] - np.sin(3.0)) < 1e-15
        assert abs(pe[3, 1] - np.cos(3.0)) < 1e-15
        assert abs(pe[2, 10] - np.sin(2.0 / 10000.0 ** (10 / 64))) < 1e-15
        assert np.array_equal(pe, positional_encoding(12, 64))


def _pool_spy(monkeypatch) -> list:
    """Record the ``(query, weights)`` arrays of every ``attention_pool``
    call that an attention encoder makes."""
    calls = []

    def spy(query, keys, values, key_dim):
        pooled, weights = attention_pool(query, keys, values, key_dim)
        calls.append((query.data.copy(), weights.data))
        return pooled, weights

    monkeypatch.setattr(encoders, "attention_pool", spy)
    return calls


class TestAttentionEncoders:
    def test_weights_sum_to_one_per_head(self, monkeypatch):
        rng = np.random.default_rng(4)
        schema = canonical_schema("radar")
        calls = _pool_spy(monkeypatch)
        for arch in ("TAE", "LTAE"):
            enc = build_encoder(schema, cfg(arch))
            enc.initialize(4)
            enc.set_mode("infer")
            out = enc(T.Tensor(rng.standard_normal((5, 12, 2))))
            assert out.shape == (5, 64)
            alpha = calls.pop()[1]  # [B, T, H]
            assert alpha.shape == (5, 12, 4)
            assert np.all(alpha >= 0.0)
            assert np.allclose(alpha.sum(axis=1), 1.0, atol=1e-9)

    def test_shared_parameters_identical_across_variants(self):
        schema = canonical_schema("radar")
        tae = AttentionEncoder(schema, cfg("TAE"), learned_query=False)
        ltae = AttentionEncoder(schema, cfg("LTAE"), learned_query=True)
        tae.initialize(11)
        ltae.initialize(11)
        assert np.array_equal(tae.w_k.weight.data, ltae.w_k.weight.data)
        assert np.array_equal(tae.stem.weight.data, ltae.stem.weight.data)

    def test_frozen_mean_query_matches_tae(self, monkeypatch):
        calls = _pool_spy(monkeypatch)
        rng = np.random.default_rng(9)
        schema = canonical_schema("radar")
        tae = AttentionEncoder(schema, cfg("TAE"), learned_query=False)
        ltae = AttentionEncoder(schema, cfg("LTAE"), learned_query=True)
        tae.initialize(11)
        ltae.initialize(11)
        tae.set_mode("infer")
        ltae.set_mode("infer")
        batch = np.repeat(rng.standard_normal((1, 12, 2)), 3, axis=0)
        out_tae = tae(T.Tensor(batch))
        ltae.q_master.data[...] = calls[0][0][0, 0]  # [B, 1, H, key_dim]
        out_ltae = ltae(T.Tensor(batch))
        assert np.allclose(out_tae.data, out_ltae.data, atol=1e-12, rtol=0)

    def test_head_width_mismatch_rejected(self):
        schema = canonical_schema("radar")
        with pytest.raises(ConfigError):
            build_encoder(schema, cfg("TAE", heads=3))  # 256 % 3 != 0
        with pytest.raises(ConfigError):
            build_encoder(schema, cfg("TAE", heads=3, attn_width=255, value_split=True))

    def test_value_split_forward_runs(self):
        rng = np.random.default_rng(6)
        enc = build_encoder(canonical_schema("radar"), cfg("LTAE", value_split=True))
        enc.initialize(6)
        enc.set_mode("infer")
        out = enc(T.Tensor(rng.standard_normal((3, 12, 2))))
        assert out.shape == (3, 64)

    @pytest.mark.parametrize("arch", ["TAE", "LTAE"])
    def test_grad_check(self, arch):
        rng = np.random.default_rng(8)
        schema = temporal_schema(2, steps=4)
        enc = build_encoder(schema, cfg(arch))
        enc.initialize(8)
        enc.set_mode("infer")
        proj = T.Tensor(rng.standard_normal((2, 64)))
        res = T.grad_check(lambda x: T.reduce_sum(T.mul(enc(x), proj)),
                           rng.standard_normal((2, 4, 2)))
        assert res.ok, res.max_rel_err


class TestBuildEncoder:
    def test_dispatch(self):
        assert isinstance(build_encoder(canonical_schema("radar"), cfg("GRU")), GRUEncoder)
        assert isinstance(build_encoder(canonical_schema("radar"), cfg("LSTM")), LSTMEncoder)
        assert isinstance(build_encoder(canonical_schema("radar"), cfg("TempCNN")),
                          TempCNNEncoder)
        tae = build_encoder(canonical_schema("radar"), cfg("TAE"))
        ltae = build_encoder(canonical_schema("radar"), cfg("LTAE"))
        assert isinstance(tae, AttentionEncoder) and not tae.learned_query
        assert isinstance(ltae, AttentionEncoder) and ltae.learned_query
        assert isinstance(build_encoder(canonical_schema("topography"), cfg("MLP")),
                          MLPEncoder)

    def test_static_view_requires_mlp(self):
        for arch in ("GRU", "LSTM", "TempCNN", "TAE", "LTAE"):
            with pytest.raises(ConfigError):
                build_encoder(canonical_schema("topography"), cfg(arch))

    def test_temporal_view_rejects_mlp(self):
        with pytest.raises(ConfigError):
            build_encoder(canonical_schema("radar"), cfg("MLP"))

    def test_architecture_roster(self):
        assert set(ARCHITECTURES) == {"LSTM", "GRU", "TempCNN", "TAE", "LTAE", "MLP"}


TEMPORAL_ARCHES = ["GRU", "LSTM", "TempCNN", "TAE", "LTAE"]


class TestCommonInvariants:
    @pytest.mark.parametrize("arch", TEMPORAL_ARCHES)
    def test_embedding_shape(self, arch):
        rng = np.random.default_rng(10)
        enc = build_encoder(canonical_schema("weather"), cfg(arch))
        enc.initialize(10)
        enc.set_mode("infer")
        out = enc(T.Tensor(rng.standard_normal((3, 12, 2))))
        assert out.shape == (3, 64)

    @pytest.mark.parametrize("arch", TEMPORAL_ARCHES)
    def test_infer_mode_deterministic(self, arch):
        rng = np.random.default_rng(11)
        enc = build_encoder(canonical_schema("weather"), cfg(arch))
        enc.initialize(11)
        enc.set_mode("infer")
        x = rng.standard_normal((3, 12, 2))
        a = enc(T.Tensor(x)).data
        b = enc(T.Tensor(x)).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("arch", TEMPORAL_ARCHES)
    def test_batch_permutation_equivariance(self, arch):
        rng = np.random.default_rng(12)
        enc = build_encoder(canonical_schema("weather"), cfg(arch))
        enc.initialize(12)
        enc.set_mode("infer")
        x = rng.standard_normal((5, 12, 2))
        perm = rng.permutation(5)
        full = enc(T.Tensor(x)).data
        permuted = enc(T.Tensor(x[perm])).data
        assert np.allclose(permuted, full[perm], atol=1e-12, rtol=0)

    @pytest.mark.parametrize("arch", ["GRU", "LSTM"])
    def test_recurrent_grad_check(self, arch):
        rng = np.random.default_rng(13)
        schema = temporal_schema(2, steps=3)
        enc = build_encoder(schema, cfg(arch))
        enc.initialize(13)
        enc.set_mode("infer")
        proj = T.Tensor(rng.standard_normal((2, 64)))
        res = T.grad_check(lambda x: T.reduce_sum(T.mul(enc(x), proj)),
                           rng.standard_normal((2, 3, 2)))
        assert res.ok, res.max_rel_err

    @pytest.mark.parametrize("arch", TEMPORAL_ARCHES)
    def test_seeded_init_reproducible(self, arch):
        schema = canonical_schema("weather")
        a = build_encoder(schema, cfg(arch))
        b = build_encoder(schema, cfg(arch))
        a.initialize(21)
        b.initialize(21)
        for name, p in a.named_parameters().items():
            assert np.array_equal(p.data, b.named_parameters()[name].data), name
        c = build_encoder(schema, cfg(arch))
        c.initialize(22)
        assert any(not np.array_equal(p.data, c.named_parameters()[n].data)
                   for n, p in a.named_parameters().items())
