"""Fusion suite: prediction head, merge functions, the five strategy models,
the gated-merge and auxiliary-loss components, the fusion rules, the module
tree walk, and parameter-count formulas."""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from mvcrop import tensor as T
from mvcrop.encoders import EncoderConfig
from mvcrop.errors import ConfigError, ShapeError
from mvcrop.experiments import grid_cells
from mvcrop.fusion import (
    STRATEGIES,
    EnsembleModel,
    GatedMerge,
    PredictionHead,
    align_and_merge_input,
    average_probabilities,
    build_model,
    merge_embeddings,
    multi_loss,
    resolve_merge,
)
from mvcrop.tensor import Parameter
from mvcrop.training import _state
from mvcrop.views import ViewSchema, canonical_schema
from reference import formula_count

RADAR = canonical_schema("radar")
WEATHER = canonical_schema("weather")
TOPO = canonical_schema("topography")
ALL_FIVE = [canonical_schema(n) for n in
            ("optical", "radar", "weather", "ndvi", "topography")]


def cfg(arch: str = "GRU", **kw) -> EncoderConfig:
    kw.setdefault("dropout", 0.0)
    return EncoderConfig(architecture=arch, **kw)


def make_batch(views, batch, seed=0):
    rng = np.random.default_rng(seed)
    return {v.name: rng.standard_normal((batch,) + v.shape) for v in views}


class TestPredictionHead:
    def test_reference_parameter_total(self):
        head = PredictionHead(320, 2, dropout=0.0)
        assert head.parameter_count() == 320 * 64 + 64 + 128 + 64 * 2 + 2 == 20802

    def test_embedding_width_head_total(self):
        head = PredictionHead(64, 2, dropout=0.0)
        assert head.parameter_count() == 64 * 64 + 64 + 128 + 130 == 4418

    def test_rows_on_simplex(self):
        rng = np.random.default_rng(0)
        head = PredictionHead(16, 3, dropout=0.0)
        head.initialize(1)
        head.set_mode("infer")
        probs = head(T.Tensor(rng.standard_normal((7, 16))))
        assert probs.shape == (7, 3)
        assert np.all(probs.data >= 0.0)
        assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)

    def test_grad_check(self):
        rng = np.random.default_rng(2)
        head = PredictionHead(8, 3, dropout=0.0)
        head.initialize(2)
        head.set_mode("train")
        proj = T.Tensor(rng.standard_normal((4, 3)))
        res = T.grad_check(lambda x: T.reduce_sum(T.mul(head(x), proj)),
                           rng.standard_normal((4, 8)))
        assert res.ok, res.max_rel_err


def _gate_weights(gate: GatedMerge, zs) -> np.ndarray:
    """The gate's ``[B, V, width]`` view weights for ``zs``: a softmax over
    views of its linear map of the concatenated inputs."""
    logits = gate.gate(T.concat(zs, axis=1))
    shape = (zs[0].shape[0], gate.views, gate.width)
    return T.softmax(T.reshape(logits, shape), axis=1).data


class TestGatedMerge:
    def test_zero_init_equals_average(self):
        from mvcrop.fusion import average_embeddings
        rng = np.random.default_rng(3)
        gate = GatedMerge(views=3, width=5)
        zs = [T.Tensor(rng.standard_normal((4, 5))) for _ in range(3)]
        fused = gate(zs)
        assert np.array_equal(fused.data, average_embeddings(zs).data)
        mean = np.mean([z.data for z in zs], axis=0)
        assert np.allclose(fused.data, mean, atol=1e-14)
        assert np.allclose(_gate_weights(gate, zs), 1.0 / 3.0, atol=1e-15)

    def test_weights_sum_to_one_across_views(self):
        rng = np.random.default_rng(4)
        gate = GatedMerge(views=4, width=6)
        gate.initialize(4)  # gate weight stays zero-init; bias is zeros
        gate.gate.weight.data[...] = rng.standard_normal(
            gate.gate.weight.data.shape)
        zs = [T.Tensor(rng.standard_normal((3, 6))) for _ in range(4)]
        fused = gate(zs)
        w = _gate_weights(gate, zs)  # [B, V, width]
        assert w.shape == (3, 4, 6)
        assert np.all(w >= 0.0)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
        stacked = np.stack([z.data for z in zs], axis=1)
        assert np.allclose(fused.data, (w * stacked).sum(axis=1), atol=1e-12)

    def test_hand_weighted_sum(self):
        gate = GatedMerge(views=2, width=2)
        ln9 = np.log(9.0)
        gate.gate.bias.data[...] = np.array([ln9, -ln9, 0.0, 0.0])
        z1 = T.Tensor(np.array([[1.0, 1.0]]))
        z2 = T.Tensor(np.array([[0.0, 0.0]]))
        fused = gate([z1, z2])
        assert np.allclose(fused.data, [[0.9, 0.1]], atol=1e-12)

    def test_saturated_gate_selects_view(self):
        rng = np.random.default_rng(5)
        gate = GatedMerge(views=2, width=3)
        gate.gate.bias.data[...] = np.array([50.0] * 3 + [0.0] * 3)
        z1 = T.Tensor(rng.standard_normal((2, 3)))
        z2 = T.Tensor(rng.standard_normal((2, 3)))
        fused = gate([z1, z2])
        assert np.allclose(fused.data, z1.data, atol=1e-9)

    def test_width_mismatch_rejected(self):
        gate = GatedMerge(views=2, width=3)
        with pytest.raises(ShapeError):
            gate([T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 4)))])


class TestInputAlignment:
    def test_five_canonical_views_width_18(self):
        batch = make_batch(ALL_FIVE, 3)
        fused = align_and_merge_input(batch, ALL_FIVE)
        assert fused.shape == (3, 12, 18)

    def test_static_broadcast(self):
        views = [RADAR, TOPO]
        batch = {"radar": np.zeros((1, 12, 2)),
                 "topography": np.array([[7.0, 9.0]])}
        fused = align_and_merge_input(batch, views)
        assert fused.shape == (1, 12, 4)
        assert np.array_equal(fused.data[0, :, 2:],
                              np.tile([7.0, 9.0], (12, 1)))

    def test_single_view_identity(self):
        x = np.random.default_rng(6).standard_normal((2, 12, 2))
        fused = align_and_merge_input({"radar": x}, [RADAR])
        assert np.array_equal(fused.data, x)

    def test_mismatched_steps_rejected(self):
        short = ViewSchema("shortwave", temporal=True, channels=3, steps=10)
        batch = {"radar": np.zeros((2, 12, 2)), "shortwave": np.zeros((2, 10, 3))}
        with pytest.raises(ShapeError):
            align_and_merge_input(batch, [RADAR, short])

    def test_average_merge_requires_equal_widths(self):
        batch = make_batch([RADAR, WEATHER], 2)
        fused = align_and_merge_input(batch, [RADAR, WEATHER], merge="average")
        assert fused.shape == (2, 12, 2)
        expected = 0.5 * (batch["radar"] + batch["weather"])
        assert np.allclose(fused.data, expected, atol=1e-15)
        opt = canonical_schema("optical")
        with pytest.raises(ShapeError):
            align_and_merge_input(make_batch([opt, RADAR], 2), [opt, RADAR],
                                  merge="average")


class TestInputFusion:
    def test_five_view_model_forward(self):
        model = build_model(ALL_FIVE, "Input", cfg("GRU"), classes=2)
        model.initialize(7)
        model.set_mode("infer")
        probs = model.predict(make_batch(ALL_FIVE, 4))
        assert probs.shape == (4, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_fused_schema_width(self):
        model = build_model(ALL_FIVE, "Input", cfg("GRU"), classes=2)
        assert model.encoder.schema.channels == 18
        assert model.encoder.schema.steps == 12

    def test_static_only_input_uses_mlp(self):
        model = build_model([TOPO], "Input", cfg("GRU"), classes=2)
        assert model.encoder.schema == TOPO
        probs = model.predict(make_batch([TOPO], 3))
        assert probs.shape == (3, 2)

    def test_gated_input_merge_rejected(self):
        with pytest.raises(ConfigError):
            build_model([RADAR, WEATHER], "Input", cfg("GRU"), classes=2,
                        merge="gated")


class TestFeatureFusion:
    def test_concat_head_width_five_views(self):
        model = build_model(ALL_FIVE, "Feature", cfg("GRU"), classes=2)
        assert model.head.fc1.weight.shape[0] == 320
        assert model.head.parameter_count() == 20802

    def test_identical_views_average_merge(self):
        model = build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                            merge="average")
        model.initialize(8)
        model.set_mode("infer")
        src = model.encoders["radar"].named_parameters()
        dst = model.encoders["weather"].named_parameters()
        for name, p in src.items():
            dst[name].data[...] = p.data
        x = np.random.default_rng(9).standard_normal((3, 12, 2))
        batch = {"radar": x, "weather": x}
        probs = model.predict(batch)
        z = model.encoders["radar"](T.Tensor(x))
        single = model.head(z).data
        assert np.allclose(probs, single, atol=1e-12)

    def test_gated_zero_init_matches_average_model(self):
        batch = make_batch([RADAR, WEATHER], 3)
        avg = build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                          merge="average")
        gated = build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                            component="gfusion")
        avg.initialize(10)
        gated.initialize(10)
        avg.set_mode("infer")
        gated.set_mode("infer")
        assert np.array_equal(avg.predict(batch), gated.predict(batch))

    def test_multiloss_adds_auxiliary_heads_without_changing_inference(self):
        batch = make_batch([RADAR, WEATHER], 3)
        plain = build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2)
        aux = build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                          component="multiloss")
        plain.initialize(11)
        aux.initialize(11)
        assert aux.parameter_count() > plain.parameter_count()
        assert aux.multiloss_gamma == 0.3
        plain.set_mode("infer")
        aux.set_mode("infer")
        assert np.array_equal(plain.predict(batch), aux.predict(batch))

    def test_multiloss_training_forward_exposes_view_probabilities(self):
        model = build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                            component="multiloss")
        model.initialize(12)
        model.set_mode("train")
        out = model.forward(make_batch([RADAR, WEATHER], 4))
        assert set(out.view_probabilities) == {"radar", "weather"}
        for probs in out.view_probabilities.values():
            assert np.allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)


class TestDecisionFusion:
    def test_average_of_disagreeing_rows(self):
        merged = average_probabilities([
            T.Tensor(np.array([[1.0, 0.0]])), T.Tensor(np.array([[0.0, 1.0]])),
        ])
        assert np.array_equal(merged.data, [[0.5, 0.5]])

    def test_agreement_is_idempotent(self):
        row = np.array([[0.3, 0.7]])
        merged = average_probabilities([T.Tensor(row)] * 3)
        assert np.allclose(merged.data, row, atol=1e-15)

    def test_three_member_average(self):
        merged = average_probabilities([
            T.Tensor(np.array([[1.0, 0.0]])),
            T.Tensor(np.array([[1.0, 0.0]])),
            T.Tensor(np.array([[0.0, 1.0]])),
        ])
        assert np.allclose(merged.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_gated_decision_hand_example(self):
        model = build_model([RADAR, WEATHER], "Decision", cfg("GRU"), classes=2,
                            component="gfusion")
        ln4 = np.log(4.0)  # softmax([ln4, 0]) = [0.8, 0.2]
        model.gate.gate.bias.data[...] = np.array([ln4, ln4, 0.0, 0.0])
        y1 = T.Tensor(np.array([[1.0, 0.0]]))
        y2 = T.Tensor(np.array([[0.0, 1.0]]))
        merged = model.merge_probabilities([y1, y2])
        assert np.allclose(merged.data, [[0.8, 0.2]], atol=1e-12)

    def test_gated_decision_stays_on_simplex(self):
        model = build_model([RADAR, WEATHER], "Decision", cfg("GRU"), classes=3,
                            component="gfusion")
        model.initialize(13)
        model.gate.gate.weight.data[...] = np.random.default_rng(13).standard_normal(
            model.gate.gate.weight.data.shape)
        model.set_mode("infer")
        probs = model.predict(make_batch([RADAR, WEATHER], 5))
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_concat_merge_rejected(self):
        with pytest.raises(ConfigError):
            build_model([RADAR, WEATHER], "Decision", cfg("GRU"), classes=2,
                        merge="concat")


def _hybrid_branches(model, batch) -> tuple[np.ndarray, np.ndarray]:
    """An infer-mode Hybrid model's feature and decision branch
    probabilities, rebuilt from its encoders, ``feature_head`` and view
    heads."""
    zs = [model.encoders[v.name](batch[v.name]) for v in model.views]
    feature = model.feature_head(merge_embeddings(zs, model.merge_kind))
    decision = average_probabilities(
        [model.heads[v.name](z) for v, z in zip(model.views, zs)])
    return feature.data, decision.data


class TestHybridFusion:
    def test_final_is_average_of_branches(self):
        model = build_model([RADAR, WEATHER], "Hybrid", cfg("GRU"), classes=2)
        model.initialize(14)
        model.set_mode("infer")
        batch = make_batch([RADAR, WEATHER], 4)
        out = model.forward(batch)
        feature, decision = _hybrid_branches(model, batch)
        avg = 0.5 * (feature + decision)
        assert np.allclose(out.probabilities.data, avg, atol=1e-15)
        assert np.allclose(out.probabilities.data.sum(axis=1), 1.0, atol=1e-9)

    def test_exposes_native_view_probabilities(self):
        model = build_model([RADAR, WEATHER], "Hybrid", cfg("GRU"), classes=2)
        model.initialize(15)
        model.set_mode("infer")
        out = model.forward(make_batch([RADAR, WEATHER], 2))
        assert set(out.view_probabilities) == {"radar", "weather"}

    def test_shared_encoder_feeds_both_branches(self):
        model = build_model([RADAR, WEATHER], "Hybrid", cfg("GRU"), classes=2)
        model.initialize(16)
        model.set_mode("infer")
        batch = make_batch([RADAR, WEATHER], 2)
        base = _hybrid_branches(model, batch)
        param = model.encoders["radar"].proj.weight
        param.data[0, 0] += 1e-3
        bumped = _hybrid_branches(model, batch)
        assert not np.array_equal(base[0], bumped[0])  # feature branch
        assert not np.array_equal(base[1], bumped[1])  # decision branch


class TestEnsemble:
    def test_single_member_identity(self):
        model = build_model([RADAR], "Ensemble", cfg("GRU"), classes=2)
        model.initialize(17)
        model.set_mode("infer")
        batch = make_batch([RADAR], 3)
        assert np.array_equal(model.predict(batch),
                              model.members["radar"].predict(batch))

    def test_weight_copy_matches_decision_inference(self):
        decision = build_model([RADAR, WEATHER], "Decision", cfg("GRU"), classes=2)
        ensemble = build_model([RADAR, WEATHER], "Ensemble", cfg("GRU"), classes=2)
        decision.initialize(18)
        for view in ("radar", "weather"):
            member = ensemble.members[view]
            enc_src = decision.encoders[view].named_parameters()
            enc_dst = member.encoder.named_parameters()
            for name, p in enc_src.items():
                enc_dst[name].data[...] = p.data
            head_src = decision.heads[view].named_parameters()
            head_dst = member.head.named_parameters()
            for name, p in head_src.items():
                head_dst[name].data[...] = p.data
        decision.set_mode("infer")
        ensemble.set_mode("infer")
        batch = make_batch([RADAR, WEATHER], 4)
        assert np.allclose(decision.predict(batch), ensemble.predict(batch),
                           atol=1e-12, rtol=0)

    def test_incomplete_ensemble_rejected(self):
        full = build_model([RADAR, WEATHER], "Ensemble", cfg("GRU"), classes=2)
        with pytest.raises(ConfigError):
            EnsembleModel([RADAR, WEATHER], {"radar": full.members["radar"]})


class TestMultiLoss:
    def test_reference_arithmetic(self):
        fused = T.Tensor(1.0)
        views = [T.Tensor(1.0) for _ in range(5)]
        total = multi_loss(fused, views, gamma=0.3)
        assert abs(float(total.data) - 2.5) < 1e-12

    def test_gamma_zero_reduces_to_fused(self):
        fused = T.Tensor(1.7)
        total = multi_loss(fused, [], gamma=0.0)
        assert float(total.data) == 1.7

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            multi_loss(T.Tensor(1.0), [T.Tensor(1.0)], gamma=-0.1)

    def test_missing_view_losses_rejected(self):
        with pytest.raises(ConfigError):
            multi_loss(T.Tensor(1.0), [], gamma=0.3)

    def test_gradient_path_isolation(self):
        a = T.Tensor(2.0, requires_grad=True)
        b = T.Tensor(3.0, requires_grad=True)
        with T.Tape() as tape:
            fused = T.mul(a, 0.0)
            view = T.mul(b, 3.0)
            total = multi_loss(fused, [view], gamma=0.3)
        T.backward(total, tape)
        assert a.grad == 0.0
        assert abs(b.grad - 0.9) < 1e-12


class TestFusionRules:
    @pytest.mark.parametrize("strategy,component,merge", [
        ("Input", None, "average"),
        ("Feature", None, "gated"),
        ("Feature", "multiloss", "average"),
        ("Decision", None, "gated"),
        ("Hybrid", "none", "gated"),
        ("Ensemble", None, "average"),
        ("Decision", "gfusion", "gated"),
    ])
    def test_explicit_legal_merge_kept(self, strategy, component, merge):
        assert resolve_merge(strategy, component, merge) == merge

    @pytest.mark.parametrize("strategy,component,merge", [
        ("Input", None, "gated"),
        ("Decision", None, "concat"),
        ("Hybrid", None, "concat"),
        ("Ensemble", None, "gated"),
        ("Ensemble", None, "concat"),
        ("Feature", None, "median"),
        ("Feature", "gfusion", "average"),
    ])
    def test_illegal_choice_rejected(self, strategy, component, merge):
        with pytest.raises(ConfigError):
            resolve_merge(strategy, component, merge)


def _lookup(module, path: str):
    """Follow a dotted attribute path through modules, lists and dicts."""
    obj = module
    for part in path.split("."):
        if isinstance(obj, dict):
            obj = obj[part]
        elif isinstance(obj, (list, tuple)):
            obj = obj[int(part)]
        else:
            obj = getattr(obj, part)
    return obj


class TestModuleWalk:
    def test_walkers_agree_on_hybrid_gated_model(self):
        model = build_model([RADAR, WEATHER, TOPO], "Hybrid", cfg("GRU"),
                            classes=2, component="gfusion")
        modules = list(model.modules())
        assert modules[0] is model
        assert len({id(m) for m in modules}) == len(modules)
        owner = {}  # id of a parameter or buffer -> index of its module
        for index, m in enumerate(modules):
            for obj in vars(m).values():
                if isinstance(obj, Parameter):
                    owner[id(obj)] = index
            for arr in getattr(m, "_buffers", {}).values():
                owner[id(arr)] = index

        params = model.named_parameters()
        buffers = model.named_buffers()
        assert len(params) + len(buffers) == len(owner)
        assert "gate.gate.weight" in params
        assert "feature_head.norm.running_mean" in buffers
        assert "heads.topography.norm.running_var" in buffers
        for named in (params, buffers):
            owners = [owner[id(x)] for x in named.values()]
            assert owners == sorted(owners)
        for name, p in params.items():
            assert _lookup(model, name) is p
        for name, arr in buffers.items():
            path, key = name.rsplit(".", 1)
            assert _lookup(model, path)._buffers[key] is arr


class TestCheckpointLayout:
    """A checkpoint stores its entries in ``_state`` order, so the ordered
    ``(kind, name, shape)`` list of every grid cell is pinned: reordering a
    model's attributes would change checkpoint bytes."""

    @staticmethod
    def _layout(names, strategy, encoder, component="none", merge=None):
        model = build_model([canonical_schema(n) for n in names], strategy,
                            EncoderConfig(encoder), classes=2, merge=merge,
                            component=component)
        return [(kind, name, arr.shape)
                for (kind, name), arr in _state(model).items()]

    def test_grid_cells_and_average_merges(self):
        four = ("optical", "radar", "weather", "topography")
        layouts = [self._layout(four, c.strategy, c.encoder, c.component)
                   for c in grid_cells("LTAE")]
        layouts += [self._layout(("radar", "weather"), strategy, "GRU",
                                 merge="average")
                    for strategy in ("Input", "Feature")]
        assert len(layouts) == 33
        digest = hashlib.sha256(repr(layouts).encode()).hexdigest()
        assert digest == ("7eeab2f1b3c429b234f81c68372d50c7"
                          "98684ae48609affa873d4f0bc1e81378")


class TestComponentLegality:
    @pytest.mark.parametrize("component", ["gfusion", "multiloss"])
    @pytest.mark.parametrize("strategy", ["Input", "Ensemble"])
    def test_rejected_strategies(self, strategy, component):
        with pytest.raises(ConfigError):
            build_model([RADAR, WEATHER], strategy, cfg("GRU"), classes=2,
                        component=component)

    @pytest.mark.parametrize("component", ["gfusion", "multiloss"])
    @pytest.mark.parametrize("strategy", ["Feature", "Decision", "Hybrid"])
    def test_allowed_strategies(self, strategy, component):
        model = build_model([RADAR, WEATHER], strategy, cfg("GRU"), classes=2,
                            component=component)
        assert model is not None

    def test_unknown_component_rejected(self):
        with pytest.raises(ConfigError):
            build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                        component="attention")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError):
            build_model([RADAR, WEATHER], "Stacking", cfg("GRU"), classes=2)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ConfigError):
            build_model([RADAR, WEATHER], "Feature", cfg("GRU"), classes=2,
                        component="multiloss", gamma=-0.1)


class TestParameterFormulas:
    def test_formula_values(self):
        assert formula_count("Input", 10, 3, 4) == 13
        assert formula_count("Feature", 10, 3, 4) == 43
        assert formula_count("Decision", 10, 3, 4) == 52
        assert formula_count("Ensemble", 10, 3, 4) == 52
        assert formula_count("Hybrid", 10, 3, 4) == 55

    @pytest.mark.parametrize("strategy", ["Input", "Feature", "Decision",
                                          "Ensemble", "Hybrid"])
    def test_assembled_counts_match_formulas(self, strategy):
        views = [RADAR, WEATHER]
        merge = "average" if strategy in ("Input", "Feature") else None
        model = build_model(views, strategy, cfg("GRU"), classes=2, merge=merge)
        n_e = 42176  # GRU over a 2-channel view
        n_p = 4418   # embedding-width head, K=2
        assert model.parameter_count() == formula_count(strategy, n_e, n_p, 2)

    def test_strategy_roster(self):
        assert set(STRATEGIES) == {"Input", "Feature", "Decision", "Hybrid",
                                   "Ensemble"}


class TestSimplexInvariant:
    @pytest.mark.parametrize("strategy", ["Input", "Feature", "Decision",
                                          "Ensemble", "Hybrid"])
    def test_predictions_on_simplex(self, strategy):
        views = [RADAR, WEATHER, TOPO]
        model = build_model(views, strategy, cfg("GRU"), classes=3)
        model.initialize(19)
        model.set_mode("infer")
        probs = model.predict(make_batch(views, 6))
        assert probs.shape == (6, 3)
        assert np.all(probs >= 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
