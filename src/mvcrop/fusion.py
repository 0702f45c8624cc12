"""Multi-view fusion: five strategies over per-view encoders and heads.

Strategies differ in where views meet: Input (raw channels), Feature
(embeddings), Decision (class probabilities), Hybrid (feature + decision
branches over shared encoders), Ensemble (independently trained single-view
models, averaged at inference). Two optional components attach to the
Feature/Decision/Hybrid strategies: a gated merge that learns per-feature
view weights, and an auxiliary-loss term that adds per-view supervision.

Every view merge, of raw channels or of embeddings, joins the views along
their last axis: ``concat`` directly, ``average`` and ``gated`` through one
stacking helper. The average merge and the zero-initialised gated merge
intentionally share one arithmetic path (multiply by the per-view weight,
then sum over the view axis) so that a freshly built gated model is
bit-identical to the plain average model.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .encoders import Encoder, EncoderConfig, build_encoder
from .errors import ConfigError, ShapeError
from .layers import BatchNorm, Dropout, Linear, Module
from .tensor import (
    Tensor,
    as_tensor,
    branches,
    broadcast_to,
    concat,
    reduce_sum,
    relu,
    reshape,
    softmax,
)
from .views import ViewSchema

# The fusion rules. Each strategy lists the merges it accepts, default
# first; a component attaches only to the strategies named for it.
MERGES = {
    "Input": ("concat", "average"),
    "Feature": ("concat", "average", "gated"),
    "Decision": ("average", "gated"),
    "Hybrid": ("average", "gated"),
    "Ensemble": ("average",),
}
STRATEGIES = tuple(MERGES)
COMPONENTS = ("gfusion", "multiloss")
COMPONENT_STRATEGIES = ("Feature", "Decision", "Hybrid")


def resolve_merge(strategy: str, component: str | None = None,
                  merge: str | None = None) -> str:
    """The merge a strategy runs with, after checking the whole choice.

    ``component`` is a name from COMPONENTS, or None/"none" for no
    component. The gated-merge component forces ``gated``; otherwise no
    merge means the strategy's default. Any choice outside the rules above
    raises ConfigError.
    """
    if strategy not in MERGES:
        raise ConfigError(f"unknown strategy {strategy!r}; known: {STRATEGIES}")
    if component not in (None, "none"):
        if component not in COMPONENTS:
            raise ConfigError(
                f"unknown component {component!r}; known: {COMPONENTS}")
        if strategy not in COMPONENT_STRATEGIES:
            raise ConfigError(
                f"component {component!r} attaches only to "
                f"{COMPONENT_STRATEGIES}, not {strategy!r}")
    if component == "gfusion":
        if merge not in (None, "gated"):
            raise ConfigError(
                f"gated-merge component conflicts with merge={merge!r}")
        return "gated"
    accepted = MERGES[strategy]
    if merge is None:
        return accepted[0]
    if merge not in accepted:
        raise ConfigError(
            f"{strategy} fusion accepts merge {accepted}, got {merge!r}")
    return merge


@dataclass
class FusionOutputs:
    """Forward-pass bundle: final probabilities plus any per-view/branch ones."""

    probabilities: Tensor
    view_probabilities: dict[str, Tensor] | None = None


# width of a prediction head's hidden layer
HEAD_HIDDEN = 64


class PredictionHead(Module):
    """Linear -> batch-norm -> relu -> dropout -> linear -> softmax."""

    def __init__(self, in_dim: int, classes: int, dropout: float = 0.2) -> None:
        if classes < 2:
            raise ConfigError(f"need at least 2 classes, got {classes}")
        self.fc1 = Linear(in_dim, HEAD_HIDDEN)
        self.norm = BatchNorm(HEAD_HIDDEN)
        self.drop = Dropout(dropout)
        self.fc2 = Linear(HEAD_HIDDEN, classes)

    def forward(self, x: Tensor, rng=None) -> Tensor:
        h = relu(self.norm(self.fc1(x)))
        return softmax(self.fc2(self.drop(h, rng)), axis=1)

    __call__ = forward


def _equal_width(widths) -> int:
    """The one width that stacked or averaged views must share."""
    widths = set(widths)
    if len(widths) != 1:
        raise ShapeError(f"merged views must share width, got {sorted(widths)}")
    return widths.pop()


def _stack_views(zs: list[Tensor]) -> Tensor:
    """[..., w] per view -> [..., V, w], joined along the last axis."""
    width = _equal_width(z.shape[-1] for z in zs)
    joint = concat(zs, axis=-1)
    return reshape(joint, joint.shape[:-1] + (len(zs), width))


class GatedMerge(Module):
    """Per-feature view weighting from a zero-initialised linear gate.

    The gate maps the concatenated representations to one logit per
    (view, feature) pair; a softmax across views turns these into convex
    weights at every feature position.
    """

    def __init__(self, views: int, width: int) -> None:
        self.views = views
        self.width = width
        self.gate = Linear(views * width, views * width, zero_init=True)

    def forward(self, zs: list[Tensor]) -> Tensor:
        stacked = _stack_views(zs)
        if stacked.shape[1:] != (self.views, self.width):
            raise ShapeError(f"gate expects {self.views} views of width "
                             f"{self.width}, got {stacked.shape[1:]}")
        # a concat of its own: sharing the stack's changes gradient bits
        logits = self.gate(concat(zs, axis=1))
        alpha = softmax(reshape(logits, stacked.shape), axis=1)
        return reduce_sum(alpha * stacked, axis=1)

    __call__ = forward


def average_embeddings(zs: list[Tensor]) -> Tensor:
    return reduce_sum(_stack_views(zs) * (1.0 / len(zs)), axis=-2)


def average_probabilities(ys: list[Tensor]) -> Tensor:
    """Mean of probability rows; the mean of simplex points stays on it."""
    if not ys:
        raise ConfigError("cannot average an empty prediction list")
    return sum(ys[1:], ys[0]) * (1.0 / len(ys))


def merge_embeddings(zs: list[Tensor], kind: str,
                     gate: GatedMerge | None = None) -> Tensor:
    """Merge per-view tensors along their last axis with a merge that
    ``resolve_merge`` accepted; ``gated`` runs the model's gate."""
    if kind == "concat":
        return concat(zs, axis=-1)
    if kind == "average":
        return average_embeddings(zs)
    return gate(zs)


def _take(batch: dict, name: str):
    if name not in batch:
        raise ShapeError(f"batch missing view {name!r}")
    return batch[name]


def align_and_merge_input(batch: dict, views: list[ViewSchema],
                          merge: str = "concat") -> Tensor:
    """Broadcast static views along time and merge raw channels.

    Temporal views must agree on the number of steps; static views are
    repeated at every step. With one view this is the identity.
    """
    tensors: list[Tensor] = []
    steps = None
    batch_size = None
    for v in views:
        arr = as_tensor(_take(batch, v.name))
        if v.temporal:
            if arr.ndim != 3 or arr.shape[2] != v.channels:
                raise ShapeError(f"view {v.name!r}: expected [B, T, {v.channels}], "
                                 f"got {arr.shape}")
            if steps is None:
                steps = arr.shape[1]
            elif arr.shape[1] != steps:
                raise ShapeError(
                    f"view {v.name!r}: {arr.shape[1]} steps, others have {steps}")
        elif arr.ndim != 2 or arr.shape[1] != v.channels:
            raise ShapeError(f"view {v.name!r}: expected [B, {v.channels}], "
                             f"got {arr.shape}")
        if batch_size is None:
            batch_size = arr.shape[0]
        elif arr.shape[0] != batch_size:
            raise ShapeError("views disagree on batch size")
        tensors.append(arr)
    if len(views) == 1:
        return tensors[0]
    if steps is not None:
        tensors = [arr if v.temporal else
                   broadcast_to(reshape(arr, (batch_size, 1, v.channels)),
                                (batch_size, steps, v.channels))
                   for v, arr in zip(views, tensors)]
    return merge_embeddings(tensors, merge)


def _encoder_for(view: ViewSchema, config: EncoderConfig) -> Encoder:
    """Temporal views use the configured architecture, static views an MLP."""
    if view.temporal:
        return build_encoder(view, config)
    return build_encoder(view, replace(config, architecture="MLP"))


# Rows times encoder width (``hidden``) from which a model's work may go to
# a helper thread: each view's encoder within a batch, or whole batches of
# an untaped loop. Below it, handing work to another thread can cost more
# than it saves. Measured on two CPUs, the GRU, whose gain comes last,
# breaks even between 2048 and 8192 at widths 4 to 64 (BENCH_21.json), and
# the GRU and LSTM batches of a prediction loop between 4096 and 8192
# (BENCH_23.json).
SPREAD_WORK = 6144


class MVLModel(Module):
    """Base for all strategy models: forward to FusionOutputs, plain predict."""

    strategy = ""
    multiloss_gamma: float = 0.0
    width: int  # the encoders' width (``hidden``), set by every strategy

    def spreads(self, rows: int) -> bool:
        """Whether ``rows`` rows through the encoders are work enough for a
        helper thread (``SPREAD_WORK``)."""
        return rows * self.width >= SPREAD_WORK

    def forward(self, batch: dict, rng=None) -> FusionOutputs:
        raise NotImplementedError

    def predict(self, batch: dict) -> np.ndarray:
        """Probabilities in infer mode. ``set_mode`` sets every module, so
        the root's mode stands for the tree's and a model already in infer
        mode is not walked again."""
        if self.mode != "infer":
            self.set_mode("infer")
        return self.forward(batch).probabilities.data.copy()

    def __call__(self, batch: dict, rng=None) -> FusionOutputs:
        return self.forward(batch, rng)


class InputFusion(MVLModel):
    """Merge raw view channels, then run one encoder and one head."""

    strategy = "Input"

    def __init__(self, views: list[ViewSchema], config: EncoderConfig,
                 classes: int, merge: str = "concat") -> None:
        self.views = list(views)
        self.merge_kind = merge
        steps = {v.steps for v in views if v.temporal}
        if len(steps) > 1:
            raise ConfigError(f"temporal views disagree on steps: {sorted(steps)}")
        channels = (sum(v.channels for v in views) if merge == "concat"
                    else _equal_width(v.channels for v in views))
        # one view keeps its own schema; merged views become one "fused" view
        fused = ViewSchema(views[0].name if len(views) == 1 else "fused",
                           temporal=bool(steps), channels=channels,
                           steps=max(steps, default=None))
        self.encoder = _encoder_for(fused, config)
        self.width = config.hidden
        self.head = PredictionHead(config.embedding_dim, classes,
                                   dropout=config.dropout)

    def forward(self, batch: dict, rng=None) -> FusionOutputs:
        merged = align_and_merge_input(batch, self.views, self.merge_kind)
        z = self.encoder.drop(self.encoder(merged), rng)
        return FusionOutputs(probabilities=self.head(z, rng))


class _PerViewFusion(MVLModel):
    """One encoder per view; the Feature, Decision and Hybrid strategies.

    The encoders run as concurrent branches (``tensor.branches``), before
    any dropout. It defines no ``forward``: each strategy keeps its own,
    which fixes the order in which the encoders' and heads' dropout masks
    are drawn.
    """

    def __init__(self, views: list[ViewSchema], config: EncoderConfig,
                 classes: int, merge: str) -> None:
        self.views = list(views)
        self.merge_kind = merge
        self.classes = classes
        self.width = config.hidden
        self.encoders = {v.name: _encoder_for(v, config) for v in views}

    def _view_heads(self, config: EncoderConfig) -> dict[str, PredictionHead]:
        return {v.name: PredictionHead(config.embedding_dim, self.classes,
                                       dropout=config.dropout)
                for v in self.views}

    def _encode(self, batch: dict) -> list[Tensor]:
        """Every view's embedding before dropout, in view order."""
        xs = [_take(batch, v.name) for v in self.views]
        return branches([partial(self.encoders[v.name], x)
                         for v, x in zip(self.views, xs)],
                        self.spreads(xs[0].shape[0]))

    def _embed(self, batch: dict, rng) -> list[Tensor]:
        """Every view's embedding after its dropout, in view order."""
        return [self.encoders[v.name].drop(z, rng)
                for v, z in zip(self.views, self._encode(batch))]


class FeatureFusion(_PerViewFusion):
    """Per-view encoders, merged embeddings, one prediction head.

    With the auxiliary-loss component, per-view heads produce extra training
    predictions from each embedding; they are skipped at inference and when
    the auxiliary weight is zero.
    """

    strategy = "Feature"

    def __init__(self, views: list[ViewSchema], config: EncoderConfig,
                 classes: int, merge: str = "concat", aux_heads: bool = False) -> None:
        super().__init__(views, config, classes, merge)
        width = config.embedding_dim
        if merge == "gated":
            self.gate = GatedMerge(len(views), width)
        head_in = width * len(views) if merge == "concat" else width
        self.head = PredictionHead(head_in, classes, dropout=config.dropout)
        self.aux_heads = self._view_heads(config) if aux_heads else None

    def forward(self, batch: dict, rng=None) -> FusionOutputs:
        zs = self._embed(batch, rng)
        fused = merge_embeddings(zs, self.merge_kind, getattr(self, "gate", None))
        probs = self.head(fused, rng)
        view_probs = None
        if (self.aux_heads is not None and self.mode == "train"
                and self.multiloss_gamma > 0):
            view_probs = {v.name: self.aux_heads[v.name](z, rng)
                          for v, z in zip(self.views, zs)}
        return FusionOutputs(probabilities=probs, view_probabilities=view_probs)


class DecisionFusion(_PerViewFusion):
    """Per-view encoder+head pairs; class probabilities merged across views."""

    strategy = "Decision"

    def __init__(self, views: list[ViewSchema], config: EncoderConfig,
                 classes: int, merge: str = "average") -> None:
        super().__init__(views, config, classes, merge)
        self.heads = self._view_heads(config)
        if merge == "gated":
            self.gate = GatedMerge(len(views), classes)

    def merge_probabilities(self, ys: list[Tensor]) -> Tensor:
        if self.merge_kind == "gated":
            mixed = self.gate(ys)
            # per-feature weights do not preserve row sums; renormalise
            return mixed / reduce_sum(mixed, axis=1, keepdims=True)
        return average_probabilities(ys)

    def forward(self, batch: dict, rng=None) -> FusionOutputs:
        # each view draws its encoder's and then its head's masks before the
        # next view
        view_probs = {
            v.name: self.heads[v.name](self.encoders[v.name].drop(z, rng), rng)
            for v, z in zip(self.views, self._encode(batch))}
        fused = self.merge_probabilities(list(view_probs.values()))
        return FusionOutputs(probabilities=fused, view_probabilities=view_probs)


class HybridFusion(_PerViewFusion):
    """Feature and decision branches over shared per-view encoders.

    The final prediction is the unweighted average of the two branch
    probability rows.
    """

    strategy = "Hybrid"

    def __init__(self, views: list[ViewSchema], config: EncoderConfig,
                 classes: int, merge: str = "average") -> None:
        super().__init__(views, config, classes, merge)
        self.heads = self._view_heads(config)
        if merge == "gated":
            self.gate = GatedMerge(len(views), config.embedding_dim)
        self.feature_head = PredictionHead(config.embedding_dim, classes,
                                           dropout=config.dropout)

    def forward(self, batch: dict, rng=None) -> FusionOutputs:
        zs = self._embed(batch, rng)
        fused_z = merge_embeddings(zs, self.merge_kind, getattr(self, "gate", None))
        feature_probs = self.feature_head(fused_z, rng)
        view_probs = {v.name: self.heads[v.name](z, rng)
                      for v, z in zip(self.views, zs)}
        decision_probs = average_probabilities(list(view_probs.values()))
        final = average_probabilities([feature_probs, decision_probs])
        return FusionOutputs(probabilities=final, view_probabilities=view_probs)


class EnsembleModel(MVLModel):
    """Independent single-view models; predictions averaged at inference."""

    strategy = "Ensemble"

    def __init__(self, views: list[ViewSchema],
                 members: dict[str, InputFusion]) -> None:
        names = {v.name for v in views}
        if set(members) != names:
            missing = sorted(names - set(members)) + sorted(set(members) - names)
            raise ConfigError(f"incomplete ensemble, mismatched members: {missing}")
        self.views = list(views)
        self.members = dict(members)
        self.width = self.members[self.views[0].name].width

    def forward(self, batch: dict, rng=None) -> FusionOutputs:
        outs = [self.members[v.name].forward(batch, rng).probabilities
                for v in self.views]
        return FusionOutputs(probabilities=average_probabilities(outs))


def multi_loss(fused_loss: Tensor, view_losses: list[Tensor],
               gamma: float = 0.3) -> Tensor:
    """Fused loss plus gamma times the sum of per-view losses."""
    if gamma < 0:
        raise ConfigError(f"auxiliary loss weight must be >= 0, got {gamma}")
    if gamma == 0:
        return fused_loss
    if not view_losses:
        raise ConfigError("per-view losses required when the auxiliary weight is > 0")
    return fused_loss + sum(view_losses[1:], view_losses[0]) * gamma


def build_model(views: list[ViewSchema], strategy: str, config: EncoderConfig,
                classes: int, merge: str | None = None,
                component: str | None = None, gamma: float = 0.3) -> MVLModel:
    """Assemble a strategy model, optionally with one attached component."""
    merge = resolve_merge(strategy, component, merge)
    if gamma < 0:
        raise ConfigError(f"auxiliary loss weight must be >= 0, got {gamma}")
    if not views:
        raise ConfigError("need at least one view")
    names = [v.name for v in views]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate view names: {names}")
    if strategy == "Ensemble":
        model: MVLModel = EnsembleModel(
            views, {v.name: InputFusion([v], config, classes) for v in views})
    elif strategy == "Input":
        model = InputFusion(views, config, classes, merge)
    elif strategy == "Feature":
        model = FeatureFusion(views, config, classes, merge,
                              aux_heads=(component == "multiloss"))
    elif strategy == "Decision":
        model = DecisionFusion(views, config, classes, merge)
    else:
        model = HybridFusion(views, config, classes, merge)
    if component == "multiloss":
        model.multiloss_gamma = gamma
    return model
