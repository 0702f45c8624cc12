"""Optimization: class-weighted cross-entropy, Adam, mini-batch training with
a seeded validation split and early stopping, ensemble training, and binary
checkpoints."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from . import container
from .data import Dataset
from .errors import ConfigError, FormatError, NumericError, ShapeError, check_fields
from .fusion import EnsembleModel, multi_loss
from .rngutil import member_seed, named_stream
from .tensor import (Parameter, Tape, Tensor, backward, branches, weighted_nll,
                     weighted_nll_sum)

__all__ = [
    "Adam",
    "TrainConfig",
    "TrainResult",
    "class_weights",
    "early_stop_schedule",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "train_ensemble",
    "validation_split",
    "weighted_cross_entropy",
]


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def class_weights(labels, classes: int) -> np.ndarray:
    """Per-class weights ``K * (1/f_k) / sum_j (1/f_j)`` from label frequencies.

    The weights sum to the class count; balanced labels give exactly 1.
    """
    arr = np.asarray(labels)
    if arr.dtype.kind not in "iu":
        raise ConfigError("labels must be integers")
    if arr.size == 0:
        raise ConfigError("cannot derive class weights from zero labels")
    if arr.min() < 0 or arr.max() >= classes:
        raise ConfigError(f"labels must lie in [0, {classes})")
    counts = np.bincount(arr, minlength=classes)
    if np.any(counts == 0):
        empties = np.flatnonzero(counts == 0).tolist()
        raise ConfigError(f"degenerate class(es) with zero samples: {empties}")
    freq = counts / counts.sum()
    inv = 1.0 / freq
    return classes * inv / inv.sum()


def weighted_cross_entropy(probabilities, labels, weights=None) -> Tensor:
    """Mean over the batch of ``w[y_i] * (-log p[i, y_i])``.

    ``probabilities`` are class probabilities ``[B, K]`` (rows on the
    simplex); the log argument is clamped at 1e-12. Differentiable through
    the probabilities: one record that gathers each row's label column.
    """
    probs = probabilities if isinstance(probabilities, Tensor) else Tensor(np.asarray(probabilities, dtype=np.float64))
    if probs.ndim != 2:
        raise ShapeError(f"probabilities must be [B, K], got shape {probs.shape}")
    batch, classes = probs.shape
    y = np.asarray(labels)
    if y.dtype.kind not in "iu":
        raise ConfigError("labels must be integers")
    if y.shape != (batch,):
        raise ShapeError(f"labels must have shape ({batch},), got {y.shape}")
    if y.size and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= classes):
        raise ConfigError(f"labels must lie in [0, {classes})")
    if weights is None:
        w = np.ones(classes, dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (classes,):
            raise ShapeError(f"weights must have shape ({classes},), got {w.shape}")
    return weighted_nll(probs, y, w)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


# Adam's moment decay rates and the denominator's epsilon
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction: ``theta -= lr * mhat / (sqrt(vhat) + EPS)``."""

    def __init__(self, lr: float = 1e-3) -> None:
        if lr <= 0:
            raise ConfigError("learning rate must be positive")
        self.lr = lr
        self.state: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step_count = 0

    def step(self, params: Mapping[str, Parameter]) -> None:
        """Apply one update to every parameter that has a gradient."""
        self.step_count += 1
        t = self.step_count
        for name, param in params.items():
            grad = param.grad
            if grad is None:
                continue
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient for parameter {name!r}")
            if name in self.state:
                m, v = self.state[name]
            else:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = BETA1 * m + (1.0 - BETA1) * grad
            v = BETA2 * v + (1.0 - BETA2) * grad * grad
            self.state[name] = (m, v)
            mhat = m / (1.0 - BETA1 ** t)
            vhat = v / (1.0 - BETA2 ** t)
            param.data = param.data - self.lr * mhat / (np.sqrt(vhat) + EPS)


# ---------------------------------------------------------------------------
# config and splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training protocol."""

    batch_size: int = 256
    max_epochs: int = 100
    patience: int = 5
    validation_fraction: float = 0.1
    learning_rate: float = 1e-3
    min_delta: float = 0.0
    class_weighting: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2")
        if self.max_epochs < 1:
            raise ConfigError("max epochs must be at least 1")
        if self.patience < 1:
            raise ConfigError("patience must be at least 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation fraction must lie in (0, 1)")
        if self.learning_rate <= 0:
            raise ConfigError("learning rate must be positive")
        if self.min_delta < 0:
            raise ConfigError("min delta must be non-negative")


def validation_split(dataset: Dataset, fraction: float, seed: int):
    """Seeded uniform split into ``(train, validation)``; disjoint, exhaustive."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"validation fraction must lie in (0, 1), got {fraction}")
    n = len(dataset)
    if n < 2:
        raise ConfigError("need at least two samples to hold out validation data")
    n_val = int(np.floor(n * fraction + 0.5))
    n_val = min(max(n_val, 1), n - 1)
    perm = named_stream(seed, "validation-split").permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return dataset.subset(train_idx), dataset.subset(val_idx)


# ---------------------------------------------------------------------------
# early stopping
# ---------------------------------------------------------------------------


def early_stop_schedule(val_losses: Sequence[float], patience: int,
                        min_delta: float = 0.0) -> tuple[int, int]:
    """Apply the early-stopping rule to a loss sequence.

    Returns ``(epochs_run, best_epoch)`` (both 1-based): training stops after
    ``patience`` consecutive epochs without a strict improvement over the
    best seen loss minus ``min_delta``.
    """
    best = np.inf
    best_epoch = 0
    bad = 0
    epoch = 0
    for epoch, loss in enumerate(val_losses, start=1):
        if loss < best - min_delta:
            best = loss
            best_epoch = epoch
            bad = 0
        else:
            bad += 1
            if bad >= patience:
                return epoch, best_epoch
    return epoch, best_epoch


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainResult:
    """Per-epoch loss history plus run bookkeeping."""

    train_loss: tuple
    val_loss: tuple
    best_epoch: int
    epochs_run: int
    stopped_early: bool
    wall_clock: float
    seed: int


def _dataset_loss(model, dataset: Dataset, weights, batch_size: int) -> float:
    """Exact mean weighted negative log-likelihood over ``dataset`` (inference
    mode). The batches run as concurrent branches (``tensor.branches``), and
    their sums are added in batch order."""
    if model.mode != "infer":
        model.set_mode("infer")
    n = len(dataset)
    w = np.ones(dataset.classes) if weights is None else weights

    def batch_sum(start: int) -> float:
        idx = np.arange(start, min(start + batch_size, n))
        probs = model.forward(dataset.batch(idx)).probabilities.data
        return float(weighted_nll_sum(probs, dataset.labels[idx], w))

    return sum(branches([partial(batch_sum, start)
                         for start in range(0, n, batch_size)],
                        model.spreads(batch_size))) / n


def train(model, dataset: Dataset, config: TrainConfig) -> TrainResult:
    """Fit ``model`` on ``dataset`` in place and return the loss history.

    Per epoch: seeded shuffle, mini-batches (trailing size-1 batches are
    dropped), forward, class-weighted cross-entropy (plus the per-view
    multi-loss term when the model carries a positive ``multiloss_gamma``),
    backward, Adam. Validation loss is measured at every epoch end; training
    stops by ``early_stop_schedule`` and the best-validation parameters (and
    normalization buffers) are restored.
    """
    started = time.perf_counter()
    if np.unique(dataset.labels).size < 2:
        raise ConfigError("degenerate task: training data covers a single class")

    train_part, val_part = validation_split(dataset, config.validation_fraction, config.seed)
    if np.unique(train_part.labels).size < 2:
        raise ConfigError("degenerate task: training split covers a single class")
    weights = (
        class_weights(train_part.labels, dataset.classes)
        if config.class_weighting
        else None
    )

    rng = named_stream(config.seed, "train")
    params = model.named_parameters()
    optimizer = Adam(lr=config.learning_rate)
    gamma = float(getattr(model, "multiloss_gamma", 0.0))

    n_train = len(train_part)

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_epoch = 0
    best_state = _copy_state(model)

    for epoch in range(1, config.max_epochs + 1):
        model.set_mode("train")
        order = rng.permutation(n_train)
        running = 0.0
        seen = 0
        for start in range(0, n_train, config.batch_size):
            chunk = order[start : start + config.batch_size]
            if chunk.size == 1:
                continue  # drop the trailing singleton batch
            y = train_part.labels[chunk]
            with Tape() as tape:
                outputs = model.forward(train_part.batch(chunk), rng)
                loss = weighted_cross_entropy(outputs.probabilities, y, weights)
                if gamma > 0:
                    view_probs = outputs.view_probabilities
                    if not view_probs:
                        raise ConfigError(
                            "multi-loss training needs per-view probabilities"
                        )
                    view_losses = [
                        weighted_cross_entropy(p, y, weights)
                        for p in view_probs.values()
                    ]
                    loss = multi_loss(loss, view_losses, gamma)
                backward(loss, tape)
            optimizer.step(params)
            for param in params.values():
                param.grad = None
            running += loss.data.item() * chunk.size
            seen += chunk.size
        train_losses.append(running / seen)

        val_losses.append(_dataset_loss(model, val_part, weights, config.batch_size))
        _, best_epoch = early_stop_schedule(val_losses, config.patience, config.min_delta)
        if best_epoch == epoch:
            best_state = _copy_state(model)
        elif epoch - best_epoch >= config.patience:
            break

    _load_state(model, best_state)
    model.set_mode("infer")
    return TrainResult(
        train_loss=tuple(train_losses),
        val_loss=tuple(val_losses),
        best_epoch=best_epoch,
        epochs_run=len(val_losses),
        stopped_early=len(val_losses) - best_epoch >= config.patience,
        wall_clock=time.perf_counter() - started,
        seed=config.seed,
    )


def train_ensemble(model, dataset: Dataset, config: TrainConfig) -> dict:
    """Train every ensemble member on its own view with a derived seed.

    Each member is (re)initialized from its per-view seed and trained on the
    single-view restriction of ``dataset``, exactly as an isolated
    single-view model would be.
    """
    if not isinstance(model, EnsembleModel):
        raise ConfigError("ensemble training expects an ensemble model")
    results = {}
    for schema in model.views:
        seed = member_seed(config.seed, schema.name)
        member = model.members[schema.name]
        member.initialize(seed)
        results[schema.name] = train(
            member,
            dataset.restrict([schema.name]),
            replace(config, seed=seed),
        )
    return results


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"MVLC"
_CKPT_SPEC = {"entries": [{"name": str, "kind": str, "shape": [int]}], "extra": dict}


def _state(model) -> dict:
    """``{(kind, name): array}`` over parameters, then buffers, in walk order."""
    state = {("param", n): p.data for n, p in model.named_parameters().items()}
    state.update({("buffer", n): b for n, b in model.named_buffers().items()})
    return state


def _copy_state(model) -> dict:
    return {key: arr.copy() for key, arr in _state(model).items()}


def _load_state(model, state: dict) -> None:
    """Point the parameters at ``state``'s arrays and copy its buffers in."""
    for name, p in model.named_parameters().items():
        p.data = state[("param", name)]
    buffers = {name: arr for (kind, name), arr in state.items() if kind == "buffer"}
    if buffers:
        model.load_buffers(buffers)


def save_checkpoint(model, path, extra: dict | None = None) -> None:
    """Serialize parameters and buffers: header, JSON manifest, f64 blocks."""
    state = _state(model)
    entries = [{"name": name, "kind": kind, "shape": list(arr.shape)}
               for (kind, name), arr in state.items()]
    manifest = {"version": container.VERSION, "entries": entries, "extra": extra or {}}
    container.write(path, _CKPT_MAGIC, (), manifest,
                    [np.asarray(arr, dtype="<f8") for arr in state.values()])


def load_checkpoint(model, path) -> dict:
    """Restore a checkpoint into ``model`` and return the extra manifest."""
    _, manifest, payload = container.read(path, _CKPT_MAGIC, 0, _CKPT_SPEC, "checkpoint")
    want = {key: arr.shape for key, arr in _state(model).items()}
    got = {(e["kind"], e["name"]): tuple(e["shape"]) for e in manifest["entries"]}
    if want != got:
        missing = sorted(set(want) - set(got))
        surplus = sorted(set(got) - set(want))
        shapes = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        raise FormatError(
            f"checkpoint does not match the model (missing {missing}, "
            f"unexpected {surplus}, shape mismatches {shapes})"
        )

    table, offset = [], 0
    for entry in manifest["entries"]:
        shape = tuple(entry["shape"])
        table.append(((entry["kind"], entry["name"]), "<f8", shape, offset))
        offset += math.prod(shape) * 8
    _load_state(model, container.blocks(payload, table))
    return manifest["extra"]
