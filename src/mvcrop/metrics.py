"""Classification metrics: one-vs-rest average accuracy, Cohen's kappa,
per-class F1, rank-based AUC, confidence/uncertainty summaries, and grouped
reports.

All operations are pure functions of immutable inputs. Undefined values
(kappa with chance agreement 1, AUC with one-class truth) raise NumericError
from the low-level functions. Both can happen only with single-class truth,
which `evaluate` checks first and reports as None fields, so report tables
can mark them unavailable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError, ShapeError


def _as_labels(values, classes: int, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim == 2:
        arr = np.argmax(arr, axis=1)  # ties resolve to the lowest index
    arr = arr.astype(np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= classes):
        raise ConfigError(f"{name} labels outside [0, {classes})")
    return arr


def confusion_matrix(y_true, y_pred, classes: int) -> np.ndarray:
    """Integer counts with rows = true class, columns = predicted class.

    ``y_pred`` may be class indices or probability rows; probabilities are
    converted by argmax with lowest-index tie-breaking.
    """
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    t = _as_labels(y_true, classes, "true")
    p = _as_labels(y_pred, classes, "predicted")
    if t.shape[0] != p.shape[0]:
        raise ShapeError(f"length mismatch: {t.shape[0]} true vs {p.shape[0]} predicted")
    cm = np.zeros((classes, classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def one_vs_rest_counts(cm: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-class (TP, FP, FN, TN) from a confusion matrix."""
    cm = np.asarray(cm, dtype=np.int64)
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    tn = cm.sum() - tp - fp - fn
    return tp, fp, fn, tn


def average_accuracy(cm: np.ndarray) -> float:
    """Mean over classes of one-vs-rest accuracy (true negatives included)."""
    cm = np.asarray(cm, dtype=np.int64)
    total = cm.sum()
    if total == 0:
        raise NumericError("average accuracy undefined on zero samples")
    tp, fp, fn, tn = one_vs_rest_counts(cm)
    return float(np.mean((tp + tn) / total))


def cohen_kappa(cm: np.ndarray) -> float:
    """Agreement beyond chance; exact integer cross-multiplied form."""
    cm = np.asarray(cm, dtype=np.int64)
    n = int(cm.sum())
    if n == 0:
        raise NumericError("kappa undefined on zero samples")
    rows = cm.sum(axis=1)
    cols = cm.sum(axis=0)
    chance = int(rows @ cols)
    numerator = n * int(np.trace(cm)) - chance
    denominator = n * n - chance
    if denominator == 0:
        raise NumericError("kappa undefined: chance agreement is 1")
    return numerator / denominator


@dataclass(frozen=True)
class F1Report:
    precision: tuple
    recall: tuple
    f1: tuple
    macro: float
    positive: float | None


def _safe_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros(num.shape, dtype=np.float64)
    mask = den > 0
    out[mask] = num[mask] / den[mask]
    return out


def f1_scores(cm: np.ndarray) -> F1Report:
    """Per-class precision/recall/F1 with the 0/0 -> 0 convention."""
    tp, fp, fn, _ = one_vs_rest_counts(cm)
    precision = _safe_ratio(tp, tp + fp)
    recall = _safe_ratio(tp, tp + fn)
    f1 = _safe_ratio(2 * precision * recall, precision + recall)
    positive = float(f1[1]) if cm.shape[0] == 2 else None
    return F1Report(
        precision=tuple(float(v) for v in precision),
        recall=tuple(float(v) for v in recall),
        f1=tuple(float(v) for v in f1),
        macro=float(np.mean(f1)),
        positive=positive,
    )


def _average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with tied values sharing their average rank: a run of
    equal scores at stably sorted positions ``i..j`` ranks
    ``0.5 * (i + j) + 1``. Runs break where ``!=`` holds, so NaNs never tie."""
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], len(ordered)] - 1
    ranks = np.empty(len(ordered), dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def auc_roc(scores, y_true) -> float:
    """Rank-based (Mann-Whitney) AUC with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(y_true, dtype=np.int64)
    if scores.shape[0] != labels.shape[0]:
        raise ShapeError("scores and labels differ in length")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise NumericError("AUC undefined: both classes must be present")
    ranks = _average_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def row_entropy(probabilities) -> np.ndarray:
    """Per-row prediction entropy ``-sum_k p log p`` in nats (0 log 0 = 0)."""
    probs = np.asarray(probabilities, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -terms.sum(axis=1)


def uncertainty(probabilities) -> tuple[float, float]:
    """(mean max probability, mean prediction entropy divided by ln K).

    Dividing by ln K puts all class counts on one [0, 1] scale.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    max_probability = float(probs.max(axis=1).mean())
    entropy = float(row_entropy(probs).mean()) / np.log(probs.shape[1])
    return max_probability, entropy


@dataclass(frozen=True)
class MetricsReport:
    samples: int
    average_accuracy: float
    kappa: float | None
    f1_macro: float
    precision: tuple
    recall: tuple
    f1: tuple
    f1_positive: float | None
    auc_roc: float | None
    max_probability: float
    prediction_entropy: float


def evaluate(y_true, probabilities, classes: int) -> MetricsReport:
    """Full report over one prediction set; undefined metrics become None.

    Kappa and AUC are reported only when the truth holds two or more
    classes, and then neither is undefined: each class row sums to less
    than n, so the chance term ``rows @ cols`` stays below ``n * n``, and a
    binary truth holds both classes.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    cm = confusion_matrix(y_true, probs, classes)
    f1 = f1_scores(cm)
    single_class_truth = np.count_nonzero(cm.sum(axis=1)) < 2
    kappa = None if single_class_truth else cohen_kappa(cm)
    auc = (auc_roc(probs[:, 1], _as_labels(y_true, classes, "true"))
           if classes == 2 and not single_class_truth else None)
    max_probability, entropy = uncertainty(probs)
    return MetricsReport(
        samples=int(cm.sum()),
        average_accuracy=average_accuracy(cm),
        kappa=kappa,
        f1_macro=f1.macro,
        precision=f1.precision,
        recall=f1.recall,
        f1=f1.f1,
        f1_positive=f1.positive,
        auc_roc=auc,
        max_probability=max_probability,
        prediction_entropy=entropy,
    )


def grouped_report(y_true, probabilities, metadata: dict, group_by: str,
                   classes: int) -> dict:
    """One MetricsReport per distinct group value.

    ``group_by`` is any per-sample key in ``metadata``; anything else is
    rejected.
    """
    y = _as_labels(y_true, classes, "true")
    probs = np.asarray(probabilities, dtype=np.float64)
    if group_by not in metadata:
        raise ConfigError(f"unknown grouping key {group_by!r}")
    values = np.asarray(metadata[group_by])
    if values.shape[0] != y.shape[0]:
        raise ShapeError(f"metadata {group_by!r} length mismatch")
    reports = {}
    for value in np.unique(values):
        mask = values == value
        key = value.item() if hasattr(value, "item") else value
        reports[key] = evaluate(y[mask], probs[mask], classes)
    return reports
