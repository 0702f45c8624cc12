"""Metrics suite: confusion counting, one-vs-rest accuracy, kappa (with an
exhaustive binary closed-form equivalence), F1, rank-based AUC, uncertainty,
and grouped reports."""
from __future__ import annotations

import numpy as np
import pytest

from mvcrop.errors import ConfigError, NumericError, ShapeError
from mvcrop.metrics import (
    _average_ranks,
    auc_roc,
    average_accuracy,
    cohen_kappa,
    confusion_matrix,
    evaluate,
    f1_scores,
    grouped_report,
    one_vs_rest_counts,
    row_entropy,
    uncertainty,
)
from reference import average_ranks_loop, kappa_binary_closed_form

# binary convention: class 1 is the positive class, rows are true labels,
# so cm = [[TN, FP], [FN, TP]]
HAND_CM = np.array([[45, 10], [5, 40]])


class TestConfusionMatrix:
    def test_perfect_predictions_diagonal(self):
        y = np.array([0, 1, 2, 1, 0])
        cm = confusion_matrix(y, y, 3)
        assert np.array_equal(cm, np.diag([2, 2, 1]))

    def test_counting_example(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        assert np.array_equal(cm, [[1, 1], [0, 1]])

    def test_probability_tie_breaks_to_lowest_index(self):
        cm = confusion_matrix([1], np.array([[0.5, 0.5]]), 2)
        assert np.array_equal(cm, [[0, 0], [1, 0]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            confusion_matrix([0, 1], [0], 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ConfigError):
            confusion_matrix([0, 2], [0, 1], 2)
        with pytest.raises(ConfigError):
            confusion_matrix([0, -1], [0, 1], 2)

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, 50)
        p = rng.integers(0, 3, 50)
        perm = rng.permutation(50)
        assert np.array_equal(confusion_matrix(y, p, 3),
                              confusion_matrix(y[perm], p[perm], 3))

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 4, 33)
        p = rng.integers(0, 4, 33)
        assert confusion_matrix(y, p, 4).sum() == 33


class TestAverageAccuracy:
    def test_hand_example(self):
        assert abs(average_accuracy(HAND_CM) - 0.85) < 1e-12

    def test_perfect(self):
        assert average_accuracy(np.diag([3, 5, 2])) == 1.0

    def test_cyclic_all_wrong_three_classes(self):
        y_true = np.array([0, 1, 2] * 10)
        y_pred = np.array([1, 2, 0] * 10)
        cm = confusion_matrix(y_true, y_pred, 3)
        assert abs(average_accuracy(cm) - 1.0 / 3.0) < 1e-12

    def test_zero_samples_rejected(self):
        with pytest.raises(NumericError):
            average_accuracy(np.zeros((2, 2), dtype=int))

    def test_binary_average_accuracy_equals_overall_accuracy(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 200)
        p = rng.integers(0, 2, 200)
        cm = confusion_matrix(y, p, 2)
        overall = np.trace(cm) / cm.sum()
        assert abs(average_accuracy(cm) - overall) < 1e-12

    def test_one_vs_rest_counts(self):
        tp, fp, fn, tn = one_vs_rest_counts(HAND_CM)
        assert np.array_equal(tp, [45, 40])
        assert np.array_equal(fp, [5, 10])
        assert np.array_equal(fn, [10, 5])
        assert np.array_equal(tn, [40, 45])


class TestKappa:
    def test_hand_example(self):
        assert abs(cohen_kappa(HAND_CM) - 0.70) < 1e-12
        assert abs(kappa_binary_closed_form(40, 5, 10, 45) - 0.70) < 1e-12

    def test_perfect_agreement(self):
        assert cohen_kappa(np.diag([7, 3])) == 1.0

    def test_degenerate_single_cell_rejected(self):
        with pytest.raises(NumericError):
            cohen_kappa(np.array([[10, 0], [0, 0]]))
        with pytest.raises(NumericError):
            cohen_kappa(np.zeros((2, 2), dtype=int))

    def test_random_predictions_near_zero(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 100_000)
        p = rng.integers(0, 2, 100_000)
        cm = confusion_matrix(y, p, 2)
        assert abs(cohen_kappa(cm)) < 0.05

    def test_exhaustive_binary_equivalence_grid(self):
        """Multi-class kappa equals the binary closed form on every
        cm with entries in [0, 50], checked by exact cross-multiplication."""
        grid = np.arange(51, dtype=np.int64)
        fn, fp, tn = np.meshgrid(grid, grid, grid, indexing="ij")
        fn, fp, tn = fn.ravel(), fp.ravel(), tn.ravel()
        checked = 0
        for tp_val in range(51):
            tp = np.full_like(fn, tp_val)
            n = tp + fn + fp + tn
            # general kappa on cm=[[tn, fp], [fn, tp]] via cross-multiplied form
            rows0, rows1 = tn + fp, fn + tp
            cols0, cols1 = tn + fn, fp + tp
            chance = rows0 * cols0 + rows1 * cols1
            num = n * (tn + tp) - chance
            den = n * n - chance
            num2 = 2 * (tp * tn - fn * fp)
            den2 = (tp + fp) * (fp + tn) + (tp + fn) * (fn + tn)
            valid = den != 0
            assert np.array_equal(valid, den2 != 0)
            assert np.array_equal(num[valid] * den2[valid],
                                  num2[valid] * den[valid])
            checked += int(valid.sum())
        assert checked > 6_000_000

    def test_general_matches_closed_form_via_public_api(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            tn, fp, fn, tp = rng.integers(0, 50, 4)
            cm = np.array([[tn, fp], [fn, tp]])
            if cm.sum() == 0 or cm.sum() ** 2 == (tn + fp) * (tn + fn) + (fn + tp) * (fp + tp):
                continue
            assert abs(cohen_kappa(cm)
                       - kappa_binary_closed_form(tp, fn, fp, tn)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            cm = rng.integers(0, 30, (3, 3))
            if cm.sum() == 0:
                continue
            try:
                k = cohen_kappa(cm)
            except NumericError:
                continue
            assert -1.0 - 1e-12 <= k <= 1.0 + 1e-12


class TestF1:
    def test_hand_example(self):
        rep = f1_scores(HAND_CM)
        p_pos, r_pos = 40 / 50, 40 / 45
        f1_pos = 2 * p_pos * r_pos / (p_pos + r_pos)
        assert abs(rep.f1[1] - f1_pos) < 1e-12
        assert abs(rep.f1[1] - 0.8421) < 1e-4
        assert abs(rep.f1[0] - 6.0 / 7.0) < 1e-12
        assert abs(rep.f1[0] - 0.8571) < 1e-4
        assert abs(rep.macro - 0.5 * (f1_pos + 6.0 / 7.0)) < 1e-12
        assert abs(rep.macro - 0.8496) < 1e-4
        assert rep.positive == rep.f1[1]

    def test_perfect(self):
        rep = f1_scores(np.diag([4, 4, 4]))
        assert np.allclose(rep.f1, 1.0)
        assert rep.macro == 1.0

    def test_absent_class_zero_convention(self):
        cm = np.array([[5, 0, 0], [0, 5, 0], [0, 0, 0]])
        rep = f1_scores(cm)
        assert rep.precision[2] == rep.recall[2] == rep.f1[2] == 0.0
        assert abs(rep.macro - 2.0 / 3.0) < 1e-12

    def test_positive_none_for_multiclass(self):
        assert f1_scores(np.diag([1, 1, 1])).positive is None


class TestAUC:
    def test_perfect_ranking(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_hand_example(self):
        assert abs(auc_roc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) - 0.75) < 1e-12

    def test_all_ties_half(self):
        assert abs(auc_roc([0.5] * 6, [0, 1, 0, 1, 0, 1]) - 0.5) < 1e-12

    def test_inverted_scores_complement(self):
        rng = np.random.default_rng(6)
        scores = rng.random(100)
        labels = rng.integers(0, 2, 100)
        labels[0], labels[1] = 0, 1  # both classes present
        a = auc_roc(scores, labels)
        b = auc_roc(-scores, labels)
        assert abs(a + b - 1.0) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(NumericError):
            auc_roc([0.2, 0.4], [1, 1])

    def test_range(self):
        rng = np.random.default_rng(7)
        scores = rng.random(50)
        labels = np.r_[np.zeros(25, dtype=int), np.ones(25, dtype=int)]
        assert 0.0 <= auc_roc(scores, labels) <= 1.0

    def test_average_ranks_match_the_loop_bytes(self):
        rng = np.random.default_rng(8)
        pools = ([0.0, -0.0, 0.5, 1.0], [0.1, 0.2, np.nan, 0.2],
                 np.round(rng.random(7), 1))
        cases = [np.array([], dtype=np.float64), np.array([np.nan, np.nan, 1.0])]
        for draw in range(600):
            size = int(rng.integers(1, 40))
            if draw % 3 == 2:
                cases.append(rng.standard_normal(size))
            else:
                cases.append(rng.choice(pools[draw % 3], size))
        for scores in cases:
            assert (_average_ranks(scores).tobytes()
                    == average_ranks_loop(scores).tobytes()), scores


class TestUncertainty:
    def test_one_hot(self):
        probs = np.eye(4)[[0, 2, 3]]
        max_p, entropy = uncertainty(probs)
        assert max_p == 1.0
        assert entropy == 0.0

    def test_uniform(self):
        probs = np.full((6, 5), 0.2)
        max_p, entropy = uncertainty(probs)
        assert abs(max_p - 0.2) < 1e-15
        assert abs(entropy - 1.0) < 1e-12

    def test_hand_example(self):
        probs = np.array([[0.9, 0.1]])
        max_p, entropy = uncertainty(probs)
        expected = -(0.9 * np.log(0.9) + 0.1 * np.log(0.1)) / np.log(2.0)
        assert abs(max_p - 0.9) < 1e-15
        assert abs(entropy - expected) < 1e-12
        assert abs(entropy - 0.469) < 1e-3

    def test_unnormalized_option(self):
        # the unnormalised mean entropy is row_entropy's mean; uncertainty
        # divides it by ln K
        probs = np.full((2, 4), 0.25)
        assert abs(row_entropy(probs).mean() - np.log(4.0)) < 1e-12
        assert abs(uncertainty(probs)[1] - 1.0) < 1e-12

    def test_row_entropy_is_the_unnormalised_per_row_term(self):
        probs = np.array([[1.0, 0.0], [0.5, 0.5], [0.9, 0.1]])
        rows = row_entropy(probs)
        assert rows[0] == 0.0
        assert abs(rows[1] - np.log(2.0)) < 1e-15
        assert uncertainty(probs)[1] == rows.mean() / np.log(2.0)

    def test_temperature_monotonicity(self):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((40, 5))
        entropies, max_probs = [], []
        for tau in (0.5, 1.0, 2.0, 4.0):
            scaled = logits / tau
            e = np.exp(scaled - scaled.max(axis=1, keepdims=True))
            probs = e / e.sum(axis=1, keepdims=True)
            mp, ent = uncertainty(probs)
            entropies.append(ent)
            max_probs.append(mp)
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(max_probs, max_probs[1:]))


def random_eval_case(seed, n=60, classes=2):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, n)
    y[:classes] = np.arange(classes)  # every class appears
    logits = rng.standard_normal((n, classes))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    return y, probs


class TestEvaluate:
    def test_report_fields_and_ranges(self):
        y, probs = random_eval_case(9)
        rep = evaluate(y, probs, 2)
        assert rep.samples == 60
        assert 0.0 <= rep.average_accuracy <= 1.0
        assert -1.0 <= rep.kappa <= 1.0
        assert 0.0 <= rep.f1_macro <= 1.0
        assert 0.0 <= rep.auc_roc <= 1.0
        assert rep.f1_positive is not None
        assert 0.0 <= rep.max_probability <= 1.0
        assert 0.0 <= rep.prediction_entropy <= 1.0

    def test_multiclass_has_no_auc_or_positive_f1(self):
        y, probs = random_eval_case(10, classes=3)
        rep = evaluate(y, probs, 3)
        assert rep.auc_roc is None
        assert rep.f1_positive is None

    def test_constant_prediction_over_two_true_classes(self):
        # kappa's chance term stays below n * n, and AUC sees both classes
        probs = np.tile([0.7, 0.3], (5, 1))
        rep = evaluate(np.array([0, 1, 0, 1, 1]), probs, 2)
        assert rep.kappa == 0.0
        assert rep.auc_roc == 0.5

    def test_single_class_truth_marks_kappa_and_auc_unavailable(self):
        probs = np.array([[0.6, 0.4], [0.8, 0.2]])
        rep = evaluate(np.array([0, 0]), probs, 2)
        assert rep.kappa is None
        assert rep.auc_roc is None
        assert rep.average_accuracy is not None


class TestGroupedReport:
    def test_identical_groups_identical_reports(self):
        y, probs = random_eval_case(11)
        yy = np.concatenate([y, y])
        pp = np.concatenate([probs, probs])
        groups = np.array(["a"] * len(y) + ["b"] * len(y))
        reports = grouped_report(yy, pp, {"continent": groups}, "continent", 2)
        assert set(reports) == {"a", "b"}
        assert reports["a"] == reports["b"]

    def test_single_group_equals_global(self):
        y, probs = random_eval_case(12)
        groups = np.array(["only"] * len(y))
        reports = grouped_report(y, probs, {"year": groups}, "year", 2)
        assert reports["only"] == evaluate(y, probs, 2)

    def test_per_year_matches_subset_recomputation(self):
        rng = np.random.default_rng(13)
        y, probs = random_eval_case(13, n=90)
        years = rng.choice([2016, 2017, 2018], size=90)
        reports = grouped_report(y, probs, {"year": years}, "year", 2)
        for year in (2016, 2017, 2018):
            mask = years == year
            assert reports[year] == evaluate(y[mask], probs[mask], 2)

    def test_group_by_a_label_field(self):
        y, probs = random_eval_case(14)
        reports = grouped_report(y, probs, {"label": y}, "label", 2)
        assert set(reports) == {0, 1}
        for klass, rep in reports.items():
            # one-class subsets: kappa/AUC unavailable
            assert rep.kappa is None and rep.auc_roc is None
            assert rep.samples == int(np.sum(y == klass))

    def test_field_named_class_groups_by_its_values(self):
        y, probs = random_eval_case(16)
        field = np.where(np.arange(len(y)) % 3 == 0, "wheat", "maize")
        reports = grouped_report(y, probs, {"class": field}, "class", 2)
        assert set(reports) == {"wheat", "maize"}
        for value, rep in reports.items():
            mask = field == value
            assert rep == evaluate(y[mask], probs[mask], 2)

    def test_unknown_key_rejected(self):
        y, probs = random_eval_case(15)
        with pytest.raises(ConfigError):
            grouped_report(y, probs, {"year": np.zeros(len(y))}, "region", 2)
        with pytest.raises(ConfigError):  # "class" names no special key
            grouped_report(y, probs, {}, "class", 2)
