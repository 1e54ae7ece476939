import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit.data_model import Dataset, PipelineWarning
from imbkit.metrics import (_average_ranks, classification_metrics, confusion_matrix,
                            macro_ovr_auc, overlap_ratios)
from tests.conftest import make_blobs


def metrics_oracle(preds, truth, n_classes):
    """Pure-Python confusion-matrix arithmetic, the independent reference."""
    per = {}
    present = []
    for c in range(n_classes):
        tp = sum(1 for p, t in zip(preds, truth) if p == c and t == c)
        fp = sum(1 for p, t in zip(preds, truth) if p == c and t != c)
        fn = sum(1 for p, t in zip(preds, truth) if p != c and t == c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per[c] = (prec, rec, f1)
        if any(t == c for t in truth):
            present.append(c)
    acc = sum(1 for p, t in zip(preds, truth) if p == t) / len(truth)
    mp = sum(per[c][0] for c in present) / len(present)
    mr = sum(per[c][1] for c in present) / len(present)
    mf = sum(per[c][2] for c in present) / len(present)
    g = math.prod(per[c][1] for c in present) ** (1 / len(present))
    return acc, mp, mr, mf, g


class TestConfusionMatrix:
    def test_counts(self):
        cm = confusion_matrix([0, 1, 1, 2], [0, 1, 0, 2], 3)
        assert cm.tolist() == [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
        assert cm.sum() == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)

    @pytest.mark.parametrize("preds,truth,bad", [
        ([0, -1, 1], [0, 1, 1], "preds"),  # np.add.at would have counted a prediction of class 2
        ([0, 3, 1], [0, 1, 1], "preds"),
        ([0, 1, 1], [0, -1, 1], "truth"),
        ([0, 1, 1], [0, 1, 7], "truth"),
    ])
    def test_out_of_range_label_rejected(self, preds, truth, bad):
        with pytest.raises(ValueError, match=rf"{bad} .*\[0, n_classes\) = \[0, 3\)"):
            confusion_matrix(preds, truth, 3)
        with pytest.raises(ValueError, match=r"\[0, n_classes\)"):
            classification_metrics(preds, truth, 3)

    def test_empty_labels_give_zero_counts(self):
        assert confusion_matrix([], [], 2).tolist() == [[0, 0], [0, 0]]

    def test_empty_labels_have_no_metrics(self):
        with pytest.raises(ValueError, match="no labels"):
            classification_metrics([], [], 2)


def reference_metrics(preds, truth, n_classes):
    """The np.where / np.mean expression of the metrics, kept to check results bit for bit."""
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (np.asarray(truth), np.asarray(preds)), 1)
    tp = np.diag(cm).astype(float)
    pred_pos = cm.sum(axis=0).astype(float)
    true_pos = cm.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(pred_pos > 0, tp / pred_pos, 0.0)
        recall = np.where(true_pos > 0, tp / true_pos, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    present = true_pos > 0
    n_present = int(present.sum())
    g_mean = float(np.prod(recall[present]) ** (1.0 / n_present)) if n_present else 0.0
    return dict(accuracy=float(tp.sum() / max(cm.sum(), 1)),
                precision=float(precision[present].mean()), recall=float(recall[present].mean()),
                f1=float(f1[present].mean()), g_mean=g_mean)


class TestClassificationMetrics:
    def test_bit_identical_to_reference_expression(self):
        """Jaya accepts only strictly better fitness, so a last-bit change could move the search."""
        import warnings
        rng = np.random.default_rng(12)
        for _ in range(400):
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 150))
            classes = rng.choice(n, int(rng.integers(1, n + 1)), replace=False)  # some absent
            truth = rng.choice(classes, m)
            preds = np.where(rng.random(m) < rng.random(), truth, rng.integers(0, n, m))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PipelineWarning)
                got = classification_metrics(preds, truth, n)
            want = reference_metrics(preds, truth, n)
            assert list(got) == list(want)
            for key, value in got.items():
                assert type(value) is float and value == want[key], key

    def test_perfect_predictions(self):
        m = classification_metrics([0, 1, 2], [0, 1, 2], 3)
        assert m == {"accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0, "g_mean": 1.0}

    def test_g_mean_sqrt(self):
        # recalls (1.0, 0.25) -> G-mean 0.5
        preds = [0, 0, 0, 0, 1, 0, 0, 0]
        truth = [0, 0, 0, 0, 1, 1, 1, 1]
        m = classification_metrics(preds, truth, 2)
        assert m["recall"] == (1.0 + 0.25) / 2
        assert m["precision"] == pytest.approx((4 / 7 + 1.0) / 2)
        assert m["g_mean"] == pytest.approx(0.5)

    def test_hand_confusion_case(self):
        truth = [0, 0, 1, 1, 2, 2]
        preds = [0, 0, 1, 0, 2, 2]
        m = classification_metrics(preds, truth, 3)
        # recalls (1.0, 0.5, 1.0), precisions (2/3, 1.0, 1.0)
        assert m["g_mean"] == pytest.approx(0.5 ** (1 / 3))
        assert m["g_mean"] == pytest.approx(0.7937, abs=1e-4)
        assert m["recall"] == pytest.approx(5 / 6)
        assert m["precision"] == pytest.approx(8 / 9)

    def test_zero_recall_kills_g_mean(self):
        m = classification_metrics([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert m["g_mean"] == 0.0

    def test_absent_class_excluded_with_warning(self):
        with pytest.warns(PipelineWarning, match="absent"):
            m = classification_metrics([0, 1, 0, 1], [0, 1, 0, 1], 3)
        assert m["f1"] == 1.0  # class 2 never in truth, ignored

    def test_zero_predicted_positives_precision(self):
        m = classification_metrics([0, 0, 0, 0], [0, 0, 1, 1], 2)
        assert m["precision"] == (0.5 + 0.0) / 2  # class 1: no predicted positives, precision 0
        assert m["f1"] == pytest.approx((2 / 3 + 0.0) / 2)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), m=st.integers(2, 30), n=st.integers(2, 4))
    def test_matches_oracle(self, seed, m, n):
        rng = np.random.default_rng(seed)
        truth = np.concatenate([np.arange(min(n, m)), rng.integers(0, n, size=max(0, m - n))])[:m]
        preds = rng.integers(0, n, size=m)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PipelineWarning)
            got = classification_metrics(preds, truth, n)
        acc, mp, mr, mf, g = metrics_oracle(preds.tolist(), truth.tolist(), n)
        assert got["accuracy"] == pytest.approx(acc, abs=1e-12)
        assert got["precision"] == pytest.approx(mp, abs=1e-12)
        assert got["recall"] == pytest.approx(mr, abs=1e-12)
        assert got["f1"] == pytest.approx(mf, abs=1e-12)
        assert got["g_mean"] == pytest.approx(g, abs=1e-12)
        assert got["g_mean"] <= got["recall"] + 1e-12  # AM-GM


class TestMacroOvrAuc:
    def test_perfect_ranking(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        assert macro_ovr_auc(scores, [0, 0, 1, 1]) == 1.0

    def test_constant_scores_give_half(self):
        scores = np.full((6, 2), 0.5)
        assert macro_ovr_auc(scores, [0, 0, 0, 1, 1, 1]) == pytest.approx(0.5)

    def test_single_inversion_hand_case(self):
        # class-0 positives scored 0.9 and 0.4 against negatives 0.6 and 0.1:
        # concordant pairs 3 of 4 -> AUC 0.75 for that class
        scores = np.array([[0.9, 0.5], [0.4, 0.5], [0.6, 0.5], [0.1, 0.5]])
        truth = [0, 0, 1, 1]
        assert macro_ovr_auc(scores, truth) == pytest.approx((0.75 + 0.5) / 2)

    def test_absent_class_warns(self):
        scores = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0]])
        with pytest.warns(PipelineWarning, match="absent"):
            auc = macro_ovr_auc(scores, [0, 1])
        assert auc == 1.0


def loop_average_ranks(x):
    """Walk the stably sorted values run by run, each run of ties sharing its mean 1-based rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 0.25, 1 / 3, 0.5, 1.0, 2.0]), max_size=40))
    def test_matches_loop_on_tie_heavy_data(self, values):
        x = np.array(values, dtype=np.float64)
        ranks = _average_ranks(x)
        assert ranks.dtype == np.float64
        assert np.array_equal(ranks, loop_average_ranks(x))

    def test_hand_case(self):
        assert _average_ranks(np.array([0.5, 0.1, 0.5, 0.9, 0.5])).tolist() == [3.0, 1.0, 3.0, 5.0, 3.0]


class TestOverlapRatios:
    def test_far_apart_classes_have_zero_overlap(self):
        ds = make_blobs([(0.0, 0.0), (500.0, 500.0)], [20, 20], std=1.0, seed=0)
        rep = overlap_ratios(ds, knn_k=5)
        assert rep.or_dataset == 0.0
        assert np.all(rep.or_class == 0.0)

    def test_fraction_arithmetic(self):
        # class 0: 10 points; exactly 3 of them fully surrounded by class 1
        base = np.arange(10, dtype=float)[:, None] * 10
        intruders = np.array([[1.0], [2.0], [3.0]])  # sit inside class-1 territory
        cluster1 = np.array([[0.5], [1.5], [2.5], [3.5], [0.8], [1.2], [2.2], [2.8], [1.8], [3.2]])
        feats = np.vstack([base + 100, intruders, cluster1])
        labels = np.array([0] * 10 + [0] * 3 + [1] * 10)
        ds = Dataset(feats, labels, ("a", "b"))
        rep = overlap_ratios(ds, knn_k=5)
        assert rep.or_class[0] == pytest.approx(3 / 13)

    def test_pair_matrix_from_constructed_geometry(self):
        # two dense 1-D grids far apart; two class-0 intruders sit inside class 1's
        # grid and one class-1 intruder inside class 0's.  Each intruder's three
        # neighbors are all foreign (flagged), while grid points see at most one
        # intruder among their three neighbors (not flagged, needs >= 2).
        host0 = np.arange(8, dtype=float)[:, None] * 0.1          # 0.0 .. 0.7
        intr0 = np.array([[100.05], [100.55]])                    # inside class 1's grid
        host1 = np.arange(8, dtype=float)[:, None] * 0.1 + 100.0  # 100.0 .. 100.7
        intr1 = np.array([[0.35]])                                # inside class 0's grid
        feats = np.vstack([host0, intr0, host1, intr1])
        labels = np.array([0] * 10 + [1] * 9)
        ds = Dataset(feats, labels, ("a", "b"))
        rep = overlap_ratios(ds, knn_k=3)
        assert rep.or_class[0] == pytest.approx(2 / 10)   # 2 of 10 flagged
        assert rep.or_class[1] == pytest.approx(1 / 9)    # 1 of 9 flagged
        assert rep.or_dataset == pytest.approx(np.mean([2 / 10, 1 / 9]))

    def test_or_dataset_is_mean_of_classes(self, overlapping_imbalanced_ds):
        rep = overlap_ratios(overlapping_imbalanced_ds, knn_k=5)
        assert rep.or_dataset == pytest.approx(rep.or_class.mean())

    def test_invariant_under_feature_permutation_and_scaling(self):
        ds = make_blobs([(0, 0), (2, 1)], [15, 15], std=1.0, seed=4)
        rep = overlap_ratios(ds, knn_k=5)
        permuted = Dataset(ds.features[:, ::-1].copy(), ds.labels, ds.class_names)
        scaled = Dataset(ds.features * 7.5, ds.labels, ds.class_names)
        assert overlap_ratios(permuted, 5).or_dataset == pytest.approx(rep.or_dataset)
        assert overlap_ratios(scaled, 5).or_dataset == pytest.approx(rep.or_dataset)
        assert np.allclose(overlap_ratios(scaled, 5).or_class, rep.or_class)

    def test_own_class_tie_does_not_win_the_foreign_majority(self):
        # Six 1-D points and k=5, so every sample's neighbours are the other five.
        # Each class-0 sample sees two class-0, two class-2 and one class-1
        # neighbour: its own count ties the top foreign label's, yet its 3
        # foreign neighbours flag it.
        feats = np.array([[0.0], [1.0], [-4.0], [5.0], [-2.0], [3.0]])
        ds = Dataset(feats, np.array([0, 0, 0, 1, 2, 2]), ("a", "b", "c"))
        rep = overlap_ratios(ds, knn_k=5)
        assert rep.or_class.tolist() == [1.0, 1.0, 1.0]

    def test_too_few_samples(self):
        ds = Dataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), ("a", "b"))
        with pytest.raises(ValueError, match="knn_k"):
            overlap_ratios(ds, knn_k=5)
