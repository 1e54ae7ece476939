import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbkit.data_model import (DataFormatError, Dataset, PipelineWarning, load_csv, minmax_scale,
                               rng_for, stratified_folds)
from tests.conftest import imbalance_ratio


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_encoding_by_first_appearance(self, tmp_path):
        p = write_csv(tmp_path, "x,y,class\n1,2,a\n3,4,b\n5,6,a\n")
        ds = load_csv(p, "class")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_names == ("a", "b")
        assert ds.n_classes == 2

    def test_round_trip_class_names(self, tmp_path):
        p = write_csv(tmp_path, "x,class\n1,red\n2,blue\n3,red\n4,green\n")
        ds = load_csv(p, "class")
        original = ["red", "blue", "red", "green"]
        assert [ds.class_names[l] for l in ds.labels] == original

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with one; a label column named first must still match
        text = "class,f1,f2\na,1,2\nb,3,4\na,5,6\n"
        want = load_csv(write_csv(tmp_path, text), "class")
        got = load_csv(write_csv(tmp_path, "\ufeff" + text, name="marked.csv"), "class")
        assert np.array_equal(got.features, want.features) and np.array_equal(got.labels, want.labels)
        assert got.class_names == want.class_names == ("a", "b")

    def test_label_column_by_index(self, tmp_path):
        p = write_csv(tmp_path, "a,b,c\n1,x,2\n3,y,4\n")
        ds = load_csv(p, 1)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.class_names == ("x", "y")

    def test_numeric_header_name_wins_over_index(self, tmp_path):
        # a column literally named "2": the name match takes precedence
        p = write_csv(tmp_path, "a,2,b\n1,x,2\n3,y,4\n")
        ds = load_csv(p, "2")
        assert ds.class_names == ("x", "y")

    def test_label_index_out_of_range(self, tmp_path):
        p = write_csv(tmp_path, "a,b\n1,x\n2,y\n")
        with pytest.raises(DataFormatError, match="out of range"):
            load_csv(p, 5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", "class")

    def test_unparsable_cell_names_location(self, tmp_path):
        p = write_csv(tmp_path, "x,y,class\n1,2,a\n1,abc,b\n")
        with pytest.raises(DataFormatError, match=r"row 3.*'y'.*'abc'"):
            load_csv(p, "class")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        p = write_csv(tmp_path, f"x,y,class\n1,2,a\n1,{cell},b\n")
        with pytest.raises(DataFormatError, match=rf"row 3, column 'y': non-finite value '{cell}'"):
            load_csv(p, "class")

    def test_label_column_absent(self, tmp_path):
        p = write_csv(tmp_path, "x,y\n1,2\n")
        with pytest.raises(DataFormatError, match="label column"):
            load_csv(p, "class")

    def test_label_column_only(self, tmp_path):
        p = write_csv(tmp_path, "class\na\nb\n")
        with pytest.raises(DataFormatError, match=r"data\.csv: no feature column"):
            load_csv(p, "class")

    def test_fewer_than_two_classes(self, tmp_path):
        p = write_csv(tmp_path, "x,class\n1,a\n2,a\n")
        with pytest.raises(DataFormatError, match="at least 2"):
            load_csv(p, "class")

    def test_new_thyroid_shape(self, data_dir):
        path = data_dir / "new-thyroid.csv"
        if not path.exists():
            pytest.skip("new-thyroid.csv not fetched (run scripts/fetch_datasets.py)")
        ds = load_csv(path, "class")
        assert ds.n_samples == 215
        assert ds.n_features == 5
        assert ds.n_classes == 3


class TestDatasetInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Dataset(np.array([[1.0], [np.nan]]), np.array([0, 1]), ("a", "b"))

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError, match="no samples"):
            Dataset(np.array([[1.0], [2.0]]), np.array([0, 0]), ("a", "b"))

    def test_immutable(self):
        ds = Dataset(np.array([[1.0], [2.0]]), np.array([0, 1]), ("a", "b"))
        with pytest.raises(ValueError):
            ds.features[0, 0] = 9.0


class TestSubset:
    def test_boolean_mask_keeps_masked_rows(self, data_dir):
        ds = load_csv(data_dir / "new-thyroid.csv", "class")
        keep = np.arange(ds.n_samples) % 3 != 0
        sub = ds.subset(keep)
        assert sub.n_samples == int(keep.sum())
        assert np.array_equal(sub.features, ds.features[keep])
        assert np.array_equal(sub.labels, ds.labels[keep])
        assert sub.class_names == ds.class_names

    def test_integer_indices_in_order_given(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), ("a", "b"))
        sub = ds.subset([2, 1, 2])
        assert sub.features[:, 0].tolist() == [3.0, 2.0, 3.0]
        assert sub.labels.tolist() == [0, 1, 0]

    def test_mask_of_wrong_length_rejected(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), ("a", "b"))
        with pytest.raises(ValueError, match="boolean row mask"):
            ds.subset(np.array([True, True]))

    @pytest.mark.parametrize("rows", [np.array([0.0, 1.0]), np.array(["0", "1"])])
    def test_non_integer_dtype_rejected(self, rows):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]), ("a", "b"))
        with pytest.raises(ValueError, match="integers or a boolean mask"):
            ds.subset(rows)


class TestImbalanceRatio:
    def test_balanced(self):
        ds = Dataset(np.zeros((100, 1)), np.repeat([0, 1], 50), ("a", "b"))
        assert imbalance_ratio(ds) == 1.0

    def test_three_classes(self):
        ds = Dataset(np.zeros((130, 1)), np.repeat([0, 1, 2], [90, 30, 10]), ("a", "b", "c"))
        assert imbalance_ratio(ds) == pytest.approx(9.0)

    def test_new_thyroid_ir(self, data_dir):
        path = data_dir / "new-thyroid.csv"
        if not path.exists():
            pytest.skip("new-thyroid.csv not fetched")
        assert imbalance_ratio(load_csv(path, "class")) == pytest.approx(5.0)


class TestStratifiedFolds:
    def test_exact_stratification(self):
        ds = Dataset(np.zeros((100, 1)), np.repeat([0, 1], 50), ("a", "b"))
        plan = stratified_folds(ds, k=5, repeats=1, seed=3)
        for f in range(5):
            test = plan.test_indices(0, f)
            assert test.size == 20
            assert np.sum(ds.labels[test] == 0) == 10
            assert np.sum(ds.labels[test] == 1) == 10

    def test_determinism(self):
        ds = Dataset(np.zeros((60, 1)), np.repeat([0, 1, 2], 20), ("a", "b", "c"))
        p1 = stratified_folds(ds, 4, 2, seed=11)
        p2 = stratified_folds(ds, 4, 2, seed=11)
        for r in range(2):
            for f in range(4):
                assert np.array_equal(p1.test_indices(r, f), p2.test_indices(r, f))
                assert np.array_equal(p1.train_indices(r, f), p2.train_indices(r, f))

    def test_small_class_fallback(self):
        labels = np.concatenate([np.zeros(20, int), np.ones(3, int)])
        ds = Dataset(np.zeros((23, 1)), labels, ("big", "tiny"))
        with pytest.warns(PipelineWarning, match="tiny"):
            plan = stratified_folds(ds, k=5, repeats=1, seed=0)
        tiny = set(np.flatnonzero(labels == 1).tolist())
        for f in range(5):
            test = set(plan.test_indices(0, f).tolist())
            train = set(plan.train_indices(0, f).tolist())
            if not tiny & test:  # fold the tiny class cannot fill
                assert tiny <= train

    def test_k_below_two(self):
        ds = Dataset(np.zeros((10, 1)), np.repeat([0, 1], 5), ("a", "b"))
        with pytest.raises(ValueError):
            stratified_folds(ds, 1, 1, 0)

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=2, max_value=25), min_size=2, max_size=4),
           k=st.integers(min_value=2, max_value=5),
           seed=st.integers(min_value=0, max_value=2 ** 31))
    def test_partition_and_stratification_property(self, sizes, k, seed):
        labels = np.concatenate([np.full(s, c) for c, s in enumerate(sizes)])
        ds = Dataset(np.arange(labels.size, dtype=float)[:, None], labels,
                     tuple(f"c{i}" for i in range(len(sizes))))
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PipelineWarning)
            plan = stratified_folds(ds, k, repeats=2, seed=seed)
        m = ds.n_samples
        for r in range(2):
            seen = np.concatenate([plan.test_indices(r, f) for f in range(k)])
            assert np.array_equal(np.sort(seen), np.arange(m))  # exact partition
            for c, s in enumerate(sizes):
                per_fold = [int(np.sum(ds.labels[plan.test_indices(r, f)] == c)) for f in range(k)]
                assert max(per_fold) - min(per_fold) <= 1  # within one sample per class
            for f in range(k):
                train = plan.train_indices(r, f)
                test = plan.test_indices(r, f)
                assert not set(train.tolist()) & set(test.tolist())


    def test_indices_match_explicit_fold_lists(self):
        """Sorted test folds built sample by sample, train folds as their complement."""
        labels = np.concatenate([np.zeros(31, int), np.ones(12, int), np.full(3, 2)])
        ds = Dataset(np.zeros((labels.size, 1)), labels, ("a", "b", "c"))
        k, repeats, seed = 5, 3, 21
        with pytest.warns(PipelineWarning):
            plan = stratified_folds(ds, k, repeats, seed)
        for r in range(repeats):
            rng = rng_for(seed, "folds", r)
            fold_test = [[] for _ in range(k)]
            for c in range(ds.n_classes):
                idx = np.flatnonzero(labels == c)
                rng.shuffle(idx)
                offset = int(rng.integers(k))
                for i, s in enumerate(idx):
                    fold_test[(i + offset) % k].append(int(s))
            for f in range(k):
                test = np.array(sorted(fold_test[f]), dtype=np.int64)
                train = np.setdiff1d(np.arange(labels.size), test)
                assert np.array_equal(plan.test_indices(r, f), test)
                assert np.array_equal(plan.train_indices(r, f), train)
        assert plan.fold_ids.dtype == np.int32 and not plan.fold_ids.flags.writeable


class TestMinMax:
    def test_scales_to_unit_range(self):
        ds = Dataset(np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 5.0]]), np.array([0, 1, 0]), ("a", "b"))
        scaled, mapped = minmax_scale(ds, np.array([[20.0, 7.0], [-5.0, 5.0]]))
        out = scaled.features
        assert out[:, 0].min() == 0.0 and out[:, 0].max() == 1.0
        assert np.all(out[:, 1] == 0.0)  # constant feature maps to zero, no div error
        assert np.array_equal(scaled.labels, ds.labels) and scaled.class_names == ds.class_names
        # further arrays use the dataset's range, so they may leave [0, 1]
        assert mapped.tolist() == [[2.0, 2.0], [-0.5, 0.0]]
