import itertools
import json
import warnings

import numpy as np
import pytest

from imbkit import harness, metrics, overlap
from imbkit.config import RunConfig, config_from_dict, load_config_file, merge_config
from imbkit.data_model import Dataset, PipelineWarning, load_csv, stratified_folds
from imbkit.harness import (ExperimentReport, FoldResult, ablate_components, ablate_noise, clean,
                            emit_report, partition_regions, report_csv_rows, run_cv)
from imbkit.overlap import gap_profile, select_non_overlapping
from imbkit.region import CORE, NOISY, OVERLAPPING, noise_subset
from tests.conftest import make_blobs

FAST = dict(folds=3, repeats=2, jaya_pop=6, jaya_iters=5)

BUNDLED = ("new-thyroid", "balance", "contraceptive", "vehicle", "winequality-red")


def clean_reference(ds, assignment, config):
    """Sorted kept indices, gathered class by class into per-class base sets first.

    Each class keeps its core samples, the overlap samples its gap profile
    selects, and its noisy samples outside the removed subset.
    """
    removed = noise_subset(assignment, config.noise_remove_fraction)
    base_sets = {}
    for c in range(ds.n_classes):
        nonoverlap = np.empty(0, dtype=np.int64)
        if assignment.indices(OVERLAPPING, c).size:
            profile = gap_profile(ds, assignment, c, z_threshold=config.z_threshold)
            nonoverlap = select_non_overlapping(profile, config.sor_fallback_fraction, config.sor_keep)
        noisy_kept = np.setdiff1d(assignment.indices(NOISY, c), removed, assume_unique=True)
        base_sets[c] = np.sort(np.concatenate([assignment.indices(CORE, c), nonoverlap,
                                               noisy_kept]).astype(np.int64))
    return np.sort(np.concatenate(list(base_sets.values())))


class TestCleanMask:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_equals_per_class_reference(self, name, data_dir):
        ds = load_csv(data_dir / f"{name}.csv", "class")
        for mode in ("midpoint", "mean"):
            assignment = partition_regions(ds, RunConfig(threshold_mode=mode))
            for keep_mode, fraction in itertools.product(("after", "before"), (0.0, 0.5, 1.0)):
                cfg = RunConfig(threshold_mode=mode, sor_keep=keep_mode,
                                noise_remove_fraction=fraction)
                keep = clean(ds, assignment, cfg)
                assert keep.dtype == bool and keep.shape == (ds.n_samples,)
                assert np.array_equal(np.flatnonzero(keep), clean_reference(ds, assignment, cfg)), \
                    (mode, keep_mode, fraction)


class TestRunCv:
    def test_separable_perfect_gmean(self, separable_ds):
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=separable_ds)
        assert rep.aggregate["g_mean"]["mean"] == 1.0
        assert rep.aggregate["g_mean"]["std"] == 0.0
        assert not rep.partial

    def test_no_leakage_between_train_and_test(self, overlapping_imbalanced_ds, fold_calls):
        rep = run_cv(RunConfig(seed=1, **FAST), dataset=overlapping_imbalanced_ds)
        m = overlapping_imbalanced_ds.n_samples
        assert [(r, f) for _, r, f, _, _ in fold_calls] == [(fr.repeat, fr.fold) for fr in rep.folds]
        for r in range(FAST["repeats"]):
            pairs = [(train, test) for _, rr, _, train, test in fold_calls if rr == r]
            assert len(pairs) == FAST["folds"]
            for train, test in pairs:
                assert not set(train.tolist()) & set(test.tolist())
                assert np.array_equal(np.union1d(train, test), np.arange(m))
            tests = np.concatenate([test for _, test in pairs])
            assert np.array_equal(np.sort(tests), np.arange(m))  # the test sets partition the rows

    def test_fold_results_carry_masks_and_or(self, overlapping_imbalanced_ds):
        rep = run_cv(RunConfig(seed=1, **FAST), dataset=overlapping_imbalanced_ds)
        for fr in rep.folds:
            assert fr.status == "ok"
            assert fr.mask is not None and sum(fr.mask) >= 1
            assert fr.or_before is not None and fr.or_after is not None

    def test_aggregate_recomputable_from_folds(self, overlapping_imbalanced_ds):
        rep = run_cv(RunConfig(seed=2, **FAST), dataset=overlapping_imbalanced_ds)
        for key, ms in rep.aggregate.items():
            vals = np.array([fr.metrics[key] for fr in rep.folds
                             if fr.status == "ok" and key in fr.metrics])
            assert ms["mean"] == pytest.approx(vals.mean(), abs=1e-12)
            assert ms["std"] == pytest.approx(vals.std(), abs=1e-12)

    def test_singleton_class_fold_aborts_to_partial(self):
        # one class with a single sample: the fold testing it has no training copy
        feats = np.vstack([np.random.default_rng(0).normal(0, 1, (30, 2)),
                           np.random.default_rng(1).normal(8, 1, (30, 2)),
                           [[4.0, 4.0]]])
        labels = np.array([0] * 30 + [1] * 30 + [2])
        ds = Dataset(feats, labels, ("a", "b", "single"))
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=ds)
        aborted = [fr for fr in rep.folds if fr.status == "aborted"]
        assert rep.partial
        assert aborted and all("single" in fr.reason for fr in aborted)
        # completed folds still report metrics
        assert any(fr.status == "ok" and fr.metrics for fr in rep.folds)

    def test_programming_error_propagates(self, monkeypatch, separable_ds):
        def broken(*args):
            raise TypeError("broken stage")
        monkeypatch.setattr(harness, "clean", broken)
        with pytest.raises(TypeError, match="broken stage"):
            run_cv(RunConfig(seed=0, **FAST), dataset=separable_ds)

    def test_missing_data_path_rejected(self):
        with pytest.raises(ValueError, match="data_path"):
            run_cv(RunConfig())

    def test_sweeps_without_data_rejected_like_run_cv(self):
        # both sweeps once failed inside load_csv with a TypeError on the None path
        with pytest.raises(ValueError, match="data_path"):
            ablate_noise(RunConfig())
        with pytest.raises(ValueError, match="data_path"):
            ablate_components(RunConfig())

    def test_use_pruning_off_gives_all_ones_mask(self, separable_ds):
        rep = run_cv(RunConfig(seed=0, use_pruning=False, **FAST), dataset=separable_ds)
        assert all(fr.mask == [1, 1, 1, 1] for fr in rep.folds if fr.status == "ok")

    def test_scaling_flag_runs(self, overlapping_imbalanced_ds):
        rep = run_cv(RunConfig(seed=0, scale=True, **FAST), dataset=overlapping_imbalanced_ds)
        assert not rep.partial

    def test_custom_pool_spec_flows_through(self, separable_ds):
        cfg = RunConfig(seed=0, pool=(("knn", {"k": 1}), ("tree", {"max_depth": 2})), **FAST)
        rep = run_cv(cfg, dataset=separable_ds)
        assert not rep.partial
        assert all(len(fr.mask) == 2 for fr in rep.folds if fr.status == "ok")
        assert rep.config.to_dict()["pool"] == [
            {"kind": "knn", "params": {"k": 1}},
            {"kind": "tree", "params": {"max_depth": 2}},
        ]


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, overlapping_imbalanced_ds):
        cfg = RunConfig(seed=5, **FAST)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run_cv(cfg, dataset=overlapping_imbalanced_ds), a)
        emit_report(run_cv(cfg, dataset=overlapping_imbalanced_ds), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, overlapping_imbalanced_ds, fold_calls):
        run_cv(RunConfig(seed=1, **FAST), dataset=overlapping_imbalanced_ds)
        run_cv(RunConfig(seed=2, **FAST), dataset=overlapping_imbalanced_ds)
        first = {cfg.seed: test for cfg, r, f, _, test in fold_calls if (r, f) == (0, 0)}
        assert first[1].tolist() != first[2].tolist()


class TestAblations:
    @pytest.fixture
    def noisy_ds(self):
        rng = np.random.default_rng(3)
        ds = make_blobs([(0.0, 0.0), (4.0, 4.0)], [60, 25], std=1.0, seed=3)
        scatter = rng.uniform(-6, 10, size=(30, 2))  # broad junk in both classes
        feats = np.vstack([ds.features, scatter])
        labels = np.concatenate([ds.labels, rng.integers(0, 2, size=30)])
        return Dataset(feats, labels, ("a", "b"))

    def test_noise_ablation_shares_folds(self, noisy_ds, fold_calls):
        reports = ablate_noise(RunConfig(seed=4, **FAST), fractions=(0.0, 1.0), dataset=noisy_ds)
        assert set(reports) == {0.0, 1.0}
        f0, f1 = ([(r, f, test) for cfg, r, f, _, test in fold_calls
                   if cfg.noise_remove_fraction == frac] for frac in (0.0, 1.0))
        assert len(f0) == len(f1) == FAST["folds"] * FAST["repeats"]
        for a, b in zip(f0, f1):
            assert a[:2] == b[:2] and np.array_equal(a[2], b[2])

    def test_noise_fraction_echoed_in_config(self, noisy_ds):
        reports = ablate_noise(RunConfig(seed=4, **FAST), fractions=(0.0, 0.5), dataset=noisy_ds)
        assert reports[0.5].config.noise_remove_fraction == 0.5

    def test_zero_noise_dataset_identical_metrics(self, separable_ds):
        # nothing is tagged noisy, so every fraction yields the same pipeline
        reports = ablate_noise(RunConfig(seed=0, **FAST), fractions=(0.0, 1.0),
                               dataset=separable_ds)
        a = reports[0.0].aggregate
        b = reports[1.0].aggregate
        assert a == b

    def test_component_variants_and_shared_folds(self, overlapping_imbalanced_ds, fold_calls):
        reports = ablate_components(RunConfig(seed=6, **FAST),
                                    dataset=overlapping_imbalanced_ds)
        assert set(reports) == {"no_balancing", "no_pruning", "full"}
        assert reports["no_balancing"].config.use_balancing is False
        assert reports["no_balancing"].config.use_pruning is True
        assert reports["no_pruning"].config.use_balancing is True
        assert reports["no_pruning"].config.use_pruning is False
        tests = [test for _, r, f, _, test in fold_calls if (r, f) == (0, 0)]
        assert len(tests) == len(reports)
        assert all(np.array_equal(tests[0], t) for t in tests)

    def test_sweep_reports_equal_run_cv_with_small_class(self, tmp_path):
        # class c is smaller than folds, so every report carries the fold-plan warning
        ds = make_blobs([(0.0, 0.0), (3.0, 3.0), (1.5, 1.5)], [40, 40, 3], seed=0)
        cfg = RunConfig(seed=0, folds=5, repeats=1, jaya_pop=6, jaya_iters=5)
        emit_report(run_cv(cfg, dataset=ds), tmp_path / "run.json")
        expected = (tmp_path / "run.json").read_bytes()
        assert b"(< 5 folds)" in expected
        sweeps = {"full": ablate_components(cfg, dataset=ds)["full"],
                  "noise": ablate_noise(cfg, fractions=(1.0,), dataset=ds)[1.0]}
        for name, rep in sweeps.items():
            emit_report(rep, tmp_path / f"{name}.json")
            assert (tmp_path / f"{name}.json").read_bytes() == expected, name

    def test_bad_fraction_rejected(self, separable_ds):
        with pytest.raises(ValueError):
            ablate_noise(RunConfig(seed=0, **FAST), fractions=(0.0, 1.5), dataset=separable_ds)


SHARED_STAGES = ((harness, "partition_regions"), (overlap, "sor_all"), (metrics, "overlap_ratios"))
N_FOLDS = FAST["folds"] * FAST["repeats"]


def report_bytes(rep, path):
    emit_report(rep, path)
    return path.read_bytes()


def patch_stage(monkeypatch, module, name, before=lambda: None):
    """Replace ``module.name`` by a wrapper that calls ``before()`` first; returns its call list."""
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        before()
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestSweepSharing:
    """A sweep runs each fold's variant-independent stages once, and every report keeps its bytes."""

    SWEEPS = {"noise": lambda cfg, ds: ablate_noise(cfg, dataset=ds),
              "components": lambda cfg, ds: ablate_components(cfg, dataset=ds)}

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_variants_equal_standalone_runs_and_share_stages(self, tmp_path, monkeypatch, fold_calls,
                                                             overlapping_imbalanced_ds, sweep, scale):
        ds = overlapping_imbalanced_ds
        calls = {name: patch_stage(monkeypatch, module, name) for module, name in SHARED_STAGES}
        keeps = []
        clean_fn = harness.clean
        monkeypatch.setattr(harness, "clean", lambda *a: keeps.append(clean_fn(*a)) or keeps[-1])

        reports = self.SWEEPS[sweep](RunConfig(seed=2, scale=scale, **FAST), ds)
        assert len(reports) == (len(harness.DEFAULT_NOISE_FRACTIONS) if sweep == "noise" else 3)
        assert len(keeps) == len(fold_calls) == N_FOLDS * len(reports)
        masks = {(r, f, keep.tobytes()) for (_, r, f, _, _), keep in zip(fold_calls, keeps)}
        if sweep == "noise":  # the fractions must give different masks, or or_after shares trivially
            assert len(masks) > N_FOLDS
        assert len(calls["partition_regions"]) == N_FOLDS
        assert len(calls["sor_all"]) == N_FOLDS
        assert len(calls["overlap_ratios"]) == N_FOLDS + len(masks)  # or_before, then or_after

        for key, rep in reports.items():
            assert not rep.partial
            standalone = run_cv(rep.config, dataset=ds)
            assert (report_bytes(rep, tmp_path / "sweep.json")
                    == report_bytes(standalone, tmp_path / "run.json")), key

    @pytest.mark.parametrize("module,name", SHARED_STAGES)
    def test_shared_stage_warning_listed_in_every_variant(self, monkeypatch, overlapping_imbalanced_ds,
                                                          module, name):
        ds = overlapping_imbalanced_ds
        calls = patch_stage(monkeypatch, module, name,
                            lambda: warnings.warn(f"from {name}", PipelineWarning))
        reports = ablate_components(RunConfig(seed=2, **FAST), dataset=ds)
        per_fold = 2 if name == "overlap_ratios" else 1  # or_before and or_after
        assert len(calls) == N_FOLDS * per_fold
        for key, rep in reports.items():
            assert rep.warnings.count(f"PipelineWarning: from {name}") == N_FOLDS * per_fold, key
            assert rep.warnings == run_cv(rep.config, dataset=ds).warnings, key

    @pytest.mark.parametrize("module,name", SHARED_STAGES)
    def test_shared_stage_error_aborts_fold_in_every_variant(self, monkeypatch,
                                                             overlapping_imbalanced_ds, module, name):
        def fail():
            warnings.warn(f"before {name} fails", PipelineWarning)
            raise ValueError(f"{name} failed")

        calls = patch_stage(monkeypatch, module, name, fail)
        reports = ablate_components(RunConfig(seed=2, **FAST), dataset=overlapping_imbalanced_ds)
        assert len(calls) == N_FOLDS * len(reports)  # a failure is not stored
        for key, rep in reports.items():
            assert [(fr.status, fr.reason) for fr in rep.folds] == \
                [("aborted", f"ValueError: {name} failed")] * N_FOLDS, key
            assert rep.warnings.count(f"PipelineWarning: before {name} fails") == N_FOLDS, key


class TestEmitReport:
    def test_json_round_trip_aggregates(self, tmp_path, overlapping_imbalanced_ds):
        rep = run_cv(RunConfig(seed=7, **FAST), dataset=overlapping_imbalanced_ds)
        path = tmp_path / "rep.json"
        emit_report(rep, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"config", "folds", "aggregate", "overlap_ratios", "warnings", "partial"}
        for key, ms in doc["aggregate"].items():
            vals = [f["metrics"][key] for f in doc["folds"]
                    if f["status"] == "ok" and key in f["metrics"]]
            assert ms["mean"] == pytest.approx(np.mean(vals), abs=1e-6)
            assert ms["std"] == pytest.approx(np.std(vals), abs=1e-6)

    def test_config_echoed_verbatim(self, tmp_path, separable_ds):
        cfg = RunConfig(seed=9, z_threshold=2.5, sor_keep="before", **FAST)
        path = tmp_path / "rep.json"
        emit_report(run_cv(cfg, dataset=separable_ds), path)
        doc = json.loads(path.read_text())
        assert doc["config"]["seed"] == 9
        assert doc["config"]["z_threshold"] == 2.5
        assert doc["config"]["sor_keep"] == "before"
        assert doc["config"]["folds"] == 3

    def test_empty_fold_list_marks_partial_and_omits_aggregate(self, tmp_path):
        rep = ExperimentReport(config=RunConfig(), folds=[], aggregate={},
                               overlap_ratios={}, warnings=[], partial=True)
        path = tmp_path / "empty.json"
        emit_report(rep, path)
        doc = json.loads(path.read_text())
        assert doc["partial"] is True
        assert "aggregate" not in doc

    def test_csv_row_count(self, tmp_path, separable_ds):
        cfg = RunConfig(seed=0, **FAST)
        rep = run_cv(cfg, dataset=separable_ds)
        path = tmp_path / "rep.csv"
        emit_report(rep, path, fmt="csv")
        lines = path.read_text().strip().split("\n")
        n_ok = sum(1 for fr in rep.folds if fr.status == "ok")
        per_fold = len(report_csv_rows(rep)) / n_ok
        assert len(lines) - 1 == n_ok * per_fold
        assert lines[0] == "repeat,fold,metric,value"

    def test_six_decimal_rendering(self, tmp_path, separable_ds):
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=separable_ds)
        path = tmp_path / "rep.json"
        emit_report(rep, path)
        assert '"mean": 1.000000' in path.read_text()

    def test_bad_format(self, tmp_path, separable_ds):
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=separable_ds)
        with pytest.raises(ValueError, match="format"):
            emit_report(rep, tmp_path / "x", fmt="xml")

    def test_unwritable_path(self, tmp_path, separable_ds):
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=separable_ds)
        with pytest.raises(OSError):
            emit_report(rep, tmp_path / "missing-dir" / "rep.json")


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(seed=3, omrp_k=7)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_out_of_range_values_named_in_one_error(self):
        with pytest.raises(ValueError) as err:
            RunConfig(folds=1, omrp_k=0, sor_keep="middle")
        assert all(name in str(err.value) for name in ("folds", "omrp_k", "sor_keep"))
        assert "seed" not in str(err.value)

    def test_wrong_types_named_in_one_error(self):
        with pytest.raises(ValueError) as err:
            RunConfig(folds="3", seed=True, scale="no", jaya_iters=3.0, pool=[("knn", {})],
                      label_column=None, repeats=0)
        for name in ("folds", "seed", "scale", "jaya_iters", "pool", "label_column", "repeats"):
            assert name in str(err.value), name
        assert "omrp_k" not in str(err.value)

    def test_int_accepted_for_float_fields_uncoerced(self):
        cfg = RunConfig(z_threshold=2, noise_remove_fraction=1)
        assert cfg.to_dict()["z_threshold"] == 2 and type(cfg.z_threshold) is int

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"seeed": 1})

    def test_file_loading_and_merge(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"seed": 11, "folds": 4, "z_threshold": 1.5}))
        cfg = load_config_file(p)
        assert (cfg.seed, cfg.folds, cfg.z_threshold) == (11, 4, 1.5)
        merged = merge_config(cfg, {"seed": 99, "folds": None})
        assert merged.seed == 99
        assert merged.folds == 4  # None means "not set on the command line"

    def test_pool_spec_normalization(self):
        cfg = config_from_dict({"pool": [{"kind": "knn", "params": {"k": 1}}, {"kind": "tree"},
                                         ["extra_tree", {"max_depth": 2}]]})
        assert cfg.pool == (("knn", {"k": 1}), ("tree", {}), ("extra_tree", {"max_depth": 2}))

    def test_malformed_pool_named_in_error(self):
        for raw in ("knn", 3, [], [{"params": {}}], [{"kind": "svm"}], [["knn"]],
                    [["knn", {}, 1]], [{"kind": "knn", "params": [1]}], [[["knn"], {}]]):
            with pytest.raises(ValueError, match="invalid config: pool="):
                config_from_dict({"pool": raw})
        # params are checked by building each entry's classifier
        bad_params = (("knn", {"k": 0}), ("knn", {"k": 2.7}), ("knn", {"k": True}),
                      ("tree", {"max_depth": "x"}), ("extra_tree", {"max_depth": 0}),
                      ("extra_tree", {"seed": 5}), ("gaussian_nb", {"k": 3}))
        for pool in ((("svm", {}),), (("knn", None),), (["knn", {}],), ((3, {}),),
                     *((("knn", {}), entry) for entry in bad_params)):
            with pytest.raises(ValueError, match="invalid config: pool="):
                RunConfig(pool=pool)
