import json
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from imbkit import harness, learners, metrics, overlap, pruning
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
            nonoverlap = select_non_overlapping(profile)
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
            for fraction in (0.0, 0.5, 1.0):
                cfg = RunConfig(threshold_mode=mode, noise_remove_fraction=fraction)
                keep = clean(ds, assignment, cfg)
                assert keep.dtype == bool and keep.shape == (ds.n_samples,)
                assert np.array_equal(np.flatnonzero(keep), clean_reference(ds, assignment, cfg)), \
                    (mode, fraction)


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

    def test_empty_test_folds_abort_before_training(self, data_dir, monkeypatch):
        # 230 folds of new-thyroid's 215 rows: 80 test folds are empty and abort
        # before the partition, so no stage trains on a fold that cannot be scored
        partitioned = []
        monkeypatch.setattr(harness, "partition_regions",
                            lambda ds, config, run=harness.partition_regions: partitioned.append(1) or run(ds, config))
        rep = run_cv(RunConfig(data_path=str(data_dir / "new-thyroid.csv"), folds=230, repeats=1,
                               jaya_pop=4, jaya_iters=2))
        assert Counter(fr.status for fr in rep.folds) == {"ok": 150, "aborted": 80}
        assert len(partitioned) == 150
        for fr in rep.folds:
            if fr.status == "aborted":
                assert fr.reason == f"split: ValueError: repeat 0, fold {fr.fold}: empty test set, nothing to score"

    def test_overflowing_squared_norms_abort_every_fold(self):
        # finite features near 1e154 pass the data and posterior checks, but
        # their squared norms overflow: the identity would give NaN distances
        rng = np.random.default_rng(0)
        x = 1e154 + rng.random((60, 3)) * 1e150 * np.arange(1, 61)[:, None]
        ds = Dataset(x, np.arange(60) % 2, ("a", "b"))
        rep = run_cv(RunConfig(folds=2, repeats=1, jaya_pop=4, jaya_iters=2), dataset=ds)
        assert rep.partial
        assert all(fr.status == "aborted" and fr.reason.startswith("clean: ValueError: squared row norms overflow")
                   for fr in rep.folds)
        assert not [w for w in rep.warnings if "overflow encountered" in w]  # the reasons alone speak

    def test_nan_posteriors_abort_fold_at_partition(self):
        # a feature at 1e160 overflows its variance, so every posterior is NaN:
        # the partition must reject them, not tag every row noisy for the cleaning
        ds = make_blobs([(0.0, 0.0), (3.0, 3.0)], [30, 30], seed=0)
        ds = Dataset(ds.features * [1e160, 1.0], ds.labels, ds.class_names)
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=ds)
        assert rep.partial
        assert all(fr.status == "aborted" and fr.reason.startswith("partition: ValueError: posterior entries")
                   for fr in rep.folds)

    def test_programming_error_propagates(self, monkeypatch, separable_ds):
        def broken(*args):
            raise TypeError("broken stage")
        monkeypatch.setattr(harness, "clean", broken)
        with pytest.raises(TypeError, match="broken stage"):
            run_cv(RunConfig(seed=0, **FAST), dataset=separable_ds)

    @pytest.mark.parametrize("stage,module,name", [
        ("partition", harness, "partition_regions"), ("clean", overlap, "sor_all"),
        ("overlap_ratio", metrics, "overlap_ratios"), ("balance", harness, "balance"),
        ("ensemble", learners, "train_pool"), ("predict", learners, "member_predictions")])
    def test_stage_error_aborts_one_fold_under_the_stage_name(self, monkeypatch, fold_calls,
                                                              overlapping_imbalanced_ds, stage, module, name):
        def fail():
            if fold_calls[-1][1:3] == (1, 2):  # the fold now running
                raise ValueError(f"{name} failed")

        patch_stage(monkeypatch, module, name, fail)
        rep = run_cv(RunConfig(seed=1, **FAST), dataset=overlapping_imbalanced_ds)
        assert [(fr.repeat, fr.fold, fr.reason) for fr in rep.folds if fr.status == "aborted"] == \
            [(1, 2, f"{stage}: ValueError: {name} failed")]
        assert sum(fr.status == "ok" and bool(fr.metrics) for fr in rep.folds) == N_FOLDS - 1

    def test_class_emptied_by_cleaning_aborts_at_clean(self, monkeypatch, overlapping_imbalanced_ds):
        monkeypatch.setattr(harness, "clean", lambda ds, *rest: ds.labels != 1)
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=overlapping_imbalanced_ds)
        assert all(fr.status == "aborted" and fr.reason.startswith("clean: ValueError: classes with no samples")
                   for fr in rep.folds)

    @pytest.mark.parametrize("module,name", [(harness, "_Scored"), (pruning, "prune"),
                                             (metrics, "classification_metrics"), (learners, "vote_shares")])
    def test_value_error_outside_a_fold_stage_propagates(self, monkeypatch, separable_ds, module, name):
        # a fold's hand-off to the search, the run's one search and the test-fold
        # scoring are no stage of _run_fold: their ValueError is a bug, and no fold aborts;
        # only macro_ovr_auc's on a single-class test fold is caught, and drops the AUC
        def fail():
            raise ValueError(f"{name} failed")

        patch_stage(monkeypatch, module, name, fail)
        with pytest.raises(ValueError, match=f"{name} failed"):
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


class TestOneSearchPerRun:
    """Folds stop before their Jaya search; one ``pruning.prune`` call then searches for all of them."""

    def test_one_prune_call_per_run_cv(self, monkeypatch, overlapping_imbalanced_ds):
        calls = patch_stage(monkeypatch, pruning, "prune")
        rep = run_cv(RunConfig(seed=1, **FAST), dataset=overlapping_imbalanced_ds)
        assert len(calls) == 1 and len(calls[0][0]) == N_FOLDS
        for fr in rep.folds:
            assert list(fr.timings) == ["partition", "clean", "overlap_ratio", "balance", "ensemble",
                                        "predict"]
        ablate_components(RunConfig(seed=1, **FAST), dataset=overlapping_imbalanced_ds)
        assert len(calls) == 1 + 2  # no_pruning searches nothing

    def test_aborted_folds_are_not_searched(self, monkeypatch):
        feats = np.vstack([np.random.default_rng(0).normal(0, 1, (30, 2)),
                           np.random.default_rng(1).normal(8, 1, (30, 2)), [[4.0, 4.0]]])
        ds = Dataset(feats, np.array([0] * 30 + [1] * 30 + [2]), ("a", "b", "single"))
        calls = patch_stage(monkeypatch, pruning, "prune")
        rep = run_cv(RunConfig(seed=0, **FAST), dataset=ds)
        assert rep.partial
        assert [len(args[0]) for args in calls] == [sum(fr.status == "ok" for fr in rep.folds)]


class TestWarningOrder:
    """Warnings are captured per fold and phase and listed in fold order."""

    def test_scoring_warning_listed_before_a_later_folds_first_phase(self, monkeypatch):
        # class c2 has 3 rows in 5 folds: folds 0 and 4 test no c2 row, so they warn
        # only when scored, after every fold's search; each fold also warns on entry
        ds = make_blobs([(0.0, 0.0), (3.0, 3.0), (1.5, 1.5)], [40, 40, 3], seed=0)
        cfg = RunConfig(seed=0, folds=5, repeats=1, jaya_pop=6, jaya_iters=5)
        run_fold = harness._run_fold

        def entering(ds, train_idx, test_idx, config, repeat, fold, *rest):
            warnings.warn(f"entering fold {fold}", PipelineWarning)
            return run_fold(ds, train_idx, test_idx, config, repeat, fold, *rest)

        monkeypatch.setattr(harness, "_run_fold", entering)
        rep = run_cv(cfg, dataset=ds)
        absent = "PipelineWarning: classes absent from truth excluded from macro averages: [2]"
        assert "(< 5 folds)" in rep.warnings[0]  # the fold plan's warning comes first
        assert [w for w in rep.warnings if w == absent or "entering" in w] == [
            "PipelineWarning: entering fold 0", absent, "PipelineWarning: entering fold 1",
            "PipelineWarning: entering fold 2", "PipelineWarning: entering fold 3",
            "PipelineWarning: entering fold 4", absent]
        assert ablate_components(cfg, dataset=ds)["full"].warnings == rep.warnings


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

    @pytest.mark.parametrize("overrides", [{"seed": 1}, {"scale": True},
                                           {"use_pruning": False, "or_knn_k": 3}])
    def test_sweep_rejects_fields_outside_variant_fields(self, separable_ds, fold_calls, overrides):
        # the sweep's memo is keyed by the fold alone, so no variant may change an earlier stage
        field = next(name for name in overrides if name not in harness.VARIANT_FIELDS)
        with pytest.raises(ValueError, match=field):
            harness._sweep(RunConfig(seed=0, **FAST), {"a": {}, "b": overrides}, separable_ds)
        assert fold_calls == []


SHARED_STAGES = ((harness, "partition_regions"), (overlap, "sor_all"), (metrics, "overlap_ratios"))
STAGE_OF = {"partition_regions": "partition", "sor_all": "clean", "overlap_ratios": "overlap_ratio"}
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

    # FAST's 3 folds x 2 repeats build the dataset's neighbour table where unscaled; 2 x 1 builds none
    PLANS = [pytest.param(sweep, scale, FAST["folds"], FAST["repeats"], id=f"{sweep}-{scale}")
             for sweep in sorted(SWEEPS) for scale in (False, True)]
    PLANS += [pytest.param(sweep, False, 2, 1, id=f"{sweep}-False-2x1") for sweep in sorted(SWEEPS)]

    @pytest.mark.parametrize("sweep,scale,folds,repeats", PLANS)
    def test_variants_equal_standalone_runs_and_share_stages(self, tmp_path, monkeypatch, fold_calls,
                                                             overlapping_imbalanced_ds, sweep, scale,
                                                             folds, repeats):
        ds = overlapping_imbalanced_ds
        calls = {name: patch_stage(monkeypatch, module, name) for module, name in SHARED_STAGES}
        passes = patch_stage(monkeypatch, harness, "_dataset_neighbors")
        keeps = []
        clean_fn = harness.clean
        monkeypatch.setattr(harness, "clean", lambda *a: keeps.append(clean_fn(*a)) or keeps[-1])

        n_folds = folds * repeats
        reports = self.SWEEPS[sweep](RunConfig(seed=2, scale=scale, **dict(FAST, folds=folds, repeats=repeats)), ds)
        assert len(passes) == (0 if scale or folds == 2 else 1)
        assert len(reports) == (len(harness.DEFAULT_NOISE_FRACTIONS) if sweep == "noise" else 3)
        assert len(keeps) == len(fold_calls) == n_folds * len(reports)
        masks = {(r, f, keep.tobytes()) for (_, r, f, _, _), keep in zip(fold_calls, keeps)}
        if sweep == "noise":  # the fractions must give different masks, or or_after shares trivially
            assert len(masks) > n_folds
        assert len(calls["partition_regions"]) == n_folds
        assert len(calls["sor_all"]) == n_folds
        assert len(calls["overlap_ratios"]) == n_folds + len(masks)  # or_before, then or_after

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
                [("aborted", f"{STAGE_OF[name]}: ValueError: {name} failed")] * N_FOLDS, key
            assert rep.warnings.count(f"PipelineWarning: before {name} fails") == N_FOLDS, key


class TestDatasetNeighbourPass:
    """An unscaled run computes one K-nearest table over the whole dataset, and each fold's
    ``or_before`` reads it, where the training folds that reach ``or_before`` would compute
    more distance cells on their own (the sum of their rows²) than 2 n².

    balance's integer features make every distance cell exact, so a cell does
    not depend on which rows share its block, and ``or_before`` read from the
    dataset's table must equal the ratio computed on the training fold alone.
    """

    CFG = dict(repeats=1, jaya_pop=4, jaya_iters=2)

    @pytest.fixture(scope="class")
    def balance_ds(self, data_dir):
        return load_csv(data_dir / "balance.csv", "class")

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        compute = harness._dataset_neighbors
        monkeypatch.setattr(harness, "_dataset_neighbors",
                            lambda ds, config: calls.append(ds) or compute(ds, config))
        return calls

    @staticmethod
    def assert_or_before_of_the_training_fold_alone(rep, ds):
        plan = stratified_folds(ds, rep.config.folds, rep.config.repeats, rep.config.seed)
        assert not rep.partial
        for fr in rep.folds:
            train = ds.subset(plan.train_indices(fr.repeat, fr.fold))
            assert fr.or_before == harness.overlap_ratio(train, rep.config.or_knn_k), (fr.repeat, fr.fold)

    # cells of the training folds against n²: 0.5 at 2x1, 1.000003 at 2x2 (balance's
    # 625 rows split 312 + 313), 1.33 at 3x1, 2.25 at 4x1, 2.67 at 3x2 and 3.2 at 5x1
    PLANS = [(2, 1, 0), (2, 2, 0), (3, 1, 0), (4, 1, 1), (3, 2, 1), (5, 1, 1)]

    @pytest.mark.parametrize("folds,repeats,n_passes", PLANS, ids=[f"{f}x{r}" for f, r, _ in PLANS])
    def test_or_before_equals_the_training_fold_alone(self, balance_ds, passes, folds, repeats, n_passes):
        rep = run_cv(RunConfig(folds=folds, **dict(self.CFG, repeats=repeats)), dataset=balance_ds)
        assert len(passes) == n_passes
        self.assert_or_before_of_the_training_fold_alone(rep, balance_ds)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_pass_taken_from_4x1_never_at_3x1(self, monkeypatch, data_dir, passes, name):
        ds = load_csv(data_dir / f"{name}.csv", "class")

        def no_fold(*args):
            raise harness._Abort("split: ValueError: not run")

        monkeypatch.setattr(harness, "_run_fold", no_fold)
        for folds, repeats, n_passes in self.PLANS + [(5, 10, 1)]:
            passes.clear()
            run_cv(RunConfig(folds=folds, repeats=repeats), dataset=ds)
            assert len(passes) == n_passes, (folds, repeats)

    def test_short_rows_recompute_their_block(self, data_dir, monkeypatch, passes):
        # at 3 folds and or_knn_k=1 the table holds K=4 neighbours per row, and over
        # 2 repeats 10 training rows of new-thyroid find none of theirs in their training fold
        ds = load_csv(data_dir / "new-thyroid.csv", "class")
        short = []
        restrict = harness.distances.restrict_nearest

        def recording(x, table, rows, k):
            short.append(int(np.count_nonzero(np.isin(table[rows], rows).sum(axis=1) < k)))
            return restrict(x, table, rows, k)

        monkeypatch.setattr(harness.distances, "restrict_nearest", recording)
        rep = run_cv(RunConfig(folds=3, or_knn_k=1, **dict(self.CFG, repeats=2)), dataset=ds)
        assert len(passes) == 1 and sum(short) == 10
        self.assert_or_before_of_the_training_fold_alone(rep, ds)

    def test_one_pass_per_run_and_per_sweep(self, balance_ds, passes, fold_calls):
        cfg = RunConfig(folds=4, **self.CFG)
        run_cv(cfg, dataset=balance_ds)
        assert len(passes) == 1
        ablate_noise(cfg, fractions=(0.0, 0.5, 1.0), dataset=balance_ds)
        assert len(passes) == 2
        ablate_components(cfg, dataset=balance_ds)
        assert len(passes) == 3
        assert len(fold_calls) == 4 * (1 + 3 + 3)

    def test_scaled_runs_compute_no_pass(self, balance_ds, passes):
        run_cv(RunConfig(folds=4, scale=True, **self.CFG), dataset=balance_ds)
        ablate_components(RunConfig(folds=4, scale=True, **self.CFG), dataset=balance_ds)
        assert passes == []

    @staticmethod
    def failing_pass(monkeypatch, n_rows):
        """Make every distance call against all ``n_rows`` rows (only the pass makes one) raise."""
        compute = harness.distances.pairwise_sq

        def pairwise_sq(a, b, norms=None):
            if len(b) == n_rows:
                raise ValueError("the dataset pass failed")
            return compute(a, b, norms)

        monkeypatch.setattr(harness.distances, "pairwise_sq", pairwise_sq)

    def test_pass_error_builds_no_table(self, tmp_path, monkeypatch, balance_ds, passes):
        # each fold computes its own or_before, as when the cost rule takes no pass
        self.failing_pass(monkeypatch, balance_ds.n_samples)
        cfg = RunConfig(folds=4, **self.CFG)
        rep = run_cv(cfg, dataset=balance_ds)
        assert len(passes) == 1
        self.assert_or_before_of_the_training_fold_alone(rep, balance_ds)
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_fold_cells", lambda plan, knn_k: 0)
            unshared = report_bytes(run_cv(cfg, dataset=balance_ds), tmp_path / "unshared.json")
        assert len(passes) == 1
        assert report_bytes(rep, tmp_path / "report.json") == unshared

    def test_no_pass_when_no_training_fold_exceeds_or_knn_k(self, tmp_path, monkeypatch, data_dir, passes):
        # vehicle's 5 training folds have 676, 676, 677, 677 and 678 of its 846 rows: 3.2 n² cells
        # when every fold reaches or_before, none at or_knn_k=678
        ds = load_csv(data_dir / "vehicle.csv", "class")
        plan = stratified_folds(ds, 5, 1, 0)
        assert sorted(len(plan.train_indices(0, f)) for f in range(5)) == [676, 676, 677, 677, 678]
        for k, reached in ((678, 0), (677, 1)):  # 678² < 2 · 846²: the one fold computes its own
            cfg = RunConfig(folds=5, or_knn_k=k, **self.CFG)
            run = report_bytes(run_cv(cfg, dataset=ds), tmp_path / "run.json")
            assert passes == []
            assert run.count(b'"or_before": null') == 5 - reached
            # the same run with the pass forced gives the same bytes
            with monkeypatch.context() as mp:
                mp.setattr(harness, "_fold_cells", lambda plan, knn_k: 2 * ds.n_samples ** 2 + 1)
                assert report_bytes(run_cv(cfg, dataset=ds), tmp_path / "forced.json") == run
            assert len(passes) == 1
            passes.clear()
        # three folds reach or_before at 676: their cells, 1.92 n², stay under 2 n²;
        # all five do at 675, and their 3.2 n² take the pass
        for k, n_passes, reached in ((676, 0, 3), (675, 1, 5)):
            rep = run_cv(replace(cfg, or_knn_k=k), dataset=ds)
            assert len(passes) == n_passes
            assert sum(fr.or_before is not None for fr in rep.folds) == reached

    def test_pass_error_builds_no_table_in_a_sweep(self, tmp_path, monkeypatch, balance_ds, passes):
        self.failing_pass(monkeypatch, balance_ds.n_samples)
        cfg = RunConfig(folds=4, **self.CFG)
        reports = ablate_components(cfg, dataset=balance_ds)
        assert len(passes) == 1  # None is stored like a table
        with monkeypatch.context() as mp:
            mp.setattr(harness, "_fold_cells", lambda plan, knn_k: 0)
            unshared = ablate_components(cfg, dataset=balance_ds)
        assert len(passes) == 1
        for key, rep in reports.items():
            assert not rep.partial, key
            assert (report_bytes(rep, tmp_path / "sweep.json")
                    == report_bytes(unshared[key], tmp_path / "unshared.json")), key


class TestTestFoldInvariance:
    """Nothing computed from a test fold reaches a training-side output.

    For each fold of a 5x1 plan, the fold's test rows get features redrawn
    uniformly within each column's range and their labels permuted; the plan
    itself is kept, since it is drawn from the labels.  The fold's mask, Jaya
    history, ``or_before``, ``or_after`` and the rows ``train_pool`` receives
    must not change, in ``run_cv`` and in every variant of a sweep.  Test
    rows' member predictions run before the search, so this also checks that
    they never reach it.
    """

    CFG = dict(folds=5, repeats=1, jaya_pop=4, jaya_iters=3)

    @staticmethod
    def recorder(monkeypatch):
        """Per ``run_cv`` call, in order: the report, each search's history and each pool's training rows."""
        runs = []
        run_cv_fn, prune_fn, train_pool_fn = harness.run_cv, pruning.prune, learners.train_pool

        def recording_run_cv(*args, **kwargs):
            runs.append({"histories": [], "pools": []})
            runs[-1]["report"] = run_cv_fn(*args, **kwargs)
            return runs[-1]["report"]

        def recording_prune(*args, **kwargs):
            found = prune_fn(*args, **kwargs)
            runs[-1]["histories"] += [p.history for p in found]
            return found

        def recording_train_pool(features, labels, *args, **kwargs):
            runs[-1]["pools"].append((features.tobytes(), labels.tobytes()))
            return train_pool_fn(features, labels, *args, **kwargs)

        monkeypatch.setattr(harness, "run_cv", recording_run_cv)
        monkeypatch.setattr(pruning, "prune", recording_prune)
        monkeypatch.setattr(learners, "train_pool", recording_train_pool)
        return runs

    def fold_outputs(self, runs, ds, config):
        """[run_cv's, then each sweep variant's] {fold: (mask, history, or_before, or_after, pool rows)}
        of the folds that complete; only those reach the search and ``train_pool``."""
        runs.clear()
        harness.run_cv(config, dataset=ds)
        ablate_components(config, dataset=ds)
        out = []
        for run in runs:
            ok = [fr for fr in run["report"].folds if fr.status == "ok"]
            histories = run["histories"] or [None] * len(ok)  # no_pruning searches nothing
            assert len(histories) == len(run["pools"]) == len(ok)
            out.append({fr.fold: (fr.mask, history, fr.or_before, fr.or_after, pool)
                        for fr, history, pool in zip(ok, histories, run["pools"])})
        return out

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("name", ["balance", "vehicle", "winequality-red"])
    def test_redrawn_test_rows_change_no_training_output(self, monkeypatch, data_dir, name, scale):
        ds = load_csv(data_dir / f"{name}.csv", "class")
        config = RunConfig(scale=scale, **self.CFG)
        plan = stratified_folds(ds, config.folds, config.repeats, config.seed)
        monkeypatch.setattr(harness, "stratified_folds", lambda *args: plan)
        runs = self.recorder(monkeypatch)
        want = self.fold_outputs(runs, ds, config)
        assert len(want) == 4  # run_cv, then no_balancing, no_pruning and full
        lo, hi = ds.features.min(axis=0), ds.features.max(axis=0)
        for fold in range(config.folds):
            test = plan.test_indices(0, fold)
            rng = np.random.default_rng(fold)
            features, labels = ds.features.copy(), ds.labels.copy()
            features[test] = rng.uniform(lo, hi, size=(test.size, ds.n_features))
            labels[test] = rng.permutation(labels[test])
            got = self.fold_outputs(runs, Dataset(features, labels, ds.class_names), config)
            for variant, (w, g) in enumerate(zip(want, got)):
                assert len(w) == len(g) == config.folds, (fold, variant)  # every fold completes
                assert g[fold] == w[fold], (fold, variant)

    def test_an_overflowing_test_row_changes_no_training_output(self, monkeypatch):
        # one row's squared norm, 1.44e308, overflows where the distance identity adds two
        # of them: the folds that train on it abort, and the one that tests it runs as
        # though the row were ordinary, also where the run would read the dataset's table
        rng = np.random.default_rng(0)
        ordinary = Dataset(rng.normal(size=(120, 3)), np.repeat([0, 1, 2], [70, 35, 15]), ("a", "b", "c"))
        config = RunConfig(**self.CFG)
        plan = stratified_folds(ordinary, config.folds, config.repeats, config.seed)
        monkeypatch.setattr(harness, "stratified_folds", lambda *args: plan)
        fold = 1
        features = ordinary.features.copy()
        features[plan.test_indices(0, fold)[0], 0] = 1.2e154
        runs = self.recorder(monkeypatch)
        want = self.fold_outputs(runs, ordinary, config)
        got = self.fold_outputs(runs, Dataset(features, ordinary.labels, ordinary.class_names), config)
        assert len(got) == 4
        for variant, (w, g) in enumerate(zip(want, got)):
            assert len(w) == config.folds and list(g) == [fold], variant
            assert g[fold] == w[fold], variant


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
        cfg = RunConfig(seed=9, z_threshold=2.5, threshold_mode="mean", **FAST)
        path = tmp_path / "rep.json"
        emit_report(run_cv(cfg, dataset=separable_ds), path)
        doc = json.loads(path.read_text())
        assert doc["config"]["seed"] == 9
        assert doc["config"]["z_threshold"] == 2.5
        assert doc["config"]["threshold_mode"] == "mean"
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
            RunConfig(folds=1, omrp_k=0, threshold_mode="median")
        assert all(name in str(err.value) for name in ("folds", "omrp_k", "threshold_mode"))
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
