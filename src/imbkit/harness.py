"""Data-level stage chain, cross-validation harness, ablations and report emission.

Every fold fits the probabilistic model, partitions and cleans the training
data, balances it, trains and prunes the pool, then scores the untouched test
fold.  Nothing computed from a test fold ever feeds a training-side stage.
A fold whose data is degenerate for a stage (the stage raises ``ValueError``)
is recorded as aborted and the report marked partial instead of killing the
whole run; any other exception is a bug and propagates.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import learners, metrics, overlap, posterior, pruning, region, resample
from .config import RunConfig
from .data_model import Dataset, PipelineWarning, load_csv, minmax_scale, rng_for, stratified_folds

METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "g_mean", "auc")
FITNESS_HOLDOUT_FRACTION = 0.2


@dataclass
class FoldResult:
    repeat: int
    fold: int
    status: str                  # "ok" | "aborted"
    reason: str | None = None
    metrics: dict = field(default_factory=dict)
    mask: list | None = None
    or_before: float | None = None
    or_after: float | None = None
    timings: dict = field(default_factory=dict)


@dataclass
class ExperimentReport:
    config: RunConfig
    folds: list
    aggregate: dict
    overlap_ratios: dict
    warnings: list
    partial: bool

    def to_document(self) -> dict:
        doc = {"config": self.config.to_dict()}
        doc["folds"] = [{
            "repeat": fr.repeat, "fold": fr.fold, "status": fr.status, "reason": fr.reason,
            "metrics": {k: fr.metrics[k] for k in METRIC_KEYS if k in fr.metrics},
            "mask": fr.mask, "or_before": fr.or_before, "or_after": fr.or_after,
        } for fr in self.folds]
        if self.aggregate:
            doc["aggregate"] = self.aggregate
        doc["overlap_ratios"] = self.overlap_ratios
        doc["warnings"] = list(self.warnings)
        doc["partial"] = self.partial
        return doc


def _split_for_fitness(labels: np.ndarray, rng: np.random.Generator):
    """Stratified 80/20 indices (pool-train, fitness); singleton classes stay on the train side."""
    fit_parts, train_parts = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n_fit = max(1, int(np.floor(FITNESS_HOLDOUT_FRACTION * idx.size + 0.5))) if idx.size >= 2 else 0
        fit_parts.append(idx[:n_fit])
        train_parts.append(idx[n_fit:])
    return np.sort(np.concatenate(train_parts)), np.sort(np.concatenate(fit_parts))


def partition_regions(ds: Dataset, config: RunConfig) -> region.RegionAssignment:
    """Tag every sample of ``ds`` core, overlapping or noisy from its naive-Bayes posteriors."""
    post = posterior.posteriors(posterior.fit_nb(ds.features, ds.labels, ds.n_classes), ds.features)
    thresholds = region.class_thresholds(post, ds.labels, mode=config.threshold_mode)
    return region.partition(post, thresholds, ds.labels)


def _shared(memo: dict | None, key: tuple, compute):
    """``compute()``, run once per ``key`` of ``memo`` and reused after; without a memo, every call.

    The warnings the first run emits are stored and emitted again on every
    use, so each report lists them where an unshared run would.  A stage that
    raises stores nothing: every variant meets the error itself.  Every use
    gets the same objects, so callers must not modify them.
    """
    if memo is None:
        return compute()
    if key not in memo:
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                memo[key] = compute(), [w.message for w in caught]
        finally:
            if key not in memo:  # it raised: emit what it warned before the error
                for w in caught:
                    warnings.warn(w.message)
    value, messages = memo[key]
    for message in messages:
        warnings.warn(message)
    return value


def clean(ds: Dataset, assignment: region.RegionAssignment, config: RunConfig,
          memo: dict | None = None) -> np.ndarray:
    """Row mask of the kept samples: core, the selected non-overlapping and the surviving noisy.

    ``memo`` is one fold's shared-stage dict in a sweep (see ``run_cv``).
    """
    # sor_all sees the partition (scale, threshold_mode), not noise_remove_fraction
    nonoverlap = _shared(memo, ("sor_all", config.scale, config.threshold_mode, config.z_threshold,
                                config.sor_fallback_fraction, config.sor_keep),
                         lambda: overlap.sor_all(ds, assignment, z_threshold=config.z_threshold,
                                                 fallback_fraction=config.sor_fallback_fraction,
                                                 keep_mode=config.sor_keep))
    keep = assignment.tags != region.OVERLAPPING
    keep[region.noise_subset(assignment, config.noise_remove_fraction)] = False
    keep[nonoverlap] = True
    return keep


def balance(ds: Dataset, keep: np.ndarray, config: RunConfig,
            rng_factory) -> resample.BalanceResult:
    """Top every class's kept rows up to the largest class's; ``rng_factory(c)`` seeds class ``c``."""
    return resample.build_balanced(ds, keep, knn_k=config.omrp_k,
                                   max_attempts_factor=config.omrp_max_attempts_factor,
                                   rng_factory=rng_factory)


def _overlap_ratio(ds: Dataset, knn_k: int) -> float | None:
    """``ds``'s dataset-level overlap ratio; None when it has too few rows for ``knn_k`` neighbours."""
    return metrics.overlap_ratios(ds, knn_k=knn_k).or_dataset if ds.n_samples >= knn_k + 1 else None


def _run_fold(ds: Dataset, train_idx: np.ndarray, test_idx: np.ndarray,
              config: RunConfig, repeat: int, fold: int, memo: dict | None) -> FoldResult:
    seed = config.seed
    result = FoldResult(repeat=repeat, fold=fold, status="ok")
    clock = time.perf_counter
    shared = None if memo is None else memo.setdefault((repeat, fold), {})

    def split_and_partition():
        train_ds, test_x = ds.subset(train_idx), ds.features[test_idx]
        if config.scale:
            train_ds, test_x = minmax_scale(train_ds, test_x)
        return train_ds, test_x, partition_regions(train_ds, config)

    t0 = clock()
    train_ds, test_x, assignment = _shared(shared, ("partition", config.scale, config.threshold_mode),
                                           split_and_partition)
    test_y = ds.labels[test_idx]
    result.timings["partition"] = clock() - t0

    t0 = clock()
    keep = clean(train_ds, assignment, config, shared)
    result.timings["clean"] = clock() - t0

    t0 = clock()
    result.or_before = _shared(shared, ("or_before", config.scale, config.or_knn_k),
                               lambda: _overlap_ratio(train_ds, config.or_knn_k))
    cleaned = train_ds.subset(keep)  # raises if cleaning emptied a class
    result.or_after = _shared(shared, ("or_after", config.scale, config.or_knn_k, keep.tobytes()),
                              lambda: _overlap_ratio(cleaned, config.or_knn_k))
    result.timings["overlap_ratio"] = clock() - t0

    t0 = clock()
    if config.use_balancing:
        balanced = balance(train_ds, keep, config,
                           lambda c: rng_for(seed, "omrp", repeat, fold, c)).dataset
        data_x, data_y = balanced.features, balanced.labels
    else:
        data_x, data_y = cleaned.features, cleaned.labels
    result.timings["balance"] = clock() - t0

    t0 = clock()
    pool_seed = int(rng_for(seed, "pool", repeat, fold).integers(2 ** 31))
    pool_rows = fit_rows = np.arange(data_y.size)
    if config.use_pruning:
        pool_rows, fit_rows = _split_for_fitness(data_y, rng_for(seed, "split", repeat, fold))
        if fit_rows.size == 0:
            warnings.warn("fitness holdout empty; evaluating pruning on the pool training data",
                          PipelineWarning, stacklevel=2)
            fit_rows = pool_rows  # every row: no class could spare one
    pool = learners.train_pool(data_x[pool_rows], data_y[pool_rows], ds.n_classes,
                               pool_spec=config.pool, seed=pool_seed)
    mask = np.ones(pool.size, dtype=np.int64)
    if config.use_pruning:
        mask = pruning.prune(pool, data_x[fit_rows], data_y[fit_rows], n_pop=config.jaya_pop,
                             t_max=config.jaya_iters, rng=rng_for(seed, "jaya", repeat, fold)).mask
    result.timings["ensemble"] = clock() - t0

    t0 = clock()
    preds_matrix = learners.member_predictions(pool, test_x)
    preds = learners.vote_from_predictions(preds_matrix, mask.astype(bool), ds.n_classes)
    cmetrics = metrics.classification_metrics(preds, test_y, ds.n_classes)
    result.metrics = cmetrics.as_dict()
    try:
        scores = learners.vote_shares(preds_matrix, mask.astype(bool), ds.n_classes)
        result.metrics["auc"] = metrics.macro_ovr_auc(scores, test_y)
    except ValueError:
        pass  # degenerate single-class test fold: AUC undefined, omitted
    result.mask = [int(v) for v in mask]
    result.timings["predict"] = clock() - t0
    return result


def _mean_std(values: dict) -> dict:
    """{key: {"mean", "std"}} of each key's list of values; keys with no values are left out."""
    return {key: {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
            for key, vals in values.items() if vals}


def _dataset(config: RunConfig, dataset: Dataset | None) -> Dataset:
    """``dataset`` if given, else the config's data file loaded."""
    if dataset is None and config.data_path is None:
        raise ValueError("config.data_path is required when no dataset is passed")
    return load_csv(config.data_path, config.label_column) if dataset is None else dataset


def run_cv(config: RunConfig, dataset: Dataset | None = None, *,
           memo: dict | None = None) -> ExperimentReport:
    """Repeated stratified cross-validation of the full pipeline.

    ``dataset`` may be supplied directly; otherwise it is loaded from the
    config.  The fold plan depends only on the data, ``folds``, ``repeats``
    and ``seed``, so reports with those equal share it.  Deterministic for a
    given config and seed.

    ``memo`` lets reports on the same dataset and fold plan share each fold's
    split and partition, its ``sor_all`` and its overlap ratios.  Each is
    stored under ``(repeat, fold)`` and the config fields it reads, so the
    report's bytes equal those of a run without the memo.
    """
    dataset = _dataset(config, dataset)
    fold_results: list[FoldResult] = []
    with warnings.catch_warnings(record=True) as wrec:
        warnings.simplefilter("always")
        plan = stratified_folds(dataset, config.folds, config.repeats, config.seed)
        for r in range(plan.repeats):
            for f in range(plan.k):
                try:
                    result = _run_fold(dataset, plan.train_indices(r, f), plan.test_indices(r, f),
                                       config, r, f, memo)
                except ValueError as exc:
                    result = FoldResult(repeat=r, fold=f, status="aborted",
                                        reason=f"{type(exc).__name__}: {exc}")
                fold_results.append(result)
    caught = [f"{w.category.__name__}: {w.message}" for w in wrec]

    ok = [fr for fr in fold_results if fr.status == "ok"]
    aggregate = _mean_std({key: [fr.metrics[key] for fr in ok if key in fr.metrics]
                           for key in METRIC_KEYS})
    overlap_ratios = _mean_std({"before": [fr.or_before for fr in ok if fr.or_before is not None],
                                "after": [fr.or_after for fr in ok if fr.or_after is not None]})
    return ExperimentReport(config=config, folds=fold_results, aggregate=aggregate,
                            overlap_ratios=overlap_ratios, warnings=caught,
                            partial=len(ok) < len(fold_results))


DEFAULT_NOISE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

COMPONENT_VARIANTS = {
    "no_balancing": {"use_balancing": False, "use_pruning": True},
    "no_pruning": {"use_balancing": True, "use_pruning": False},
    "full": {"use_balancing": True, "use_pruning": True},
}


def _sweep(config: RunConfig, variants: dict, dataset: Dataset | None) -> dict:
    """One report per variant's config overrides, on one load of the data.

    Every variant's config is built, and so checked, before any variant runs.
    No variant overrides the fold settings, so all of them share one fold plan,
    and one memo shares each fold's stages that the overrides do not reach.
    """
    configs = {key: replace(config, **overrides) for key, overrides in variants.items()}
    dataset = _dataset(config, dataset)
    memo = {}
    return {key: run_cv(cfg, dataset, memo=memo) for key, cfg in configs.items()}


def ablate_noise(config: RunConfig, fractions=DEFAULT_NOISE_FRACTIONS,
                 dataset: Dataset | None = None) -> dict:
    """One report per noise-removal fraction, all sharing the same fold plan."""
    return _sweep(config, {f: {"noise_remove_fraction": f} for f in fractions}, dataset)


def ablate_components(config: RunConfig, dataset: Dataset | None = None) -> dict:
    """Reports for the no-balancing, no-pruning and full pipeline variants on shared folds."""
    return _sweep(config, COMPONENT_VARIANTS, dataset)


# ---------------------------------------------------------------------------
# report emission


def _render_json(obj, indent=0) -> str:
    """JSON with insertion-ordered keys and all reals rendered at 6 decimal places."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {json.dumps(str(k))}: {_render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return f"{float(obj):.6f}"
    return json.dumps(obj)


def report_csv_rows(report: ExperimentReport):
    """(repeat, fold, metric, value) rows for every metric of every completed fold."""
    rows = []
    for fr in report.folds:
        if fr.status != "ok":
            continue
        for key in METRIC_KEYS:
            if key in fr.metrics:
                rows.append((fr.repeat, fr.fold, key, fr.metrics[key]))
        for key, val in (("or_before", fr.or_before), ("or_after", fr.or_after)):
            if val is not None:
                rows.append((fr.repeat, fr.fold, key, val))
    return rows


def emit_report(report: ExperimentReport, path, fmt: str = "json") -> None:
    """Write the report as a JSON document or CSV rows; stable output bytes."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be json or csv, got {fmt!r}")
    if fmt == "json":
        text = _render_json(report.to_document()) + "\n"
    else:
        lines = ["repeat,fold,metric,value"]
        lines += [f"{r},{f},{m},{v:.6f}" for r, f, m, v in report_csv_rows(report)]
        text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
