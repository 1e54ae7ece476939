"""Data-level stage chain, cross-validation harness, ablations and report emission.

Every fold fits the probabilistic model, partitions and cleans the training
data, balances it, trains the pool and predicts its fitness rows; one Jaya search
then prunes every fold's pool at once, and each fold scores its untouched
test fold.  Nothing computed from a test fold ever feeds a training-side stage.
A fold whose data is degenerate for a stage (the stage raises ``ValueError``)
is recorded as aborted, with the reason ``<stage>: <ExceptionType>: <message>``,
and the report marked partial; any other exception, and a ``ValueError``
outside a stage or while scoring, is a bug and propagates.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import distances, learners, metrics, overlap, posterior, pruning, region, resample
from .config import RunConfig
from .data_model import Dataset, PipelineWarning, load_csv, minmax_scale, rng_for, stratified_folds

METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "g_mean", "auc")
FITNESS_HOLDOUT_FRACTION = 0.2


@dataclass
class FoldResult:
    """One fold's report entry, plus its stage timers, which never enter a report.

    ``timings`` holds each stage's seconds.  ``clean`` includes taking the
    kept rows; ``ensemble`` is the pool's training and its fitness-row
    predictions plus, for a pruned fold, 1/F of the run's one search over F
    folds; ``predict`` is the test rows' member predictions, taken before the
    search, plus the vote, the metrics and the AUC after it.  The fold plan
    and the dataset neighbour pass are in no fold's timers.
    """

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


def _shared(memo: dict | None, key: str | tuple, compute):
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
          _memo: dict | None = None) -> np.ndarray:
    """Row mask of the kept samples: core, the selected non-overlapping and the surviving noisy.

    ``_memo`` is internal: a sweep passes one fold's shared stages, so the
    fold's ``sor_all`` runs once for all its variants (see ``_sweep``).
    """
    nonoverlap = _shared(_memo, "sor_all",
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


def overlap_ratio(ds: Dataset, knn_k: int, neighbors=None) -> float | None:
    """``ds``'s dataset-level overlap ratio; None when it has too few rows for ``knn_k`` neighbours.

    ``neighbors``, if given, is called for ``ds``'s (n_samples, knn_k) neighbour
    table, which the ratios then take instead of computing their own.
    """
    if ds.n_samples < knn_k + 1:
        return None
    return metrics.overlap_ratios(ds, knn_k=knn_k,
                                  neighbors=None if neighbors is None else neighbors()).or_dataset


def _dataset_neighbors(ds: Dataset, config: RunConfig):
    """Each row's K nearest other rows of the whole dataset, or the ``ValueError`` that computing them raised.

    Each fold's ``or_before`` reads its training rows' ``or_knn_k`` nearest
    from this table (``distances.restrict_nearest``), so the matrix is
    computed once per run, not once per fold.  K grows with ``or_knn_k`` over
    the training share ``1 - 1/folds``: about 2.5 times as many training rows
    as ``or_knn_k`` are expected among a row's K, so a row that keeps fewer
    than ``or_knn_k`` and recomputes its block is rare.  An error is returned,
    not raised: only the folds that reach ``or_before`` abort with it.
    """
    width = min(ds.n_samples - 1, math.ceil(2.5 * config.or_knn_k / (1.0 - 1.0 / config.folds)))  # K
    try:
        return distances.reduce_rows(distances.pairwise_sq, ds.features, ds.features,
                                     lambda sq: distances.nearest(sq, width), exclude_self=True)
    except ValueError as exc:
        return exc


def _fold_neighbors(ds: Dataset, table, train_idx: np.ndarray, knn_k: int) -> np.ndarray:
    """The training rows' ``knn_k`` nearest training rows, from the dataset's neighbour table."""
    if isinstance(table, ValueError):
        raise ValueError(*table.args)
    return distances.restrict_nearest(distances.pairwise_sq, ds.features, table, train_idx, knn_k)


class _Abort(ValueError):
    """A fold's data is degenerate for a stage; the reason reads ``<stage>: <ExceptionType>: <message>``."""


@contextmanager
def _stage(result: FoldResult, name: str):
    """Add the block's time to ``result.timings[name]``, and abort the fold on its ``ValueError``."""
    t0 = time.perf_counter()
    try:
        yield
    except ValueError as exc:
        raise _Abort(f"{name}: {type(exc).__name__}: {exc}") from exc
    finally:
        result.timings[name] = result.timings.get(name, 0.0) + time.perf_counter() - t0


@dataclass
class _Scored:
    """A fold between its search and its scoring: all that its test scores still need."""
    result: FoldResult
    mask: np.ndarray            # every member, until the fold's search sets it
    fitness: pruning.Fitness | None   # None: no search
    test_preds: np.ndarray      # the members' predictions on the test rows
    test_y: np.ndarray


def _run_fold(ds: Dataset, train_idx: np.ndarray, test_idx: np.ndarray,
              config: RunConfig, repeat: int, fold: int, memo: dict | None,
              table=None) -> _Scored:
    """Every stage of one fold up to the Jaya search, and the test rows' member predictions.

    With pruning on, the pool's predictions on the fitness rows are kept here
    (``pruning.fitness``) and the search itself runs later, for every fold at
    once (``run_cv``); the pool is then dropped.
    """
    if len(test_idx) == 0:  # more folds than a class has rows: abort before any stage trains
        raise _Abort(f"split: ValueError: repeat {repeat}, fold {fold}: empty test set, nothing to score")
    seed = config.seed
    result = FoldResult(repeat=repeat, fold=fold, status="ok")
    shared = None if memo is None else memo.setdefault((repeat, fold), {})

    def split_and_partition():
        train_ds, test_x = ds.subset(train_idx), ds.features[test_idx]
        if config.scale:
            train_ds, test_x = minmax_scale(train_ds, test_x)
        return train_ds, test_x, partition_regions(train_ds, config)

    with _stage(result, "partition"):
        train_ds, test_x, assignment = _shared(shared, "partition", split_and_partition)
    with _stage(result, "clean"):
        keep = clean(train_ds, assignment, config, shared)
        cleaned = train_ds.subset(keep)  # raises if cleaning emptied a class
    with _stage(result, "overlap_ratio"):
        neighbors = None if table is None else lambda: _fold_neighbors(ds, table, train_idx, config.or_knn_k)
        result.or_before = _shared(shared, "or_before", lambda: overlap_ratio(train_ds, config.or_knn_k, neighbors))
        result.or_after = _shared(shared, ("or_after", keep.tobytes()),
                                  lambda: overlap_ratio(cleaned, config.or_knn_k))
    with _stage(result, "balance"):
        training = (balance(train_ds, keep, config, lambda c: rng_for(seed, "omrp", repeat, fold, c)).dataset
                    if config.use_balancing else cleaned)
        data_x, data_y = training.features, training.labels
    with _stage(result, "ensemble"):
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
        fitness = None
        if config.use_pruning:
            fitness = pruning.fitness(pool, data_x[fit_rows], data_y[fit_rows])
    with _stage(result, "predict"):
        test_preds = learners.member_predictions(pool, test_x)
    return _Scored(result, np.ones(pool.size, dtype=np.int64), fitness, test_preds, ds.labels[test_idx])


def _prune_folds(scored: list, config: RunConfig) -> None:
    """Every pruned fold's Jaya search in one batched call; each fold's ``ensemble`` timer gets 1/F of it."""
    searched = [s for s in scored if s.fitness is not None]
    if not searched:
        return
    t0 = time.perf_counter()
    found = pruning.prune([s.fitness for s in searched], n_pop=config.jaya_pop, t_max=config.jaya_iters,
                          rngs=[rng_for(config.seed, "jaya", s.result.repeat, s.result.fold)
                                for s in searched])
    share = (time.perf_counter() - t0) / len(searched)
    for s, pruned in zip(searched, found):
        s.mask = pruned.mask
        s.result.timings["ensemble"] += share


def _score_fold(s: _Scored, n_classes: int) -> FoldResult:
    """The fold's test metrics and AUC from its mask's vote; timed under ``predict``, whose errors propagate."""
    with _stage(s.result, "predict"):
        result, selected = s.result, s.mask.astype(bool)
        preds = learners.vote_from_predictions(s.test_preds, selected, n_classes)
        result.metrics = metrics.classification_metrics(preds, s.test_y, n_classes)
        try:
            scores = learners.vote_shares(s.test_preds, selected, n_classes)
            result.metrics["auc"] = metrics.macro_ovr_auc(scores, s.test_y)
        except ValueError:
            pass  # degenerate single-class test fold: AUC undefined, omitted
        result.mask = [int(v) for v in s.mask]
    return result


@contextmanager
def _capture():
    """Record every warning raised inside; yields the list of them."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


def _messages(caught) -> list:
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def _largest_training_fold(plan) -> int:
    """Rows in the plan's largest training fold: all rows but the smallest test fold's."""
    return plan.fold_ids.shape[1] - min(int(np.bincount(ids, minlength=plan.k).min())
                                        for ids in plan.fold_ids)


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
           _memo: dict | None = None) -> ExperimentReport:
    """Repeated stratified cross-validation of the full pipeline.

    ``dataset`` may be supplied directly; otherwise it is loaded from the
    config.  The fold plan depends only on the data, ``folds``, ``repeats``
    and ``seed``, so reports with those equal share it.  Deterministic for a
    given config and seed.

    Unscaled runs compute each row's nearest rows over the whole dataset once,
    before the first fold, and each fold's ``or_before`` reads its training
    rows' from them (``_dataset_neighbors``); a plan whose training folds all
    have at most ``or_knn_k`` rows has no ``or_before`` and skips that pass.

    Each fold runs up to its Jaya search (``_run_fold``), then one batched
    ``pruning.prune`` call searches for every pruned fold, and each fold is
    scored on its test rows.  Only a ``ValueError`` inside a stage of
    ``_run_fold`` aborts its fold, under the stage's name (``_stage``).
    Warnings are captured per fold and phase, and the report lists the run's
    own (fold plan first) and then each fold's, in fold order, as when each
    fold ran to its end before the next began.

    ``_memo`` is internal: ``_sweep`` passes one to share that table and each fold's early stages.
    """
    dataset = _dataset(config, dataset)
    folds = []  # (_Scored, or the aborted FoldResult, and the fold's warnings)
    with _capture() as run_warnings:
        plan = stratified_folds(dataset, config.folds, config.repeats, config.seed)
        # scaled folds compute their own neighbours (scaling differs per fold), and when
        # no training fold has more than or_knn_k rows no fold has an or_before to read
        table = None
        if not config.scale and _largest_training_fold(plan) > config.or_knn_k:
            table = _shared(_memo, "neighbors", lambda: _dataset_neighbors(dataset, config))
        for r in range(plan.repeats):
            for f in range(plan.k):
                with _capture() as caught:
                    try:
                        fold = _run_fold(dataset, plan.train_indices(r, f), plan.test_indices(r, f),
                                         config, r, f, _memo, table)
                    except _Abort as exc:
                        fold = FoldResult(repeat=r, fold=f, status="aborted", reason=str(exc))
                folds.append((fold, _messages(caught)))
        _prune_folds([fold for fold, _ in folds if isinstance(fold, _Scored)], config)
        fold_results, fold_warnings = [], []
        for fold, messages in folds:
            if isinstance(fold, _Scored):
                with _capture() as caught:
                    fold = _score_fold(fold, dataset.n_classes)
                messages += _messages(caught)
            fold_results.append(fold)
            fold_warnings += messages
    caught = _messages(run_warnings) + fold_warnings

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

VARIANT_FIELDS = ("noise_remove_fraction", "use_balancing", "use_pruning")


def _sweep(config: RunConfig, variants: dict, dataset: Dataset | None) -> dict:
    """One report per variant's config overrides, on one load of the data.

    A variant may override only ``VARIANT_FIELDS``, which no stage before noise
    removal reads, so each fold's earlier stages run once per sweep: a memo
    private to the sweep holds them under the fold and the stage alone
    (``or_after`` once per distinct keep mask), and the dataset's neighbour
    table once for the whole sweep.
    Every variant's config is built, and so checked, before any variant runs.
    """
    fixed = sorted(set().union(*variants.values()) - set(VARIANT_FIELDS))
    if fixed:
        raise ValueError(f"a sweep variant may set only {', '.join(VARIANT_FIELDS)}, not {', '.join(fixed)}")
    configs = {key: replace(config, **overrides) for key, overrides in variants.items()}
    dataset = _dataset(config, dataset)
    memo = {}
    return {key: run_cv(cfg, dataset, _memo=memo) for key, cfg in configs.items()}


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
