"""Spans and counters recorded from outside imbkit, around its public functions.

Modules import each other's functions by name, so one function can be reached
through several module attributes ("bindings"); the tracer wraps every
binding the pipeline calls through and files all of them under the function's
own name.  A span holds (function, start, end, parent span, context), where
the context is (repeat, fold, variant) of the fold being run.  Spans stay in
memory and are written out once the pass is over.  A function's busy time is
its self time: span time minus the time of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Binding:
    where: str           # module attribute the wrapper replaces, e.g. "pruning.vote_from_predictions"
    function: str        # the function it reaches, named by its defining module
    timed: bool = True   # False: count calls only and leave the time with the caller


BINDINGS = (
    Binding("harness.run_cv", "harness.run_cv"),
    Binding("harness._run_fold", "harness.fold"),
    Binding("harness.emit_report", "harness.emit_report"),
    Binding("harness.load_csv", "data_model.load_csv"),
    Binding("harness.stratified_folds", "data_model.stratified_folds"),
    Binding("posterior.fit_nb", "posterior.fit_nb"),
    Binding("posterior.posteriors", "posterior.posteriors"),
    Binding("region.partition", "region.partition"),
    Binding("overlap.sor_all", "overlap.sor_all"),
    Binding("overlap.gap_profile", "overlap.gap_profile", timed=False),
    Binding("overlap.pairwise", "distances.pairwise", timed=False),
    Binding("resample.build_balanced", "resample.build_balanced"),
    Binding("resample.omrp", "resample.omrp"),
    Binding("resample.pairwise_sq", "distances.pairwise_sq"),
    Binding("resample.min_dist", "distances.min_dist"),
    Binding("distances.pairwise_sq", "distances.pairwise_sq"),
    Binding("learners.pairwise_sq", "distances.pairwise_sq"),
    Binding("metrics.pairwise_sq", "distances.pairwise_sq"),
    Binding("learners.train_pool", "learners.train_pool"),
    Binding("learners.member_predictions", "learners.member_predictions"),
    Binding("pruning.member_predictions", "learners.member_predictions"),
    Binding("learners.KNNClassifier.predict", "learners.knn_predict"),
    Binding("learners.vote_from_predictions", "learners.vote_from_predictions"),
    Binding("pruning.vote_from_predictions", "learners.vote_from_predictions"),
    Binding("learners.vote_shares", "learners.vote_shares"),
    Binding("pruning.prune", "pruning.prune"),
    Binding("pruning.classification_metrics", "metrics.classification_metrics"),
    Binding("metrics.classification_metrics", "metrics.classification_metrics"),
    Binding("metrics.overlap_ratios", "metrics.overlap_ratios"),
    Binding("metrics.macro_ovr_auc", "metrics.macro_ovr_auc"),
)

# Counters that must repeat exactly across traced passes of the same code and seed.
EXACT_COUNTERS = ("pruning.fitness_evals", "pruning.distinct_masks", "resample.omrp.attempts",
                  "resample.omrp.accepted", "distances.pairwise_sq.cells",
                  "learners.vote_from_predictions.calls")


def _resolve(where: str):
    """(owner object, attribute name) for a dotted binding under the imbkit package."""
    parts = where.split(".")
    owner = importlib.import_module(f"imbkit.{parts[0]}")
    try:
        for name in parts[1:-1]:
            owner = getattr(owner, name)
        getattr(owner, parts[-1])
    except AttributeError as exc:
        raise LookupError(f"traced binding {where} no longer exists: {exc}") from exc
    return owner, parts[-1]


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """Wraps every binding in BINDINGS; one instance records one traced pass."""

    def __init__(self):
        self.spans = []              # [function, start, end, parent index, context]
        self.counters = Counter()
        self.binding_calls = Counter()
        self.call_label = ""         # set by run_pass before each CLI call
        self._context = (None, None, None)
        self._stack = []
        self._masks = set()
        self._patches = Patches()
        self._before = {
            "harness.run_cv": self._enter_run_cv,
            "harness._run_fold": self._enter_fold,
            "pruning.prune": lambda args, kwargs: self._masks.clear(),
            "pruning.vote_from_predictions": self._fitness_eval,
        }
        self._after = {
            "distances.pairwise_sq": self._count_cells,
            "resample.omrp": self._count_omrp,
            "pruning.prune": self._count_masks,
        }

    # -- hooks -------------------------------------------------------------

    def _enter_run_cv(self, args, kwargs):
        cfg = args[0] if args else kwargs["config"]
        variant = (f"{self.call_label}|noise={cfg.noise_remove_fraction:g}"
                   f"|balancing={int(cfg.use_balancing)}|pruning={int(cfg.use_pruning)}")
        self._context = (None, None, variant)

    def _enter_fold(self, args, kwargs):
        self._context = (args[4], args[5], self._context[2])

    def _fitness_eval(self, args, kwargs):
        self.counters["pruning.fitness_evals"] += 1
        self._masks.add(np.asarray(args[1], dtype=bool).tobytes())

    def _count_cells(self, out):
        self.counters["distances.pairwise_sq.cells"] += out.size

    def _count_omrp(self, out):
        self.counters["resample.omrp.attempts"] += out.attempts_used
        self.counters["resample.omrp.accepted"] += out.accepted_count

    def _count_masks(self, out):
        self.counters["pruning.distinct_masks"] += len(self._masks)

    # -- wrapping ----------------------------------------------------------

    def install(self) -> None:
        for b in BINDINGS:
            owner, attr = _resolve(b.where)
            self._patches.replace(owner, attr, lambda fn, b=b: self._wrap(fn, b))

    def restore(self) -> None:
        self._patches.restore()

    def _wrap(self, fn, b: Binding):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter
        calls_key = f"{b.function}.calls"
        before = self._before.get(b.where)
        after = self._after.get(b.function)

        def traced(*args, **kwargs):
            self.binding_calls[b.where] += 1
            counters[calls_key] += 1
            if before is not None:
                before(args, kwargs)
            if not b.timed:
                out = fn(*args, **kwargs)
            else:
                rec = [b.function, clock(), 0.0, stack[-1] if stack else -1, self._context]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    rec[2] = clock()
            if after is not None:
                after(out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Seconds of self time per function."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def calls_by_variant(self, function: str) -> Counter:
        return Counter(ctx[2] for name, _, _, _, ctx in self.spans if name == function)

    def coverage_errors(self, workload: str) -> list:
        """Every workload reaches every binding; one with no call was renamed or bypassed."""
        return [f"binding {b.where} recorded no call on {workload}"
                for b in BINDINGS if not self.binding_calls[b.where]]

    def variant_errors(self, n_variants: int, folds_per_variant: int) -> list:
        """Each variant runs every fold, and prunes and balances exactly when its switches say.

        An aborted fold may stop before a stage, so a switched-on stage needs at
        least one call and at most one per fold; a switched-off stage needs none.
        """
        folds = self.calls_by_variant("harness.fold")
        errors = [] if len(folds) == n_variants else [
            f"{len(folds)} variants ran, expected {n_variants}: {sorted(folds)}"]
        errors += [f"variant {v} ran {n} folds, expected {folds_per_variant}"
                   for v, n in folds.items() if n != folds_per_variant]
        for function, switch in (("pruning.prune", "pruning"),
                                 ("resample.build_balanced", "balancing"),
                                 ("learners.train_pool", None)):
            seen = self.calls_by_variant(function)
            for variant in folds:
                on = switch is None or f"|{switch}=1" in variant
                if not (1 <= seen[variant] <= folds_per_variant if on else seen[variant] == 0):
                    errors.append(f"{function}: {seen[variant]} calls in variant {variant} "
                                  f"({'on' if on else 'off'}, {folds_per_variant} folds)")
        return errors

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"functions": names, "fields": [
                "function", "start_s", "end_s", "parent", "repeat", "fold", "variant"]}) + "\n")
            for name, start, end, parent, (rep, fold, variant) in self.spans:
                fh.write(json.dumps([index[name], round(start - t0, 7), round(end - t0, 7),
                                     parent, rep, fold, variant]) + "\n")
