"""Class balancing by penalty-constrained synthetic interpolation.

Every minority class is topped up to the largest class size.  Candidate
synthetic points interpolate between a class sample and one of its nearest
same-class neighbors; a candidate is kept only when it lies at least as close
to its own class as to any other class, which stops the oversampler from
refilling the inter-class regions the cleaning stage just emptied.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data_model import Dataset, PipelineWarning
from .distances import min_dist, nearest, pairwise_sq

MIN_ATTEMPT_CAP = 500


def balance_plan(class_base_counts, class_names=None) -> np.ndarray:
    """Synthetic-sample quota per class: max base count minus own base count."""
    counts = np.asarray(class_base_counts, dtype=np.int64)
    if counts.size < 2:
        raise ValueError("need at least 2 classes to balance")
    if np.any(counts < 1):
        c = int(np.flatnonzero(counts < 1)[0])
        name = class_names[c] if class_names else str(c)
        raise ValueError(f"class {name!r} has an empty base sample set; cannot balance")
    return counts.max() - counts


@dataclass
class SyntheticBatch:
    class_id: int
    samples: np.ndarray        # (k, z) synthetic feature vectors
    parents: np.ndarray        # index into the class base set
    neighbors: np.ndarray      # index into the class base set
    alphas: np.ndarray         # interpolation factors in [0, 1)
    attempts_used: int
    accepted_count: int
    shortfall: int


def _empty_batch(class_id: int, n_features: int) -> SyntheticBatch:
    return SyntheticBatch(class_id=class_id, samples=np.empty((0, n_features)),
                          parents=np.empty(0, dtype=np.int64), neighbors=np.empty(0, dtype=np.int64),
                          alphas=np.empty(0), attempts_used=0, accepted_count=0, shortfall=0)


def _neighbor_table(class_data: np.ndarray, knn_k: int) -> np.ndarray:
    """Per sample: its min(knn_k, n-1) nearest same-class neighbors, ties by index."""
    sq = pairwise_sq(class_data, class_data)
    np.fill_diagonal(sq, np.inf)
    return nearest(sq, min(knn_k, class_data.shape[0] - 1))


def omrp(class_data: np.ndarray, others: np.ndarray, needed: int, knn_k: int = 5,
         rng: np.random.Generator | None = None, *, class_id: int = -1,
         max_attempts_factor: int = 50) -> SyntheticBatch:
    """Generate ``needed`` penalty-checked synthetic samples for one class.

    Parents cycle round-robin through the class; each draws a uniform nearest
    neighbor and an interpolation factor in [0, 1).  Candidates failing the
    penalty are retried up to max(needed * max_attempts_factor, 500) attempts;
    a shortfall is then filled with the rejected candidates of largest
    (other-distance minus own-distance) margin and reported via a warning.
    A single-sample class is replicated exactly, with a warning.
    """
    class_data = np.asarray(class_data, dtype=np.float64)
    others = np.asarray(others, dtype=np.float64)
    if rng is None:
        rng = np.random.default_rng()
    if knn_k < 1:
        raise ValueError("knn_k must be >= 1")
    if needed < 0:
        raise ValueError("needed must be >= 0")
    n, z = class_data.shape
    if needed == 0:
        return _empty_batch(class_id, z)
    if n < 2:
        warnings.warn(f"class {class_id}: single base sample, replicating it {needed}x "
                      "(no neighbor to interpolate)", PipelineWarning, stacklevel=2)
        return SyntheticBatch(class_id=class_id, samples=np.repeat(class_data, needed, axis=0),
                              parents=np.zeros(needed, dtype=np.int64),
                              neighbors=np.zeros(needed, dtype=np.int64),
                              alphas=np.zeros(needed), attempts_used=needed,
                              accepted_count=needed, shortfall=0)

    nb_table = _neighbor_table(class_data, knn_k)
    cap = max(needed * max_attempts_factor, MIN_ATTEMPT_CAP)
    chunk = max(needed, 64)
    tried = []  # per chunk: (candidates, parents, neighbors, alphas, margins) up to its last attempt
    attempts = accepted = 0
    while accepted < needed and attempts < cap:
        size = min(chunk, cap - attempts)
        parents = (attempts + np.arange(size)) % n
        nb_pick = rng.integers(0, nb_table.shape[1], size=size)
        neighbors = nb_table[parents, nb_pick]
        alphas = rng.random(size)
        px = class_data[parents]
        cands = px + alphas[:, None] * (class_data[neighbors] - px)
        margins = min_dist(cands, others) - min_dist(cands, class_data)
        passed = np.flatnonzero(margins >= 0.0)
        room = needed - accepted
        # the chunk's attempts end at the one that fills the quota
        stop = int(passed[room - 1]) + 1 if passed.size >= room else size
        tried.append((cands[:stop], parents[:stop], neighbors[:stop], alphas[:stop], margins[:stop]))
        attempts += stop
        accepted += min(passed.size, room)

    cands, parents, neighbors, alphas, margins = (np.concatenate(col) for col in zip(*tried))
    ok = margins >= 0.0
    keep = np.flatnonzero(ok)
    shortfall = needed - accepted
    if shortfall > 0:
        warnings.warn(f"class {class_id}: only {accepted}/{needed} synthetic samples passed the "
                      f"penalty within {attempts} attempts; filling {shortfall} by best margin",
                      PipelineWarning, stacklevel=2)
        rejected = np.flatnonzero(~ok)
        best = rejected[np.lexsort((rejected, -margins[rejected]))[:shortfall]]
        keep = np.concatenate([keep, best])
    return SyntheticBatch(class_id=class_id, samples=cands[keep], parents=parents[keep],
                          neighbors=neighbors[keep], alphas=alphas[keep], attempts_used=attempts,
                          accepted_count=accepted, shortfall=shortfall)


@dataclass
class BalanceResult:
    dataset: Dataset
    source_indices: np.ndarray      # original dataset index, -1 for synthetic rows
    batches: dict[int, SyntheticBatch]


def build_balanced(ds: Dataset, keep: np.ndarray, *, knn_k: int = 5,
                   max_attempts_factor: int = 50, rng_factory) -> BalanceResult:
    """Assemble the balanced dataset from the rows ``keep`` marks plus synthetic batches.

    Each class's kept rows are its base set.  ``rng_factory(class_id)``
    supplies one independent random stream per class so per-class generation
    order cannot change results.
    """
    n = ds.n_classes
    base_sets = [np.flatnonzero(keep & (ds.labels == c)) for c in range(n)]
    k_remaining = balance_plan([idx.size for idx in base_sets], class_names=ds.class_names)

    feats, labels, src = [], [], []
    batches = {}
    for c, idx in enumerate(base_sets):
        feats.append(ds.features[idx])
        labels.append(np.full(idx.size, c, dtype=np.int64))
        src.append(idx)
        other_idx = np.concatenate([base_sets[k] for k in range(n) if k != c])
        batch = omrp(ds.features[idx], ds.features[other_idx], int(k_remaining[c]),
                     knn_k=knn_k, rng=rng_factory(c), class_id=c,
                     max_attempts_factor=max_attempts_factor)
        batches[c] = batch
        if batch.samples.size:
            feats.append(batch.samples)
            labels.append(np.full(batch.samples.shape[0], c, dtype=np.int64))
            src.append(np.full(batch.samples.shape[0], -1, dtype=np.int64))
    out = Dataset(np.vstack(feats), np.concatenate(labels), ds.class_names)
    return BalanceResult(dataset=out, source_indices=np.concatenate(src), batches=batches)
