"""Ensemble pruning with the Jaya population search.

Genomes are continuous vectors in [0,1]^m, one slot per pool member, held as
the rows of an (n_pop, m) array.  A slot above 0.5 selects its classifier (an
all-zero mask is repaired by switching on the largest slot).  Each generation
every genome moves toward the best and away from the worst member, is clipped
back into the unit box, and survives only if its macro F-score on the fitness
data strictly improves, so the best fitness never decreases.

The whole population moves at once.  Best and worst are fixed at the start of
a generation and a genome's acceptance touches only its own row, so updating
row by row and updating the array are the same search; one ``rng.random`` call
of n_pop * 2 * m draws, read as (n_pop, 2, m), hands each genome the same r1
then r2 values that per-genome calls would.

A genome's fitness depends only on its digitized mask (the member predictions
and fitness labels are fixed for the whole search), and scoring draws nothing
from the stream, so each ``prune`` memoizes fitness by mask bytes.  Each of
the at most 2^m - 1 masks is scored once, and the draws, the winner and the
history are exactly those of scoring every candidate afresh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .learners import ClassifierPool, member_predictions, vote_from_predictions
from .metrics import classification_metrics


@dataclass(frozen=True)
class PrunedEnsemble:
    pool: ClassifierPool
    mask: np.ndarray
    fitness: float
    generations: int
    selected_count: int
    history: tuple  # best fitness after each generation


def digitize(values: np.ndarray) -> np.ndarray:
    """Binary mask per (..., m) row: 1 where the slot exceeds 0.5.

    A row with no slot above 0.5 turns on its largest slot instead.
    """
    v = np.asarray(values, dtype=np.float64)
    mask = v > 0.5
    largest = np.arange(v.shape[-1]) == np.argmax(v, axis=-1)[..., None]
    mask |= largest & ~mask.any(axis=-1, keepdims=True)
    return mask.astype(np.int64)


def jaya_update(values: np.ndarray, best: np.ndarray, worst: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """Move each (..., m) genome toward the best and away from the worst, clipped to [0, 1].

    Fresh r1, r2 in [0, 1) are drawn per position, genome by genome: r1 for
    all m slots, then r2.
    """
    v = np.asarray(values, dtype=np.float64)
    r = rng.random(2 * v.size).reshape(v.shape[:-1] + (2, v.shape[-1]))
    r1, r2 = r[..., 0, :], r[..., 1, :]
    out = v + r1 * np.abs(np.asarray(best) - v) - r2 * np.abs(np.asarray(worst) - v)
    return np.clip(out, 0.0, 1.0)


def _mask_fitness(preds: np.ndarray, mask: np.ndarray, truth: np.ndarray, n_classes: int) -> float:
    voted = vote_from_predictions(preds, mask.astype(bool), n_classes)
    return classification_metrics(voted, truth, n_classes).macro_f1


def prune(pool: ClassifierPool, fit_features, fit_labels, n_pop: int = 20,
          t_max: int = 50, rng: np.random.Generator | None = None) -> PrunedEnsemble:
    """Select the classifier subset with the best voted macro F-score on the fitness data."""
    if n_pop < 2:
        raise ValueError("population size must be >= 2")
    if t_max < 1:
        raise ValueError("iteration count must be >= 1")
    fit_x = np.asarray(fit_features, dtype=np.float64)
    fit_y = np.asarray(fit_labels, dtype=np.int64)
    if fit_x.shape[0] == 0:
        raise ValueError("fitness data must be non-empty")
    if rng is None:
        rng = np.random.default_rng()

    preds = member_predictions(pool, fit_x)
    memo = {}

    def fitness(values: np.ndarray) -> np.ndarray:
        out = np.empty(values.shape[0])
        for i, mask in enumerate(digitize(values)):
            key = mask.tobytes()
            if key not in memo:
                memo[key] = _mask_fitness(preds, mask, fit_y, pool.n_classes)
            out[i] = memo[key]
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fitness data may legitimately miss a class
        pop = rng.random((n_pop, pool.size))
        fits = fitness(pop)
        history = []
        for _ in range(t_max):
            best, worst = pop[np.argmax(fits)], pop[np.argmin(fits)]
            cand = jaya_update(pop, best, worst, rng)
            cand_fits = fitness(cand)
            improved = cand_fits > fits  # greedy acceptance
            pop = np.where(improved[:, None], cand, pop)
            fits = np.where(improved, cand_fits, fits)
            history.append(float(fits.max()))

    mask = digitize(pop[np.argmax(fits)])
    return PrunedEnsemble(pool=pool, mask=mask, fitness=float(fits.max()), generations=t_max,
                          selected_count=int(mask.sum()), history=tuple(history))
