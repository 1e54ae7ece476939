"""Ensemble pruning with the Jaya population search.

Genomes are continuous vectors in [0,1]^m, one slot per pool member, held as
the rows of an (n_pop, m) array.  A slot above 0.5 selects its classifier (an
all-zero mask is repaired by switching on the largest slot).  Each generation
every genome moves toward the best and away from the worst member, is clipped
back into the unit box, and survives only if its macro F-score on the fitness
data strictly improves, so the best fitness never decreases.

A search runs in two parts.  ``fitness`` runs while the pool exists: it keeps
the members' predictions on the fitness rows and those rows' labels, so the
pool can be dropped.  ``prune`` then runs many searches at once, one per
``Fitness``, all of pools of one size m.  They move as one (searches, n_pop, m)
array, so each generation's numpy calls serve all of them.  Best and worst are
fixed at the start of a generation and a genome's acceptance touches only its
own row, so updating row by row and updating the array are the same search.
Each search draws from its own stream exactly as a search of its own would:
the initial population as ``rng.random((n_pop, m))``, then per generation one
``rng.random(2 * n_pop * m)``, read as (n_pop, 2, m), which hands each genome
the same r1 then r2 values that per-genome calls would.

A genome's fitness depends only on its digitized mask, and each search scores
a mask the first time it meets it.  ``prune`` scores it in its own body: the
mask's vote over its ``Fitness`` predictions (``vote_from_predictions``), then
that vote's macro F-score against the fitness labels
(``classification_metrics``).  The scores live in one memo for all the
searches of the call, keyed by the search's index followed by the mask packed
8 slots to a byte: one bytes object per genome, exact at any pool size.
Scoring draws nothing, so the draws, the winner and the history are exactly
those of scoring every candidate afresh.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .learners import ClassifierPool, member_predictions, vote_from_predictions
from .metrics import classification_metrics


@dataclass(frozen=True)
class PrunedEnsemble:
    mask: np.ndarray
    history: tuple  # best fitness after each generation; the last is the mask's fitness


@dataclass(frozen=True)
class Fitness:
    """What a search scores one pool's masks on: each mask's voted macro F-score over the fitness rows."""

    preds: np.ndarray   # (pool size, fitness rows): the members' predictions
    truth: np.ndarray   # the fitness rows' labels
    n_classes: int


def digitize(values: np.ndarray) -> np.ndarray:
    """Binary mask per (..., m) row: 1 where the slot exceeds 0.5.

    A row with no slot above 0.5 turns on its largest slot instead.
    """
    v = np.asarray(values, dtype=np.float64)
    mask = v > 0.5
    rows = mask.reshape(-1, v.shape[-1])  # a view: repairs land in mask
    empty = ~rows.any(axis=1)
    if empty.any():
        rows[empty, v.reshape(rows.shape)[empty].argmax(axis=1)] = True
    return mask.astype(np.int64)


def jaya_update(values: np.ndarray, best: np.ndarray, worst: np.ndarray,
                draws: np.ndarray) -> np.ndarray:
    """Move each (..., m) genome toward the best and away from the worst, clipped to [0, 1].

    ``draws`` holds 2 * values.size numbers in [0, 1), genome by genome: r1
    for all m slots, then r2 (any shape; read in C order as (..., 2, m)).
    The step is (v + r1 |best - v|) - r2 |worst - v|, rounded in that order.
    """
    v = np.asarray(values, dtype=np.float64)
    r = np.asarray(draws, dtype=np.float64).reshape(v.shape[:-1] + (2, v.shape[-1]))
    out = np.subtract(best, v)
    np.abs(out, out=out)
    out *= r[..., 0, :]
    out += v
    away = np.subtract(worst, v)
    np.abs(away, out=away)
    away *= r[..., 1, :]
    out -= away
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, 1.0, out=out)


def fitness(pool: ClassifierPool, fit_features, fit_labels) -> Fitness:
    """The data a search of ``pool``'s masks reads, so the pool can be dropped before it."""
    fit_x = np.asarray(fit_features, dtype=np.float64)
    fit_y = np.asarray(fit_labels, dtype=np.int64)
    if fit_x.shape[0] == 0:
        raise ValueError("fitness data must be non-empty")
    return Fitness(member_predictions(pool, fit_x), fit_y, pool.n_classes)


def prune(fitnesses, n_pop: int = 20, t_max: int = 50, *, rngs) -> list:
    """One ``PrunedEnsemble`` per ``Fitness``: the subset with the best voted macro F-score.

    Search ``i`` reads ``fitnesses[i]`` and draws from ``rngs[i]``; every pool
    must have one size m, and all the searches move as one (searches, n_pop, m)
    array.
    """
    if n_pop < 2:
        raise ValueError("population size must be >= 2")
    if t_max < 1:
        raise ValueError("iteration count must be >= 1")
    fitnesses, rngs = list(fitnesses), list(rngs)
    if len(rngs) != len(fitnesses):
        raise ValueError(f"{len(fitnesses)} fitnesses but {len(rngs)} random streams")
    sizes = sorted({fit.preds.shape[0] for fit in fitnesses})
    if len(sizes) > 1:
        raise ValueError(f"every pool of one call must have one size, got sizes {sizes}")
    if not fitnesses:
        return []
    m, n = sizes[0], len(fitnesses)
    packed = np.empty((n, n_pop, 8 + (m + 7) // 8), np.uint8)  # the search's index, then the mask
    packed[..., :8] = np.arange(n, dtype=np.int64).view(np.uint8).reshape(n, 1, 8)
    memo = {}

    def score(values):  # unmet masks are scored in genome order, search by search
        masks = digitize(values)
        packed[..., 8:] = np.packbits(masks, axis=-1)
        keys = packed.view(np.dtype((np.void, packed.shape[-1]))).ravel().tolist()  # bytes
        fits = np.fromiter(map(memo.get, keys, repeat(np.nan)), np.float64, len(keys))  # NaN: not scored yet
        for g in np.flatnonzero(np.isnan(fits)):
            if keys[g] not in memo:  # a mask met twice in one generation is scored once
                i, j = divmod(g, n_pop)
                fit = fitnesses[i]
                voted = vote_from_predictions(fit.preds, masks[i, j], fit.n_classes)
                memo[keys[g]] = classification_metrics(voted, fit.truth, fit.n_classes)["f1"]
            fits[g] = memo[keys[g]]
        return fits.reshape(n, n_pop)

    def leader(pop, at):  # (searches, 1, m): each search's genome at index ``at``
        return np.take_along_axis(pop, at[:, None, None], axis=1)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fitness data may legitimately miss a class
        pop = np.stack([rng.random((n_pop, m)) for rng in rngs])
        fits = score(pop)
        history = np.empty((t_max, n))
        for t in range(t_max):
            best, worst = leader(pop, fits.argmax(axis=1)), leader(pop, fits.argmin(axis=1))
            draws = np.concatenate([rng.random(2 * n_pop * m) for rng in rngs])
            cand = jaya_update(pop, best, worst, draws)
            cand_fits = score(cand)
            improved = cand_fits > fits  # greedy acceptance
            np.copyto(pop, cand, where=improved[..., None])
            np.copyto(fits, cand_fits, where=improved)
            history[t] = fits.max(axis=1)

    masks = digitize(leader(pop, fits.argmax(axis=1))[:, 0])
    return [PrunedEnsemble(mask=mask, history=tuple(hist))
            for mask, hist in zip(masks, history.T.tolist())]
