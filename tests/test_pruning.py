import itertools
import warnings

import numpy as np
import pytest

from imbkit import pruning
from imbkit.learners import ClassifierPool, member_predictions, vote_from_predictions
from imbkit.metrics import classification_metrics
from imbkit.pruning import digitize, fitness, jaya_update, prune


class FixedPredictor:
    """Always predicts one label; a deliberately useless pool member."""

    def __init__(self, label):
        self.label = int(label)

    def predict(self, x):
        return np.full(np.atleast_2d(x).shape[0], self.label, dtype=np.int64)


class OraclePredictor:
    """Replays the ground-truth labels for the fitness set: the planted optimum."""

    def __init__(self, features, labels):
        self._keys = [tuple(row) for row in np.atleast_2d(features)]
        self._map = dict(zip(self._keys, labels))

    def predict(self, x):
        return np.array([self._map[tuple(row)] for row in np.atleast_2d(x)], dtype=np.int64)


class NoisyPredictor:
    """Replays the fitness labels with a fixed share of them replaced by other labels."""

    def __init__(self, features, labels, n_classes, flip, seed):
        rng = np.random.default_rng(seed)
        labels = np.asarray(labels, dtype=np.int64)
        flipped = rng.random(labels.size) < flip
        noisy = np.where(flipped, (labels + rng.integers(1, n_classes, labels.size)) % n_classes,
                         labels)
        self._map = dict(zip((tuple(row) for row in np.atleast_2d(features)), noisy))

    def predict(self, x):
        return np.array([self._map[tuple(row)] for row in np.atleast_2d(x)], dtype=np.int64)


def voted_f1(preds, mask, labels, n_classes) -> float:
    """Macro F-score of the majority vote of the members ``mask`` selects."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fitness data may legitimately miss a class
        voted = vote_from_predictions(preds, np.asarray(mask), n_classes)
        return classification_metrics(voted, np.asarray(labels, dtype=np.int64), n_classes)["f1"]


def evaluate_mask(pool: ClassifierPool, mask, features, labels) -> float:
    """Macro F-score of the mask's majority vote; the independent recheck for results."""
    return voted_f1(member_predictions(pool, features), mask, labels, pool.n_classes)


def prune_one(pool, x, y, n_pop=20, t_max=50, *, rng):
    """One fold's search: its pool's fitness, then a ``prune`` call over that fold alone."""
    return prune([fitness(pool, x, y)], n_pop, t_max, rngs=[rng])[0]


def build_pool(members, n_classes):
    return ClassifierPool(classifiers=tuple(members), n_classes=n_classes)


def exhaustive_optimum(pool, x, y):
    """Brute force over all non-empty masks: the pruning oracle."""
    best = -1.0
    for bits in itertools.product([0, 1], repeat=pool.size):
        if not any(bits):
            continue
        best = max(best, evaluate_mask(pool, np.array(bits), x, y))
    return best


def reference_prune(pool, x, y, n_pop, t_max, rng):
    """The genome-by-genome Jaya search, scoring every candidate afresh.

    Each genome draws r1 then r2 for its own slots; acceptance is greedy per
    genome against best and worst fixed at the start of the generation.
    """
    def to_mask(v):
        mask = (v > 0.5).astype(np.int64)
        if mask.sum() == 0:
            mask[int(np.argmax(v))] = 1
        return mask

    def score(mask):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            voted = vote_from_predictions(preds, mask.astype(bool), pool.n_classes)
            return classification_metrics(voted, y, pool.n_classes)["f1"]

    m = pool.size
    preds = member_predictions(pool, x)
    values = [rng.random(m) for _ in range(n_pop)]
    fits = [score(to_mask(v)) for v in values]
    history = []
    for _ in range(t_max):
        best = values[int(np.argmax(fits))].copy()
        worst = values[int(np.argmin(fits))].copy()
        for i in range(n_pop):
            r1 = rng.random(m)
            r2 = rng.random(m)
            cand = np.clip(values[i] + r1 * np.abs(best - values[i])
                           - r2 * np.abs(worst - values[i]), 0.0, 1.0)
            cand_fit = score(to_mask(cand))
            if cand_fit > fits[i]:
                values[i], fits[i] = cand, cand_fit
        history.append(max(fits))
    winner = max(range(n_pop), key=lambda i: fits[i])
    mask = to_mask(values[winner])
    return mask, score(mask), tuple(history)


def random_pool(size, seed, n_classes=3, m=30):
    """Pool of ``size`` noisy label replays of varied quality, plus the fitness data."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, 2))
    y = rng.integers(0, n_classes, m)
    members = [NoisyPredictor(x, y, n_classes, flip=rng.uniform(0.1, 0.9), seed=seed * 10 + i)
               for i in range(size)]
    return build_pool(members, n_classes), x, y


class TestDigitize:
    def test_strict_threshold(self):
        assert digitize(np.array([0.7, 0.5, 0.2])).tolist() == [1, 0, 0]

    def test_all_ones_identity(self):
        assert digitize(np.ones(4)).tolist() == [1, 1, 1, 1]

    def test_empty_mask_repaired_to_largest(self):
        assert digitize(np.array([0.4, 0.45, 0.1])).tolist() == [0, 1, 0]

    def test_rows_digitized_independently(self):
        rows = np.array([[0.7, 0.5, 0.2], [0.4, 0.45, 0.1], [0.2, 0.3, 0.3]])
        assert digitize(rows).tolist() == [[1, 0, 0], [0, 1, 0], [0, 1, 0]]
        assert digitize(rows).tolist() == [digitize(row).tolist() for row in rows]

    def test_stacked_rows_repaired_in_place(self):
        values = np.array([[[0.1, 0.4], [0.6, 0.2]], [[0.3, 0.2], [0.5, 0.5]]])
        assert digitize(values).tolist() == [[[0, 1], [1, 0]], [[1, 0], [1, 0]]]
        assert digitize(values).dtype == np.int64
        assert values.tolist() == [[[0.1, 0.4], [0.6, 0.2]], [[0.3, 0.2], [0.5, 0.5]]]


class TestJayaUpdate:
    def test_fixed_point_when_best_equals_worst_equals_value(self):
        v = np.array([0.3, 0.8])
        out = jaya_update(v, v, v, np.full(4, 0.5))
        assert np.allclose(out, v)

    def test_direct_arithmetic(self):
        # 0.4 + 0.5*|1.0-0.4| - 0.5*|0.0-0.4| = 0.4 + 0.3 - 0.2 = 0.5
        out = jaya_update(np.array([0.4]), np.array([1.0]), np.array([0.0]), np.full(2, 0.5))
        assert out[0] == pytest.approx(0.5)

    def test_clipping(self):
        out = jaya_update(np.array([0.9]), np.array([0.0]), np.array([0.9]), np.full(2, 0.999999))
        assert 0.0 <= out[0] <= 1.0

    def test_population_update_matches_genome_by_genome(self):
        pop, best, worst = np.random.default_rng(5).random((3, 7, 4))
        best, worst = best[0], worst[0]
        whole = jaya_update(pop, best, worst, np.random.default_rng(9).random(2 * pop.size))
        rng = np.random.default_rng(9)  # each genome draws its own r1 then r2 from the same stream
        rows = [jaya_update(row, best, worst, rng.random(2 * row.size)) for row in pop]
        assert np.array_equal(whole, np.vstack(rows))

    def test_bit_identical_to_clip_expression(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            pop = rng.random((int(rng.integers(1, 25)), int(rng.integers(1, 40))))
            best, worst = pop[rng.integers(len(pop))], pop[rng.integers(len(pop))]
            seed = int(rng.integers(2 ** 32))
            r = np.random.default_rng(seed).random(2 * pop.size).reshape(len(pop), 2, -1)
            want = np.clip(pop + r[:, 0] * np.abs(best - pop) - r[:, 1] * np.abs(worst - pop),
                           0.0, 1.0)
            got = jaya_update(pop, best, worst, np.random.default_rng(seed).random(2 * pop.size))
            assert got.tobytes() == want.tobytes()

    def test_stays_in_unit_box(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, b, w = rng.random(6), rng.random(6), rng.random(6)
            out = jaya_update(v, b, w, rng.random(2 * v.size))
            assert np.all((out >= 0.0) & (out <= 1.0))


class TestPrune:
    def fitness_data(self, m=24):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(m, 1))
        y = (np.arange(m) % 2).astype(np.int64)
        return x, y

    def test_pool_of_one_forced_mask(self):
        x, y = self.fitness_data()
        pool = build_pool([OraclePredictor(x, y)], n_classes=2)
        result = prune_one(pool, x, y, n_pop=2, t_max=1, rng=np.random.default_rng(0))
        assert result.mask.tolist() == [1]
        assert result.history[-1] == pytest.approx(1.0)

    def test_planted_oracle_found(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y),
                           FixedPredictor(0)], n_classes=2)
        result = prune_one(pool, x, y, n_pop=20, t_max=50, rng=np.random.default_rng(1))
        assert result.history[-1] == pytest.approx(1.0)

    def test_determinism(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), OraclePredictor(x, y), FixedPredictor(1)], 2)
        a = prune_one(pool, x, y, n_pop=10, t_max=20, rng=np.random.default_rng(3))
        b = prune_one(pool, x, y, n_pop=10, t_max=20, rng=np.random.default_rng(3))
        assert a.mask.tolist() == b.mask.tolist()
        assert a.history == b.history

    def test_history_monotone_nondecreasing(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y),
                           FixedPredictor(1), FixedPredictor(0)], 2)
        for seed in range(5):
            result = prune_one(pool, x, y, n_pop=8, t_max=30, rng=np.random.default_rng(seed))
            hist = np.array(result.history)
            assert np.all(np.diff(hist) >= 0.0)

    def test_final_fitness_at_least_initial_best(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y)], 2)
        rng = np.random.default_rng(11)
        # replicate the initial population evaluation with an identical stream
        probe = np.random.default_rng(11)
        init_best = max(
            evaluate_mask(pool, digitize(probe.random(pool.size)), x, y) for _ in range(6))
        result = prune_one(pool, x, y, n_pop=6, t_max=10, rng=rng)
        assert result.history[-1] >= init_best - 1e-12

    def test_matches_exhaustive_enumeration_most_seeds(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y),
                           FixedPredictor(0), FixedPredictor(1), FixedPredictor(0)], 2)
        target = exhaustive_optimum(pool, x, y)
        hits = sum(
            prune_one(pool, x, y, n_pop=20, t_max=50,
                  rng=np.random.default_rng(seed)).history[-1] >= target - 0.02
            for seed in range(20))
        assert hits >= 16

    @pytest.mark.parametrize("n_classes,dtype", [(3, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_fitness_keeps_narrow_predictions_with_the_same_scores(self, n_classes, dtype):
        """Every fold holds its fitness predictions until the run's search, so they are kept narrow."""
        pool, x, y = random_pool(5, seed=n_classes, n_classes=n_classes)
        fit = fitness(pool, x, y)
        assert fit.preds.dtype == member_predictions(pool, x).dtype == dtype
        assert np.array_equal(fit.preds, member_predictions(pool, x))
        wide = fit.preds.astype(np.int64)
        for mask in digitize(np.random.default_rng(0).random((8, pool.size))):
            assert (voted_f1(fit.preds, mask, fit.truth, fit.n_classes)
                    == voted_f1(wide, mask, y, pool.n_classes))

    def test_fitness_equals_independent_reevaluation(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), OraclePredictor(x, y)], 2)
        result = prune_one(pool, x, y, n_pop=6, t_max=10, rng=np.random.default_rng(2))
        assert result.history[-1] == pytest.approx(evaluate_mask(pool, result.mask, x, y), abs=1e-12)
        assert int(result.mask.sum()) >= 1

    def test_bad_args(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0)], 2)
        with pytest.raises(ValueError):
            prune_one(pool, x, y, n_pop=1, t_max=5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            prune_one(pool, x, y, n_pop=4, t_max=0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            prune_one(pool, np.empty((0, 1)), np.empty(0, dtype=int), n_pop=4, t_max=2,
                      rng=np.random.default_rng(0))
        scored = fitness(pool, x, y)
        with pytest.raises(ValueError):
            prune([scored], n_pop=1, t_max=2, rngs=[np.random.default_rng(0)])
        with pytest.raises(ValueError, match="1 fitnesses but 2 random streams"):
            prune([scored], n_pop=4, t_max=2, rngs=[np.random.default_rng(0)] * 2)
        wider = fitness(build_pool([FixedPredictor(0), FixedPredictor(1)], 2), x, y)
        with pytest.raises(ValueError, match=r"one size, got sizes \[1, 2\]"):
            prune([scored, wider], n_pop=4, t_max=2, rngs=[np.random.default_rng(0)] * 2)


class TestSearchUnchanged:
    """The batched search over scored masks against the genome-by-genome reference."""

    CASES = [(seed, size, n_pop, t_max)
             for seed, (size, n_pop, t_max) in enumerate(itertools.product(
                 range(1, 8), (2, 5, 20), (1, 7, 30)))][::2]

    def test_enough_cases(self):
        assert len(self.CASES) >= 30
        assert {size for _, size, _, _ in self.CASES} == set(range(1, 8))

    @pytest.mark.parametrize("seed,size,n_pop,t_max", CASES)
    def test_matches_reference(self, seed, size, n_pop, t_max):
        pool, x, y = random_pool(size, seed)
        mask, fit, history = reference_prune(pool, x, y, n_pop, t_max,
                                                 np.random.default_rng(seed))
        result = prune_one(pool, x, y, n_pop=n_pop, t_max=t_max, rng=np.random.default_rng(seed))
        assert result.mask.tolist() == mask.tolist()
        assert result.history[-1] == fit
        assert result.history == history
        assert len(result.history) == t_max

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_reference_on_a_wide_pool(self, seed):
        """70 members: masks far past any fixed-width integer code, keys stay exact."""
        pool, x, y = random_pool(70, seed)
        mask, fit, history = reference_prune(pool, x, y, 6, 4, np.random.default_rng(seed))
        result = prune_one(pool, x, y, n_pop=6, t_max=4, rng=np.random.default_rng(seed))
        assert result.mask.tolist() == mask.tolist()
        assert result.history[-1] == fit
        assert result.history == history

    @pytest.mark.parametrize("n_pop,t_max", [(5, 7), (20, 30)])
    def test_one_batched_call_matches_each_fold_alone(self, n_pop, t_max):
        """Two pools of each size 1-9, 16 and 70, each with its own fitness data and
        stream, searched by one ``prune`` call per size, match each fold's reference search.

        Sizes 8, 9, 16 and 70 put the memo key's last slot at the end of a byte,
        one past it, at the end of two bytes and in the ninth.
        """
        for size in (*range(1, 10), 16, 70):
            folds = [random_pool(size, seed=100 * size + seed) for seed in (0, 1)]
            want = [reference_prune(pool, x, y, n_pop, t_max, np.random.default_rng(i))
                    for i, (pool, x, y) in enumerate(folds)]
            found = prune([fitness(pool, x, y) for pool, x, y in folds], n_pop, t_max,
                          rngs=[np.random.default_rng(i) for i in range(len(folds))])
            assert len(found) == len(folds)
            for (mask, fit, history), result in zip(want, found):
                assert result.mask.tolist() == mask.tolist(), size
                assert result.history == history, size
                assert result.history[-1] == fit, size

    @staticmethod
    def scored_masks(monkeypatch, size, n_pop, t_max, rngs=None):
        """Per search of one ``prune`` call over ``len(rngs)`` pools of ``size`` members:
        (every mask ``pruning.vote_from_predictions`` voted for it, in call order;
        the number of its ``pruning.classification_metrics`` calls; the set of its
        masks ``digitize`` gave).

        The callers' per-search check ``set(fold_calls) == fold_seen`` is what
        guards the search's index inside the memo key: a key without it would
        score a mask only for the first search that meets it, and every later
        search of the call would miss that mask in its calls.  Both bindings
        are the ones the benchmark's ``fitness_evals`` and metric calls count.
        """
        rngs = [np.random.default_rng(i) for i in range(3)] if rngs is None else rngs
        folds = [random_pool(size, seed=10 * size + i) for i in range(len(rngs))]
        fits = [fitness(pool, x, y) for pool, x, y in folds]
        search_of = {id(fit.preds): i for i, fit in enumerate(fits)}
        search_of.update({id(fit.truth): i for i, fit in enumerate(fits)})
        calls, f1s, seen = [[] for _ in folds], [0] * len(folds), [set() for _ in folds]
        voter, metrics, digitized = (pruning.vote_from_predictions, pruning.classification_metrics,
                                     pruning.digitize)

        def voting(preds, mask, n_classes):
            calls[search_of[id(preds)]].append(tuple(mask.tolist()))
            return voter(preds, mask, n_classes)

        def scoring(voted, truth, n_classes):
            f1s[search_of[id(truth)]] += 1
            return metrics(voted, truth, n_classes)

        def recording(values):
            masks = digitized(values)  # (searches, ..., size)
            for i, rows in enumerate(masks.reshape(len(folds), -1, size).tolist()):
                seen[i].update(map(tuple, rows))
            return masks

        monkeypatch.setattr(pruning, "vote_from_predictions", voting)
        monkeypatch.setattr(pruning, "classification_metrics", scoring)
        monkeypatch.setattr(pruning, "digitize", recording)
        prune(fits, n_pop=n_pop, t_max=t_max, rngs=rngs)
        return calls, f1s, seen

    @pytest.mark.parametrize("size", [1, 2, 4, 7, 9, 12])
    def test_each_mask_scored_at_most_once(self, monkeypatch, size):
        """The masks each search visits, once each, at widths of one and two key bytes."""
        calls, f1s, seen = self.scored_masks(monkeypatch, size, n_pop=20, t_max=50)
        for fold_calls, fold_f1s, fold_seen in zip(calls, f1s, seen):
            assert len(fold_calls) == len(set(fold_calls)) == fold_f1s <= 2 ** size - 1
            assert set(fold_calls) == fold_seen

    def test_wide_pool_scores_each_mask_exactly_once(self, monkeypatch):
        """70 members, far more masks than the search meets: the masks each search visits, once each."""
        calls, f1s, seen = self.scored_masks(monkeypatch, 70, n_pop=20, t_max=30)
        for fold_calls, fold_f1s, fold_seen in zip(calls, f1s, seen):
            assert len(fold_calls) == len(set(fold_calls)) == fold_f1s
            assert set(fold_calls) == fold_seen

    @pytest.mark.parametrize("size,low,mid,high", [(9, 0, 7, 8), (16, 7, 8, 15), (70, 0, 64, 69)])
    def test_masks_differing_past_slot_63_keyed_apart(self, monkeypatch, size, low, mid, high):
        """Masks that differ only in slot ``low``, ``mid`` or ``high`` are four masks, each scored once.

        The slots sit on either side of a byte boundary of the key, or past slot 63.
        """
        class ScriptedRng:  # a fixed initial population, then steps of zero
            def __init__(self, pop):
                self.pop = pop

            def random(self, size):
                return self.pop.copy() if isinstance(size, tuple) else np.zeros(size)

        pop = np.full((4, size), 0.9)
        pop[1, high] = pop[2, mid] = pop[3, low] = 0.1
        (calls,), (f1s,), (seen,) = self.scored_masks(monkeypatch, size, n_pop=4, t_max=2,
                                                      rngs=[ScriptedRng(pop)])
        assert len(seen) == 4 == f1s
        assert sorted(calls) == sorted(seen)
