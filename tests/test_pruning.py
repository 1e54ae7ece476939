import itertools
import warnings

import numpy as np
import pytest

from imbkit import pruning
from imbkit.learners import ClassifierPool, member_predictions, vote_from_predictions
from imbkit.metrics import classification_metrics
from imbkit.pruning import digitize, jaya_update, prune


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


def evaluate_mask(pool: ClassifierPool, mask, features, labels) -> float:
    """Macro F-score of the mask's majority vote; the independent recheck for results."""
    preds = member_predictions(pool, features)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fitness data may legitimately miss a class
        return pruning._mask_fitness(preds, np.asarray(mask), np.asarray(labels, dtype=np.int64),
                                     pool.n_classes)


def build_pool(members, n_classes, n_features=1):
    return ClassifierPool(classifiers=tuple(members), kinds=tuple("stub" for _ in members),
                          n_classes=n_classes, n_features=n_features)


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
            return classification_metrics(voted, y, pool.n_classes).macro_f1

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
    return build_pool(members, n_classes, n_features=2), x, y


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


class TestJayaUpdate:
    class HalfRng:
        def random(self, n):
            return np.full(n, 0.5)

    def test_fixed_point_when_best_equals_worst_equals_value(self):
        v = np.array([0.3, 0.8])
        out = jaya_update(v, v, v, self.HalfRng())
        assert np.allclose(out, v)

    def test_direct_arithmetic(self):
        # 0.4 + 0.5*|1.0-0.4| - 0.5*|0.0-0.4| = 0.4 + 0.3 - 0.2 = 0.5
        out = jaya_update(np.array([0.4]), np.array([1.0]), np.array([0.0]), self.HalfRng())
        assert out[0] == pytest.approx(0.5)

    def test_clipping(self):
        class BigRng:
            def random(self, n):
                return np.ones(n) * 0.999999

        out = jaya_update(np.array([0.9]), np.array([0.0]), np.array([0.9]), BigRng())
        assert 0.0 <= out[0] <= 1.0

    def test_population_update_matches_genome_by_genome(self):
        pop, best, worst = np.random.default_rng(5).random((3, 7, 4))
        best, worst = best[0], worst[0]
        whole = jaya_update(pop, best, worst, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        rows = [jaya_update(row, best, worst, rng) for row in pop]
        assert np.array_equal(whole, np.vstack(rows))

    def test_stays_in_unit_box(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v, b, w = rng.random(6), rng.random(6), rng.random(6)
            out = jaya_update(v, b, w, rng)
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
        result = prune(pool, x, y, n_pop=2, t_max=1, rng=np.random.default_rng(0))
        assert result.mask.tolist() == [1]
        assert result.fitness == pytest.approx(1.0)

    def test_planted_oracle_found(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y),
                           FixedPredictor(0)], n_classes=2)
        result = prune(pool, x, y, n_pop=20, t_max=50, rng=np.random.default_rng(1))
        assert result.fitness == pytest.approx(1.0)

    def test_determinism(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), OraclePredictor(x, y), FixedPredictor(1)], 2)
        a = prune(pool, x, y, n_pop=10, t_max=20, rng=np.random.default_rng(3))
        b = prune(pool, x, y, n_pop=10, t_max=20, rng=np.random.default_rng(3))
        assert a.mask.tolist() == b.mask.tolist()
        assert a.fitness == b.fitness
        assert a.history == b.history

    def test_history_monotone_nondecreasing(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y),
                           FixedPredictor(1), FixedPredictor(0)], 2)
        for seed in range(5):
            result = prune(pool, x, y, n_pop=8, t_max=30, rng=np.random.default_rng(seed))
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
        result = prune(pool, x, y, n_pop=6, t_max=10, rng=rng)
        assert result.fitness >= init_best - 1e-12

    def test_matches_exhaustive_enumeration_most_seeds(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), FixedPredictor(1), OraclePredictor(x, y),
                           FixedPredictor(0), FixedPredictor(1), FixedPredictor(0)], 2)
        target = exhaustive_optimum(pool, x, y)
        hits = sum(
            prune(pool, x, y, n_pop=20, t_max=50,
                  rng=np.random.default_rng(seed)).fitness >= target - 0.02
            for seed in range(20))
        assert hits >= 16

    def test_fitness_equals_independent_reevaluation(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0), OraclePredictor(x, y)], 2)
        result = prune(pool, x, y, n_pop=6, t_max=10, rng=np.random.default_rng(2))
        assert result.fitness == pytest.approx(evaluate_mask(pool, result.mask, x, y), abs=1e-12)
        assert result.selected_count == int(result.mask.sum()) >= 1

    def test_bad_args(self):
        x, y = self.fitness_data()
        pool = build_pool([FixedPredictor(0)], 2)
        with pytest.raises(ValueError):
            prune(pool, x, y, n_pop=1, t_max=5)
        with pytest.raises(ValueError):
            prune(pool, x, y, n_pop=4, t_max=0)
        with pytest.raises(ValueError):
            prune(pool, np.empty((0, 1)), np.empty(0, dtype=int), n_pop=4, t_max=2)


class TestSearchUnchanged:
    """The array-based, memoized search against the genome-by-genome reference."""

    CASES = [(seed, size, n_pop, t_max)
             for seed, (size, n_pop, t_max) in enumerate(itertools.product(
                 range(1, 8), (2, 5, 20), (1, 7, 30)))][::2]

    def test_enough_cases(self):
        assert len(self.CASES) >= 30
        assert {size for _, size, _, _ in self.CASES} == set(range(1, 8))

    @pytest.mark.parametrize("seed,size,n_pop,t_max", CASES)
    def test_matches_reference(self, seed, size, n_pop, t_max):
        pool, x, y = random_pool(size, seed)
        mask, fitness, history = reference_prune(pool, x, y, n_pop, t_max,
                                                 np.random.default_rng(seed))
        result = prune(pool, x, y, n_pop=n_pop, t_max=t_max, rng=np.random.default_rng(seed))
        assert result.mask.tolist() == mask.tolist()
        assert result.fitness == fitness
        assert result.history == history
        assert result.generations == t_max

    @pytest.mark.parametrize("size", [1, 2, 4, 7])
    def test_each_mask_scored_at_most_once(self, monkeypatch, size):
        calls = []
        scored = pruning._mask_fitness

        def counting(preds, mask, truth, n_classes):
            calls.append(mask.tobytes())
            return scored(preds, mask, truth, n_classes)

        monkeypatch.setattr(pruning, "_mask_fitness", counting)
        pool, x, y = random_pool(size, seed=size)
        prune(pool, x, y, n_pop=20, t_max=50, rng=np.random.default_rng(0))
        assert len(calls) == len(set(calls)) <= 2 ** size - 1
