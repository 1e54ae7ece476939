"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  One check (08) is kept failing on purpose: its target trend does not
hold under the default noisy-region threshold, and the documents in this
repository do not settle which threshold the method prescribes.  Its PASS/FAIL
line and failure message carry the measurements; the docstring carries the
rest of the evidence.  Test folds are always scored raw, exactly as they
arrive.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from imbkit.config import RunConfig
from imbkit.data_model import load_csv, rng_for, stratified_folds
from imbkit.distances import min_dist
from imbkit.harness import (ablate_components, ablate_noise, clean, emit_report, partition_regions,
                            run_cv)
from imbkit import learners, metrics, overlap, posterior, region, resample
from tests.conftest import imbalance_ratio, make_blobs
from tests.test_posterior import direct_posterior_oracle
from tests.test_overlap import WORKED_DISTANCES, population_stats_oracle, worked_fixture
from tests.test_pruning import (FixedPredictor, OraclePredictor, build_pool, exhaustive_optimum,
                                prune_one)


def line(num, name, ok, detail=""):
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    return ok


def test_01_posterior_oracle_equivalence():
    """25 randomized small datasets: log-space posteriors == direct density products."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(25):
        m = int(rng.integers(4, 11))
        z = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        labels = np.concatenate([np.arange(n), rng.integers(0, n, size=m - n)])[:m]
        feats = rng.normal(scale=2.5, size=(m, z))
        model = posterior.fit_nb(feats, labels, n)
        post = posterior.posteriors(model, feats)
        worst = max(worst, float(np.abs(post.values - direct_posterior_oracle(model, feats)).max()))
        worst = max(worst, float(np.abs(post.values.sum(axis=1) - 1.0).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    assert line("01", "posterior-oracle-equivalence", ok,
                f"max-dev={worst:.2e} runtime={elapsed:.2f}s"), worst


def test_02_partition_soundness():
    """100 randomized datasets: tags exhaustive, disjoint, threshold-consistent."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(100):
        m = int(rng.integers(4, 40))
        n = int(rng.integers(2, min(5, m + 1)))
        raw = rng.random((m, n)) + 1e-9
        P = posterior.PosteriorMatrix(values=raw / raw.sum(axis=1, keepdims=True))
        labels = rng.integers(0, n, size=m)
        labels[:n] = np.arange(n)
        thr = region.class_thresholds(P, labels)
        assign = region.partition(P, thr, labels)
        own = P.values[np.arange(m), labels]
        core = own >= thr[labels]
        exceeds = P.values > thr[None, :]
        exceeds[np.arange(m), labels] = False
        expected = np.where(core, region.CORE,
                            np.where(exceeds.any(axis=1), region.OVERLAPPING, region.NOISY))
        assert np.array_equal(assign.tags, expected)
        checked += m
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    assert line("02", "partition-soundness", ok,
                f"samples-checked={checked} runtime={elapsed:.2f}s")


def test_03_sor_jump_oracle():
    """Worked gap fixture: population stats match the hand oracle to 1e-9."""
    gaps_o, mu_o, sigma_o, z_o = population_stats_oracle(WORKED_DISTANCES)
    ds, assign = worked_fixture()
    profile = overlap.gap_profile(ds, assign, class_id=1)
    gaps, mu, sigma, z, jump = overlap.gap_statistics(profile.distances)
    dev = max(float(np.abs(gaps - np.array(gaps_o)).max()), abs(mu - mu_o), abs(sigma - sigma_o),
              float(np.abs(z - np.array(z_o)).max()))
    ok = (dev <= 1e-9 and z[-1] >= 2.0 and jump == profile.jump_index == 8
          and abs(z[-1] - 2.8284) < 1e-3)
    assert line("03", "sor-jump-oracle", ok,
                f"z={z[-1]:.4f} jump={profile.jump_index} dev={dev:.2e}")


def test_04_overlap_ratio_direction(data_dir):
    """Cleaning strictly lowers the dataset overlap ratio on the named benchmarks."""
    t0 = time.perf_counter()
    cfg = RunConfig()
    outcomes = []
    missing = []
    for name in ("contraceptive", "vehicle", "vertebral", "winequality-red"):
        path = data_dir / f"{name}.csv"
        if not path.exists():
            missing.append(name)
            continue
        ds = load_csv(path, "class")
        kept = np.flatnonzero(clean(ds, partition_regions(ds, cfg), cfg))
        before = metrics.overlap_ratios(ds, 5).or_dataset
        after = metrics.overlap_ratios(ds.subset(kept), 5).or_dataset
        outcomes.append((name, before, after, after < before))
    elapsed = time.perf_counter() - t0
    detail = " ".join(f"{n}:{b * 100:.1f}%->{a * 100:.1f}%" for n, b, a, _ in outcomes)
    if missing:
        detail += f" (skipped: {','.join(missing)}; run scripts/fetch_datasets.py)"
    ok = outcomes and all(flag for *_, flag in outcomes) and elapsed < 120.0
    assert line("04", "overlap-ratio-direction", ok, f"{detail} runtime={elapsed:.1f}s")
    if missing:
        pytest.skip(f"direction held on {len(outcomes)} datasets; unavailable here: {missing}")


def test_05_balancing_exactness(data_dir, separable_ds, overlapping_imbalanced_ds):
    """All class counts reach the max base count; every synthetic sample re-passes the penalty."""
    t0 = time.perf_counter()
    cases = [("separable-fixture", separable_ds), ("overlap-fixture", overlapping_imbalanced_ds)]
    for name in ("new-thyroid", "balance", "contraceptive", "vehicle", "winequality-red"):
        path = data_dir / f"{name}.csv"
        if path.exists():
            cases.append((name, load_csv(path, "class")))
    cfg = RunConfig()
    checked = rechecked = 0
    for name, ds in cases:
        keep = clean(ds, partition_regions(ds, cfg), cfg)
        base = [np.flatnonzero(keep & (ds.labels == c)) for c in range(ds.n_classes)]
        result = resample.build_balanced(ds, keep, rng_factory=lambda c: rng_for(0, "omrp", c))
        counts = result.dataset.class_counts()
        assert len(set(counts.tolist())) == 1, f"{name}: unequal counts {counts}"
        assert counts[0] == max(v.size for v in base), name
        for c, batch in result.batches.items():
            if not len(batch.samples):
                continue
            own = ds.features[base[c]]
            other = ds.features[np.concatenate([base[k] for k in range(len(base)) if k != c])]
            good = np.sum(min_dist(batch.samples, own) <= min_dist(batch.samples, other))
            assert good == len(batch.samples), f"{name} class {c}: {good}/{len(batch.samples)}"
            rechecked += len(batch.samples)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    assert line("05", "balancing-exactness", ok,
                f"datasets={checked} synthetics-rechecked={rechecked} runtime={elapsed:.1f}s")


def test_06_jaya_desk_scale_optimality():
    """Planted-oracle pool of 8: >= 16/20 seeded runs within 0.02 of the brute-force optimum."""
    rng = np.random.default_rng(606)
    fit_x = rng.normal(size=(30, 1))
    fit_y = (np.arange(30) % 3).astype(np.int64)
    members = [FixedPredictor(0), FixedPredictor(1), FixedPredictor(2),
               OraclePredictor(fit_x, fit_y), FixedPredictor(0), FixedPredictor(1),
               FixedPredictor(2), FixedPredictor(0)]
    pool = build_pool(members, n_classes=3)
    t0 = time.perf_counter()
    target = exhaustive_optimum(pool, fit_x, fit_y)
    hits = 0
    monotone = True
    for seed in range(20):
        result = prune_one(pool, fit_x, fit_y, n_pop=20, t_max=50, rng=np.random.default_rng(seed))
        hits += result.history[-1] >= target - 0.02
        monotone &= bool(np.all(np.diff(np.array(result.history)) >= 0))
    elapsed = time.perf_counter() - t0
    ok = hits >= 16 and monotone and elapsed < 30.0
    assert line("06", "jaya-desk-scale-optimality", ok,
                f"hits={hits}/20 optimum={target:.3f} monotone={monotone} runtime={elapsed:.1f}s")


def test_07a_desk_scale_new_thyroid(data_dir):
    """Full defaults (5 folds x 10 repeats): macro-F1 floor 0.90 on new-thyroid."""
    path = data_dir / "new-thyroid.csv"
    if not path.exists():
        pytest.skip("new-thyroid.csv not fetched")
    t0 = time.perf_counter()
    rep = run_cv(RunConfig(data_path=str(path), label_column="class", seed=0))
    elapsed = time.perf_counter() - t0
    f1 = rep.aggregate["f1"]["mean"]
    ok = f1 >= 0.90 and not rep.partial and elapsed < 300.0
    assert line("07a", "desk-scale-new-thyroid", ok,
                f"macro-f1={f1:.4f} (floor 0.90) runtime={elapsed:.0f}s")


# Smallest multi-class G-mean gain the paper's abstract reports ("gains of
# 37.06-57.27% in G-mean"), read as absolute G-mean points.
PAPER_MIN_G_MEAN_GAIN = 0.3706


def raw_pool_g_means(ds, rep):
    """Per completed fold of ``rep``: G-mean of the default pool trained on the raw
    training fold, every member voting, scored on the same raw test fold."""
    plan = stratified_folds(ds, rep.config.folds, rep.config.repeats, rep.config.seed)
    out = []
    for fr in rep.folds:
        if fr.status != "ok":
            continue
        train, test = plan.train_indices(fr.repeat, fr.fold), plan.test_indices(fr.repeat, fr.fold)
        seed = int(rng_for(rep.config.seed, "pool", fr.repeat, fr.fold).integers(2 ** 31))
        pool = learners.train_pool(ds.features[train], ds.labels[train], ds.n_classes, seed=seed)
        preds = learners.vote_from_predictions(learners.member_predictions(pool, ds.features[test]),
                                               np.ones(pool.size, dtype=bool), ds.n_classes)
        out.append(metrics.classification_metrics(preds, ds.labels[test], ds.n_classes)["g_mean"])
    return np.array(out)


def test_07b_desk_scale_balance(data_dir):
    """Full defaults on balance-scale: G-mean gain over the raw pool >= the paper's 0.3706.

    An absolute floor is out of reach for the documented pool (kNN k=3,
    Gaussian NB, a Gini stump, an extra-tree stump) on raw test folds.
    Measured at seed 0 over the 50 default folds (5 x 10), picking for each
    fold the best of the 15 member subsets by G-mean on that test fold
    itself, the mean G-mean tops out at:
      0.568 for the pipeline's own pools (balanced data, pool-train split);
      0.543 for the pool trained on the whole balanced training set;
      0.712 for the pool trained after oversampling to parity, no cleaning;
      0.035 for the pool trained on the raw training fold.
    The paper claims a gain, so the floor is a gain: on the report's own
    folds the pipeline's mean G-mean must beat the raw-pool baseline
    (``raw_pool_g_means``) by the abstract's smallest multi-class G-mean
    gain.  Measured gains at seeds 0-4: 0.448, 0.402, 0.433, 0.457, 0.395
    (the baseline is 0.000 at each: it never predicts class B).  The
    no-balancing variant gains only 0.249 at seed 0, so the check can fail.
    """
    path = data_dir / "balance.csv"
    if not path.exists():
        pytest.skip("balance.csv not fetched")
    ds = load_csv(path, "class")
    t0 = time.perf_counter()
    rep = run_cv(RunConfig(data_path=str(path), label_column="class", seed=0), ds)
    elapsed = time.perf_counter() - t0
    g = rep.aggregate["g_mean"]["mean"]
    base = float(raw_pool_g_means(ds, rep).mean())
    gain = g - base
    ok = gain >= PAPER_MIN_G_MEAN_GAIN and not rep.partial and elapsed < 300.0
    assert line("07b", "desk-scale-balance", ok,
                f"g-mean={g:.4f} raw-pool={base:.4f} gain={gain:.4f} "
                f"(needs >={PAPER_MIN_G_MEAN_GAIN}) partial={rep.partial} runtime={elapsed:.0f}s"), \
        (f"g-mean gain {gain:.4f} over the raw pool ({base:.4f}) < {PAPER_MIN_G_MEAN_GAIN}, "
         f"or partial={rep.partial}, or runtime {elapsed:.0f}s >= 300s")


def test_08_noise_ablation_trend(data_dir, fold_calls):
    """Removing all noise-tagged samples should beat removing none on >= 2 of 3 datasets.

    Kept failing on purpose.  The cause is the noisy region, and the documents
    here do not settle the fix.  Under the default ``midpoint`` threshold
    ((mean + max own posterior) / 2), partitioning each whole dataset tags
    48% of contraceptive, 41% of vehicle and 66% of winequality-red noisy
    (77% of balance).  Naive Bayes classifies 38%, 41% and 53% of those rows
    correctly, so deleting them mostly shrinks the training set: macro-F1
    (5 x 2 folds, seed 0) moves by -0.019, -0.110 and -0.044 from fraction 0
    to fraction 1.  Nor does the tag single out real noise: when 20% of the
    first training fold's rows are added again under another label, the
    copies are tagged noisy at 57/41/73% and the genuine rows at 54/39/72%.
    ``threshold_mode="mean"`` cuts the noisy share to 5-7% but wins on only
    1 of 3 datasets (+0.003 on winequality-red).  PAPER.md holds only the
    abstract, and the README and ``region.py`` document ``midpoint`` as the
    chosen rule, so a change of threshold waits until the paper's method
    section is in the repository.  The printed line reports, per dataset,
    macro-F1 at fractions 0.0 and 1.0 and the noisy share of the first
    training fold.
    """
    names = ("contraceptive", "vehicle", "winequality-red")
    missing = [n for n in names if not (data_dir / f"{n}.csv").exists()]
    if missing:
        pytest.skip(f"datasets not fetched: {missing}")
    config = RunConfig(seed=0, folds=5, repeats=2)
    improved, details = {}, []
    for name in names:
        ds = load_csv(data_dir / f"{name}.csv", "class")
        fold_calls.clear()
        reps = ablate_noise(config, fractions=(0.0, 1.0), dataset=ds)
        keep_calls, drop_calls = ([c for c in fold_calls if c[0].noise_remove_fraction == f]
                                  for f in (0.0, 1.0))
        shared = len(keep_calls) == len(drop_calls) == config.folds * config.repeats and all(
            a[1:3] == b[1:3] and np.array_equal(a[4], b[4]) for a, b in zip(keep_calls, drop_calls))
        assert shared, "fold plans must be shared across fractions"
        keep, drop = (reps[f].aggregate["f1"]["mean"] for f in (0.0, 1.0))
        improved[name] = drop > keep
        assign = partition_regions(ds.subset(keep_calls[0][3]), config)
        share = float(np.mean(assign.tags == region.NOISY))
        details.append(f"{name}: f1 {keep:.4f}->{drop:.4f} noisy={share:.0%}")
    wins = sum(improved.values())
    ok = wins >= 2
    summary = "; ".join(details)
    assert line("08", "noise-ablation-trend", ok,
                f"improved-on={wins}/3 (needs >=2) {summary}"), \
        f"noise removal improved macro-F1 on only {wins}/3 datasets: {summary}"


def test_09_component_ablation_trend(overlapping_imbalanced_ds, fold_calls):
    """Full pipeline G-mean >= no-balancing variant on the IR>=10 overlap fixture."""
    assert imbalance_ratio(overlapping_imbalanced_ds) >= 10
    t0 = time.perf_counter()
    reps = ablate_components(RunConfig(seed=0, folds=5, repeats=2),
                             dataset=overlapping_imbalanced_ds)
    tests = [test for _, r, f, _, test in fold_calls if (r, f) == (0, 0)]
    assert len(tests) == len(reps) and all(np.array_equal(tests[0], t) for t in tests), \
        "variants must share folds"
    full = reps["full"].aggregate["g_mean"]["mean"]
    nobal = reps["no_balancing"].aggregate["g_mean"]["mean"]
    elapsed = time.perf_counter() - t0
    ok = full >= nobal
    assert line("09", "component-ablation-trend", ok,
                f"full={full:.4f} no-balancing={nobal:.4f} runtime={elapsed:.1f}s")


def test_10_determinism_byte_identical(tmp_path):
    """Identical config + seed: byte-identical JSON reports across two executions.

    Runs two separate interpreter processes with different PYTHONHASHSEED
    values, so any hidden reliance on hash ordering would break the check.
    """
    import csv as _csv
    import os
    import subprocess
    import sys

    ds = make_blobs([(0.0, 0.0), (1.5, 0.0), (8.0, 8.0)], [80, 15, 15], std=1.0, seed=7)
    data_path = tmp_path / "toy.csv"
    with open(data_path, "w", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["x", "y", "class"])
        for row, lab in zip(ds.features, ds.labels):
            w.writerow([repr(float(row[0])), repr(float(row[1])), ds.class_names[lab]])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [sys.executable, "-m", "imbkit.cli", "run", "--data", str(data_path),
            "--label-col", "class", "--seed", "13", "--folds", "3", "--repeats", "2",
            "--jaya-pop", "8", "--jaya-iters", "10"]
    for out, hash_seed in ((a, "1"), (b, "2")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(args + ["--out", str(out)], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    identical = a.read_bytes() == b.read_bytes()
    json.loads(a.read_text())  # well-formed
    assert line("10", "determinism-byte-identical", identical,
                f"bytes={a.stat().st_size} (two processes, different hash seeds)")
