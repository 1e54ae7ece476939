"""The benchmark's workloads: which imbkit CLI calls one pass makes, on which inputs.

Every workload is one closed-loop caller in one process: each CLI call starts
after the previous one returned.  Inputs come only from the workload seed
(bundled CSVs or a generated Gaussian mixture); the seed is also the
``--seed`` of every call, so it becomes ``RunConfig.seed``.

``tiny=True`` swaps every input for a small generated set and shrinks folds,
repeats and the Jaya search, for the benchmark's self-test.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NOISE_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)
COMPONENT_VARIANTS = ("no_balancing", "no_pruning", "full")
TINY_FOLDS = 3
TINY_FLAGS = ("--folds", str(TINY_FOLDS), "--repeats", "1", "--jaya-pop", "4", "--jaya-iters", "3")
CENTRE_SEED = 0


@dataclass(frozen=True)
class Call:
    """One ``imbkit.cli.main`` invocation and the reports it must emit."""

    argv: tuple
    reports: tuple          # report paths, relative to the checkout root
    folds_per_report: int

    @property
    def label(self) -> str:
        return f"{self.argv[0]}:{Path(self.argv[self.argv.index('--data') + 1]).stem}"


def gaussian_mixture(rng: np.random.Generator, n_rows: int, n_features: int, shares):
    """Rows around per-class centres with unit-variance noise; rows and noise come from ``rng``.

    The centres are drawn from N(0, 0.5^2) by a fixed stream, not by ``rng``:
    with seed-drawn centres the class separation, and with it the amount of
    cleaning and oversampling, changed from seed to seed by more than any
    bound the benchmark can hold (macro-F1 by about 19 %, folds/s by 16 %).
    """
    counts = np.floor(np.asarray(shares) * n_rows).astype(np.int64)
    counts[0] += n_rows - counts.sum()
    centres = np.random.default_rng(CENTRE_SEED).normal(0.0, 0.5, size=(len(shares), n_features))
    labels = np.repeat(np.arange(len(shares)), counts)
    rng.shuffle(labels)
    features = centres[labels] + rng.standard_normal((n_rows, n_features))
    return features, labels


def write_csv(path: Path, features: np.ndarray, labels: np.ndarray) -> Path:
    header = ",".join(f"f{i + 1}" for i in range(features.shape[1])) + ",class"
    lines = [header]
    lines += [",".join(f"{v:.6f}" for v in row) + f",c{lab}" for row, lab in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def tiny_csv(work: Path, seed: int, tag: str) -> Path:
    """150 rows, 4 features, classes 60/28/12 %; small enough for a 3-fold self-test."""
    rng = np.random.default_rng([seed, zlib.crc32(tag.encode())])
    return write_csv(work / f"{tag}.csv", *gaussian_mixture(rng, 150, 4, (0.60, 0.28, 0.12)))


def _folds(tiny: bool, folds: int, repeats: int) -> tuple:
    return (TINY_FLAGS, TINY_FOLDS) if tiny else (
        ("--folds", str(folds), "--repeats", str(repeats)), folds * repeats)


def _run_calls(data_paths, work: Path, seed: int, tiny: bool, folds: int, repeats: int):
    flags, n_folds = _folds(tiny, folds, repeats)
    calls = []
    for data in data_paths:
        out = work / f"{Path(data).stem}.json"
        argv = ("run", "--data", str(data), "--label-col", "class", "--seed", str(seed),
                "--out", str(out)) + flags
        calls.append(Call(argv=argv, reports=(str(out),), folds_per_report=n_folds))
    return calls


def cv_bundled(work: Path, seed: int, tiny: bool):
    """``imbkit run`` at the default 5 folds x 10 repeats on new-thyroid and balance.

    Jaya pruning dominates and the distance matrices fit in L2; balance has
    integer features with many distance ties.
    """
    if tiny:
        data = [tiny_csv(work, seed, "tiny_a"), tiny_csv(work, seed, "tiny_b")]
    else:
        data = [Path("data/new-thyroid.csv"), Path("data/balance.csv")]
    return _run_calls(data, work, seed, tiny, folds=5, repeats=10)


def cv_large_synth(work: Path, seed: int, tiny: bool):
    """``imbkit run``, 5 folds x 1 repeat, on a generated 4000 x 10 mixture (70/22/8 %).

    Train folds have 3,200 rows, so each m x m distance matrix is about 82 MB:
    distance work dominates and the working set is far larger than L2.
    """
    if tiny:
        data = tiny_csv(work, seed, "synth")
    else:
        rng = np.random.default_rng(seed)
        data = write_csv(work / "synth.csv", *gaussian_mixture(rng, 4000, 10, (0.70, 0.22, 0.08)))
    return _run_calls([data], work, seed, tiny, folds=5, repeats=1)


def ablation_sweep(work: Path, seed: int, tiny: bool):
    """``ablate-noise`` at 5 fractions plus ``ablate-components`` on vehicle, 5 x 1.

    Eight variants on shared fold plans redo the same partition and cleaning
    for each fold; the no_pruning variant skips Jaya entirely.
    """
    data = tiny_csv(work, seed, "vehicle") if tiny else Path("data/vehicle.csv")
    flags, n_folds = _folds(tiny, folds=5, repeats=1)
    common = ("--data", str(data), "--label-col", "class", "--seed", str(seed)) + flags
    noise_dir, comp_dir = work / "noise", work / "components"
    return [
        Call(argv=("ablate-noise",) + common + (
                 "--fractions", ",".join(f"{f:g}" for f in NOISE_FRACTIONS),
                 "--out-dir", str(noise_dir)),
             reports=tuple(str(noise_dir / f"noise_{f:g}.json") for f in NOISE_FRACTIONS),
             folds_per_report=n_folds),
        Call(argv=("ablate-components",) + common + ("--out-dir", str(comp_dir)),
             reports=tuple(str(comp_dir / f"{v}.json") for v in COMPONENT_VARIANTS),
             folds_per_report=n_folds),
    ]


WORKLOADS = {f.__name__: f for f in (cv_bundled, cv_large_synth, ablation_sweep)}
