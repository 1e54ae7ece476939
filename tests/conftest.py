import numpy as np
import pytest
from hypothesis import settings

from imbkit import harness
from imbkit.data_model import Dataset

# CI runs ``pytest --hypothesis-profile=ci``: the same examples on every run,
# so a property test cannot pass on one push and fail on the next
settings.register_profile("ci", derandomize=True)

DATA_DIR_NAME = "data"


@pytest.fixture(scope="session")
def data_dir():
    from pathlib import Path
    return Path(__file__).resolve().parent.parent / DATA_DIR_NAME


def make_blobs(centers, sizes, std=1.0, seed=0, class_names=None):
    """Gaussian blob dataset: one isotropic cluster per class."""
    rng = np.random.default_rng(seed)
    feats, labels = [], []
    for c, (center, size) in enumerate(zip(centers, sizes)):
        center = np.asarray(center, dtype=float)
        feats.append(rng.normal(center, std, size=(size, center.size)))
        labels.append(np.full(size, c))
    names = class_names or tuple(f"c{i}" for i in range(len(sizes)))
    return Dataset(np.vstack(feats), np.concatenate(labels), names)


def imbalance_ratio(ds):
    """Largest class count over smallest class count; 1.0 when balanced."""
    counts = ds.class_counts()
    return float(counts.max()) / float(counts.min())


@pytest.fixture
def fold_calls(monkeypatch):
    """(config, repeat, fold, train indices, test indices) of each ``harness._run_fold`` call, in order.

    These are the index arrays ``run_cv`` actually hands each fold; the
    trailing arguments, the memo private to a sweep (None outside one) and the
    dataset's neighbour table (None where the run builds none), pass through untouched.
    """
    calls = []
    run_fold = harness._run_fold

    def recording(ds, train_idx, test_idx, config, repeat, fold, *rest):
        calls.append((config, repeat, fold, train_idx, test_idx))
        return run_fold(ds, train_idx, test_idx, config, repeat, fold, *rest)

    monkeypatch.setattr(harness, "_run_fold", recording)
    return calls


@pytest.fixture
def separable_ds():
    # two classes 20 standard deviations apart: everything should be core
    return make_blobs([(0.0, 0.0), (20.0, 20.0)], [30, 30], std=1.0, seed=1)


@pytest.fixture
def overlapping_imbalanced_ds():
    # IR >= 10 with heavy designed overlap between the majority and one minority
    return make_blobs([(0.0, 0.0), (1.5, 0.0), (8.0, 8.0)], [200, 20, 25], std=1.0, seed=7)
