"""imbkit: probabilistic region partitioning, overlap cleaning, penalty-constrained
oversampling and Jaya-pruned weak-classifier ensembles for imbalanced data."""

from .config import RunConfig, config_from_dict, load_config_file
from .data_model import Dataset, FoldPlan, PipelineWarning, load_csv, stratified_folds
from .harness import ExperimentReport, ablate_components, ablate_noise, emit_report, run_cv
from .learners import ClassifierPool, train_pool
from .metrics import classification_metrics, confusion_matrix, macro_ovr_auc, overlap_ratios
from .overlap import GapProfile, gap_profile, select_non_overlapping, sor_all
from .posterior import NBModel, PosteriorMatrix, fit_nb, posteriors
from .pruning import PrunedEnsemble, digitize, jaya_update, prune
from .region import (ClassThresholds, RegionAssignment, class_thresholds, noise_subset,
                     partition)
from .resample import SyntheticBatch, balance_plan, omrp

__version__ = "0.1.0"

__all__ = [
    "RunConfig", "config_from_dict", "load_config_file",
    "Dataset", "FoldPlan", "PipelineWarning", "load_csv", "stratified_folds",
    "ExperimentReport", "ablate_components", "ablate_noise", "emit_report", "run_cv",
    "ClassifierPool", "train_pool",
    "classification_metrics", "confusion_matrix", "macro_ovr_auc", "overlap_ratios",
    "GapProfile", "gap_profile", "select_non_overlapping", "sor_all",
    "NBModel", "PosteriorMatrix", "fit_nb", "posteriors",
    "PrunedEnsemble", "digitize", "jaya_update", "prune",
    "ClassThresholds", "RegionAssignment", "class_thresholds", "noise_subset", "partition",
    "SyntheticBatch", "balance_plan", "omrp",
]
