"""Run configuration: every pipeline knob with its default, JSON round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .overlap import KEEP_MODES
from .region import THRESHOLD_MODES


# The types each field annotation accepts; a bool is never taken for a number.
_ACCEPTED_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,),
                   "str | None": (str, type(None)), "str | int": (str, int),
                   "tuple | None": (tuple, type(None))}

# Range rules, checked only for a value of an accepted type.
_RANGES = {
    "folds": (lambda v: v >= 2, ">= 2"),
    "repeats": (lambda v: v >= 1, ">= 1"),
    "threshold_mode": (lambda v: v in THRESHOLD_MODES, f"one of {THRESHOLD_MODES}"),
    "sor_fallback_fraction": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "sor_keep": (lambda v: v in KEEP_MODES, f"one of {KEEP_MODES}"),
    "omrp_k": (lambda v: v >= 1, ">= 1"),
    "jaya_pop": (lambda v: v >= 2, ">= 2"),
    "jaya_iters": (lambda v: v >= 1, ">= 1"),
    "noise_remove_fraction": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "or_knn_k": (lambda v: v >= 1, ">= 1"),
}


@dataclass(frozen=True)
class RunConfig:
    data_path: str | None = None
    label_column: str | int = "class"
    seed: int = 0
    folds: int = 5
    repeats: int = 10
    scale: bool = False
    threshold_mode: str = "midpoint"      # or "mean": own-class average alone
    z_threshold: float = 2.0
    sor_fallback_fraction: float = 0.30
    sor_keep: str = "after"               # or "before": keep the pre-jump side
    omrp_k: int = 5
    omrp_max_attempts_factor: int = 50
    jaya_pop: int = 20
    jaya_iters: int = 50
    use_balancing: bool = True
    use_pruning: bool = True
    noise_remove_fraction: float = 1.0
    or_knn_k: int = 5
    pool: tuple | None = None             # ((kind, {params}), ...); None = default pool

    def __post_init__(self):
        # Checked up front: of the wrong type or out of range, a value would
        # abort every fold as if the data were degenerate (or, for repeats,
        # run none), or pass through into the report unnoticed.
        bad = []
        for f in fields(self):
            value, accepted = getattr(self, f.name), _ACCEPTED_TYPES[f.type]
            if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in accepted):
                bad.append(f"{f.name}={value!r} (must be of type {f.type})")
            elif f.name in _RANGES and not _RANGES[f.name][0](value):
                bad.append(f"{f.name}={value!r} (must be {_RANGES[f.name][1]})")
        if bad:
            raise ValueError("invalid config: " + "; ".join(bad))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "pool" and v is not None:
                v = [{"kind": kind, "params": dict(params)} for kind, params in v]
            out[f.name] = v
        return out

    def with_overrides(self, **kwargs) -> "RunConfig":
        return replace(self, **kwargs)


def _normalize_pool(raw):
    if raw is None:
        return None
    spec = []
    for entry in raw:
        if isinstance(entry, dict):
            spec.append((entry["kind"], dict(entry.get("params", {}))))
        else:
            kind, params = entry
            spec.append((kind, dict(params)))
    return tuple(spec)


def config_from_dict(data: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    data = dict(data)
    if "pool" in data:
        data["pool"] = _normalize_pool(data["pool"])
    return RunConfig(**data)


def load_config_file(path) -> RunConfig:
    with open(Path(path), encoding="utf-8") as f:
        return config_from_dict(json.load(f))


def merge_config(base: RunConfig, overrides: dict) -> RunConfig:
    """Apply explicitly-set values (not None) on top of ``base``."""
    return base.with_overrides(**{k: v for k, v in overrides.items() if v is not None})
