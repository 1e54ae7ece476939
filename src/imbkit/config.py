"""Run configuration: every pipeline knob with its default, JSON round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path


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
