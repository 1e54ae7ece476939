"""Run configuration: every pipeline knob with its default, JSON round-trip."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .learners import POOL_KINDS, make_classifier
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
    "z_threshold": (lambda v: abs(v) < float("inf"), "finite"),  # math.isfinite raises on an int past float's range
    "omrp_k": (lambda v: v >= 1, ">= 1"),
    "jaya_pop": (lambda v: v >= 2, ">= 2"),
    "jaya_iters": (lambda v: v >= 1, ">= 1"),
    "noise_remove_fraction": (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    "or_knn_k": (lambda v: v >= 1, ">= 1"),
    "pool": (lambda v: v is None or len(v) > 0 and all(
        isinstance(e, tuple) and len(e) == 2 and isinstance(e[1], dict) and _builds(*e) for e in v),
        f"None or a non-empty tuple of (kind, params dict) pairs, kind one of {tuple(POOL_KINDS)} "
        "and params its classifier takes (k and max_depth integers >= 1)"),
}


def _builds(kind, params: dict) -> bool:
    """Whether ``train_pool`` can build this pool entry's classifier."""
    try:
        make_classifier(kind, params, seed=0)
    except (TypeError, ValueError):
        return False
    return True


@dataclass(frozen=True)
class RunConfig:
    data_path: str | None = None
    label_column: str | int = "class"
    seed: int = 0
    folds: int = 5
    repeats: int = 10
    scale: bool = False
    threshold_mode: str = "midpoint"      # or "mean": own-class average alone
    z_threshold: float = 2.0              # the cleaning's big-jump Z-score cut
    omrp_k: int = 5                       # the oversampler's nearest neighbours
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


def _normalize_pool(raw):
    """Pool entries given as {"kind", "params"} objects or [kind, params] pairs, as pairs.

    Anything else passes through unchanged, for RunConfig to reject by the field's name.
    """
    if not isinstance(raw, (list, tuple)):
        return raw
    return tuple((e.get("kind"), e.get("params", {})) if isinstance(e, dict)
                 else tuple(e) if isinstance(e, list) else e for e in raw)


def config_from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
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
    return replace(base, **{k: v for k, v in overrides.items() if v is not None})
