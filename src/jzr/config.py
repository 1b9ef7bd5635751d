"""Run configuration: defaults, config-file values, then flags, in that order."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .embeddings import HEADERED, HEADERLESS
from .rules import Thresholds

_THRESHOLD_KEYS = ("t_cos_sim", "t_r_sem", "t_r_orth", "t_w_sem")
_CONFIG_KEYS = (
    "max_affix", "min_stem", "max_derived_len", "sample_cap", "seed",
    "vector_format", "top_n", "group_cap",
)


@dataclass(frozen=True)
class Config:
    thresholds: Thresholds = field(default_factory=Thresholds)
    max_affix: int = 6
    min_stem: int = 2
    max_derived_len: int = 12
    sample_cap: int = 100
    seed: int = 42
    vector_format: str = HEADERED
    top_n: int | None = None
    group_cap: int = 10_000

    def __post_init__(self):
        if self.vector_format not in (HEADERED, HEADERLESS):
            raise ValueError(f"unknown vector format: {self.vector_format!r}")
        for name in ("max_affix", "max_derived_len", "sample_cap", "group_cap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.min_stem < 1:
            raise ValueError("min_stem must be at least 1")
        if self.top_n is not None and self.top_n < 0:
            raise ValueError("top_n cannot be negative")


def read_config_file(path) -> dict:
    """Load a flat JSON config; threshold names sit beside the other fields."""
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    known = set(_THRESHOLD_KEYS) | set(_CONFIG_KEYS)
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return values


def build_config(file_values: dict | None = None,
                 flag_values: dict | None = None) -> Config:
    """Merge defaults, config-file values, and flags; flags win, file second.

    Flag entries whose value is None are treated as not given.
    """
    merged: dict = {}
    for source in (file_values or {}), (flag_values or {}):
        for key, value in source.items():
            if value is not None:
                merged[key] = value
    thresholds = Thresholds(**{
        k: merged.pop(k) for k in _THRESHOLD_KEYS if k in merged
    })
    allowed = {f.name for f in fields(Config)} - {"thresholds"}
    unknown = sorted(set(merged) - allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return Config(thresholds=thresholds, **merged)
