"""Run configuration: defaults, config-file values, then flags, in that order."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .embeddings import HEADERED, HEADERLESS
from .rules import ScoringSettings, Thresholds


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

    def __post_init__(self):
        if self.vector_format not in (HEADERED, HEADERLESS):
            raise ValueError(f"unknown vector format: {self.vector_format!r}")
        for name in ("max_affix", "max_derived_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.min_stem < 1:
            raise ValueError("min_stem must be at least 1")
        if self.top_n is not None and self.top_n < 0:
            raise ValueError("top_n cannot be negative")
        self.scoring  # ScoringSettings checks sample_cap

    @property
    def scoring(self) -> ScoringSettings:
        """The settings semantic scores are computed with."""
        return ScoringSettings(float(self.thresholds.t_cos_sim), int(self.sample_cap),
                               int(self.seed))


# Every setting's name: a config-file key, a flag's dest, a field of
# Thresholds or Config.
_THRESHOLD_NAMES = tuple(f.name for f in fields(Thresholds))
SETTING_NAMES = _THRESHOLD_NAMES + tuple(
    f.name for f in fields(Config) if f.name != "thresholds")


def read_config_file(path) -> dict:
    """Load a flat JSON config; threshold names sit beside the other fields."""
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)
    if not isinstance(values, dict):
        raise ValueError("config file must hold a JSON object")
    return values


def build_config(file_values: dict | None = None,
                 flag_values: dict | None = None) -> Config:
    """Merge defaults, config-file values, and flags; flags win, file second.

    Entries whose value is None are treated as not given.
    """
    merged: dict = {}
    for source in (file_values or {}), (flag_values or {}):
        unknown = sorted(set(source) - set(SETTING_NAMES))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        merged.update((k, v) for k, v in source.items() if v is not None)
    thresholds = Thresholds(**{
        k: merged.pop(k) for k in _THRESHOLD_NAMES if k in merged
    })
    return Config(thresholds=thresholds, **merged)
