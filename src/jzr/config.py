"""Run configuration: defaults, config-file values, then flags, in that order."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

from .rules import ScoringSettings, Thresholds


@dataclass(frozen=True)
class Config:
    thresholds: Thresholds = field(default_factory=Thresholds)
    max_affix: int = 6
    min_stem: int = 2
    max_derived_len: int = 12
    sample_cap: int = 100
    seed: int = 42
    top_n: int | None = None

    def __post_init__(self):
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


# Every setting's name, a config-file key and (with `-` for `_`) a flag, and
# the type its values must have. `int | None` takes an int: None only means
# "not given".
SETTING_TYPES = {name: (get_args(hint) or (hint,))[0]
                 for cls in (Thresholds, Config)
                 for name, hint in get_type_hints(cls).items() if name != "thresholds"}


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

    Entries whose value is None are treated as not given; any other value
    must have its setting's type in SETTING_TYPES.
    """
    merged: dict = {}
    for source in (file_values or {}), (flag_values or {}):
        unknown = sorted(set(source) - set(SETTING_TYPES))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in source.items():
            if value is None:
                continue
            kind = SETTING_TYPES[name]
            # An integer is a valid float; a bool, though an int, is not.
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
            merged[name] = value
    thresholds = Thresholds(**{
        f.name: merged.pop(f.name) for f in fields(Thresholds) if f.name in merged
    })
    return Config(thresholds=thresholds, **merged)
