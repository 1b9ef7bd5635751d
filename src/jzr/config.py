"""Run configuration: the settings and the type each one's values must have."""

from __future__ import annotations

from dataclasses import dataclass, field
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

