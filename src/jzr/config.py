"""Run configuration: the settings and the type each one's values must have."""

from __future__ import annotations

from dataclasses import dataclass
from typing import get_args, get_type_hints

from .rules import ScoringSettings, Thresholds


@dataclass(frozen=True)
class Config:
    """Every setting, named as its flag and config-file key; `thresholds`
    groups those pruning and extraction read, `scoring` those scores read."""

    t_cos_sim: float = 0.5
    t_r_sem: float = Thresholds.t_r_sem
    t_r_orth: int = Thresholds.t_r_orth
    t_w_sem: float = Thresholds.t_w_sem
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
        self.thresholds, self.scoring  # each checks its own ranges

    @property
    def thresholds(self) -> Thresholds:
        return Thresholds(self.t_r_sem, self.t_r_orth, self.t_w_sem)

    @property
    def scoring(self) -> ScoringSettings:
        return ScoringSettings(float(self.t_cos_sim), int(self.sample_cap), int(self.seed))


# Each Config field's type, which its config-file key and flag (`-` for `_`)
# take; `int | None` takes an int: None only means "not given".
SETTING_TYPES = {name: (get_args(hint) or (hint,))[0]
                 for name, hint in get_type_hints(Config).items()}
