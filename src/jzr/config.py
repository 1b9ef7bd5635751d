"""Run configuration: every setting, checked once, and the thresholds it groups."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import get_args, get_type_hints


@dataclass(frozen=True)
class Thresholds:
    """What pruning (t_r_sem, t_r_orth, from Config) and extraction (t_w_sem) read."""

    t_r_sem: float = 0.1
    t_r_orth: int = 20
    t_w_sem: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.t_r_sem <= 1.0:
            raise ValueError("t_r_sem must lie in [0, 1]")
        if not 0.0 <= self.t_w_sem <= 1.0:
            raise ValueError("t_w_sem must lie in [0, 1]")
        if self.t_r_orth < 1:
            raise ValueError("t_r_orth must be at least 1")


@dataclass(frozen=True)
class Config:
    """Every setting learn reads, named as its flag and config-file key, each
    checked for its type and range. A learned rule store carries its
    Config, and its DB records it."""

    t_cos_sim: float = 0.5
    t_r_sem: float = Thresholds.t_r_sem
    t_r_orth: int = Thresholds.t_r_orth
    max_affix: int = 6
    min_stem: int = 2
    max_derived_len: int = 12
    sample_cap: int = 100
    seed: int = 42
    top_n: int | None = None

    def __post_init__(self):
        for name, kind in SETTING_TYPES.items():
            value = getattr(self, name)
            if value is None and name == "top_n":  # no cap
                continue
            # An integer is a valid float; a bool, though an int, is not; numpy's
            # numbers count as Python's.
            number = numbers.Integral if kind is int else numbers.Real
            if isinstance(value, bool) or not isinstance(value, number):
                raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")
        if not -1.0 < self.t_cos_sim < 1.0:
            raise ValueError("t_cos_sim must lie strictly inside (-1, 1)")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be at least 1")
        for name in ("max_affix", "max_derived_len"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} cannot be negative")
        if self.min_stem < 1:
            raise ValueError("min_stem must be at least 1")
        if self.top_n is not None and self.top_n < 0:
            raise ValueError("top_n cannot be negative")
        self.thresholds  # checks its own ranges

    @property
    def thresholds(self) -> Thresholds:
        """Pruning's thresholds; t_w_sem keeps extraction's default."""
        return Thresholds(self.t_r_sem, self.t_r_orth)


# Each Config field's type, which its config-file key and flag (`-` for `_`)
# take; `int | None` takes an int: None only means "not given".
SETTING_TYPES = {name: (get_args(hint) or (hint,))[0]
                 for name, hint in get_type_hints(Config).items()}