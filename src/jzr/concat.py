"""Candidate concatenative rules: deletions then insertions at one word edge."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

PREFIX = "prefix"
SUFFIX = "suffix"

Pair = tuple[str, str]

GROUP_CAP = 10_000


class StemGroupOverflowWarning(UserWarning):
    """A stem bucket exceeded GROUP_CAP and was skipped."""


@dataclass(frozen=True, order=True, slots=True)
class ConcatRule:
    """Edge transformation (side, old, new): old + stem maps to new + stem.

    Rules are kept in canonical form: material shared by both affixes at the
    stem boundary belongs to the stem, so prefix affixes never end with the
    same character and suffix affixes never start with the same character.
    """

    side: str
    old: str
    new: str

    def __post_init__(self):
        if self.side not in (PREFIX, SUFFIX):
            raise ValueError(f"side must be {PREFIX!r} or {SUFFIX!r}, got {self.side!r}")
        if self.old == self.new:
            raise ValueError("identity rules are excluded")
        if self.old and self.new:
            if self.side == PREFIX and self.old[-1] == self.new[-1]:
                raise ValueError(f"non-canonical prefix rule: {self.old!r} -> {self.new!r}")
            if self.side == SUFFIX and self.old[0] == self.new[0]:
                raise ValueError(f"non-canonical suffix rule: {self.old!r} -> {self.new!r}")

    @property
    def key_str(self) -> str:
        return f"concat:{self.side}:{self.old}>{self.new}"

    def apply(self, word: str) -> str | None:
        """Replace `old` with `new` on this rule's side, or None if `old` is absent."""
        if self.side == PREFIX:
            if not word.startswith(self.old):
                return None
            return self.new + word[len(self.old):]
        if not word.endswith(self.old):
            return None
        return word[: len(word) - len(self.old)] + self.new


def enumerate_concat_rules(
    vocab,
    max_affix: int = 6,
    min_stem: int = 2,
) -> dict[ConcatRule, tuple[Pair, ...]]:
    """Group every stem-sharing ordered word pair under its canonical edge rule.

    Words are indexed by their stripped remainders (up to `max_affix`
    characters removed per side), so related pairs meet inside a shared stem
    bucket instead of an all-pairs scan. Each ordered pair lands under
    exactly one rule per side, the one whose stem is the longest shared run,
    which keeps the rule map canonical. Both orientations are emitted; the
    extractor's length constraint picks the direction later.

    Stem buckets larger than `GROUP_CAP` are skipped with a warning.
    """
    if max_affix < 0:
        raise ValueError("max_affix must be non-negative")
    if min_stem < 1:
        raise ValueError("min_stem must be at least 1")
    words = list(dict.fromkeys(vocab))

    rules: dict[ConcatRule, list[Pair]] = {}
    for side in (PREFIX, SUFFIX):
        buckets: dict[str, list[tuple[str, str]]] = {}
        for w in words:
            max_k = min(max_affix, len(w) - min_stem)
            for k in range(max_k + 1):
                if side == PREFIX:
                    affix, stem = w[:k], w[k:]
                else:
                    affix = w[len(w) - k:] if k else ""
                    stem = w[: len(w) - k] if k else w
                buckets.setdefault(stem, []).append((affix, w))
        for stem, entries in buckets.items():
            if len(entries) > GROUP_CAP:
                warnings.warn(
                    f"stem group {stem!r} has {len(entries)} entries, over the "
                    f"cap of {GROUP_CAP}; skipped",
                    StemGroupOverflowWarning,
                )
                continue
            for a1, w1 in entries:
                for a2, w2 in entries:
                    if a1 == a2:
                        continue
                    # Non-canonical bucket for this pair: a longer shared stem exists.
                    if a1 and a2:
                        if side == PREFIX and a1[-1] == a2[-1]:
                            continue
                        if side == SUFFIX and a1[0] == a2[0]:
                            continue
                    rule = ConcatRule(side, a1, a2)
                    rules.setdefault(rule, []).append((w1, w2))

    # Values are replaced in place: no second map of every rule is built.
    for rule, pairs in rules.items():
        rules[rule] = tuple(sorted(pairs))
    return rules
