"""Candidate concatenative rules: deletions then insertions at one word edge."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass

PREFIX = "prefix"
SUFFIX = "suffix"

Pair = tuple[str, str]  # a support pair (w1, w2): its rule maps w1 to w2

# Support pairs one side's rules may hold, counted from the side's index before
# its first rule. Mining builds none of them; a caller that reads a support
# builds its pairs, each a 56 B tuple plus its slot in the support tuple.
PAIR_BUDGET = 10_000_000


class PairBudgetError(ValueError):
    """A side of concatenative mining whose rules would hold more than
    PAIR_BUDGET support pairs."""


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
        # `\` and `>` are escaped in both affixes, so distinct rules never print alike.
        old, new = (a.replace("\\", "\\\\").replace(">", "\\>") for a in (self.old, self.new))
        return f"concat:{self.side}:{old}>{new}"

    def apply(self, word: str) -> str | None:
        """Replace `old` with `new` on this rule's side, or None if `old` is absent."""
        if self.side == PREFIX:
            if not word.startswith(self.old):
                return None
            return self.new + word[len(self.old):]
        if not word.endswith(self.old):
            return None
        return word[: len(word) - len(self.old)] + self.new


class MinedRule:
    """A concatenative rule as mined: its key, its two affix maps in the
    mining index, and its scores, None until learn gates the rule. Learn
    keeps no record: a read of its candidate store mines the records again.

    The maps are stem -> word, and the support pairs are (stems1[s],
    stems2[s]) for each stem s in both. `support` builds them afresh at
    each read, as the sorted tuple of a `MorphRule`, and keeps none; `len`
    counts them without building any. The record reads, and compares
    equal, as a `MorphRule` of the same fields does.
    """

    __slots__ = ("key", "scores", "_stems1", "_stems2")

    def __init__(self, key: ConcatRule, stems1: dict[str, str], stems2: dict[str, str]):
        self.key, self.scores, self._stems1, self._stems2 = key, None, stems1, stems2

    @property
    def support(self) -> tuple[Pair, ...]:
        stems1, stems2 = self._stems1, self._stems2
        return tuple(sorted((stems1[s], stems2[s]) for s in stems1.keys() & stems2.keys()))

    def __len__(self) -> int:
        return len(self._stems1.keys() & self._stems2.keys())

    def __eq__(self, other) -> bool:
        try:
            fields = other.key, other.support, other.scores
        except AttributeError:
            return NotImplemented
        return (self.key, self.support, self.scores) == fields

    def __repr__(self) -> str:
        return f"MinedRule(key={self.key!r}, support={self.support!r}, scores={self.scores!r})"


def enumerate_concat_rules(
    vocab,
    max_affix: int = 6,
    min_stem: int = 2,
) -> Iterator[MinedRule]:
    """Yield every canonical edge rule once, with its stem-sharing word pairs.

    Each side indexes every split of a word into affix + stem (at most
    `max_affix` characters stripped, at least `min_stem` kept) as affix ->
    {stem: word}, and as stem -> [affixes] to name each affix's partners. A
    canonical affix pair's support is the word pairs on the stems both
    affixes carry; that stem is the pair's longest shared run, so each
    ordered pair lands under one rule per side. Both orientations are
    yielded; the extractor's length constraint picks the direction later.
    No rule is yielded twice, and prefix rules come first. Each rule is a
    `MinedRule` over its two affix maps, which it keeps alive: the stem
    index of a side is freed once the side is mined, its affix maps only
    with the last rule that reads them.

    Bad settings raise ValueError at the call. Nothing is skipped: a side
    whose rules would hold more than `PAIR_BUDGET` support pairs raises
    `PairBudgetError` once iteration reaches it, before its first rule.
    """
    if max_affix < 0:
        raise ValueError("max_affix must be non-negative")
    if min_stem < 1:
        raise ValueError("min_stem must be at least 1")
    words = list(dict.fromkeys(vocab))
    return (rule for side in (PREFIX, SUFFIX)
            for rule in _side_rules(words, side, max_affix, min_stem))


def _side_rules(words: list[str], side: str, max_affix: int, min_stem: int):
    """`enumerate_concat_rules` on one side."""
    by_affix: dict[str, dict[str, str]] = {}
    by_stem: dict[str, list[str]] = {}
    for w in words:
        for k in range(min(max_affix, len(w) - min_stem) + 1):
            if side == PREFIX:
                affix, stem = w[:k], w[k:]
            else:
                affix, stem = w[len(w) - k:], w[: len(w) - k]
            by_affix.setdefault(affix, {})[stem] = w
            by_stem.setdefault(stem, []).append(affix)
    edge = -1 if side == PREFIX else 0
    # Per stem, its ordered affix pairs less those sharing an edge character.
    pairs = sum(len(affixes) * (len(affixes) - 1)
                - sum(n * (n - 1) for n in Counter(a[edge] for a in affixes if a).values())
                for affixes in by_stem.values() if len(affixes) > 1)
    if pairs > PAIR_BUDGET:
        raise PairBudgetError(f"{side} side of concatenative mining: its rules would hold "
                              f"{pairs:,} support pairs, over the budget of {PAIR_BUDGET:,}")
    for a1, stems1 in by_affix.items():
        for a2 in dict.fromkeys(a for stem in stems1 for a in by_stem[stem]):
            if a1 == a2 or (a1 and a2 and a1[edge] == a2[edge]):
                continue  # identity, or a longer shared run exists
            yield MinedRule(ConcatRule(side, a1, a2), stems1, by_affix[a2])
