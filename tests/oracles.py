"""Brute-force reference implementations the real code is checked against.

Everything here favors obviousness over speed: all-pairs scans, no indexing,
no vectorization. Keep it that way; the whole point is independence from the
implementation under test. Two pieces are borrowed: `support_sample`, which
only names the seeded sample a score is taken over, and `analogy_score`, the
cosine of a single analogy, which the brute-force scores count over.
"""

from __future__ import annotations

import itertools
import unicodedata

from jzr.concat import ConcatRule
from jzr.embeddings import analogy_score
from jzr.rules import support_sample
from jzr.templatic import Template


def brute_valid_word(text: str) -> bool:
    """Non-empty, with no whitespace and no control character (category Cc)."""
    return bool(text) and not any(
        ch.isspace() or unicodedata.category(ch) == "Cc" for ch in text)


def common_prefix_len(a: str, b: str) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


def common_suffix_len(a: str, b: str) -> int:
    return common_prefix_len(a[::-1], b[::-1])


def brute_concat_rules(vocab, max_affix=6, min_stem=2):
    """All-pairs enumeration of canonical edge rules.

    For each ordered pair the canonical stem is the longest shared run on
    the stem side, which is where the one-rule-per-pair-per-side guarantee
    comes from.
    """
    words = list(dict.fromkeys(vocab))
    out: dict[ConcatRule, set] = {}
    for w1 in words:
        for w2 in words:
            if w1 == w2:
                continue
            stem_len = common_suffix_len(w1, w2)
            if stem_len >= min_stem:
                old, new = w1[: len(w1) - stem_len], w2[: len(w2) - stem_len]
                if len(old) <= max_affix and len(new) <= max_affix:
                    out.setdefault(ConcatRule("prefix", old, new), set()).add((w1, w2))
            stem_len = common_prefix_len(w1, w2)
            if stem_len >= min_stem:
                old, new = w1[stem_len:], w2[stem_len:]
                if len(old) <= max_affix and len(new) <= max_affix:
                    out.setdefault(ConcatRule("suffix", old, new), set()).add((w1, w2))
    return {rule: tuple(sorted(pairs)) for rule, pairs in out.items()}


def brute_templates(root: str, derived: str) -> set[Template]:
    """Every in-order embedding of the root's three letters, via combinations.

    Embeddings that leave "<C" inside a literal are left out: their
    pattern text would not read back as the same template.
    """
    out = set()
    for i, j, k in itertools.combinations(range(len(derived)), 3):
        if (derived[i], derived[j], derived[k]) == (root[0], root[1], root[2]):
            parts = (derived[:i], derived[i + 1:j], derived[j + 1:k], derived[k + 1:])
            if any(parts) and all("<C" not in p for p in parts):
                out.add(Template(parts))
    return out


def brute_templatic_rules(vocab, max_derived_len=12):
    words = list(dict.fromkeys(vocab))
    out: dict[Template, set] = {}
    for root in words:
        if len(root) != 3:
            continue
        for w in words:
            if not 3 < len(w) <= max_derived_len:
                continue
            for template in brute_templates(root, w):
                out.setdefault(template, set()).add((root, w))
    return {t: tuple(sorted(pairs)) for t, pairs in out.items()}


def brute_r_sem(table, pairs, t_cos: float) -> float:
    """Ordered pair-of-pairs loop over the public analogy_score function."""
    n = len(pairs)
    count = 0
    for w1, w2 in pairs:
        for w3, w4 in pairs:
            if analogy_score(table, w1, w2, w3, w4) > t_cos:
                count += 1
    return count / (n * n)


def brute_w_sem(table, pair, pairs, t_cos: float) -> float:
    w1, w2 = pair
    count = 0
    for w3, w4 in pairs:
        if analogy_score(table, w3, w4, w1, w2) > t_cos:
            count += 1
    return count / len(pairs)


def brute_extract(store, table, word, t_cos: float, t_w_sem: float,
                  limited: bool = False, sample_cap: int = 100, seed: int = 42):
    """Root extraction by plain loops over every rule's whole support.

    Returns (final, status, steps), each step as (rule key text, word, w_sem).
    w_sem is brute_w_sem against the rule's support sample: the pairs that
    `support_sample` draws, which below `sample_cap` are all embedded pairs.
    A step must shorten the word and leave at least three letters.
    """
    def kind(key):
        if isinstance(key, Template):
            return None if limited else "add"
        if key.old == "":
            return "add"
        return "rep" if key.new != "" else None

    if len(word) < 3:
        return word, "infeasible_stop", []
    steps = []
    current = word
    while len(current) > 3:
        chosen = None
        for stage in ("add", "rep"):
            best = None
            for rule in store:
                if kind(rule.key) != stage:
                    continue
                _, sample = support_sample(rule, table, sample_cap, seed)
                sample_pairs = [rule.support[i] for i in sample]
                for w1, w2 in rule.support:
                    if w2 != current or not 3 <= len(w1) < len(current):
                        continue
                    w_sem = brute_w_sem(table, (w1, w2), sample_pairs, t_cos)
                    if w_sem <= t_w_sem:
                        continue
                    rank = (-w_sem, -rule.scores.sem, -rule.scores.orth,
                            rule.key.key_str, w1)
                    if best is None or rank < best:
                        best = rank
                        chosen = (rule.key.key_str, w1, w_sem)
            if best is not None:
                break
        if chosen is None:
            return current, "infeasible_stop", steps
        steps.append(chosen)
        current = chosen[1]
    return current, "reached_triliteral", steps
