"""Brute-force reference implementations the real code is checked against.

Everything here favors obviousness over speed: all-pairs scans, no indexing,
no vectorization. Keep it that way; the whole point is independence from the
implementation under test. One piece is borrowed: `support_sample`, which
only names the seeded sample a score is taken over.
"""

from __future__ import annotations

import itertools
import math
import unicodedata

import numpy as np

from jzr.concat import ConcatRule
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
    """All-pairs enumeration of canonical edge rules: the paper's definition.

    For each ordered pair the canonical stem is the longest shared run on
    the stem side, which is where the one-rule-per-pair-per-side guarantee
    comes from. So a side's support pairs, summed over its rules, are the
    ordered word pairs with a canonical stem on that side; that sum is what
    `concat.PAIR_BUDGET` bounds. Nothing is skipped.
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


def analogy_score(table, w1: str, w2: str, w3: str, w4: str) -> float:
    """cos(v_w4, v_w2 - v_w1 + v_w3): how well (w3, w4) mirrors the offset of (w1, w2).

    Either vector with a norm of at most 1e-12 makes the cosine 0.0. A norm
    is the square root of the summed squares; a norm taken through `dot`
    can round one ulp apart and so land on the other side of the guard.
    """
    v1, v2, v3, v4 = (table.matrix[table.index[w]] for w in (w1, w2, w3, w4))
    target = v2 - v1 + v3
    target_norm = math.sqrt(np.sum(target * target))
    query_norm = math.sqrt(np.sum(v4 * v4))
    if target_norm <= 1e-12 or query_norm <= 1e-12:
        return 0.0
    return float(v4.dot(target) / (query_norm * target_norm))


def brute_r_sem(table, pairs, t_cos: float) -> float:
    """Ordered pair-of-pairs loop over analogy_score."""
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


def brute_learn(table, config):
    """The validated rules `learn_rules` must return, and the candidate counts.

    Mines the vocabulary with the brute enumerators; scores every rule
    whose support is larger than `t_r_orth` over its seeded sample, sem
    with `brute_r_sem` and each support pair's w_sem with `brute_w_sem`;
    keeps those whose sem is above `t_r_sem` too, ordered by descending
    sem, then descending orth, then key text. Each rule is (key, support,
    orth, sem, sampled, w_sem).
    """
    th = config.thresholds
    words = list(table.words)
    mined = (brute_concat_rules(words, config.max_affix, config.min_stem),
             brute_templatic_rules(words, config.max_derived_len))
    rules = []
    for key, support in itertools.chain(*(m.items() for m in mined)):
        orth = len(support)
        if orth <= th.t_r_orth:
            continue
        sample = support_sample(key, orth, config.sample_cap, config.seed)
        sample_pairs = [support[i] for i in sample]
        sem = brute_r_sem(table, sample_pairs, config.t_cos_sim)
        if sem <= th.t_r_sem:
            continue
        w_sem = tuple(brute_w_sem(table, pair, sample_pairs, config.t_cos_sim)
                      for pair in support)
        rules.append((key, support, orth, sem, len(sample) < orth, w_sem))
    rules.sort(key=lambda rule: (-rule[3], -rule[2], rule[0].key_str))
    return rules, {"concatenative": len(mined[0]), "templatic": len(mined[1])}


def tensor_count_passes(w1, w2, offsets, t_cos: float):
    """Per query q, the offsets o with cos(o + w1[q], w2[q]) > t_cos, by the definition.

    Forms every target o + w1[q] as one q×n×d tensor and takes each norm
    from its summed squares; a norm of at most 1e-12 makes the cosine 0.0.
    """
    targets = offsets[None, :, :] + w1[:, None, :]
    dots = np.einsum("qid,qd->qi", targets, w2)
    target_norms = np.linalg.norm(targets, axis=2)
    query_norms = np.linalg.norm(w2, axis=1)[:, None]
    ok = (target_norms > 1e-12) & (query_norms > 1e-12)
    cos = np.divide(dots, target_norms * query_norms, out=np.zeros_like(dots), where=ok)
    return np.count_nonzero(cos > t_cos, axis=1)


def brute_extract(store, table, word, t_cos: float, t_w_sem: float,
                  limited: bool = False, sample_cap: int = 100, seed: int = 42):
    """Root extraction by plain loops over every rule's whole support.

    Returns (final, status, steps), each step as (rule key text, word, w_sem).
    w_sem is brute_w_sem against the rule's support sample: the pairs that
    `support_sample` draws, which below `sample_cap` are all the pairs.
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
    kinds = [(kind(rule.key), rule) for rule in store]
    steps = []
    current = word
    while len(current) > 3:
        chosen = None
        for stage in ("add", "rep"):
            best = None
            for rule_kind, rule in kinds:
                if rule_kind != stage:
                    continue
                sample_pairs = None  # drawn at the rule's first candidate pair
                for w1, w2 in rule.support:
                    if w2 != current or not 3 <= len(w1) < len(current):
                        continue
                    if sample_pairs is None:
                        sample = support_sample(rule.key, len(rule.support), sample_cap,
                                                seed)
                        sample_pairs = [rule.support[i] for i in sample]
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
