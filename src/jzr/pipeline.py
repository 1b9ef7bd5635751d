"""One-call wiring of the mine, score, prune pipeline."""

from __future__ import annotations

import functools
import itertools

from .concat import MinedRule, enumerate_concat_rules
from .config import Config
from .embeddings import EmbeddingTable
from .fileio import collector_paused
from .rules import MorphRule, RuleScores, RuleStore, prune_rules, score_rule, vocab_fingerprint
from .templatic import enumerate_templatic_rules


@collector_paused()
def learn_rules(table: EmbeddingTable,
                config: Config | None = None) -> tuple[RuleStore, RuleStore]:
    """Mine candidates from the table's vocabulary and validate them.

    Returns (candidates, validated). Each candidate is scored as it streams
    out of mining, concatenative rules first. One above t_r_orth has its
    support read once into a tuple of pairs, which its `MorphRule` keeps,
    and gets `score_rule`'s scores. One at or below it cannot be validated:
    it gets sem 0.0 and no w_sem, in one `RuleScores` per orth, and a
    concatenative one stays the `MinedRule` it was mined as, which holds no
    pair. The cyclic garbage collector is paused throughout: the candidates
    stay alive until the end, so each automatic collection would only
    re-traverse them.
    """
    cfg = config or Config()
    t_r_orth = cfg.t_r_orth
    gated = functools.cache(lambda orth: RuleScores(orth, 0.0, False))  # frozen: one per orth

    def candidate(key, support: tuple) -> MorphRule:
        orth = len(support)
        return MorphRule(key, support, gated(orth) if orth <= t_r_orth
                         else score_rule(key, support, table, cfg))

    def concatenative(rule: MinedRule) -> MinedRule | MorphRule:
        orth = len(rule)
        if orth > t_r_orth:
            return candidate(rule.key, rule.support)
        rule.scores = gated(orth)
        return rule

    mined = itertools.chain(
        map(concatenative, enumerate_concat_rules(table.words, max_affix=cfg.max_affix,
                                                  min_stem=cfg.min_stem)),
        itertools.starmap(candidate, enumerate_templatic_rules(
            table.words, max_derived_len=cfg.max_derived_len).items()))
    candidates = RuleStore(mined, vocab_fingerprint(table.words), config=cfg)
    candidates.candidate_counts = candidates.count_by_kind()
    return candidates, prune_rules(candidates, cfg.thresholds)
