"""One-call wiring of the mine, score, prune pipeline."""

from __future__ import annotations

import functools
import itertools

from .concat import enumerate_concat_rules
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
    support read once into a tuple of pairs, which it keeps, and gets
    `score_rule`'s scores. One at or below it cannot be validated: it keeps
    the support as mined, a concatenative rule's a `SupportView` that holds
    no pair, with sem 0.0 and no w_sem. The cyclic garbage collector is
    paused throughout: the candidates stay alive until the end, so each
    automatic collection would only re-traverse them.
    """
    cfg = config or Config()
    t_r_orth = cfg.t_r_orth
    gated = functools.cache(lambda orth: RuleScores(orth, 0.0, False))  # frozen: one per orth

    def candidate(key, support) -> MorphRule:
        orth = len(support)
        if orth <= t_r_orth:
            return MorphRule(key, support, gated(orth))
        support = tuple(support)
        return MorphRule(key, support, score_rule(key, support, table, cfg))

    mined = itertools.chain(
        enumerate_concat_rules(table.words, max_affix=cfg.max_affix, min_stem=cfg.min_stem),
        enumerate_templatic_rules(table.words, max_derived_len=cfg.max_derived_len).items())
    candidates = RuleStore(itertools.starmap(candidate, mined), vocab_fingerprint(table.words),
                           config=cfg)
    candidates.candidate_counts = candidates.count_by_kind()
    return candidates, prune_rules(candidates, cfg.thresholds)
