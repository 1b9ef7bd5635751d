"""One-call wiring of the mine, score, prune pipeline."""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter

from .concat import ConcatRule, MinedRule, enumerate_concat_rules
from .config import Config
from .embeddings import EmbeddingTable
from .fileio import collector_paused
from .rules import (CONCATENATIVE, TEMPLATIC, MorphRule, RuleKey, RuleScores, RuleStore,
                    prune_rules, score_rule, vocab_fingerprint)
from .templatic import Template, enumerate_templatic_rules


@collector_paused()
def learn_rules(table: EmbeddingTable,
                config: Config | None = None) -> tuple[RuleStore, RuleStore]:
    """Mine candidates from the table's vocabulary and validate them.

    Returns (candidates, validated). Learn makes one pass over the mining
    stream, concatenative rules first, and counts every candidate. One
    above t_r_orth has its support read once into a tuple of pairs and gets
    `score_rule`'s scores, in a `MorphRule` kept by key; every other record
    is dropped once it is counted. The validated store is pruned from the
    scored rules alone. The candidate store keeps the scored rules, the
    counts and the table, and each read of it costs a mining pass. It reads
    the candidates in mining order: a scored key as its kept `MorphRule`,
    and one at or below t_r_orth as its record made afresh (the `MinedRule`
    it was mined as, or a templatic `MorphRule`), with sem 0.0 and no
    w_sem, in the one `RuleScores` of its orth that every read shares.
    Learn pauses the cyclic garbage collector: mining's stem index stays
    alive for a whole side, and each automatic collection would only
    re-traverse it.
    """
    cfg = config or Config()
    t_r_orth = cfg.t_r_orth
    gated = functools.cache(lambda orth: RuleScores(orth, 0.0, False))  # frozen: one per orth
    scored: dict[RuleKey, MorphRule] = {}

    def score(key: RuleKey, support: tuple) -> MorphRule:
        rule = scored[key] = MorphRule(key, support, score_rule(key, support, table, cfg))
        return rule

    def concatenative(rule: MinedRule) -> MinedRule | MorphRule:
        orth = len(rule)
        if orth <= t_r_orth:
            rule.scores = gated(orth)
            return rule
        return scored.get(rule.key) or score(rule.key, rule.support)

    def templatic(key: RuleKey, support: tuple) -> MorphRule:
        orth = len(support)
        if orth <= t_r_orth:
            return MorphRule(key, support, gated(orth))
        return scored.get(key) or score(key, support)

    def mine():  # learn's pass and every read of the candidates
        yield from map(concatenative, enumerate_concat_rules(
            table.words, max_affix=cfg.max_affix, min_stem=cfg.min_stem))
        yield from itertools.starmap(templatic, enumerate_templatic_rules(
            table.words, max_derived_len=cfg.max_derived_len).items())

    kinds = Counter(map(type, map(operator.attrgetter("key"), mine())))  # scores as it counts
    counts = {CONCATENATIVE: kinds[ConcatRule], TEMPLATIC: kinds[Template]}
    candidates = RuleStore(vocab_hash=vocab_fingerprint(table.words),
                           candidate_counts=counts, config=cfg)
    candidates._read, candidates._len = mine, kinds.total()  # mined again at each read
    scored_store = RuleStore(scored.values(), candidates.vocab_hash, counts, cfg)
    return candidates, prune_rules(scored_store, cfg.thresholds)
