"""One-call wiring of the mine, score, prune pipeline."""

from __future__ import annotations

from .concat import enumerate_concat_rules
from .config import Config
from .embeddings import EmbeddingTable
from .fileio import collector_paused
from .rules import RuleStore, prune_rules, vocab_fingerprint
from .templatic import enumerate_templatic_rules


@collector_paused()
def learn_rules(table: EmbeddingTable,
                config: Config | None = None) -> tuple[RuleStore, RuleStore]:
    """Mine candidates from the table's vocabulary and validate them.

    Returns (candidates, validated). The semantic score is only computed for
    rules that can clear the orthographic threshold; the rest keep sem 0.0.
    The cyclic garbage collector is paused throughout: the candidates stay
    alive until the end, so each automatic collection would only re-traverse
    them. Concatenative mining streams into the candidate store's list, so
    no map of the candidates is built.
    """
    cfg = config or Config()
    candidates = RuleStore.from_candidates(
        enumerate_concat_rules(table.words, max_affix=cfg.max_affix,
                               min_stem=cfg.min_stem),
        enumerate_templatic_rules(table.words, max_derived_len=cfg.max_derived_len),
        vocab_hash=vocab_fingerprint(table.words),
    )
    candidates.score_all(table, cfg.scoring, orth_gate=cfg.thresholds.t_r_orth)
    return candidates, prune_rules(candidates, cfg.thresholds)
