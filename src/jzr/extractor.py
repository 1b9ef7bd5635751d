"""Iterative root extraction: repeatedly invert the best-scoring validated rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingTable, validate_word
from .rules import MorphRule, RuleStore, Thresholds, sample_w_sem, support_sample
from .templatic import Template

REACHED_TRILITERAL = "reached_triliteral"
INFEASIBLE_STOP = "infeasible_stop"

# Step kinds. Insertions (empty deleted affix) and templates are tried
# first; replacements (both affixes non-empty) only when neither yields a
# step. Pure deletions have no kind: inverting one only grows the word, so
# the length constraint could never accept it.
_INSERTION = "insertion"
_TEMPLATE = "template"
_REPLACEMENT = "replacement"


def _step_kind(rule: MorphRule) -> str | None:
    key = rule.key
    if isinstance(key, Template):
        return _TEMPLATE
    if key.old == "":
        return _INSERTION
    return _REPLACEMENT if key.new != "" else None


@dataclass(frozen=True)
class TraceStep:
    rule: str
    word: str
    w_sem: float


@dataclass(frozen=True)
class ExtractionTrace:
    start: str
    steps: tuple[TraceStep, ...]
    final: str
    status: str

    def format_line(self) -> str:
        steps = ";".join(f"{s.rule}→{s.word}@{s.w_sem!r}" for s in self.steps)
        return f"{self.start}\t{self.final}\t{self.status}\t{steps}"


class RootExtractor:
    """Extracts roots against a frozen validated rule store and embedding table.

    Building one extractor indexes every support pair by its derived word;
    extraction then only examines pairs whose derived side is the current
    word, which covers the support-membership constraint for free. Each
    rule's support sample is drawn once, the first time one of its pairs
    is scored.
    """

    def __init__(self, store: RuleStore, table: EmbeddingTable,
                 thresholds: Thresholds | None = None,
                 sample_cap: int = 100, seed: int = 42):
        for rule in store:
            if rule.scores is None:
                raise ValueError(
                    f"rule {rule.key.key_str} is unscored; extract against a "
                    "validated (scored and pruned) store"
                )
        self.store = store
        self.table = table
        self.thresholds = thresholds or Thresholds()
        self.sample_cap = sample_cap
        self.seed = seed

        # derived word -> (rule key text, rule, step kind, source word)
        self._by_derived: dict[str, list[tuple[str, MorphRule, str, str]]] = {}
        for rule in store:
            kind = _step_kind(rule)
            if kind is None:
                continue
            ks = rule.key.key_str
            for w1, w2 in rule.support:
                self._by_derived.setdefault(w2, []).append((ks, rule, kind, w1))

        self._samples: dict[str, np.ndarray] = {}
        self._w_sem_cache: dict[tuple[str, str, str], float] = {}

    def _w_sem(self, ks: str, rule: MorphRule, pair: tuple[str, str]) -> float:
        cache_key = (ks, pair[0], pair[1])
        cached = self._w_sem_cache.get(cache_key)
        if cached is None:
            rows = self._samples.get(ks)
            if rows is None:
                rows, _ = support_sample(rule, self.table, self.sample_cap, self.seed)
                self._samples[ks] = rows
            cached = sample_w_sem(pair, rule, rows, self.table, self.thresholds.t_cos_sim)
            self._w_sem_cache[cache_key] = cached
        return cached

    def _best_step(self, word: str, kinds: tuple[str, ...]) -> TraceStep | None:
        best = None
        best_step = None
        for ks, rule, kind, w1 in self._by_derived.get(word, ()):
            if kind not in kinds or len(w1) >= len(word):
                continue
            w_sem = self._w_sem(ks, rule, (w1, word))
            if w_sem <= self.thresholds.t_w_sem:
                continue
            scores = rule.scores
            # Maximize w_sem; break ties by rule sem, then orth, then key text.
            rank = (-w_sem, -scores.sem, -scores.orth, ks, w1)
            if best is None or rank < best:
                best = rank
                best_step = TraceStep(ks, w1, w_sem)
        return best_step

    def extract(self, word: str, limited: bool = False) -> ExtractionTrace:
        """Invert rules until three letters remain or no step is feasible.

        `limited` masks templates out, leaving concatenative rules only.
        """
        validate_word(word)
        first = (_INSERTION,) if limited else (_INSERTION, _TEMPLATE)
        steps: list[TraceStep] = []
        current = word
        while len(current) > 3:
            step = self._best_step(current, first)
            if step is None:
                step = self._best_step(current, (_REPLACEMENT,))
            if step is None:
                return ExtractionTrace(word, tuple(steps), current, INFEASIBLE_STOP)
            steps.append(step)
            assert len(step.word) < len(current)
            current = step.word
        return ExtractionTrace(word, tuple(steps), current, REACHED_TRILITERAL)
