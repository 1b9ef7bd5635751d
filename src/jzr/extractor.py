"""Iterative root extraction: repeatedly invert the best-scoring validated rule."""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import EmbeddingTable, validate_word
from .rules import MorphRule, RuleDbError, RuleStore, Thresholds, vocab_fingerprint
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
    """Extracts roots against a frozen validated rule store.

    Building one extractor indexes every support pair by its derived word,
    with the w_sem the store holds for it, and ranks each word's candidate
    steps once; extraction then only looks up the current word, which
    covers the support-membership constraint for free. No vectors are read:
    `table` only has to be the vocabulary the store was learned from.

    `thresholds.t_cos_sim`, `sample_cap` and `seed` are the store's, as it
    was scored; giving one that differs raises RuleDbError.
    """

    def __init__(self, store: RuleStore, table: EmbeddingTable,
                 thresholds: Thresholds | None = None,
                 sample_cap: int | None = None, seed: int | None = None):
        for rule in store:
            if rule.scores is None or len(rule.scores.w_sem) != len(rule.support):
                raise ValueError(
                    f"rule {rule.key.key_str} is unscored; extract against a "
                    "validated (scored and pruned) store"
                )
        actual = vocab_fingerprint(table.words)
        if store.vocab_hash and store.vocab_hash != actual:
            raise RuleDbError(
                "rule DB was learned from a different vocabulary "
                f"(db hash {store.vocab_hash[:12]}..., vectors hash {actual[:12]}...)"
            )
        given = {"t_cos_sim": None if thresholds is None else thresholds.t_cos_sim,
                 "sample_cap": sample_cap, "seed": seed}
        for name, value in given.items():
            learned = None if store.scoring is None else getattr(store.scoring, name)
            if None not in (value, learned) and value != learned:
                raise RuleDbError(
                    f"rule DB was scored with {name}={learned!r}, not {value!r}; "
                    f"leave {name} unset or re-run `jzr learn` with it"
                )
        self.store = store
        self.thresholds = thresholds or Thresholds()

        # derived word -> candidate steps (-w_sem, -sem, -orth, key text,
        # source word, step kind), best first: maximize w_sem, then break
        # ties by rule sem, orth and key text.
        t_w_sem = self.thresholds.t_w_sem
        self._steps: dict[str, list[tuple]] = {}
        for rule in store:
            kind = _step_kind(rule)
            if kind is None:
                continue
            ks, sem, orth = rule.key.key_str, rule.scores.sem, rule.scores.orth
            for (w1, w2), w_sem in zip(rule.support, rule.scores.w_sem):
                # A step must shorten the word and leave at least three letters.
                if w_sem > t_w_sem and 3 <= len(w1) < len(w2):
                    self._steps.setdefault(w2, []).append((-w_sem, -sem, -orth, ks, w1, kind))
        for steps in self._steps.values():
            steps.sort()

    def _best_step(self, word: str, kinds: tuple[str, ...]) -> TraceStep | None:
        for neg_w_sem, _, _, ks, w1, kind in self._steps.get(word, ()):
            if kind in kinds:
                return TraceStep(ks, w1, -neg_w_sem)
        return None

    def extract(self, word: str, limited: bool = False) -> ExtractionTrace:
        """Invert rules until three letters remain or no step is feasible.

        `limited` masks templates out, leaving concatenative rules only. A
        word shorter than three letters has no feasible step.
        """
        validate_word(word)
        if len(word) < 3:
            return ExtractionTrace(word, (), word, INFEASIBLE_STOP)
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
            current = step.word
        return ExtractionTrace(word, tuple(steps), current, REACHED_TRILITERAL)
