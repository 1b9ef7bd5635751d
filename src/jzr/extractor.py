"""Iterative root extraction: repeatedly invert the best-scoring validated rule."""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import EmbeddingTable, InvalidWordError, validate_word
from .rules import RuleDbError, RuleKey, RuleStore, Thresholds, _order_key, vocab_fingerprint
from .templatic import Template

REACHED_TRILITERAL = "reached_triliteral"
INFEASIBLE_STOP = "infeasible_stop"


def _stage(key: RuleKey) -> int | None:
    """0 for insertions (empty deleted affix) and templates, 1 for
    replacements (both affixes non-empty), which are only the fallback.
    Pure deletions have no stage: inverting one only grows the word, so the
    length constraint could never accept it."""
    if isinstance(key, Template) or key.old == "":
        return 0
    return 1 if key.new != "" else None


@dataclass(frozen=True, slots=True)
class TraceStep:
    rule: str
    word: str
    w_sem: float


@dataclass(frozen=True, slots=True)
class ExtractionTrace:
    start: str
    steps: tuple[TraceStep, ...]
    final: str
    status: str

    def format_line(self) -> str:
        steps = ";".join(f"{s.rule}→{s.word}@{s.w_sem!r}" for s in self.steps)
        return f"{self.start}\t{self.final}\t{self.status}\t{steps}"


def _trace(word: str, steps: dict[str, TraceStep]) -> ExtractionTrace:
    """Follow `steps` from `word` until none is left. Every step shortens
    the word, so the walk ends."""
    chain, current = [], word
    while (step := steps.get(current)) is not None:
        chain.append(step)
        current = step.word
    # Steps never land below three letters, so a shorter word is an input
    # shorter than three letters, which has no feasible step.
    status = REACHED_TRILITERAL if len(current) == 3 else INFEASIBLE_STOP
    return ExtractionTrace(word, tuple(chain), current, status)


class RootExtractor:
    """Extracts roots against a frozen validated rule store.

    Building one extractor picks each derived word's one best step, from
    the w_sem the store holds for its support pairs; `limited` leaves
    templates out, so an extractor serves one mode. A step ranks by stage,
    then by w_sem, then by its rule's prune order (sem, orth, key text),
    then by source word. Following those steps from each derived word then
    gives its whole trace, built once. A vocabulary word with no step (a
    root, or under `limited` a word derived only by templates) gets its
    no-step trace then too. So `extract` is one dictionary lookup for every
    vocabulary word and every valid derived word; only an unknown word is
    checked with `validate_word` and traced per call. At 7.2k words the
    traces take about 1.6 MB (1.4 MB under `limited`). No vectors are read:
    `table` only has to be the vocabulary the store was learned from.

    `thresholds.t_cos_sim`, `sample_cap` and `seed` are the store's, as it
    was scored; giving one that differs raises RuleDbError.
    """

    def __init__(self, store: RuleStore, table: EmbeddingTable,
                 thresholds: Thresholds | None = None,
                 sample_cap: int | None = None, seed: int | None = None,
                 limited: bool = False):
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
        t_w_sem = (thresholds or Thresholds()).t_w_sem

        # Derived word -> rank (stage, -w_sem, prune order, source word, key
        # text) of its best step.
        best: dict[str, tuple] = {}
        for rule in store:
            stage = _stage(rule.key)
            if stage is None or (limited and isinstance(rule.key, Template)):
                continue
            order, key_str = _order_key(rule), rule.key.key_str
            for (w1, w2), w_sem in zip(rule.support, rule.scores.w_sem):
                # A step must shorten the word and leave at least three letters.
                if w_sem > t_w_sem and 3 <= len(w1) < len(w2):
                    rank = (stage, -w_sem, order, w1, key_str)
                    if w2 not in best or rank < best[w2]:
                        best[w2] = rank
        steps = {w2: TraceStep(key_str, w1, -neg_w_sem)
                 for w2, (_, neg_w_sem, _, w1, key_str) in best.items()}

        def known(word: str) -> bool:
            """Whether `word` may key a trace; the table checked its own words."""
            if word in table.index:
                return True
            try:
                validate_word(word)
            except InvalidWordError:
                return False
            return True

        self._traces = {w2: _trace(w2, steps) for w2 in steps if known(w2)}
        for word in table.words:
            if word not in self._traces:
                self._traces[word] = _trace(word, {})

    def extract(self, word: str) -> ExtractionTrace:
        """The trace of inverting rules until three letters remain or no
        step is feasible, as built with the extractor.

        A word shorter than three letters has no feasible step. A word the
        extractor does not know is checked first: an empty word or one with
        whitespace or a control character raises InvalidWordError.
        """
        trace = self._traces.get(word)
        # Every word with a built trace was checked at build time; any other
        # has no step.
        return trace if trace is not None else _trace(validate_word(word), {})
