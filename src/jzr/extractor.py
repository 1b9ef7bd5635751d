"""Iterative root extraction: repeatedly invert the best-scoring validated rule."""

from __future__ import annotations

from typing import NamedTuple

from .embeddings import EmbeddingTable, InvalidWordError, validate_word
from .fileio import collector_paused
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


class TraceStep(NamedTuple):
    rule: str
    word: str
    w_sem: float


class ExtractionTrace(NamedTuple):
    start: str
    steps: tuple[TraceStep, ...]
    final: str
    status: str

    def format_line(self) -> str:
        steps = ";".join(f"{s.rule}→{s.word}@{s.w_sem!r}" for s in self.steps)
        return f"{self.start}\t{self.final}\t{self.status}\t{steps}"


def _status(final: str) -> str:
    """How a trace that ends at `final` stopped. Steps never land below three
    letters, so a shorter `final` is an input with no feasible step."""
    return REACHED_TRILITERAL if len(final) == 3 else INFEASIBLE_STOP


class _Traces(dict):
    """Word -> trace; an unknown word is checked and given its no-step trace,
    which is not stored, so memory does not grow with the words asked."""

    __slots__ = ()

    def __missing__(self, word: str) -> ExtractionTrace:
        return ExtractionTrace(validate_word(word), (), word, _status(word))


class RootExtractor:
    """Extracts roots against a frozen validated rule store.

    Building one extractor picks each derived word's one best step, from
    the w_sem the store holds for its support pairs; `limited` leaves
    templates out, so an extractor serves one mode. A step ranks by stage,
    then by w_sem, then by its rule's prune order (sem, orth, key text),
    then by source word. Each derived word's trace, built once, is its step
    and then its source word's trace; a vocabulary word with no step (a
    root, or under `limited` a word derived only by templates) gets its
    no-step trace then too. Traces and steps are NamedTuples: a trace
    compares equal to a plain tuple. At 7.2k words the traces take about
    1.8 MB (1.6 MB under `limited`). No vectors are read: `table` only has
    to be the vocabulary the store was learned from. The build runs with
    the cyclic garbage collector paused.

    `thresholds.t_cos_sim`, `sample_cap` and `seed` are the store's, as it
    was scored; giving one that differs raises RuleDbError.
    """

    @collector_paused()
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
        # Every step shortens the word, so in order of length each derived
        # word's source word has its trace already, if it has a step at all.
        # tuple.__new__ skips the NamedTuples' Python-level __new__: 3x as fast.
        traces: dict[str, ExtractionTrace] = {}
        for w2 in sorted(best, key=len):
            _, neg_w_sem, _, w1, key_str = best[w2]
            step = tuple.__new__(TraceStep, (key_str, w1, -neg_w_sem))
            tail = traces.get(w1)
            steps, final = ((step,), w1) if tail is None else ((step,) + tail.steps, tail.final)
            traces[w2] = tuple.__new__(ExtractionTrace, (w2, steps, final, _status(final)))

        def valid(word: str) -> bool:
            try:
                validate_word(word)
            except InvalidWordError:
                return False
            return True

        # Only a valid word keys a trace; the table checked its own words.
        self._traces = _Traces((w2, trace) for w2, trace in traces.items()
                               if w2 in table.index or valid(w2))
        for word in table.words:
            if word not in self._traces:
                self._traces[word] = ExtractionTrace(word, (), word, _status(word))

    def extract(self, word: str) -> ExtractionTrace:
        """The trace of inverting rules until three letters remain or no
        step is feasible, as built with the extractor.

        A word shorter than three letters has no feasible step. A word the
        extractor does not know is checked first: an empty word or one with
        whitespace or a control character raises InvalidWordError.
        """
        return self._traces[word]
