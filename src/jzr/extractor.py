"""Iterative root extraction: repeatedly invert the best-scoring validated rule."""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .embeddings import EmbeddingTable, validate_word, words_valid
from .fileio import collector_paused
from .rules import RuleDbError, RuleKey, RuleStore, Thresholds, _order_key, vocab_fingerprint
from .templatic import Template

REACHED_TRILITERAL = "reached_triliteral"
INFEASIBLE_STOP = "infeasible_stop"


def _stage(key: RuleKey, limited: bool) -> int:
    """0 for insertions (empty deleted affix) and templates, 1 for
    replacements (both affixes non-empty), which are only the fallback,
    and -1 for no stage. Pure deletions have none: inverting one only grows
    the word, so the length constraint could never accept it. Nor do
    templates under `limited`."""
    if isinstance(key, Template):
        return -1 if limited else 0
    if key.old == "":
        return 0
    return 1 if key.new != "" else -1


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


class RootExtractor:
    """Extracts roots against a frozen validated rule store.

    Building one extractor picks each derived word's one best step, from
    the w_sem the store holds for its support pairs; `limited` leaves
    templates out, so an extractor serves one mode. A step ranks by stage,
    then by w_sem, then by its rule's prune order (sem, orth, key text),
    then by source word: one `np.lexsort` over the store's `pair_arrays`
    ranks them all, so no Python object is made per pair, and a loaded
    store makes no pair tuple. Each derived word's trace, built once, is
    its step and then its source word's trace; a pair word with no step (a
    root, or under `limited` a word derived only by templates) gets its
    no-step trace then too, any other word when asked for, and a pair word
    that `words_valid` refuses none. Traces and steps are NamedTuples: a
    trace compares equal to a plain tuple. At 7.2k words the traces take
    about 1.8 MB (1.6 MB under `limited`). The build reads the store
    alone and runs with the cyclic garbage collector paused.

    `table` is optional and changes no trace: when given, its words'
    `vocab_fingerprint` must equal the store's `vocab_hash` (if it has
    one), or RuleDbError is raised. Of `thresholds`, only `t_w_sem` is
    read. `thresholds.t_cos_sim`, `sample_cap` and `seed` change no trace
    either, since the store holds every w_sem already scored with them;
    giving one that differs from the store's raises RuleDbError.
    """

    @collector_paused()
    def __init__(self, store: RuleStore, table: EmbeddingTable | None = None,
                 thresholds: Thresholds | None = None,
                 sample_cap: int | None = None, seed: int | None = None,
                 limited: bool = False):
        arrays = store.pair_arrays()
        if table is not None and store.vocab_hash:
            actual = vocab_fingerprint(table.words)
            if store.vocab_hash != actual:
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

        rules, words, w1, w2, w_sem, ends = arrays
        # Per rule: its stage and its position in prune order.
        stage = np.array([_stage(key, limited) for key, _ in rules], np.int64)
        prune_order = sorted(range(len(rules)), key=lambda r: _order_key(*rules[r]))
        position = np.empty(len(rules), np.int64)
        position[prune_order] = np.arange(len(rules))
        rule = np.repeat(np.arange(len(rules)), np.diff(ends, prepend=0))
        # A step must shorten the word and leave at least three letters.
        length = np.fromiter(map(len, words), np.int64, len(words))
        len1 = length[w1]
        (kept,) = np.nonzero((w_sem > t_w_sem) & (stage[rule] >= 0)
                             & (3 <= len1) & (len1 < length[w2]))
        # Rank each derived word's steps by stage, then w_sem, then prune
        # order, then source word (ids are in string order); its first is best.
        ranked = kept[np.lexsort((w1[kept], position[rule[kept]], -w_sem[kept],
                                  stage[rule[kept]], w2[kept]))]
        best = ranked[np.diff(w2[ranked], prepend=-1) != 0]
        # Every step shortens the word, so in order of length each derived
        # word's source word has its trace already, if it has a step at all.
        best = best[np.argsort(length[w2[best]], kind="stable")]
        key_strs = [key.key_str for key, _ in rules]
        sources = list(map(words.__getitem__, w1[best].tolist()))
        # tuple.__new__ skips the NamedTuples' Python-level __new__: 3x as fast.
        steps = map(tuple.__new__, itertools.repeat(TraceStep),
                    zip(map(key_strs.__getitem__, rule[best].tolist()), sources,
                        w_sem[best].tolist()))
        self._traces = traces = {}
        for word, source, step in zip(map(words.__getitem__, w2[best].tolist()),
                                      sources, steps):
            tail = traces.get(source)
            if tail is None:
                fields = (word, (step,), source, _status(source))
            else:
                fields = (word, (step,) + tail.steps, tail.final, tail.status)
            traces[word] = tuple.__new__(ExtractionTrace, fields)
        for word in itertools.filterfalse(traces.__contains__, words):
            traces[word] = ExtractionTrace(word, (), word, _status(word))
        if not words_valid(words):  # a hand-built store may name invalid words
            for word in [w for w in traces if not words_valid((w,))]:
                del traces[word]

    def extract(self, word: str) -> ExtractionTrace:
        """The trace of inverting rules until three letters remain or no
        step is feasible, as built with the extractor.

        A word the build traced is one dict lookup. Any other word has no
        step: it is checked (an empty word or one with whitespace or a
        control character raises InvalidWordError) and given its no-step
        trace, which is not stored, so memory does not grow with the words
        asked. A word shorter than three letters has no feasible step.
        """
        try:
            return self._traces[word]
        except KeyError:
            return ExtractionTrace(validate_word(word), (), word, _status(word))
