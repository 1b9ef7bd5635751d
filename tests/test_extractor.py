from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_extract, brute_valid_word
from jzr.concat import ConcatRule
from jzr.embeddings import EmbeddingTable, InvalidWordError
from jzr.extractor import (
    INFEASIBLE_STOP,
    REACHED_TRILITERAL,
    ExtractionTrace,
    RootExtractor,
    TraceStep,
)
from jzr.rules import (
    MorphRule,
    RuleDbError,
    RuleStore,
    ScoringSettings,
    Thresholds,
    score_rule,
)
from jzr.templatic import Template

PLACE = Template(("ma", "", "a", ""))
INSERT_WA = ConcatRule("prefix", "", "wa")
DELETE_WA = ConcatRule("prefix", "wa", "")
INSERT_IYN = ConcatRule("suffix", "", "iyn")
REPLACE_A_IYN = ConcatRule("suffix", "a", "iyn")


def planted_world(rules, n_genuine=4, dim=64, seed=0):
    """Hand-built store: each entry is (key, query pairs, genuine query?).

    Every rule gets `n_genuine` pairs that share one offset. A genuine query
    pair shares it too, so its w_sem is 1.0; any other query pair has
    unrelated vectors, so only its own diagonal passes and w_sem is
    1 / (n_genuine + 1).
    """
    rng = np.random.default_rng(seed)
    vecs: dict[str, np.ndarray] = {}
    rules_out = []
    for r, (key, queries, genuine) in enumerate(rules):
        offset = rng.standard_normal(dim)
        support = []
        for i in range(n_genuine):
            base = rng.standard_normal(dim)
            vecs[f"src{r}x{i}"], vecs[f"der{r}x{i}"] = base, base + offset
            support.append((f"src{r}x{i}", f"der{r}x{i}"))
        for w1, w2 in queries:
            vecs.setdefault(w2, rng.standard_normal(dim))
            vecs[w1] = vecs[w2] - offset if genuine else rng.standard_normal(dim)
            support.append((w1, w2))
        rules_out.append(MorphRule(key, tuple(sorted(support))))
    words = list(vecs)
    table = EmbeddingTable.from_vectors(words, np.array([vecs[w] for w in words]),
                                        normalize=False)
    store = RuleStore(rules_out)
    store.score_all(table, ScoringSettings(0.5, 100, 42), orth_gate=0)
    return store, table


class TestStepKinds:
    def test_pure_deletion_never_stepped(self):
        # The support pair is hand-made so that it shrinks the word: only the
        # kind mask, not the length rule, keeps the deletion rule out.
        pair = [("maktab", "wamaktab")]
        store, table = planted_world([(DELETE_WA, pair, True)])
        trace = RootExtractor(store, table).extract("wamaktab")
        assert trace.steps == () and trace.status == INFEASIBLE_STOP
        store, table = planted_world([(INSERT_WA, pair, True)])
        trace = RootExtractor(store, table).extract("wamaktab")
        assert trace.steps[0] == TraceStep(INSERT_WA.key_str, "maktab", 1.0)

    def test_replacement_only_when_no_add_step_clears(self):
        # The insertion's w_sem is 1/5; the replacement's is 1.0.
        store, table = planted_world([
            (INSERT_IYN, [("mudarris", "mudarrisiyn")], False),
            (REPLACE_A_IYN, [("mudarrisa", "mudarrisiyn")], True),
        ])
        word = "mudarrisiyn"
        trace = RootExtractor(store, table, Thresholds(t_w_sem=0.1)).extract(word)
        assert trace.steps[0] == TraceStep(INSERT_IYN.key_str, "mudarris", 0.2)
        trace = RootExtractor(store, table, Thresholds(t_w_sem=0.2)).extract(word)
        assert trace.steps[0] == TraceStep(REPLACE_A_IYN.key_str, "mudarrisa", 1.0)

    def test_limited_falls_back_to_replacement_where_full_takes_template(self):
        # The template's w_sem is 1/5 and the replacement's 1.0, but the
        # template's stage comes first; limited mode masks it out.
        replace_m_ma = ConcatRule("prefix", "m", "ma")
        store, table = planted_world([
            (PLACE, [("ktb", "maktab")], False),
            (replace_m_ma, [("mktab", "maktab")], True),
        ])
        extractor = RootExtractor(store, table)
        full = extractor.extract("maktab")
        assert full.steps == (TraceStep(PLACE.key_str, "ktb", 0.2),)
        assert full.status == REACHED_TRILITERAL
        limited = extractor.extract("maktab", limited=True)
        assert limited.steps == (TraceStep(replace_m_ma.key_str, "mktab", 1.0),)
        assert limited.status == INFEASIBLE_STOP


class TestStopStatus:
    def test_no_step_lands_below_three_letters(self):
        # The insertion rule for "xyz" supports (ab, xyzab) with w_sem 1.0,
        # but inverting it would leave two letters.
        store, table = planted_world([(ConcatRule("prefix", "", "xyz"),
                                       [("ab", "xyzab")], True)])
        trace = RootExtractor(store, table).extract("xyzab")
        assert (trace.steps, trace.final, trace.status) == ((), "xyzab", INFEASIBLE_STOP)

    @pytest.mark.parametrize("word", ["b", "ab"])
    def test_input_below_three_letters_is_infeasible(self, word):
        store, table = planted_world([(INSERT_WA, [("maktab", "wamaktab")], True)])
        trace = RootExtractor(store, table).extract(word)
        assert (trace.steps, trace.final, trace.status) == ((), word, INFEASIBLE_STOP)


class TestDeepChain:
    # wa+al+maktab+at: three concatenative steps, then a template, each pair
    # genuine; planted_world keeps every derived word's vector, so each
    # source word lies at one offset from the word above it.
    CHAIN = [(INSERT_WA, "almaktabat", "waalmaktabat"),
             (ConcatRule("prefix", "", "al"), "maktabat", "almaktabat"),
             (ConcatRule("suffix", "", "at"), "maktab", "maktabat"),
             (PLACE, "ktb", "maktab")]

    @pytest.mark.parametrize("limited, depth, final, status", [
        (False, 4, "ktb", REACHED_TRILITERAL),
        (True, 3, "maktab", INFEASIBLE_STOP),
    ])
    def test_matches_brute_extract(self, limited, depth, final, status):
        store, table = planted_world([(key, [(w1, w2)], True)
                                      for key, w1, w2 in self.CHAIN])
        extractor = RootExtractor(store, table)
        trace = extractor.extract("waalmaktabat", limited=limited)
        assert (len(trace.steps), trace.final, trace.status) == (depth, final, status)
        th = Thresholds()
        for word in table.words:
            trace = extractor.extract(word, limited=limited)
            got = (trace.final, trace.status,
                   [(s.rule, s.word, s.w_sem) for s in trace.steps])
            assert got == brute_extract(store, table, word, th.t_cos_sim, th.t_w_sem,
                                        limited)


class TestStoredScores:
    def world(self):
        return planted_world([(INSERT_WA, [("maktab", "wamaktab")], True)])

    def test_extraction_reads_no_vectors(self):
        store, table = self.world()
        rng = np.random.default_rng(3)
        other = EmbeddingTable.from_vectors(table.words,
                                            rng.standard_normal(table.matrix.shape))
        for word in table.words:
            assert (RootExtractor(store, other).extract(word)
                    == RootExtractor(store, table).extract(word))

    def test_settings_equal_to_the_store_are_accepted(self):
        store, table = self.world()
        RootExtractor(store, table, Thresholds(t_cos_sim=0.5), sample_cap=100, seed=42)

    @pytest.mark.parametrize("kwargs", [
        {"thresholds": Thresholds(t_cos_sim=0.3)}, {"sample_cap": 50}, {"seed": 7},
    ])
    def test_settings_other_than_the_store_are_refused(self, kwargs):
        store, table = self.world()
        with pytest.raises(RuleDbError, match="re-run `jzr learn`"):
            RootExtractor(store, table, **kwargs)

    def test_store_without_pair_scores_is_refused(self):
        store, table = self.world()
        rule = next(iter(store))
        rule.scores = replace(rule.scores, w_sem=())
        with pytest.raises(ValueError, match="unscored"):
            RootExtractor(store, table)


KEYS = (ConcatRule("prefix", "", "al"), ConcatRule("prefix", "al", ""),
        ConcatRule("prefix", "al", "wa"), ConcatRule("suffix", "", "at"),
        ConcatRule("suffix", "a", "iyn"), PLACE, Template(("", "A", "i", "")))
SAMPLE_CAP = 6
# Whitespace and control characters, each of which makes a word invalid.
BAD_CHARS = " \t\n\x00\x07\x7f\x85\u3000"


@st.composite
def small_stores(draw):
    """Random rules over a random vocabulary, supports up to 3 * SAMPLE_CAP.

    Supports ignore orthography on purpose: the extractor must follow them
    as given. Two-dimensional vectors make analogy passes, and so w_sem
    ties, common; sem and orth are drawn apart from the scored ones so that
    the sem and orth tie-breaks often disagree. The first rule's support
    may also hold a pair whose derived word is invalid and has no vector,
    with w_sem 1.0, as a hand-built store can.
    """
    words = draw(st.lists(st.text("abkt", min_size=2, max_size=7),
                          min_size=2, max_size=9, unique=True))
    pairs = [(a, b) for a in words for b in words if a != b]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = EmbeddingTable.from_vectors(words, rng.standard_normal((len(words), 2)))
    thresholds = Thresholds(t_cos_sim=draw(st.sampled_from([0.0, 0.3, 0.5])),
                            t_w_sem=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])))
    seed = draw(st.integers(0, 3))
    scoring = ScoringSettings(thresholds.t_cos_sim, SAMPLE_CAP, seed)
    sources = [w for w in words if len(w) >= 3]
    invalid_pair = None
    if sources and draw(st.booleans()):
        source = draw(st.sampled_from(sources))
        invalid_pair = (source, source + draw(st.sampled_from(BAD_CHARS)))
    rules = []
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=2, unique=True)):
        support = draw(st.lists(st.sampled_from(pairs), min_size=1,
                                max_size=3 * SAMPLE_CAP, unique=True))
        if invalid_pair and not rules:
            support.append(invalid_pair)
        rule = MorphRule(key, tuple(sorted(support)))
        scores = score_rule(rule, table, scoring)
        w_sem = [1.0 if pair == invalid_pair else s
                 for pair, s in zip(rule.support, scores.w_sem)]
        rule.scores = replace(scores, w_sem=tuple(w_sem),
                              sem=draw(st.sampled_from([0.5, 1.0])),
                              orth=draw(st.integers(21, 23)))
        rules.append(rule)
    return RuleStore(rules, scoring=scoring), table, thresholds


# Words outside the vocabulary: valid ones of three letters or more,
# shorter ones, and invalid ones (empty, or with a whitespace or control
# character).
OTHER_WORDS = st.one_of(
    st.text("abktz", min_size=3, max_size=8),
    st.text("abkt", min_size=1, max_size=2),
    st.just(""),
    st.builds(lambda head, bad, tail: head + bad + tail, st.text("abkt", max_size=3),
              st.sampled_from(BAD_CHARS), st.text("abkt", max_size=3)),
)


class TestOracle:
    @settings(max_examples=200)
    @given(small_stores(), st.lists(OTHER_WORDS, max_size=6))
    def test_extract_matches_brute_extract(self, world, others):
        # Vocabulary words, derived words (an invalid one among them) and
        # other words, in both modes: an invalid word raises, any other
        # gets the oracle's trace, which for a word with no step is
        # `_trace(word)`.
        store, table, th = world
        sc = store.scoring
        extractor = RootExtractor(store, table, th, sample_cap=sc.sample_cap, seed=sc.seed)
        derived = [w2 for rule in store for _, w2 in rule.support]
        for limited in (False, True):
            for word in dict.fromkeys(table.words + derived + others):
                if not brute_valid_word(word):
                    with pytest.raises(InvalidWordError):
                        extractor.extract(word, limited=limited)
                    continue
                final, status, steps = brute_extract(store, table, word, th.t_cos_sim,
                                                     th.t_w_sem, limited, sc.sample_cap,
                                                     sc.seed)
                assert extractor.extract(word, limited=limited) == ExtractionTrace(
                    word, tuple(TraceStep(*s) for s in steps), final, status)


class TestExtraction:
    def test_triliteral_input_is_a_no_op(self, small_world):
        _, _, _, gold, _, extractor = small_world
        root = next(w for w in gold if not gold[w].chain)
        trace = extractor.extract(root)
        assert trace.steps == ()
        assert trace.final == root
        assert trace.status == REACHED_TRILITERAL

    def test_two_step_chain_reaches_root(self, small_world):
        config, words, _, gold, _, extractor = small_world
        chain_words = [w for w in words if len(gold[w].chain) == 2]
        assert chain_words
        for w in chain_words[:40]:
            trace = extractor.extract(w)
            assert trace.status == REACHED_TRILITERAL
            assert trace.final == gold[w].root

    def test_limited_stops_at_template_word(self, small_world):
        config, words, _, gold, _, extractor = small_world
        template_keys = {t.key_str for t in config.templates}
        w = next(w for w in words if gold[w].chain
                 and gold[w].chain[0] in template_keys and len(gold[w].chain) == 1)
        trace = extractor.extract(w, limited=True)
        assert trace.status == INFEASIBLE_STOP
        assert trace.final == w
        full = extractor.extract(w)
        assert full.final == gold[w].root

    def test_limited_peels_affix_then_stalls(self, small_world):
        config, words, _, gold, _, extractor = small_world
        w = next(w for w in words if len(gold[w].chain) == 2)
        trace = extractor.extract(w, limited=True)
        assert trace.status == INFEASIBLE_STOP
        assert len(trace.steps) == 1
        assert len(trace.final) > 3

    def test_unknown_word_is_immediate_infeasible(self, small_world):
        extractor = small_world[5]
        trace = extractor.extract("notaword")
        assert trace.status == INFEASIBLE_STOP
        assert trace.steps == ()
        assert trace.final == "notaword"

    def test_affix_word_prefers_concat_rule(self, small_world):
        # Both the affix rule and its templatic twin reach the root; the
        # tie-break chain (w_sem, rule sem, orth, key) must pick the concat
        # rule, whose support is larger in a chain_depth=2 world.
        config, words, _, gold, _, extractor = small_world
        affix_keys = {a.key_str for a in config.affixes}
        w = next(w for w in words if gold[w].chain
                 and len(gold[w].chain) == 1 and gold[w].chain[0] in affix_keys)
        trace = extractor.extract(w)
        assert trace.final == gold[w].root
        assert trace.steps[0].rule == gold[w].chain[0]

    def test_every_step_satisfies_constraints(self, small_world):
        config, words, table, gold, validated, extractor = small_world
        th = Thresholds()
        for w in [w for w in words if gold[w].chain][:60]:
            trace = extractor.extract(w)
            current = w
            for step in trace.steps:
                rule = validated.get(step.rule)
                assert rule is not None
                assert not (isinstance(rule.key, ConcatRule) and rule.key.new == "")
                assert len(step.word) < len(current)
                assert (step.word, current) in rule.support
                recomputed = score_rule(rule, table, validated.scoring).w_sem
                assert recomputed[rule.support.index((step.word, current))] == step.w_sem
                assert step.w_sem > th.t_w_sem
                current = step.word
            assert trace.final == current

    def test_termination_bound(self, small_world):
        _, words, _, _, _, extractor = small_world
        rng = np.random.default_rng(99)
        letters = "bdfgklmwAhyqcva"
        for _ in range(500):
            n = int(rng.integers(3, 21))
            word = "".join(letters[i] for i in rng.integers(0, len(letters), n))
            trace = extractor.extract(word)
            assert len(trace.steps) <= max(len(word) - 3, 0)
            lengths = [len(word)] + [len(s.word) for s in trace.steps]
            assert all(a > b for a, b in zip(lengths, lengths[1:]))

    def test_determinism(self, small_world):
        _, words, table, gold, validated, _ = small_world
        ex1 = RootExtractor(validated, table, Thresholds())
        ex2 = RootExtractor(validated, table, Thresholds())
        sample = [w for w in words if gold[w].chain][:50]
        assert [ex1.extract(w) for w in sample] == [ex2.extract(w) for w in sample]

    def test_limited_equals_full_on_concat_only_store(self, small_world):
        _, words, table, gold, validated, _ = small_world
        concat_only = RuleStore(
            [r for r in validated if isinstance(r.key, ConcatRule)],
            vocab_hash=validated.vocab_hash,
        )
        extractor = RootExtractor(concat_only, table, Thresholds())
        for w in [w for w in words if gold[w].chain][:50]:
            assert extractor.extract(w) == extractor.extract(w, limited=True)

    def test_rejects_invalid_word(self, small_world):
        with pytest.raises(ValueError):
            small_world[5].extract("two words")

    def test_every_vocabulary_word_is_prebuilt(self, small_world):
        # A prebuilt trace comes back as the same object on every call.
        config, words, table, gold, _, extractor = small_world
        for limited in (False, True):
            for w in table.words:
                assert extractor.extract(w, limited=limited) is extractor.extract(
                    w, limited=limited)
        root = next(w for w in words if not gold[w].chain)
        assert extractor.extract(root) is extractor.extract(root, limited=True)
        template_keys = {t.key_str for t in config.templates}
        template_only = next(w for w in words if gold[w].chain
                             and all(k in template_keys for k in gold[w].chain))
        trace = extractor.extract(template_only, limited=True)
        assert trace.steps == ()
        assert trace is extractor.extract(template_only, limited=True)


class TestTraceFormat:
    def test_line_shape(self):
        trace = ExtractionTrace(
            "almaktab",
            (TraceStep("concat:prefix:>al", "maktab", 0.75),
             TraceStep("tmpl:ma<C1><C2>a<C3>", "ktb", 1.0)),
            "ktb",
            REACHED_TRILITERAL,
        )
        line = trace.format_line()
        assert line == (
            "almaktab\tktb\treached_triliteral\t"
            "concat:prefix:>al→maktab@0.75;tmpl:ma<C1><C2>a<C3>→ktb@1.0"
        )

    def test_zero_step_line(self):
        trace = ExtractionTrace("ktb", (), "ktb", REACHED_TRILITERAL)
        assert trace.format_line() == "ktb\tktb\treached_triliteral\t"
