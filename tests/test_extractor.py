from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_extract, brute_valid_word
from jzr import rules as rules_module
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
    CONCATENATIVE,
    TEMPLATIC,
    MorphRule,
    RuleDbError,
    RuleScores,
    RuleStore,
    ScoringSettings,
    Thresholds,
    load_rules,
    save_rules,
    score_rule,
    vocab_fingerprint,
)
from jzr.templatic import Template

PLACE = Template(("ma", "", "a", ""))
INSERT_WA = ConcatRule("prefix", "", "wa")
DELETE_WA = ConcatRule("prefix", "wa", "")
INSERT_IYN = ConcatRule("suffix", "", "iyn")
REPLACE_A_IYN = ConcatRule("suffix", "a", "iyn")
COUNTS = {CONCATENATIVE: 4, TEMPLATIC: 1}  # any counts a saved store may carry


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
        rules_out.append((key, tuple(sorted(support))))
    words = list(vecs)
    table = EmbeddingTable(words, np.array([vecs[w] for w in words]))
    sc = ScoringSettings(0.5, 100, 42)
    return RuleStore([MorphRule(key, support, score_rule(key, support, table, sc))
                      for key, support in rules_out], scoring=sc), table


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
        full = RootExtractor(store, table).extract("maktab")
        assert full.steps == (TraceStep(PLACE.key_str, "ktb", 0.2),)
        assert full.status == REACHED_TRILITERAL
        limited = RootExtractor(store, table, limited=True).extract("maktab")
        assert limited.steps == (TraceStep(replace_m_ma.key_str, "mktab", 1.0),)
        assert limited.status == INFEASIBLE_STOP


def assert_matches_brute_extract(store, table, limited, th=Thresholds()):
    extractor = RootExtractor(store, table, th, limited=limited)
    for word in table.words:
        trace = extractor.extract(word)
        got = (trace.final, trace.status, [(s.rule, s.word, s.w_sem) for s in trace.steps])
        assert got == brute_extract(store, table, word, th.t_cos_sim, th.t_w_sem, limited)
    return extractor


def with_sem(store, sems):
    """A copy of `store` whose rules, in the order of `sems`, take the sem
    given with their key, which moves them in prune order; supports and
    w_sem are kept."""
    rules = {rule.key: rule for rule in store}
    return RuleStore([MorphRule(key, rules[key].support,
                                replace(rules[key].scores, sem=sem)) for key, sem in sems],
                     scoring=store.scoring)


class TestRankTieBreaks:
    """The build ranks every step with one sort; these pin each tie-break."""

    SUFFIX_AT = ConcatRule("suffix", "", "at")
    SUFFIX_TABAT = ConcatRule("suffix", "", "tabat")

    @pytest.mark.parametrize("sem_at, sem_tabat, winner", [
        (1.0, 0.5, "maktab"),  # the higher sem first
        (0.5, 1.0, "mak"),
        (0.5, 0.5, "maktab"),  # then the key text: "…>at" < "…>tabat"
    ])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equal_w_sem_is_decided_by_prune_order(self, sem_at, sem_tabat, winner, reverse):
        # Both genuine, so both pairs reach "maktabat" with w_sem exactly 1.0;
        # orth is 5 for both.
        store, table = planted_world([(self.SUFFIX_AT, [("maktab", "maktabat")], True),
                                      (self.SUFFIX_TABAT, [("mak", "maktabat")], True)])
        sems = [(self.SUFFIX_AT, sem_at), (self.SUFFIX_TABAT, sem_tabat)]
        store = with_sem(store, sems[::-1] if reverse else sems)
        extractor = assert_matches_brute_extract(store, table, limited=False)
        assert extractor.extract("maktabat").steps[0][1:] == (winner, 1.0)

    @pytest.mark.parametrize("add_key", [INSERT_IYN, Template(("", "", "", "iyn"))])
    def test_stage_is_decided_before_w_sem_and_prune_order(self, add_key):
        # The replacement's w_sem (1.0) and sem (1.0) are higher, but an
        # insertion or a template whose w_sem clears t_w_sem comes first.
        store, table = planted_world([
            (add_key, [("mudarris", "mudarrisiyn")], False),
            (REPLACE_A_IYN, [("mudarrisa", "mudarrisiyn")], True),
        ])
        store = with_sem(store, [(REPLACE_A_IYN, 1.0), (add_key, 0.5)])
        extractor = assert_matches_brute_extract(store, table, limited=False)
        assert extractor.extract("mudarrisiyn").steps[0] == TraceStep(add_key.key_str,
                                                                      "mudarris", 0.2)

    def test_a_template_step_is_dropped_under_limited(self):
        # Full mode takes the template, whose w_sem (1.0) beats the
        # insertion's (0.2); limited mode has only the insertion.
        insert_ma = ConcatRule("prefix", "", "ma")
        store, table = planted_world([(PLACE, [("ktb", "maktab")], True),
                                      (insert_ma, [("ktab", "maktab")], False)])
        full = assert_matches_brute_extract(store, table, limited=False)
        assert full.extract("maktab").steps == (TraceStep(PLACE.key_str, "ktb", 1.0),)
        limited = assert_matches_brute_extract(store, table, limited=True)
        assert limited.extract("maktab").steps == (TraceStep(insert_ma.key_str, "ktab", 0.2),)
        assert limited.extract("ktab").steps == ()


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
        extractor = RootExtractor(store, table, limited=limited)
        trace = extractor.extract("waalmaktabat")
        assert (len(trace.steps), trace.final, trace.status) == (depth, final, status)
        th = Thresholds()
        for word in table.words:
            trace = extractor.extract(word)
            got = (trace.final, trace.status,
                   [(s.rule, s.word, s.w_sem) for s in trace.steps])
            assert got == brute_extract(store, table, word, th.t_cos_sim, th.t_w_sem,
                                        limited)


class TestHandBuiltChain:
    # maktabat -> "maktab " -> maktab -> ktb, one pair per rule at w_sem 1.0.
    # The second word has a space: a rule's support may name it, as a
    # hand-built store can, but it is not a word `extract` accepts.
    CHAIN = [(ConcatRule("suffix", " ", "at"), "maktab ", "maktabat"),
             (ConcatRule("suffix", "", " "), "maktab", "maktab "),
             (PLACE, "ktb", "maktab")]

    def extractor(self, chain=CHAIN, words=("maktabat", "maktab", "ktb")):
        store = RuleStore([MorphRule(key, ((w1, w2),), RuleScores(1, 1.0, False, (1.0,)))
                           for key, w1, w2 in chain])
        table = EmbeddingTable(words, np.eye(len(words)))
        return RootExtractor(store, table)

    @pytest.mark.parametrize("char", ["\u3000", "\u200c"],
                             ids=["ideographic-space", "zwnj"])
    def test_a_non_ascii_pair_word_keys_a_trace_only_if_valid(self, char):
        # U+3000 is whitespace, so its word is dropped as the space's is;
        # ZWNJ is neither, so its word keeps the trace it was built with.
        middle = f"maktab{char}"
        chain = [(ConcatRule("suffix", char, "at"), middle, "maktabat"),
                 (ConcatRule("suffix", "", char), "maktab", middle), self.CHAIN[2]]
        extractor = self.extractor(chain)
        trace = extractor.extract("maktabat")
        assert [step.word for step in trace.steps] == [middle, "maktab", "ktb"]
        if char == "\u3000":
            with pytest.raises(InvalidWordError):
                extractor.extract(middle)
        else:
            assert extractor.extract(middle) is extractor._traces[middle]
            assert extractor.extract(middle).steps == trace.steps[1:]

    def test_pair_words_are_prebuilt_and_other_words_are_not(self):
        # "ktb" has no step but is a pair word; "zzz" is in the vocabulary
        # but in no pair, and gets the same no-step trace when asked.
        extractor = self.extractor(words=("maktabat", "maktab", "ktb", "zzz"))
        assert extractor.extract("ktb") is extractor._traces["ktb"]
        assert "zzz" not in extractor._traces
        assert extractor.extract("zzz") == ExtractionTrace("zzz", (), "zzz",
                                                           REACHED_TRILITERAL)

    def test_trace_runs_through_a_word_without_a_trace(self):
        extractor = self.extractor()
        trace = extractor.extract("maktabat")
        assert trace.steps == tuple(TraceStep(key.key_str, w1, 1.0)
                                    for key, w1, _ in self.CHAIN)
        assert (trace.final, trace.status) == ("ktb", REACHED_TRILITERAL)
        with pytest.raises(InvalidWordError):
            extractor.extract("maktab ")

    @pytest.mark.parametrize("word", ["maktabat", "ktb"])
    def test_trace_is_shared_and_immutable(self, word):
        extractor = self.extractor()
        trace = extractor.extract(word)
        assert trace is extractor.extract(word)
        assert type(trace) is ExtractionTrace
        assert all(type(step) is TraceStep for step in trace.steps)
        with pytest.raises(AttributeError):
            trace.final = "xyz"
        if trace.steps:
            with pytest.raises(AttributeError):
                trace.steps[0].w_sem = 0.0
        assert trace == (word, trace.steps, trace.final, trace.status)


class TestStoredScores:
    def world(self):
        return planted_world([(INSERT_WA, [("maktab", "wamaktab")], True)])

    def test_extraction_reads_no_vectors(self):
        # A table only ties the store to its vocabulary: other vectors for
        # the same words, or no table at all, give the same traces.
        store, table = self.world()
        store.vocab_hash = vocab_fingerprint(table.words)
        rng = np.random.default_rng(3)
        other = EmbeddingTable(table.words, rng.standard_normal(table.matrix.shape))
        extractors = [RootExtractor(store, table), RootExtractor(store, other),
                      RootExtractor(store)]
        for word in table.words:
            assert len({ex.extract(word) for ex in extractors}) == 1

    def test_vocab_hash_mismatch_refused(self):
        store, table = self.world()
        store.vocab_hash = vocab_fingerprint(table.words)
        other = EmbeddingTable(table.words[1:], table.matrix[1:])
        with pytest.raises(RuleDbError, match="different vocabulary"):
            RootExtractor(store, other)

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
INVALID_KEY = ConcatRule("suffix", "", "z")  # the rule of small_stores' invalid pair
# Whitespace and control characters, each of which makes a word invalid.
BAD_CHARS = " \t\n\x00\x07\x7f\x85\u3000"


@st.composite
def small_stores(draw):
    """Random rules over a random vocabulary, supports up to 3 * SAMPLE_CAP.

    Supports ignore orthography on purpose: the extractor must follow them
    as given. Two-dimensional vectors make analogy passes, and so w_sem
    ties, common; sem and orth are drawn apart from the scored ones so that
    the sem and orth tie-breaks often disagree. The store may also end
    with a rule whose one pair's derived word is invalid and has no vector,
    with w_sem 1.0, as a hand-built store can.
    """
    words = draw(st.lists(st.text("abkt", min_size=2, max_size=7),
                          min_size=2, max_size=9, unique=True))
    pairs = [(a, b) for a in words for b in words if a != b]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = EmbeddingTable(words, rng.standard_normal((len(words), 2)))
    thresholds = Thresholds(t_cos_sim=draw(st.sampled_from([0.0, 0.3, 0.5])),
                            t_w_sem=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])))
    seed = draw(st.integers(0, 3))
    scoring = ScoringSettings(thresholds.t_cos_sim, SAMPLE_CAP, seed)
    rules = []
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=2, unique=True)):
        support = tuple(sorted(draw(st.lists(st.sampled_from(pairs), min_size=1,
                                             max_size=3 * SAMPLE_CAP, unique=True))))
        rules.append(MorphRule(key, support, replace(
            score_rule(key, support, table, scoring),
            sem=draw(st.sampled_from([0.5, 1.0])), orth=draw(st.integers(21, 23)))))
    sources = [w for w in words if len(w) >= 3]
    if sources and draw(st.booleans()):
        source = draw(st.sampled_from(sources))
        invalid_pair = (source, source + draw(st.sampled_from(BAD_CHARS)))
        rules.append(MorphRule(INVALID_KEY, (invalid_pair,), RuleScores(
            draw(st.integers(21, 23)), draw(st.sampled_from([0.5, 1.0])), False, (1.0,))))
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
        # gets the oracle's trace, which for a word with no step is its
        # no-step trace.
        store, table, th = world
        sc = store.scoring
        derived = [w2 for rule in store for _, w2 in rule.support]
        for limited in (False, True):
            extractor = RootExtractor(store, table, th, sample_cap=sc.sample_cap,
                                      seed=sc.seed, limited=limited)
            for word in dict.fromkeys(table.words + derived + others):
                if not brute_valid_word(word):
                    with pytest.raises(InvalidWordError):
                        extractor.extract(word)
                    continue
                final, status, steps = brute_extract(store, table, word, th.t_cos_sim,
                                                     th.t_w_sem, limited, sc.sample_cap,
                                                     sc.seed)
                assert extractor.extract(word) == ExtractionTrace(
                    word, tuple(TraceStep(*s) for s in steps), final, status)


class TestStoreOrder:
    @settings(max_examples=100)
    @given(small_stores())
    def test_build_does_not_depend_on_store_order(self, world):
        store, table, th = world
        reverse = RuleStore(list(store)[::-1], scoring=store.scoring)
        derived = [w2 for rule in store for _, w2 in rule.support]
        for limited in (False, True):
            forward_ex = RootExtractor(store, table, th, limited=limited)
            reverse_ex = RootExtractor(reverse, table, th, limited=limited)
            for word in dict.fromkeys(table.words + derived):
                if brute_valid_word(word):
                    assert forward_ex.extract(word) == reverse_ex.extract(word)


def savable(store, table):
    """`store` as save_rules takes it: its invalid pairs dropped, each orth
    its support size, the vocabulary hash of `table` and candidate counts."""
    rules = []
    for rule in store:
        keep = [i for i, pair in enumerate(rule.support) if all(map(brute_valid_word, pair))]
        rules.append(MorphRule(rule.key, tuple(rule.support[i] for i in keep), replace(
            rule.scores, orth=len(keep), w_sem=tuple(rule.scores.w_sem[i] for i in keep))))
    return RuleStore(rules, vocab_hash=vocab_fingerprint(table.words),
                     candidate_counts=COUNTS, scoring=store.scoring)


class TestLoadedStore:
    @settings(max_examples=60, deadline=None)
    @given(small_stores())
    def test_a_loaded_store_extracts_as_the_store_in_memory(self, tmp_path_factory, world):
        # The loaded stores keep their pairs as arrays; the one in memory
        # packs its tuples. The first load parses the text, the second
        # decodes the cache the first wrote.
        store, table, th = world
        store = savable(store, table)
        path = tmp_path_factory.mktemp("db") / "rules.db"
        save_rules(store, path)
        parsed = load_rules(path)
        with mock.patch.object(rules_module, "_parse_db",
                               side_effect=AssertionError("parsed")):
            decoded = load_rules(path)
        words = dict.fromkeys(table.words + [w2 for rule in store for _, w2 in rule.support])
        for limited in (False, True):
            expected = RootExtractor(store, table, th, limited=limited)
            for loaded in (parsed, decoded):
                extractor = RootExtractor(loaded, table, th, limited=limited)
                for word in words:
                    assert extractor.extract(word) == expected.extract(word)

    def test_the_set_up_makes_no_pair_tuple(self, tmp_path):
        # Only reading a loaded store's rules unpacks its pairs into tuples,
        # afresh on each read; loading it, counting its rules and building
        # an extractor do not. Reading them leaves the store holding the
        # arrays it was loaded with.
        store, table = planted_world([(INSERT_WA, [("maktab", "wamaktab")], True),
                                      (PLACE, [("ktb", "maktab")], True)])
        store.vocab_hash, store.candidate_counts = vocab_fingerprint(table.words), COUNTS
        path = tmp_path / "rules.db"
        save_rules(store, path)
        with mock.patch.object(rules_module, "_unpack", wraps=rules_module._unpack) as unpack:
            for _ in range(2):  # a text parse, then a cache hit
                loaded = load_rules(path)
                arrays = loaded.pair_arrays()
                assert len(loaded) == 2 and unpack.call_count == 0
                assert list(loaded) == list(store) and loaded == store
                assert unpack.call_count == 2 and loaded.pair_arrays() is arrays
                unpack.reset_mock()
                for limited in (False, True):
                    RootExtractor(loaded, table, limited=limited)
                assert unpack.call_count == 0


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

    def test_limited_stops_at_template_word(self, small_world, small_world_limited):
        config, words, _, gold, _, extractor = small_world
        template_keys = {t.key_str for t in config.templates}
        w = next(w for w in words if gold[w].chain
                 and gold[w].chain[0] in template_keys and len(gold[w].chain) == 1)
        trace = small_world_limited.extract(w)
        assert trace.status == INFEASIBLE_STOP
        assert trace.final == w
        full = extractor.extract(w)
        assert full.final == gold[w].root

    def test_limited_peels_affix_then_stalls(self, small_world, small_world_limited):
        config, words, _, gold, _, _ = small_world
        w = next(w for w in words if len(gold[w].chain) == 2)
        trace = small_world_limited.extract(w)
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
                recomputed = score_rule(rule.key, rule.support, table,
                                        validated.scoring).w_sem
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
        full = RootExtractor(concat_only, table, Thresholds())
        limited = RootExtractor(concat_only, table, Thresholds(), limited=True)
        for w in [w for w in words if gold[w].chain][:50]:
            assert full.extract(w) == limited.extract(w)

    def test_limited_matches_brute_extract(self, small_world, small_world_limited):
        _, words, table, _, validated, _ = small_world
        th, sc = Thresholds(), validated.scoring
        for w in words:
            trace = small_world_limited.extract(w)
            got = (trace.final, trace.status,
                   [(s.rule, s.word, s.w_sem) for s in trace.steps])
            assert got == brute_extract(validated, table, w, th.t_cos_sim, th.t_w_sem,
                                        True, sc.sample_cap, sc.seed)

    def test_unknown_word_is_not_stored(self, small_world):
        extractor = small_world[5]
        traces = extractor._traces
        size = len(traces)
        first, again = extractor.extract("notaword"), extractor.extract("notaword")
        assert first == again and first is not again
        assert len(traces) == size and "notaword" not in traces

    def test_rejects_invalid_word(self, small_world):
        with pytest.raises(ValueError):
            small_world[5].extract("two words")

    def test_every_vocabulary_word_is_prebuilt(self, small_world, small_world_limited):
        # A prebuilt trace comes back as the same object on every call.
        config, words, table, gold, _, extractor = small_world
        for mode in (extractor, small_world_limited):
            for w in table.words:
                assert mode.extract(w) is mode.extract(w)
        root = next(w for w in words if not gold[w].chain)
        assert extractor.extract(root) == small_world_limited.extract(root)
        template_keys = {t.key_str for t in config.templates}
        template_only = next(w for w in words if gold[w].chain
                             and all(k in template_keys for k in gold[w].chain))
        trace = small_world_limited.extract(template_only)
        assert trace.steps == ()
        assert trace is small_world_limited.extract(template_only)


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
