import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_extract
from jzr.concat import ConcatRule
from jzr.embeddings import EmbeddingTable
from jzr.extractor import (
    INFEASIBLE_STOP,
    REACHED_TRILITERAL,
    ExtractionTrace,
    RootExtractor,
    TraceStep,
)
from jzr.rules import (
    MorphRule,
    RuleScores,
    RuleStore,
    Thresholds,
    score_w_sem,
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
    store = []
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
        support.sort()
        store.append(MorphRule(key, tuple(support), RuleScores(len(support), 1.0, False)))
    words = list(vecs)
    table = EmbeddingTable.from_vectors(words, np.array([vecs[w] for w in words]),
                                        normalize=False)
    return RuleStore(store), table


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


KEYS = (ConcatRule("prefix", "", "al"), ConcatRule("prefix", "al", ""),
        ConcatRule("prefix", "al", "wa"), ConcatRule("suffix", "", "at"),
        ConcatRule("suffix", "a", "iyn"), PLACE, Template(("", "A", "i", "")))
SAMPLE_CAP = 6


@st.composite
def small_stores(draw):
    """Random rules over a random vocabulary, every support within SAMPLE_CAP.

    Supports ignore orthography on purpose: the extractor must follow them
    as given. Two-dimensional vectors make analogy passes, and so w_sem
    ties, common; orth is drawn apart from the support size so that the
    sem and orth tie-breaks often disagree.
    """
    words = draw(st.lists(st.text("abkt", min_size=2, max_size=7),
                          min_size=2, max_size=8, unique=True))
    pairs = [(a, b) for a in words for b in words if a != b]
    rules = []
    for key in draw(st.lists(st.sampled_from(KEYS), min_size=2, unique=True)):
        support = draw(st.lists(st.sampled_from(pairs), min_size=1,
                                max_size=SAMPLE_CAP, unique=True))
        sem = draw(st.sampled_from([0.5, 1.0]))
        orth = draw(st.integers(21, 23))
        rules.append(MorphRule(key, tuple(sorted(support)), RuleScores(orth, sem, False)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = EmbeddingTable.from_vectors(words, rng.standard_normal((len(words), 2)))
    thresholds = Thresholds(t_cos_sim=draw(st.sampled_from([0.0, 0.3, 0.5])),
                            t_w_sem=draw(st.sampled_from([0.0, 0.1, 0.3, 0.5])))
    return RuleStore(rules), table, thresholds


class TestOracle:
    @settings(max_examples=200)
    @given(small_stores(), st.booleans())
    def test_extract_matches_brute_extract(self, world, limited):
        store, table, th = world
        extractor = RootExtractor(store, table, th, sample_cap=SAMPLE_CAP)
        for word in table.words + ["zzzz"]:
            trace = extractor.extract(word, limited=limited)
            got = (trace.final, trace.status,
                   [(s.rule, s.word, s.w_sem) for s in trace.steps])
            assert got == brute_extract(store, table, word, th.t_cos_sim,
                                        th.t_w_sem, limited=limited)


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
                recomputed = score_w_sem((step.word, current), rule, table,
                                         t_cos=th.t_cos_sim)
                assert recomputed == step.w_sem
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
