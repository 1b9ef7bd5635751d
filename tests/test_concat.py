import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_concat_rules
from jzr import concat
from jzr.concat import PREFIX, SUFFIX, ConcatRule, PairBudgetError, enumerate_concat_rules

def supports(vocab, **settings) -> dict:
    """The miner's rules as the oracle gives them: each key's support tuple."""
    return {rule.key: rule.support for rule in enumerate_concat_rules(vocab, **settings)}


small_vocab = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=7),
    min_size=1,
    max_size=30,
    unique=True,
)


class TestConcatRule:
    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            ConcatRule("prefix", "al", "al")

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            ConcatRule("infix", "a", "b")

    def test_non_canonical_prefix_rejected(self):
        # Shared trailing material belongs to the stem.
        with pytest.raises(ValueError):
            ConcatRule("prefix", "m", "alm")

    def test_non_canonical_suffix_rejected(self):
        with pytest.raises(ValueError):
            ConcatRule("suffix", "at", "an")

    # Every rule over a drawn set of short affixes on three letters: rules
    # whose unescaped key texts would collide are common.
    @given(st.sets(st.text(alphabet="a\\>", max_size=3), min_size=2, max_size=12))
    def test_distinct_rules_never_share_key_text(self, affixes):
        rules = set()
        for side, old, new in product(["prefix", "suffix"], affixes, affixes):
            try:
                rules.add(ConcatRule(side, old, new))
            except ValueError:
                pass  # identity or non-canonical
        assert len({rule.key_str for rule in rules}) == len(rules)

    def test_apply(self):
        assert ConcatRule("prefix", "", "al").apply("maktab") == "almaktab"
        assert ConcatRule("prefix", "al", "wa").apply("almaktab") == "wamaktab"
        assert ConcatRule("prefix", "al", "wa").apply("maktab") is None
        assert ConcatRule("suffix", "", "at").apply("ktb") == "ktbat"
        assert ConcatRule("suffix", "at", "u").apply("ktbat") == "ktbu"
        assert ConcatRule("suffix", "at", "u").apply("ktbu") is None


class TestEnumeration:
    def test_definite_article_pair(self):
        rules = supports(["maktab", "almaktab", "jaras", "aljaras"])
        rule = ConcatRule("prefix", "", "al")
        assert rule in rules
        assert set(rules[rule]) == {("maktab", "almaktab"), ("jaras", "aljaras")}

    def test_prefix_replacement_pair(self):
        rules = supports(["almaktab", "wamaktab"])
        rule = ConcatRule("prefix", "al", "wa")
        assert rules[rule] == (("almaktab", "wamaktab"),)

    def test_singleton_vocab_empty(self):
        assert supports(["ab"]) == {}

    def test_three_word_family_min_stem_3(self):
        # Hand case checked against the brute-force oracle: every ordered
        # pair shares only the stem "tab", so six rules with one pair each.
        got = supports(["tab", "xtab", "ytab"], min_stem=3)
        expected = {
            ConcatRule("prefix", "", "x"): (("tab", "xtab"),),
            ConcatRule("prefix", "", "y"): (("tab", "ytab"),),
            ConcatRule("prefix", "x", ""): (("xtab", "tab"),),
            ConcatRule("prefix", "y", ""): (("ytab", "tab"),),
            ConcatRule("prefix", "x", "y"): (("xtab", "ytab"),),
            ConcatRule("prefix", "y", "x"): (("ytab", "xtab"),),
        }
        assert got == expected
        assert got == brute_concat_rules(["tab", "xtab", "ytab"], min_stem=3)

    def test_max_affix_bounds_each_affix_independently(self):
        # 6-char prefix on one side, empty on the other: allowed at the limit.
        words = ["stemma", "abcdefstemma"]
        rules = supports(words, max_affix=6)
        assert ConcatRule("prefix", "", "abcdef") in rules
        assert supports(words, max_affix=5) == {}

    def test_min_stem_respected(self):
        for rule, pairs in supports(["ab", "xb", "axb"], min_stem=2).items():
            for w1, w2 in pairs:
                assert len(w1) - len(rule.old) >= 2

    def test_bad_settings_raise_before_iteration(self):
        with pytest.raises(ValueError, match="max_affix"):
            enumerate_concat_rules(["ab"], max_affix=-1)
        with pytest.raises(ValueError, match="min_stem"):
            enumerate_concat_rules(["ab"], min_stem=0)

    def test_empty_vocab(self):
        assert supports([]) == {}

    @given(small_vocab)
    def test_matches_brute_force(self, vocab):
        stream = list(enumerate_concat_rules(vocab))
        got = {rule.key: rule.support for rule in stream}
        assert len(got) == len(stream)  # no rule is yielded twice
        assert got == brute_concat_rules(vocab)
        for rule in stream:
            assert rule.scores is None and len(rule) == len(rule.support)
            assert list(rule.support) == sorted(rule.support)

    @given(small_vocab, st.data())
    def test_support_reads_as_the_oracle_tuple(self, vocab, data):
        # Each read builds the pairs afresh, so a second read must agree.
        oracle = brute_concat_rules(vocab)
        for rule in enumerate_concat_rules(vocab):
            pairs = oracle[rule.key]
            n = len(pairs)
            i = data.draw(st.integers(-n, n - 1))
            a, b = data.draw(st.integers(-n - 1, n + 1)), data.draw(st.integers(-n - 1, n + 1))
            for _ in range(2):
                view = rule.support
                assert len(view) == len(rule) == n
                assert tuple(view) == pairs
                assert view[i] == pairs[i]
                assert view[a:b] == pairs[a:b]
                assert view == pairs and pairs == view
                assert not view != pairs and not pairs != view
                assert hash(view) == hash(pairs)
                assert repr(view) == repr(pairs)

    @given(small_vocab, st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_matches_brute_force_parametrized(self, vocab, max_affix, min_stem):
        got = supports(vocab, max_affix=max_affix, min_stem=min_stem)
        assert got == brute_concat_rules(vocab, max_affix=max_affix, min_stem=min_stem)

    @given(small_vocab, st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_pair_budget_is_exact(self, vocab, max_affix, min_stem):
        # A side is mined whole when its oracle pair count is within the
        # budget, and refused before its first rule when it is one over.
        oracle = brute_concat_rules(vocab, max_affix=max_affix, min_stem=min_stem)
        sides = (PREFIX, SUFFIX)
        counts = {side: sum(len(pairs) for rule, pairs in oracle.items() if rule.side == side)
                  for side in sides}
        for budget in {counts[PREFIX], counts[SUFFIX], counts[PREFIX] - 1, counts[SUFFIX] - 1}:
            mined = sides[:next((i for i, side in enumerate(sides) if counts[side] > budget), 2)]
            got = {}
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(concat, "PAIR_BUDGET", budget)
                stream = enumerate_concat_rules(vocab, max_affix=max_affix, min_stem=min_stem)
                if mined == sides:
                    got = {rule.key: rule.support for rule in stream}
                else:
                    over = sides[len(mined)]
                    message = (f"{over} side of concatenative mining: its rules would hold "
                               f"{counts[over]:,} support pairs, over the budget of {budget:,}")
                    with pytest.raises(PairBudgetError, match=f"^{re.escape(message)}$"):
                        for rule in stream:
                            got[rule.key] = rule.support
            assert got == {rule: pairs for rule, pairs in oracle.items() if rule.side in mined}

    @given(small_vocab)
    def test_symmetry(self, vocab):
        rules = supports(vocab)
        for rule, pairs in rules.items():
            mirror = ConcatRule(rule.side, rule.new, rule.old)
            for w1, w2 in pairs:
                assert (w2, w1) in rules[mirror]

    @given(small_vocab)
    def test_pairs_reconstruct_from_rule(self, vocab):
        for rule, pairs in supports(vocab).items():
            for w1, w2 in pairs:
                assert w1 != w2
                if rule.side == "prefix":
                    stem = w1[len(rule.old):]
                    assert w1 == rule.old + stem and w2 == rule.new + stem
                else:
                    stem = w1[: len(w1) - len(rule.old)] if rule.old else w1
                    assert w1 == stem + rule.old and w2 == stem + rule.new
