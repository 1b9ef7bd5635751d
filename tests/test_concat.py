import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_concat_rules
from jzr import concat
from jzr.concat import (
    ConcatRule,
    StemGroupOverflowWarning,
    enumerate_concat_rules,
)

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

    def test_apply(self):
        assert ConcatRule("prefix", "", "al").apply("maktab") == "almaktab"
        assert ConcatRule("prefix", "al", "wa").apply("almaktab") == "wamaktab"
        assert ConcatRule("prefix", "al", "wa").apply("maktab") is None
        assert ConcatRule("suffix", "", "at").apply("ktb") == "ktbat"
        assert ConcatRule("suffix", "at", "u").apply("ktbat") == "ktbu"


class TestEnumeration:
    def test_definite_article_pair(self):
        rules = enumerate_concat_rules(["maktab", "almaktab", "jaras", "aljaras"])
        rule = ConcatRule("prefix", "", "al")
        assert rule in rules
        assert set(rules[rule]) == {("maktab", "almaktab"), ("jaras", "aljaras")}

    def test_prefix_replacement_pair(self):
        rules = enumerate_concat_rules(["almaktab", "wamaktab"])
        rule = ConcatRule("prefix", "al", "wa")
        assert rules[rule] == (("almaktab", "wamaktab"),)

    def test_singleton_vocab_empty(self):
        assert enumerate_concat_rules(["ab"]) == {}

    def test_three_word_family_min_stem_3(self):
        # Hand case checked against the brute-force oracle: every ordered
        # pair shares only the stem "tab", so six rules with one pair each.
        got = enumerate_concat_rules(["tab", "xtab", "ytab"], min_stem=3)
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
        rules = enumerate_concat_rules(words, max_affix=6)
        assert ConcatRule("prefix", "", "abcdef") in rules
        assert enumerate_concat_rules(words, max_affix=5) == {}

    def test_min_stem_respected(self):
        for rule, pairs in enumerate_concat_rules(["ab", "xb", "axb"], min_stem=2).items():
            for w1, w2 in pairs:
                assert len(w1) - len(rule.old) >= 2

    def test_empty_vocab(self):
        assert enumerate_concat_rules([]) == {}

    def test_group_cap_skips_with_warning(self, monkeypatch):
        words = [c + "stem" for c in "abcdefgh"]
        monkeypatch.setattr(concat, "GROUP_CAP", 3)
        with pytest.warns(StemGroupOverflowWarning):
            rules = enumerate_concat_rules(words)
        # The shared "stem" bucket was dropped; distinct-prefix pairs with
        # shorter shared stems remain.
        assert ConcatRule("prefix", "a", "b") not in rules

    @given(small_vocab)
    def test_matches_brute_force(self, vocab):
        got = enumerate_concat_rules(vocab)
        assert got == brute_concat_rules(vocab)
        for pairs in got.values():
            assert type(pairs) is tuple and list(pairs) == sorted(pairs)

    @given(small_vocab, st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=40)
    def test_matches_brute_force_parametrized(self, vocab, max_affix, min_stem):
        got = enumerate_concat_rules(vocab, max_affix=max_affix, min_stem=min_stem)
        assert got == brute_concat_rules(vocab, max_affix=max_affix, min_stem=min_stem)

    @given(small_vocab)
    def test_symmetry(self, vocab):
        rules = enumerate_concat_rules(vocab)
        for rule, pairs in rules.items():
            mirror = ConcatRule(rule.side, rule.new, rule.old)
            for w1, w2 in pairs:
                assert (w2, w1) in rules[mirror]

    @given(small_vocab)
    def test_pairs_reconstruct_from_rule(self, vocab):
        for rule, pairs in enumerate_concat_rules(vocab).items():
            for w1, w2 in pairs:
                assert w1 != w2
                if rule.side == "prefix":
                    stem = w1[len(rule.old):]
                    assert w1 == rule.old + stem and w2 == rule.new + stem
                else:
                    stem = w1[: len(w1) - len(rule.old)] if rule.old else w1
                    assert w1 == stem + rule.old and w2 == stem + rule.new
