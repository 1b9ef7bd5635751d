import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_templates, brute_templatic_rules
from jzr.templatic import (
    Template,
    enumerate_templatic_rules,
    extract_templates,
    parse_template,
)

AGENT = Template(("", "A", "i", ""))        # <C1>A<C2>i<C3>
PLACE = Template(("ma", "", "a", ""))       # ma<C1><C2>a<C3>

# "<" and "C" let words spell a slot marker, inside a literal or across a slot.
roots = st.text(alphabet="abc<", min_size=3, max_size=3)
derived_words = st.text(alphabet="abcd<C", min_size=4, max_size=9)


class TestTemplate:
    def test_identity_template_rejected(self):
        with pytest.raises(ValueError):
            Template(("", "", "", ""))

    @pytest.mark.parametrize("parts", [("a", "", ""), ("a", "", "", "", ""), ("a", "", 1, "")])
    def test_parts_other_than_four_strings_rejected(self, parts):
        with pytest.raises(ValueError, match="four literal strings"):
            Template(parts)

    def test_slot_marker_in_literal_rejected(self):
        with pytest.raises(ValueError):
            Template(("<C1>", "", "", "a"))

    def test_render(self):
        assert AGENT.render("ktb") == "kAtib"
        assert PLACE.render("ktb") == "maktab"

    def test_render_requires_triliteral(self):
        with pytest.raises(ValueError):
            PLACE.render("kt")

    def test_pattern_roundtrip(self):
        for t in (AGENT, PLACE, Template(("x", "y", "z", "w"))):
            assert parse_template(t.pattern) == t

    def test_pattern_text(self):
        assert PLACE.pattern == "ma<C1><C2>a<C3>"
        assert AGENT.pattern == "<C1>A<C2>i<C3>"

    def test_parse_rejects_non_templates(self):
        for bad in ["maC1C2aC3", "<C1><C3><C2>", "<C1><C2>", "<C1><C2><C3>"]:
            with pytest.raises(ValueError):
                parse_template(bad)

    @given(roots, st.lists(st.text(alphabet="xyz", max_size=3), min_size=4, max_size=4))
    def test_render_extract_roundtrip(self, root, parts):
        parts = tuple(parts)
        if not any(parts):
            return
        template = Template(parts)
        assert template in extract_templates(root, template.render(root))


class TestExtractTemplates:
    def test_agentive_form(self):
        assert AGENT in extract_templates("ktb", "kAtib")

    def test_place_form(self):
        assert PLACE in extract_templates("ktb", "maktab")

    def test_order_violation_gives_empty_set(self):
        assert extract_templates("ktb", "bkta") == set()

    def test_multi_alignment_word(self):
        # Frozen from the exhaustive alignment oracle: "ata" embeds into
        # "atata" four distinct ways.
        got = extract_templates("ata", "atata")
        assert got == brute_templates("ata", "atata")
        assert {t.pattern for t in got} == {
            "<C1><C2><C3>ta",
            "<C1><C2>at<C3>",
            "<C1>ta<C2><C3>",
            "at<C1><C2><C3>",
        }

    def test_root_must_be_triliteral(self):
        with pytest.raises(ValueError):
            extract_templates("kt", "ktab")

    @given(roots, derived_words)
    def test_matches_brute_force(self, root, derived):
        assert extract_templates(root, derived) == brute_templates(root, derived)


class TestEnumerate:
    def test_two_word_vocab(self):
        got = enumerate_templatic_rules(["ktb", "kAtib"])
        assert got[AGENT] == (("ktb", "kAtib"),)

    def test_root_only_vocab_is_empty(self):
        assert enumerate_templatic_rules(["ktb"]) == {}

    def test_shared_template_support(self):
        vocab = ["ktb", "zhb", "maktab", "mazhab"]
        got = enumerate_templatic_rules(vocab)
        assert set(got[PLACE]) == {("ktb", "maktab"), ("zhb", "mazhab")}
        # Oracle cross-check: no other template gathers two support pairs.
        oracle = brute_templatic_rules(vocab)
        assert got == oracle
        multi = [t for t, pairs in oracle.items() if len(pairs) >= 2]
        assert multi == [PLACE]

    def test_max_derived_len(self):
        vocab = ["ktb", "maktab", "maktabmaktab"]
        got = enumerate_templatic_rules(vocab, max_derived_len=6)
        assert all(len(w2) <= 6 for pairs in got.values() for _, w2 in pairs)

    def test_roots_are_vocabulary_words(self):
        got = enumerate_templatic_rules(["ktb", "maktab", "madrab"])
        # "drb" is not a vocabulary word, so "madrab" supports nothing.
        assert all(w1 == "ktb" for pairs in got.values() for w1, _ in pairs)

    def test_slot_marker_in_a_literal_is_skipped(self):
        # Root "abc" aligns with "a<Cbc" only by leaving "<C" in a literal;
        # root "<bc" aligns with it leaving "C" alone, which reads back.
        got = enumerate_templatic_rules(["abc", "<bc", "a<Cbc"])
        template = Template(("a", "C", "", ""))
        assert got == {template: (("<bc", "a<Cbc"),)}
        assert parse_template(template.pattern) == template

    @given(st.lists(st.text(alphabet="abcd<C", min_size=1, max_size=7),
                    min_size=1, max_size=25, unique=True))
    @settings(max_examples=40)
    def test_matches_brute_force(self, vocab):
        got = enumerate_templatic_rules(vocab)
        assert got == brute_templatic_rules(vocab)
        for template, pairs in got.items():
            assert type(pairs) is tuple and list(pairs) == sorted(pairs)
            assert parse_template(template.pattern) == template

    @given(st.lists(st.text(alphabet="abc", min_size=3, max_size=8),
                    min_size=1, max_size=20, unique=True))
    @settings(max_examples=40)
    def test_round_trip_invariant(self, vocab):
        for template, pairs in enumerate_templatic_rules(vocab).items():
            for root, word in pairs:
                assert len(root) == 3
                assert root in vocab
                assert template.render(root) == word
