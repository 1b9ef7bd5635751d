import hashlib
import re

import numpy as np
import pytest

from conftest import fail_writes_halfway
from oracles import analogy_score
from jzr.concat import PREFIX, ConcatRule
from jzr.evalharness import PredictionFormatError
from jzr.rules import ScoringSettings, score_rule
from jzr.synthlang import (
    DEFAULT_AFFIXES,
    DEFAULT_TEMPLATES,
    AlphabetTooSmallError,
    SurfaceCollisionError,
    SynthConfig,
    format_gold,
    format_vectors,
    generate,
    load_gold,
    write_fixture,
)
from jzr.templatic import Template


def planted_rules_by_key(config):
    return {rule.key_str: rule for rule in config.rules}


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = SynthConfig()
        assert len(config.templates) == 5 and len(config.affixes) == 5

    def test_rejects_replacement_affix(self):
        with pytest.raises(ValueError):
            SynthConfig(affixes=(ConcatRule(PREFIX, "al", "wa"),))

    def test_rejects_duplicate_rule_keys(self):
        with pytest.raises(ValueError):
            SynthConfig(affixes=DEFAULT_AFFIXES + (ConcatRule(PREFIX, "", "wA"),))

    @pytest.mark.parametrize("rules", [
        {"affixes": (ConcatRule(PREFIX, "", "q;c"),)},
        {"templates": (Template(("m;a", "", "a", "u")),)},
    ], ids=["affix", "template"])
    def test_rejects_the_gold_chain_separator_in_a_key(self, rules):
        # format_gold joins a chain's keys with ';', so such a key would not read back.
        with pytest.raises(ValueError, match="cannot contain ';'"):
            SynthConfig(**rules)

    def test_rejects_bad_chain_depth(self):
        with pytest.raises(ValueError):
            SynthConfig(chain_depth=3)

    def test_rejects_multi_character_alphabet_entry(self):
        with pytest.raises(ValueError, match="single code points"):
            SynthConfig(alphabet=("a", "bc", "d"))

    def test_rejects_duplicate_alphabet(self):
        with pytest.raises(ValueError):
            SynthConfig(alphabet=("a", "a", "b"))


class TestGenerate:
    def test_vocabulary_count_depth1(self):
        config = SynthConfig()
        words, table, gold = generate(config)
        # 200 roots, each deriving one word per planted rule.
        assert len(words) == 200 * 11
        assert len(table) == len(words) == len(gold)

    def test_vocabulary_count_depth2(self):
        words, _, _ = generate(SynthConfig(n_roots=10, chain_depth=2))
        # roots + 10 one-step derivations + 5*5 two-step derivations each.
        assert len(words) == 10 * (1 + 10 + 25)

    def test_roots_map_to_themselves(self):
        config = SynthConfig(n_roots=20)
        words, _, gold = generate(config)
        roots = [w for w in words if len(w) == 3]
        assert len(roots) == 20
        for root in roots:
            assert gold[root].root == root and gold[root].chain == ()

    def test_unit_norm_vectors(self):
        _, table, _ = generate(SynthConfig(n_roots=30))
        norms = np.linalg.norm(table.matrix, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-9

    def test_gold_chain_forward_application(self):
        config = SynthConfig(n_roots=40, chain_depth=2, seed=3)
        words, _, gold = generate(config)
        rules = planted_rules_by_key(config)
        for word, entry in gold.items():
            current = entry.root
            for ks in entry.chain:
                rule = rules[ks]
                current = rule.render(current) if isinstance(rule, Template) \
                    else rule.apply(current)
            assert current == word

    def test_depth2_chains_are_template_then_affix(self):
        config = SynthConfig(n_roots=5, chain_depth=2)
        _, _, gold = generate(config)
        template_keys = {t.key_str for t in config.templates}
        affix_keys = {a.key_str for a in config.affixes}
        two_step = [e for e in gold.values() if len(e.chain) == 2]
        assert len(two_step) == 5 * 25
        for entry in two_step:
            assert entry.chain[0] in template_keys
            assert entry.chain[1] in affix_keys

    def test_sigma_zero_planted_analogies_stay_high(self):
        # Renormalization after adding the offset perturbs exact parallelism
        # (the exact-arithmetic case lives in the embeddings tests), but at
        # sigma 0 every pairwise analogy stays far above the 0.5 cosine
        # threshold the scorer uses.
        config = SynthConfig(n_roots=15, noise_sigma=0.0)
        words, table, gold = generate(config)
        for rule in config.rules:
            ks = rule.key_str
            members = [(e.root, w) for w, e in gold.items() if e.chain == (ks,)]
            for (r1, d1), (r2, d2) in zip(members, members[1:]):
                assert analogy_score(table, r1, d1, r2, d2) > 0.8

    def test_sigma_zero_planted_rule_sem_is_one(self):
        config = SynthConfig(n_roots=25, noise_sigma=0.0)
        words, table, gold = generate(config)
        for rule in config.rules:
            ks = rule.key_str
            pairs = tuple(sorted(
                (e.root, w) for w, e in gold.items() if e.chain == (ks,)
            ))
            sem = score_rule(rule, pairs, table, ScoringSettings(0.5, 100, 42)).sem
            assert sem == pytest.approx(1.0, abs=1e-6)

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmallError):
            generate(SynthConfig(n_roots=30, alphabet=tuple("ab")))

    def test_surface_collision_detected(self):
        # A one-literal template and the same string as a pure prefix render
        # identically for every root.
        with pytest.raises(SurfaceCollisionError):
            generate(SynthConfig(
                n_roots=2,
                templates=(Template(("wA", "", "", "")),),
                affixes=(ConcatRule(PREFIX, "", "wA"),),
            ))

    def test_reproducible_bit_for_bit(self):
        config = SynthConfig(n_roots=30, seed=17)
        words1, table1, gold1 = generate(config)
        words2, table2, gold2 = generate(config)
        assert words1 == words2
        assert format_vectors(table1) == format_vectors(table2)
        assert format_gold(gold1) == format_gold(gold2)

    def test_different_seeds_differ(self):
        w1, _, _ = generate(SynthConfig(n_roots=10, seed=1))
        w2, _, _ = generate(SynthConfig(n_roots=10, seed=2))
        assert w1 != w2

    def test_cross_rule_pairs_score_low(self):
        # Monte-Carlo: a fake rule whose support mixes words of unrelated
        # roots and rules should almost never look semantically coherent.
        failures = 0
        for seed in range(100):
            config = SynthConfig(n_roots=12, dim=32, noise_sigma=0.0, seed=seed)
            words, table, gold = generate(config)
            derived = [w for w in words if gold[w].chain]
            rng = np.random.default_rng(seed + 1000)
            pairs = []
            while len(pairs) < 10:
                a, b = rng.choice(len(derived), size=2, replace=False)
                w1, w2 = derived[a], derived[b]
                if gold[w1].root != gold[w2].root and (w1, w2) not in pairs:
                    pairs.append((w1, w2))
            fake = ConcatRule(PREFIX, "", "zz")
            if score_rule(fake, tuple(sorted(pairs)), table,
                          ScoringSettings(0.5, 100, 42)).sem >= 0.3:
                failures += 1
        assert failures <= 1


class TestFixtureFiles:
    def test_write_fixture_round_trips(self, tmp_path):
        from jzr.embeddings import load_embeddings

        config = SynthConfig(n_roots=12, seed=9)
        vectors_path, gold_path = write_fixture(config, tmp_path / "fix")
        table = load_embeddings(vectors_path)
        words, expected_table, gold = generate(config)
        assert table.words == words
        assert np.allclose(table.matrix, expected_table.matrix, atol=1e-12)
        assert load_gold(gold_path) == gold

    def test_fixture_bytes_reproducible(self, tmp_path):
        config = SynthConfig(n_roots=12, seed=9)
        v1, g1 = write_fixture(config, tmp_path / "one")
        v2, g2 = write_fixture(config, tmp_path / "two")
        assert v1.read_bytes() == v2.read_bytes()
        assert g1.read_bytes() == g2.read_bytes()

    # sha256 of vectors.txt and gold.tsv. A change meant to keep the
    # generator's output must keep these bytes; one that moves them on purpose
    # re-pins them and says why.
    @pytest.mark.parametrize("config, vectors_sha256, gold_sha256", [
        (SynthConfig(n_roots=12, seed=9),
         "a2a68352d3ff65b9648778ab0c4f345e7b46fa1ec989aa4d90ce2278943a804e",
         "8fddd0a5b7b3edb34f7ae80215e7688f3f84653cc9b3e4fce8351db563031738"),
        (SynthConfig(n_roots=12, seed=9, chain_depth=2, noise_sigma=0.1),
         "d31f404d20125a25e53549c72961aeeef3b4df67e0361b8aa6d9277387f8e916",
         "0bf1e8e04f4eff520f8d6afa7ec30191d34529d21cd0e0f6ca2121d774c6e998"),
    ], ids=["depth1", "depth2-noisy"])
    def test_fixture_bytes_are_pinned(self, tmp_path, config, vectors_sha256, gold_sha256):
        paths = write_fixture(config, tmp_path / "fix")
        assert [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths] == [
            vectors_sha256, gold_sha256]

    @pytest.mark.parametrize("text, message", [
        ("w\tw\t\nwa\tw\n", r"line 2: needs at least 3 tab-separated fields: 'wa\\tw'$"),
        ("wa\tw\tx\nwa\tv\tx\n", "line 2: 'wa' has root 'v', but line 1 gives 'w'$"),
    ], ids=["short-line", "two-roots"])
    def test_load_gold_names_the_file_and_line_of_a_defect(self, tmp_path, text, message):
        path = tmp_path / "gold.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PredictionFormatError, match=f"^{re.escape(str(path))}: {message}"):
            load_gold(path)

    def test_failed_write_keeps_earlier_files(self, tmp_path, monkeypatch):
        out = tmp_path / "fix"
        paths = write_fixture(SynthConfig(n_roots=12, seed=9), out)
        before = [p.read_bytes() for p in paths]
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            write_fixture(SynthConfig(n_roots=12, seed=10), out)
        assert [p.read_bytes() for p in paths] == before
        assert sorted(p.name for p in out.iterdir()) == ["gold.tsv", "vectors.txt"]
