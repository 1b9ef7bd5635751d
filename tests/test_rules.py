import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_table
from oracles import brute_r_sem, brute_w_sem
from jzr.concat import ConcatRule
from jzr.embeddings import EmbeddingTable
from jzr.rules import (
    EmptySupportWarning,
    MorphRule,
    PairNotInSupportError,
    RuleScores,
    RuleStore,
    Thresholds,
    load_rules,
    prune_rules,
    rank_rules,
    save_rules,
    score_r_sem,
    score_w_sem,
    vocab_fingerprint,
)
from jzr.templatic import Template


def offset_rule(n_pairs, dim=32, seed=0, noise=0.0, normalize=False):
    """Planted rule: every derived vector is its root vector plus one offset."""
    rng = np.random.default_rng(seed)
    offset = rng.standard_normal(dim)
    offset /= np.linalg.norm(offset)
    words, vecs, pairs = [], [], []
    for i in range(n_pairs):
        base = rng.standard_normal(dim)
        eps = rng.standard_normal(dim) * noise
        words += [f"r{i}", f"d{i}"]
        vecs += [base, base + offset + eps]
        pairs.append((f"r{i}", f"d{i}"))
    table = EmbeddingTable.from_vectors(words, np.array(vecs), normalize=normalize)
    rule = MorphRule(ConcatRule("prefix", "", "x"), tuple(sorted(pairs)))
    return rule, table


def random_rule(n_pairs, dim=64, seed=0):
    table = random_table(2 * n_pairs, dim, seed=seed)
    pairs = tuple((f"w{2 * i}", f"w{2 * i + 1}") for i in range(n_pairs))
    return MorphRule(ConcatRule("prefix", "", "x"), pairs), table


class TestThresholds:
    def test_defaults(self):
        th = Thresholds()
        assert (th.t_cos_sim, th.t_r_sem, th.t_r_orth, th.t_w_sem) == (0.5, 0.1, 20, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"t_cos_sim": 1.0}, {"t_cos_sim": -1.0}, {"t_r_sem": 1.5},
        {"t_w_sem": -0.1}, {"t_r_orth": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Thresholds(**kwargs)


class TestScoreRSem:
    def test_singleton_support_scores_one(self):
        rule, table = random_rule(1, seed=5)
        assert score_r_sem(rule, table, t_cos=0.99) == 1.0

    def test_offset_planted_scores_one(self):
        rule, table = offset_rule(10, seed=8)
        assert score_r_sem(rule, table) == pytest.approx(1.0, abs=1e-6)

    def test_random_support_only_diagonal_passes(self):
        rule, table = random_rule(5, seed=23)
        assert score_r_sem(rule, table, t_cos=0.5) == 0.2

    def test_diagonal_lower_bound(self):
        for seed in range(5):
            rule, table = random_rule(7, seed=seed)
            assert score_r_sem(rule, table, t_cos=0.9) >= 1 / 7

    def test_empty_support_flagged(self):
        rule, _ = random_rule(3, seed=1)
        other = random_table(4, 8, seed=2, prefix="v")
        with pytest.warns(EmptySupportWarning):
            assert score_r_sem(rule, other) == 0.0

    def test_missing_words_dropped_not_fatal(self):
        rule, table = offset_rule(4, seed=3)
        bigger = MorphRule(rule.key, rule.support + (("nope", "alsonope"),))
        assert score_r_sem(bigger, table) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_matches_brute_force_exactly(self, n):
        rule, table = random_rule(n, seed=100 + n)
        assert score_r_sem(rule, table, t_cos=0.5) == brute_r_sem(table, rule.support, 0.5)

    def test_sampling_deterministic(self):
        rule, table = offset_rule(150, seed=4)
        a = score_r_sem(rule, table, sample_cap=50)
        b = score_r_sem(rule, table, sample_cap=50)
        assert a == b

    def test_sampling_identity_below_cap(self):
        rule, table = random_rule(10, seed=6)
        assert score_r_sem(rule, table, sample_cap=10) == score_r_sem(
            rule, table, sample_cap=10_000
        )


class TestScoreWSem:
    def test_singleton_support(self):
        rule, table = random_rule(1, seed=9)
        assert score_w_sem(rule.support[0], rule, table, t_cos=0.99) == 1.0

    def test_offset_planted_genuine_pair(self):
        rule, table = offset_rule(10, seed=11)
        assert score_w_sem(rule.support[0], rule, table) == pytest.approx(1.0, abs=1e-6)

    def test_mis_planted_pair_scores_low(self):
        # 20 genuine offset pairs plus one unrelated pair: only its own
        # diagonal term passes, giving 1/21.
        rng = np.random.default_rng(31)
        dim = 64
        offset = rng.standard_normal(dim)
        offset /= np.linalg.norm(offset)
        words, vecs, pairs = [], [], []
        for i in range(20):
            base = rng.standard_normal(dim)
            words += [f"r{i}", f"d{i}"]
            vecs += [base, base + offset]
            pairs.append((f"r{i}", f"d{i}"))
        words += ["zhb", "mazhab"]
        vecs += [rng.standard_normal(dim), rng.standard_normal(dim)]
        pairs.append(("zhb", "mazhab"))
        table = EmbeddingTable.from_vectors(words, np.array(vecs), normalize=False)
        rule = MorphRule(ConcatRule("prefix", "", "ma"), tuple(sorted(pairs)))
        assert score_w_sem(("r0", "d0"), rule, table) == pytest.approx(1.0, abs=1e-6)
        mis = score_w_sem(("zhb", "mazhab"), rule, table)
        assert mis == 1 / 21
        assert mis < 0.3

    def test_pair_not_in_support(self):
        rule, table = random_rule(3, seed=13)
        with pytest.raises(PairNotInSupportError):
            score_w_sem(("w0", "w3"), rule, table)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_matches_brute_force_exactly(self, n):
        rule, table = random_rule(n, seed=200 + n)
        for pair in rule.support:
            got = score_w_sem(pair, rule, table, t_cos=0.5)
            assert got == brute_w_sem(table, pair, rule.support, 0.5)

    def test_mean_w_sem_equals_r_sem(self):
        # Row means of the shared indicator matrix recover the full mean.
        for seed in (3, 17, 51):
            rule, table = random_rule(6, dim=16, seed=seed)
            n = len(rule.support)
            total = 0
            for pair in rule.support:
                w = score_w_sem(pair, rule, table, t_cos=0.35)
                total += round(w * n)
            assert total / (n * n) == score_r_sem(rule, table, t_cos=0.35)


class TestStoreAndPrune:
    def build_store(self, rules):
        return RuleStore(rules)

    def scored(self, key, orth, sem):
        pairs = tuple((f"a{i}", f"b{i}") for i in range(orth))
        return MorphRule(key, pairs, RuleScores(orth, sem, False))

    def test_prune_strict_orth_boundary(self):
        rule = self.scored(ConcatRule("prefix", "", "x"), 20, 0.9)
        store = self.build_store([rule])
        assert len(prune_rules(store, Thresholds(t_r_orth=20))) == 0

    def test_prune_strict_sem_boundary(self):
        rule = self.scored(ConcatRule("prefix", "", "x"), 30, 0.1)
        store = self.build_store([rule])
        assert len(prune_rules(store, Thresholds(t_r_sem=0.1))) == 0

    def test_prune_keeps_dominating_rule(self):
        rule = self.scored(ConcatRule("prefix", "", "x"), 21, 1.0)
        store = self.build_store([rule])
        assert len(prune_rules(store, Thresholds())) == 1

    def test_prune_requires_scores(self):
        store = self.build_store([MorphRule(ConcatRule("prefix", "", "x"), ())])
        with pytest.raises(ValueError):
            prune_rules(store, Thresholds())

    def test_prune_ordering(self):
        r1 = self.scored(ConcatRule("prefix", "", "b"), 25, 0.5)
        r2 = self.scored(ConcatRule("prefix", "", "a"), 25, 0.5)
        r3 = self.scored(ConcatRule("prefix", "", "c"), 30, 0.5)
        r4 = self.scored(Template(("m", "", "", "")), 21, 0.9)
        pruned = prune_rules(self.build_store([r1, r2, r3, r4]), Thresholds())
        assert [r.key.key_str for r in pruned] == [
            "tmpl:m<C1><C2><C3>",
            "concat:prefix:>c",
            "concat:prefix:>a",
            "concat:prefix:>b",
        ]

    def test_prune_monotone_in_thresholds(self):
        rng = np.random.default_rng(7)
        rules = [
            self.scored(ConcatRule("prefix", "", f"x{i}"),
                        int(rng.integers(1, 60)), float(rng.uniform(0, 1)))
            for i in range(40)
        ]
        store = self.build_store(rules)
        base = len(prune_rules(store, Thresholds()))
        for kwargs in ({"t_r_sem": 0.3}, {"t_r_orth": 30},
                       {"t_r_sem": 0.6, "t_r_orth": 40}):
            assert len(prune_rules(store, Thresholds(**kwargs))) <= base

    def test_planted_rules_survive_noise_rules_pruned(self):
        # 5 planted offset rules and 50 noise rules in one store over one
        # table; survivors must be exactly the planted ones.
        rng = np.random.default_rng(77)
        dim = 48
        words, vecs = [], []
        rules = []
        for p in range(5):
            offset = rng.standard_normal(dim)
            offset /= np.linalg.norm(offset)
            pairs = []
            for i in range(25):
                base = rng.standard_normal(dim)
                words += [f"p{p}r{i}", f"p{p}d{i}"]
                vecs += [base, base + offset]
                pairs.append((f"p{p}r{i}", f"p{p}d{i}"))
            rules.append(MorphRule(ConcatRule("prefix", "", f"good{p}"),
                                   tuple(sorted(pairs))))
        for q in range(25):  # noisy but well-supported: fails the sem test
            pairs = []
            for i in range(25):
                words += [f"n{q}r{i}", f"n{q}d{i}"]
                vecs += [rng.standard_normal(dim), rng.standard_normal(dim)]
                pairs.append((f"n{q}r{i}", f"n{q}d{i}"))
            rules.append(MorphRule(ConcatRule("prefix", "", f"noise{q}"),
                                   tuple(sorted(pairs))))
        for q in range(25):  # tiny support: fails the orth test
            words += [f"t{q}r", f"t{q}d"]
            vecs += [rng.standard_normal(dim), rng.standard_normal(dim)]
            rules.append(MorphRule(ConcatRule("prefix", "", f"tiny{q}"),
                                   ((f"t{q}r", f"t{q}d"),)))
        table = EmbeddingTable.from_vectors(words, np.array(vecs), normalize=False)
        store = RuleStore(rules)
        store.score_all(table)
        survivors = prune_rules(store, Thresholds())
        assert sorted(r.key.key_str for r in survivors) == [
            f"concat:prefix:>good{p}" for p in range(5)
        ]

    def test_duplicate_rule_keys_rejected(self):
        rule = MorphRule(ConcatRule("prefix", "", "x"), ())
        with pytest.raises(ValueError):
            RuleStore([rule, MorphRule(ConcatRule("prefix", "", "x"), ())])


class TestRank:
    def make_store(self):
        rules = [
            MorphRule(ConcatRule("prefix", "", "a"), (), RuleScores(30, 0.9, False)),
            MorphRule(ConcatRule("prefix", "", "b"), (), RuleScores(40, 0.8, False)),
            MorphRule(Template(("m", "", "", "")), (), RuleScores(25, 0.95, False)),
            MorphRule(Template(("t", "", "", "")), (), RuleScores(25, 0.7, False)),
        ]
        return RuleStore(rules)

    def test_rank_all(self):
        got = [r.key.key_str for r in rank_rules(self.make_store(), top_k=30)]
        assert got == ["tmpl:m<C1><C2><C3>", "concat:prefix:>a",
                       "concat:prefix:>b", "tmpl:t<C1><C2><C3>"]

    def test_rank_kind_filter(self):
        got = [r.key.key_str for r in rank_rules(self.make_store(), kind="templatic")]
        assert got == ["tmpl:m<C1><C2><C3>", "tmpl:t<C1><C2><C3>"]
        got = [r.key.key_str for r in
               rank_rules(self.make_store(), kind="concatenative", top_k=1)]
        assert got == ["concat:prefix:>a"]

    def test_rank_top_zero(self):
        assert rank_rules(self.make_store(), top_k=0) == []

    def test_rank_bad_kind(self):
        with pytest.raises(ValueError):
            rank_rules(self.make_store(), kind="fancy")


class TestSamplingInvariant:
    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_unsampled_equals_brute_force(self, n, seed):
        rule, table = random_rule(n, dim=16, seed=seed)
        got = score_r_sem(rule, table, t_cos=0.4, sample_cap=100)
        assert got == brute_r_sem(table, rule.support, 0.4)


class TestDbRoundTrip:
    def build(self):
        rules = [
            MorphRule(ConcatRule("prefix", "", "al"),
                      (("maktab", "almaktab"), ("jaras", "aljaras")),
                      RuleScores(2, 1.0, False)),
            MorphRule(ConcatRule("suffix", "at", "u"),
                      (("ktbat", "ktbu"),),
                      RuleScores(1, 0.3333333333333333, True)),
            MorphRule(Template(("ma", "", "a", "")),
                      (("ktb", "maktab"),),
                      RuleScores(1, 0.9999999999999999, False)),
        ]
        return RuleStore(rules, vocab_hash=vocab_fingerprint(["a", "b"]),
                         candidate_counts={"concatenative": 10, "templatic": 3})

    def test_round_trip(self, tmp_path):
        store = self.build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        assert load_rules(path) == store

    def test_resave_is_byte_identical(self, tmp_path):
        store = self.build()
        p1, p2 = tmp_path / "one.db", tmp_path / "two.db"
        save_rules(store, p1)
        save_rules(load_rules(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("not a db\n", encoding="utf-8")
        from jzr.rules import RuleDbError
        with pytest.raises(RuleDbError):
            load_rules(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("#morphruledb 1\nrule\tconcatenative\tprefix\n", encoding="utf-8")
        from jzr.rules import RuleDbError
        with pytest.raises(RuleDbError):
            load_rules(path)

    def test_empty_affixes_survive_round_trip(self, tmp_path):
        rule = MorphRule(ConcatRule("prefix", "al", ""), (("almaktab", "maktab"),),
                         RuleScores(1, 1.0, False))
        store = RuleStore([rule])
        path = tmp_path / "rules.db"
        save_rules(store, path)
        loaded = load_rules(path)
        assert loaded.get("concat:prefix:al>").key == rule.key


class TestVocabFingerprint:
    def test_order_sensitive(self):
        assert vocab_fingerprint(["a", "b"]) != vocab_fingerprint(["b", "a"])

    def test_no_concatenation_ambiguity(self):
        assert vocab_fingerprint(["ab", "c"]) != vocab_fingerprint(["a", "bc"])

    def test_stable(self):
        assert vocab_fingerprint(["a", "b"]) == vocab_fingerprint(["a", "b"])
