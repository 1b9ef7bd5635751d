import gc
import itertools
import math
import os
import re
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fail_writes_halfway, random_table
from jzr import pipeline, rules
from oracles import (brute_concat_rules, brute_r_sem, brute_templatic_rules, brute_w_sem,
                     tensor_count_passes)
from jzr.concat import ConcatRule, MinedRule, enumerate_concat_rules
from jzr.config import Config
from jzr.embeddings import _NORM_EPS, EmbeddingTable, InvalidWordError
from jzr.extractor import RootExtractor
from jzr.fileio import collector_paused
from jzr.pipeline import learn_rules
from jzr.rules import (
    CONCATENATIVE,
    TEMPLATIC,
    MorphRule,
    RuleDbError,
    RuleScores,
    RuleStore,
    Thresholds,
    _count_passes,
    load_rules,
    prune_rules,
    rank_rules,
    rule_kind,
    save_rules,
    score_rule,
    support_sample,
    vocab_fingerprint,
)
from jzr.synthlang import SynthConfig, generate
from jzr.templatic import Template, enumerate_templatic_rules


KEY = ConcatRule("prefix", "", "x")


def offset_rule(n_pairs, dim=32, seed=0, noise=0.0):
    """Planted rule's support and table: every derived vector is its root
    vector plus one offset."""
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
    return tuple(sorted(pairs)), EmbeddingTable(words, np.array(vecs))


def scoring(t_cos=0.5, sample_cap=100, seed=42):
    return Config(t_cos_sim=t_cos, sample_cap=sample_cap, seed=seed)


def score(support, table, **kwargs):
    return score_rule(KEY, support, table, scoring(**kwargs))


def r_sem(support, table, **kwargs):
    return score(support, table, **kwargs).sem


def w_sem(pair, support, table, **kwargs):
    return score(support, table, **kwargs).w_sem[support.index(pair)]


def random_rule(n_pairs, dim=64, seed=0):
    """A random rule's support and table."""
    table = random_table(2 * n_pairs, dim, seed=seed)
    return tuple((f"w{2 * i}", f"w{2 * i + 1}") for i in range(n_pairs)), table


class TestThresholds:
    def test_defaults(self):
        th = Thresholds()
        assert (th.t_r_sem, th.t_r_orth, th.t_w_sem) == (0.1, 20, 0.1)

    @pytest.mark.parametrize("kwargs", [
        {"t_r_sem": 1.5}, {"t_w_sem": -0.1}, {"t_r_orth": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            Thresholds(**kwargs)


class TestConfig:
    def test_thresholds_are_its_threshold_fields(self):
        assert Config(t_r_orth=3).thresholds == Thresholds(t_r_orth=3)
        assert Config().thresholds == Thresholds()

    # A wrongly typed value is refused, not truncated or left to fail later.
    @pytest.mark.parametrize("kwargs", [
        {"t_cos_sim": 1.0}, {"t_cos_sim": -1.0}, {"t_r_sem": 1.5},
        {"max_derived_len": -1}, {"t_r_orth": 0}, {"sample_cap": 0},
        {"sample_cap": -5}, {"seed": 4.2}, {"sample_cap": 2.5}, {"t_r_orth": 20.5},
        {"top_n": True}, {"max_affix": 2.5}, {"t_cos_sim": "0.5"}, {"t_r_sem": None},
        {"min_stem": np.float64(2.0)},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            Config(**kwargs)

    def test_t_w_sem_is_not_a_setting(self):
        # Extraction alone reads it, from Thresholds; no Config or DB holds it.
        with pytest.raises(TypeError, match="t_w_sem"):
            Config(t_w_sem=0.1)


class TestRuleScores:
    @pytest.mark.parametrize("args, message", [
        ((-1, 0.5, False), "cannot be negative"),
        ((3, 1.5, False), "sem score out of"),
        ((3, -0.25, False), "sem score out of"),
        ((3, math.nan, False), "sem score out of"),
    ])
    def test_validation(self, args, message):
        with pytest.raises(ValueError, match=message):
            RuleScores(*args)


# The scoring settings are the Config fields score_rule reads:
# t_cos_sim, sample_cap and seed.
class TestScoringSettings:
    @pytest.mark.parametrize("kwargs, message", [
        ({"t_cos": 1.0}, "t_cos_sim"), ({"t_cos": -1.0}, "t_cos_sim"),
        ({"sample_cap": 0}, "sample_cap"), ({"sample_cap": -5}, "sample_cap"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            scoring(**kwargs)

    def test_extremes_accepted(self):
        assert scoring(t_cos=-0.999, sample_cap=1, seed=-7).sample_cap == 1


class TestScoreRSem:
    def test_singleton_support_scores_one(self):
        support, table = random_rule(1, seed=5)
        assert r_sem(support, table, t_cos=0.99) == 1.0

    def test_offset_planted_scores_one(self):
        support, table = offset_rule(10, seed=8)
        assert r_sem(support, table) == pytest.approx(1.0, abs=1e-6)

    def test_random_support_only_diagonal_passes(self):
        support, table = random_rule(5, seed=23)
        assert r_sem(support, table, t_cos=0.5) == 0.2

    def test_diagonal_lower_bound(self):
        for seed in range(5):
            support, table = random_rule(7, seed=seed)
            assert r_sem(support, table, t_cos=0.9) >= 1 / 7

    def test_empty_support_raises(self):
        _, table = random_rule(3, seed=1)
        with pytest.raises(ValueError, match="concat:prefix:>x has an empty support"):
            score((), table)

    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_matches_brute_force_exactly(self, n):
        support, table = random_rule(n, seed=100 + n)
        assert r_sem(support, table, t_cos=0.5) == brute_r_sem(table, support, 0.5)

    def test_sampling_deterministic(self):
        support, table = offset_rule(150, seed=4)
        a = score(support, table, sample_cap=50)
        b = score(support, table, sample_cap=50)
        assert a == b and a.sampled

    def test_sampling_identity_below_cap(self):
        support, table = random_rule(10, seed=6)
        assert score(support, table, sample_cap=10) == score(support, table,
                                                             sample_cap=10_000)


class TestScoreWSem:
    def test_singleton_support(self):
        support, table = random_rule(1, seed=9)
        assert w_sem(support[0], support, table, t_cos=0.99) == 1.0

    def test_offset_planted_genuine_pair(self):
        support, table = offset_rule(10, seed=11)
        assert w_sem(support[0], support, table) == pytest.approx(1.0, abs=1e-6)

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
        table = EmbeddingTable(words, np.array(vecs))
        support = tuple(sorted(pairs))
        assert w_sem(("r0", "d0"), support, table) == pytest.approx(1.0, abs=1e-6)
        mis = w_sem(("zhb", "mazhab"), support, table)
        assert mis == 1 / 21
        assert mis < 0.3

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_matches_brute_force_exactly(self, n):
        support, table = random_rule(n, seed=200 + n)
        for pair in support:
            got = w_sem(pair, support, table, t_cos=0.5)
            assert got == brute_w_sem(table, pair, support, 0.5)

    def test_mean_w_sem_equals_r_sem(self):
        # Row means of the shared indicator matrix recover the full mean.
        for seed in (3, 17, 51):
            support, table = random_rule(6, dim=16, seed=seed)
            n = len(support)
            scores = score(support, table, t_cos=0.35)
            total = sum(round(w * n) for w in scores.w_sem)
            assert total / (n * n) == scores.sem


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
        mined = []
        for p in range(5):
            offset = rng.standard_normal(dim)
            offset /= np.linalg.norm(offset)
            pairs = []
            for i in range(25):
                base = rng.standard_normal(dim)
                words += [f"p{p}r{i}", f"p{p}d{i}"]
                vecs += [base, base + offset]
                pairs.append((f"p{p}r{i}", f"p{p}d{i}"))
            mined.append((ConcatRule("prefix", "", f"good{p}"), tuple(sorted(pairs))))
        for q in range(25):  # noisy but well-supported: fails the sem test
            pairs = []
            for i in range(25):
                words += [f"n{q}r{i}", f"n{q}d{i}"]
                vecs += [rng.standard_normal(dim), rng.standard_normal(dim)]
                pairs.append((f"n{q}r{i}", f"n{q}d{i}"))
            mined.append((ConcatRule("prefix", "", f"noise{q}"), tuple(sorted(pairs))))
        for q in range(25):  # tiny support: fails the orth test
            words += [f"t{q}r", f"t{q}d"]
            vecs += [rng.standard_normal(dim), rng.standard_normal(dim)]
            mined.append((ConcatRule("prefix", "", f"tiny{q}"), ((f"t{q}r", f"t{q}d"),)))
        table = EmbeddingTable(words, np.array(vecs))
        store = RuleStore([MorphRule(key, support, score_rule(key, support, table, scoring()))
                           for key, support in mined])
        survivors = prune_rules(store, Thresholds())
        assert sorted(r.key.key_str for r in survivors) == [
            f"concat:prefix:>good{p}" for p in range(5)
        ]

    def test_duplicate_rule_keys_rejected(self, tmp_path):
        # The store is built as given; packing it, as saving it and building
        # an extractor do, refuses the repeated key.
        rules = [MorphRule(ConcatRule("prefix", "", "x"), ((root, "x" + root),),
                           RuleScores(1, 1.0, False, (1.0,))) for root in ("abc", "def")]
        store = RuleStore(rules, vocab_hash=vocab_fingerprint(["abc"]),
                          candidate_counts=COUNTS, config=CONFIG)
        assert list(store) == rules
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError, match=r"^duplicate rule key: concat:prefix:>x$"):
            save_rules(store, path)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(ValueError, match=r"^duplicate rule key: concat:prefix:>x$"):
            RootExtractor(store)
        other = replace(rules[1], key=ConcatRule("prefix", "", "y"))
        store = RuleStore([rules[0], other], vocab_hash=store.vocab_hash,
                          candidate_counts=COUNTS, config=CONFIG)
        save_rules(store, path)  # distinct keys save
        assert load_rules(path) == store

    def test_rules_whose_affixes_hold_the_key_separator_print_apart(self):
        a = self.scored(ConcatRule("prefix", "a>b", ""), 0, 0.0)
        b = self.scored(ConcatRule("prefix", "a", "b>"), 0, 0.0)
        assert a.key.key_str == "concat:prefix:a\\>b>"
        assert b.key.key_str == "concat:prefix:a>b\\>"
        store = RuleStore([a, b])
        assert list(store) == [a, b]
        assert store.get(a.key.key_str) is a and store.get(b.key.key_str) is b
        assert store.get("concat:prefix:a>b>") is None

    def test_prune_orders_rules_with_tied_scores_by_escaped_key_text(self):
        a = self.scored(ConcatRule("prefix", "a>b", ""), 25, 0.5)
        b = self.scored(ConcatRule("prefix", "a", "b>"), 25, 0.5)
        assert b.key.key_str < a.key.key_str  # ">" sorts before "\\"
        for rules in ([a, b], [b, a]):
            pruned = prune_rules(self.build_store(rules), Thresholds())
            assert [r.key for r in pruned] == [b.key, a.key]

    def test_records_have_no_instance_dict(self):
        records = [ConcatRule("prefix", "", "x"), Template(("m", "", "", "")),
                   self.scored(ConcatRule("prefix", "", "x"), 0, 0.0),
                   MinedRule(ConcatRule("prefix", "", "x"), {}, {}), RuleScores(0, 0.0, False)]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__


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
        support, table = random_rule(n, dim=16, seed=seed)
        got = r_sem(support, table, t_cos=0.4, sample_cap=100)
        assert got == brute_r_sem(table, support, 0.4)


class TestStoredWSem:
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 0.3, 0.5]),
           st.integers(min_value=-14, max_value=2))
    @settings(max_examples=60)
    def test_stored_scores_equal_the_oracles(self, n, cap, seed, t_cos, scale_exp):
        # Supports above `cap` put most pairs outside the sample, where their
        # w_sem comes from the blockwise out-of-sample pass. Scaled tables put
        # vector norms on both sides of the zero-norm guard.
        support, unit = random_rule(n, dim=16, seed=seed)
        table = EmbeddingTable(unit.words, unit.matrix * 10.0 ** scale_exp)
        scores = score_rule(KEY, support, table, scoring(t_cos, cap, seed))
        sample = support_sample(KEY, n, cap, seed)
        sample_pairs = [support[i] for i in sample]
        assert scores.sampled == (n > cap)
        assert scores.sem == brute_r_sem(table, sample_pairs, t_cos)
        assert len(scores.w_sem) == n
        for pair, got in zip(support, scores.w_sem):
            assert got == brute_w_sem(table, pair, sample_pairs, t_cos)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("t_cos, expected", [(0.0, (0.5, 0.0)), (-0.5, (1.0, 1.0))])
    def test_zero_norm_target_counts_as_cosine_zero(self, scale, t_cos, expected):
        # a and c share one vector and z is zero, so the target (z - c) + a
        # of query (a, b) is exactly zero, and so is query (c, z)'s w2: both
        # read as cosine 0.0, which passes only a negative t_cos. A kernel
        # that forms the target's norm by expansion leaves a rounding
        # residual in a few percent of draws, hence many draws.
        rng = np.random.default_rng(7)
        support = (("a", "b"), ("c", "z"))
        for _ in range(200):
            v, u = rng.standard_normal((2, 8)) * scale
            table = EmbeddingTable(["a", "b", "c", "z"], [v, u, v, np.zeros(8)])
            brute = tuple(brute_w_sem(table, pair, support, t_cos) for pair in support)
            assert score(support, table, t_cos=t_cos).w_sem == brute == expected

    def test_gated_rules_keep_no_pair_scores(self):
        stems = ["ab", "cd", "ef"]
        words = stems + [f"x{w}" for w in stems] + [f"{w}y" for w in stems]
        table = EmbeddingTable(words, np.random.default_rng(2).standard_normal((9, 8)))
        candidates, _ = learn_rules(table, Config(t_r_orth=3))
        scores = {rule.key: rule.scores for rule in candidates}
        prefix = scores[ConcatRule("prefix", "", "x")]
        assert prefix == RuleScores(3, 0.0, False)
        # Gated rules of one orth share one (frozen) scores object.
        assert scores[ConcatRule("suffix", "", "y")] is prefix


class TestCountPasses:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
           st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=-14, max_value=3),
           st.sampled_from([-0.5, 0.0, 0.3, 0.5, 0.9]),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                              st.sampled_from([0.0, 0.5, 1.0, 2.0])), max_size=6),
           st.lists(st.tuples(st.integers(0, 11), st.sampled_from([0.5, 1.0, 2.0])),
                    max_size=3))
    def test_counts_equal_the_tensor_formula(self, q, n, dim, seed, scale_exp, t_cos,
                                             targets, queries):
        # Each (i, j, f) of `targets` sets offset i to t - w1[j] for a random
        # t of norm f * _NORM_EPS, putting target j, i below, at or above
        # the guard; f = 0 sets it to -w1[j] exactly, whose zeroed first
        # column is -0.0. Each (j, f) of `queries` rescales w2[j] likewise.
        rng = np.random.default_rng(seed)
        w1, w2 = rng.standard_normal((2, q, dim)) * 10.0 ** scale_exp
        offsets = rng.standard_normal((n, dim)) * 10.0 ** scale_exp
        w1[:, 0] = 0.0
        for i, j, f in targets:
            t = rng.standard_normal(dim)
            t *= f * _NORM_EPS / np.linalg.norm(t)
            offsets[i % n] = t - w1[j % q] if f else -w1[j % q]
        for j, f in queries:
            w2[j % q] *= f * _NORM_EPS / np.linalg.norm(w2[j % q])
        got = _count_passes(w1, w2, offsets, t_cos)
        assert got.tolist() == tensor_count_passes(w1, w2, offsets, t_cos).tolist()

    def test_targets_within_ulps_of_the_guard(self):
        # o and w1 are scaled so that the norm of o + w1 rounds to about
        # _NORM_EPS with no cancellation; the query is twice the target, so
        # the count is 1 exactly when the target clears the guard. Judged by
        # the expansion's own rounding, about one draw in twelve lands on
        # the wrong side.
        rng = np.random.default_rng(3)
        sides = set()
        for _ in range(300):
            w1, offsets = rng.standard_normal((2, 1, 8))
            scale = _NORM_EPS / np.linalg.norm(w1 + offsets)
            w1, offsets = w1 * scale, offsets * scale
            w2 = 2.0 * (w1 + offsets)
            expected = tensor_count_passes(w1, w2, offsets, 0.5).tolist()
            assert _count_passes(w1, w2, offsets, 0.5).tolist() == expected
            sides.add(expected[0])
        assert sides == {0, 1}


class TestCandidateStore:
    @given(st.lists(st.text("abkt", min_size=2, max_size=6), min_size=1, max_size=40,
                    unique=True),
           st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30)
    def test_learned_store_equals_a_store_of_copies(self, words, seed, t_r_orth):
        # The candidates are the brute miners' rules, concatenative first,
        # each scored as it was mined: score_rule's scores above t_r_orth,
        # and at or below it sem 0.0 and no w_sem, one object per orth.
        vectors = np.random.default_rng(seed).standard_normal((len(words), 8))
        table = EmbeddingTable(words, vectors)
        cfg = Config(t_r_orth=t_r_orth)
        candidates, _ = learn_rules(table, cfg)
        concat = brute_concat_rules(words, cfg.max_affix, cfg.min_stem)
        templatic = brute_templatic_rules(words, cfg.max_derived_len)
        assert {rule.key: rule.support for rule in candidates} == {**concat, **templatic}
        assert [rule_kind(rule.key) for rule in candidates] == (
            [CONCATENATIVE] * len(concat) + [TEMPLATIC] * len(templatic))
        assert candidates.candidate_counts == {CONCATENATIVE: len(concat),
                                               TEMPLATIC: len(templatic)}
        assert candidates.vocab_hash == vocab_fingerprint(words)
        assert candidates.config == cfg
        gated: dict[int, RuleScores] = {}
        for rule in candidates:
            orth = len(rule.support)
            if orth <= t_r_orth:
                assert rule.scores is gated.setdefault(orth, rule.scores)
                assert rule.scores == RuleScores(orth, 0.0, False)
            else:
                assert rule.scores == score_rule(rule.key, rule.support, table, cfg)

    @given(st.lists(st.text("abkt", min_size=2, max_size=6), min_size=1, max_size=40,
                    unique=True),
           st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4),
           st.data())
    @settings(max_examples=30)
    def test_a_gated_record_reads_and_compares_as_a_rule(self, words, seed, t_r_orth, data):
        # A gated concatenative candidate is kept as its mined record. Its
        # support reads as the oracle's tuple, built afresh at each read, and
        # the record compares as a MorphRule of its fields, so the store and
        # its copies prune and rank alike.
        vectors = np.random.default_rng(seed).standard_normal((len(words), 8))
        cfg = Config(t_r_orth=t_r_orth)
        candidates, _ = learn_rules(EmbeddingTable(words, vectors), cfg)
        oracle = brute_concat_rules(words, cfg.max_affix, cfg.min_stem)
        records = [rule for rule in candidates if isinstance(rule, MinedRule)]
        assert sorted(rule.key for rule in records) == sorted(
            key for key, pairs in oracle.items() if len(pairs) <= t_r_orth)
        shared: dict[int, RuleScores] = {}
        for rule in records:
            pairs, n = oracle[rule.key], len(oracle[rule.key])
            i = data.draw(st.integers(-n, n - 1))
            a, b = data.draw(st.integers(-n - 1, n + 1)), data.draw(st.integers(-n - 1, n + 1))
            for _ in range(2):
                support = rule.support
                assert len(support) == len(rule) == n
                assert tuple(iter(support)) == pairs
                assert support[i] == pairs[i] and support[a:b] == pairs[a:b]
                assert support == pairs and pairs == support
                assert not support != pairs and not pairs != support
                assert hash(support) == hash(pairs) and repr(support) == repr(pairs)
            assert rule.scores is shared.setdefault(n, rule.scores)
            assert rule.scores == RuleScores(n, 0.0, False)
            with pytest.raises(TypeError):
                hash(rule)  # as a MorphRule
        copies = RuleStore([MorphRule(rule.key, tuple(rule.support), rule.scores)
                            for rule in candidates], candidates.vocab_hash,
                           candidates.candidate_counts, cfg)
        assert candidates == copies and copies == candidates
        assert not candidates != copies and not copies != candidates
        assert all(rule == copy and copy == rule for rule, copy in zip(candidates, copies))
        assert repr(records) == repr([MorphRule(rule.key, rule.support, rule.scores)
                                      for rule in records]).replace("MorphRule(", "MinedRule(")
        thresholds = cfg.thresholds
        assert prune_rules(candidates, thresholds) == prune_rules(copies, thresholds)
        for kind in ("all", CONCATENATIVE, TEMPLATIC):
            for top_k in (0, 1, 3, len(copies)):
                assert (rank_rules(candidates, kind, top_k)
                        == rank_rules(copies, kind, top_k))

    def test_mining_into_the_store_adds_a_record_and_a_slot_per_candidate(self):
        # Mining peaks with one side's stem index alive and every record
        # mined so far kept, with its key and the affix maps it reads. Kept
        # as a list of the stream's records, that peak is the baseline: the
        # store of the mined rules, each given one shared scores object as
        # learn gates those of an orth, keeps each record as its rule, and
        # may add only a slot's worth more per candidate. A map or set of
        # the candidates' keys adds about 35 bytes per candidate, but it is
        # built once mining has freed its index, below that peak: so the
        # store is also built again from its own rules, which may add only
        # its list of them. A full collection first empties the free lists,
        # which would otherwise serve some objects untraced, and learn_rules
        # pauses the collector.
        _, table, _ = generate(SynthConfig(n_roots=25, chain_depth=2, seed=5))
        templatic = enumerate_templatic_rules(table.words)
        gated = RuleScores(1, 0.0, False)

        def gate(rule):
            rule.scores = gated
            return rule

        def store_of(rules):
            mined = itertools.starmap(lambda key, support: MorphRule(key, support, gated),
                                      templatic.items())
            return RuleStore(itertools.chain(map(gate, rules), mined), config=scoring())

        def peak(make):
            gc.collect()
            with collector_paused():
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    kept = make()
                    return tracemalloc.get_traced_memory()[1] - before, kept
                finally:
                    tracemalloc.stop()

        listed, stream = peak(lambda: list(enumerate_concat_rules(table.words)))
        added, store = peak(lambda: store_of(enumerate_concat_rules(table.words)))
        n = len(stream)
        assert len(store) == n + len(templatic)
        assert added < listed + n * 8
        rules = list(store)
        rebuilt, _ = peak(lambda: RuleStore(rules))
        assert rebuilt < sys.getsizeof(rules) + 4096  # the store object itself

    def test_a_gated_candidate_keeps_no_pair(self):
        # Learn keeps the rules it scores, each with its support tuple and
        # w_sem tuple, the counts and the table it mines again from; a gated
        # candidate is dropped once it is counted. So what learn keeps is
        # the scored rules alone: 32-34 bytes per gated candidate on three
        # seeds of this language. It was 188-192 bytes when learn kept each
        # gated candidate as its mined record, 228-232 as a MorphRule
        # holding a view of the affix maps, and 334-338 as a tuple of pairs.
        _, table, _ = generate(SynthConfig(n_roots=25, chain_depth=2, seed=5))
        gc.collect()  # empties the free lists, which would serve some objects untraced
        with collector_paused():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                candidates, _ = learn_rules(table)
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        t_r_orth = Config().thresholds.t_r_orth
        gated = sum(1 for rule in candidates if rule.scores.orth <= t_r_orth)
        assert gated > 10_000
        assert kept / gated < 48

    @given(st.lists(st.text("abkt", min_size=2, max_size=6), min_size=1, max_size=40,
                    unique=True),
           st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=4))
    @settings(max_examples=30)
    def test_each_read_mines_the_candidates_again(self, words, seed, t_r_orth):
        # Each read runs the miners once more and gives the same records in
        # the same order: a scored key's one kept MorphRule, and a gated
        # one's record made afresh, in the one RuleScores of its orth. The
        # store reads as a listed copy of one read does, and `len` mines
        # nothing.
        vectors = np.random.default_rng(seed).standard_normal((len(words), 8))
        cfg = Config(t_r_orth=t_r_orth)
        candidates, validated = learn_rules(EmbeddingTable(words, vectors), cfg)
        with mock.patch.object(pipeline, "enumerate_concat_rules",
                               wraps=pipeline.enumerate_concat_rules) as concat, \
                mock.patch.object(pipeline, "enumerate_templatic_rules",
                                  wraps=pipeline.enumerate_templatic_rules) as templatic:
            first, second = list(candidates), list(candidates)
            assert concat.call_count == templatic.call_count == 2
            assert len(candidates) == len(first) == sum(candidates.candidate_counts.values())
            assert concat.call_count == templatic.call_count == 2
        assert first == second
        shared: dict[int, RuleScores] = {}
        for a, b in zip(first, second):
            if a.scores.orth > t_r_orth:
                assert a is b and type(a) is MorphRule
            else:
                assert a is not b
                for rule in (a, b):
                    assert rule.scores is shared.setdefault(rule.scores.orth, rule.scores)
        listed = RuleStore(first, candidates.vocab_hash, candidates.candidate_counts, cfg)
        assert candidates == listed and listed == candidates
        assert candidates == candidates and not candidates != listed
        for rule in first[:5] + first[-5:]:
            assert candidates.get(rule.key.key_str) == listed.get(rule.key.key_str) == rule
        assert candidates.get("concat:prefix:>zz") is listed.get("concat:prefix:>zz") is None
        assert prune_rules(candidates, cfg.thresholds) == prune_rules(listed, cfg.thresholds)
        assert prune_rules(candidates, cfg.thresholds) == validated
        for kind in ("all", CONCATENATIVE, TEMPLATIC):
            for top_k in (0, 1, 3, len(listed)):
                ranked = rank_rules(candidates, kind, top_k)
                want = rank_rules(listed, kind, top_k)
                assert ranked == want
                assert all(a is b for a, b in zip(ranked, want) if a.scores.orth > t_r_orth)

        def packed(store):
            try:
                return store.pair_arrays()
            except ValueError as exc:
                return str(exc)

        got, want = packed(candidates), packed(listed)
        if isinstance(want, str):
            assert got == want and "is unscored" in want
        else:
            assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
            assert got.rules == want.rules


CONFIG = Config()
CONFIG_LINE = ("#config t_cos_sim=0.5 t_r_sem=0.1 t_r_orth=20 max_affix=6 min_stem=2 "
               "max_derived_len=12 sample_cap=100 seed=42 top_n=none")
COUNTS = {CONCATENATIVE: 1, TEMPLATIC: 0}


class TestDbRoundTrip:
    def build(self):
        rules = [
            MorphRule(ConcatRule("prefix", "", "al"),
                      (("jaras", "aljaras"), ("maktab", "almaktab")),
                      RuleScores(2, 1.0, False, (1.0, 0.5))),
            MorphRule(ConcatRule("suffix", "at", "u"),
                      (("ktbat", "ktbu"),),
                      RuleScores(1, 0.3333333333333333, True, (0.3333333333333333,))),
            MorphRule(Template(("ma", "", "a", "")),
                      (("ktb", "maktab"),),
                      RuleScores(1, 0.9999999999999999, False, (0.0,))),
        ]
        return RuleStore(rules, vocab_hash=vocab_fingerprint(["a", "b"]),
                         candidate_counts={"concatenative": 10, "templatic": 3},
                         config=CONFIG)

    def saved_lines(self, tmp_path):
        path = tmp_path / "rules.db"
        save_rules(self.build(), path)
        return path, path.read_text(encoding="utf-8").splitlines()

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

    def test_numpy_scores_and_settings_save_as_python_numbers(self, tmp_path):
        # numpy prints np.float64(0.5) as its repr, which no float() parses.
        store = self.build()
        np_store = RuleStore(
            [replace(rule, scores=replace(rule.scores, orth=np.int64(rule.scores.orth),
                                          sem=np.float64(rule.scores.sem)))
             for rule in store],
            vocab_hash=store.vocab_hash, candidate_counts=store.candidate_counts,
            config=Config(t_cos_sim=np.float64(0.5), sample_cap=np.int64(100),
                          seed=np.int64(42)))
        path, np_path = tmp_path / "rules.db", tmp_path / "np.db"
        save_rules(store, path)
        save_rules(np_store, np_path)
        assert np_path.read_bytes() == path.read_bytes()
        assert load_rules(np_path) == store == np_store

    def test_load_holds_one_str_per_pair_word(self, tmp_path):
        path, _ = self.saved_lines(tmp_path)
        words = [w for rule in load_rules(path) for pair in rule.support for w in pair]
        first: dict[str, str] = {}
        for word in words:
            assert first.setdefault(word, word) is word
        assert len(first) < len(words)  # "maktab" is in two rules' support

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("not a db\n", encoding="utf-8")
        from jzr.rules import RuleDbError
        with pytest.raises(RuleDbError):
            load_rules(path)

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("#morphruledb 1\nrule\tconcatenative\tprefix\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match="re-run `jzr learn`"):
            load_rules(path)

    def test_header_records_scoring_and_pairs_their_w_sem(self, tmp_path):
        _, lines = self.saved_lines(tmp_path)
        assert lines[0] == "#morphruledb 4"
        assert lines[3] == CONFIG_LINE
        assert lines[4:7] == ["rule\tconcatenative\tprefix\t\tal\t2\t1.0\t0",
                              "pair\tjaras\taljaras\t1.0",
                              "pair\tmaktab\talmaktab\t0.5"]

    # Each edit of the saved DB, and the line the error must name. Lines 5-7
    # are the "al" rule and its two pairs, lines 8-9 the "at" -> "u" rule and
    # its pair, and lines 10-11 the template and its pair.
    @pytest.mark.parametrize("edit, lineno, message", [
        (lambda ls: ls[:5] + [ls[6], ls[5]] + ls[7:], 7, "unsorted"),
        (lambda ls: ls[:6] + [ls[5]] + ls[7:], 7, "repeats"),
        (lambda ls: ls[:6] + ls[7:], 5, "orth 2 but 1 pairs"),
        (lambda ls: ls[:5] + [ls[5].rsplit("\t", 1)[0]] + ls[6:], 6, "one w_sem"),
        (lambda ls: ls[:5] + [ls[5] + "\t0.5"] + ls[6:], 6, "one w_sem"),
        (lambda ls: ls[:5] + [ls[5][:-3] + "1.5"] + ls[6:], 6, "out of"),
        (lambda ls: ls[:5] + [ls[5][:-3] + "-0.0001"] + ls[6:], 6, "out of"),
        (lambda ls: ls[:5] + [ls[5][:-3] + "nan"] + ls[6:], 6, "out of"),
        (lambda ls: ls[:4] + [ls[5]] + ls[4:], 5, "before any rule"),
        (lambda ls: ls[:5] + [ls[5].replace("\tjaras", "\t")] + ls[6:], 6, "non-empty"),
        (lambda ls: ls[:5] + [ls[5].replace("\tjaras", "\tja ras")] + ls[6:], 6,
         "whitespace or a control"),
        (lambda ls: ls[:6] + [ls[6].replace("almaktab", "al\x07maktab")] + ls[7:], 7,
         "whitespace or a control"),
        (lambda ls: ls[:5] + [ls[5].replace("\tjaras", "\tja\u3000ras")] + ls[6:], 6,
         re.escape("character: 'ja\\u3000ras'")),
        (lambda ls: ls[:4] + [ls[4][:-1] + "yes"] + ls[5:], 5, "sampled must be 0 or 1"),
        (lambda ls: ls[:3] + [ls[3].replace(" seed=42", "")] + ls[4:], 4,
         "#config lacks seed$"),
        (lambda ls: ls[:3] + [ls[3] + " bogus=3"] + ls[4:], 4,
         "#config has unknown field 'bogus'$"),
        (lambda ls: ls[:3] + [ls[3].replace("top_n=none", "top_n=0.5")] + ls[4:], 4,
         "invalid literal for int"),
        (lambda ls: ls[:3] + [ls[3].replace("seed=42", "seed=none")] + ls[4:], 4,
         "seed must be int, got None$"),
        (lambda ls: ls[:3] + [ls[3].replace("=0.5", "=5.0")] + ls[4:], 4, "t_cos_sim"),
        (lambda ls: ls[:3] + [ls[3].replace("=100", "=0")] + ls[4:], 4, "sample_cap"),
        (lambda ls: ls[:4] + ["#vocab-hash " + "0" * 64] + ls[4:], 5,
         "repeats #vocab-hash of line 2$"),
        (lambda ls: ls[:4] + [ls[3].replace("seed=42", "seed=7")] + ls[4:], 5,
         "repeats #config of line 4$"),
        (lambda ls: ls[:3] + [ls[3] + " seed=7"] + ls[4:], 4,
         "#config repeats field 'seed'$"),
        (lambda ls: ls[:2] + ["#candidates concatenative=5 concatenative=9"] + ls[3:], 3,
         "#candidates repeats field 'concatenative'$"),
        (lambda ls: ls[:2] + [ls[2] + " bogus=3"] + ls[3:], 3,
         "#candidates has unknown field 'bogus'$"),
        (lambda ls: ls[:4] + [ls[4].replace("concatenative", "foo")] + ls[5:], 5,
         "unknown rule kind 'foo'"),
        (lambda ls: ls[:4] + [ls[4].replace("rule", "junk", 1)] + ls[5:], 5,
         "unknown record type 'junk'"),
        (lambda ls: ls[:2] + [ls[2].replace("=10", "=-7")] + ls[3:], 3,
         "#candidates count is negative"),
        (lambda ls: ls[:2] + ["#candidates concatenative=10"] + ls[3:], 3,
         "#candidates count is negative or missing: 'concatenative=10'$"),
        (lambda ls: ls[:2] + ["#candidates "] + ls[3:], 3, "#candidates count is .* missing"),
        (lambda ls: ls[:7] + [ls[7].replace("\t1\t", "\t2\t")] + ls[8:], 8,
         "orth 2 but 1 pairs"),
        (lambda ls: ls[:7] + [ls[7].replace("\t1\t", "\t2\t"), ls[8],
                              "pair\taktbat\taktbu\t0.5"] + ls[9:], 10, "unsorted"),
        (lambda ls: ls[:8] + [line.replace("ktb", "k tb") for line in ls[8:]], 9,
         "whitespace or a control"),
    ])
    def test_defect_is_reported_with_its_line(self, tmp_path, edit, lineno, message):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match=f"^line {lineno}: .*{message}"):
            load_rules(path)

    def test_db_without_candidates_is_refused(self, tmp_path):
        # Saving always writes the line, so a DB without it has lost it;
        # loaded, it would resave with both counts 0.
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(lines[:2] + lines[3:]) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match="^rule DB has no #candidates header line$"):
            load_rules(path)

    def test_a_pair_word_with_zwnj_round_trips(self, tmp_path):
        # ZWNJ (U+200C) is not printable, but neither whitespace nor a control.
        store = self.build()
        rule = next(iter(store))
        rule.support = (("ja\u200cras", "aljaras"),) + rule.support[1:]
        path = tmp_path / "rules.db"
        save_rules(store, path)
        for _ in range(2):  # a text parse, then a cache hit
            assert load_rules(path) == store

    @pytest.mark.parametrize("pair", [("maktab", "wa maktab"), ("", "wa"),
                                      ("maktab", "wamak\x07tab"), ("maktab", "wa\u3000maktab")])
    def test_save_refuses_a_pair_word_that_load_would_refuse(self, tmp_path, pair):
        store = RuleStore([MorphRule(ConcatRule("prefix", "", "wa"), (pair,),
                                     RuleScores(1, 1.0, False, (1.0,)))],
                          vocab_hash=vocab_fingerprint(["a"]), candidate_counts=COUNTS,
                          config=CONFIG)
        path = tmp_path / "rules.db"
        with pytest.raises(InvalidWordError):
            save_rules(store, path)
        assert not path.exists()

    @pytest.mark.parametrize("support, scores, message", [
        ((("b", "wab"), ("a", "waa")), RuleScores(2, 1.0, False, (1.0, 1.0)),
         "support is unsorted at \\('a', 'waa'\\)"),
        ((("a", "waa"), ("a", "waa")), RuleScores(2, 1.0, False, (1.0, 1.0)),
         "support repeats"),
        ((("a", "waa"),), RuleScores(5, 1.0, False, (1.0,)), "rule has orth 5 but 1 pairs"),
        ((("a", "waa"),), RuleScores(1, 1.0, False, (1.5,)), "w_sem out of"),
        ((("a", "waa"),), RuleScores(1, 1.0, False, (math.nan,)), "w_sem out of"),
    ], ids=["unsorted", "repeated", "orth", "w_sem-1.5", "w_sem-nan"])
    def test_save_refuses_pairs_that_load_would_refuse(self, tmp_path, support, scores,
                                                       message):
        store = RuleStore([MorphRule(ConcatRule("prefix", "", "wa"), support, scores)],
                          vocab_hash=vocab_fingerprint(["a"]), candidate_counts=COUNTS,
                          config=CONFIG)
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError, match=f"^rule concat:prefix:>wa: {message}"):
            save_rules(store, path)
        assert not path.exists()

    def test_get_on_a_loaded_store_unpacks_only_that_rule(self, tmp_path):
        store = self.build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        real, unpacked = rules._unpack, []  # the keys of each call's rules

        def unpack(*args):
            found = real(*args)
            unpacked.append([rule.key for rule in found])
            return found

        with mock.patch.object(rules, "_unpack", side_effect=unpack):
            for _ in range(2):  # a text parse, then a cache hit
                unpacked.clear()
                loaded = load_rules(path)
                for rule in store:
                    assert loaded.get(rule.key.key_str) == rule
                assert loaded.get("concat:prefix:>zz") is None
                assert unpacked == [[rule.key] for rule in store] + [[]]
                assert list(loaded) == list(store)
                assert unpacked[-1] == [rule.key for rule in store]

    def test_missing_scoring_header(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(lines[:3] + lines[4:]) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match="^rule DB has no #config header line$"):
            load_rules(path)

    @pytest.mark.parametrize("edit", [lambda ls: ls[:1] + ls[2:],
                                      lambda ls: ls[:1] + ["#vocab-hash "] + ls[2:]],
                             ids=["missing", "empty"])
    def test_db_without_vocab_hash_is_refused(self, tmp_path, edit):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match="#vocab-hash"):
            load_rules(path)

    def test_save_refuses_a_store_without_scoring(self, tmp_path):
        store = self.build()
        store.config = None
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError, match="no #config header line"):
            save_rules(store, path)
        assert not path.exists()

    def test_save_refuses_a_store_without_vocab_hash(self, tmp_path):
        store = self.build()
        store.vocab_hash = ""
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError, match="no #vocab-hash header line"):
            save_rules(store, path)
        assert not path.exists()

    # Written as 0, a missing count would load back as a store unequal to
    # the one saved; a negative one would not load at all.
    @pytest.mark.parametrize("counts", [{}, {CONCATENATIVE: 10},
                                        {CONCATENATIVE: 10, TEMPLATIC: -1}])
    def test_save_refuses_a_store_without_both_candidate_counts(self, tmp_path, counts):
        store = self.build()
        store.candidate_counts = counts
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError, match="#candidates count is negative or missing"):
            save_rules(store, path)
        assert not path.exists()

    # Each change to a store that saves, the line load would refuse and its
    # reason. The "at" -> "u" rule is line 8; the vocab hash's newline makes
    # line 3 a #config line, which line 5 repeats.
    @pytest.mark.parametrize("target, name, value, line, message", [
        ("store", "candidate_counts", {CONCATENATIVE: 1.5, TEMPLATIC: 0},
         "line 3, '#candidates concatenative=1.5 templatic=0'", "invalid literal for int"),
        ("store", "candidate_counts", {CONCATENATIVE: True, TEMPLATIC: 0},
         "line 3, '#candidates concatenative=True templatic=0'", "invalid literal for int"),
        ("store", "vocab_hash", "0" * 64 + "\n" + CONFIG_LINE, f"line 5, '{CONFIG_LINE}'",
         "repeats #config of line 3$"),
        ("rule", "scores", RuleScores(1.0, 0.25, True, (0.25,)),
         "line 8, 'rule\\tconcatenative\\tsuffix\\tat\\tu\\t1.0\\t0.25\\t1'",
         "invalid literal for int"),
        ("rule", "key", ConcatRule("suffix", "a\tt", "u"),
         "line 8, 'rule\\tconcatenative\\tsuffix\\ta\\tt\\tu\\t1\\t0.3333333333333333\\t1'",
         "too many values to unpack"),
        ("store", "vocab_hash", "0" * 64 + "\rjunk", "line 3, 'junk'",
         "unknown record type 'junk'"),
    ], ids=["count-1.5", "count-True", "vocab_hash-newline", "orth-1.0", "affix-tab",
            "vocab_hash-return"])
    def test_save_refuses_what_load_would_refuse(self, tmp_path, target, name, value, line,
                                                 message):
        # Each store passes the pair checks; only reading its other lines
        # back as load does finds the defect. The refusal is a plain
        # ValueError, not a RuleDbError: no input file is at fault.
        store = self.build()
        setattr(store if target == "store" else list(store)[1], name, value)
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError,
                           match=f"^load_rules refuses {re.escape(line)}: {message}") as info:
            save_rules(store, path)
        assert type(info.value) is ValueError
        assert not path.exists()

    # Each store would load as another store: a hash that loses its line
    # end, or a count that comes back an int.
    @pytest.mark.parametrize("name, value, message", [
        ("vocab_hash", "0" * 64 + "\n", "vocab_hash back as '0{64}', not '0{64}\\\\n'$"),
        ("candidate_counts", {CONCATENATIVE: "1", TEMPLATIC: 0},
         "candidate_counts back as {'concatenative': 1, "),
    ], ids=["vocab_hash-line-end", "count-str"])
    def test_save_refuses_a_store_that_would_read_back_unequal(self, tmp_path, name, value,
                                                              message):
        store = self.build()
        setattr(store, name, value)
        path = tmp_path / "rules.db"
        with pytest.raises(ValueError, match=f"^load_rules would read {message}") as info:
            save_rules(store, path)
        assert type(info.value) is ValueError
        assert not path.exists()

    def test_a_learned_db_records_its_whole_config(self, tmp_path):
        _, table, _ = generate(SynthConfig(n_roots=12, chain_depth=2, seed=3))
        cfg = Config(t_cos_sim=0.25, t_r_sem=0.05, t_r_orth=2, max_affix=4, min_stem=3,
                     max_derived_len=10, sample_cap=7, seed=9, top_n=len(table))
        _, validated = learn_rules(table, cfg)
        assert len(validated) and validated.config == cfg
        path = tmp_path / "rules.db"
        save_rules(validated, path)
        for _ in range(2):  # a text parse, then a cache hit
            assert load_rules(path) == validated

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        store = self.build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        for _ in range(2):  # a text parse, then a cache hit
            assert load_rules(path) == store

    def test_stores_compare_their_rules_in_order(self, tmp_path):
        store = self.build()
        first, second, *rest = store
        swapped = RuleStore([second, first, *rest], vocab_hash=store.vocab_hash,
                            candidate_counts=store.candidate_counts, config=store.config)
        assert swapped != store and store != list(store)
        path = tmp_path / "rules.db"
        save_rules(swapped, path)
        for _ in range(2):  # a text parse, then a cache hit
            loaded = load_rules(path)
            assert loaded == swapped and loaded != store

    def test_learned_rules_with_the_same_key_text_round_trip(self, tmp_path):
        # prefix "a>b" -> "" and prefix "a" -> "b>" would both print as
        # concat:prefix:a>b> unescaped; each has two support pairs, so both validate.
        words = ["a>bxyz", "xyz", "axyz", "b>xyz", "a>bpqr", "pqr", "apqr", "b>pqr"]
        rng = np.random.default_rng(5)
        table = EmbeddingTable(words, rng.standard_normal((len(words), 16)))
        _, validated = learn_rules(table, Config(t_r_orth=1))
        keys = [r.key for r in validated]
        assert ConcatRule("prefix", "a>b", "") in keys
        assert ConcatRule("prefix", "a", "b>") in keys
        path = tmp_path / "rules.db"
        save_rules(validated, path)
        assert load_rules(path) == validated

    def test_empty_affixes_survive_round_trip(self, tmp_path):
        rule = MorphRule(ConcatRule("prefix", "al", ""), (("almaktab", "maktab"),),
                         RuleScores(1, 1.0, False, (1.0,)))
        store = RuleStore([rule], vocab_hash=vocab_fingerprint(["almaktab", "maktab"]),
                          candidate_counts=COUNTS, config=CONFIG)
        path = tmp_path / "rules.db"
        save_rules(store, path)
        loaded = load_rules(path)
        assert loaded.get("concat:prefix:al>").key == rule.key


class TestAtomicWrite:
    def test_failed_save_keeps_previous_db(self, tmp_path, monkeypatch):
        store = TestDbRoundTrip().build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        before = path.read_bytes()
        store.vocab_hash = vocab_fingerprint(["c"])
        fail_writes_halfway(monkeypatch)
        with pytest.raises(OSError):
            save_rules(store, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["rules.db"]


def cache_of(path):
    return path.with_name(f".{path.name}.jzrcache.npz")


@pytest.fixture
def parses(monkeypatch):
    """A list that grows by one entry per text parse of a rule DB."""
    calls = []
    real = rules._parse_db

    def counting(fh):
        calls.append(fh)
        return real(fh)

    monkeypatch.setattr(rules, "_parse_db", counting)
    return calls


# Valid pair words, with code points of one to four UTF-8 bytes, so that
# sorting by code point and sorting the bytes could disagree if mixed up.
_WORD = st.text("abk>\\éكب𝔸", min_size=1, max_size=4)
_KEY = st.one_of(
    st.builds(ConcatRule, st.sampled_from(["prefix", "suffix"]), st.just(""),
              st.text("abk>\\é", min_size=1, max_size=3)),
    st.sampled_from([Template(("ma", "", "a", "")), Template(("i", "a", "i", "e"))]),
)
# Any Config: every setting across its range, top_n set or not.
_CONFIGS = st.builds(
    Config, t_cos_sim=st.floats(-0.999, 0.999), t_r_sem=st.floats(0.0, 1.0),
    t_r_orth=st.integers(1, 10**6), max_affix=st.integers(0, 10**6),
    min_stem=st.integers(1, 10**6), max_derived_len=st.integers(0, 10**6),
    sample_cap=st.integers(1, 10**6), seed=st.integers(-2**70, 2**70),
    top_n=st.none() | st.integers(0, 10**9))


@st.composite
def saved_stores(draw):
    """A store that save_rules accepts: scored rules with sorted supports."""
    keys = draw(st.lists(_KEY, max_size=4, unique=True))
    rules_ = []
    for key in keys:
        support = sorted(draw(st.sets(st.tuples(_WORD, _WORD), max_size=6)))
        w_sem = draw(st.lists(st.floats(0.0, 1.0), min_size=len(support),
                              max_size=len(support)))
        scores = RuleScores(len(support), draw(st.floats(0.0, 1.0)), draw(st.booleans()),
                            tuple(w_sem))
        rules_.append(MorphRule(key, tuple(support), scores))
    counts = draw(st.fixed_dictionaries({CONCATENATIVE: st.integers(0, 10**6),
                                         TEMPLATIC: st.integers(0, 10**6)}))
    return RuleStore(rules_, vocab_hash=vocab_fingerprint(["a"]), candidate_counts=counts,
                     config=draw(_CONFIGS))


@st.composite
def defective_stores(draw):
    """A store from `saved_stores` with one defect put into one of its rules,
    where the rule has room for it: an unsorted or repeated support pair, an
    orth other than the pair count, a w_sem outside [0, 1] or a bad word."""
    store = draw(saved_stores())
    rules_ = list(store)
    if not rules_:
        return store
    i = draw(st.integers(0, len(rules_) - 1))
    key, support, scores = rules_[i].key, list(rules_[i].support), rules_[i].scores
    w_sem, orth = list(scores.w_sem), scores.orth
    defect = draw(st.sampled_from(["unsorted", "repeated", "orth", "w_sem", "word"]))
    j = draw(st.integers(0, max(len(support) - 1, 0)))
    if defect == "orth" or not support:
        orth += draw(st.integers(1, 3))
    elif defect == "unsorted":
        support.reverse()  # no defect for a single pair
    elif defect == "repeated":
        support.insert(j, support[j])
        w_sem.insert(j, w_sem[j])
        orth += 1
    elif defect == "w_sem":
        w_sem[j] = draw(st.sampled_from([1.5, -0.25, math.nan, math.inf]))
    else:
        support[j] = (draw(st.sampled_from(["", "a b", "a\x07b", "\x85"])), support[j][1])
    rules_[i] = MorphRule(key, tuple(support), replace(scores, orth=orth, w_sem=tuple(w_sem)))
    return RuleStore(rules_, vocab_hash=store.vocab_hash,
                     candidate_counts=store.candidate_counts, config=store.config)


@settings(max_examples=60, deadline=None)
@given(defective_stores())
def test_save_writes_only_what_load_reads_back(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("db") / "rules.db"
    try:
        save_rules(store, path)
    except ValueError:
        assert not path.exists()
    else:
        assert load_rules(path) == store


@settings(max_examples=60, deadline=None)
@given(saved_stores())
def test_ranking_a_loaded_store_unpacks_only_the_rules_it_returns(tmp_path_factory, store):
    path = tmp_path_factory.mktemp("db") / "rules.db"
    save_rules(store, path)
    loaded = load_rules(path)
    listed = RuleStore(list(loaded))
    real, unpacked = rules._unpack, []

    def unpack(*args):
        found = real(*args)
        unpacked.extend(found)
        return found

    with mock.patch.object(rules, "_unpack", side_effect=unpack):
        for kind in ("all", CONCATENATIVE, TEMPLATIC):
            for top_k in (-1, 0, 1, 2, 5):
                unpacked.clear()
                ranked = rank_rules(loaded, kind, top_k)
                assert ranked == rank_rules(listed, kind, top_k)
                assert unpacked == ranked


def one_str_per_word(store) -> bool:
    first: dict[str, str] = {}
    return all(first.setdefault(w, w) is w for rule in store for pair in rule.support
               for w in pair)


class TestDbCache:
    @settings(max_examples=60, deadline=None)
    @given(saved_stores())
    def test_a_hit_equals_the_miss_and_the_saved_store(self, tmp_path_factory, store):
        path = tmp_path_factory.mktemp("db") / "rules.db"
        save_rules(store, path)
        cold = load_rules(path)
        assert cache_of(path).exists()
        with mock.patch.object(rules, "_parse_db", side_effect=AssertionError("parsed")):
            warm = load_rules(path)
        assert cold == store and warm == store
        assert one_str_per_word(cold) and one_str_per_word(warm)
        assert [r.scores.w_sem for r in warm] == [r.scores.w_sem for r in store]

    @staticmethod
    def respoil(path, edit):
        """Rewrite the cache of `path` with `edit` applied to its arrays."""
        with np.load(cache_of(path)) as npz:
            arrays = dict(npz)
        edit(arrays)
        np.savez(cache_of(path), **arrays)

    @staticmethod
    def swap_first_pairs(arrays):
        for name in ("w1", "w2", "w_sem"):
            arrays[name][[0, 1]] = arrays[name][[1, 0]]

    @staticmethod
    def set_word(arrays, pos, word):
        words = arrays["words"].tobytes().decode("utf-8").split("\n")
        words[pos] = word
        arrays["words"] = np.frombuffer("\n".join(words).encode("utf-8"), np.uint8)

    @staticmethod
    def repeat_first_word(arrays):
        first = arrays["words"].tobytes().decode("utf-8").split("\n")[0]
        TestDbCache.set_word(arrays, 1, first)

    # Each edit would decode to another store if its check were missing.
    @pytest.mark.parametrize("edit", [
        lambda a: TestDbCache.set_word(a, 0, "aljar s"),
        lambda a: TestDbCache.set_word(a, 0, "aljar\x07s"),
        lambda a: TestDbCache.set_word(a, 0, ""),
        lambda a: TestDbCache.set_word(a, 1, "zz"),
        lambda a: TestDbCache.repeat_first_word(a),
        lambda a: a.update(words=np.concatenate([a["words"], np.frombuffer(b"\n~ ~", np.uint8)])),
        swap_first_pairs,
        lambda a: a["w_sem"].__setitem__(0, 1.5),
        lambda a: a["w_sem"].__setitem__(0, np.nan),
        lambda a: a["w_sem"].__setitem__(0, -0.25),
        lambda a: a["w2"].__setitem__(0, a["words"].tobytes().count(b"\n") + 1),
        lambda a: a["w1"].__setitem__(0, -1),
        lambda a: a.update({k: a[k][:-1] for k in ("w1", "w2", "w_sem")}),
        lambda a: a.update(w1=a["w1"].astype(np.int64)),
        lambda a: a.update(lines=np.frombuffer(
            a["lines"].tobytes().replace(b"\t2\t1.0\t0", b"\t1\t1.0\t0"), np.uint8)),
        lambda a: a["digest"].__setitem__(0, a["digest"][0] ^ 1),
        lambda a: a.update(tag=np.array("vectors top_n=None")),
    ], ids=["space", "control", "empty", "unsorted-words", "repeated-word",
            "unused-invalid-word", "unsorted-pairs",
            "w_sem-1.5", "w_sem-nan", "w_sem-negative", "index-high", "index-negative",
            "pair-count", "dtype", "orth", "digest", "tag"])
    def test_spoiled_cache_falls_back_to_the_parse(self, tmp_path, parses, edit):
        store = TestDbRoundTrip().build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        load_rules(path)
        self.respoil(path, edit)
        del parses[:]
        assert load_rules(path) == store
        assert load_rules(path) == store  # the parse rewrote the cache
        assert len(parses) == 1

    @pytest.mark.parametrize("spoil", [
        lambda cache: cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2]),
        lambda cache: cache.write_bytes(b"not a zip"),
    ], ids=["truncated", "not-npz"])
    def test_unreadable_cache_falls_back_to_the_parse(self, tmp_path, parses, spoil):
        store = TestDbRoundTrip().build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        load_rules(path)
        spoil(cache_of(path))
        del parses[:]
        assert load_rules(path) == store
        assert len(parses) == 1

    def test_a_defective_db_is_refused_by_line_and_not_cached(self, tmp_path):
        path, lines = TestDbRoundTrip().saved_lines(tmp_path)
        load_rules(path)
        cache_of(path).unlink()
        bad = lines[:5] + [lines[5][:-3] + "1.5"] + lines[6:]
        path.write_text("\n".join(bad) + "\n", encoding="utf-8")
        for _ in range(2):
            with pytest.raises(RuleDbError, match="^line 6: w_sem out of"):
                load_rules(path)
        assert [p.name for p in tmp_path.iterdir()] == ["rules.db"]

    def test_an_edited_db_is_parsed_again(self, tmp_path):
        path, lines = TestDbRoundTrip().saved_lines(tmp_path)
        load_rules(path)
        path.write_text("\n".join(lines[:6] + lines[7:]) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match="^line 5: rule has orth 2 but 1 pairs"):
            load_rules(path)

    def test_read_only_directory_still_loads(self, tmp_path):
        store = TestDbRoundTrip().build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        tmp_path.chmod(0o555)
        try:
            assert load_rules(path) == store
            assert load_rules(path) == store
            if not os.access(tmp_path, os.W_OK):  # the superuser may write anyway
                assert [p.name for p in tmp_path.iterdir()] == ["rules.db"]
        finally:
            tmp_path.chmod(0o755)

    def test_an_unwritable_cache_path_still_loads(self, tmp_path, parses):
        store = TestDbRoundTrip().build()
        path = tmp_path / "rules.db"
        save_rules(store, path)
        cache_of(path).mkdir()  # neither readable nor replaceable as a file
        assert load_rules(path) == store
        assert load_rules(path) == store
        assert len(parses) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [cache_of(path).name, "rules.db"]


class TestVocabFingerprint:
    def test_order_sensitive(self):
        assert vocab_fingerprint(["a", "b"]) != vocab_fingerprint(["b", "a"])

    def test_no_concatenation_ambiguity(self):
        assert vocab_fingerprint(["ab", "c"]) != vocab_fingerprint(["a", "bc"])

    def test_stable(self):
        assert vocab_fingerprint(["a", "b"]) == vocab_fingerprint(["a", "b"])
