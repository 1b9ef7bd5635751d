import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fail_writes_halfway, random_table
from oracles import brute_r_sem, brute_w_sem
from jzr.concat import ConcatRule
from jzr.config import Config
from jzr.embeddings import EmbeddingTable
from jzr.pipeline import learn_rules
from jzr.rules import (
    MorphRule,
    RuleDbError,
    RuleScores,
    RuleStore,
    ScoringSettings,
    Thresholds,
    load_rules,
    prune_rules,
    rank_rules,
    save_rules,
    score_rule,
    support_sample,
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


def scoring(t_cos=0.5, sample_cap=100, seed=42):
    return ScoringSettings(t_cos, sample_cap, seed)


def r_sem(rule, table, **kwargs):
    return score_rule(rule, table, scoring(**kwargs)).sem


def w_sem(pair, rule, table, **kwargs):
    return score_rule(rule, table, scoring(**kwargs)).w_sem[rule.support.index(pair)]


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
        rule, table = random_rule(1, seed=5)
        assert r_sem(rule, table, t_cos=0.99) == 1.0

    def test_offset_planted_scores_one(self):
        rule, table = offset_rule(10, seed=8)
        assert r_sem(rule, table) == pytest.approx(1.0, abs=1e-6)

    def test_random_support_only_diagonal_passes(self):
        rule, table = random_rule(5, seed=23)
        assert r_sem(rule, table, t_cos=0.5) == 0.2

    def test_diagonal_lower_bound(self):
        for seed in range(5):
            rule, table = random_rule(7, seed=seed)
            assert r_sem(rule, table, t_cos=0.9) >= 1 / 7

    def test_empty_support_scores_zero(self):
        rule, _ = random_rule(3, seed=1)
        other = random_table(4, 8, seed=2, prefix="v")
        assert score_rule(rule, other, scoring()) == RuleScores(3, 0.0, False, (0.0,) * 3)

    def test_missing_words_dropped_not_fatal(self):
        rule, table = offset_rule(4, seed=3)
        bigger = MorphRule(rule.key, rule.support + (("nope", "alsonope"),))
        assert r_sem(bigger, table) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 3, 8, 20])
    def test_matches_brute_force_exactly(self, n):
        rule, table = random_rule(n, seed=100 + n)
        assert r_sem(rule, table, t_cos=0.5) == brute_r_sem(table, rule.support, 0.5)

    def test_sampling_deterministic(self):
        rule, table = offset_rule(150, seed=4)
        a = score_rule(rule, table, scoring(sample_cap=50))
        b = score_rule(rule, table, scoring(sample_cap=50))
        assert a == b and a.sampled

    def test_sampling_identity_below_cap(self):
        rule, table = random_rule(10, seed=6)
        assert score_rule(rule, table, scoring(sample_cap=10)) == score_rule(
            rule, table, scoring(sample_cap=10_000)
        )


class TestScoreWSem:
    def test_singleton_support(self):
        rule, table = random_rule(1, seed=9)
        assert w_sem(rule.support[0], rule, table, t_cos=0.99) == 1.0

    def test_offset_planted_genuine_pair(self):
        rule, table = offset_rule(10, seed=11)
        assert w_sem(rule.support[0], rule, table) == pytest.approx(1.0, abs=1e-6)

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
        assert w_sem(("r0", "d0"), rule, table) == pytest.approx(1.0, abs=1e-6)
        mis = w_sem(("zhb", "mazhab"), rule, table)
        assert mis == 1 / 21
        assert mis < 0.3

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_matches_brute_force_exactly(self, n):
        rule, table = random_rule(n, seed=200 + n)
        for pair in rule.support:
            got = w_sem(pair, rule, table, t_cos=0.5)
            assert got == brute_w_sem(table, pair, rule.support, 0.5)

    def test_pair_without_vectors_stores_zero(self):
        rule, table = offset_rule(4, seed=3)
        bigger = MorphRule(rule.key, rule.support + (("nope", "alsonope"),))
        scores = score_rule(bigger, table, scoring())
        assert scores.w_sem[-1] == 0.0
        assert scores.w_sem[:-1] == score_rule(rule, table, scoring()).w_sem

    def test_mean_w_sem_equals_r_sem(self):
        # Row means of the shared indicator matrix recover the full mean.
        for seed in (3, 17, 51):
            rule, table = random_rule(6, dim=16, seed=seed)
            n = len(rule.support)
            scores = score_rule(rule, table, scoring(t_cos=0.35))
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
        store.score_all(table, scoring(), orth_gate=0)
        survivors = prune_rules(store, Thresholds())
        assert sorted(r.key.key_str for r in survivors) == [
            f"concat:prefix:>good{p}" for p in range(5)
        ]

    def test_duplicate_rule_keys_rejected(self):
        rule = MorphRule(ConcatRule("prefix", "", "x"), ())
        with pytest.raises(ValueError):
            RuleStore([rule, MorphRule(ConcatRule("prefix", "", "x"), ())])

    def test_rules_with_the_same_key_text_are_distinct(self):
        a = MorphRule(ConcatRule("prefix", "a>b", ""), ())
        b = MorphRule(ConcatRule("prefix", "a", "b>"), ())
        assert a.key.key_str == b.key.key_str == "concat:prefix:a>b>"
        store = RuleStore([a, b])
        assert list(store) == [a, b]
        assert store.get("concat:prefix:a>b>") is a
        assert store.get("concat:prefix:a>") is None

    def test_records_have_no_instance_dict(self):
        records = [ConcatRule("prefix", "", "x"), Template(("m", "", "", "")),
                   MorphRule(ConcatRule("prefix", "", "x"), ()), RuleScores(0, 0.0, False)]
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
        rule, table = random_rule(n, dim=16, seed=seed)
        got = r_sem(rule, table, t_cos=0.4, sample_cap=100)
        assert got == brute_r_sem(table, rule.support, 0.4)


class TestStoredWSem:
    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=12),
           st.integers(min_value=0, max_value=10_000), st.sampled_from([0.0, 0.3, 0.5]),
           st.integers(min_value=-14, max_value=2))
    @settings(max_examples=60)
    def test_stored_scores_equal_the_oracles(self, n, cap, seed, t_cos, scale_exp):
        # Supports above `cap` put most pairs outside the sample, where their
        # w_sem comes from the blockwise out-of-sample pass. Scaled tables put
        # vector norms on both sides of the zero-norm guard.
        rule, unit = random_rule(n, dim=16, seed=seed)
        table = EmbeddingTable.from_vectors(unit.words, unit.matrix * 10.0 ** scale_exp,
                                            normalize=False)
        store = RuleStore([rule])
        sc = ScoringSettings(t_cos, cap, seed)
        store.score_all(table, sc, orth_gate=0)
        assert store.scoring is sc
        _, sample = support_sample(rule, table, cap, seed)
        sample_pairs = [rule.support[i] for i in sample]
        assert rule.scores.sampled == (n > cap)
        assert rule.scores.sem == brute_r_sem(table, sample_pairs, t_cos)
        assert len(rule.scores.w_sem) == n
        for pair, got in zip(rule.support, rule.scores.w_sem):
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
        rule = MorphRule(ConcatRule("prefix", "", "x"), (("a", "b"), ("c", "z")))
        for _ in range(200):
            v, u = rng.standard_normal((2, 8)) * scale
            table = EmbeddingTable.from_vectors(["a", "b", "c", "z"],
                                                [v, u, v, np.zeros(8)], normalize=False)
            RuleStore([rule]).score_all(table, scoring(t_cos=t_cos), orth_gate=0)
            brute = tuple(brute_w_sem(table, pair, rule.support, t_cos)
                          for pair in rule.support)
            assert rule.scores.w_sem == brute == expected

    def test_gated_rules_keep_no_pair_scores(self):
        rule, table = random_rule(3, seed=2)
        twin = MorphRule(ConcatRule("suffix", "", "x"), rule.support[::-1])
        store = RuleStore([rule, twin])
        store.score_all(table, scoring(), orth_gate=3)
        assert rule.scores == RuleScores(3, 0.0, False)
        # Gated rules of one orth share one (frozen) scores object.
        assert twin.scores is rule.scores


SCORING = ScoringSettings(0.5, 100, 42)


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
                         scoring=SCORING)

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
        assert lines[0] == "#morphruledb 2"
        assert lines[3] == "#scoring t_cos_sim=0.5 sample_cap=100 seed=42"
        assert lines[4:7] == ["rule\tconcatenative\tprefix\t\tal\t2\t1.0\t0",
                              "pair\tjaras\taljaras\t1.0",
                              "pair\tmaktab\talmaktab\t0.5"]

    # Each edit of the saved DB, and the line the error must name. Lines 5-7
    # are the "al" rule and its two pairs.
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
        (lambda ls: ls[:4] + [ls[4][:-1] + "yes"] + ls[5:], 5, "sampled must be 0 or 1"),
        (lambda ls: ls[:3] + ["#scoring t_cos_sim=0.5 seed=42"] + ls[4:], 4, "#scoring"),
        (lambda ls: ls[:3] + [ls[3].replace("=0.5", "=5.0")] + ls[4:], 4, "t_cos_sim"),
        (lambda ls: ls[:3] + [ls[3].replace("=100", "=0")] + ls[4:], 4, "sample_cap"),
    ])
    def test_defect_is_reported_with_its_line(self, tmp_path, edit, lineno, message):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match=f"^line {lineno}: .*{message}"):
            load_rules(path)

    def test_missing_scoring_header(self, tmp_path):
        path, lines = self.saved_lines(tmp_path)
        path.write_text("\n".join(lines[:3] + lines[4:]) + "\n", encoding="utf-8")
        with pytest.raises(RuleDbError, match="#scoring"):
            load_rules(path)

    def test_learned_rules_with_the_same_key_text_round_trip(self, tmp_path):
        # prefix "a>b" -> "" and prefix "a" -> "b>" both print as
        # concat:prefix:a>b>; each has two support pairs, so both validate.
        words = ["a>bxyz", "xyz", "axyz", "b>xyz", "a>bpqr", "pqr", "apqr", "b>pqr"]
        rng = np.random.default_rng(5)
        table = EmbeddingTable.from_vectors(words, rng.standard_normal((len(words), 16)))
        _, validated = learn_rules(table, Config(thresholds=Thresholds(t_r_orth=1)))
        keys = [r.key for r in validated]
        assert ConcatRule("prefix", "a>b", "") in keys
        assert ConcatRule("prefix", "a", "b>") in keys
        path = tmp_path / "rules.db"
        save_rules(validated, path)
        assert load_rules(path) == validated

    def test_empty_affixes_survive_round_trip(self, tmp_path):
        rule = MorphRule(ConcatRule("prefix", "al", ""), (("almaktab", "maktab"),),
                         RuleScores(1, 1.0, False, (1.0,)))
        store = RuleStore([rule], scoring=SCORING)
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


class TestVocabFingerprint:
    def test_order_sensitive(self):
        assert vocab_fingerprint(["a", "b"]) != vocab_fingerprint(["b", "a"])

    def test_no_concatenation_ambiguity(self):
        assert vocab_fingerprint(["ab", "c"]) != vocab_fingerprint(["a", "bc"])

    def test_stable(self):
        assert vocab_fingerprint(["a", "b"]) == vocab_fingerprint(["a", "b"])
