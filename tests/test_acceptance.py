"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s` to watch the
lines scroll by, or plain `pytest` to just gate on them.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from conftest import random_table
from oracles import (
    analogy_score,
    brute_concat_rules,
    brute_r_sem,
    brute_templatic_rules,
    brute_w_sem,
)
from jzr.concat import ConcatRule, enumerate_concat_rules
from jzr.config import Config
from jzr.evalharness import evaluate
from jzr.pipeline import learn_rules
from jzr.rules import (
    Thresholds,
    prune_rules,
    score_rule,
)
from jzr.synthlang import SynthConfig, generate
from jzr.templatic import Template, enumerate_templatic_rules
from jzr.cli import main as cli_main


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {number} PASS: {title}")
            return result
        return wrapper
    return decorate


def planted_closure(config: SynthConfig) -> set[str]:
    """Every rule the planted morphology truly licenses, in canonical form.

    Mining is direction-agnostic, so each planted insertion also surfaces as
    its mirror deletion, same-side planted affix pairs surface as
    replacement rules, and a pure affix insertion is orthographically
    indistinguishable from an edge-literal-only template. All of those are
    correct discoveries about the planted language; anything outside this
    closure is a false positive.
    """
    expected: set[str] = set()
    for template in config.templates:
        expected.add(template.key_str)
    by_side = {"prefix": [], "suffix": []}
    for affix in config.affixes:
        expected.add(affix.key_str)
        expected.add(ConcatRule(affix.side, affix.new, "").key_str)
        if affix.side == "prefix":
            twin = Template((affix.new, "", "", ""))
        else:
            twin = Template(("", "", "", affix.new))
        expected.add(twin.key_str)
        by_side[affix.side].append(affix.new)
    for side, group in by_side.items():
        for x in group:
            for y in group:
                if x != y:
                    expected.add(ConcatRule(side, x, y).key_str)
    return expected


@criterion(1, "planted-rule recovery on the 200-root fixture, under 60 s")
def test_criterion_1_planted_rule_recovery():
    started = time.monotonic()
    synth = SynthConfig()  # 200 roots, 5 templates, 5 affixes, dim 64, sigma 0.01, seed 42
    words, table, gold = generate(synth)
    candidates, validated = learn_rules(table, Config())
    elapsed = time.monotonic() - started

    planted = {rule.key_str for rule in synth.rules}
    assert len(planted) == 10
    validated_keys = {rule.key.key_str for rule in validated}

    # No misses: every planted rule validates, with a decisive score.
    for ks in planted:
        assert ks in validated_keys, f"planted rule {ks} was not recovered"
        scores = validated.get(ks).scores
        assert scores.sem > 0.9 and scores.orth == 200

    # No false positives: among candidates with support above the
    # orthographic threshold, exactly the closure of the planted system
    # survives the semantic test.
    assert validated_keys == planted_closure(synth)
    assert elapsed < 60.0, f"learning took {elapsed:.1f}s"


@criterion(2, "full extraction >= 95% on chained words; limited strictly "
              "worse and never ahead")
def test_criterion_2_extraction_accuracy(depth2, depth2_predictions):
    derived, full, limited, gold_roots = depth2_predictions
    assert len(derived) == 7000
    report = evaluate({"full": full, "limited": limited}, gold_roots)
    assert report.accuracy("full") >= 0.95
    assert report.accuracy("limited") < report.accuracy("full")
    assert report.matrix["limited"]["full"] == 0


@criterion(3, "sampled scores equal the quadratic brute-force oracle bitwise "
              "below the sampling cap")
def test_criterion_3_scoring_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for trial in range(50):
        n_pairs = int(rng.integers(1, 101))
        table = random_table(2 * n_pairs, 32, seed=int(rng.integers(1 << 30)))
        pairs = tuple(
            (f"w{2 * i}", f"w{2 * i + 1}") for i in range(n_pairs)
        )
        scores = score_rule(ConcatRule("prefix", "", "x"), pairs, table,
                            Config())
        assert scores.sem == brute_r_sem(table, pairs, 0.5)
        for i in rng.integers(0, n_pairs, size=min(3, n_pairs)).tolist():
            assert scores.w_sem[i] == brute_w_sem(table, pairs[i], pairs, 0.5)


@criterion(4, "analogy identities: self-pairs score 1; sigma-0 planted rules "
              "score sem 1")
def test_criterion_4_analogy_identities():
    table = random_table(500, 64, seed=7)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        i, j = rng.choice(500, size=2, replace=False)
        score = analogy_score(table, f"w{i}", f"w{j}", f"w{i}", f"w{j}")
        assert abs(score - 1.0) < 1e-6

    synth = SynthConfig(n_roots=60, noise_sigma=0.0)
    words, planted_table, gold = generate(synth)
    for rule in synth.rules:
        ks = rule.key_str
        pairs = tuple(sorted((e.root, w) for w, e in gold.items() if e.chain == (ks,)))
        assert len(pairs) == 60
        sem = score_rule(rule, pairs, planted_table, Config()).sem
        assert abs(sem - 1.0) < 1e-6


@criterion(5, "all traces terminate within the length budget; raising any "
              "threshold never adds rules")
def test_criterion_5_termination_and_monotonicity(depth1, depth2,
                                                  depth2_extractor):
    rng = np.random.default_rng(4242)
    alphabet = list("bBdDfgGjklnprsxz") + list("maetiuo") + list("wAhyqcv")
    for _ in range(10_000):
        length = int(rng.integers(3, 21))
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), length))
        trace = depth2_extractor.extract(word)
        assert len(trace.steps) <= max(length - 3, 0)
        lengths = [length] + [len(s.word) for s in trace.steps]
        assert all(a > b for a, b in zip(lengths, lengths[1:]))
        assert trace.status in ("reached_triliteral", "infeasible_stop")
        if trace.status == "reached_triliteral":
            assert len(trace.final) <= 3

    base = Thresholds()
    baseline = len(prune_rules(depth1.candidates, base))
    for raised in (
        Thresholds(t_r_sem=0.2), Thresholds(t_r_sem=0.7),
        Thresholds(t_r_orth=25), Thresholds(t_r_orth=100),
        Thresholds(t_r_sem=0.5, t_r_orth=50),
        Thresholds(t_w_sem=0.5),
    ):
        assert len(prune_rules(depth1.candidates, raised)) <= baseline


@criterion(6, "both enumerators match all-pairs brute force on 100 random "
              "vocabularies")
def test_criterion_6_orthographic_oracles():
    rng = np.random.default_rng(606)
    for trial in range(100):
        n_words = int(rng.integers(2, 201))
        n_letters = int(rng.integers(2, 7))
        letters = "abcdefgh"[:n_letters]
        vocab = list(dict.fromkeys(
            "".join(letters[k] for k in rng.integers(0, n_letters,
                                                     int(rng.integers(1, 9))))
            for _ in range(n_words)
        ))
        assert dict(enumerate_concat_rules(vocab)) == brute_concat_rules(vocab)
        assert enumerate_templatic_rules(vocab) == brute_templatic_rules(vocab)


@criterion(7, "worked agentive/place templates and definite-article pairs "
              "are generated")
def test_criterion_7_worked_examples():
    templates = enumerate_templatic_rules(["ktb", "kAtib", "maktab"])
    assert templates[Template(("", "A", "i", ""))] == (("ktb", "kAtib"),)
    assert templates[Template(("ma", "", "a", ""))] == (("ktb", "maktab"),)

    vocab = ["maktab", "almaktab", "wamaktab", "jaras", "aljaras"]
    rules = dict(enumerate_concat_rules(vocab))
    assert ("maktab", "almaktab") in rules[ConcatRule("prefix", "", "al")]
    assert ("almaktab", "wamaktab") in rules[ConcatRule("prefix", "al", "wa")]


@criterion(8, "the synth-learn-extract-eval pipeline is byte-reproducible")
def test_criterion_8_determinism(tmp_path, capsys):
    def run(workdir):
        workdir.mkdir()
        fix = workdir / "fix"
        assert cli_main(["synth", "--out", str(fix), "--n-roots", "30",
                         "--seed", "11", "--chain-depth", "2"]) == 0
        db = workdir / "rules.db"
        assert cli_main(["learn", "--vectors", str(fix / "vectors.txt"),
                         "--out", str(db)]) == 0
        gold_lines = (fix / "gold.tsv").read_text(encoding="utf-8").splitlines()
        words_file = workdir / "words.txt"
        words_file.write_text(
            "\n".join(line.split("\t")[0] for line in gold_lines) + "\n",
            encoding="utf-8",
        )
        traces = {}
        for mode, flag in (("full", []), ("limited", ["--limited"])):
            out = workdir / f"traces_{mode}.tsv"
            assert cli_main(["extract", "--rules", str(db),
                             "--words", str(words_file), "--out", str(out)]
                            + flag) == 0
            traces[mode] = out
        report = workdir / "report.tsv"
        assert cli_main(["eval", "--gold", str(fix / "gold.tsv"),
                         "--pred", f"full={traces['full']}",
                         "--pred", f"limited={traces['limited']}",
                         "--out", str(report)]) == 0
        return [fix / "vectors.txt", fix / "gold.tsv", db,
                traces["full"], traces["limited"], report]

    first = run(tmp_path / "one")
    second = run(tmp_path / "two")
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), f"{a.name} differs between runs"
