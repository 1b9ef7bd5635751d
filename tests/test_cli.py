import functools
import hashlib
import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import fail_writes_halfway
from jzr import cli, concat, embeddings
from jzr.cli import main
from jzr.concat import PREFIX, ConcatRule, enumerate_concat_rules
from jzr.config import SETTING_TYPES
from jzr.embeddings import load_embeddings
from jzr.rules import load_rules
from jzr.synthlang import SynthConfig, load_gold, write_fixture


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small synth fixture plus a learned rule DB, built through the CLI."""
    root = tmp_path_factory.mktemp("cliws")
    fix = root / "fix"
    assert main(["synth", "--out", str(fix), "--n-roots", "30", "--seed", "11",
                 "--chain-depth", "2"]) == 0
    db = root / "rules.db"
    assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                 "--out", str(db)]) == 0
    return root, fix, db


class TestSynth:
    def test_writes_loadable_fixture(self, tmp_path, capsys):
        out = tmp_path / "fix"
        assert main(["synth", "--out", str(out), "--n-roots", "5", "--seed", "3"]) == 0
        table = load_embeddings(out / "vectors.txt")
        gold = load_gold(out / "gold.tsv")
        assert len(table) == 5 * 11 == len(gold)
        assert "wrote" in capsys.readouterr().out

    def test_unset_flags_take_synthconfig_defaults(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
        write_fixture(SynthConfig(), tmp_path / "api")
        for name in "vectors.txt", "gold.tsv":
            assert ((tmp_path / "cli" / name).read_bytes()
                    == (tmp_path / "api" / name).read_bytes())


class TestLearn:
    def test_summary_line(self, workspace, capsys):
        root, fix, db = workspace
        db2 = root / "again.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(db2)]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out and "validated:" in out

    def test_rerun_is_byte_identical(self, workspace):
        root, fix, db = workspace
        db2 = root / "again.db"
        assert db.read_bytes() == db2.read_bytes()

    def test_validated_rules_present(self, workspace):
        _, _, db = workspace
        store = load_rules(db)
        assert store.get("concat:prefix:>wA") is not None
        assert store.get("tmpl:ma<C1><C2>a<C3>u") is not None

    def test_empty_after_cap(self, tmp_path, workspace, capsys):
        _, fix, _ = workspace
        db = tmp_path / "empty.db"
        code = main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(db), "--top-n", "0"])
        captured = capsys.readouterr()
        assert code == 0
        assert "empty" in captured.err
        assert len(load_rules(db)) == 0

    def test_missing_vectors_is_data_error(self, tmp_path, capsys):
        code = main(["learn", "--vectors", str(tmp_path / "nope.txt"),
                     "--out", str(tmp_path / "x.db")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_over_the_pair_budget_is_data_error(self, workspace, tmp_path, monkeypatch,
                                                capsys):
        # One pair under the prefix side's count: refused before any rule is
        # made, with one error line, and no DB is written.
        _, fix, _ = workspace
        words = load_embeddings(fix / "vectors.txt").words
        pairs = sum(len(rule.support) for rule in enumerate_concat_rules(words)
                    if rule.key.side == PREFIX)
        monkeypatch.setattr(concat, "PAIR_BUDGET", pairs - 1)
        db = tmp_path / "refused.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"), "--out", str(db)]) == 2
        assert capsys.readouterr().err == (
            f"error: prefix side of concatenative mining: its rules would hold {pairs:,} "
            f"support pairs, over the budget of {pairs - 1:,}\n")
        assert not db.exists()

    def test_malformed_vectors_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("word one two\n", encoding="utf-8")
        code = main(["learn", "--vectors", str(bad), "--out", str(tmp_path / "x.db")])
        assert code == 2


class TestRank:
    def test_rank_table(self, workspace, capsys):
        _, _, db = workspace
        assert main(["rank", "--rules", str(db), "--top", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            key, orth, sem = line.split("\t")
            assert int(orth) > 20
            assert 0.0 <= float(sem) <= 1.0

    def test_rank_kind_filter(self, workspace, capsys):
        _, _, db = workspace
        assert main(["rank", "--rules", str(db), "--kind", "templatic"]) == 0
        out = capsys.readouterr().out
        assert out and all(line.startswith("tmpl:") for line in out.strip().splitlines())

    def test_rank_top_zero(self, workspace, capsys):
        _, _, db = workspace
        assert main(["rank", "--rules", str(db), "--top", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_repeated_rule_record_is_data_error(self, workspace, tmp_path, capsys):
        # A copy of the first rule record and its pairs, appended to the DB.
        _, _, db = workspace
        lines = db.read_text(encoding="utf-8").splitlines(keepends=True)
        rule_at = [i for i, line in enumerate(lines) if line.startswith("rule\t")]
        first = lines[rule_at[0]:rule_at[1] if len(rule_at) > 1 else len(lines)]
        doubled = tmp_path / "doubled.db"
        doubled.write_text("".join(lines + first), encoding="utf-8")
        assert main(["rank", "--rules", str(doubled)]) == 2
        err = capsys.readouterr().err
        assert f"line {len(lines) + 1}: repeats rule" in err
        assert f"of line {rule_at[0] + 1}" in err

    @pytest.mark.parametrize("replacement, message", [
        ([], "rule DB has no #candidates header line"),
        (["#candidates templatic=5"], "line 3: #candidates count is negative or missing"),
    ], ids=["missing", "one-count"])
    def test_db_without_both_candidate_counts_is_data_error(self, workspace, tmp_path,
                                                            capsys, replacement, message):
        _, _, db = workspace
        lines = db.read_text(encoding="utf-8").splitlines()
        assert lines[2].startswith("#candidates ")
        edited = tmp_path / "edited.db"
        edited.write_text("\n".join(lines[:2] + replacement + lines[3:]) + "\n",
                          encoding="utf-8")
        assert main(["rank", "--rules", str(edited)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_rank_negative_top_is_usage_error(self, workspace, capsys):
        _, _, db = workspace
        assert main(["rank", "--rules", str(db), "--top", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: --top" in captured.err


class TestExtract:
    def test_invalid_word_is_data_error(self, workspace, tmp_path):
        _, _, db = workspace
        words = tmp_path / "words.txt"
        words.write_text("two words\n", encoding="utf-8")
        assert main(["extract", "--rules", str(db), "--words", str(words)]) == 2

    @pytest.mark.parametrize("line", ["ab\x85cd", "\u3000ktb", "ab\x0bcd", "ab\x1ccd",
                                      "ab\u2028cd", "ab\rcd"])
    def test_words_file_line_is_checked_as_its_word_flag(self, workspace, tmp_path,
                                                         capsys, line):
        _, _, db = workspace
        argv = ["extract", "--rules", str(db)]
        assert main(argv + ["--word", line]) == 2
        word_err = capsys.readouterr().err
        words = tmp_path / "words.txt"
        words.write_bytes(f" {line}\t\r\n".encode("utf-8"))
        assert main(argv + ["--words", str(words)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == word_err
        assert "word contains whitespace or a control character" in word_err

    def test_single_word_trace(self, workspace, capsys):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        word, entry = next((w, e) for w, e in gold.items() if len(e.chain) == 2)
        assert main(["extract", "--rules", str(db), "--word", word]) == 0
        line = capsys.readouterr().out.strip()
        fields = line.split("\t")
        assert fields[0] == word
        assert fields[1] == entry.root
        assert fields[2] == "reached_triliteral"

    def test_words_file_skips_a_leading_byte_order_mark(self, workspace, tmp_path, capsys):
        _, fix, db = workspace
        words = list(load_gold(fix / "gold.tsv"))[:3]
        words_file = tmp_path / "words.txt"
        text = "\n".join(words) + "\n"
        words_file.write_text(text, encoding="utf-8")
        assert main(["extract", "--rules", str(db), "--words", str(words_file)]) == 0
        plain = capsys.readouterr().out
        words_file.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert main(["extract", "--rules", str(db), "--words", str(words_file)]) == 0
        assert capsys.readouterr().out == plain
        assert plain.startswith(words[0] + "\t")

    def test_words_file_preserves_order(self, workspace, tmp_path, capsys):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        words = list(gold)[:7]
        words_file = tmp_path / "words.txt"
        words_file.write_text("\n".join(words) + "\n", encoding="utf-8")
        out_file = tmp_path / "traces.tsv"
        assert main(["extract", "--rules", str(db),
                     "--words", str(words_file), "--out", str(out_file)]) == 0
        got = [l.split("\t")[0] for l in
               out_file.read_text(encoding="utf-8").strip().splitlines()]
        assert got == words

    @pytest.mark.parametrize("flags", [[], ["--limited"]])
    def test_repeated_words_print_their_single_word_lines(self, workspace, tmp_path,
                                                          capsys, flags):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        derived = next(w for w, e in gold.items() if len(e.chain) == 2)
        root = next(w for w, e in gold.items() if not e.chain)
        words = [derived, root, derived, "notaword", derived, root, "ab"]
        argv = ["extract", "--rules", str(db)] + flags
        single = {}
        for word in set(words):
            assert main(argv + ["--word", word]) == 0
            single[word] = capsys.readouterr().out
        words_file = tmp_path / "words.txt"
        words_file.write_text("\n".join(words) + "\n", encoding="utf-8")
        assert main(argv + ["--words", str(words_file)]) == 0
        assert capsys.readouterr().out == "".join(single[w] for w in words)

    def test_limited_flag(self, workspace, capsys):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        word = next(w for w, e in gold.items()
                    if len(e.chain) == 1 and e.chain[0].startswith("tmpl:"))
        assert main(["extract", "--rules", str(db), "--word", word, "--limited"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t")[2] == "infeasible_stop"

    def test_db_learned_with_other_scoring_settings_extracts(self, workspace, tmp_path,
                                                           capsys):
        # `extract` reads only t_w_sem and passes no scoring settings, so the
        # DB's own are never checked against another's.
        _, fix, _ = workspace
        db = tmp_path / "other.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"), "--out", str(db),
                     "--t-cos-sim", "0.3", "--sample-cap", "50", "--seed", "7"]) == 0
        capsys.readouterr()
        word = next(iter(load_gold(fix / "gold.tsv")))
        assert main(["extract", "--rules", str(db), "--word", word]) == 0
        assert capsys.readouterr().out.startswith(word + "\t")

    @pytest.mark.parametrize("value", ["1.5", "nan"])
    def test_invalid_t_w_sem_is_usage_error(self, workspace, capsys, value):
        _, _, db = workspace
        code = main(["extract", "--rules", str(db), "--word", "abcd", "--t-w-sem", value])
        assert code == 1
        assert capsys.readouterr().err == (
            "usage error: invalid configuration: t_w_sem must lie in [0, 1]\n")

    @pytest.mark.parametrize("flag, value", [
        ("--t-r-sem", "0.2"), ("--t-r-orth", "5"), ("--max-affix", "1"),
        ("--min-stem", "3"), ("--max-derived-len", "10"),
        ("--t-cos-sim", "0.5"), ("--sample-cap", "100"), ("--seed", "42"),
        ("--vectors", "vectors.txt"), ("--top-n", "5"), ("--config", "cfg.json"),
    ])
    def test_learn_only_flag_is_usage_error(self, workspace, capsys, flag, value):
        _, _, db = workspace
        code = main(["extract", "--rules", str(db), "--word", "abcd", flag, value])
        assert code == 1
        assert f"usage error: unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_format_1_db_is_refused(self, tmp_path, capsys):
        old = tmp_path / "old.db"
        old.write_text("#morphruledb 1\n#vocab-hash x\n", encoding="utf-8")
        code = main(["extract", "--rules", str(old), "--word", "abcd"])
        assert code == 2
        assert "re-run `jzr learn`" in capsys.readouterr().err

    def test_format_2_db_is_refused_with_or_without_its_cache(self, workspace, tmp_path,
                                                              capsys):
        # Format 2 recorded three settings in a #scoring line. A cache of such
        # a DB holds its lines, so it has no #config line: its decode fails,
        # which is a miss, and the parse refuses the magic line.
        _, _, db = workspace
        old = tmp_path / "old.db"
        old.write_bytes(db.read_bytes())
        load_rules(old)  # caches it
        lines = db.read_text(encoding="utf-8").split("\n")
        config_line, scoring_line = lines[3], "#scoring t_cos_sim=0.5 sample_cap=100 seed=42"
        lines[0], lines[3] = "#morphruledb 2", scoring_line
        text = "\n".join(lines).encode("utf-8")
        old.write_bytes(text)
        cache = tmp_path / ".old.db.jzrcache.npz"
        with np.load(cache) as npz:
            arrays = dict(npz)
        arrays["digest"] = np.frombuffer(hashlib.sha256(text).digest(), np.uint8)
        np.savez(cache, **arrays)
        assert load_rules(old) == load_rules(db)  # a hit: the parse would refuse it
        arrays["lines"] = np.frombuffer(arrays["lines"].tobytes().replace(
            config_line.encode("utf-8"), scoring_line.encode("utf-8")), np.uint8)
        np.savez(cache, **arrays)
        for _ in range(2):  # with the cache, then without it
            assert main(["extract", "--rules", str(old), "--word", "abcd"]) == 2
            assert capsys.readouterr().err == (
                "error: rule DB format 2 is no longer read; re-run `jzr learn` to rebuild it\n")
            cache.unlink(missing_ok=True)

    def test_db_without_vocab_hash_is_data_error(self, workspace, tmp_path, capsys):
        # Without the line, the DB would not name the vocabulary it was learned from.
        _, _, db = workspace
        edited = tmp_path / "edited.db"
        lines = db.read_text(encoding="utf-8").splitlines(keepends=True)
        edited.write_text("".join(x for x in lines if not x.startswith("#vocab-hash")),
                          encoding="utf-8")
        code = main(["extract", "--rules", str(edited), "--word", "abcd"])
        assert code == 2
        assert "#vocab-hash" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, name", [
        ("t_cos_sim=0.5", "t_cos_sim=5.0", "t_cos_sim"),
        ("sample_cap=100", "sample_cap=0", "sample_cap"),
    ])
    def test_db_with_invalid_scoring_is_data_error(self, workspace, tmp_path, capsys,
                                                   old, new, name):
        # The DB is at fault, not the flags: exit 2, naming the #config line.
        _, _, db = workspace
        edited = tmp_path / "edited.db"
        edited.write_text(db.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        code = main(["extract", "--rules", str(edited), "--word", "abcd"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 4: {name}") and "usage error" not in err


class TestVectorCache:
    def test_outputs_are_the_same_on_a_cache_miss_and_a_hit(self, tmp_path, monkeypatch):
        parses = []
        real = embeddings._parse
        monkeypatch.setattr(embeddings, "_parse",
                            lambda *args: parses.append(args[2]) or real(*args))
        vectors, gold = write_fixture(SynthConfig(n_roots=12, chain_depth=2, seed=5),
                                      tmp_path / "fix")
        cache = vectors.with_name(".vectors.txt.jzrcache.npz")
        words = tmp_path / "words.txt"
        gold_words = list(load_gold(gold))
        words.write_text("".join(w + "\n" for w in gold_words), encoding="utf-8")
        dbs, traces = [], []
        for run in range(2):
            dbs.append(tmp_path / f"rules{run}.db")
            assert main(["learn", "--vectors", str(vectors), "--out", str(dbs[-1])]) == 0
        assert parses == [vectors] and cache.exists()
        cache.unlink()
        for run in range(2):  # a DB parse, then a DB cache hit
            traces.append(tmp_path / f"traces{run}.txt")
            assert main(["extract", "--rules", str(dbs[0]),
                         "--words", str(words), "--out", str(traces[-1])]) == 0
        # Extraction reads the rule DB alone: no vector parse and no vector cache.
        assert parses == [vectors] and not cache.exists()
        assert dbs[0].read_bytes() == dbs[1].read_bytes()
        assert traces[0].read_bytes() == traces[1].read_bytes()
        assert len(traces[0].read_text(encoding="utf-8").splitlines()) == len(gold_words)


class TestEval:
    def test_eval_report(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\nw2\tdrs\n", encoding="utf-8")
        pa = tmp_path / "a.tsv"
        pa.write_text("w1\tktb\nw2\tdrs\n", encoding="utf-8")
        pb = tmp_path / "b.tsv"
        pb.write_text("w1\tktb\nw2\txxx\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold),
                     "--pred", f"a={pa}", "--pred", f"b={pb}"]) == 0
        out = capsys.readouterr().out
        assert "accuracy\ta\t2/2\t1.0" in out
        assert "accuracy\tb\t1/2\t0.5" in out
        assert "matrix\ta\t0\t1" in out

    def test_eval_json(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\n", encoding="utf-8")
        pa = tmp_path / "a.tsv"
        pa.write_text("w1\tktb\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", f"a={pa}",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy"]["a"] == 1.0

    def test_repeated_pred_name_is_usage_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\n", encoding="utf-8")
        code = main(["eval", "--gold", str(gold), "--pred", f"full={gold}",
                     "--pred", f"full={gold}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "" and "usage error: --pred gives 'full' twice" in captured.err

    def test_bad_pred_spec_is_usage_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\n", encoding="utf-8")
        code = main(["eval", "--gold", str(gold), "--pred", "nopath"])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    def test_word_given_two_roots_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("a\tb\na\tc\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", f"a={gold}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {gold}: line 2: 'a' has root 'c', "
                                "but line 1 gives 'b'\n")

    def test_short_prediction_line_names_its_file(self, tmp_path, capsys):
        gold = tmp_path / "g.tsv"
        gold.write_text("w1\tktb\n", encoding="utf-8")
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        pa.write_text("w1\tktb\n", encoding="utf-8")
        pb.write_text("w1\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", f"a={pa}", "--pred", f"b={pb}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {pb}: line 1: needs at least 2 "
                                "tab-separated fields: 'w1'\n")

    def test_coverage_mismatch_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\nw2\tdrs\n", encoding="utf-8")
        pa = tmp_path / "a.tsv"
        pa.write_text("w1\tktb\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", f"a={pa}"]) == 2


def readme_commands() -> list[list[str]]:
    """The argv of each `jzr ...` command in README's fenced bash blocks,
    with its `\\` continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("jzr ")]


def test_readme_commands_parse():
    # Stale docs fail here: every documented command line must still parse,
    # and each command is shown at least once.
    commands = readme_commands()
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except cli.UsageError as exc:
            pytest.fail(f"README's `jzr {shlex.join(argv)}`: {exc}")
    assert {argv[0] for argv in commands} == set(cli._COMMANDS)


class TestUsageAndConfig:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["learn", "--out", "x.db"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_flag_beats_config_file(self, workspace, tmp_path):
        # File caps the vocabulary at 5 words; the flag restores the full
        # fixture, so the learned DB must match the no-config run in every
        # line but #config, which records the flag's top_n.
        root, fix, db = workspace
        n_words = len(load_embeddings(fix / "vectors.txt"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_n": 5}), encoding="utf-8")
        out = tmp_path / "flagwins.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(out), "--config", str(cfg),
                     "--top-n", str(n_words)]) == 0
        assert load_rules(out).config == replace(load_rules(db).config, top_n=n_words)
        flagged, plain = (p.read_text(encoding="utf-8").split("\n") for p in (out, db))
        assert flagged[3].startswith("#config ") and plain[3].startswith("#config ")
        assert flagged[:3] + flagged[4:] == plain[:3] + plain[4:]

    def test_config_file_applies_without_flag(self, workspace, tmp_path):
        root, fix, db = workspace
        cfg = tmp_path / "cfg.json"
        # A JSON integer is a valid value for a float setting.
        cfg.write_text(json.dumps({"t_r_orth": 10_000, "t_cos_sim": 0}), encoding="utf-8")
        out = tmp_path / "strict.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(out), "--config", str(cfg)]) == 0
        assert len(load_rules(out)) == 0
        assert "\n#config t_cos_sim=0.0 " in out.read_text(encoding="utf-8")

    def test_config_file_skips_a_leading_byte_order_mark(self, workspace, tmp_path):
        root, fix, db = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"t_cos_sim": 0.25}).encode("utf-8"))
        out = tmp_path / "bom.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(out), "--config", str(cfg)]) == 0
        assert "\n#config t_cos_sim=0.25 " in out.read_text(encoding="utf-8")

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path, capsys):
        root, fix, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}), encoding="utf-8")
        code = main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(tmp_path / "x.db"), "--config", str(cfg)])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("values, message", [
        ({"sample_cap": 0}, "sample_cap must be at least 1"),
        ({"nonsense": None}, "unknown config keys: nonsense"),
        ({"group_cap": 10_000}, "unknown config keys: group_cap"),
        ({"t_r_orth": "x"}, "t_r_orth must be int, got 'x'"),
        ({"t_cos_sim": "0.5"}, "t_cos_sim must be float, got '0.5'"),
        ({"seed": 1.5}, "seed must be int, got 1.5"),
        ({"t_r_orth": True}, "t_r_orth must be int, got True"),
        ({"vector_format": "headered"}, "unknown config keys: vector_format"),
        ([1], "config file must hold a JSON object"),
        ({"max_affix": -1}, "max_affix cannot be negative"),
        ({"max_derived_len": -1}, "max_derived_len cannot be negative"),
    ])
    def test_invalid_config_file_value_is_usage_error(self, workspace, tmp_path, capsys,
                                                      values, message):
        _, fix, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values), encoding="utf-8")
        code = main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(tmp_path / "x.db"), "--config", str(cfg)])
        assert code == 1
        assert f"usage error: invalid configuration: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x.db").exists()

    def test_unparsable_config_file_is_data_error(self, workspace, tmp_path):
        _, fix, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json", encoding="utf-8")
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(tmp_path / "x.db"), "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("flag, value", [("--min-stem", "0"), ("--top-n", "-1"),
                                             ("--t-r-sem", "1.5"), ("--sample-cap", "0"),
                                             ("--group-cap", "10000"),
                                             ("--format", "headerless")])
    def test_invalid_flag_value_is_usage_error(self, workspace, tmp_path, capsys,
                                               flag, value):
        _, fix, _ = workspace
        code = main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(tmp_path / "x.db"), flag, value])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, own_dests", [
        (["learn", "--vectors", "v", "--out", "o"], {"vectors", "out"}),
        (["extract", "--rules", "r", "--word", "w"],
         {"rules", "word", "words", "limited", "out"}),
    ])
    def test_config_flags_match_setting_names(self, argv, own_dests):
        # The config is read by setting name only, so a flag without a
        # setting would be parsed and then silently ignored. `learn` takes
        # every setting; `extract` only t_w_sem, the one it reads.
        dests = set(vars(cli.build_parser().parse_args(argv)))
        expected = {"learn": set(SETTING_TYPES), "extract": {"t_w_sem"}}[argv[0]]
        assert dests - own_dests - {"command", "config"} == expected

    def test_invalid_synth_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "fix"), "--n-roots", "0"]) == 1
        # SynthConfig's own check, not a list of choices on the flag.
        assert main(["synth", "--out", str(tmp_path / "fix"), "--chain-depth", "3"]) == 1
        assert "chain_depth must be 1 or 2" in capsys.readouterr().err
        for flag, value, message in [("--seed", "-1", "seed cannot be negative"),
                                     ("--noise-sigma", "nan", "noise_sigma must be finite"),
                                     ("--noise-sigma", "inf", "noise_sigma must be finite"),
                                     ("--noise-sigma", "-0.5", "noise_sigma cannot be negative"),
                                     ("--dim", "1", "dim must be at least 2")]:
            assert main(["synth", "--out", str(tmp_path / "fix"), flag, value]) == 1
            assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "fix").exists()

    def test_planted_key_with_a_semicolon_is_usage_error(self, tmp_path, monkeypatch,
                                                            capsys):
        # `synth` has no flag for the planted rules; plant one through the class.
        planted = functools.partial(SynthConfig, affixes=(ConcatRule("prefix", "", "q;c"),))
        monkeypatch.setattr(cli, "SynthConfig", planted)
        assert main(["synth", "--out", str(tmp_path / "fix")]) == 1
        assert capsys.readouterr().err == (
            "usage error: planted rule keys cannot contain ';': concat:prefix:>q;c\n")
        assert not (tmp_path / "fix").exists()

    def test_failed_synth_leaves_no_out_directory(self, tmp_path, capsys):
        # 5,000 distinct triliteral roots need more than the 16-letter alphabet gives.
        assert main(["synth", "--out", str(tmp_path / "fix"), "--n-roots", "5000"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "fix").exists()

    def test_internal_value_error_is_not_a_data_error(self, workspace, monkeypatch,
                                                      capsys):
        # A ValueError from inside the package is a bug, not bad input: it
        # exits 3 with its traceback, not 2.
        _, _, db = workspace

        def broken(*args, **kwargs):
            raise ValueError("rank broke")

        monkeypatch.setattr(cli, "rank_rules", broken)
        assert main(["rank", "--rules", str(db)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: rank broke" in err
        assert "internal bug" in err

    def test_failed_out_write_keeps_previous_file(self, tmp_path, monkeypatch):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\n", encoding="utf-8")
        out = tmp_path / "report.txt"
        out.write_text("previous report\n", encoding="utf-8")
        fail_writes_halfway(monkeypatch)
        assert main(["eval", "--gold", str(gold), "--pred", f"a={gold}",
                     "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.tsv", "report.txt"]
