import json

import pytest

from conftest import fail_writes_halfway
from jzr import cli
from jzr.cli import main
from jzr.config import SETTING_TYPES
from jzr.embeddings import load_embeddings
from jzr.rules import load_rules
from jzr.synthlang import SynthConfig, load_gold, write_fixture

# The settings the rule DB fixes, plus the two extraction reads itself.
EXTRACT_SETTINGS = {"t_cos_sim", "sample_cap", "seed", "t_w_sem", "top_n"}


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

    def test_rank_negative_top_is_usage_error(self, workspace, capsys):
        _, _, db = workspace
        assert main(["rank", "--rules", str(db), "--top", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "usage error: --top" in captured.err


class TestExtract:
    def test_invalid_word_is_data_error(self, workspace, tmp_path):
        _, fix, db = workspace
        words = tmp_path / "words.txt"
        words.write_text("two words\n", encoding="utf-8")
        assert main(["extract", "--rules", str(db), "--vectors", str(fix / "vectors.txt"),
                     "--words", str(words)]) == 2

    def test_single_word_trace(self, workspace, capsys):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        word, entry = next((w, e) for w, e in gold.items() if len(e.chain) == 2)
        assert main(["extract", "--rules", str(db),
                     "--vectors", str(fix / "vectors.txt"), "--word", word]) == 0
        line = capsys.readouterr().out.strip()
        fields = line.split("\t")
        assert fields[0] == word
        assert fields[1] == entry.root
        assert fields[2] == "reached_triliteral"

    def test_words_file_preserves_order(self, workspace, tmp_path, capsys):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        words = list(gold)[:7]
        words_file = tmp_path / "words.txt"
        words_file.write_text("\n".join(words) + "\n", encoding="utf-8")
        out_file = tmp_path / "traces.tsv"
        assert main(["extract", "--rules", str(db),
                     "--vectors", str(fix / "vectors.txt"),
                     "--words", str(words_file), "--out", str(out_file)]) == 0
        got = [l.split("\t")[0] for l in
               out_file.read_text(encoding="utf-8").strip().splitlines()]
        assert got == words

    def test_limited_flag(self, workspace, capsys):
        _, fix, db = workspace
        gold = load_gold(fix / "gold.tsv")
        word = next(w for w, e in gold.items()
                    if len(e.chain) == 1 and e.chain[0].startswith("tmpl:"))
        assert main(["extract", "--rules", str(db),
                     "--vectors", str(fix / "vectors.txt"),
                     "--word", word, "--limited"]) == 0
        line = capsys.readouterr().out.strip()
        assert line.split("\t")[2] == "infeasible_stop"

    def test_vocab_hash_mismatch_refused(self, workspace, tmp_path, capsys):
        _, fix, db = workspace
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--n-roots", "4",
                     "--seed", "99"]) == 0
        capsys.readouterr()
        code = main(["extract", "--rules", str(db),
                     "--vectors", str(other / "vectors.txt"), "--word", "abc"])
        assert code == 2
        assert "different vocabulary" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--t-cos-sim", "0.3"), ("--sample-cap", "50"), ("--seed", "7"),
    ])
    def test_setting_other_than_the_db_is_refused(self, workspace, capsys, flag, value):
        _, fix, db = workspace
        code = main(["extract", "--rules", str(db), "--vectors", str(fix / "vectors.txt"),
                     "--word", "abcd", flag, value])
        assert code == 2
        assert "re-run `jzr learn`" in capsys.readouterr().err

    def test_setting_equal_to_the_db_is_accepted(self, workspace, capsys):
        _, fix, db = workspace
        assert main(["extract", "--rules", str(db), "--vectors", str(fix / "vectors.txt"),
                     "--word", "abcd", "--t-cos-sim", "0.5", "--sample-cap", "100",
                     "--seed", "42"]) == 0

    @pytest.mark.parametrize("flag, value", [
        ("--t-r-sem", "0.2"), ("--t-r-orth", "5"), ("--max-affix", "1"),
        ("--min-stem", "3"), ("--max-derived-len", "10"),
    ])
    def test_learn_only_flag_is_usage_error(self, workspace, capsys, flag, value):
        _, fix, db = workspace
        code = main(["extract", "--rules", str(db), "--vectors", str(fix / "vectors.txt"),
                     "--word", "abcd", flag, value])
        assert code == 1
        assert f"usage error: unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_config_file_may_hold_learn_only_settings(self, workspace, tmp_path):
        # One config file serves both commands; extract ignores what it does not read.
        _, fix, db = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t_r_orth": 5, "max_affix": 1, "t_cos_sim": 0.5}),
                       encoding="utf-8")
        assert main(["extract", "--rules", str(db), "--vectors", str(fix / "vectors.txt"),
                     "--word", "abcd", "--config", str(cfg)]) == 0

    def test_format_1_db_is_refused(self, workspace, tmp_path, capsys):
        _, fix, _ = workspace
        old = tmp_path / "old.db"
        old.write_text("#morphruledb 1\n#vocab-hash x\n", encoding="utf-8")
        code = main(["extract", "--rules", str(old), "--vectors", str(fix / "vectors.txt"),
                     "--word", "abcd"])
        assert code == 2
        assert "re-run `jzr learn`" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, name", [
        ("t_cos_sim=0.5", "t_cos_sim=5.0", "t_cos_sim"),
        ("sample_cap=100", "sample_cap=0", "sample_cap"),
    ])
    def test_db_with_invalid_scoring_is_data_error(self, workspace, tmp_path, capsys,
                                                   old, new, name):
        # The DB is at fault, not the flags: exit 2, naming the #scoring line.
        _, fix, db = workspace
        edited = tmp_path / "edited.db"
        edited.write_text(db.read_text(encoding="utf-8").replace(old, new),
                          encoding="utf-8")
        code = main(["extract", "--rules", str(edited), "--vectors",
                     str(fix / "vectors.txt"), "--word", "abcd"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 4: {name}") and "usage error" not in err


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

    def test_coverage_mismatch_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("w1\tktb\nw2\tdrs\n", encoding="utf-8")
        pa = tmp_path / "a.tsv"
        pa.write_text("w1\tktb\n", encoding="utf-8")
        assert main(["eval", "--gold", str(gold), "--pred", f"a={pa}"]) == 2


class TestUsageAndConfig:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert main(["learn", "--out", "x.db"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_flag_beats_config_file(self, workspace, tmp_path):
        # File caps the vocabulary at 5 words; the flag restores the full
        # fixture, so the learned DB must match the no-config run.
        root, fix, db = workspace
        n_words = len(load_embeddings(fix / "vectors.txt"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_n": 5}), encoding="utf-8")
        out = tmp_path / "flagwins.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(out), "--config", str(cfg),
                     "--top-n", str(n_words)]) == 0
        assert out.read_bytes() == db.read_bytes()

    def test_config_file_applies_without_flag(self, workspace, tmp_path):
        root, fix, db = workspace
        cfg = tmp_path / "cfg.json"
        # A JSON integer is a valid value for a float setting.
        cfg.write_text(json.dumps({"t_r_orth": 10_000, "t_cos_sim": 0}), encoding="utf-8")
        out = tmp_path / "strict.db"
        assert main(["learn", "--vectors", str(fix / "vectors.txt"),
                     "--out", str(out), "--config", str(cfg)]) == 0
        assert len(load_rules(out)) == 0
        assert "#scoring t_cos_sim=0.0 " in out.read_text(encoding="utf-8")

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
        (["extract", "--rules", "r", "--vectors", "v", "--word", "w"],
         {"rules", "vectors", "word", "words", "limited", "out"}),
    ])
    def test_config_flags_match_setting_names(self, argv, own_dests):
        # The config is read by setting name only, so a flag without a
        # setting would be parsed and then silently ignored. `learn` takes
        # every setting; `extract` only those it reads.
        dests = set(vars(cli.build_parser().parse_args(argv)))
        expected = {"learn": set(SETTING_TYPES), "extract": EXTRACT_SETTINGS}[argv[0]]
        assert dests - own_dests - {"command", "config"} == expected

    def test_invalid_synth_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "fix"), "--n-roots", "0"]) == 1
        # SynthConfig's own check, not a list of choices on the flag.
        assert main(["synth", "--out", str(tmp_path / "fix"), "--chain-depth", "3"]) == 1
        assert "chain_depth must be 1 or 2" in capsys.readouterr().err

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
