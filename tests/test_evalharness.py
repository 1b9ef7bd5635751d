import json
import re

import pytest

from jzr.evalharness import (
    CoverageError,
    PredictionFormatError,
    evaluate,
    format_report,
    read_predictions,
)


GOLD = {"w1": "ktb", "w2": "drs", "w3": "flh", "w4": "zhb"}


class TestEvaluate:
    def test_identical_systems_agree_everywhere(self):
        preds = {"a": dict(GOLD), "b": dict(GOLD)}
        report = evaluate(preds, GOLD)
        assert report.accuracy("a") == report.accuracy("b") == 1.0
        assert all(v == 0 for row in report.matrix.values() for v in row.values())

    def test_hand_built_matrix(self):
        # a right on w1 w2 w3; b right on w1 w4. Hand-enumerated wins:
        # a beats b on w2, w3; b beats a on w4.
        a = {"w1": "ktb", "w2": "drs", "w3": "flh", "w4": "xxx"}
        b = {"w1": "ktb", "w2": "yyy", "w3": "zzz", "w4": "zhb"}
        report = evaluate({"a": a, "b": b}, GOLD)
        assert report.n == 4
        assert report.correct == {"a": 3, "b": 2}
        assert report.accuracy("a") == 0.75
        assert report.matrix == {
            "a": {"a": 0, "b": 2},
            "b": {"a": 1, "b": 0},
        }

    def test_coverage_mismatch(self):
        with pytest.raises(CoverageError):
            evaluate({"a": {"w1": "ktb"}}, GOLD)

    def test_extra_predictions_tolerated(self):
        preds = dict(GOLD)
        preds["unseen"] = "qqq"
        report = evaluate({"a": preds}, GOLD)
        assert report.n == 4 and report.correct["a"] == 4

    def test_diagonal_always_zero(self):
        report = evaluate({"a": dict(GOLD)}, GOLD)
        assert report.matrix["a"]["a"] == 0

    def test_win_counts_bounded_by_n(self):
        a = {w: "x" for w in GOLD}
        b = dict(GOLD)
        report = evaluate({"a": a, "b": b}, GOLD)
        for i in report.systems:
            for j in report.systems:
                assert report.matrix[i][j] + report.matrix[j][i] <= report.n

    def test_disagreement_identity(self):
        # correct_i - correct_j == M[i][j] - M[j][i], exactly, in counts.
        a = {"w1": "ktb", "w2": "no", "w3": "flh", "w4": "no"}
        b = {"w1": "no", "w2": "drs", "w3": "flh", "w4": "no"}
        report = evaluate({"a": a, "b": b}, GOLD)
        assert (report.correct["a"] - report.correct["b"]
                == report.matrix["a"]["b"] - report.matrix["b"]["a"])

    def test_accuracy_times_n_is_integral(self):
        a = {"w1": "ktb", "w2": "no", "w3": "flh", "w4": "no"}
        report = evaluate({"a": a}, GOLD)
        assert report.accuracy("a") * report.n == report.correct["a"]

    def test_empty_gold(self):
        report = evaluate({"a": {}}, {})
        assert report.n == 0 and report.accuracy("a") == 0.0


class TestReportFormat:
    def test_format_shape(self):
        a = {"w1": "ktb", "w2": "no", "w3": "flh", "w4": "no"}
        b = dict(GOLD)
        report = evaluate({"a": a, "b": b}, GOLD)
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0] == "n\t4"
        assert lines[1] == "accuracy\ta\t2/4\t0.5"
        assert lines[2] == "accuracy\tb\t4/4\t1.0"
        assert lines[3] == "matrix\t.\ta\tb"
        assert lines[4] == "matrix\ta\t0\t0"
        assert lines[5] == "matrix\tb\t2\t0"

    def test_to_dict_json_serializable(self):
        report = evaluate({"a": dict(GOLD)}, GOLD)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n"] == 4
        assert payload["accuracy"]["a"] == 1.0


class TestOnPlantedWorld:
    def test_three_systems_with_gold_oracle(self, small_world, small_world_limited):
        # full and limited extraction plus the gold map replayed as a
        # system: the oracle never loses, and limited never beats full.
        _, words, _, gold, _, extractor = small_world
        derived = [w for w in words if gold[w].chain]
        predictions = {
            "full": {w: extractor.extract(w).final for w in derived},
            "limited": {w: small_world_limited.extract(w).final for w in derived},
            "oracle": {w: gold[w].root for w in derived},
        }
        gold_roots = {w: gold[w].root for w in derived}
        report = evaluate(predictions, gold_roots)
        assert report.accuracy("oracle") == 1.0
        assert report.matrix["limited"]["full"] == 0
        assert report.matrix["full"]["oracle"] == 0
        assert report.matrix["limited"]["oracle"] == 0
        assert report.accuracy("limited") <= report.accuracy("full")


class TestIo:
    def test_read_predictions_first_two_columns(self, tmp_path):
        path = tmp_path / "preds.tsv"
        path.write_text("w1\tktb\textra\tstuff\nw2\tdrs\n", encoding="utf-8")
        assert read_predictions(path) == {"w1": "ktb", "w2": "drs"}

    def test_read_gold(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("w1\tktb\t\nw2\tdrs\tchain;stuff\n", encoding="utf-8")
        assert read_predictions(path) == {"w1": "ktb", "w2": "drs"}

    def test_read_refuses_a_word_given_two_roots(self, tmp_path):
        # `jzr extract --words` prints one identical line per repeat of a word.
        path = tmp_path / "preds.tsv"
        path.write_text("a\tb\tx\nd\te\na\tb\ty\n", encoding="utf-8")
        assert read_predictions(path) == {"a": "b", "d": "e"}
        path.write_text("a\tb\nd\te\na\tc\n", encoding="utf-8")
        with pytest.raises(PredictionFormatError, match="line 3: 'a' has root 'c', "
                                                        "but line 1 gives 'b'$"):
            read_predictions(path)

    def test_read_rejects_single_column(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("w1\tktb\n\njustoneword\n", encoding="utf-8")
        with pytest.raises(PredictionFormatError,
                           match=f"^{re.escape(str(path))}: line 3: needs at least 2 "
                                 "tab-separated fields: 'justoneword'$"):
            read_predictions(path)
