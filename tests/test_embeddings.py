import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_table
from oracles import brute_valid_word
from jzr.concat import ConcatRule
from jzr.embeddings import (
    DimensionMismatchError,
    EmbeddingError,
    EmbeddingTable,
    EmptyFileError,
    InvalidWordError,
    VectorParseError,
    load_embeddings,
    validate_word,
)
from jzr.rules import MorphRule, ScoringSettings, _count_passes, score_rule


def write(tmp_path, text, name="vecs.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoad:
    def test_normalizes_rows(self, tmp_path):
        path = write(tmp_path, "a 3 4\nb 0 2\n")
        table = load_embeddings(path)
        assert table.dim == 2
        assert np.allclose(table.matrix[table.index["a"]], [0.6, 0.8])
        assert np.allclose(table.matrix[table.index["b"]], [0.0, 1.0])

    def test_unit_vector_loads_as_itself(self, tmp_path):
        path = write(tmp_path, "x 1 0 0\n")
        table = load_embeddings(path)
        assert table.dim == 3
        assert np.array_equal(table.matrix[table.index["x"]], [1.0, 0.0, 0.0])

    def test_duplicate_first_wins(self, tmp_path):
        path = write(tmp_path, "a 1 2\na 9 9\n")
        table = load_embeddings(path)
        assert len(table) == 1
        assert table.duplicates_dropped == 1
        expected = np.array([1.0, 2.0]) / math.sqrt(5.0)
        assert np.allclose(table.matrix[table.index["a"]], expected)

    def test_headered_format(self, tmp_path):
        path = write(tmp_path, "2 3\nfoo 1 0 0\nbar 0 1 0\n")
        table = load_embeddings(path)
        assert len(table) == 2 and table.dim == 3
        # Also the one first line a headerless dimension-1 file could start
        # with: a record `7 1` reads as a header.
        table = load_embeddings(write(tmp_path, "7 1\nx 0.5\n", "dim1.txt"))
        assert table.words == ["x"] and table.dim == 1
        # Three integers are a record: only two fields can be a header.
        table = load_embeddings(write(tmp_path, "7 3 4\n", "int_word.txt"))
        assert table.words == ["7"] and table.dim == 2

    def test_headered_dim_mismatch(self, tmp_path):
        path = write(tmp_path, "1 4\nfoo 1 0 0\n")
        with pytest.raises(DimensionMismatchError):
            load_embeddings(path)
        with pytest.raises(VectorParseError, match="^line 1: header values out of range"):
            load_embeddings(write(tmp_path, "1 0\nfoo\n", "dim0.txt"))

    def test_row_dim_mismatch(self, tmp_path):
        path = write(tmp_path, "a 1 2\nb 1 2 3\n")
        with pytest.raises(DimensionMismatchError, match="line 2"):
            load_embeddings(path)

    def test_non_numeric_component(self, tmp_path):
        path = write(tmp_path, "a 1 x\n")
        with pytest.raises(VectorParseError):
            load_embeddings(path)

    def test_non_finite_component(self, tmp_path):
        path = write(tmp_path, "a 1 nan\n")
        with pytest.raises(VectorParseError):
            load_embeddings(path)

    def test_zero_vector_rejected(self, tmp_path):
        path = write(tmp_path, "a 0 0\n")
        with pytest.raises(VectorParseError):
            load_embeddings(path)

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(EmptyFileError):
            load_embeddings(path)

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "0 4\n")
        with pytest.raises(EmptyFileError):
            load_embeddings(path)

    def test_top_n_cap(self, tmp_path):
        path = write(tmp_path, "a 1 0\nb 0 1\nc 1 1\n")
        table = load_embeddings(path, top_n=2)
        assert table.words == ["a", "b"]

    def test_top_n_zero_gives_empty_table(self, tmp_path):
        path = write(tmp_path, "a 1 0\nb 0 1\n")
        table = load_embeddings(path, top_n=0)
        assert len(table) == 0

    def test_top_n_zero_still_checks_the_dimension_of_a_headerless_file(self, tmp_path):
        # Without a header the first record gives the dimension, so it is
        # read even when no record is kept, and refused like any other.
        with pytest.raises(VectorParseError, match="^line 1: no vector components"):
            load_embeddings(write(tmp_path, "w7\nb 0 1\n"), top_n=0)
        table = load_embeddings(write(tmp_path, "2 2\na 1 0\nb 0 1\n", "headed.txt"),
                                top_n=0)
        assert len(table) == 0 and table.dim == 2

    def test_unit_norms_invariant(self, tmp_path):
        rng = np.random.default_rng(11)
        lines = [
            f"w{i} " + " ".join(repr(float(x)) for x in rng.standard_normal(8) * 10.0)
            for i in range(40)
        ]
        path = write(tmp_path, "\n".join(lines) + "\n")
        table = load_embeddings(path)
        norms = np.linalg.norm(table.matrix, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

    @pytest.mark.parametrize("text, error", [
        ("a 1 2\nb 0 0\nc 3 4\nd 1 2 3\n", VectorParseError),
        ("a 1 2\nb 1 2 3\nc 3 4\nd 0 0\n", DimensionMismatchError),
    ])
    def test_earlier_defective_line_wins(self, tmp_path, text, error):
        path = write(tmp_path, text)
        with pytest.raises(error, match="^line 2:"):
            load_embeddings(path)

    @given(st.integers(1, 6).flatmap(lambda dim: st.lists(
        st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)
        .filter(lambda row: np.linalg.norm(row) > 1e-12), min_size=1, max_size=8)))
    def test_rows_are_each_divided_by_their_norm(self, tmp_path_factory, rows):
        lines = [f"w{i} " + " ".join(map(repr, row)) for i, row in enumerate(rows)]
        for header in "", f"{len(rows)} {len(rows[0])}\n":
            path = write(tmp_path_factory.mktemp("rows"), header + "\n".join(lines) + "\n")
            table = load_embeddings(path)
            assert table.words == [f"w{i}" for i in range(len(rows))]
            for got, row in zip(table.matrix, rows):
                v = np.array(row)
                assert got.tobytes() == (v / np.linalg.norm(v)).tobytes()

    @staticmethod
    def outcome(path, top_n, first_lineno):
        """What loading gives, with line numbers counted from `first_lineno`."""
        try:
            table = load_embeddings(path, top_n=top_n)
        except EmbeddingError as exc:
            at = re.match(r"line (\d+):", str(exc))
            return type(exc), at and int(at[1]) - first_lineno
        return table.words, table.matrix.tobytes(), table.duplicates_dropped

    @given(st.lists(st.sampled_from([
        "", "w1 1 2", "w2 3 -4", "w1 5 6", "w3 0 0", "w4 1 2 3", "w5 1 x",
        "w6 1 inf", "w7", "w8 0.5 7e-3"]), max_size=8),
        st.none() | st.integers(0, 4))
    def test_header_line_changes_nothing_but_line_numbers(self, tmp_path_factory,
                                                           body, top_n):
        # The header names the dimension of the first record, as a file's
        # writer would, so both files describe the same table. A first
        # record with no components has no dimension to name.
        first = next((line.split() for line in body if line), ["w0", "1"])
        assume(len(first) > 1)
        text = "\n".join(body) + "\n"
        folder = tmp_path_factory.mktemp("header")
        bare = write(folder, text, "bare.txt")
        headed = write(folder, f"{len(body)} {len(first) - 1}\n" + text, "headed.txt")
        assert self.outcome(headed, top_n, 2) == self.outcome(bare, top_n, 1)

    def test_matrix_is_read_only(self, tmp_path):
        path = write(tmp_path, "a 1 0\n")
        table = load_embeddings(path)
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 5.0


class TestWordValidation:
    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\nb", "a\x00b", "\x7f"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_word(bad)

    def test_accepts_plain_words(self):
        for word in ["ktb", "maktab", "كتب"]:
            assert validate_word(word) == word

    @staticmethod
    def accepts(text):
        try:
            return validate_word(text) == text
        except InvalidWordError:
            return False

    @given(st.text())
    def test_matches_oracle(self, text):
        assert self.accepts(text) == brute_valid_word(text)

    def test_every_code_point_matches_oracle(self):
        for code in range(sys.maxunicode + 1):
            assert self.accepts(chr(code)) == brute_valid_word(chr(code)), hex(code)


def kernel_passes(target, query, t_cos):
    """Whether the scoring kernel counts cos(target, query) > t_cos."""
    target, query = np.asarray(target, dtype=float), np.asarray(query, dtype=float)
    return _count_passes(np.zeros((1, len(target))), query[None], target[None],
                         t_cos).tolist() == [1]


def kernel_cosine_is(target, query, expected, tol=1e-12):
    """The kernel passes `expected - tol` and fails `expected + tol`."""
    return (kernel_passes(target, query, expected - tol)
            and not kernel_passes(target, query, expected + tol))


def singleton_sem(table, w1, w2, t_cos):
    rule = MorphRule(ConcatRule("prefix", "", "x"), ((w1, w2),))
    return score_rule(rule, table, ScoringSettings(t_cos, 100, 42)).sem


class TestCosine:
    def test_self_similarity(self):
        v = np.array([2.0, -3.0, 1.0])
        assert kernel_passes(v, v, 1.0 - 1e-12)

    def test_orthogonal(self):
        # Exactly 0.0: it passes any negative threshold and fails 0.0.
        assert kernel_passes([1.0, 0.0], [0.0, 1.0], -1e-300)
        assert not kernel_passes([1.0, 0.0], [0.0, 1.0], 0.0)

    def test_hand_computed(self):
        # cos((1,1),(2,0)) = 1/sqrt(2)
        assert kernel_cosine_is([1.0, 1.0], [2.0, 0.0], 1 / math.sqrt(2))

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=8),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, comps, scale):
        v = np.array(comps)
        w = np.arange(1.0, len(comps) + 1.0)
        if np.linalg.norm(v) < 1e-6:
            return
        expected = v.dot(w) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert kernel_cosine_is(v * scale, w, expected, tol=1e-9)


class TestAnalogy:
    # A singleton rule's sem is 1.0 when its pair passes against its own
    # offset, cos(v_w2 - v_w1 + v_w1, v_w2) > t_cos, and 0.0 otherwise.
    def test_identity_pair_scores_one(self):
        table = random_table(10, 16, seed=3)
        assert singleton_sem(table, "w0", "w1", 1.0 - 1e-6) == 1.0

    def test_identity_pairs_random_table(self):
        table = random_table(60, 32, seed=5)
        rng = np.random.default_rng(9)
        for _ in range(200):
            i, j = rng.choice(60, size=2, replace=False)
            assert singleton_sem(table, f"w{i}", f"w{j}", 1.0 - 1e-6) == 1.0

    def test_exact_offset_plants_score_one(self):
        # v_b = v_a + o and v_d = v_c + o exactly; no renormalization.
        rng = np.random.default_rng(7)
        a, c, o = rng.standard_normal((3, 12))
        table = EmbeddingTable.from_vectors(
            ["a", "b", "c", "d"], [a, a + o, c, c + o], normalize=False
        )
        rule = MorphRule(ConcatRule("prefix", "", "x"), (("a", "b"), ("c", "d")))
        scores = score_rule(rule, table, ScoringSettings(1.0 - 1e-12, 100, 42))
        assert (scores.sem, scores.w_sem) == (1.0, (1.0, 1.0))

    def test_random_words_rarely_analogous(self):
        # Monte-Carlo: with 64-d Gaussian vectors the analogy cosine is
        # concentrated near 0; |score| >= 0.5 should be very rare.
        table = random_table(400, 64, seed=13)
        rng = np.random.default_rng(17)
        trials = 10_000
        hits = 0
        for _ in range(trials):
            v1, v2, v3, v4 = table.matrix[rng.choice(400, size=4, replace=False)]
            target = v2 - v1 + v3
            if kernel_passes(target, v4, 0.5) or not kernel_passes(target, v4, -0.5):
                hits += 1
        assert hits / trials < 0.01


class TestFromVectors:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable.from_vectors(["a", "a"], [[1.0, 0.0], [0.0, 1.0]])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingTable.from_vectors(["a"], [[1.0, 0.0], [0.0, 1.0]])

    def test_zero_vector_cannot_normalize(self):
        with pytest.raises(VectorParseError):
            EmbeddingTable.from_vectors(["a"], [[0.0, 0.0]])
