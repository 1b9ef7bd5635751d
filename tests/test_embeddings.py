import math
import os
import re
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import random_table
from oracles import brute_valid_word
from jzr import embeddings, fileio
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
    words_valid,
)
from jzr.rules import ScoringSettings, _count_passes, score_rule


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

    def test_negative_top_n_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="top_n must be non-negative"):
            load_embeddings(write(tmp_path, "a 1 0\n"), top_n=-1)

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
        ("a 1 2\nb\x01c 3 4\nc 0 0\nd 1 2 3\n", VectorParseError),
        ("a 1 2\nb\nc 0 0\nd 1 2 3\n", VectorParseError),
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

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "ktb"]), st.lists(
        st.floats(-1e6, 1e6), min_size=3, max_size=3)
        .filter(lambda row: np.linalg.norm(row) > 1e-12)), min_size=1, max_size=6),
        st.none() | st.integers(0, 3))
    def test_parsed_matrix_is_the_kept_rows_normalized_one_at_a_time(
            self, tmp_path_factory, records, top_n):
        # top_n=0 keeps no row, and the table must still load, empty.
        text = "".join(f"{word} {' '.join(map(repr, row))}\n" for word, row in records)
        path = write(tmp_path_factory.mktemp("parse"), text)
        first: dict[str, list[float]] = {}
        for word, row in records:
            first.setdefault(word, row)  # the first occurrence of a word wins
        kept = list(first.items())[:top_n]
        table = parsed(path, top_n)
        assert table.words == [word for word, _ in kept]
        assert table.matrix.shape == (len(kept), 3) and table.matrix.dtype == np.float64
        assert table.matrix.flags.c_contiguous
        rows = [np.array(row) for _, row in kept]
        assert table.matrix.tobytes() == b"".join(
            (v / math.sqrt(v.dot(v))).tobytes() for v in rows)

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


_PARSE = embeddings._parse


def parsed(path, top_n=None):
    """The table the text parser gives, with no cache involved."""
    with open(path, encoding="utf-8") as fh:
        return _PARSE(fh, top_n, path)


def same_table(got, want):
    return (got.words == want.words and got.dim == want.dim
            and got.duplicates_dropped == want.duplicates_dropped
            and got.matrix.shape == want.matrix.shape
            and got.matrix.view(np.uint64).tobytes() == want.matrix.view(np.uint64).tobytes())


def cache_of(path):
    return path.with_name(f".{path.name}.jzrcache.npz")


@pytest.fixture
def parses(monkeypatch):
    """A list that grows by one entry per text parse."""
    calls = []

    def counting(*args):
        calls.append(args[1:])
        return _PARSE(*args)

    monkeypatch.setattr(embeddings, "_parse", counting)
    return calls


# One vector file: records of a few words (so some repeat) with non-zero rows,
# fields split by spaces or tabs, blank lines between them, and maybe a header.
_RECORD = st.tuples(
    st.sampled_from(["a", "b", "ktb", "maktab", "كتب"]),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)
    .filter(lambda row: np.linalg.norm(row) > 1e-12),
    st.sampled_from([" ", "\t", " \t "]),
)
_VECTOR_FILE = st.tuples(
    st.booleans(),
    st.lists(st.tuples(_RECORD, st.sampled_from(["", "\n", "  \t\n"])),
             min_size=1, max_size=8),
)


def render(has_header, records):
    lines = [f"{len(records)} 3\n"] if has_header else []
    for (word, row, sep), blank in records:
        lines.append(sep.join([word, *map(repr, row)]) + "\n" + blank)
    return "".join(lines)


class TestCache:
    @given(_VECTOR_FILE, st.none() | st.integers(0, 6))
    def test_warm_load_equals_the_parse(self, tmp_path_factory, vector_file, top_n):
        path = write(tmp_path_factory.mktemp("cache"), render(*vector_file))
        want = parsed(path, top_n)
        cold = load_embeddings(path, top_n=top_n)
        assert cache_of(path).exists()
        with mock.patch.object(embeddings, "_parse", side_effect=AssertionError("parsed")):
            warm = load_embeddings(path, top_n=top_n)
        assert same_table(cold, want) and same_table(warm, want)
        assert not warm.matrix.flags.writeable

    def test_capped_load_of_a_long_file_is_cached(self, tmp_path, parses):
        path = write(tmp_path, "".join(f"w{i} {i + 1} 1\n" for i in range(5000)))
        for _ in range(2):
            assert load_embeddings(path, top_n=2).words == ["w0", "w1"]
        assert len(parses) == 1

    def test_cache_hits_without_hashlib_file_digest(self, tmp_path, monkeypatch, parses):
        # hashlib.file_digest is new in Python 3.11; the cache must not need it.
        monkeypatch.delattr(fileio.hashlib, "file_digest", raising=False)
        path = write(tmp_path, "a 1 0\nb 0 1\n")
        for _ in range(3):
            assert same_table(load_embeddings(path), parsed(path))
        assert parses == [(None, path)]

    def test_changed_bytes_of_the_same_size_and_mtime_are_parsed(self, tmp_path, parses):
        path = write(tmp_path, "a 1 0\nb 0 1\n")
        load_embeddings(path)
        stamp = path.stat()
        path.write_text("a 0 1\nb 1 0\n", encoding="utf-8")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        assert same_table(load_embeddings(path), parsed(path))
        assert len(parses) == 2

    @pytest.mark.parametrize("spoil", [
        lambda cache: cache.write_bytes(cache.read_bytes()[: cache.stat().st_size // 2]),
        lambda cache: cache.write_bytes(b"a 1 0\n"),
        lambda cache: load_embeddings(cache.with_name("vecs.txt"), top_n=1),
    ], ids=["truncated", "not-npz", "other-top-n"])
    def test_spoiled_cache_is_a_miss_and_is_rewritten(self, tmp_path, parses, spoil):
        path = write(tmp_path, "a 1 0\nb 0 1\na 2 2\n")
        load_embeddings(path)
        spoil(cache_of(path))
        del parses[:]
        assert same_table(load_embeddings(path), parsed(path))
        assert same_table(load_embeddings(path), parsed(path))
        assert parses == [(None, path)]

    @pytest.mark.parametrize("target", ["savez", "replace"])
    def test_failed_cache_write_still_returns_the_table(self, tmp_path, monkeypatch, target):
        def half_savez(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise OSError(28, "No space left on device")

        def no_replace(src, dst):
            raise PermissionError(13, "Permission denied")

        if target == "savez":
            monkeypatch.setattr(fileio.np, "savez", half_savez)
        else:
            monkeypatch.setattr(fileio.os, "replace", no_replace)
        path = write(tmp_path, "a 1 0\nb 0 1\n")
        assert same_table(load_embeddings(path), parsed(path))
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]

    def test_malformed_file_raises_alike_on_every_load_and_is_not_cached(self, tmp_path):
        path = write(tmp_path, "a 1 0\nb 1\n")
        for _ in range(2):
            with pytest.raises(DimensionMismatchError, match="^line 2: expected 2"):
                load_embeddings(path)
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_and_not_cached(self, tmp_path):
        path = tmp_path / "vecs.txt"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=("a 3 4\n",),
                                  kwargs={"encoding": "utf-8"}, daemon=True)
        writer.start()
        table = load_embeddings(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert table.words == ["a"] and table.matrix.tolist() == [[0.6, 0.8]]
        assert [p.name for p in tmp_path.iterdir()] == ["vecs.txt"]


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

    def test_no_printable_character_but_the_space_is_invalid(self):
        # The premise of words_valid's fast path: printable text with no
        # space never needs the regex.
        printable = "".join(ch for ch in map(chr, range(sys.maxunicode + 1))
                            if ch.isprintable() and ch != " ")
        assert not embeddings._INVALID_CHAR.search(printable)

    # ASCII and Arabic letters, then characters that are not printable:
    # whitespace and controls (C0, C1, NEL, NBSP, LINE SEPARATOR,
    # IDEOGRAPHIC SPACE), and ZWNJ, which is a valid word character.
    WORD_CHARS = ("abkt" + "كتب" + " \t\n\x00\x1f\x7f\x80\x85\x9f"
                  "\xa0\u2028\u3000\u200c")

    @given(st.lists(st.text(WORD_CHARS, max_size=4), max_size=5))
    def test_words_valid_agrees_with_validate_word_on_each_word(self, words):
        assert words_valid(words) == all(map(self.accepts, words))


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
    return score_rule(ConcatRule("prefix", "", "x"), ((w1, w2),), table,
                      ScoringSettings(t_cos, 100, 42)).sem


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
        table = EmbeddingTable(["a", "b", "c", "d"], [a, a + o, c, c + o])
        scores = score_rule(ConcatRule("prefix", "", "x"), (("a", "b"), ("c", "d")), table,
                            ScoringSettings(1.0 - 1e-12, 100, 42))
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
            EmbeddingTable(["a", "a"], [[1.0, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("matrix, message", [
        (np.zeros(2), "2-dimensional"),
        (np.zeros((3, 2)), "2 words but 3 vector rows"),
        ([[1.0, np.nan], [0.0, 1.0]], "non-finite"),
        ([[1.0, 0.0], [-np.inf, 1.0]], "non-finite"),
    ], ids=["1-d", "rows", "nan", "inf"])
    def test_bad_matrix_rejected(self, matrix, message):
        with pytest.raises(EmbeddingError, match=message):
            EmbeddingTable(["a", "b"], matrix)

    # The error names the first word, in table order, that is bad or repeated.
    @pytest.mark.parametrize("words, error, message", [
        (["a", "b", "a", "c d"], EmbeddingError, "duplicate word entry: 'a'"),
        (["a", "c d", "a", "b"], InvalidWordError, "whitespace.*'c d'"),
        (["a", "", "a"], InvalidWordError, "non-empty"),
        (["a", "b\x85", "b\x85"], InvalidWordError, re.escape("character: 'b\\x85'")),
        (["a", "b\u3000c", "b\u3000c"], InvalidWordError,
         re.escape("character: 'b\\u3000c'")),
    ])
    def test_first_bad_word_is_named(self, words, error, message):
        with pytest.raises(error, match=message):
            EmbeddingTable(words, np.eye(len(words)))

    def test_a_word_with_zwnj_is_indexed(self):
        words = ["a", "b\u200cc", "bc"]
        assert EmbeddingTable(words, np.eye(3)).index == {"a": 0, "b\u200cc": 1, "bc": 2}

    @given(st.lists(st.text(max_size=3), max_size=6))
    def test_word_check_matches_a_walk_with_validate_word(self, words):
        def walk():
            seen = set()
            for word in words:
                validate_word(word)
                if word in seen:
                    raise EmbeddingError(f"duplicate word entry: {word!r}")
                seen.add(word)

        def outcome(fn):
            try:
                fn()
            except ValueError as exc:
                return type(exc), str(exc)
            return None

        matrix = np.ones((len(words), 2))
        assert outcome(lambda: EmbeddingTable(words, matrix)) == outcome(walk)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            EmbeddingTable(["a"], [[1.0, 0.0], [0.0, 1.0]])
