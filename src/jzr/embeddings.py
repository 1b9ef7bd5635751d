"""Word vector tables: loading a vector file and checking its words and vectors."""

from __future__ import annotations

import itertools
import math
import re
from pathlib import Path

import numpy as np

_NORM_EPS = 1e-12
# Whitespace (str.isspace) or a control character (category Cc); equal to
# that per-character test on every code point.
_INVALID_CHAR = re.compile(r"[\s\x00-\x1f\x7f-\x9f]")


class EmbeddingError(ValueError):
    """Malformed vector file or table construction input."""


class EmptyFileError(EmbeddingError):
    """Vector file contained no records."""


class VectorParseError(EmbeddingError):
    """A record could not be parsed into a word plus finite components."""


class DimensionMismatchError(EmbeddingError):
    """A record's component count disagrees with the table dimension."""


class InvalidWordError(ValueError):
    """A word is empty or contains whitespace or a control character."""


def validate_word(text: str) -> str:
    """Check that `text` is a usable vocabulary word and return it.

    Words are non-empty and contain no whitespace or control characters.
    All lengths throughout the package are measured in code points.
    """
    if not text:
        raise InvalidWordError("word must be non-empty")
    if _INVALID_CHAR.search(text):
        raise InvalidWordError(f"word contains whitespace or a control character: {text!r}")
    return text


class EmbeddingTable:
    """Immutable map from word types to fixed-dimension real vectors.

    Tables built by `load_embeddings` (or `from_vectors` with normalize=True)
    have unit-L2-norm rows. `from_vectors(normalize=False)` keeps raw vectors,
    which test harnesses use to plant exact analogy offsets.
    """

    __slots__ = ("words", "matrix", "dim", "index", "duplicates_dropped")

    def __init__(self, words, matrix, duplicates_dropped: int = 0):
        self.words = list(words)
        mat = np.ascontiguousarray(matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise EmbeddingError("matrix must be 2-dimensional")
        if mat.shape[0] != len(self.words):
            raise EmbeddingError(
                f"{len(self.words)} words but {mat.shape[0]} vector rows"
            )
        if not np.isfinite(mat).all():
            raise EmbeddingError("vectors contain non-finite components")
        index: dict[str, int] = {}
        for pos, word in enumerate(self.words):
            validate_word(word)
            if word in index:
                raise EmbeddingError(f"duplicate word entry: {word!r}")
            index[word] = pos
        mat.setflags(write=False)
        self.matrix = mat
        self.dim = int(mat.shape[1])
        self.index = index
        self.duplicates_dropped = int(duplicates_dropped)

    @classmethod
    def from_vectors(cls, words, vectors, normalize: bool = True) -> "EmbeddingTable":
        mat = np.array(vectors, dtype=np.float64)
        if normalize:
            if mat.size:
                norms = np.linalg.norm(mat, axis=1)
                if (norms <= _NORM_EPS).any():
                    raise VectorParseError("cannot normalize a zero vector")
                mat = mat / norms[:, None]
        return cls(words, mat)

    def __len__(self) -> int:
        return len(self.words)


def _header_dim(line: str, lineno: int) -> int | None:
    """`dim` if a file's first line is a `count dim` header; None if a record.

    A dimension-1 record of two integers, such as `7 3`, reads as a header.
    """
    parts = line.split()
    if len(parts) != 2:
        return None
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        return None
    if count < 0 or dim < 1:
        raise VectorParseError(f"line {lineno}: header values out of range")
    return dim


def load_embeddings(path, top_n: int | None = None) -> EmbeddingTable:
    """Load a text vector file: one `word c1 ... cd` record per line, UTF-8.

    A `count dim` first line, as word2vec and fastText write, is read as a
    header; GloVe files have none. Raw vectors are L2-normalized. On
    duplicate words the first occurrence wins and the table's
    `duplicates_dropped` counter increments. `top_n` keeps only the first
    `top_n` records (the file producer's frequency order).
    """
    if top_n is not None and top_n < 0:
        raise ValueError("top_n must be non-negative")
    path = Path(path)

    words: list[str] = []
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    duplicates = 0
    dim: int | None = None
    saw_record = False

    with path.open(encoding="utf-8") as fh:
        lines = enumerate(fh, start=1)
        for lineno, line in lines:
            if line.split():
                dim = _header_dim(line, lineno)
                if dim is None:
                    lines = itertools.chain([(lineno, line)], lines)
                break
        for lineno, line in lines:
            parts = line.split()
            if not parts:
                continue
            saw_record = True
            if top_n is not None and len(words) >= top_n:
                # A headerless file's first record still gives the dimension.
                if dim is None:
                    if len(parts) == 1:
                        raise VectorParseError(f"line {lineno}: no vector components")
                    dim = len(parts) - 1
                break
            word = parts[0]
            try:
                validate_word(word)
            except ValueError as exc:
                raise VectorParseError(f"line {lineno}: {exc}") from None
            comps = parts[1:]
            if not comps:
                raise VectorParseError(f"line {lineno}: no vector components")
            if dim is None:
                dim = len(comps)
            elif len(comps) != dim:
                raise DimensionMismatchError(
                    f"line {lineno}: expected {dim} components, got {len(comps)}"
                )
            try:
                vec = np.array(list(map(float, comps)))
            except ValueError:
                raise VectorParseError(f"line {lineno}: non-numeric component") from None
            if not np.isfinite(vec).all():
                raise VectorParseError(f"line {lineno}: non-finite component")
            if word in index:
                duplicates += 1
                continue
            # The norm np.linalg.norm takes of a 1-D row, without its overhead.
            norm = math.sqrt(vec.dot(vec))
            if norm <= _NORM_EPS:
                raise VectorParseError(f"line {lineno}: zero vector for {word!r}")
            rows.append(vec / norm)
            index[word] = len(words)
            words.append(word)

    if not saw_record or dim is None:
        raise EmptyFileError(f"no vector records in {path}")
    mat = np.array(rows, dtype=np.float64).reshape(len(words), dim)
    return EmbeddingTable(words, mat, duplicates_dropped=duplicates)

