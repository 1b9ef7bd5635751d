"""Word vector tables: loading a vector file and checking its words and vectors."""

from __future__ import annotations

import hashlib
import io
import itertools
import math
import os
import re
import stat
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

    Rows are kept as given; `load_embeddings` is what normalizes them, and
    test harnesses pass raw vectors to plant exact analogy offsets. The table
    takes the array over without a copy: a C-contiguous float64 `matrix`
    becomes the table's own and is made read-only for its caller too.
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

    The parsed table of a regular file is cached beside it, in
    `.<name>.jzrcache.npz`, under the sha256 of the bytes parsed and
    `top_n`. A later load of the same bytes and `top_n` reads the cache
    instead of the text, through the same `EmbeddingTable` checks; any
    fault reading it, or a failed write, only costs the parse. A file that
    fails to parse is not cached.
    """
    if top_n is not None and top_n < 0:
        raise ValueError("top_n must be non-negative")
    path = Path(path)
    with open(path, "rb", buffering=0) as raw:
        if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
                return _parse(fh, top_n, path)
        cache = path.with_name(f".{path.name}.jzrcache.npz")
        table = _read_cache(cache, raw, top_n)
        if table is not None:
            return table
        raw.seek(0)
        reader = _HashingReader(raw)
        with io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8") as fh:
            table = _parse(fh, top_n, path)
            # A `top_n` cap stops the parse early; the key covers every byte.
            digest = reader.drain()
    _write_cache(cache, table, digest, top_n)
    return table


def _parse(fh, top_n: int | None, path: Path) -> EmbeddingTable:
    """The table of the vector file open as text in `fh`."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    index: dict[str, int] = {}
    duplicates = 0
    dim: int | None = None
    saw_record = False

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


class _HashingReader(io.RawIOBase):
    """A binary reader that feeds every byte it returns to a sha256."""

    def __init__(self, raw):
        self._raw = raw
        self.sha = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(buf)
        if n:
            self.sha.update(memoryview(buf)[:n])
        return n

    def drain(self) -> bytes:
        """Read to the end; the sha256 digest of every byte read."""
        buf = bytearray(1 << 18)
        while self.readinto(buf):
            pass
        return self.sha.digest()


# Bump when what `_write_cache` stores changes; an older cache is then a miss.
_CACHE_FORMAT = 1


def _read_cache(cache: Path, raw, top_n: int | None) -> EmbeddingTable | None:
    """The table cached for the bytes of `raw` and `top_n`, or None on a miss."""
    try:
        # np.load leaves a path it opened open when the zip is bad.
        with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            if (int(npz["format"]) != _CACHE_FORMAT
                    or npz["top_n"].item() != repr(top_n)
                    or npz["digest"].tobytes() != _HashingReader(raw).drain()):
                return None
            text = npz["words"].tobytes().decode("utf-8")
            return EmbeddingTable(text.split("\n") if text else [], npz["matrix"],
                                  duplicates_dropped=int(npz["duplicates"]))
    except Exception:
        # zipfile and numpy raise many types on a damaged file (BadZipFile,
        # KeyError, EOFError, NotImplementedError, ...); the parse is the fallback.
        return None


def _write_cache(cache: Path, table: EmbeddingTable, digest: bytes,
                 top_n: int | None) -> None:
    """Store `table` for the bytes hashed to `digest`.

    Words hold no whitespace, so one newline-joined blob keeps them all.
    """
    words = "\n".join(table.words).encode("utf-8")
    buf = io.BytesIO()
    try:
        np.savez(buf, format=_CACHE_FORMAT, top_n=repr(top_n),
                 digest=np.frombuffer(digest, np.uint8),
                 duplicates=table.duplicates_dropped,
                 words=np.frombuffer(words, np.uint8), matrix=table.matrix)
        write_atomic(cache, buf.getbuffer())
    except OSError:
        pass  # an unwritable cache only means the next load parses again


def write_atomic(path, data: str | bytes) -> None:
    """Write `data` to `path` through a temporary file beside it.

    `data` is `str` or `bytes`; a `str` is written as UTF-8. The file
    appears whole or not at all: a write that fails leaves any previous file
    at `path` intact, and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
