"""File helpers the loaders and writers share.

Atomic writes, a checked array cache beside a parsed text file, the string
list codec both caches use, and a pause of the cyclic garbage collector
for the two bulk builds, learning and the extractor.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import stat
from pathlib import Path

import numpy as np


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


def pack_lines(lines: list[str]) -> np.ndarray:
    """Strings that hold no newline, as the bytes of one newline-joined text.

    A cache stores a word list this way: one array, not one per string.
    """
    return np.frombuffer("\n".join(lines).encode("utf-8"), np.uint8)


def unpack_lines(blob: np.ndarray) -> list[str]:
    """The strings `pack_lines` stored; no bytes give no strings."""
    text = blob.tobytes().decode("utf-8")
    return text.split("\n") if text else []


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


# Bump when what `load_cached` stores changes; an older cache is then a miss.
_CACHE_FORMAT = 2


def load_cached(path: Path, tag: str, parse, decode):
    """What `parse` reads from the UTF-8 text file at `path`, through a cache.

    `parse(fh)` gives the result and a function that encodes it as a dict
    of arrays; `decode(npz)` gives the result back from those arrays,
    checking them. A regular file's arrays are cached beside it, in
    `.<name>.jzrcache.npz`, under the sha256 of its bytes and `tag`, the
    loader and its options. A later load of the same bytes and tag decodes
    the cache instead of parsing the text. Any fault reading the cache,
    and any exception `decode` raises, is a miss: it only costs the parse.
    So is a failed write. A file that fails to parse is not cached, nor
    is a non-regular file such as a pipe.
    """
    with open(path, "rb", buffering=0) as raw:
        if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
            with io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8") as fh:
                return parse(fh)[0]
        cache = path.with_name(f".{path.name}.jzrcache.npz")
        try:
            # np.load leaves a path it opened open when the zip is bad.
            with open(cache, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                if (int(npz["format"]) == _CACHE_FORMAT and npz["tag"].item() == tag
                        and npz["digest"].tobytes() == _HashingReader(raw).drain()):
                    return decode(npz)
        except Exception:
            # zipfile and numpy raise many types on a damaged file (BadZipFile,
            # KeyError, EOFError, NotImplementedError, ...), and `decode` any
            # type on a failed check; the parse is the fallback.
            pass
        raw.seek(0)
        reader = _HashingReader(raw)
        with io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8") as fh:
            value, encode = parse(fh)
            # A parse may stop early (a `top_n` cap); the key covers every byte.
            digest = reader.drain()
    buf = io.BytesIO()
    try:
        np.savez(buf, format=_CACHE_FORMAT, tag=tag,
                 digest=np.frombuffer(digest, np.uint8), **encode())
        write_atomic(cache, buf.getbuffer())
    except OSError:
        pass  # an unwritable cache only means the next load parses again
    return value


@contextlib.contextmanager
def collector_paused():
    """Disable the cyclic garbage collector for the body, then restore its state.

    A bulk build allocates many objects that stay alive, and each automatic
    collection during it would only re-traverse them. The collector is
    enabled again on leaving, also when the body raises, only if it was
    enabled on entry.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
