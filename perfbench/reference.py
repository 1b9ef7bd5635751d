"""Host-speed reference: two fixed loops timed next to the work measured.

Other tenants of a shared host slow its vCPUs by up to 1.8x, with no steal
time, for stretches of seconds to minutes: longer than a run. The benchmark
therefore divides every extraction time by the time of a fixed reference
measured next to it, which slows with the host. The reference is the
geometric mean of two loops that do the two kinds of work jzr's extraction
time goes to: interpreter work (dict and tuple operations, calls, small-int
arithmetic) and small numpy kernels on rows gathered from a matrix. Neither
depends on jzr, so a change to jzr moves reference times as it moves wall
times. One ref-ms is one reference; one ref-s is 1,000 of them.

Imported only by the child processes: it needs numpy.
"""

from __future__ import annotations

import random
import time

import numpy as np

# Work is timed in stretches of this length with a reference between them.
EVERY_S = 0.05
# About the time of one reference on a quiet host. Set-up times, measured in
# references, are reported in seconds at that speed.
NOMINAL_S = 0.5e-3

_rng = random.Random(0)
_KEYS = [(f"k{i}", i) for i in range(4096)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}
_NAMES = [f"w{i}" for i in range(4096)]
_INDEX = {name: i for i, name in enumerate(_NAMES)}
_PAIRS = [(_NAMES[_rng.randrange(4096)], _NAMES[_rng.randrange(4096)]) for _ in range(600)]
_MATRIX = np.random.default_rng(0).standard_normal((4096, 64))


def _step(key: tuple, acc: int) -> int:
    return _TABLE.get(key, 0) + acc


def interpreter_loop() -> int:
    acc, scratch = 0, {}
    for i in range(2500):
        key = _KEYS[(i * 7919) & 4095]
        scratch[i & 1023] = key[1]
        acc = _step(key, acc) if i & 1 else acc - scratch.get(i & 511, 0)
    return acc


def numpy_loop() -> int:
    """Sample 100 of 600 word pairs, gather their rows and count the offsets
    whose cosine with a target row clears 0.5."""
    pairs = tuple(p for p in _PAIRS if p[0] in _INDEX and p[1] in _INDEX)
    picked = sorted(np.random.default_rng(7).choice(len(pairs), 100, replace=False).tolist())
    pairs = tuple(pairs[i] for i in picked)
    sources = _MATRIX[[_INDEX[p[0]] for p in pairs]]
    targets = _MATRIX[[_INDEX[p[1]] for p in pairs]]
    offsets = (targets - sources) + _MATRIX[5][None, :]
    dots = offsets @ _MATRIX[9]
    norms = np.linalg.norm(offsets, axis=1) * float(np.linalg.norm(_MATRIX[9]))
    return int(np.count_nonzero(dots / norms > 0.5))


def _timed(loop, repeats: int, clock) -> float:
    loop()  # untimed, so the loop's data is in cache whatever ran before
    start = clock()
    for _ in range(repeats):
        loop()
    return clock() - start


def in_references(took: list[float], refs: list[float]) -> float:
    """Total of the times in `took`, each divided by the geometric mean of the
    references on either side of it: refs[i] before took[i], refs[i + 1] after."""
    return sum(t / (refs[i] * refs[i + 1]) ** 0.5 for i, t in enumerate(took))


def reference_s(clock=time.perf_counter) -> float:
    """Seconds one reference takes now: the geometric mean of one interpreter
    loop and two numpy loops, which take about as long."""
    return (_timed(interpreter_loop, 1, clock) * _timed(numpy_loop, 2, clock)) ** 0.5
