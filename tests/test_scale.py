"""Planted languages learned in a child process under an address-space limit.

The 7.2k-word language (the benchmark's) must learn its 18 + 35 rules
within 224 MiB: learn keeps only the rules it scores, not the 813,210
candidates at or below `t_r_orth`. The rules of the 36k-word language's
concatenative mining would hold 19.4M support pairs on the prefix side
and 27.5M on the suffix side, so `learn_rules` must refuse it with
`PairBudgetError` within 1 GiB, before the prefix side makes its first
rule. Running out of memory, running past the deadline or any other end
is a scale regression in the program: the limits, the deadline and the
languages are fixed, and a failure names which end it met.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from jzr.concat import PAIR_BUDGET

SRC = Path(__file__).resolve().parents[1] / "src"
DEADLINE_S = 60

# The limit is set in the child, so it acts on that process alone. The
# last stdout line names the end: the exception's type and message, or
# "learned" and the validated rules of each kind when nothing is refused.
CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
try:
    from jzr.pipeline import learn_rules
    from jzr.synthlang import SynthConfig, generate

    _, table, _ = generate(SynthConfig(n_roots={n_roots}, chain_depth=2,
                                       alphabet=tuple("bBdDfgGjklnprsxzKLNPRSXZ"), seed=42))
    assert len(table) == {n_words}, len(table)
    counts = learn_rules(table)[1].count_by_kind()
    print("learned", counts["concatenative"], "+", counts["templatic"])
except Exception as exc:  # MemoryError included
    print(type(exc).__name__, exc)
"""


def learn_in_child(n_roots: int, n_words: int, limit: int) -> str:
    """The end the child names, after failing the test for a timeout or a
    `MemoryError`."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = CHILD.format(limit=limit, n_roots=n_roots, n_words=n_words)
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"timeout: no end within {DEADLINE_S} s")
    lines = proc.stdout.splitlines()
    end = lines[-1] if lines else f"no outcome (exit {proc.returncode}): {proc.stderr[-500:]}"
    if end.startswith("MemoryError"):
        pytest.fail(f"MemoryError under RLIMIT_AS {limit:,} bytes: {end}")
    return end


def test_7k_learns_within_224_mib():
    assert learn_in_child(200, 7_200, 224 << 20) == "learned 18 + 35"


def test_36k_is_refused_on_the_prefix_side_within_1_gib():
    end = learn_in_child(1000, 36_000, 1 << 30)
    assert end == ("PairBudgetError prefix side of concatenative mining: its rules would "
                   f"hold 19,417,504 support pairs, over the budget of {PAIR_BUDGET:,}"), end
