"""The 36k-word planted language in a child process under a 1 GiB address-space limit.

The rules of its concatenative mining would hold 19.4M support pairs on
the prefix side and 27.5M on the suffix side, so `learn_rules` must refuse it with
`PairBudgetError` before the prefix side makes its first rule. Running out
of memory, running past the deadline or any other end is a scale
regression in the program: the limit, the deadline and the language are
fixed, and a failure names which end it met.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from jzr.concat import PAIR_BUDGET

SRC = Path(__file__).resolve().parents[1] / "src"
LIMIT_BYTES = 1 << 30
DEADLINE_S = 60

# The limit is set in the child, so it acts on that process alone. The
# last stdout line names the end: the exception's type and message, or
# "learned" when nothing is refused.
CHILD = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({LIMIT_BYTES}, {LIMIT_BYTES}))
try:
    from jzr.pipeline import learn_rules
    from jzr.synthlang import SynthConfig, generate

    _, table, _ = generate(SynthConfig(n_roots=1000, chain_depth=2,
                                       alphabet=tuple("bBdDfgGjklnprsxzKLNPRSXZ"), seed=42))
    assert len(table) == 36_000, len(table)
    learn_rules(table)
    print("learned")
except Exception as exc:  # MemoryError included
    print(type(exc).__name__, exc)
"""


def test_36k_is_refused_on_the_prefix_side_within_1_gib():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                              text=True, timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        pytest.fail(f"timeout: no end within {DEADLINE_S} s")
    lines = proc.stdout.splitlines()
    end = lines[-1] if lines else f"no outcome (exit {proc.returncode}): {proc.stderr[-500:]}"
    if end.startswith("MemoryError"):
        pytest.fail(f"MemoryError under RLIMIT_AS {LIMIT_BYTES:,} bytes: {end}")
    assert end == ("PairBudgetError prefix side of concatenative mining: its rules would "
                   f"hold 19,417,504 support pairs, over the budget of {PAIR_BUDGET:,}"), end
