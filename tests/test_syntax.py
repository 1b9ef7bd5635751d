"""Every package module, script, test and benchmark module parses at the
oldest Python that pyproject.toml allows.

The suite runs on whatever interpreter is at hand, which may be newer than
that floor; this catches newer syntax before a user on the floor does.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jzr"
MODULES = [*sorted(PACKAGE.glob("*.py")), *sorted(ROOT.glob("scripts/*.py")),
           *sorted(ROOT.glob("tests/*.py")), *sorted(ROOT.glob("perfbench/*.py"))]


# The `requires-python = ">=X.Y"` floor, as (X, Y).
FLOOR = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                                 re.M).groups()))


def _id(path):
    """A package module's bare name, or any other module's path from the root."""
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


@pytest.mark.parametrize("module", MODULES, ids=_id)
def test_module_parses_at_the_python_floor(module):
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module),
              feature_version=FLOOR)
