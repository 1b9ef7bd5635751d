"""The names `jzr` exports, and README's library example that imports them."""

import re
import types
from pathlib import Path

import jzr
from jzr.synthlang import SynthConfig, write_fixture

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_lists_exactly_the_public_names():
    # A name dropped from the imports or from __all__ cannot linger in the other.
    bound = [name for name, value in vars(jzr).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(jzr.__all__) == sorted(bound)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = README.read_text(encoding="utf-8")
    library = readme[readme.index("\n## Library\n"):]
    example = re.search(r"^```python\n(.*?)^```", library, re.M | re.S).group(1)
    write_fixture(SynthConfig(n_roots=30, chain_depth=2, seed=42), tmp_path / "fixture")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("fnr reached_triliteral ") for line in lines)
