"""The names `jzr` exports, README's library example that imports them, and
README's table of the settings."""

import json
import re
import types
from pathlib import Path

import numpy as np

import jzr
from jzr.config import SETTING_TYPES, Config
from jzr.embeddings import EmbeddingTable
from jzr.pipeline import learn_rules
from jzr.rules import save_rules
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


def test_readme_configuration_table_is_config(tmp_path):
    # The table lists every setting, in SETTING_TYPES' order (which is the
    # order of Config's fields, of `jzr learn`'s flags and of a rule DB's
    # #config line), with its default.
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("\n## Configuration\n"):]
    section = section[:section.index("\n## ", 1)]
    rows = re.findall(r"^\| `(\w+)` +\| (\S+) +\|", section, re.M)
    assert [name for name, _ in rows] == list(SETTING_TYPES)
    for name, default in rows:
        assert (None if default == "none" else json.loads(default)) == getattr(Config(), name)
    header, *fields = config_line(tmp_path).split(" ")
    assert header == "#config"
    assert [field.split("=")[0] for field in fields] == [name for name, _ in rows]


def config_line(tmp_path) -> str:
    """The `#config` line save_rules writes for a store learned with Config()."""
    words = ["abc", "xabc", "abd", "xabd"]
    validated = learn_rules(EmbeddingTable(words, np.eye(4)), Config())[1]
    save_rules(validated, tmp_path / "rules.db")
    return (tmp_path / "rules.db").read_text(encoding="utf-8").split("\n")[3]


def test_readme_config_line_is_what_save_rules_writes(tmp_path):
    readme = README.read_text(encoding="utf-8")
    section = readme[readme.index("\n### Rule DB format\n"):]
    example = re.search(r"^```\n(#config .*)\n```$", section, re.M).group(1)
    assert example == config_line(tmp_path)
