"""Mutated input files: each reader accepts one or refuses it as a data error.

An example edits a file that jzr wrote, one to three times: it deletes,
repeats or swaps a line, sets a field to an odd value, or truncates the
text. The commands that read the file must then exit 0 or 2, never 3 (an
internal bug), and print no traceback. A rule DB they accept must also
survive the save and load round trip, and its cache.
"""

from __future__ import annotations

import contextlib
import io
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jzr import rules
from jzr.cli import main
from jzr.rules import load_rules, save_rules
from jzr.synthlang import SynthConfig, write_fixture

# What a field is set to: values a float parse takes but a check must
# refuse or keep exact, an empty field, and characters no word may hold.
ODD_VALUES = ("nan", "1e400", "-0.0", "", "\t", "\x01")

# A field: a run of characters between tabs, spaces and the `=` of a header.
FIELD = re.compile(r"[^\t =]+")


def edits(lines: list[str]):
    """One edit of a file of `lines`. Half the edits pick a line that is not
    a pair line, since a rule DB has few of them."""
    rare = [i for i, line in enumerate(lines) if not line.startswith("pair\t")]
    line = st.sampled_from(rare) | st.integers(0, len(lines) - 1)
    return st.one_of(
        st.tuples(st.just("delete"), line),
        st.tuples(st.just("repeat"), line),
        st.tuples(st.just("swap"), line, line),
        st.tuples(st.just("field"), line, st.integers(0, 70), st.sampled_from(ODD_VALUES)),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
    )


def mutate(text: str, changes) -> str:
    lines = text.split("\n")
    for kind, *args in changes:
        if kind == "truncate":
            text = "\n".join(lines)
            lines = text[:int(len(text) * args[0])].split("\n")
            continue
        i = args[0] % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = args[1] % len(lines)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            fields = list(FIELD.finditer(lines[i]))
            value = args[2]
            if fields:
                m = fields[args[1] % len(fields)]
                lines[i] = lines[i][:m.start()] + value + lines[i][m.end():]
            else:
                lines[i] = value
        if not lines:
            lines = [""]
    return "\n".join(lines)


def draw_mutated(data, source, target) -> None:
    """Write to `target` the text of `source` after one to three edits."""
    lines = source.read_text(encoding="utf-8").split("\n")
    changes = data.draw(st.lists(edits(lines), min_size=1, max_size=3))
    target.write_text(mutate("\n".join(lines), changes), encoding="utf-8")


def run(*argv) -> int:
    """`main(argv)`'s exit code, which must be 0 or 2 with no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code in (0, 2) and "Traceback" not in err.getvalue(), (code, err.getvalue())
    return code


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """Two learned fixtures: 30 roots for the rule DB, 5 for the inputs
    `learn` and `eval` read, since each example learns again."""
    root = tmp_path_factory.mktemp("fuzz")
    made = {}
    for name, n_roots in (("db", 30), ("small", 5)):
        fix = root / name
        write_fixture(SynthConfig(n_roots=n_roots, seed=11, chain_depth=2), fix)
        assert run("learn", "--vectors", fix / "vectors.txt", "--out", fix / "rules.db") == 0
        gold = [line.split("\t")[0] for line in
                (fix / "gold.tsv").read_text(encoding="utf-8").splitlines()]
        (fix / "words.txt").write_text("\n".join(gold) + "\n", encoding="utf-8")
        assert run("extract", "--rules", fix / "rules.db",
                   "--words", fix / "words.txt", "--out", fix / "pred.tsv") == 0
        made[name] = fix
    (root / "mutated").mkdir()
    return made, root / "mutated"


@settings(max_examples=100)
@given(data=st.data())
def test_mutated_rule_db(fixtures, data):
    made, out = fixtures
    fix, db = made["db"], out / "rules.db"
    draw_mutated(data, fix / "rules.db", db)
    accepted = run("rank", "--rules", db) == 0
    extracted = run("extract", "--rules", db, "--words", fix / "words.txt") == 0
    assert accepted or not extracted  # both read the DB with load_rules
    if not accepted:
        return
    cache = db.with_name(f".{db.name}.jzrcache.npz")
    cache.unlink()
    first = load_rules(db)
    with mock.patch.object(rules, "_parse_db", side_effect=AssertionError("cache miss")):
        assert load_rules(db) == first
    save_rules(first, out / "saved.db")
    again = load_rules(out / "saved.db")
    assert again == first
    save_rules(again, out / "resaved.db")
    assert (out / "resaved.db").read_bytes() == (out / "saved.db").read_bytes()


@settings(max_examples=25)
@given(data=st.data())
def test_mutated_vectors(fixtures, data):
    made, out = fixtures
    fix, vectors = made["small"], out / "vectors.txt"
    draw_mutated(data, fix / "vectors.txt", vectors)
    run("learn", "--vectors", vectors, "--out", out / "learned.db")


@settings(max_examples=25)
@given(data=st.data(), name=st.sampled_from(["gold.tsv", "pred.tsv"]))
def test_mutated_gold_or_predictions(fixtures, data, name):
    made, out = fixtures
    fix = made["small"]
    paths = {"gold.tsv": fix / "gold.tsv", "pred.tsv": fix / "pred.tsv"}
    draw_mutated(data, paths[name], out / name)
    paths[name] = out / name
    run("eval", "--gold", paths["gold.tsv"], "--pred", f"jzr={paths['pred.tsv']}")
