"""Golden outputs: `jzr learn` and `jzr extract` on one small planted language.

The rule DB and the full and limited traces of every word are pinned by
sha256, so a change meant to keep outputs byte-identical is checked as it
runs. A change that moves any of them on purpose must re-pin the digests
here and say which outputs moved and why.
"""

import hashlib

from jzr import cli
from jzr.synthlang import SynthConfig, load_gold, write_fixture

CONFIG = SynthConfig(n_roots=40, chain_depth=2,
                     alphabet=tuple("bBdDfgGjklnprsxzKLNPRSXZ"), seed=42)
DB_SHA256 = "a17f737a38d55f1811fb70f7e41e0b62cbec08a0f6e95350a3c724d7e539348b"
FULL_SHA256 = "49887231ee0ba7f3298acad9e201521a36286dc8131b5a787a83b789a4b88b43"
LIMITED_SHA256 = "b2b0e6861135b1ec25f23a0e7e2202023439805819dafb35d60396af8ac0deaa"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_learn_and_extract_outputs_are_pinned(tmp_path):
    vectors, gold = write_fixture(CONFIG, tmp_path / "fix")
    db = tmp_path / "rules.db"
    assert cli.main(["learn", "--vectors", str(vectors), "--out", str(db)]) == 0
    words = tmp_path / "words.txt"
    words.write_text("".join(w + "\n" for w in load_gold(gold)), encoding="utf-8")
    traces = {}
    for mode, flags in (("full", []), ("limited", ["--limited"])):
        traces[mode] = tmp_path / f"{mode}.txt"
        assert cli.main(["extract", "--rules", str(db), "--vectors", str(vectors),
                         "--words", str(words), "--out", str(traces[mode])] + flags) == 0
    assert (sha256(db), sha256(traces["full"]), sha256(traces["limited"])) == (
        DB_SHA256, FULL_SHA256, LIMITED_SHA256)
