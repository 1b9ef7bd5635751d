"""The benchmark's learn and extract phases, run in-process on a small fixture.

`phases.main` is never called here: it caps the address space of the whole
process it runs in.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from jzr import SynthConfig
from jzr.synthlang import write_fixture

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import phases  # noqa: E402  (perfbench is not a package)
import spec  # noqa: E402

SEED = 42
# The hooks whose targets the package no longer has. A refactor that drops
# another boundary fails here rather than zeroing its span unnoticed.
ABSENT = {"rules.from_candidates", "rules.score_all", "rules.score_w_sem"}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("bench")
    write_fixture(SynthConfig(**{**spec.synth_fields(SEED), "n_roots": 30}), path)
    return path


def test_phases_learn_and_extract_every_word_right(workdir):
    counts = []
    for trace in (False, True):
        learned = phases.run_learn(workdir, SEED, trace, None)
        assert learned["missing"] == [[]]  # every planted rule validated
        assert (learned["trace"] is not None) == trace
        if trace:
            assert set(learned["trace"]["absent"]) == ABSENT
        counts.append(learned["counts"])
        extracted = phases.run_extract(workdir, SEED, 0, trace, None, "types",
                                       min_passes=1, rewalks=0)
        assert (extracted["failed"], extracted["first_error"]) == (0, None)
        assert extracted["extracted"] == extracted["words"] > 0
        assert extracted["right"] == extracted["extracted"]
        if trace:  # each stage of the set-up and the calls keeps its hook
            report = extracted["trace"]
            assert set(report["absent"]) == ABSENT
            for name in ("rules.load", "embeddings.load", "extractor.build",
                         "extractor.extract"):
                assert name not in report["absent"], name
                assert report["spans"][name]["calls"] > 0, name
    assert counts[0] == counts[1]  # tracing changes no count
