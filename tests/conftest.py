from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from jzr import rules as rules_module
from jzr.config import Config
from jzr.embeddings import EmbeddingTable
from jzr.extractor import RootExtractor
from jzr.pipeline import learn_rules
from jzr.rules import RuleStore, Thresholds
from jzr.synthlang import GoldEntry, SynthConfig, generate

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@dataclass
class SynthFixture:
    config: SynthConfig
    words: list[str]
    table: EmbeddingTable
    gold: dict[str, GoldEntry]
    candidates: RuleStore
    validated: RuleStore
    run_config: Config


def _build_fixture(chain_depth: int) -> SynthFixture:
    synth = SynthConfig(chain_depth=chain_depth)
    words, table, gold = generate(synth)
    run_config = Config()
    candidates, validated = learn_rules(table, run_config)
    return SynthFixture(synth, words, table, gold, candidates, validated, run_config)


@pytest.fixture(scope="session")
def depth1() -> SynthFixture:
    return _build_fixture(chain_depth=1)


@pytest.fixture(scope="session")
def depth2() -> SynthFixture:
    return _build_fixture(chain_depth=2)


@pytest.fixture(scope="session")
def depth2_extractor(depth2) -> RootExtractor:
    return RootExtractor(depth2.validated, depth2.table, Thresholds())


@pytest.fixture(scope="session")
def small_world():
    """Compact planted world with two-step chains, learned end to end."""
    config = SynthConfig(n_roots=25, chain_depth=2, seed=5)
    words, table, gold = generate(config)
    _, validated = learn_rules(table, Config())
    extractor = RootExtractor(validated, table, Thresholds())
    return config, words, table, gold, validated, extractor


@pytest.fixture(scope="session")
def depth2_predictions(depth2, depth2_extractor):
    """Final roots from full and limited extraction for every derived word."""
    derived = [w for w in depth2.words if depth2.gold[w].chain]
    full = {w: depth2_extractor.extract(w).final for w in derived}
    limited = {w: depth2_extractor.extract(w, limited=True).final for w in derived}
    gold_roots = {w: depth2.gold[w].root for w in derived}
    return derived, full, limited, gold_roots


def random_table(n_words: int, dim: int, seed: int, prefix: str = "w") -> EmbeddingTable:
    rng = np.random.default_rng(seed)
    words = [f"{prefix}{i}" for i in range(n_words)]
    return EmbeddingTable.from_vectors(words, rng.standard_normal((n_words, dim)))


class _HalfWrittenFile:
    """Writes half of what it is given, then fails as a full disk would."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def fail_writes_halfway(monkeypatch):
    """Make every file write_atomic opens fail partway through."""
    monkeypatch.setattr(rules_module, "open",
                        lambda *args, **kwargs: _HalfWrittenFile(open(*args, **kwargs)),
                        raising=False)
