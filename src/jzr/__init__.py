"""Unsupervised learner for concatenative and root-and-pattern morphology.

The package mines candidate rules from a vocabulary's orthography, validates
them with word-embedding analogy scores, and drives an iterative root
extractor over the validated rules.
"""

from .concat import ConcatRule, enumerate_concat_rules
from .config import Config, Thresholds
from .embeddings import EmbeddingTable, load_embeddings
from .evalharness import evaluate
from .pipeline import learn_rules
from .extractor import ExtractionTrace, RootExtractor
from .rules import (
    MorphRule,
    RuleScores,
    RuleStore,
    load_rules,
    prune_rules,
    rank_rules,
    save_rules,
    vocab_fingerprint,
)
from .synthlang import SynthConfig, generate, write_fixture
from .templatic import Template, enumerate_templatic_rules

__version__ = "0.1.0"

__all__ = [
    "ConcatRule", "Config", "EmbeddingTable", "ExtractionTrace", "MorphRule",
    "RootExtractor", "RuleScores", "RuleStore", "SynthConfig", "Template",
    "Thresholds", "enumerate_concat_rules", "enumerate_templatic_rules",
    "evaluate", "generate", "learn_rules", "load_embeddings", "load_rules",
    "prune_rules", "rank_rules", "save_rules", "vocab_fingerprint",
    "write_fixture",
]
