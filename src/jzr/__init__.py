"""Unsupervised learner for concatenative and root-and-pattern morphology.

The package mines candidate rules from a vocabulary's orthography, validates
them with word-embedding analogy scores, and drives an iterative root
extractor over the validated rules.
"""

from .concat import PREFIX, SUFFIX, ConcatRule, enumerate_concat_rules
from .config import Config, build_config
from .embeddings import (
    EmbeddingTable,
    analogy_score,
    cosine,
    load_embeddings,
)
from .evalharness import EvalReport, evaluate
from .pipeline import learn_rules
from .extractor import ExtractionTrace, RootExtractor
from .rules import (
    MorphRule,
    RuleScores,
    RuleStore,
    Thresholds,
    load_rules,
    prune_rules,
    rank_rules,
    save_rules,
    vocab_fingerprint,
)
from .synthlang import GoldEntry, SynthConfig, generate, write_fixture
from .templatic import Template, enumerate_templatic_rules, extract_templates

__version__ = "0.1.0"

__all__ = [
    "ConcatRule", "Config", "EmbeddingTable", "EvalReport", "ExtractionTrace",
    "GoldEntry", "MorphRule", "PREFIX", "RootExtractor", "RuleScores",
    "RuleStore", "SUFFIX", "SynthConfig", "Template", "Thresholds",
    "analogy_score", "build_config", "cosine", "enumerate_concat_rules",
    "enumerate_templatic_rules", "evaluate", "extract_templates", "generate",
    "learn_rules", "load_embeddings", "load_rules", "prune_rules",
    "rank_rules", "save_rules", "vocab_fingerprint", "write_fixture",
]
