"""Workload definitions, input generation and the statistics the benchmark reports.

This module imports neither numpy nor jzr, so the parent process stays small
and the tests can check the inputs without building a fixture.
"""

from __future__ import annotations

import bisect
import math
import random

# The ROADMAP baseline language: 200 roots over a 24-letter root alphabet,
# every templatic word also affixed (chain_depth=2), giving 7,200 words.
SYNTH_FIELDS = {
    "n_roots": 200,
    "chain_depth": 2,
    "alphabet": "bBdDfgGjklnprsxzKLNPRSXZ",
    "dim": 64,
    "noise_sigma": 0.01,
}
N_TOKENS = 100_000
ZIPF_S = 1.0

TYPES = "extract-types-7k"
TOKENS = "extract-tokens-7k"
WORKLOADS = (TYPES, TOKENS)

# Seed-42 answers measured on the ROADMAP baseline.
KNOWN_ANSWERS = {
    42: {
        "concat.candidates": 813_210,
        "templatic.candidates": 35,
        "concat.support_pairs": 1_884_750,
        "rules.validated.concatenative": 18,
        "rules.validated.templatic": 35,
    },
}

# Extraction accuracy the acceptance suite requires on two-step derivations.
MIN_ACCURACY = 0.95

# Timed extraction set-ups after each pass's own; setup_s is the median of
# all of them, spread over the run like the passes.
EXTRA_SETUPS = 2
# Every extraction input is timed at least this often and each word is
# costed at its fastest pass: load from other tenants of a shared machine
# only ever slows a call down, in stretches of seconds to minutes, so a word
# needs passes spread over the run.
MIN_PASSES = 3
# Each pass then extracts the words that occur earlier in the list (most of
# a token stream) this many more times: pure cache hits, the same work as
# their first call, so each is timed several times per pass at little cost.
REWALKS = 2

# Every metric the benchmark prints, with its unit. BENCHMARK.json lists the
# same names; a test keeps the two in step.
END_TO_END_UNITS = {
    "setup_s": "s",
    "words_per_s": "words/ref-s",
    "word_ms_p99": "ref-ms",
    "learn_peak_rss_mb": "MB",
    "extract_peak_rss_mb": "MB",
    "accuracy": "fraction",
}

PER_LAYER_UNITS = {
    "embeddings.load_s": "s",
    "embeddings.words": "count",
    "concat.enumerate_s": "s",
    "concat.candidates": "count",
    "concat.support_pairs": "count",
    "concat.over_orth": "count",
    "concat.useful_ratio": "ratio",
    "templatic.enumerate_s": "s",
    "templatic.candidates": "count",
    "templatic.support_pairs": "count",
    "rules.from_candidates_s": "s",
    "rules.score_all_s": "s",
    "rules.scored": "count",
    "rules.sampled": "count",
    "rules.prune_s": "s",
    "rules.save_s": "s",
    "rules.db_bytes": "bytes",
    "rules.validated.concatenative": "count",
    "rules.validated.templatic": "count",
    "rules.load_s": "s",
    "rules.score_w_sem_calls": "count",
    "rules.score_w_sem_s": "s",
    "extractor.build_s": "s",
    "extractor.extract_s": "s",
    "extractor.self_s": "s",
    "extractor.steps": "count",
    "extractor.rep_fallbacks": "count",
    "extractor.reached_triliteral": "count",
    "extractor.infeasible_stop": "count",
    "pipeline.learn_rules_s": "s",
    "pipeline.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


def synth_fields(seed: int) -> dict:
    """Keyword arguments for jzr's SynthConfig at this seed."""
    fields = dict(SYNTH_FIELDS, seed=seed)
    fields["alphabet"] = tuple(fields["alphabet"])
    return fields


def token_stream(vocab: list[str], seed: int, n: int = N_TOKENS,
                 s: float = ZIPF_S) -> list[str]:
    """A Zipf(s) stream of `n` tokens over `vocab`.

    A seeded shuffle assigns frequency ranks, so which words are frequent
    changes with the seed but not with the vocabulary's file order.
    """
    rng = random.Random(f"tokens:{seed}")
    ranked = list(vocab)
    rng.shuffle(ranked)
    cum, total = [], 0.0
    for rank in range(1, len(ranked) + 1):
        total += rank ** -s
        cum.append(total)
    return [ranked[min(bisect.bisect_right(cum, rng.random() * total), len(ranked) - 1)]
            for _ in range(n)]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    # Rounding first keeps 99.9% of 10,000 at rank 9,990, not 9,991.
    return min(max(math.ceil(round(q / 100 * n, 6)), 1), n)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(q, len(sorted_values)) - 1]


def tail_percentile(sorted_values: list[float],
                    ladder=(50.0, 90.0, 99.0, 99.9, 99.99)) -> tuple[float, float]:
    """(q, value) for the highest q in `ladder` with at least 10 samples above it."""
    n = len(sorted_values)
    supported = [q for q in ladder if n and n - _rank(q, n) >= 10]
    if not supported:
        raise ValueError(f"{n} samples support no percentile in {ladder}")
    q = supported[-1]
    return q, percentile(sorted_values, q)


def latency_summary(latencies_s: list[float]) -> dict:
    """Median, p99 and the supported tail of per-word latencies, in ms, with counts."""
    ms = sorted(x * 1e3 for x in latencies_s)
    n = len(ms)
    tail_q, tail_ms = tail_percentile(ms)
    return {
        "n": n,
        "p50_ms": percentile(ms, 50),
        "p99_ms": percentile(ms, 99),
        "p99_samples_above": n - _rank(99, n),
        "tail_q": tail_q,
        "tail_ms": tail_ms,
    }
