"""Rule inventory: semantic and orthographic scoring, validation, ranking, DB io."""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .concat import ConcatRule
from .embeddings import EmbeddingTable
from .templatic import Template, parse_template

CONCATENATIVE = "concatenative"
TEMPLATIC = "templatic"

RuleKey = ConcatRule | Template
Pair = tuple[str, str]

_DB_MAGIC = "#morphruledb 1"


class RuleDbError(ValueError):
    """Malformed rule database file."""


class PairNotInSupportError(LookupError):
    """A word pair was scored against a rule that does not support it."""


class EmptySupportWarning(UserWarning):
    """No support pair had embeddings; the semantic score was defined as 0.0."""


def rule_kind(key: RuleKey) -> str:
    return CONCATENATIVE if isinstance(key, ConcatRule) else TEMPLATIC


@dataclass(frozen=True)
class RuleScores:
    """orth is the raw support size; sem the analogy-pass fraction in [0, 1]."""

    orth: int
    sem: float
    sampled: bool

    def __post_init__(self):
        if self.orth < 0:
            raise ValueError("orth score is a support size and cannot be negative")
        if not 0.0 <= self.sem <= 1.0:
            raise ValueError(f"sem score out of [0, 1]: {self.sem}")


@dataclass(frozen=True)
class Thresholds:
    t_cos_sim: float = 0.5
    t_r_sem: float = 0.1
    t_r_orth: int = 20
    t_w_sem: float = 0.1

    def __post_init__(self):
        if not -1.0 < self.t_cos_sim < 1.0:
            raise ValueError("t_cos_sim must lie strictly inside (-1, 1)")
        if not 0.0 <= self.t_r_sem <= 1.0:
            raise ValueError("t_r_sem must lie in [0, 1]")
        if not 0.0 <= self.t_w_sem <= 1.0:
            raise ValueError("t_w_sem must lie in [0, 1]")
        if self.t_r_orth < 1:
            raise ValueError("t_r_orth must be at least 1")


@dataclass
class MorphRule:
    key: RuleKey
    support: tuple[Pair, ...]
    scores: RuleScores | None = None


def vocab_fingerprint(words) -> str:
    """Order-sensitive digest of a vocabulary, used to pin rule DBs to vectors."""
    h = hashlib.sha256()
    for w in words:
        h.update(w.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def support_sample(rule: MorphRule, table: EmbeddingTable, sample_cap: int,
                   seed: int) -> tuple[np.ndarray, bool]:
    """Table rows (source, derived) of the embedded support pairs, one row each.

    Supports larger than `sample_cap` are cut to a deterministic seeded
    sample; the flag says whether that happened.
    """
    index = table.index
    rows = [(index[a], index[b]) for a, b in rule.support if a in index and b in index]
    sampled = len(rows) > sample_cap
    if sampled:
        # hashlib, not hash(): per-rule sampling must survive interpreter restarts.
        digest = hashlib.sha256(f"{seed}|{rule.key.key_str}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
        keep = sorted(rng.choice(len(rows), size=sample_cap, replace=False).tolist())
        rows = [rows[i] for i in keep]
    return np.array(rows, dtype=np.intp).reshape(-1, 2), sampled


def _count_passes(w1: np.ndarray, w2: np.ndarray, offsets: np.ndarray,
                  t_cos: float) -> np.ndarray:
    """Per query pair (w1[q], w2[q]): the offsets o with cos(o + w1[q], w2[q]) > t_cos.

    A target or query vector of (near-)zero norm counts as cosine 0.0.
    """
    targets = offsets[None, :, :] + w1[:, None, :]
    dots = np.einsum("qid,qd->qi", targets, w2)
    denom = np.linalg.norm(targets, axis=2) * np.linalg.norm(w2, axis=1)[:, None]
    ok = denom > 1e-12
    cos = np.where(ok, dots / np.where(ok, denom, 1.0), 0.0)
    return np.count_nonzero(cos > t_cos, axis=1)


def _warn_empty(rule: MorphRule) -> None:
    warnings.warn(
        f"rule {rule.key.key_str} has no embedded support pairs; sem = 0.0",
        EmptySupportWarning,
    )


def _score_rule_sem(rule: MorphRule, table: EmbeddingTable, t_cos: float,
                    sample_cap: int, seed: int) -> tuple[float, bool]:
    rows, sampled = support_sample(rule, table, sample_cap, seed)
    if not len(rows):
        _warn_empty(rule)
        return 0.0, False
    w1, w2 = table.matrix[rows[:, 0]], table.matrix[rows[:, 1]]
    n = len(rows)
    return int(_count_passes(w1, w2, w2 - w1, t_cos).sum()) / (n * n), sampled


def sample_w_sem(pair: Pair, rule: MorphRule, rows: np.ndarray,
                 table: EmbeddingTable, t_cos: float) -> float:
    """w_sem of `pair` against the rule's support sample `rows` (see support_sample)."""
    if not len(rows):
        _warn_empty(rule)
        return 0.0
    w1 = table.lookup(pair[0])[None, :]
    w2 = table.lookup(pair[1])[None, :]
    offsets = table.matrix[rows[:, 1]] - table.matrix[rows[:, 0]]
    return int(_count_passes(w1, w2, offsets, t_cos)[0]) / len(rows)


def score_r_sem(rule: MorphRule, table: EmbeddingTable, t_cos: float = 0.5,
                sample_cap: int = 100, seed: int = 42) -> float:
    """Fraction of ordered support-pair combinations that pass the analogy test.

    The diagonal is included, so a singleton support always scores 1.0 when
    t_cos < 1. Supports larger than `sample_cap` are scored over a
    deterministic seeded sample.
    """
    sem, _ = _score_rule_sem(rule, table, t_cos, sample_cap, seed)
    return sem


def score_w_sem(pair: Pair, rule: MorphRule, table: EmbeddingTable,
                t_cos: float = 0.5, sample_cap: int = 100, seed: int = 42) -> float:
    """How well one support pair's offset agrees with the rest of the rule's.

    For query pair (w1, w2) and each support pair (w3, w4) the test reads
    cos(v_w2, v_w4 - v_w3 + v_w1) > t_cos; the result is the passing
    fraction. Sampling follows the same per-rule deterministic scheme as
    score_r_sem.
    """
    if pair not in rule.support:
        raise PairNotInSupportError(f"{pair!r} not in support of {rule.key.key_str}")
    rows, _ = support_sample(rule, table, sample_cap, seed)
    return sample_w_sem(pair, rule, rows, table, t_cos)


class RuleStore:
    """Insertion-ordered collection of rules, keyed by their textual form."""

    def __init__(self, rules=(), vocab_hash: str = "",
                 candidate_counts: dict[str, int] | None = None):
        self._rules: dict[str, MorphRule] = {}
        for rule in rules:
            ks = rule.key.key_str
            if ks in self._rules:
                raise ValueError(f"duplicate rule key: {ks}")
            self._rules[ks] = rule
        self.vocab_hash = vocab_hash
        self.candidate_counts = dict(candidate_counts or {})

    @classmethod
    def from_candidates(cls, concat_map, templatic_map, vocab_hash: str = "") -> "RuleStore":
        rules = [MorphRule(k, v) for k, v in concat_map.items()]
        rules += [MorphRule(k, v) for k, v in templatic_map.items()]
        counts = {CONCATENATIVE: len(concat_map), TEMPLATIC: len(templatic_map)}
        return cls(rules, vocab_hash=vocab_hash, candidate_counts=counts)

    def __iter__(self):
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, ks: str) -> bool:
        return ks in self._rules

    def get(self, ks: str) -> MorphRule | None:
        return self._rules.get(ks)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuleStore):
            return NotImplemented
        return (self._rules == other._rules
                and self.vocab_hash == other.vocab_hash
                and self.candidate_counts == other.candidate_counts)

    def count_by_kind(self) -> dict[str, int]:
        counts = {CONCATENATIVE: 0, TEMPLATIC: 0}
        for rule in self:
            counts[rule_kind(rule.key)] += 1
        return counts

    def score_all(self, table: EmbeddingTable, t_cos: float = 0.5,
                  sample_cap: int = 100, seed: int = 42,
                  orth_gate: int | None = None) -> None:
        """Fill in RuleScores for every rule.

        With `orth_gate` set, rules whose support size cannot clear the
        orthographic threshold keep sem = 0.0 unscored; they can never
        validate, and skipping them avoids scoring the long tail of
        single-pair candidates.
        """
        for rule in self:
            orth = len(rule.support)
            if orth_gate is not None and orth <= orth_gate:
                rule.scores = RuleScores(orth, 0.0, False)
                continue
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", EmptySupportWarning)
                sem, sampled = _score_rule_sem(rule, table, t_cos, sample_cap, seed)
            rule.scores = RuleScores(orth, sem, sampled)


def _order_key(rule: MorphRule):
    return (-rule.scores.sem, -rule.scores.orth, rule.key.key_str)


def prune_rules(store: RuleStore, thresholds: Thresholds) -> RuleStore:
    """Keep rules with sem strictly above t_r_sem and orth strictly above t_r_orth.

    Survivors are ordered by descending sem, then descending orth, then key.
    """
    for rule in store:
        if rule.scores is None:
            raise ValueError(f"rule {rule.key.key_str} not scored; run score_all first")
    survivors = [
        rule for rule in store
        if rule.scores.sem > thresholds.t_r_sem and rule.scores.orth > thresholds.t_r_orth
    ]
    survivors.sort(key=_order_key)
    return RuleStore(survivors, vocab_hash=store.vocab_hash,
                     candidate_counts=store.candidate_counts)


def rank_rules(store: RuleStore, kind: str = "all", top_k: int = 30) -> list[MorphRule]:
    """Top rules by semantic score under a kind filter, deterministically tie-broken."""
    if kind not in ("all", CONCATENATIVE, TEMPLATIC):
        raise ValueError(f"unknown kind filter: {kind!r}")
    rules = [r for r in store if kind == "all" or rule_kind(r.key) == kind]
    for rule in rules:
        if rule.scores is None:
            raise ValueError(f"rule {rule.key.key_str} not scored")
    rules.sort(key=_order_key)
    return rules[: max(top_k, 0)]


def save_rules(store: RuleStore, path) -> None:
    """Write the rule DB: header lines, then one rule record plus its pairs."""
    lines = [_DB_MAGIC, f"#vocab-hash {store.vocab_hash}"]
    counts = store.candidate_counts
    lines.append(
        "#candidates "
        f"{CONCATENATIVE}={counts.get(CONCATENATIVE, 0)} "
        f"{TEMPLATIC}={counts.get(TEMPLATIC, 0)}"
    )
    for rule in store:
        s = rule.scores
        if s is None:
            raise ValueError(f"rule {rule.key.key_str} not scored; cannot save")
        sampled = "1" if s.sampled else "0"
        if isinstance(rule.key, ConcatRule):
            k = rule.key
            lines.append(
                f"rule\t{CONCATENATIVE}\t{k.side}\t{k.old}\t{k.new}"
                f"\t{s.orth}\t{s.sem!r}\t{sampled}"
            )
        else:
            lines.append(
                f"rule\t{TEMPLATIC}\t{rule.key.pattern}\t{s.orth}\t{s.sem!r}\t{sampled}"
            )
        for w1, w2 in rule.support:
            lines.append(f"pair\t{w1}\t{w2}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_counts(text: str) -> dict[str, int]:
    counts = {}
    for field in text.split():
        name, _, value = field.partition("=")
        counts[name] = int(value)
    return counts


def load_rules(path) -> RuleStore:
    rules: list[MorphRule] = []
    vocab_hash = ""
    counts: dict[str, int] = {}
    current_key: RuleKey | None = None
    current_scores: RuleScores | None = None
    current_pairs: list[Pair] = []

    def flush():
        if current_key is not None:
            rules.append(MorphRule(current_key, tuple(current_pairs), current_scores))

    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != _DB_MAGIC:
            raise RuleDbError(f"not a rule DB (bad magic line): {first!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith("#vocab-hash "):
                vocab_hash = line.split(" ", 1)[1]
                continue
            if line.startswith("#candidates "):
                counts = _parse_counts(line.split(" ", 1)[1])
                continue
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            try:
                if fields[0] == "rule":
                    flush()
                    current_pairs = []
                    if fields[1] == CONCATENATIVE:
                        _, _, side, old, new, orth, sem, sampled = fields
                        current_key = ConcatRule(side, old, new)
                    elif fields[1] == TEMPLATIC:
                        _, _, pattern, orth, sem, sampled = fields
                        current_key = parse_template(pattern)
                    else:
                        raise ValueError(f"unknown rule kind {fields[1]!r}")
                    current_scores = RuleScores(int(orth), float(sem), sampled == "1")
                elif fields[0] == "pair":
                    _, w1, w2 = fields
                    current_pairs.append((w1, w2))
                else:
                    raise ValueError(f"unknown record type {fields[0]!r}")
            except (ValueError, IndexError) as exc:
                raise RuleDbError(f"line {lineno}: {exc}") from None
    flush()
    return RuleStore(rules, vocab_hash=vocab_hash, candidate_counts=counts)
