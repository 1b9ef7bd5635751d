"""Rule inventory: semantic and orthographic scoring, validation, ranking, DB io."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .concat import ConcatRule
from .embeddings import _NORM_EPS, EmbeddingTable
from .templatic import Template, parse_template

CONCATENATIVE = "concatenative"
TEMPLATIC = "templatic"

RuleKey = ConcatRule | Template
Pair = tuple[str, str]

_DB_MAGIC = "#morphruledb 2"
_V1_MAGIC = "#morphruledb 1"


class RuleDbError(ValueError):
    """Malformed rule database file."""


def rule_kind(key: RuleKey) -> str:
    return CONCATENATIVE if isinstance(key, ConcatRule) else TEMPLATIC


@dataclass(frozen=True, slots=True)
class RuleScores:
    """orth is the raw support size; sem the analogy-pass fraction in [0, 1].

    w_sem holds each support pair's own pass fraction, aligned with the
    rule's support; it is empty for rules left semantically unscored.
    """

    orth: int
    sem: float
    sampled: bool
    w_sem: tuple[float, ...] = ()

    def __post_init__(self):
        if self.orth < 0:
            raise ValueError("orth score is a support size and cannot be negative")
        if not 0.0 <= self.sem <= 1.0:
            raise ValueError(f"sem score out of [0, 1]: {self.sem}")


@dataclass(frozen=True)
class ScoringSettings:
    """The settings semantic scores are computed with; a rule DB records them."""

    t_cos_sim: float
    sample_cap: int
    seed: int

    def __post_init__(self):
        if not -1.0 < self.t_cos_sim < 1.0:
            raise ValueError("t_cos_sim must lie strictly inside (-1, 1)")
        if self.sample_cap < 1:
            raise ValueError("sample_cap must be at least 1")


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


@dataclass(slots=True)
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
                   seed: int) -> tuple[list[int], list[int]]:
    """Support positions of the embedded pairs, and of the sample drawn from them.

    The sample is every embedded pair, unless there are more than
    `sample_cap`: then it is a deterministic seeded choice of that many.
    """
    index = table.index
    embedded = [i for i, (a, b) in enumerate(rule.support) if a in index and b in index]
    if len(embedded) <= sample_cap:
        return embedded, embedded
    # hashlib, not hash(): per-rule sampling must survive interpreter restarts.
    digest = hashlib.sha256(f"{seed}|{rule.key.key_str}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    keep = sorted(rng.choice(len(embedded), size=sample_cap, replace=False).tolist())
    return embedded, [embedded[i] for i in keep]


def _vectors(rule: MorphRule, table: EmbeddingTable,
             positions: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Source and derived vectors of the support pairs at `positions`."""
    index, support = table.index, rule.support
    return (table.matrix[[index[support[p][0]] for p in positions]],
            table.matrix[[index[support[p][1]] for p in positions]])


def _count_passes(w1: np.ndarray, w2: np.ndarray, offsets: np.ndarray,
                  t_cos: float) -> np.ndarray:
    """Per query pair (w1[q], w2[q]): the offsets o with cos(o + w1[q], w2[q]) > t_cos.

    A target o + w1[q] or query w2[q] whose own norm is at most `_NORM_EPS`
    counts as cosine 0.0. This is the package's only cosine.
    """
    targets = offsets[None, :, :] + w1[:, None, :]
    dots = np.einsum("qid,qd->qi", targets, w2)
    target_norms = np.linalg.norm(targets, axis=2)
    query_norms = np.linalg.norm(w2, axis=1)[:, None]
    ok = (target_norms > _NORM_EPS) & (query_norms > _NORM_EPS)
    cos = np.divide(dots, target_norms * query_norms, out=np.zeros_like(dots), where=ok)
    return np.count_nonzero(cos > t_cos, axis=1)


def score_rule(rule: MorphRule, table: EmbeddingTable,
               scoring: ScoringSettings) -> RuleScores:
    """orth, sem (r_sem) and every support pair's w_sem, from one seeded sample.

    For query pair (w1, w2) and sample pair (w3, w4) the analogy test reads
    cos(v_w2, v_w4 - v_w3 + v_w1) > t_cos_sim. A pair's w_sem is the
    fraction of sample offsets it passes against; sem is the mean of the
    sample's own w_sem values, the diagonal included, so a singleton
    support scores 1.0. Every embedded pair is counted against the sample's
    offsets in one pass over blocks of at most `sample_cap` queries, so that
    no block is larger than the sample. A pair without vectors gets w_sem
    0.0, and a rule with no embedded pair sem 0.0.
    """
    t_cos, sample_cap = scoring.t_cos_sim, scoring.sample_cap
    orth = len(rule.support)
    embedded, sample = support_sample(rule, table, sample_cap, scoring.seed)
    if not sample:
        return RuleScores(orth, 0.0, False, (0.0,) * orth)
    n = len(sample)
    w1, w2 = _vectors(rule, table, sample)
    offsets = w2 - w1
    counts = [0] * orth
    for start in range(0, len(embedded), sample_cap):
        block = embedded[start:start + sample_cap]
        passes = _count_passes(*_vectors(rule, table, block), offsets, t_cos)
        for p, c in zip(block, passes.tolist()):
            counts[p] = c
    sem = sum(counts[p] for p in sample) / (n * n)
    return RuleScores(orth, sem, n < len(embedded), tuple(c / n for c in counts))


class RuleStore:
    """Insertion-ordered collection of rules, keyed by their RuleKey.

    Key text (`key.key_str`) is for display and may be ambiguous: two
    distinct keys can print alike, e.g. prefix "a>b" -> "" and prefix
    "a" -> "b>" are both `concat:prefix:a>b>`.
    """

    def __init__(self, rules=(), vocab_hash: str = "",
                 candidate_counts: dict[str, int] | None = None,
                 scoring: ScoringSettings | None = None):
        self._rules: dict[RuleKey, MorphRule] = {}
        for rule in rules:
            if rule.key in self._rules:
                raise ValueError(f"duplicate rule key: {rule.key.key_str}")
            self._rules[rule.key] = rule
        self.vocab_hash = vocab_hash
        self.candidate_counts = dict(candidate_counts or {})
        self.scoring = scoring

    @classmethod
    def from_candidates(cls, concat_map, templatic_map, vocab_hash: str = "") -> "RuleStore":
        rules = (MorphRule(k, v) for m in (concat_map, templatic_map) for k, v in m.items())
        counts = {CONCATENATIVE: len(concat_map), TEMPLATIC: len(templatic_map)}
        return cls(rules, vocab_hash=vocab_hash, candidate_counts=counts)

    def __iter__(self):
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def get(self, ks: str) -> MorphRule | None:
        """The first rule whose key text is `ks`, found by a scan of the store."""
        return next((rule for rule in self if rule.key.key_str == ks), None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RuleStore):
            return NotImplemented
        return (self._rules == other._rules
                and self.vocab_hash == other.vocab_hash
                and self.candidate_counts == other.candidate_counts
                and self.scoring == other.scoring)

    def count_by_kind(self) -> dict[str, int]:
        counts = {CONCATENATIVE: 0, TEMPLATIC: 0}
        for rule in self:
            counts[rule_kind(rule.key)] += 1
        return counts

    def score_all(self, table: EmbeddingTable, scoring: ScoringSettings,
                  orth_gate: int) -> None:
        """Fill in RuleScores, per-pair w_sem included, for every rule.

        Rules whose support size is at most `orth_gate` cannot clear the
        orthographic threshold: they keep sem = 0.0 and no w_sem, unscored,
        which avoids scoring the long tail of single-pair candidates. An
        `orth_gate` of 0 scores every rule.
        """
        # RuleScores is frozen, so every unscored rule of one orth shares one.
        unscored: dict[int, RuleScores] = {}
        for rule in self:
            orth = len(rule.support)
            if orth <= orth_gate:
                scores = unscored.get(orth)
                if scores is None:
                    scores = unscored[orth] = RuleScores(orth, 0.0, False)
                rule.scores = scores
                continue
            rule.scores = score_rule(rule, table, scoring)
        self.scoring = scoring


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
                     candidate_counts=store.candidate_counts, scoring=store.scoring)


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


def write_atomic(path, text: str) -> None:
    """Write `text` to `path` through a temporary file beside it.

    The file appears whole or not at all: a write that fails leaves any
    previous file at `path` intact, and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_rules(store: RuleStore, path) -> None:
    """Write the rule DB: header lines, then one rule record plus its pairs.

    Each pair line carries the pair's w_sem, so extraction needs no vectors.
    """
    sc = store.scoring
    if sc is None:
        raise ValueError("store has no scoring settings; run score_all first")
    counts = store.candidate_counts
    lines = [
        _DB_MAGIC,
        f"#vocab-hash {store.vocab_hash}",
        "#candidates "
        f"{CONCATENATIVE}={counts.get(CONCATENATIVE, 0)} "
        f"{TEMPLATIC}={counts.get(TEMPLATIC, 0)}",
        f"#scoring t_cos_sim={sc.t_cos_sim!r} sample_cap={sc.sample_cap} seed={sc.seed}",
    ]
    for rule in store:
        s = rule.scores
        if s is None or len(s.w_sem) != len(rule.support):
            raise ValueError(f"rule {rule.key.key_str} has no per-pair scores; cannot save")
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
        for (w1, w2), w_sem in zip(rule.support, s.w_sem):
            lines.append(f"pair\t{w1}\t{w2}\t{w_sem!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def _parse_fields(text: str) -> dict[str, str]:
    return dict(field.partition("=")[::2] for field in text.split())


def _parse_scoring(text: str) -> ScoringSettings:
    values = _parse_fields(text)
    if sorted(values) != ["sample_cap", "seed", "t_cos_sim"]:
        raise ValueError(f"#scoring needs t_cos_sim, sample_cap and seed: {text!r}")
    return ScoringSettings(float(values["t_cos_sim"]), int(values["sample_cap"]),
                           int(values["seed"]))


def load_rules(path) -> RuleStore:
    """Read a rule DB written by save_rules, checking every record.

    Raises RuleDbError, with the line number, for a malformed record, a
    repeated rule, a support that is unsorted or repeats a pair, a pair
    count other than the rule's orth, or a w_sem outside [0, 1].
    """
    rules: list[MorphRule] = []
    vocab_hash = ""
    counts: dict[str, int] = {}
    scoring: ScoringSettings | None = None
    rule_line = 0
    rule_lines: dict[RuleKey, int] = {}
    current_key: RuleKey | None = None
    current_scores: RuleScores | None = None
    current_pairs: list[Pair] = []
    current_w_sem: list[float] = []

    def flush():
        if current_key is None:
            return
        if len(current_pairs) != current_scores.orth:
            raise RuleDbError(f"line {rule_line}: rule has orth {current_scores.orth} "
                              f"but {len(current_pairs)} pairs")
        scores = replace(current_scores, w_sem=tuple(current_w_sem))
        rules.append(MorphRule(current_key, tuple(current_pairs), scores))

    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first == _V1_MAGIC:
            raise RuleDbError("rule DB format 1 stores no per-pair w_sem; "
                              "re-run `jzr learn` to rebuild it")
        if first != _DB_MAGIC:
            raise RuleDbError(f"not a rule DB (bad magic line): {first!r}")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            fields = line.split("\t")
            record = fields[0]
            if record == "rule":
                flush()
            try:
                if record == "pair":
                    if current_key is None:
                        raise ValueError("pair record before any rule record")
                    if len(fields) != 4:
                        raise ValueError("pair record needs two words and one w_sem")
                    pair = (fields[1], fields[2])
                    if current_pairs and pair <= current_pairs[-1]:
                        problem = "repeats" if pair == current_pairs[-1] else "is unsorted at"
                        raise ValueError(f"support {problem} {pair!r}")
                    w_sem = float(fields[3])
                    if not 0.0 <= w_sem <= 1.0:
                        raise ValueError(f"w_sem out of [0, 1]: {fields[3]!r}")
                    current_pairs.append(pair)
                    current_w_sem.append(w_sem)
                elif record == "rule":
                    rule_line, current_pairs, current_w_sem = lineno, [], []
                    if fields[1] == CONCATENATIVE:
                        _, _, side, old, new, orth, sem, sampled = fields
                        current_key = ConcatRule(side, old, new)
                    elif fields[1] == TEMPLATIC:
                        _, _, pattern, orth, sem, sampled = fields
                        current_key = parse_template(pattern)
                    else:
                        raise ValueError(f"unknown rule kind {fields[1]!r}")
                    if current_key in rule_lines:
                        raise ValueError(f"repeats rule {current_key.key_str} "
                                         f"of line {rule_lines[current_key]}")
                    rule_lines[current_key] = lineno
                    if sampled not in ("0", "1"):
                        raise ValueError(f"sampled must be 0 or 1: {sampled!r}")
                    current_scores = RuleScores(int(orth), float(sem), sampled == "1")
                elif line.startswith("#vocab-hash "):
                    vocab_hash = line.split(" ", 1)[1]
                elif line.startswith("#candidates "):
                    counts = {k: int(v) for k, v in _parse_fields(line[12:]).items()}
                elif line.startswith("#scoring "):
                    scoring = _parse_scoring(line[9:])
                elif line and not line.startswith("#"):
                    raise ValueError(f"unknown record type {record!r}")
            except (ValueError, IndexError) as exc:
                raise RuleDbError(f"line {lineno}: {exc}") from None
    flush()
    if scoring is None:
        raise RuleDbError("rule DB has no #scoring header line")
    return RuleStore(rules, vocab_hash=vocab_hash, candidate_counts=counts,
                     scoring=scoring)
