"""Rule inventory: semantic and orthographic scoring, validation, ranking, DB io."""

from __future__ import annotations

import hashlib
import itertools
import operator
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .concat import ConcatRule, Pair
from .config import SETTING_TYPES, Config, Thresholds
from .embeddings import (_NORM_EPS, EmbeddingTable, InvalidWordError, validate_word,
                         words_valid)
from .fileio import load_cached, pack_lines, unpack_lines, write_atomic
from .templatic import Template, parse_template

CONCATENATIVE = "concatenative"
TEMPLATIC = "templatic"

RuleKey = ConcatRule | Template

_DB_MAGIC = "#morphruledb 4"
_OLD_MAGICS = ("#morphruledb 1", "#morphruledb 2", "#morphruledb 3")

# `_count_passes` trusts an expanded |o + w1|² only above `_NORM_EPS`² plus
# this fraction of |o|² + |w1|², which bounds its rounding many times over.
_CANCEL = 1e-6


class RuleDbError(ValueError):
    """Malformed rule database file."""


def rule_kind(key: RuleKey) -> str:
    return CONCATENATIVE if isinstance(key, ConcatRule) else TEMPLATIC


@dataclass(frozen=True, slots=True)
class RuleScores:
    """orth is the raw support size; sem the analogy-pass fraction in [0, 1].

    w_sem holds each support pair's own pass fraction, aligned with the
    rule's support; learn leaves it empty exactly for rules at or below t_r_orth.
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


@dataclass(slots=True)
class MorphRule:
    """A rule with its support, a tuple of pairs in sorted order, and its
    scores. Learn keeps an unscored concatenative candidate as the
    `concat.MinedRule` it was mined as, which reads and compares as a
    MorphRule does but builds its support tuple at each read."""

    key: RuleKey
    support: Sequence[Pair]
    scores: RuleScores


class PairArrays(NamedTuple):
    """A store's rules and, rule after rule, their support pairs as arrays.

    `rules` holds each rule's key and scores, in store order; the scores
    of a loaded store carry no w_sem tuple. `words` is the sorted distinct
    pair words, so word-id order is string order; `w1` and `w2` are each
    pair's `int32` word ids and `w_sem` its `float64` score; rule r's pairs
    are those from `ends[r - 1]` (0 for the first rule) up to `ends[r]`.
    """

    rules: list[tuple[RuleKey, RuleScores]]
    words: list[str]
    w1: np.ndarray
    w2: np.ndarray
    w_sem: np.ndarray
    ends: np.ndarray


def _pack(rules, ids: dict[str, int], w1, w2, w_sem, sizes) -> PairArrays:
    """The array form of pairs given by provisional word ids.

    `ids` numbers the pair words in any order, and `w1` and `w2` hold each
    pair's two ids in it; the words are renumbered in string order. `sizes`
    holds each rule's pair count.
    """
    words = sorted(ids)
    renumber = np.empty(len(words), np.int32)
    renumber[np.fromiter(map(ids.__getitem__, words), np.intp, len(words))] = (
        np.arange(len(words)))
    return PairArrays(rules, words, renumber[np.asarray(w1, np.intp)],
                      renumber[np.asarray(w2, np.intp)], np.asarray(w_sem, np.float64),
                      np.cumsum(sizes, dtype=np.int64))


def _check_pairs(arrays: PairArrays, where) -> None:
    """Check a rule DB's pairs, as loading and saving both do. A failing rule
    or pair raises ValueError (InvalidWordError for a word `words_valid`
    refuses) starting with `where(rule, pair)`, given their positions (pair
    None for a rule's own defect); arrays `_pack` never makes raise one bare."""
    rules, words, w1, w2, w_sem, ends = arrays
    n = len(w_sem)
    if not (w1.dtype == w2.dtype == np.int32 and w_sem.dtype == np.float64
            and w1.shape == w2.shape == w_sem.shape == (n,)
            and (ends[-1] if len(ends) else 0) == n):
        raise ValueError("pair arrays of the wrong type or shape, or not orth pairs in all")
    sizes = np.diff(ends, prepend=0).tolist()  # Python ints: an orth may be huge
    for r, ((_, scores), size) in enumerate(zip(rules, sizes)):
        if size != scores.orth:
            raise ValueError(f"{where(r, None)}: rule has orth {scores.orth} but {size} pairs")
    # Strictly increasing: id order is string order, and no word repeats.
    if not all(map(operator.lt, words, itertools.islice(words, 1, None))):
        raise ValueError("pair words out of order")
    if n and not (0 <= min(w1.min(), w2.min()) and max(w1.max(), w2.max()) < len(words)):
        raise ValueError("pair word index out of range")

    def at(p: int) -> str:  # the text that names pair p
        return where(int(np.searchsorted(ends, p, "right")), p)
    if not words_valid(words):
        for p, pair in enumerate(zip(w1.tolist(), w2.tolist())):
            try:
                for k in pair:
                    validate_word(words[k])
            except InvalidWordError as exc:
                raise InvalidWordError(f"{at(p)}: {exc}") from None
        raise ValueError("a word that no pair uses is not a valid word")
    out = ~((0.0 <= w_sem) & (w_sem <= 1.0))  # NaN fails both
    if out.any():
        p = int(out.argmax())
        raise ValueError(f"{at(p)}: w_sem out of [0, 1]: {float(w_sem[p])!r}")
    rising = np.diff(w1.astype(np.int64) * len(words) + w2) > 0
    starts = ends[:-1]
    rising[starts[(0 < starts) & (starts < n)] - 1] = True  # a new rule may start lower
    if not rising.all():
        p = int(rising.argmin()) + 1
        problem = "repeats" if w1[p] == w1[p - 1] and w2[p] == w2[p - 1] else "is unsorted at"
        raise ValueError(f"{at(p)}: support {problem} {(words[w1[p]], words[w2[p]])!r}")


def vocab_fingerprint(words) -> str:
    """Order-sensitive digest of a vocabulary, used to pin rule DBs to vectors."""
    return hashlib.sha256("\n".join([*words, ""]).encode("utf-8")).hexdigest()


def support_sample(key: RuleKey, orth: int, sample_cap: int, seed: int) -> list[int]:
    """The ascending support positions of the sample rule `key`'s scores are
    taken over, for a support of `orth` pairs.

    The sample is every pair, unless there are more than `sample_cap`: then
    it is a deterministic choice of that many, seeded by `seed` and the key.
    """
    if orth <= sample_cap:
        return list(range(orth))
    # hashlib, not hash(): per-rule sampling must survive interpreter restarts.
    digest = hashlib.sha256(f"{seed}|{key.key_str}".encode("utf-8")).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return sorted(rng.choice(orth, size=sample_cap, replace=False).tolist())


def _count_passes(w1: np.ndarray, w2: np.ndarray, offsets: np.ndarray,
                  t_cos: float) -> np.ndarray:
    """Per query pair (w1[q], w2[q]): the offsets o with cos(o + w1[q], w2[q]) > t_cos.

    A target o + w1[q] or query w2[q] whose own norm is at most `_NORM_EPS`
    counts as cosine 0.0. This is the package's only cosine.

    Most targets are never formed: (o + w1)·w2 = o·w2 + w1·w2 and
    |o + w1|² = |o|² + 2·o·w1 + |w1|² come from two (q×d)(d×n) products.
    The expansion rounds relative to |o|² + |w1|², so a target whose
    expanded |o + w1|² is not clearly above `_NORM_EPS`² is formed and
    summed directly, as the definition reads: near-cancellation (o == -w1
    leaves a residual of either sign) and norms near the guard.
    """
    oo = np.square(offsets).sum(axis=1)[None, :]
    ww = np.square(w1).sum(axis=1)[:, None]
    sq = oo + 2.0 * (w1 @ offsets.T) + ww
    dots = w2 @ offsets.T + np.einsum("qd,qd->q", w1, w2)[:, None]
    q, i = np.nonzero(sq <= _NORM_EPS * _NORM_EPS + _CANCEL * (oo + ww))
    if len(q):
        targets = offsets[i] + w1[q]
        sq[q, i] = np.square(targets).sum(axis=1)
        dots[q, i] = np.einsum("kd,kd->k", targets, w2[q])
    target_norms = np.sqrt(sq)
    query_norms = np.linalg.norm(w2, axis=1)[:, None]
    ok = (target_norms > _NORM_EPS) & (query_norms > _NORM_EPS)
    cos = np.divide(dots, target_norms * query_norms, out=np.zeros_like(dots), where=ok)
    return np.count_nonzero(cos > t_cos, axis=1)


def score_rule(key: RuleKey, support: tuple[Pair, ...], table: EmbeddingTable,
               config: Config) -> RuleScores:
    """orth, sem (r_sem) and every support pair's w_sem, from one seeded sample.

    Every support word must be a table word, as every mined one is. For
    query pair (w1, w2) and sample pair (w3, w4) the analogy test reads
    cos(v_w2, v_w4 - v_w3 + v_w1) > t_cos_sim, with the threshold and the
    sample's settings read from `config`. A pair's w_sem is the fraction of
    sample offsets it passes against; sem is the mean of the sample's own
    w_sem values, the diagonal included, so a singleton support scores 1.0.
    Every pair is counted against the sample's offsets in one pass over
    blocks of at most `sample_cap` queries, so that no block is larger than
    the sample. An empty support raises ValueError.
    """
    t_cos, sample_cap = config.t_cos_sim, config.sample_cap
    orth = len(support)
    if not orth:
        raise ValueError(f"rule {key.key_str} has an empty support, so no score")
    sample = support_sample(key, orth, sample_cap, config.seed)
    n = len(sample)
    index, matrix = table.index, table.matrix
    rows = np.array([(index[a], index[b]) for a, b in support], np.intp)  # each pair's rows
    offsets = matrix[rows[sample, 1]] - matrix[rows[sample, 0]]
    counts: list[int] = []
    for start in range(0, orth, sample_cap):
        block = rows[start:start + sample_cap]
        counts += _count_passes(matrix[block[:, 0]], matrix[block[:, 1]], offsets,
                                t_cos).tolist()
    sem = sum(counts[p] for p in sample) / (n * n)
    return RuleScores(orth, sem, n < orth, tuple(c / n for c in counts))


class RuleStore:
    """A list of scored rules in insertion order, no two with the same RuleKey.

    Distinct keys are checked where a store is packed (`pair_arrays`, which
    `save_rules` and `RootExtractor` both call), not when it is built, so
    learn's candidate store holds no set of its keys: the miners make each
    key once, and a Template never equals a ConcatRule. Nothing looks a
    rule up by key but `get`, which scans key texts, so the store holds no
    map of its rules. A store from `load_rules` holds its pairs only as
    `PairArrays`, for its whole life: each read of its rules (iteration,
    `==`) makes their support and w_sem tuples afresh, `get` and
    `rank_rules` make only those of the rules they return, and `len` none.
    """

    def __init__(self, rules=(), vocab_hash: str = "",
                 candidate_counts: dict[str, int] | None = None,
                 config: Config | None = None):
        self._rules: list[MorphRule] | None = list(rules)
        self._arrays: PairArrays | None = None
        self.vocab_hash = vocab_hash
        self.candidate_counts = dict(candidate_counts or {})
        self.config = config

    def pair_arrays(self) -> PairArrays:
        """The rules and their pairs in array form, for a bulk reader.

        A loaded store returns the arrays it holds; any other store packs
        its support and w_sem tuples, and raises ValueError for a repeated
        key or for a rule without one w_sem per support pair, as one at or
        below t_r_orth.
        """
        if self._arrays is not None:
            return self._arrays
        rules, seen = self._rules, set()
        for rule in rules:
            if rule.key in seen:
                raise ValueError(f"duplicate rule key: {rule.key.key_str}")
            seen.add(rule.key)
            if len(rule.scores.w_sem) != len(rule.support):
                raise ValueError(f"rule {rule.key.key_str} is unscored: it has no w_sem "
                                 "per support pair")
        ids: dict[str, int] = {}
        w1 = [ids.setdefault(a, len(ids)) for rule in rules for a, _ in rule.support]
        w2 = [ids.setdefault(b, len(ids)) for rule in rules for _, b in rule.support]
        return _pack([(rule.key, rule.scores) for rule in rules], ids, w1, w2,
                     [value for rule in rules for value in rule.scores.w_sem],
                     [len(rule.support) for rule in rules])

    def __iter__(self):
        rules = self._rules
        return iter(_unpack(self._arrays, range(len(self))) if rules is None else rules)

    def __len__(self) -> int:
        return len(self._arrays.rules if self._rules is None else self._rules)

    def get(self, ks: str) -> MorphRule | None:
        """The rule whose key text is `ks`; a loaded store unpacks only that rule."""
        if self._rules is not None:
            return next((rule for rule in self._rules if rule.key.key_str == ks), None)
        found = [r for r, (key, _) in enumerate(self._arrays.rules) if key.key_str == ks]
        return next(iter(_unpack(self._arrays, found)), None)

    def __eq__(self, other) -> bool:
        """Equal rules in the same order, and equal header fields."""
        if not isinstance(other, RuleStore):
            return NotImplemented
        return (list(self) == list(other)
                and self.vocab_hash == other.vocab_hash
                and self.candidate_counts == other.candidate_counts
                and self.config == other.config)

    def count_by_kind(self) -> dict[str, int]:
        counts = {CONCATENATIVE: 0, TEMPLATIC: 0}
        for rule in self:
            counts[rule_kind(rule.key)] += 1
        return counts


def _order_key(key: RuleKey, scores: RuleScores):
    # Distinct keys never print alike, so the order never depends on insertion.
    return (-scores.sem, -scores.orth, key.key_str)


def prune_rules(store: RuleStore, thresholds: Thresholds) -> RuleStore:
    """Keep rules with sem strictly above t_r_sem and orth strictly above t_r_orth.

    Survivors are ordered by descending sem, then descending orth, then key.
    """
    survivors = [
        rule for rule in store
        if rule.scores.sem > thresholds.t_r_sem and rule.scores.orth > thresholds.t_r_orth
    ]
    survivors.sort(key=lambda rule: _order_key(rule.key, rule.scores))
    return RuleStore(survivors, vocab_hash=store.vocab_hash,
                     candidate_counts=store.candidate_counts, config=store.config)


def rank_rules(store: RuleStore, kind: str = "all", top_k: int = 30) -> list[MorphRule]:
    """Top rules by semantic score under a kind filter, deterministically
    tie-broken. A loaded store unpacks only the rules returned."""
    if kind not in ("all", CONCATENATIVE, TEMPLATIC):
        raise ValueError(f"unknown kind filter: {kind!r}")
    loaded = store._rules is None
    scored = store._arrays.rules if loaded else [(rule.key, rule.scores) for rule in store]
    ranked = sorted((r for r, (key, _) in enumerate(scored)
                     if kind == "all" or rule_kind(key) == kind),
                    key=lambda r: _order_key(*scored[r]))[: max(top_k, 0)]
    return _unpack(store._arrays, ranked) if loaded else [store._rules[r] for r in ranked]


def save_rules(store: RuleStore, path) -> None:
    """Write the rule DB: header lines, then one rule record plus its pairs.

    Each pair line carries the pair's w_sem, so extraction needs no vectors.
    Nothing is written that load_rules would refuse: the pairs get its
    checks (`_check_pairs`), and the other lines are read back as it reads
    them (`_DbRecords`), which must give back the store's vocab hash,
    candidate counts and config. A failure raises ValueError
    (InvalidWordError for a bad pair word) with load's reason and line. A
    loaded store is not unpacked. Scores and settings are written as Python
    numbers, so numpy ones save as they would.
    """
    arrays = store.pair_arrays()
    _check_pairs(arrays, lambda r, p: f"rule {arrays.rules[r][0].key_str}")
    cfg, counts = store.config, sorted(store.candidate_counts.items())
    lines = [_DB_MAGIC, f"#vocab-hash {store.vocab_hash}",
             "#candidates " + " ".join(f"{kind}={n}" for kind, n in counts)]
    if cfg is not None:
        lines.append("#config " + " ".join(
            f"{name}={'none' if (v := getattr(cfg, name)) is None else repr(kind(v))}"
            for name, kind in SETTING_TYPES.items()))
    records = list(range(1, len(lines)))  # the lines but the magic and the pairs
    words, bounds = arrays.words, [0, *arrays.ends.tolist()]
    for (key, s), a, b in zip(arrays.rules, bounds, bounds[1:]):
        if isinstance(key, ConcatRule):
            fields = f"{CONCATENATIVE}\t{key.side}\t{key.old}\t{key.new}"
        else:
            fields = f"{TEMPLATIC}\t{key.pattern}"
        records.append(len(lines))
        lines.append(f"rule\t{fields}\t{s.orth}\t{float(s.sem)!r}\t"
                     f"{'1' if s.sampled else '0'}")
        lines += [f"pair\t{words[i]}\t{words[j]}\t{w_sem!r}" for i, j, w_sem in zip(
            arrays.w1[a:b].tolist(), arrays.w2[a:b].tolist(), arrays.w_sem[a:b].tolist())]
    # Read them back as load does (`\r` ends a line too); line number = index + shift.
    db, shift = _DbRecords(), 1
    for i in records:
        for lineno, line in enumerate(lines[i].replace("\r", "\n").split("\n"), i + shift):
            try:
                db.add(line, line.split("\t"), lineno)
            except (ValueError, IndexError) as exc:
                raise ValueError(f"load_rules refuses line {lineno}, {line!r}: {exc}") from None
        shift = lineno - i
    try:
        loaded = db.store(arrays)
    except RuleDbError as exc:
        raise ValueError(f"load_rules refuses the DB: {exc}") from None
    for name in ("vocab_hash", "candidate_counts", "config"):
        if getattr(loaded, name) != getattr(store, name):
            raise ValueError(f"load_rules would read {name} back as "
                             f"{getattr(loaded, name)!r}, not {getattr(store, name)!r}")
    write_atomic(path, "\n".join(lines) + "\n")


def _parse_fields(header: str, text: str, names) -> dict[str, str]:
    """The `name=value` fields of a header line, each from `names` and named once."""
    values: dict[str, str] = {}
    for name, _, value in (field.partition("=") for field in text.split()):
        if name not in names or name in values:
            problem = "repeats" if name in values else "has unknown"
            raise ValueError(f"{header} {problem} field {name!r}")
        values[name] = value
    return values


class _DbRecords:
    """The header and rule records of a rule DB, read one line at a time.

    Loading a DB from its text and from its cache both read every line that
    is not a pair record here, so the two check those lines alike.
    """

    def __init__(self):
        self.rules: list[tuple[RuleKey, RuleScores]] = []
        self.vocab_hash = ""
        self.counts: dict[str, int] = {}
        self.config: Config | None = None
        self.rule_lines: dict[RuleKey, int] = {}  # each rule's line, in order
        self._header_lines: dict[str, int] = {}

    def add(self, line: str, fields: list[str], lineno: int) -> None:
        """Read `line`, split at tabs into `fields`; a defect raises ValueError
        or IndexError."""
        record = fields[0]
        if record == "rule":
            if fields[1] == CONCATENATIVE:
                _, _, side, old, new, orth, sem, sampled = fields
                key = ConcatRule(side, old, new)
            elif fields[1] == TEMPLATIC:
                _, _, pattern, orth, sem, sampled = fields
                key = parse_template(pattern)
            else:
                raise ValueError(f"unknown rule kind {fields[1]!r}")
            if key in self.rule_lines:
                raise ValueError(f"repeats rule {key.key_str} of line {self.rule_lines[key]}")
            self.rule_lines[key] = lineno
            if sampled not in ("0", "1"):
                raise ValueError(f"sampled must be 0 or 1: {sampled!r}")
            self.rules.append((key, RuleScores(int(orth), float(sem), sampled == "1")))
        elif line.startswith(("#vocab-hash ", "#candidates ", "#config ")):
            name, _, value = line.partition(" ")
            if self._header_lines.setdefault(name, lineno) != lineno:
                raise ValueError(f"repeats {name} of line {self._header_lines[name]}")
            if name == "#vocab-hash":
                self.vocab_hash = value
            elif name == "#candidates":
                given = _parse_fields(name, value, (CONCATENATIVE, TEMPLATIC))
                self.counts = {k: int(v) for k, v in given.items()}
                if len(given) != 2 or min(self.counts.values()) < 0:
                    raise ValueError(f"#candidates count is negative or missing: {value!r}")
            else:
                given = _parse_fields(name, value, SETTING_TYPES)
                missing = [field for field in SETTING_TYPES if field not in given]
                if missing:
                    raise ValueError(f"#config lacks {', '.join(missing)}")
                self.config = Config(**{field: None if text == "none" else
                                        SETTING_TYPES[field](text)
                                        for field, text in given.items()})
        elif line and not line.startswith("#"):
            raise ValueError(f"unknown record type {record!r}")

    def store(self, arrays: PairArrays) -> RuleStore:
        """The store of these records and of `arrays`, which holds their pairs."""
        if self.config is None:
            raise RuleDbError("rule DB has no #config header line")
        if not self.vocab_hash:
            raise RuleDbError("rule DB has no #vocab-hash header line, or it is empty")
        if not self.counts:
            raise RuleDbError("rule DB has no #candidates header line")
        store = RuleStore(vocab_hash=self.vocab_hash, candidate_counts=self.counts,
                          config=self.config)
        store._rules, store._arrays = None, arrays
        return store


def _unpack(arrays: PairArrays, positions) -> list[MorphRule]:
    """The rules of `arrays` at `positions`, in that order, with their tuples."""
    words, w1, w2, w_sem, ends = arrays[1:]
    bounds = [0, *ends.tolist()]
    return [MorphRule(key, tuple(zip(map(words.__getitem__, w1[a:b].tolist()),
                                     map(words.__getitem__, w2[a:b].tolist()))),
                      replace(scores, w_sem=tuple(w_sem[a:b].tolist())))
            for r in positions
            for (key, scores), a, b in [(arrays.rules[r], bounds[r], bounds[r + 1])]]


def load_rules(path) -> RuleStore:
    """Read a rule DB written by save_rules, checking every record.

    Raises RuleDbError, with the line number, for a malformed record, a
    repeated rule or header line, a header field that is repeated or that
    its line does not name, a `#candidates` count that is negative or
    missing, and then for pairs failing save_rules' checks too
    (`_check_pairs`); also for a DB of an older format, one with no
    `#config` or `#candidates` line, or a missing or empty `#vocab-hash`
    line. A `#config` line must name every setting, each with a value
    Config accepts.

    The store holds its pairs as `PairArrays`, which is also what
    `load_cached` caches, with the text of every non-pair line: no pair
    tuple is made until a caller reads the rules. A cache hit reads those
    lines as the text parse does and makes the same pair checks.
    """
    return load_cached(Path(path), "rules", _parse_db, _decode_db)


def _parse_db(fh):
    """The store of the rule DB open as text in `fh`, and its cache encoder."""
    first = fh.readline().rstrip("\n")
    if first in _OLD_MAGICS:
        raise RuleDbError(f"rule DB format {first[-1]} is no longer read; "
                          "re-run `jzr learn` to rebuild it")
    if first != _DB_MAGIC:
        raise RuleDbError(f"not a rule DB (bad magic line): {first!r}")
    lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the end of the last line, not a line
    db = _DbRecords()
    others: list[str] = []  # every line that is not a pair record
    ids: dict[str, int] = {}  # each pair word, by first sight
    w1_ids, w2_ids, w_sems, pair_lines = array("i"), array("i"), array("d"), array("i")
    for lineno, line in enumerate(lines, start=2):
        fields = line.split("\t")
        try:
            if fields[0] == "pair":
                if not db.rules:
                    raise ValueError("pair record before any rule record")
                try:
                    _, w1, w2, text = fields
                except ValueError:
                    raise ValueError("pair record needs two words and one w_sem") from None
                w_sems.append(float(text))
                w1_ids.append(ids.setdefault(w1, len(ids)))
                w2_ids.append(ids.setdefault(w2, len(ids)))
                pair_lines.append(lineno)
                continue
            db.add(line, fields, lineno)
            others.append(line)
        except (ValueError, IndexError) as exc:
            raise RuleDbError(f"line {lineno}: {exc}") from None
    # A rule's pairs are the pair lines from its own line to the next rule's.
    rule_lines = list(db.rule_lines.values())
    starts = np.searchsorted(pair_lines, rule_lines)
    arrays = _pack(db.rules, ids, w1_ids, w2_ids, w_sems, np.diff(starts, append=len(w_sems)))
    store = db.store(arrays)
    try:
        _check_pairs(arrays, lambda r, p: (
            f"line {rule_lines[r] if p is None else pair_lines[p]}"))
    except ValueError as exc:
        raise RuleDbError(str(exc)) from None

    def encode() -> dict:
        return {"lines": pack_lines(others), "words": pack_lines(arrays.words),
                "w1": arrays.w1, "w2": arrays.w2, "w_sem": arrays.w_sem}

    return store, encode


def _decode_db(npz) -> RuleStore:
    """The store `_parse_db` encoded, after the same pair checks as the text
    parse and `save_rules` make; ValueError if one fails."""
    db = _DbRecords()
    for lineno, line in enumerate(unpack_lines(npz["lines"])):
        db.add(line, line.split("\t"), lineno)
    # Rule r's pairs are the next orth ones; the check finds any left over.
    ends = np.cumsum([scores.orth for _, scores in db.rules], dtype=np.int64)
    arrays = PairArrays(db.rules, unpack_lines(npz["words"]), npz["w1"], npz["w2"],
                        npz["w_sem"], ends)
    _check_pairs(arrays, lambda r, p: f"rule {r}, pair {p}")
    return db.store(arrays)
