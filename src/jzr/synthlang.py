"""Synthetic vocabularies with planted rules and offset-constructed embeddings.

The generator plants a known morphology: random triliteral roots, a set of
templates, and a set of pure-insertion affixes. Every derived word's vector
is the root vector plus one dedicated unit offset per rule applied, plus
Gaussian noise, renormalized. Valid rules therefore show parallel offsets
while accidental string matches do not, which makes the output a ground
truth oracle for the learner and the extractor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .concat import PREFIX, SUFFIX, ConcatRule
from .embeddings import EmbeddingTable
from .templatic import Template


class SurfaceCollisionError(ValueError):
    """Two distinct derivations produced the same surface form."""


class AlphabetTooSmallError(ValueError):
    """The alphabet cannot supply the requested number of unique roots."""


# Root letters, template literals, and affix letters are pairwise disjoint.
# That keeps accidental stem sharing (and with it junk candidate rules) rare
# and makes every root align into exactly its own derived words.
DEFAULT_ROOT_ALPHABET = tuple("bBdDfgGjklnprsxz")

DEFAULT_TEMPLATES = (
    Template(("ma", "", "a", "u")),
    Template(("i", "a", "i", "e")),
    Template(("tu", "", "e", "o")),
    Template(("e", "o", "", "a")),
    Template(("u", "", "mi", "i")),
)

DEFAULT_AFFIXES = (
    ConcatRule(PREFIX, "", "wA"),
    ConcatRule(PREFIX, "", "hy"),
    ConcatRule(PREFIX, "", "qc"),
    ConcatRule(SUFFIX, "", "vA"),
    ConcatRule(SUFFIX, "", "yh"),
)


@dataclass(frozen=True)
class SynthConfig:
    n_roots: int = 200
    templates: tuple[Template, ...] = DEFAULT_TEMPLATES
    affixes: tuple[ConcatRule, ...] = DEFAULT_AFFIXES
    dim: int = 64
    noise_sigma: float = 0.01
    alphabet: tuple[str, ...] = DEFAULT_ROOT_ALPHABET
    seed: int = 42
    chain_depth: int = 1

    def __post_init__(self):
        if self.n_roots < 1:
            raise ValueError("n_roots must be at least 1")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma cannot be negative")
        if self.chain_depth not in (1, 2):
            raise ValueError("chain_depth must be 1 or 2")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise ValueError("alphabet must be non-empty with distinct letters")
        if any(len(ch) != 1 for ch in self.alphabet):
            raise ValueError("alphabet entries must be single code points")
        for affix in self.affixes:
            if affix.old != "":
                raise ValueError(f"planted affixes must be pure insertions: {affix}")
        keys = [r.key_str for r in self.templates + self.affixes]
        if len(set(keys)) != len(keys):
            raise ValueError("planted rules must have distinct keys")

    @property
    def rules(self) -> tuple:
        return self.templates + self.affixes


@dataclass(frozen=True)
class GoldEntry:
    root: str
    chain: tuple[str, ...] = field(default_factory=tuple)


GoldMap = dict[str, GoldEntry]


def _apply(rule, word: str) -> str:
    if isinstance(rule, Template):
        return rule.render(word)
    applied = rule.apply(word)
    assert applied is not None  # planted affixes have empty `old`
    return applied


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def generate(config: SynthConfig) -> tuple[list[str], EmbeddingTable, GoldMap]:
    """Build (vocab, embeddings, gold map) from a planted configuration.

    chain_depth 1 derives every word in one rule application from its root;
    chain_depth 2 additionally affixes every templatic word, giving the
    extractor genuine two-step chains to unwind.
    """
    rng = np.random.default_rng(config.seed)
    n_letters = len(config.alphabet)
    space = n_letters ** 3
    if space < config.n_roots:
        raise AlphabetTooSmallError(
            f"{n_letters} letters give {space} possible roots, "
            f"need {config.n_roots}"
        )

    chosen = rng.permutation(space)[: config.n_roots]
    roots = []
    for code in chosen.tolist():
        a, rest = divmod(code, n_letters * n_letters)
        b, c = divmod(rest, n_letters)
        roots.append(config.alphabet[a] + config.alphabet[b] + config.alphabet[c])

    root_vecs = rng.standard_normal((config.n_roots, config.dim))
    root_vecs /= np.linalg.norm(root_vecs, axis=1)[:, None]
    offsets = {rule.key_str: _unit(rng, config.dim) for rule in config.rules}

    words: list[str] = []
    vecs: list[np.ndarray] = []
    gold: GoldMap = {}

    def add(word: str, vec: np.ndarray, entry: GoldEntry) -> None:
        if word in gold:
            raise SurfaceCollisionError(
                f"surface form {word!r} produced by both {gold[word]} and {entry}"
            )
        gold[word] = entry
        words.append(word)
        vecs.append(vec / np.linalg.norm(vec))

    for root, base in zip(roots, root_vecs):
        add(root, base.copy(), GoldEntry(root))

    for root, base in zip(roots, root_vecs):
        for rule in config.rules:
            rk = rule.key_str
            word = _apply(rule, root)
            noise = rng.standard_normal(config.dim) * config.noise_sigma
            add(word, base + offsets[rk] + noise, GoldEntry(root, (rk,)))
        if config.chain_depth >= 2:
            for template in config.templates:
                tword = template.render(root)
                tk = template.key_str
                for affix in config.affixes:
                    ak = affix.key_str
                    word = _apply(affix, tword)
                    noise = rng.standard_normal(config.dim) * config.noise_sigma
                    add(word, base + offsets[tk] + offsets[ak] + noise,
                        GoldEntry(root, (tk, ak)))

    table = EmbeddingTable.from_vectors(words, np.array(vecs), normalize=False)
    return words, table, gold


def format_vectors(table: EmbeddingTable) -> str:
    """Render a table in the headered text format the loader reads back."""
    lines = [f"{len(table)} {table.dim}"]
    for word, row in zip(table.words, table.matrix):
        comps = " ".join(repr(float(x)) for x in row)
        lines.append(f"{word} {comps}")
    return "\n".join(lines) + "\n"


def format_gold(gold: GoldMap) -> str:
    lines = []
    for word, entry in gold.items():
        lines.append(f"{word}\t{entry.root}\t{';'.join(entry.chain)}")
    return "\n".join(lines) + "\n"


def load_gold(path) -> GoldMap:
    gold: GoldMap = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            word, root, chain = line.split("\t")
            gold[word] = GoldEntry(root, tuple(chain.split(";")) if chain else ())
    return gold


def write_fixture(config: SynthConfig, out_dir) -> tuple[Path, Path]:
    """Emit vectors.txt and gold.tsv for a config; returns the two paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, table, gold = generate(config)
    vectors_path = out / "vectors.txt"
    gold_path = out / "gold.tsv"
    vectors_path.write_text(format_vectors(table), encoding="utf-8")
    gold_path.write_text(format_gold(gold), encoding="utf-8")
    return vectors_path, gold_path
