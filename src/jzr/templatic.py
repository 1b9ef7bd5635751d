"""Root-and-pattern templates: three root letters embedded in order in a word."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations

from .concat import Pair

_TEMPLATE_RE = re.compile(r"(.*?)<C1>(.*?)<C2>(.*?)<C3>(.*)", re.DOTALL)


@dataclass(frozen=True, order=True, slots=True)
class Template:
    """Word pattern with three ordered consonant slots.

    `parts` holds the four literal runs around the slots, so the concrete
    word for root letters (c1, c2, c3) is
    parts[0] + c1 + parts[1] + c2 + parts[2] + c3 + parts[3].
    The identity template (all literals empty) is excluded.
    """

    parts: tuple[str, str, str, str]

    def __post_init__(self):
        if len(self.parts) != 4 or not all(isinstance(p, str) for p in self.parts):
            raise ValueError("parts must be four literal strings")
        if not any(self.parts):
            raise ValueError("identity template (no literal material) is excluded")
        if any("<C" in p for p in self.parts):
            raise ValueError("literals may not contain slot markers")

    @property
    def pattern(self) -> str:
        p = self.parts
        return f"{p[0]}<C1>{p[1]}<C2>{p[2]}<C3>{p[3]}"

    @property
    def key_str(self) -> str:
        return f"tmpl:{self.pattern}"

    def render(self, root: str) -> str:
        if len(root) != 3:
            raise ValueError(f"root must have exactly 3 code points, got {root!r}")
        p = self.parts
        return p[0] + root[0] + p[1] + root[1] + p[2] + root[2] + p[3]


def parse_template(text: str) -> Template:
    """Inverse of Template.pattern, e.g. 'ma<C1><C2>a<C3>'."""
    m = _TEMPLATE_RE.fullmatch(text)
    if m is None:
        raise ValueError(f"not a template pattern: {text!r}")
    return Template(tuple(m.groups()))


def _alignments(derived: str, roots):
    """Yield (root, template) for each index triple i<j<k of `derived` whose
    letters spell a root in `roots`, walking the triples once.

    Alignments with all literals empty, or that leave "<C" inside a literal
    (their pattern text could not read back), are skipped.
    """
    for i, j, k in combinations(range(len(derived)), 3):
        root = derived[i] + derived[j] + derived[k]
        if root not in roots:
            continue
        parts = (derived[:i], derived[i + 1:j], derived[j + 1:k], derived[k + 1:])
        if any(parts) and not any("<C" in p for p in parts):
            yield root, Template(parts)


def extract_templates(root: str, derived: str) -> set[Template]:
    """All templates aligning `root`'s letters as an in-order subsequence of `derived`.

    Returns the empty set when no alignment exists. Words with repeated
    letters can align several ways and then contribute several templates.
    """
    if len(root) != 3:
        raise ValueError(f"root must have exactly 3 code points, got {root!r}")
    return {template for _, template in _alignments(derived, (root,))}


def enumerate_templatic_rules(
    vocab,
    max_derived_len: int = 12,
) -> dict[Template, tuple[Pair, ...]]:
    """Map each candidate template to its (root, derived) support pairs.

    Roots are the triliteral vocabulary words; derived words are longer
    vocabulary words up to `max_derived_len`. Each derived word's index
    triples are walked once and looked up in the set of roots, so the cost
    grows with the number of words, not roots times words.
    """
    words = list(dict.fromkeys(vocab))
    roots = {w for w in words if len(w) == 3}

    rules: dict[Template, list[Pair]] = {}
    for w in words:
        if 3 < len(w) <= max_derived_len:
            for root, template in _alignments(w, roots):
                rules.setdefault(template, []).append((root, w))

    # Values are replaced in place: no second map of every template is built.
    for template, pairs in rules.items():
        rules[template] = tuple(sorted(pairs))
    return rules
