"""Root-and-pattern templates: three root letters embedded in order in a word."""

from __future__ import annotations

import re
from dataclasses import dataclass

Pair = tuple[str, str]

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

    @property
    def length(self) -> int:
        return sum(len(p) for p in self.parts) + 3

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


def extract_templates(root: str, derived: str) -> set[Template]:
    """All templates aligning `root`'s letters as an in-order subsequence of `derived`.

    Returns the empty set when no alignment exists. Words with repeated
    letters can align several ways and then contribute several templates.
    Alignments that leave "<C" inside a literal are skipped.
    """
    if len(root) != 3:
        raise ValueError(f"root must have exactly 3 code points, got {root!r}")
    c1, c2, c3 = root
    n = len(derived)
    out: set[Template] = set()
    for i in range(n - 2):
        if derived[i] != c1:
            continue
        for j in range(i + 1, n - 1):
            if derived[j] != c2:
                continue
            for k in range(j + 1, n):
                if derived[k] != c3:
                    continue
                parts = (derived[:i], derived[i + 1:j], derived[j + 1:k], derived[k + 1:])
                # A literal holding a slot marker could not round-trip
                # through the pattern text, so that alignment is skipped.
                if any(parts) and not any("<C" in p for p in parts):
                    out.add(Template(parts))
    return out


def enumerate_templatic_rules(
    vocab,
    max_derived_len: int = 12,
) -> dict[Template, tuple[Pair, ...]]:
    """Map each candidate template to its (root, derived) support pairs.

    Roots are the triliteral vocabulary words; derived words are longer
    vocabulary words up to `max_derived_len`. A first-letter index restricts
    each root's scan to words that carry its first letter early enough to
    leave room for the other two.
    """
    words = list(dict.fromkeys(vocab))
    roots = [w for w in words if len(w) == 3]

    by_first_letter: dict[str, list[str]] = {}
    for w in words:
        if 3 < len(w) <= max_derived_len:
            for ch in dict.fromkeys(w[: len(w) - 2]):
                by_first_letter.setdefault(ch, []).append(w)

    rules: dict[Template, list[Pair]] = {}
    for root in roots:
        for w in by_first_letter.get(root[0], ()):
            for template in sorted(extract_templates(root, w)):
                rules.setdefault(template, []).append((root, w))

    # Values are replaced in place: no second map of every template is built.
    for template, pairs in rules.items():
        rules[template] = tuple(sorted(pairs))
    return rules
