"""Exact-match accuracy and pairwise win counts for competing root extractors."""

from __future__ import annotations

from dataclasses import dataclass


class CoverageError(ValueError):
    """A system's predictions do not cover the evaluated word set."""


class PredictionFormatError(ValueError):
    """A prediction or gold file line lacks its word and root fields."""


@dataclass(frozen=True)
class EvalReport:
    systems: tuple[str, ...]
    n: int
    correct: dict[str, int]
    matrix: dict[str, dict[str, int]]

    def accuracy(self, system: str) -> float:
        if self.n == 0:
            return 0.0
        return self.correct[system] / self.n

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "systems": list(self.systems),
            "correct": dict(self.correct),
            "accuracy": {s: self.accuracy(s) for s in self.systems},
            "matrix": {r: dict(row) for r, row in self.matrix.items()},
        }


def evaluate(predictions: dict[str, dict[str, str]], gold: dict[str, str]) -> EvalReport:
    """Score each system's word-to-root predictions against gold roots.

    Correctness is exact code-point string equality. matrix[i][j] counts the
    words system i got right while system j got them wrong, so two systems
    that agree everywhere produce an all-zero matrix.
    """
    systems = tuple(predictions)
    words = list(gold)
    for name, preds in predictions.items():
        missing = [w for w in words if w not in preds]
        if missing:
            raise CoverageError(
                f"system {name!r} is missing {len(missing)} words, "
                f"first: {missing[0]!r}"
            )

    right: dict[str, set[str]] = {
        name: {w for w in words if predictions[name][w] == gold[w]}
        for name in systems
    }
    correct = {name: len(right[name]) for name in systems}
    matrix = {
        a: {
            b: 0 if a == b else sum(
                1 for w in words if w in right[a] and w not in right[b]
            )
            for b in systems
        }
        for a in systems
    }
    return EvalReport(systems, len(words), correct, matrix)


def format_report(report: EvalReport) -> str:
    """Tabular rendition: accuracies first, then the row-beats-column matrix."""
    lines = [f"n\t{report.n}"]
    for s in report.systems:
        lines.append(
            f"accuracy\t{s}\t{report.correct[s]}/{report.n}\t{report.accuracy(s)!r}"
        )
    lines.append("matrix\t.\t" + "\t".join(report.systems))
    for a in report.systems:
        cells = "\t".join(str(report.matrix[a][b]) for b in report.systems)
        lines.append(f"matrix\t{a}\t{cells}")
    return "\n".join(lines) + "\n"


def read_predictions(path) -> dict[str, str]:
    """Read `word TAB root` records; extra columns (trace fields) are ignored."""
    preds: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise PredictionFormatError(f"prediction line needs at least two fields: {line!r}")
            preds[fields[0]] = fields[1]
    return preds

