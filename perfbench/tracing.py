"""Spans around jzr's layer boundaries, recorded from outside the package.

Each hook replaces one function where its caller looks it up (a module
global or a class attribute), records a span per call and restores the
original on `uninstall`. A hook whose target no longer exists is listed as
absent instead of failing, so the trace survives refactors that delete a
boundary.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import time
from collections import namedtuple

Span = namedtuple("Span", "id parent name start end")

# (span name, module, attribute path). The benchmark itself calls the
# functions looked up in `jzr`; the others are patched in the calling module.
HOOKS = (
    ("embeddings.load", "jzr", "load_embeddings"),
    ("pipeline.learn_rules", "jzr", "learn_rules"),
    ("concat.enumerate", "jzr.pipeline", "enumerate_concat_rules"),
    ("templatic.enumerate", "jzr.pipeline", "enumerate_templatic_rules"),
    ("rules.from_candidates", "jzr.rules", "RuleStore.from_candidates"),
    ("rules.score_all", "jzr.rules", "RuleStore.score_all"),
    ("rules.prune", "jzr.pipeline", "prune_rules"),
    ("rules.save", "jzr", "save_rules"),
    ("rules.load", "jzr", "load_rules"),
    ("extractor.build", "jzr.extractor", "RootExtractor.__init__"),
    ("extractor.extract", "jzr.extractor", "RootExtractor.extract"),
    ("rules.score_w_sem", "jzr.extractor", "score_w_sem"),
)


class Tracer:
    """Collects spans in memory; nothing is written until `write`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
        return traced

    def install(self, hooks=HOOKS) -> None:
        for name, module_name, path in hooks:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self.wrap(name, raw.__func__))
            else:
                patched = self.wrap(name, raw)
            setattr(owner, attr, patched)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span._asdict()) + "\n")


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap one another.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans) -> dict[str, dict]:
    """Per span name: call count, total inclusive time and total self time."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s.end - s.start
        entry["self_s"] += own[s.id]
    return out


def root_time(spans) -> float:
    """Time covered by top-level spans, which equals the sum of all self times."""
    return sum(s.end - s.start for s in spans if s.parent is None)
