"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import phases  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class TestPercentiles:
    def test_nearest_rank(self):
        values = [float(x) for x in range(1, 101)]
        assert spec.percentile(values, 50) == 50.0
        assert spec.percentile(values, 99) == 99.0
        assert spec.percentile(values, 100) == 100.0
        assert spec.percentile([7.0], 99) == 7.0

    @pytest.mark.parametrize("n, want", [
        (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
        (9999, 99.0), (10_000, 99.9), (100_000, 99.99),
    ])
    def test_tail_has_ten_samples_beyond(self, n, want):
        values = [float(x) for x in range(n)]
        q, value = spec.tail_percentile(values)
        assert q == want
        assert sum(1 for x in values if x > value) >= 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            spec.tail_percentile([1.0] * 19)

    def test_latency_summary_counts(self):
        summary = spec.latency_summary([x / 1e3 for x in range(1, 1001)])
        assert summary["n"] == 1000
        assert summary["p50_ms"] == pytest.approx(500.0)
        assert summary["p99_ms"] == pytest.approx(990.0)
        assert summary["p99_samples_above"] == 10
        assert summary["tail_q"] == 99.0


class TestInputs:
    def test_token_stream_repeats_per_seed(self):
        vocab = [f"w{i}" for i in range(500)]
        a = spec.token_stream(vocab, seed=1, n=2000)
        assert a == spec.token_stream(vocab, seed=1, n=2000)
        assert a != spec.token_stream(vocab, seed=2, n=2000)
        assert len(a) == 2000 and set(a) <= set(vocab)

    def test_token_stream_is_zipfian(self):
        vocab = [f"w{i}" for i in range(1000)]
        tokens = spec.token_stream(vocab, seed=3, n=20_000)
        counts = sorted((tokens.count(w) for w in set(tokens)), reverse=True)
        # Rank 1 carries about 1/H(1000) = 13% of a Zipf(1) stream.
        assert 0.10 < counts[0] / len(tokens) < 0.17
        assert counts[0] > 5 * counts[9]

    def test_fixture_repeats_per_seed(self, tmp_path):
        shas = {}
        for name, seed in (("a", 5), ("b", 5), ("c", 6)):
            out = phases.run_prep(tmp_path / name, seed)
            shas[name] = (out["vectors_sha256"], out["gold_sha256"])
        assert shas["a"] == shas["b"]
        assert shas["a"][0] != shas["c"][0] and shas["a"][1] != shas["c"][1]
        gold = (tmp_path / "a" / "gold.tsv").read_text(encoding="utf-8").splitlines()
        assert len(gold) == 7200
        assert sum(1 for line in gold if line.split("\t")[2]) == 7000


class TestReference:
    def test_loops_do_fixed_work(self):
        import reference

        assert reference.interpreter_loop() == reference.interpreter_loop()
        assert reference.numpy_loop() == reference.numpy_loop()
        assert reference.reference_s() > 0

    def test_each_time_divided_by_the_references_around_it(self):
        import reference

        took, refs = [0.2, 0.3], [0.001, 0.004, 0.009]
        assert reference.in_references(took, refs) == pytest.approx(0.2 / 0.002 + 0.3 / 0.006)
        assert reference.in_references([], [0.001]) == 0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTracing:
    def test_self_time_arithmetic(self):
        spans = [
            tracing.Span(0, None, "root", 0.0, 10.0),
            tracing.Span(1, 0, "a", 1.0, 4.0),
            tracing.Span(2, 1, "leaf", 2.0, 3.5),
            tracing.Span(3, 0, "b", 5.0, 9.0),
            tracing.Span(4, None, "other", 11.0, 12.0),
        ]
        own = tracing.self_times(spans)
        assert own == {0: 3.0, 1: 1.5, 2: 1.5, 3: 4.0, 4: 1.0}
        assert sum(own.values()) == pytest.approx(tracing.root_time(spans)) == 11.0

    def test_wrapped_calls_nest(self):
        clock = FakeClock()
        tracer = tracing.Tracer(clock=clock)

        def tick(seconds):
            clock.now += seconds

        inner = tracer.wrap("inner", lambda: tick(2.0))

        def outer_body():
            tick(1.0)
            inner()
            inner()
            tick(0.5)

        tracer.wrap("outer", outer_body)()
        summary = tracing.summarize(tracer.spans)
        assert summary["outer"] == {"calls": 1, "total_s": 5.5, "self_s": 1.5}
        assert summary["inner"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
        assert tracing.root_time(tracer.spans) == 5.5

    def test_install_wraps_and_restores(self):
        import importlib

        def targets():
            out = {}
            for name, module_name, path in tracing.HOOKS:
                if name in tracer.absent:
                    continue
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                out[name] = vars(owner)[attr]
            return out

        tracer = tracing.Tracer()
        tracer.install()
        try:
            wrapped = targets()
        finally:
            tracer.uninstall()
        restored = targets()
        assert wrapped, "no hook target exists"
        for name in wrapped:
            assert wrapped[name] is not restored[name]
            assert type(wrapped[name]) is type(restored[name])  # classmethod stays one

    def test_missing_target_is_absent_not_an_error(self):
        tracer = tracing.Tracer()
        tracer.install(hooks=(("gone.fn", "jzr.extractor", "no_such_function"),
                              ("gone.method", "jzr.extractor", "NoSuchClass.method"),
                              ("gone.module", "jzr.no_such_module", "fn")))
        tracer.uninstall()
        assert tracer.absent == ["gone.fn", "gone.method", "gone.module"]


def _fake_results():
    learn = {"setup_s": [0.4, 0.5, 0.45], "learn_s": [12.0], "wall_s": [12.5],
             "peak_rss_mb": 640.0, "counts": {"concat.candidates": 3}}
    extract = {"setup_s": [0.5], "setup_nominal_s": [0.4], "wall_s": [6.0], "words": 7000, "busy_s": 5.0,
               "busy_ref_s": 5.5,
               "peak_rss_mb": 65.0,
               "latency": {"fastest": {"p50_ms": 0.7, "p99_ms": 1.5}},
               "right": 14000,
               "extracted": 14000,
               "counts": {"extractor.steps": 12000}}
    traced_learn = dict(learn, wall_s=[13.0], trace={
        "absent": [], "root_s": 12.9,
        "spans": {"pipeline.learn_rules": {"calls": 1, "total_s": 12.0, "self_s": 0.1}}})
    traced_extract = dict(extract, wall_s=[7.0], trace={
        "absent": ["rules.score_w_sem"], "root_s": 6.8,
        "spans": {"extractor.extract": {"calls": 7000, "total_s": 6.3, "self_s": 6.3}}})
    return learn, extract, [(learn, traced_learn), (extract, traced_extract)]


class TestNames:
    def test_printed_names_match_benchmark_json(self):
        declared = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
        learn, extract, pairs = _fake_results()
        e2e = run.end_to_end(learn, extract)
        layers, _ = run.per_layer(pairs)
        for printed, section in ((e2e, "end_to_end"), (layers, "per_layer")):
            units = {m["name"]: m["unit"] for m in declared[section]}
            assert {name: m["unit"] for name, m in printed.items()} == units
            assert all(NAME_RE.fullmatch(name) for name in printed)
        assert {w["name"] for w in declared["workloads"]} == set(spec.WORKLOADS)

    def test_trace_accounting(self):
        _, _, pairs = _fake_results()
        layers, extra = run.per_layer(pairs)
        value = {name: m["value"] for name, m in layers.items()}
        assert value["trace.wall_s"] == pytest.approx(20.0)
        assert value["trace.unattributed_s"] == pytest.approx(20.0 - 12.9 - 6.8)
        assert value["trace.overhead_s"] == pytest.approx(0.5 + 1.0)
        assert value["rules.score_w_sem_s"] == 0.0
        assert extra["absent_spans"] == ["rules.score_w_sem"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", spec.TYPES, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
