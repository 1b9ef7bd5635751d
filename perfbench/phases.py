"""One benchmark phase in a fresh child process: prep, learn or extract.

Usage: python3 perfbench/phases.py PHASE --workdir DIR --seed N --seconds S
           --trace 0|1 --mode types|tokens --min-passes N --rewalks N
           --rlimit-as BYTES --out RESULT.json [--spans SPANS.jsonl]

The phase writes its measurements to --out as JSON and exits 0. An uncaught
exception exits non-zero, which the parent counts as a failed operation. The
address-space cap is set before numpy or jzr is imported.

Learn runs its unit of work (set-up plus one learn) once. Extraction's unit
is set-up plus one pass over the word list, followed by EXTRA_SETUPS more
timed set-ups, so that set-ups are spread over the run; it makes passes
until --seconds are spent. It starts no pass that would, at the mean pass
time so far, end after them, but makes at least --min-passes. With
--trace 1 either unit runs once, without the extra set-ups, with spans
recorded around jzr's layer boundaries.
"""

from __future__ import annotations

import argparse
import array
import dataclasses
import glob
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spec  # noqa: E402  (sibling module; perfbench is not a package)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _iterate(one, seconds: float, trace: bool, spans_path: str | None,
             min_runs: int = 1) -> tuple[list[dict], dict | None]:
    """Run the unit of work as often as the module docstring says."""
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            runs = [one()]
        finally:
            tracer.uninstall()
        if spans_path:
            tracer.write(spans_path)
        return runs, {"absent": tracer.absent,
                      "spans": tracing.summarize(tracer.spans),
                      "root_s": tracing.root_time(tracer.spans)}
    runs, started = [], time.perf_counter()
    while True:
        runs.append(one())
        if len(runs) < min_runs:
            continue
        spent = time.perf_counter() - started
        if spent * (len(runs) + 1) / len(runs) > seconds:
            return runs, None


def run_prep(workdir: Path, seed: int) -> dict:
    """Write the seeded fixture (vectors.txt, gold.tsv) and report the runtime."""
    import numpy

    from jzr import SynthConfig
    from jzr.synthlang import write_fixture

    config = SynthConfig(**spec.synth_fields(seed))
    vectors, gold = write_fixture(config, workdir)
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    fields.update(alphabet="".join(config.alphabet),
                  templates=[t.key_str for t in config.templates],
                  affixes=[a.key_str for a in config.affixes])
    return {
        "synth_config": fields,
        "vectors_sha256": _sha256(vectors),
        "gold_sha256": _sha256(gold),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
    }


def _learn_counts(jzr, candidates, validated, table, t_r_orth: int) -> dict:
    concat = [r for r in candidates if isinstance(r.key, jzr.ConcatRule)]
    templ = [r for r in candidates if not isinstance(r.key, jzr.ConcatRule)]
    over = sum(1 for r in concat if len(r.support) > t_r_orth)
    by_kind = validated.count_by_kind()
    return {
        "embeddings.words": len(table),
        "concat.candidates": candidates.candidate_counts.get("concatenative", 0),
        "concat.support_pairs": sum(len(r.support) for r in concat),
        "concat.over_orth": over,
        "concat.useful_ratio": over / len(concat) if concat else 0.0,
        "templatic.candidates": candidates.candidate_counts.get("templatic", 0),
        "templatic.support_pairs": sum(len(r.support) for r in templ),
        # learn_rules gates semantic scoring on support size.
        "rules.scored": sum(1 for r in candidates if r.scores.orth > t_r_orth),
        "rules.sampled": sum(1 for r in candidates if r.scores.sampled),
        "rules.validated.concatenative": by_kind.get("concatenative", 0),
        "rules.validated.templatic": by_kind.get("templatic", 0),
    }


def run_learn(workdir: Path, seed: int, trace: bool, spans_path: str | None) -> dict:
    """Load the vectors, then learn and save the rule DB, as `jzr learn` does."""
    import jzr

    cfg = jzr.Config()
    vectors, db = workdir / "vectors.txt", workdir / "rules.db"
    planted = {r.key_str for r in jzr.SynthConfig(**spec.synth_fields(seed)).rules}
    counts: dict = {}

    def setup() -> tuple:
        t0 = time.perf_counter()
        table = jzr.load_embeddings(vectors)
        return table, time.perf_counter() - t0

    def one() -> dict:
        t0 = time.perf_counter()
        table, setup_s = setup()
        t1 = time.perf_counter()
        candidates, validated = jzr.learn_rules(table, cfg)
        jzr.save_rules(validated, db)
        t2 = time.perf_counter()
        if not counts:
            counts.update(_learn_counts(jzr, candidates, validated, table,
                                        cfg.thresholds.t_r_orth))
        return {
            "setup_s": setup_s, "learn_s": t2 - t1, "wall_s": t2 - t0,
            "db_sha256": _sha256(db),
            "missing": sorted(planted - {r.key.key_str for r in validated}),
        }

    runs, trace_report = _iterate(one, 0, trace, spans_path)
    peak_rss_mb = _peak_rss_mb()
    counts["rules.db_bytes"] = db.stat().st_size
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "learn_s": [r["learn_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "db_sha256": [r["db_sha256"] for r in runs],
        "missing": [r["missing"] for r in runs],
        "counts": counts,
        "peak_rss_mb": peak_rss_mb,
        "trace": trace_report,
    }


def run_extract(workdir: Path, seed: int, seconds: float,
                trace: bool, spans_path: str | None, mode: str,
                min_passes: int, rewalks: int) -> dict:
    """Load the DB and vectors, check the vocab hash, build the extractor and
    extract every word of the list, as `jzr extract --words` does. Then
    extract the repeated words `rewalks` more times, to time them again."""
    import jzr
    import reference
    from jzr.synthlang import load_gold

    cfg = jzr.Config()
    vectors, db = workdir / "vectors.txt", workdir / "rules.db"
    gold_entries = load_gold(workdir / "gold.tsv")
    gold = {w: e.root for w, e in gold_entries.items()}
    if mode == "types":
        words = [w for w, e in gold_entries.items() if e.chain]
    else:
        words = spec.token_stream(list(gold), seed)

    def setup() -> tuple:
        """The extractor, the rule store, and the set-up's time in wall seconds
        and in nominal seconds: a reference is timed before the set-up and
        after each of its four calls, and each call is divided by the two
        references around it."""
        clock = time.perf_counter
        took, refs = [], [reference.reference_s(clock)]

        def timed(fn, *args, **kwargs):
            start = clock()
            out = fn(*args, **kwargs)
            took.append(clock() - start)
            refs.append(reference.reference_s(clock))
            return out

        store = timed(jzr.load_rules, db)
        table = timed(jzr.load_embeddings, vectors)
        if not timed(lambda: store.vocab_hash == jzr.vocab_fingerprint(table.words)):
            raise RuntimeError("rule DB was learned from a different vocabulary")
        extractor = timed(jzr.RootExtractor, store, table, cfg.thresholds,
                          sample_cap=cfg.sample_cap, seed=cfg.seed)
        nominal_s = reference.in_references(took, refs) * reference.NOMINAL_S
        return extractor, store, sum(took), nominal_s

    # Positions whose word occurs earlier in the list. By then every w_sem
    # that word needs is cached, so extracting it again repeats the same work.
    seen: set[str] = set()
    repeats = array.array("l")
    for i, word in enumerate(words):
        if word in seen:
            repeats.append(i)
        seen.add(word)

    # Each word's fastest call over all passes, in seconds and in ref-s (its
    # time over the time of 1,000 references). Filled in place, so that the
    # harness's memory does not grow with the number of passes or calls.
    fastest = array.array("d", [math.inf]) * len(words)
    fastest_ref = array.array("d", [math.inf]) * len(words)

    def one() -> dict:
        clock = time.perf_counter
        t0 = clock()
        extractor, store, setup_s, setup_nominal_s = setup()
        refs = array.array("d")
        # Calls since the last reference: word position and time. They are
        # settled, divided by the geometric mean of the references on either
        # side of them, when the next reference is taken.
        pending_at, pending_took = array.array("l"), array.array("d")
        next_ref = clock()
        tally = Counter()
        first_error = None
        is_rep: dict[str, bool] = {}

        def take_reference() -> None:
            refs.append(reference.reference_s(clock))
            if len(refs) > 1:
                scale = 1000 * (refs[-2] * refs[-1]) ** 0.5
                for i, t in zip(pending_at, pending_took):
                    fastest[i] = min(fastest[i], t)
                    fastest_ref[i] = min(fastest_ref[i], t / scale)
            del pending_at[:], pending_took[:]

        def call(i: int):
            nonlocal next_ref, first_error
            start = clock()
            if start >= next_ref:
                take_reference()
                start = clock()
                next_ref = start + reference.EVERY_S
            try:
                result = extractor.extract(words[i])
            except Exception as exc:  # a failed operation; keep measuring
                result = None
                tally["failed"] += 1
                first_error = first_error or repr(exc)
            pending_took.append(clock() - start)
            pending_at.append(i)
            tally["calls"] += 1
            if result is not None:
                tally["right"] += result.final == gold[words[i]]
            return result

        for i in range(len(words)):
            result = call(i)
            if result is None:
                continue
            tally[result.status] += 1
            tally["steps"] += len(result.steps)
            for step in result.steps:
                rep = is_rep.get(step.rule)
                if rep is None:
                    key = store.get(step.rule).key
                    rep = is_rep[step.rule] = bool(
                        isinstance(key, jzr.ConcatRule) and key.old and key.new)
                tally["fallbacks"] += rep
        wall_s = clock() - t0
        for _ in range(rewalks):
            for i in repeats:
                call(i)
        take_reference()
        return {
            "setup_s": [setup_s], "setup_nominal_s": [setup_nominal_s],
            "wall_s": wall_s, "calls": tally["calls"],
            "reference_ms": statistics.median(refs) * 1e3,
            "right": tally["right"], "failed": tally["failed"], "first_error": first_error,
            "counts": {
                "extractor.steps": tally["steps"],
                "extractor.rep_fallbacks": tally["fallbacks"],
                "extractor.reached_triliteral": tally["reached_triliteral"],
                "extractor.infeasible_stop": tally["infeasible_stop"],
            },
        }

    def unit() -> dict:
        result = one()  # its extractor is freed before the extra set-ups
        for _ in range(spec.EXTRA_SETUPS):
            _, _, wall_s, nominal_s = setup()
            result["setup_s"].append(wall_s)
            result["setup_nominal_s"].append(nominal_s)
        return result

    runs, trace_report = _iterate(one if trace else unit, seconds, trace, spans_path,
                                  min_runs=min_passes)
    peak_rss_mb = _peak_rss_mb()
    return {
        "setup_s": [s for r in runs for s in r["setup_s"]],
        "setup_nominal_s": [s for r in runs for s in r["setup_nominal_s"]],
        "passes": len(runs),
        "wall_s": [r["wall_s"] for r in runs],
        "reference_ms": [r["reference_ms"] for r in runs],
        "words": len(words),
        "busy_ref_s": sum(fastest_ref),
        "busy_s": sum(fastest),
        "extracted": sum(r["calls"] for r in runs),
        "latency": {"fastest": spec.latency_summary(fastest_ref),
                    "wall_fastest": spec.latency_summary(fastest)},
        "right": sum(r["right"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "first_error": next((r["first_error"] for r in runs if r["first_error"]), None),
        "counts": runs[-1]["counts"],
        "peak_rss_mb": peak_rss_mb,
        "trace": trace_report,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=["prep", "learn", "extract"])
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--mode", choices=["types", "tokens"], default="types")
    parser.add_argument("--min-passes", type=int, default=spec.MIN_PASSES)
    parser.add_argument("--rewalks", type=int, default=spec.REWALKS)
    parser.add_argument("--rlimit-as", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (args.rlimit_as, args.rlimit_as))
    if args.phase == "prep":
        result = run_prep(args.workdir, args.seed)
    elif args.phase == "learn":
        result = run_learn(args.workdir, args.seed, bool(args.trace), args.spans)
    else:
        result = run_extract(args.workdir, args.seed, args.seconds,
                             bool(args.trace), args.spans, args.mode, args.min_passes,
                             args.rewalks)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
