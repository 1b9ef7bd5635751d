"""Benchmark jzr's `learn` and `extract` end to end, or per layer with --trace 1.

Usage, from the repository root:

    python3 perfbench/run.py --workload extract-types-7k --seed 1 --seconds 25 --trace 0

Every workload writes a seeded 7,200-word fixture, then runs `learn` on it
once and `extract` for --seconds, each in a fresh single-threaded child
process under an address-space cap and a wall-clock deadline. The workload
picks the words `extract` reads. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. The line before it is the
full record: environment, workload spec, guard, percentile sample counts and
the outcome of every check. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (sibling module; perfbench is not a package)

WORK_DIR = ROOT / ".perfbench-work"
RLIMIT_AS_BYTES = 3 * 1024 ** 3
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_sha256() -> str:
    """Digest of every file under src/, so records compare without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    in_repo = _git("rev-parse", "--show-toplevel")
    is_repo = in_repo is not None and Path(in_repo).resolve() == ROOT.resolve()
    return {
        "git_sha": _git("rev-parse", "HEAD") if is_repo else None,
        "git_dirty": (bool(_git("status", "--porcelain", "--untracked-files=no"))
                      if is_repo else None),
        "src_sha256": source_sha256(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
    }


def workload_spec(workload: str, seed: int) -> dict:
    out = {"workload": workload,
           "synth_config": dict(spec.SYNTH_FIELDS, seed=seed),
           "config": "jzr.Config() defaults",
           "extract_input": "tokens" if workload == spec.TOKENS else "derived types",
           "min_passes": spec.MIN_PASSES, "rewalks": spec.REWALKS,
           "extra_setups": spec.EXTRA_SETUPS}
    if workload == spec.TOKENS:
        out.update(tokens=spec.N_TOKENS, zipf_s=spec.ZIPF_S)
    return out


class Child:
    """Runs one phase in a fresh interpreter and keeps its outcome."""

    def __init__(self, run_dir: Path, seed: int, deadline: float):
        self.run_dir = run_dir
        self.seed = seed
        self.deadline = deadline
        self.status: dict[str, str] = {}

    def __call__(self, phase: str, tag: str | None = None, **options) -> dict | None:
        tag = tag or phase
        out = self.run_dir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "phases.py"), phase,
               "--workdir", str(self.run_dir), "--seed", str(self.seed),
               "--rlimit-as", str(RLIMIT_AS_BYTES), "--out", str(out)]
        for name, value in options.items():
            if value is not None:
                cmd += [f"--{name.replace('_', '-')}", str(value)]
        timeout = self.deadline - time.monotonic()
        if timeout < 1:
            self.status[tag] = "skipped: deadline passed"
            return None
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, **CHILD_ENV),
                                  stdout=sys.stderr.fileno(), timeout=timeout)
        except subprocess.TimeoutExpired:
            self.status[tag] = f"killed: timeout after {timeout:.0f} s"
            return None
        if proc.returncode != 0:
            how = (f"signal {-proc.returncode}" if proc.returncode < 0
                   else f"exit {proc.returncode}")
            self.status[tag] = f"failed: {how}"
            return None
        self.status[tag] = "ok"
        return json.loads(out.read_text(encoding="utf-8"))


def check_db_ledger(key: str, sha: str) -> bool:
    """True unless an earlier run of the same source and seed saved another DB."""
    ledger_path = WORK_DIR / "db_sha256.json"
    try:
        ledger = json.loads(ledger_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        ledger = {}
    if ledger.setdefault(key, sha) != sha:
        return False
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, ledger_path)
    return True


def learn_checks(learn: dict, seed: int, src_sha: str) -> list[str]:
    """Failed checks on the learned rules; any one fails every learn of the run."""
    problems = [f"planted rules not validated: {missing}"
                for missing in learn["missing"] if missing]
    shas = set(learn["db_sha256"])
    if len(shas) > 1:
        problems.append("rule DB differs between learns in one run")
    elif not check_db_ledger(f"{src_sha}:{seed}", shas.pop()):
        problems.append("rule DB differs from an earlier run of the same source and seed")
    for name, want in spec.KNOWN_ANSWERS.get(seed, {}).items():
        got = learn["counts"].get(name)
        if got != want:
            problems.append(f"known answer {name}: want {want}, got {got}")
    return problems


def end_to_end(learn: dict | None, extract: dict | None) -> dict:
    """The end-to-end metrics; a phase that did not report leaves its metrics 0."""
    values = {}
    if learn:
        values["learn_peak_rss_mb"] = learn["peak_rss_mb"]
    if extract and extract["words"]:
        values["setup_s"] = statistics.median(extract["setup_nominal_s"])
        values["extract_peak_rss_mb"] = extract["peak_rss_mb"]
        values["words_per_s"] = extract["words"] / extract["busy_ref_s"]
        values["word_ms_p99"] = extract["latency"]["fastest"]["p99_ms"]
        values["accuracy"] = extract["right"] / extract["extracted"]
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in spec.END_TO_END_UNITS.items()}


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    """Layer metrics from (untraced, traced) results of the learn and extract
    phases. Times sum over the two phases' traced units."""
    values: dict[str, float] = {}
    spans: dict[str, dict] = {}
    absent: set[str] = set()
    wall = root = overhead = 0.0
    for untraced, traced in pairs:
        values.update(traced["counts"])
        report = traced["trace"]
        absent.update(report["absent"])
        wall += traced["wall_s"][0]
        root += report["root_s"]
        overhead += traced["wall_s"][0] - untraced["wall_s"][0]
        for name, entry in report["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += entry[key]

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    values.update({
        "embeddings.load_s": total("embeddings.load"),
        "concat.enumerate_s": total("concat.enumerate"),
        "templatic.enumerate_s": total("templatic.enumerate"),
        "rules.from_candidates_s": total("rules.from_candidates"),
        "rules.score_all_s": total("rules.score_all"),
        "rules.prune_s": total("rules.prune"),
        "rules.save_s": total("rules.save"),
        "rules.load_s": total("rules.load"),
        "rules.score_w_sem_calls": spans.get("rules.score_w_sem", {}).get("calls", 0),
        "rules.score_w_sem_s": total("rules.score_w_sem"),
        "extractor.build_s": total("extractor.build"),
        "extractor.extract_s": total("extractor.extract"),
        "extractor.self_s": spans.get("extractor.extract", {}).get("self_s", 0.0),
        "pipeline.learn_rules_s": total("pipeline.learn_rules"),
        "pipeline.self_s": spans.get("pipeline.learn_rules", {}).get("self_s", 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - root,
        "trace.overhead_s": overhead,
    })
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in spec.PER_LAYER_UNITS.items()}
    return metrics, {"absent_spans": sorted(absent), "spans": spans}


class Outcome:
    """Operations attempted and failed, and the checks that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def learn(self, result: dict | None, seed: int, src_sha: str) -> None:
        if result is None:
            self.ops(1, 1)
            return
        found = learn_checks(result, seed, src_sha)
        self.problems += found
        self.ops(len(result["learn_s"]), len(result["learn_s"]) if found else 0)

    def extract(self, result: dict | None) -> None:
        if result is None:
            self.ops(1, 1)
            return
        self.ops(result["extracted"], result["failed"])
        if result["failed"]:
            self.problems.append(f"{result['failed']} extractions raised, first: "
                                 f"{result['first_error']}")
        accuracy = result["right"] / max(result["extracted"], 1)
        if accuracy < spec.MIN_ACCURACY:
            self.problems.append(f"accuracy {accuracy:.4f} < {spec.MIN_ACCURACY}")


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Prep, learn once, extract for `seconds`; with trace, each of learn and
    one extraction pass is followed by a traced twin, and the end-to-end
    figures are not reported."""
    started = time.monotonic()
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_DIR))
    child = Child(run_dir, seed, started + DEADLINE_S)
    env = environment(seed)
    record = {"environment": env, "spec": workload_spec(workload, seed),
              "guard": {"rlimit_as_bytes": RLIMIT_AS_BYTES, "deadline_s": DEADLINE_S,
                        "child_env": CHILD_ENV},
              "run_seconds": seconds, "trace": trace}
    outcome = Outcome()
    # A traced run needs one pass untraced and one traced, for the overhead.
    extract_opts = {"seconds": 0 if trace else seconds,
                    "mode": "tokens" if workload == spec.TOKENS else "types",
                    "min_passes": 1 if trace else spec.MIN_PASSES,
                    "rewalks": 0 if trace else spec.REWALKS}
    learn = extract = None
    traced: list[tuple[dict, dict]] = []

    def traced_twin(phase: str, result: dict | None, opts: dict) -> None:
        if not trace or result is None:
            return
        twin = child(phase, tag=f"{phase}-traced", trace=1,
                     spans=WORK_DIR / f"spans-{workload}-{phase}.jsonl", **opts)
        if twin is None:
            outcome.ops(1, 1)
        else:
            traced.append((result, twin))

    try:
        prep = child("prep")
        if prep is None:
            outcome.ops(1, 1)
        else:
            env.update(numpy=prep["numpy"], blas_threads=prep["blas_threads"])
            record["spec"]["synth_config"].update(prep["synth_config"])
            record["fixture_sha256"] = {"vectors": prep["vectors_sha256"],
                                        "gold": prep["gold_sha256"]}
            learn = child("learn")
            outcome.learn(learn, seed, env["src_sha256"])
            traced_twin("learn", learn, {})
            if learn is None:
                outcome.ops(1, 1)  # the extraction that had no rule DB
            else:
                extract = child("extract", **extract_opts)
                outcome.extract(extract)
                traced_twin("extract", extract, extract_opts)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    record["children"] = child.status
    outcome.problems += [f"{tag} {status}" for tag, status in child.status.items()
                         if status != "ok"]
    if trace:
        metrics, record["trace"] = per_layer(traced)
    else:
        metrics = end_to_end(learn, extract)
    if extract:
        record["latency"] = extract["latency"]
        record["extract_passes"] = extract["passes"]
        record["extract_reference_ms"] = extract["reference_ms"]
        record["words_per_wall_s"] = extract["words"] / extract["busy_s"]
        record["setup_wall_s"] = statistics.median(extract["setup_s"])
    if learn:
        record["learn_wall_s"] = learn["learn_s"]
        record["db_sha256"] = learn["db_sha256"][-1]
        record["counts"] = learn["counts"]
    record.update(checks_failed=outcome.problems,
                  failed_frac=outcome.failed / max(outcome.attempted, 1),
                  elapsed_s=time.monotonic() - started)
    result = {"correct": not outcome.problems and outcome.failed == 0,
              "attempted": max(outcome.attempted, 1), "failed": outcome.failed,
              "metrics": metrics}
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "jzr" / "__init__.py").is_file():
        print(f"error: no jzr sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
