#!/usr/bin/env python3
"""Full vs concatenative-only extraction on a two-step planted fixture.

Reports exact-match accuracy per mode and the one-to-one win matrix, which
shows how much of the extractor's performance the templatic rules carry.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jzr.config import Config
from jzr.evalharness import evaluate, format_report
from jzr.extractor import RootExtractor
from jzr.pipeline import learn_rules
from jzr.synthlang import SynthConfig, generate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-roots", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--noise-sigma", type=float, default=0.01)
    args = parser.parse_args()

    synth = SynthConfig(n_roots=args.n_roots, seed=args.seed,
                        noise_sigma=args.noise_sigma, chain_depth=2)
    words, table, gold = generate(synth)
    validated = learn_rules(table, Config())[1]
    print(f"vocab {len(words)} words, {len(validated)} validated rules")

    full = RootExtractor(validated)
    limited = RootExtractor(validated, limited=True)
    derived = [w for w in words if gold[w].chain]
    predictions = {
        "full": {w: full.extract(w).final for w in derived},
        "limited": {w: limited.extract(w).final for w in derived},
    }
    gold_roots = {w: gold[w].root for w in derived}
    report = evaluate(predictions, gold_roots)
    print(format_report(report), end="")

    drop = report.accuracy("full") - report.accuracy("limited")
    print(f"\naccuracy drop without templatic rules: {drop:.4f} "
          f"({report.matrix['full']['limited']} words lost, "
          f"{report.matrix['limited']['full']} gained)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
