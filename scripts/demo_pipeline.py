#!/usr/bin/env python3
"""End-to-end demo on a planted fixture: mine rules, rank them, pull roots.

Writes the fixture and rule DB under --workdir and prints the top rules plus
a few extraction traces, so you can eyeball what the learner recovered.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jzr.config import Config
from jzr.embeddings import load_embeddings
from jzr.extractor import RootExtractor
from jzr.pipeline import learn_rules
from jzr.rules import CONCATENATIVE, TEMPLATIC, rank_rules, save_rules
from jzr.synthlang import SynthConfig, load_gold, write_fixture


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="demo_out")
    parser.add_argument("--n-roots", type=int, default=100)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--chain-depth", type=int, default=2, choices=[1, 2])
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()

    synth = SynthConfig(n_roots=args.n_roots, seed=args.seed,
                        chain_depth=args.chain_depth)
    vectors_path, gold_path = write_fixture(synth, args.workdir)
    table = load_embeddings(vectors_path)
    gold = load_gold(gold_path)
    print(f"fixture: {len(table)} words  ->  {vectors_path}, {gold_path}")

    candidates, validated = learn_rules(table, Config())
    db_path = Path(args.workdir) / "rules.db"
    save_rules(validated, db_path)
    counts = validated.count_by_kind()
    print(f"candidates: {len(candidates)}  validated: {len(validated)} "
          f"({counts[CONCATENATIVE]} concatenative, {counts[TEMPLATIC]} templatic)"
          f"  ->  {db_path}")

    print(f"\ntop {args.top} rules by semantic score:")
    for rule in rank_rules(validated, top_k=args.top):
        s = rule.scores
        print(f"  {rule.key.key_str}\t{s.orth}\t{s.sem:.4f}")

    planted = {r.key_str for r in synth.rules}
    recovered = planted & {r.key.key_str for r in validated}
    print(f"\nplanted rules recovered: {len(recovered)}/{len(planted)}")

    extractor = RootExtractor(validated, table)
    samples = [w for w in table.words if len(gold[w].chain) == args.chain_depth][:8]
    print("\nsample extractions (word -> root, gold in brackets):")
    for word in samples:
        trace = extractor.extract(word)
        path = " -> ".join([word] + [s.word for s in trace.steps])
        mark = "ok" if trace.final == gold[word].root else "MISS"
        print(f"  {path}  [{gold[word].root}] {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
