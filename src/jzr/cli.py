"""Command line surface: learn, rank, extract, synth, eval.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal bug. Warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path
from typing import get_type_hints

from . import evalharness, synthlang
from .concat import PairBudgetError
from .config import SETTING_TYPES, Config, Thresholds
from .embeddings import EmbeddingError, InvalidWordError, load_embeddings
from .evalharness import CoverageError, PredictionFormatError
from .extractor import RootExtractor
from .fileio import write_atomic
from .pipeline import learn_rules
from .rules import (
    CONCATENATIVE,
    TEMPLATIC,
    RuleDbError,
    load_rules,
    rank_rules,
    save_rules,
)
from .synthlang import AlphabetTooSmallError, SurfaceCollisionError, SynthConfig

DATA_ERRORS = (
    EmbeddingError,
    InvalidWordError,
    RuleDbError,
    PairBudgetError,
    CoverageError,
    PredictionFormatError,
    SurfaceCollisionError,
    AlphabetTooSmallError,
    OSError,
    UnicodeDecodeError,
    json.JSONDecodeError,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# The scalar SynthConfig fields, which `synth` takes as flags.
SYNTH_SETTINGS = {name: kind for name, kind in get_type_hints(SynthConfig).items()
                  if kind in (int, float)}


def _add_flags(parser: argparse.ArgumentParser, types: dict) -> None:
    for name, kind in types.items():
        parser.add_argument("--" + name.replace("_", "-"), type=kind)


def _config_from_args(args) -> Config:
    """The run's Config: defaults, then the config file, then flags.

    Each flag and config-file key names a Config field. Each source
    overrides the ones before it; a None value counts as not given. An
    unreadable config file is a data error; an invalid setting is a usage
    error.
    """
    file_values = json.loads(Path(args.config).read_text("utf-8-sig")) if args.config else {}
    flag_values = {name: getattr(args, name, None) for name in SETTING_TYPES}
    merged: dict = {}
    try:
        for source in file_values, flag_values:
            if not isinstance(source, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = sorted(set(source) - set(SETTING_TYPES))
            if unknown:
                raise ValueError(f"unknown config keys: {', '.join(unknown)}")
            merged.update((name, value) for name, value in source.items() if value is not None)
        return Config(**merged)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="jzr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_learn = sub.add_parser("learn", help="mine and validate rules from a vector file")
    p_learn.add_argument("--vectors", required=True)
    p_learn.add_argument("--out", required=True, help="rule DB output path")
    p_learn.add_argument("--config", help="JSON config file; flags override it")
    _add_flags(p_learn, SETTING_TYPES)

    p_rank = sub.add_parser("rank", help="list top validated rules by semantic score")
    p_rank.add_argument("--rules", required=True, help="rule DB path")
    p_rank.add_argument("--kind", choices=["all", CONCATENATIVE, TEMPLATIC],
                        default="all")
    p_rank.add_argument("--top", type=int, default=30)

    p_extract = sub.add_parser("extract", help="extract roots for words")
    p_extract.add_argument("--rules", required=True, help="rule DB path")
    group = p_extract.add_mutually_exclusive_group(required=True)
    group.add_argument("--word")
    group.add_argument("--words", help="file with one word per line")
    p_extract.add_argument("--limited", action="store_true",
                           help="concatenative rules only")
    p_extract.add_argument("--out", help="write trace lines here instead of stdout")
    p_extract.add_argument("--t-w-sem", type=float, default=Thresholds.t_w_sem)

    p_synth = sub.add_parser("synth", help="generate a planted-rule fixture")
    p_synth.add_argument("--out", required=True, help="output directory")
    # Unset flags keep SynthConfig's defaults.
    _add_flags(p_synth, SYNTH_SETTINGS)

    p_eval = sub.add_parser("eval", help="score prediction files against gold roots")
    p_eval.add_argument("--gold", required=True, help="word TAB root TSV")
    p_eval.add_argument("--pred", action="append", required=True,
                        metavar="NAME=PATH", help="repeatable system predictions")
    p_eval.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the report as JSON")
    p_eval.add_argument("--out", help="write the report here instead of stdout")

    return parser


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def cmd_learn(args) -> int:
    cfg = _config_from_args(args)
    table = load_embeddings(args.vectors, top_n=cfg.top_n)
    if len(table) == 0:
        print("warning: vocabulary is empty after the cap; writing an empty rule DB",
              file=sys.stderr)
    validated = learn_rules(table, cfg)[1]  # the candidates are freed before the save
    save_rules(validated, args.out)
    c_counts = validated.candidate_counts
    v_counts = validated.count_by_kind()
    print(
        f"candidates: {CONCATENATIVE}={c_counts[CONCATENATIVE]} "
        f"{TEMPLATIC}={c_counts[TEMPLATIC]} | "
        f"validated: {CONCATENATIVE}={v_counts[CONCATENATIVE]} "
        f"{TEMPLATIC}={v_counts[TEMPLATIC]}"
    )
    return 0


def cmd_rank(args) -> int:
    if args.top < 0:
        raise UsageError(f"--top cannot be negative: {args.top}")
    store = load_rules(args.rules)
    for rule in rank_rules(store, kind=args.kind, top_k=args.top):
        s = rule.scores
        print(f"{rule.key.key_str}\t{s.orth}\t{s.sem!r}")
    return 0


def cmd_extract(args) -> int:
    try:
        thresholds = Thresholds(t_w_sem=args.t_w_sem)
    except ValueError as exc:
        raise UsageError(f"invalid configuration: {exc}") from None
    extractor = RootExtractor(load_rules(args.rules), thresholds=thresholds, limited=args.limited)
    if args.word is not None:
        words = [args.word]
    else:
        # Split and strip only at characters no word holds, so that every
        # other one reaches the word check, as a --word value does.
        text = Path(args.words).read_bytes().decode("utf-8-sig")
        words = [w for w in (line.strip(" \t\r") for line in text.split("\n")) if w]
    lines = [extractor.extract(w).format_line() for w in words]
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def cmd_synth(args) -> int:
    given = {k: v for k, v in vars(args).items() if k in SYNTH_SETTINGS and v is not None}
    try:
        config = SynthConfig(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    vectors_path, gold_path = synthlang.write_fixture(config, args.out)
    with open(vectors_path, encoding="utf-8") as fh:
        n_words, dim = fh.readline().split()
    print(f"wrote {vectors_path} ({n_words} words, dim {dim}) and {gold_path}")
    return 0


def cmd_eval(args) -> int:
    gold = evalharness.read_predictions(args.gold)
    predictions: dict[str, dict[str, str]] = {}
    for spec in args.pred:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise UsageError(f"--pred needs NAME=PATH, got {spec!r}")
        if name in predictions:
            raise UsageError(f"--pred gives {name!r} twice")
        predictions[name] = evalharness.read_predictions(path)
    report = evalharness.evaluate(predictions, gold)
    if args.as_json:
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit(evalharness.format_report(report), args.out)
    return 0


_COMMANDS = {
    "learn": cmd_learn,
    "rank": cmd_rank,
    "extract": cmd_extract,
    "synth": cmd_synth,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal bug: the traceback above is jzr's fault, not the input's",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
