"""Command-line front end: train-predictor | search | compare | gen-synth."""
from __future__ import annotations

import argparse
import logging
import sys

from . import harness, rules

log = logging.getLogger("shapenas")
LOG_LEVELS = ("debug", "info", "warning", "error")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="YAML experiment config")
    sub.add_argument("--seed", type=int, default=0, help="base RNG seed")
    sub.add_argument("--out", required=True, help="output directory")
    sub.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                     help="level of the shapenas loggers, printed to "
                          "stderr; debug also prints the traceback of an "
                          "unexpected error")


def _count(text: str) -> int:
    """``--replicates`` or ``--jobs``: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer {rules.Range(1)}, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shapenas",
        description="Hardware-aware architecture search experiments")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("train-predictor", "search", "compare", "gen-synth"):
        sub = subs.add_parser(name)
        _add_common(sub)
        if name in ("search", "compare"):
            sub.add_argument("--replicates", type=_count, default=1)
            sub.add_argument("--jobs", type=_count, default=1,
                             help="parallel replicate processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = logging.StreamHandler()
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: "
                                           "%(message)s"))
    old_level = log.level
    log.addHandler(handler)
    log.setLevel(args.log_level.upper())
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(old_level)


def _run(args) -> int:
    try:
        if args.command == "gen-synth":
            path = harness.cmd_gen_synth(args.config, args.seed, args.out)
            print(f"wrote {path}")
        elif args.command == "train-predictor":
            report = harness.cmd_train_predictor(args.config, args.seed,
                                                 args.out)
            for name, scores in report["scores"]["targets"].items():
                print(f"{name}: r2={scores['r2']} rmse={scores['rmse']}")
            print(f"gate_accuracy={report['scores']['gate_accuracy']}")
        elif args.command == "search":
            report = harness.cmd_search(args.config, args.seed,
                                        args.replicates, args.jobs, args.out)
            agg = report["aggregate"]
            for key, stats in agg.items():
                print(f"{key}: {stats['mean']:.4f} +/- {stats['stddev']:.4f}")
        elif args.command == "compare":
            report = harness.cmd_compare(args.config, args.seed,
                                         args.replicates, args.jobs, args.out)
            print(f"shaped episodes to 95%: {report['mean_shaped']:.2f}")
            print(f"scalarized episodes to 95%: "
                  f"{report['mean_scalarized']:.2f}")
            print(f"speedup ratio: {report['speedup_ratio']:.2f}")
    except harness.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        log.debug("unexpected error", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
