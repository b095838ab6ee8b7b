"""Command-line interface.

Subcommands:
  run     execute a config's regret experiment, writing CSV + JSON
  verify  run the numerical verification suite
  bench   per-round timing table across dimensions
  sample  dump perturbation draws as CSV

Exit codes: 0 success, 1 invalid configuration or arguments, 2 verification
check failure, 3 numeric failure (quadrature non-convergence, aborted run).
"""

from __future__ import annotations

import argparse
import sys

from .engine import AbortedRunError
from .estimation import QuadratureError
from .harness import (
    ConfigError,
    check_seeds,
    cmd_bench,
    cmd_run,
    cmd_sample,
    cmd_verify,
    load_config,
    load_verify_options,
)
from .verify import VerifyOptions

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERIC = 3


def _parse_seed_list(text: str) -> list[int]:
    """The ``--seeds`` override, held to the config's own seed rules.

    Each comma-separated entry is ASCII decimal digits, spaces around it
    allowed; a text of nothing but commas and spaces is an empty list.
    """
    entries = [part.strip(" ") for part in text.split(",")]
    if not any(entries):
        entries = []
    for i, entry in enumerate(entries):
        if not (entry.isascii() and entry.isdigit()):
            raise ConfigError(f"--seeds[{i}]: must be a 64-bit unsigned integer, got {entry!r}")
    seeds = [int(entry) for entry in entries]
    check_seeds(seeds, "--seeds")
    return seeds


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scbandits",
                                     description="Adversarial linear bandit simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a regret experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON")
    p_run.add_argument("--out", default=None, help="override the config's output directory")
    p_run.add_argument("--seeds", default=None, help="comma-separated seed list override")
    p_run.add_argument("--quiet", action="store_true")

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("--config", default=None, help="optional JSON with suite options")
    p_verify.add_argument("--out", default=None, help="directory for verify_report.json")
    p_verify.add_argument("--scale", type=float, default=1.0,
                          help="Monte-Carlo sample-count multiplier (thresholds unchanged)")
    p_verify.add_argument("--quiet", action="store_true")

    p_bench = sub.add_parser("bench", help="per-round timing across dimensions")
    p_bench.add_argument("--dims", default="16,64,256,1024,4096",
                         help="comma-separated dimensions")
    p_bench.add_argument("--rounds", type=int, default=256)
    p_bench.add_argument("--repeats", type=int, default=3)
    p_bench.add_argument("--sets", default="hypercube,ball")
    p_bench.add_argument("--quiet", action="store_true")

    p_sample = sub.add_parser("sample", help="dump perturbation draws as CSV")
    p_sample.add_argument("--set", required=True, choices=["hypercube", "ball"])
    p_sample.add_argument("--dimension", type=int, required=True)
    p_sample.add_argument("--count", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", required=True, help="output CSV path")
    return parser


def _verify_options_from(args) -> VerifyOptions:
    if args.config is not None:
        return load_verify_options(args.config, scale=args.scale)
    return VerifyOptions(scale=args.scale)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_config(args.config)
            overrides = {}
            if args.out is not None:
                overrides["out_dir"] = args.out
            if args.seeds is not None:
                overrides["seeds"] = tuple(_parse_seed_list(args.seeds))
            if overrides:
                from dataclasses import replace

                config = replace(config, **overrides)
            cmd_run(config, quiet=args.quiet)
            return EXIT_OK
        if args.command == "verify":
            ok, _ = cmd_verify(_verify_options_from(args), out_dir=args.out, quiet=args.quiet)
            return EXIT_OK if ok else EXIT_CHECK_FAILED
        if args.command == "bench":
            dims = tuple(int(v) for v in args.dims.split(",") if v.strip())
            kinds = tuple(k.strip() for k in args.sets.split(",") if k.strip())
            cmd_bench(dims=dims, rounds=args.rounds, repeats=args.repeats,
                      kinds=kinds, quiet=args.quiet)
            return EXIT_OK
        if args.command == "sample":
            cmd_sample(args.set, args.dimension, args.count, args.seed, args.out)
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, AbortedRunError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
