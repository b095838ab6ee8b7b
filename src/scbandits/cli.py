"""Command-line interface.

Subcommands:
  run     execute a config's regret experiment, writing CSV + JSON
  verify  run the numerical verification suite
  bench   per-round timing table across dimensions
  sample  dump perturbation draws as CSV

Exit codes: 0 success (``--help`` included), 1 invalid configuration or
arguments (argparse usage errors included, output paths that cannot be
written, and sizes whose arrays cannot be allocated), 2 verification check
failure, 3 numeric failure (quadrature non-convergence, aborted run).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .action_sets import BALL, HYPERCUBE
from .engine import AbortedRunError
from .estimation import QuadratureError
from .harness import (
    VERIFY_REPORT,
    ConfigError,
    check_output_path,
    check_seeds,
    cmd_bench,
    cmd_run,
    cmd_sample,
    cmd_verify,
    load_config,
    load_verify_options,
    output_paths,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2
EXIT_NUMERIC = 3


def _entries(text: str) -> list[str]:
    """A list flag's comma-separated entries, spaces stripped; only commas and spaces is none."""
    entries = [part.strip(" ") for part in text.split(",")]
    return entries if any(entries) else []


def _digits(entry: str, path: str, what: str, minimum: int = 0,
            below: int | None = None) -> int:
    """An entry of ASCII decimal digits worth at least ``minimum`` (and less than
    ``below``, if given), or a ConfigError at ``path``."""
    if not (entry.isascii() and entry.isdigit() and int(entry) >= minimum
            and (below is None or int(entry) < below)):
        raise ConfigError(f"{path}: must be {what}, got {entry!r}")
    return int(entry)


def _parse_seed_list(text: str) -> list[int]:
    """The ``--seeds`` override, held to the config's own seed rules."""
    seeds = [_digits(entry, f"--seeds[{i}]", "a 64-bit unsigned integer")
             for i, entry in enumerate(_entries(text))]
    check_seeds(seeds, "--seeds")
    return seeds


def _bench_arguments(args) -> dict:
    """The ``bench`` flags under the ``--seeds`` rules, all checked before any timing."""
    dims = tuple(_digits(entry, f"--dims[{i}]", "a positive integer", minimum=1)
                 for i, entry in enumerate(_entries(args.dims)))
    kinds = tuple(_entries(args.sets))
    for i, kind in enumerate(kinds):
        if kind not in (HYPERCUBE, BALL):
            raise ConfigError(f"--sets[{i}]: must be '{HYPERCUBE}' or '{BALL}', got {kind!r}")
    for flag, values in (("--dims", dims), ("--sets", kinds)):
        if not values or len(set(values)) != len(values):
            raise ConfigError(f"{flag}: must be a nonempty list of distinct entries")
    if args.json is not None and (Path(args.json).is_dir()
                                  or not Path(args.json).parent.is_dir()):
        raise ConfigError(f"--json: must be a file in an existing directory, got {args.json!r}")
    # the auto learning rate needs a horizon of at least 2
    return {"dims": dims, "kinds": kinds, "json_path": args.json,
            "rounds": _digits(args.rounds.strip(" "), "--rounds", "an integer >= 2", minimum=2),
            "repeats": _digits(args.repeats.strip(" "), "--repeats", "a positive integer",
                               minimum=1)}


def _sample_arguments(args) -> dict:
    """The ``sample`` flags under the ``--seeds`` digit rule, all checked before any draw."""
    check_output_path(args.out, "--out", directory=False)
    return {"set_kind": args.set,
            "dimension": _digits(args.dimension.strip(" "), "--dimension",
                                 "a positive integer", minimum=1),
            "count": _digits(args.count.strip(" "), "--count", "a positive integer", minimum=1),
            "seed": _digits(args.seed.strip(" "), "--seed", "a 64-bit unsigned integer",
                            below=2**64),
            "out_path": args.out}


def _scale(text: str) -> float:
    """The ``verify --scale`` flag: a positive finite number, or a ConfigError naming it."""
    try:
        scale = float(text)
    except ValueError:
        scale = math.nan
    if not (0.0 < scale < math.inf):
        raise ConfigError(f"--scale: must be a positive finite number, got {text!r}")
    return scale


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError (exit 1), not exit 2."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scbandits",
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
    p_verify.add_argument("--scale", default="1.0",
                          help="Monte-Carlo sample-count multiplier (thresholds unchanged)")
    p_verify.add_argument("--quiet", action="store_true")

    p_bench = sub.add_parser("bench", help="per-round timing across dimensions")
    p_bench.add_argument("--dims", default="16,64,256,1024,4096",
                         help="comma-separated dimensions")
    p_bench.add_argument("--rounds", default="256")
    p_bench.add_argument("--repeats", default="3")
    p_bench.add_argument("--sets", default="hypercube,ball")
    p_bench.add_argument("--json", default=None, help="also write the rows as JSON to this path")
    p_bench.add_argument("--quiet", action="store_true")

    p_sample = sub.add_parser("sample", help="dump perturbation draws as CSV")
    p_sample.add_argument("--set", required=True, choices=["hypercube", "ball"])
    p_sample.add_argument("--dimension", required=True)
    p_sample.add_argument("--count", default="1000")
    p_sample.add_argument("--seed", default="0")
    p_sample.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            config = load_config(args.config)
            if args.out is not None:
                config = replace(config, out_dir=args.out)
            if args.seeds is not None:
                config = replace(config, seeds=tuple(_parse_seed_list(args.seeds)))
            where = "$.out_dir" if args.out is None else "--out"
            check_output_path(config.out_dir, where, directory=True)
            for path in output_paths(config):
                check_output_path(str(path), where, directory=False)
            cmd_run(config, quiet=args.quiet)
            return EXIT_OK
        if args.command == "verify":
            options = load_verify_options(args.config, scale=_scale(args.scale))
            if args.out is not None:
                check_output_path(args.out, "--out", directory=True)
                check_output_path(str(Path(args.out) / VERIFY_REPORT), "--out", directory=False)
            ok, _ = cmd_verify(options, out_dir=args.out, quiet=args.quiet)
            return EXIT_OK if ok else EXIT_CHECK_FAILED
        if args.command == "bench":
            cmd_bench(**_bench_arguments(args), quiet=args.quiet)
            return EXIT_OK
        if args.command == "sample":
            cmd_sample(**_sample_arguments(args))
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    # numpy refuses an array larger than memory with a MemoryError before touching it;
    # an OSError is a write the path checks could not foresee (a full disk, say)
    except (ConfigError, ValueError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, AbortedRunError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
