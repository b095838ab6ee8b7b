"""Experiment orchestration: config files, multi-seed runs, bench, outputs.

A run experiment executes one (body, dimension, algorithm, adversary)
combination for every seed in the config, measures realized cumulative
regret against the empirical best fixed action, and writes

* ``<label>.csv`` with columns t, mean_regret, se, bound ('.' decimals, LF
  endings, header row; floats printed in shortest round-trip form so
  identical runs produce byte-identical files);
* ``<label>_summary.json`` with final numbers, step-condition violation
  counts, and wall-clock per round;
* optionally one ``<label>_seed<seed>.csv`` per seed for re-aggregation.

Every command writes its files whole or not at all (:func:`_write_whole`).

All seeds run in this process, in one :func:`engine.run_seeds` call, which
batches the perturbed-leader seeds into one recurrence and runs the
Dikin-pole seeds one by one; the summary's wall time per round is that
call's wall time over seeds x rounds. The config key ``workers`` is still
accepted and checked, and has no effect: a seed's numbers do not depend on
how seeds are batched, so the output is the same for any value.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .action_sets import ActionSetModel, BALL, HYPERCUBE
from .engine import (
    SCFTPL,
    SCRIBBLE,
    AlgorithmSpec,
    k_cache_for,
    resolve_learning_rate,
    run_seeds,
    theoretical_bound,
)
from .environments import (
    ADVERSARY_KINDS,
    FIXED_VECTOR,
    ROTATING_DIRECTION,
    AdversarySpec,
    best_in_hindsight,
    generate,
    support_norms,
)
from . import perturbations
from .rng import make_rng
from .verify import CheckResult, VerifyOptions, verify_groups


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the offending key."""


@dataclass(frozen=True)
class ExperimentConfig:
    spec: AlgorithmSpec
    horizon: int
    adversary: AdversarySpec
    seeds: tuple[int, ...]
    out_dir: str
    label: str
    write_per_seed: bool

    def warnings(self) -> list[str]:
        """Auto learning-rate preconditions that are advisory, not fatal."""
        notes = []
        d, kind = self.spec.action_set.dimension, self.spec.action_set.kind
        if self.spec.learning_rate == "auto" and self.horizon >= 2:
            ratio = self.horizon / math.log(self.horizon)
            if kind == HYPERCUBE and ratio < 24 * d:
                notes.append(
                    f"n/ln n = {ratio:.1f} < 24 d = {24 * d}: the hypercube "
                    f"regret guarantee does not cover this horizon")
            if kind == BALL and ratio < max(2 * d**2, 96):
                notes.append(
                    f"n/ln n = {ratio:.1f} < max(2 d^2, 96) = {max(2 * d**2, 96)}: "
                    f"the ball regret guarantee does not cover this horizon")
        return notes


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float (NaN fails)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _expect_known_keys(raw: dict, known: set[str], base: str) -> None:
    for key in raw:
        _expect(key in known, f"{base}.{key}", f"unknown key (expected one of {sorted(known)})")


def check_seeds(seeds, path: str) -> None:
    """A nonempty array of distinct 64-bit unsigned integers, or a ConfigError at ``path``."""
    _expect(isinstance(seeds, (list, tuple)) and len(seeds) >= 1, path,
            "must be a nonempty array of integers")
    for i, s in enumerate(seeds):
        _expect(_is_int(s) and 0 <= s < 2**64,
                f"{path}[{i}]", f"must be a 64-bit unsigned integer, got {s!r}")
    _expect(len(set(seeds)) == len(seeds), path, "seeds must be distinct")


def check_output_path(path: str, where: str, directory: bool) -> None:
    """A ConfigError at ``where`` if writing to ``path`` would fail; creates nothing.

    An existing path must be a directory if ``directory`` and must not be one
    otherwise; a new one must have a directory as its nearest existing
    ancestor.
    """
    target = Path(path)
    if target.exists():
        ok = target.is_dir() == directory
    else:
        ok = next(p for p in target.absolute().parents if p.exists()).is_dir()
    kind = "a directory" if directory else "a file"
    _expect(ok, where, f"must be {kind} or a new path under a directory, got {path!r}")


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a JSON-shaped dict into an ExperimentConfig.

    Error messages carry the JSON path of the offending entry. Every field,
    the output file name included, is checked here, before any compute.
    """
    _expect(isinstance(raw, dict), "$", "config must be a JSON object")
    _expect_known_keys(raw, {"set", "dimension", "horizon", "algorithm", "learning_rate",
                             "adversary", "seeds", "out_dir", "label", "workers",
                             "write_per_seed"}, "$")

    kind = raw.get("set")
    _expect(kind in (HYPERCUBE, BALL), "$.set",
            f"must be '{HYPERCUBE}' or '{BALL}', got {kind!r}")
    d = raw.get("dimension")
    # an array axis is at most sys.maxsize long; larger ints also overflow a float
    _expect(_is_int(d) and 1 <= d <= sys.maxsize, "$.dimension",
            f"must be an integer in [1, {sys.maxsize}], got {d!r}")
    rate = raw.get("learning_rate", "auto")
    if isinstance(rate, str):
        _expect(rate == "auto", "$.learning_rate", f"must be positive or 'auto', got {rate!r}")
    else:
        _expect(_is_finite_number(rate) and rate > 0, "$.learning_rate",
                f"must be positive or 'auto', got {rate!r}")
        rate = float(rate)
    n = raw.get("horizon")
    _expect(_is_int(n) and (2 if rate == "auto" else 1) <= n <= sys.maxsize, "$.horizon",
            f"must be an integer in [1, {sys.maxsize}], at least 2 with the 'auto' "
            f"learning rate, got {n!r}")

    algorithm = raw.get("algorithm", SCFTPL)
    _expect(algorithm in (SCFTPL, SCRIBBLE), "$.algorithm",
            f"must be '{SCFTPL}' or '{SCRIBBLE}', got {algorithm!r}")

    adv_raw = raw.get("adversary", {"kind": FIXED_VECTOR})
    _expect(isinstance(adv_raw, dict), "$.adversary", "must be an object")
    _expect_known_keys(adv_raw, {"kind", "base", "period", "angle", "seed"}, "$.adversary")
    adv_kind = adv_raw.get("kind", FIXED_VECTOR)
    _expect(adv_kind in ADVERSARY_KINDS, "$.adversary.kind",
            f"must be one of {ADVERSARY_KINDS}, got {adv_kind!r}")
    _expect(adv_kind != ROTATING_DIRECTION or d >= 2, "$.adversary.kind",
            f"'{ROTATING_DIRECTION}' needs a dimension of at least 2, got {d}")
    aset = ActionSetModel(dimension=d, kind=kind)
    base_vec = adv_raw.get("base")
    if base_vec is not None:
        _expect(isinstance(base_vec, (list, tuple)) and len(base_vec) == d
                and all(_is_finite_number(v) for v in base_vec) and any(base_vec),
                "$.adversary.base", f"must be a length-{d} array of numbers, not all 0")
        base_vec = tuple(float(v) for v in base_vec)
        # the losses are divided by it: an infinite norm would make them all 0
        norm = support_norms(aset, np.array([base_vec]))[0]
        _expect(math.isfinite(norm), "$.adversary.base",
                f"must have a finite support norm on the {kind}, got {norm!r}")
        # rotated rows' l1 norms reach (|cos| + |sin|) <= sqrt(2) times the base's
        _expect(adv_kind != ROTATING_DIRECTION or kind != HYPERCUBE
                or math.isfinite(math.sqrt(2.0) * float(norm)), "$.adversary.base",
                f"must have a support norm that stays finite times sqrt(2), which "
                f"'{ROTATING_DIRECTION}' rows reach on the {kind}, got {norm!r}")
    period = adv_raw.get("period")
    if period is not None:
        _expect(_is_int(period) and 1 <= period <= sys.maxsize, "$.adversary.period",
                f"must be an integer in [1, {sys.maxsize}], got {period!r}")
    angle = adv_raw.get("angle")
    if angle is not None:
        # the last round turns the base by angle * (horizon - 1)
        _expect(_is_finite_number(angle) and math.isfinite(float(angle) * (n - 1)),
                "$.adversary.angle",
                f"must be a finite number, also times horizon - 1 = {n - 1}, got {angle!r}")
        angle = float(angle)
    adv_seed = adv_raw.get("seed")
    if adv_seed is not None:
        _expect(_is_int(adv_seed) and 0 <= adv_seed < 2**64, "$.adversary.seed",
                f"must be a 64-bit unsigned integer, got {adv_seed!r}")
    adversary = AdversarySpec(kind=adv_kind, geometry=kind, base=base_vec,
                              period=period, angle=angle, seed=adv_seed)

    seeds = raw.get("seeds", [1])
    check_seeds(seeds, "$.seeds")

    out_dir = raw.get("out_dir", "results")
    _expect(isinstance(out_dir, str), "$.out_dir", f"must be a string, got {out_dir!r}")
    # the label names the output files inside out_dir, so it must be a plain
    # file name: a bad one would otherwise fail only when the outputs are written
    label = raw.get("label", "experiment")
    _expect(isinstance(label, str) and label not in ("", ".", "..")
            and not any(c in label for c in "/\\\0"), "$.label",
            f"must be a file name without '/', '\\' or NUL, not '.' or '..', got {label!r}")

    # checked, but without effect: all seeds run in one process
    workers = raw.get("workers", 1)
    _expect(_is_int(workers) and workers >= 1, "$.workers",
            f"must be a positive integer, got {workers!r}")
    write_per_seed = raw.get("write_per_seed", False)
    _expect(isinstance(write_per_seed, bool), "$.write_per_seed",
            f"must be true or false, got {write_per_seed!r}")
    try:
        size = len(os.fsencode(label))
    except UnicodeEncodeError:
        raise ConfigError(f"$.label: must encode as a file name, got {label!r}") from None
    # the longest name written is <label>_seed<20 digits>.csv per seed, else
    # <label>_summary.json, and a file name holds at most 255 bytes
    limit = 255 - (29 if write_per_seed else 13)
    _expect(size <= limit, "$.label", f"must encode in at most {limit} bytes, got {size}")

    spec = AlgorithmSpec(variant=algorithm, action_set=aset, learning_rate=rate)
    return ExperimentConfig(spec=spec, horizon=n, adversary=adversary, seeds=tuple(seeds),
                            out_dir=out_dir, label=label, write_per_seed=write_per_seed)


def verify_options_from_dict(raw: dict, scale: float) -> VerifyOptions:
    """Validate the JSON options of ``verify --config`` into VerifyOptions.

    ``scale`` is the default for a file that sets none. Error messages carry
    the JSON path of the offending entry.
    """
    _expect(isinstance(raw, dict), "$", "verify options must be a JSON object")
    _expect_known_keys(raw, {"seed", "scale", "checks"}, "$")
    seed = raw.get("seed", VerifyOptions.seed)
    _expect(_is_int(seed) and 0 <= seed < 2**64, "$.seed",
            f"must be a 64-bit unsigned integer, got {seed!r}")
    where = "$.scale" if "scale" in raw else "--scale"
    scale = raw.get("scale", scale)
    _expect(_is_finite_number(scale) and scale > 0, where,
            f"must be a positive finite number, got {scale!r}")
    # the largest sample count a check asks for is 10**6 * scale
    _expect(math.isfinite(1e6 * scale), where,
            f"must leave 10**6 * scale finite, got {scale!r}")
    checks = raw.get("checks")
    if checks is not None:
        _expect(isinstance(checks, list) and len(checks) >= 1
                and all(isinstance(c, str) for c in checks), "$.checks",
                f"must be a nonempty array of check-name prefixes, got {checks!r}")
        checks = tuple(checks)
    return VerifyOptions(seed=seed, scale=float(scale), checks=checks)


def _read_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror or exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(_read_json(path))


def load_verify_options(path: str | Path | None, scale: float) -> VerifyOptions:
    """Options from a ``verify --config`` file; with no file, the defaults at ``scale``."""
    return verify_options_from_dict({} if path is None else _read_json(path), scale=scale)


# ---------------------------------------------------------------------------
# Regret curves
# ---------------------------------------------------------------------------

def cmd_run(config: ExperimentConfig, quiet: bool = False) -> dict:
    """Execute the experiment, write CSV + JSON outputs and return the summary."""
    # the process's K grid for a ball run, built here as set-up and before the
    # losses: it imports scipy, and importing it after the loss arrays were
    # allocated raised a d=1024 run's peak RSS by about 1 MB
    aset = config.spec.action_set
    k_cache_for(config.spec, config.horizon)
    losses = generate(config.adversary, aset.dimension, config.horizon)
    competitor = best_in_hindsight(aset, losses)

    start = time.perf_counter()
    increments, violations = run_seeds(config.spec, losses,
                                       [make_rng(s) for s in config.seeds], competitor)
    engine_time = time.perf_counter() - start
    # one C-ordered row per seed, the layout the seed-wise mean and SE reduce
    curves = np.ascontiguousarray(np.cumsum(increments, axis=0).T)
    mean = curves.mean(axis=0)
    if curves.shape[0] > 1:
        se = curves.std(axis=0, ddof=1) / math.sqrt(curves.shape[0])
    else:
        se = np.zeros_like(mean)
    bound = theoretical_bound(aset.kind, aset.dimension, config.horizon)
    summary = _write_outputs(config, curves, mean, se, bound, int(violations.sum()),
                             engine_time / (config.horizon * len(config.seeds)))
    if not quiet:
        print(f"{config.label}: final mean regret {summary['final_mean_regret']:.3f} "
              f"(bound {summary['final_bound']:.3f}), {summary['step_violations']} step "
              f"violations, {summary['wall_time_per_round_seconds'] * 1e6:.1f} us/round")
        for note in summary["warnings"]:
            print(f"  warning: {note}")
    return summary


def _write_whole(writes) -> None:
    """Write every output or none. ``writes`` holds a ``(path, write, *args)``
    per output: ``write(temporary, *args)`` writes the file to a new temporary
    name in the output's directory, short whatever the output's name, and the
    files move into place with ``os.replace`` only after every write has
    succeeded. If any write fails, the temporary files are deleted."""
    moves = []
    try:
        for i, (path, write, *args) in enumerate(writes):
            temporary = path.with_name(f".scbandits-{os.getpid()}-{i}.tmp")
            moves.append((temporary, path))
            write(temporary, *args)
        for temporary, path in moves:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in moves:
            temporary.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, *columns: np.ndarray) -> None:
    """Write equal-length columns under ``header``, 1024 rows at a time, as the ``repr``
    of each value ``tolist`` gives: ints as ``1``, floats in shortest round-trip form."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), 1024):
            values = (map(repr, column[lo:lo + 1024].tolist()) for column in columns)
            fh.write("\n".join(map(",".join, zip(*values))) + "\n")


def output_paths(config: ExperimentConfig) -> list[Path]:
    """The files :func:`cmd_run` writes, in order: the mean-curve CSV, each
    seed's CSV if it writes them, then the summary JSON."""
    out_dir = Path(config.out_dir)
    seeds = config.seeds if config.write_per_seed else ()
    return [out_dir / f"{config.label}.csv",
            *(out_dir / f"{config.label}_seed{seed}.csv" for seed in seeds),
            out_dir / f"{config.label}_summary.json"]


def _write_outputs(config: ExperimentConfig, curves: np.ndarray, mean: np.ndarray,
                   se: np.ndarray, bound: np.ndarray, violations: int,
                   wall_time_per_round: float) -> dict:
    """Write the CSVs and the summary JSON of a run; return the summary."""
    summary = {
        "label": config.label,
        "regret_definition": (
            "mean over seeds of realized cumulative loss minus the loss of the "
            "empirical best fixed action (the support minimizer of the summed "
            "losses, exact for linear regret); SE is the seed-wise standard error"
        ),
        "set": config.spec.action_set.kind,
        "dimension": config.spec.action_set.dimension,
        "horizon": config.horizon,
        "algorithm": config.spec.variant,
        "learning_rate": resolve_learning_rate(config.spec, config.horizon),
        "seeds": list(config.seeds),
        "adversary": config.adversary.kind,
        "final_mean_regret": float(mean[-1]),
        "final_se": float(se[-1]),
        "final_bound": float(bound[-1]),
        "under_bound": bool(mean[-1] <= bound[-1]),
        "step_violations": violations,
        "violation_rate": violations / (config.horizon * len(config.seeds)),
        "per_seed_final_regret": {str(s): float(c[-1]) for s, c in zip(config.seeds, curves)},
        "wall_time_per_round_seconds": wall_time_per_round,
        "warnings": config.warnings(),
    }
    csv_path, *seed_paths, summary_path = output_paths(config)
    Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    t = np.arange(1, config.horizon + 1)
    _write_whole([(csv_path, _write_csv, "t,mean_regret,se,bound", t, mean, se, bound),
                  *((path, _write_csv, "t,regret", t, curve)
                    for path, curve in zip(seed_paths, curves)),
                  (summary_path, Path.write_text, json.dumps(summary, indent=2) + "\n")])
    return summary


# ---------------------------------------------------------------------------
# Verify command
# ---------------------------------------------------------------------------

VERIFY_REPORT = "verify_report.json"  # the file cmd_verify writes in its out_dir


def cmd_verify(options: VerifyOptions, out_dir: str | Path | None = None,
               quiet: bool = False) -> tuple[bool, list[CheckResult]]:
    """Run the verification suite; optionally write a JSON report.

    Unless ``quiet``, prints each check group's rows followed by the group's
    wall seconds, which the report leaves out so that its bytes depend on
    the results alone.
    """
    groups = list(verify_groups(options))
    results = [r for _, rows, _ in groups for r in rows]
    if not results:
        raise ConfigError(f"$.checks: no check name starts with any of {list(options.checks)}")
    ok = all(r.passed for r in results)
    if not quiet:
        width = max(len(r.name) for r in results)
        for name, rows, seconds in groups:
            for r in rows:
                status = "pass" if r.passed else "FAIL"
                print(f"[{status}] {r.name:<{width}}  measured {r.measured:.6g} "
                      f"{r.comparison} {r.threshold:.6g}")
            print(f"[time] {name:<{width}}  {seconds:.3f} s")
        print(f"verify: {sum(r.passed for r in results)}/{len(results)} checks passed")
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        report = {"passed": ok, "checks": [r.as_dict() for r in results]}
        _write_whole([(path / VERIFY_REPORT, Path.write_text,
                       json.dumps(report, indent=2) + "\n")])
    return ok, results


# ---------------------------------------------------------------------------
# Bench command
# ---------------------------------------------------------------------------

def _bench_case(set_kind: str, d: int, rounds: int) -> tuple:
    """The perturbed-leader spec, losses and competitor that ``bench`` times at dimension d."""
    aset = ActionSetModel(dimension=d, kind=set_kind)
    spec = AlgorithmSpec(variant=SCFTPL, action_set=aset, learning_rate="auto")
    losses = generate(AdversarySpec(kind=FIXED_VECTOR, geometry=set_kind), d, rounds)
    return spec, losses, best_in_hindsight(aset, losses)


def cmd_bench(dims: tuple[int, ...], rounds: int, repeats: int, kinds: tuple[str, ...],
              seed: int = 7, quiet: bool = False,
              json_path: str | Path | None = None) -> list[dict]:
    """Per-round timing across dimensions; the scaling table for the O(d) claim.

    It times :func:`engine.run_seeds` on one seed, the call ``scbandits run`` makes.
    Each dimension gets one untimed warm-up run, so that lazily built state
    (the radial table, the K grid) is paid for outside the measurement. Each
    repeat then times every dimension in turn, so a change in host speed
    lands on d and 4d alike; a dimension's time is its median over repeats.
    With ``json_path`` the rows, ``ratio_4d`` included (null where 4d was
    not timed), are also written there as JSON with the rounds and repeats.
    """
    rows = []
    for kind in kinds:
        cases = {d: _bench_case(kind, d, rounds) for d in dims}
        for spec, losses, competitor in cases.values():
            run_seeds(spec, losses, [make_rng(seed)], competitor)
        timings = {d: [] for d in dims}
        for rep in range(repeats):
            for d, (spec, losses, competitor) in cases.items():
                rng = make_rng(seed + rep)
                start = time.perf_counter()
                run_seeds(spec, losses, [rng], competitor)
                timings[d].append((time.perf_counter() - start) / rounds)
        per_round = {d: float(np.median(t)) for d, t in timings.items()}
        for d in dims:
            ratio = None
            if d * 4 in per_round:
                ratio = per_round[d * 4] / per_round[d]
            rows.append({
                "set": kind,
                "dimension": d,
                "per_round_us": per_round[d] * 1e6,
                "rounds_per_sec": 1.0 / per_round[d],
                "ratio_4d": ratio,
            })
        if not quiet:
            for row in rows:
                if row["set"] != kind:
                    continue
                ratio = f"{row['ratio_4d']:.2f}" if row["ratio_4d"] else "-"
                print(f"{kind:>9} d={row['dimension']:<5} {row['per_round_us']:9.1f} us/round "
                      f"{row['rounds_per_sec']:10.0f} rounds/s  time(4d)/time(d)={ratio}")
    if json_path is not None:
        report = {"rounds": rounds, "repeats": repeats, "rows": rows}
        _write_whole([(Path(json_path), Path.write_text, json.dumps(report, indent=2) + "\n")])
    return rows


# ---------------------------------------------------------------------------
# Sample command
# ---------------------------------------------------------------------------

def cmd_sample(set_kind: str, dimension: int, count: int, seed: int,
               out_path: str | Path) -> Path:
    """Dump ``count`` perturbation draws to CSV for external analysis."""
    aset = ActionSetModel(dimension=dimension, kind=set_kind)
    draws = perturbations.draw(aset, make_rng(seed), size=count)
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_whole([(path, _write_csv, ",".join(f"xi_{i + 1}" for i in range(dimension)),
                   *draws.T)])
    return path
