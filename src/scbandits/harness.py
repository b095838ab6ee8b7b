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
    run,
    run_seeds,
    theoretical_bound,
)
from .environments import (
    FIXED_VECTOR,
    PIECEWISE_SWITCHING,
    ROTATING_DIRECTION,
    SEEDED_RANDOM,
    AdversarySpec,
    best_in_hindsight,
    generate,
)
from . import perturbations
from .rng import make_rng
from .verify import CheckResult, VerifyOptions, run_verify_suite


class ConfigError(ValueError):
    """Invalid experiment configuration; message carries the offending key."""


_ADVERSARY_KINDS = (FIXED_VECTOR, PIECEWISE_SWITCHING, ROTATING_DIRECTION, SEEDED_RANDOM)


@dataclass(frozen=True)
class ExperimentConfig:
    set_kind: str
    dimension: int
    horizon: int
    algorithm: str
    learning_rate: float | str
    adversary: AdversarySpec
    seeds: tuple[int, ...]
    out_dir: str
    label: str
    write_per_seed: bool

    def action_set(self) -> ActionSetModel:
        return ActionSetModel(dimension=self.dimension, kind=self.set_kind)

    def algorithm_spec(self) -> AlgorithmSpec:
        return AlgorithmSpec(variant=self.algorithm, action_set=self.action_set(),
                             learning_rate=self.learning_rate)

    def warnings(self) -> list[str]:
        """Auto learning-rate preconditions that are advisory, not fatal."""
        notes = []
        if self.learning_rate == "auto" and self.horizon >= 2:
            ratio = self.horizon / math.log(self.horizon)
            if self.set_kind == HYPERCUBE and ratio < 24 * self.dimension:
                notes.append(
                    f"n/ln n = {ratio:.1f} < 24 d = {24 * self.dimension}: the hypercube "
                    f"regret guarantee does not cover this horizon")
            if self.set_kind == BALL and ratio < max(2 * self.dimension**2, 96):
                notes.append(
                    f"n/ln n = {ratio:.1f} < max(2 d^2, 96) = "
                    f"{max(2 * self.dimension**2, 96)}: the ball regret guarantee "
                    f"does not cover this horizon")
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
    _expect(_is_int(n) and n >= (2 if rate == "auto" else 1), "$.horizon",
            f"must be a positive integer, at least 2 with the 'auto' learning rate, got {n!r}")

    algorithm = raw.get("algorithm", SCFTPL)
    _expect(algorithm in (SCFTPL, SCRIBBLE), "$.algorithm",
            f"must be '{SCFTPL}' or '{SCRIBBLE}', got {algorithm!r}")

    adv_raw = raw.get("adversary", {"kind": FIXED_VECTOR})
    _expect(isinstance(adv_raw, dict), "$.adversary", "must be an object")
    _expect_known_keys(adv_raw, {"kind", "base", "period", "angle", "seed"}, "$.adversary")
    adv_kind = adv_raw.get("kind", FIXED_VECTOR)
    _expect(adv_kind in _ADVERSARY_KINDS, "$.adversary.kind",
            f"must be one of {_ADVERSARY_KINDS}, got {adv_kind!r}")
    _expect(adv_kind != ROTATING_DIRECTION or d >= 2, "$.adversary.kind",
            f"'{ROTATING_DIRECTION}' needs a dimension of at least 2, got {d}")
    base_vec = adv_raw.get("base")
    if base_vec is not None:
        _expect(isinstance(base_vec, (list, tuple)) and len(base_vec) == d
                and all(_is_finite_number(v) for v in base_vec) and any(base_vec),
                "$.adversary.base", f"must be a length-{d} array of numbers, not all 0")
        base_vec = tuple(float(v) for v in base_vec)
    period = adv_raw.get("period")
    if period is not None:
        _expect(_is_int(period) and period >= 1, "$.adversary.period",
                f"must be a positive integer, got {period!r}")
    angle = adv_raw.get("angle")
    if angle is not None:
        _expect(_is_finite_number(angle), "$.adversary.angle",
                f"must be a finite number, got {angle!r}")
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

    return ExperimentConfig(
        set_kind=kind, dimension=d, horizon=n, algorithm=algorithm, learning_rate=rate,
        adversary=adversary, seeds=tuple(seeds), out_dir=out_dir, label=label,
        write_per_seed=write_per_seed)


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
    scale = raw.get("scale", scale)
    _expect(_is_finite_number(scale) and scale > 0, "$.scale",
            f"must be a positive finite number, got {scale!r}")
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

@dataclass
class RegretTrace:
    """Aggregated regret curves for one experiment."""

    mean_regret: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    violation_count: int
    per_seed_final: dict[int, float]
    wall_time_per_round: float
    warnings: list[str]

    @property
    def final_mean(self) -> float:
        return float(self.mean_regret[-1])

    @property
    def final_bound(self) -> float:
        return float(self.bound[-1])


def cmd_run(config: ExperimentConfig, quiet: bool = False) -> RegretTrace:
    """Execute the experiment and write CSV + JSON outputs."""
    # shared by every seed; built before the losses because on the ball it
    # imports scipy, and importing it after the loss arrays were allocated
    # raised a d=1024 run's peak RSS by about 1 MB
    k_cache = k_cache_for(config.algorithm_spec(), config.horizon)
    losses = generate(config.adversary, config.dimension, config.horizon)
    aset = config.action_set()
    competitor = best_in_hindsight(aset, losses)

    start = time.perf_counter()
    increments, violations = run_seeds(config.algorithm_spec(), losses,
                                       [make_rng(s) for s in config.seeds], competitor, k_cache)
    engine_time = time.perf_counter() - start
    # one C-ordered row per seed, the layout the seed-wise mean and SE reduce
    curves = np.ascontiguousarray(np.cumsum(increments, axis=0).T)
    mean = curves.mean(axis=0)
    if curves.shape[0] > 1:
        se = curves.std(axis=0, ddof=1) / math.sqrt(curves.shape[0])
    else:
        se = np.zeros_like(mean)
    bound = theoretical_bound(config.set_kind, config.dimension, config.horizon)
    violations = int(violations.sum())
    trace = RegretTrace(
        mean_regret=mean, se=se, bound=bound, violation_count=violations,
        per_seed_final={s: float(curve[-1]) for s, curve in zip(config.seeds, curves)},
        wall_time_per_round=engine_time / (config.horizon * len(config.seeds)),
        warnings=config.warnings(),
    )
    _write_outputs(config, trace, curves)
    if not quiet:
        print(f"{config.label}: final mean regret {trace.final_mean:.3f} "
              f"(bound {trace.final_bound:.3f}), {violations} step violations, "
              f"{trace.wall_time_per_round * 1e6:.1f} us/round")
        for note in trace.warnings:
            print(f"  warning: {note}")
    return trace


def _float_rows(*columns):
    """The rows of equal-length float arrays as tuples of Python floats,
    converted by ``tolist`` a bounded number of rows at a time."""
    for lo in range(0, len(columns[0]), 1024):
        yield from zip(*(column[lo:lo + 1024].tolist() for column in columns))


def _format_row(values) -> str:
    """Comma-separated ``repr`` of Python floats."""
    return ",".join(map(repr, values))


def _write_outputs(config: ExperimentConfig, trace: RegretTrace, curves: np.ndarray) -> None:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["t,mean_regret,se,bound"]
    rows = _float_rows(trace.mean_regret, trace.se, trace.bound)
    lines.extend(f"{t}," + _format_row(row) for t, row in enumerate(rows, 1))
    (out_dir / f"{config.label}.csv").write_text("\n".join(lines) + "\n")

    if config.write_per_seed:
        for seed, curve in zip(config.seeds, curves):
            lines = ["t,regret"]
            lines.extend(f"{t},{value!r}" for t, (value,) in enumerate(_float_rows(curve), 1))
            (out_dir / f"{config.label}_seed{seed}.csv").write_text("\n".join(lines) + "\n")

    summary = {
        "label": config.label,
        "regret_definition": (
            "mean over seeds of realized cumulative loss minus the loss of the "
            "empirical best fixed action (the support minimizer of the summed "
            "losses, exact for linear regret); SE is the seed-wise standard error"
        ),
        "set": config.set_kind,
        "dimension": config.dimension,
        "horizon": config.horizon,
        "algorithm": config.algorithm,
        "learning_rate": resolve_learning_rate(config.algorithm_spec(), config.horizon),
        "seeds": list(config.seeds),
        "adversary": config.adversary.kind,
        "final_mean_regret": trace.final_mean,
        "final_se": float(trace.se[-1]),
        "final_bound": trace.final_bound,
        "under_bound": bool(trace.final_mean <= trace.final_bound),
        "step_violations": trace.violation_count,
        "violation_rate": trace.violation_count / (config.horizon * len(config.seeds)),
        "per_seed_final_regret": {str(k): v for k, v in trace.per_seed_final.items()},
        "wall_time_per_round_seconds": trace.wall_time_per_round,
        "warnings": trace.warnings,
    }
    (out_dir / f"{config.label}_summary.json").write_text(json.dumps(summary, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Verify command
# ---------------------------------------------------------------------------

def cmd_verify(options: VerifyOptions, out_dir: str | Path | None = None,
               quiet: bool = False) -> tuple[bool, list[CheckResult]]:
    """Run the verification suite; optionally write a JSON report."""
    results = run_verify_suite(options)
    if not results:
        raise ConfigError(f"$.checks: no check name starts with any of {list(options.checks)}")
    ok = all(r.passed for r in results)
    if not quiet:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"[{status}] {r.name:<{width}}  measured {r.measured:.6g} "
                  f"{r.comparison} {r.threshold:.6g}")
        print(f"verify: {sum(r.passed for r in results)}/{len(results)} checks passed")
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        report = {"passed": ok, "checks": [r.as_dict() for r in results]}
        (path / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
    return ok, results


# ---------------------------------------------------------------------------
# Bench command
# ---------------------------------------------------------------------------

def _bench_case(set_kind: str, d: int, rounds: int) -> tuple:
    """The perturbed-leader spec, losses and K grid that ``bench`` times at dimension d."""
    spec = AlgorithmSpec(variant=SCFTPL, action_set=ActionSetModel(dimension=d, kind=set_kind),
                         learning_rate="auto")
    losses = generate(AdversarySpec(kind=FIXED_VECTOR, geometry=set_kind), d, rounds)
    return spec, losses, k_cache_for(spec, rounds)


def cmd_bench(dims: tuple[int, ...], rounds: int, repeats: int, kinds: tuple[str, ...],
              seed: int = 7, quiet: bool = False,
              json_path: str | Path | None = None) -> list[dict]:
    """Per-round timing across dimensions; the scaling table for the O(d) claim.

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
        for spec, losses, k_cache in cases.values():
            run(spec, losses, make_rng(seed), k_cache)
        timings = {d: [] for d in dims}
        for rep in range(repeats):
            for d, (spec, losses, k_cache) in cases.items():
                rng = make_rng(seed + rep)
                start = time.perf_counter()
                run(spec, losses, rng, k_cache)
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
        Path(json_path).write_text(json.dumps(report, indent=2) + "\n")
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
    header = ",".join(f"xi_{i + 1}" for i in range(dimension))
    lines = [header]
    lines.extend(_format_row(row) for row in _float_rows(*np.atleast_2d(draws).T))
    path.write_text("\n".join(lines) + "\n")
    return path
