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

Seeds fan out to a process pool when ``workers > 1``; aggregation sorts by
seed index so the output is identical however the work was scheduled.
"""

from __future__ import annotations

import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .action_sets import ActionSetModel, BALL, HYPERCUBE
from .engine import (
    SCFTPL,
    SCRIBBLE,
    AlgorithmSpec,
    cumulative_regret,
    resolve_learning_rate,
    run,
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
from .estimation import KFunctionCache
from .perturbations import (
    RADIAL_TABLE_NODES,
    RADIAL_TABLE_S_MAX,
    PerturbationSampler,
    radial_cdf_ball,
    require_tail_budget,
)
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
    algorithm: str = SCFTPL
    learning_rate: float | str = "auto"
    adversary: AdversarySpec | None = None
    seeds: tuple[int, ...] = (1,)
    out_dir: str = "results"
    label: str = "experiment"
    workers: int = 1
    write_per_seed: bool = False
    radial_table_s_max: float = RADIAL_TABLE_S_MAX
    radial_table_nodes: int = RADIAL_TABLE_NODES

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


def config_from_dict(raw: dict, base: str = "$") -> ExperimentConfig:
    """Validate a JSON-shaped dict into an ExperimentConfig.

    Error messages carry the JSON path of the offending entry. Every field,
    the output file name included, is checked here, before any compute.
    """
    _expect(isinstance(raw, dict), base, "config must be a JSON object")
    _expect_known_keys(raw, {"set", "dimension", "horizon", "algorithm", "learning_rate",
                             "adversary", "seeds", "out_dir", "label", "workers",
                             "write_per_seed", "radial_table"}, base)

    kind = raw.get("set")
    _expect(kind in (HYPERCUBE, BALL), f"{base}.set",
            f"must be '{HYPERCUBE}' or '{BALL}', got {kind!r}")
    d = raw.get("dimension")
    # an array axis is at most sys.maxsize long; larger ints also overflow a float
    _expect(_is_int(d) and 1 <= d <= sys.maxsize, f"{base}.dimension",
            f"must be an integer in [1, {sys.maxsize}], got {d!r}")
    rate = raw.get("learning_rate", "auto")
    if isinstance(rate, str):
        _expect(rate == "auto", f"{base}.learning_rate", f"must be positive or 'auto', got {rate!r}")
    else:
        _expect(_is_finite_number(rate) and rate > 0, f"{base}.learning_rate",
                f"must be positive or 'auto', got {rate!r}")
        rate = float(rate)
    n = raw.get("horizon")
    _expect(_is_int(n) and n >= (2 if rate == "auto" else 1), f"{base}.horizon",
            f"must be a positive integer, at least 2 with the 'auto' learning rate, got {n!r}")

    algorithm = raw.get("algorithm", SCFTPL)
    _expect(algorithm in (SCFTPL, SCRIBBLE), f"{base}.algorithm",
            f"must be '{SCFTPL}' or '{SCRIBBLE}', got {algorithm!r}")

    adv_raw = raw.get("adversary", {"kind": FIXED_VECTOR})
    _expect(isinstance(adv_raw, dict), f"{base}.adversary", "must be an object")
    _expect_known_keys(adv_raw, {"kind", "base", "period", "angle", "seed"}, f"{base}.adversary")
    adv_kind = adv_raw.get("kind", FIXED_VECTOR)
    _expect(adv_kind in _ADVERSARY_KINDS, f"{base}.adversary.kind",
            f"must be one of {_ADVERSARY_KINDS}, got {adv_kind!r}")
    _expect(adv_kind != ROTATING_DIRECTION or d >= 2, f"{base}.adversary.kind",
            f"'{ROTATING_DIRECTION}' needs a dimension of at least 2, got {d}")
    base_vec = adv_raw.get("base")
    if base_vec is not None:
        _expect(isinstance(base_vec, (list, tuple)) and len(base_vec) == d
                and all(_is_finite_number(v) for v in base_vec) and any(base_vec),
                f"{base}.adversary.base", f"must be a length-{d} array of numbers, not all 0")
        base_vec = tuple(float(v) for v in base_vec)
    period = adv_raw.get("period")
    if period is not None:
        _expect(_is_int(period) and period >= 1, f"{base}.adversary.period",
                f"must be a positive integer, got {period!r}")
    angle = adv_raw.get("angle")
    if angle is not None:
        _expect(_is_finite_number(angle), f"{base}.adversary.angle",
                f"must be a finite number, got {angle!r}")
        angle = float(angle)
    adv_seed = adv_raw.get("seed")
    if adv_seed is not None:
        _expect(_is_int(adv_seed) and 0 <= adv_seed < 2**64, f"{base}.adversary.seed",
                f"must be a 64-bit unsigned integer, got {adv_seed!r}")
    adversary = AdversarySpec(kind=adv_kind, geometry=kind, base=base_vec,
                              period=period, angle=angle, seed=adv_seed)

    seeds = raw.get("seeds", [1])
    _expect(isinstance(seeds, (list, tuple)) and len(seeds) >= 1, f"{base}.seeds",
            "must be a nonempty array of integers")
    for i, s in enumerate(seeds):
        _expect(_is_int(s) and 0 <= s < 2**64,
                f"{base}.seeds[{i}]", f"must be a 64-bit unsigned integer, got {s!r}")
    _expect(len(set(seeds)) == len(seeds), f"{base}.seeds", "seeds must be distinct")

    out_dir = raw.get("out_dir", "results")
    _expect(isinstance(out_dir, str), f"{base}.out_dir", f"must be a string, got {out_dir!r}")
    # the label names the output files inside out_dir, so it must be a plain
    # file name: a bad one would otherwise fail only when the outputs are written
    label = raw.get("label", "experiment")
    _expect(isinstance(label, str) and label not in ("", ".", "..")
            and not any(c in label for c in "/\\\0"), f"{base}.label",
            f"must be a file name without '/', '\\' or NUL, not '.' or '..', got {label!r}")

    workers = raw.get("workers", 1)
    _expect(_is_int(workers) and workers >= 1, f"{base}.workers",
            f"must be a positive integer, got {workers!r}")
    write_per_seed = raw.get("write_per_seed", False)
    _expect(isinstance(write_per_seed, bool), f"{base}.write_per_seed",
            f"must be true or false, got {write_per_seed!r}")

    table = raw.get("radial_table", {})
    _expect(isinstance(table, dict), f"{base}.radial_table", "must be an object")
    _expect_known_keys(table, {"s_max", "nodes"}, f"{base}.radial_table")
    s_max = table.get("s_max", RADIAL_TABLE_S_MAX)
    _expect(_is_finite_number(s_max) and s_max > 1.0, f"{base}.radial_table.s_max",
            f"must be a number greater than 1, got {s_max!r}")
    if kind == BALL:
        try:
            require_tail_budget(radial_cdf_ball(float(s_max), d))
        except ValueError as exc:
            raise ConfigError(f"{base}.radial_table.s_max: {exc}") from exc
    nodes = table.get("nodes", RADIAL_TABLE_NODES)
    _expect(_is_int(nodes) and nodes >= 16, f"{base}.radial_table.nodes",
            f"must be an integer >= 16, got {nodes!r}")

    return ExperimentConfig(
        set_kind=kind, dimension=d, horizon=n, algorithm=algorithm, learning_rate=rate,
        adversary=adversary, seeds=tuple(seeds), out_dir=out_dir, label=label,
        workers=workers, write_per_seed=write_per_seed,
        radial_table_s_max=float(s_max), radial_table_nodes=nodes,
    )


def verify_options_from_dict(raw: dict, scale: float = 1.0, base: str = "$") -> VerifyOptions:
    """Validate the JSON options of ``verify --config`` into VerifyOptions.

    ``scale`` is the default for a file that sets none. Error messages carry
    the JSON path of the offending entry.
    """
    _expect(isinstance(raw, dict), base, "verify options must be a JSON object")
    _expect_known_keys(raw, {"seed", "scale", "xi_scale", "include_regret", "checks"}, base)
    seed = raw.get("seed", VerifyOptions.seed)
    _expect(_is_int(seed) and 0 <= seed < 2**64, f"{base}.seed",
            f"must be a 64-bit unsigned integer, got {seed!r}")
    scale = raw.get("scale", scale)
    _expect(_is_finite_number(scale) and scale > 0, f"{base}.scale",
            f"must be a positive finite number, got {scale!r}")
    xi_scale = raw.get("xi_scale", 1.0)
    _expect(_is_finite_number(xi_scale) and xi_scale > 0, f"{base}.xi_scale",
            f"must be a positive finite number, got {xi_scale!r}")
    include_regret = raw.get("include_regret", True)
    _expect(isinstance(include_regret, bool), f"{base}.include_regret",
            f"must be true or false, got {include_regret!r}")
    checks = raw.get("checks")
    if checks is not None:
        _expect(isinstance(checks, list) and len(checks) >= 1
                and all(isinstance(c, str) for c in checks), f"{base}.checks",
                f"must be a nonempty array of check-name prefixes, got {checks!r}")
        checks = tuple(checks)
    return VerifyOptions(seed=seed, scale=float(scale), xi_scale=float(xi_scale),
                         include_regret=include_regret, checks=checks)


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


def load_verify_options(path: str | Path, scale: float = 1.0) -> VerifyOptions:
    return verify_options_from_dict(_read_json(path), scale=scale)


# ---------------------------------------------------------------------------
# Regret curves
# ---------------------------------------------------------------------------

def theoretical_bound(set_kind: str, d: int, horizon: int) -> np.ndarray:
    """Worst-case regret bound evaluated per round t = 1..n.

    Hypercube: d sqrt(2 t ln n) + 2. Ball: d sqrt(6 t ln n) + 2
    + (64 e / d^2) ln^3 n.
    """
    t = np.arange(1, horizon + 1, dtype=float)
    log_n = math.log(horizon) if horizon >= 2 else 0.0
    if set_kind == HYPERCUBE:
        return d * np.sqrt(2.0 * t * log_n) + 2.0
    return d * np.sqrt(6.0 * t * log_n) + 2.0 + (64.0 * math.e / d**2) * log_n**3


@dataclass
class RegretTrace:
    """Aggregated regret curves for one experiment."""

    mean_regret: np.ndarray
    se: np.ndarray
    bound: np.ndarray
    violation_count: int
    per_seed_final: dict[int, float]
    wall_time_per_round: float
    warnings: list[str] = field(default_factory=list)

    @property
    def final_mean(self) -> float:
        return float(self.mean_regret[-1])

    @property
    def final_bound(self) -> float:
        return float(self.bound[-1])


def _shared_caches(config: ExperimentConfig) -> dict:
    """Sampler and K cache reused by every seed of an experiment.

    The K grid is prebuilt past the drift norm an aligned adversary can
    reach (eta * n), so workers rarely extend it.
    """
    kwargs: dict = {}
    aset = config.action_set()
    if config.algorithm != SCFTPL:
        return kwargs
    kwargs["sampler"] = PerturbationSampler.for_set(
        aset, s_max=config.radial_table_s_max, nodes=config.radial_table_nodes)
    if aset.kind == BALL and aset.dimension >= 2:
        eta = resolve_learning_rate(config.algorithm_spec(), config.horizon)
        reach = max(8.0, 1.25 * eta * config.horizon)
        kwargs["k_cache"] = KFunctionCache(aset.dimension, x_max=reach)
    return kwargs


def _run_one_seed(config: ExperimentConfig, losses: np.ndarray, competitor: np.ndarray,
                  seed: int, shared: dict | None = None) -> tuple[int, np.ndarray, int, float]:
    """Worker body: one seeded run; returns (seed, regret curve, violations, secs)."""
    spec = config.algorithm_spec()
    kwargs = shared if shared is not None else _shared_caches(config)
    start = time.perf_counter()
    trace = run(spec, losses, make_rng(seed), **kwargs)
    elapsed = time.perf_counter() - start
    curve = cumulative_regret(trace, losses, competitor)
    violations = int(trace.step_violation.sum())
    return seed, curve, violations, elapsed


def cmd_run(config: ExperimentConfig, quiet: bool = False) -> RegretTrace:
    """Execute the experiment and write CSV + JSON outputs."""
    losses = generate(config.adversary or AdversarySpec(kind=FIXED_VECTOR, geometry=config.set_kind),
                      config.dimension, config.horizon)
    aset = config.action_set()
    competitor = best_in_hindsight(aset, losses)
    shared = _shared_caches(config)

    results = []
    if config.workers > 1 and len(config.seeds) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = [pool.submit(_run_one_seed, config, losses, competitor, s, shared)
                       for s in config.seeds]
            results = [f.result() for f in futures]
    else:
        results = [_run_one_seed(config, losses, competitor, s, shared) for s in config.seeds]
    results.sort(key=lambda item: config.seeds.index(item[0]))

    curves = np.stack([curve for _, curve, _, _ in results])
    mean = curves.mean(axis=0)
    if curves.shape[0] > 1:
        se = curves.std(axis=0, ddof=1) / math.sqrt(curves.shape[0])
    else:
        se = np.zeros_like(mean)
    bound = theoretical_bound(config.set_kind, config.dimension, config.horizon)
    violations = sum(v for _, _, v, _ in results)
    total_time = sum(t for _, _, _, t in results)
    trace = RegretTrace(
        mean_regret=mean, se=se, bound=bound, violation_count=violations,
        per_seed_final={s: float(curve[-1]) for s, curve, _, _ in results},
        wall_time_per_round=total_time / (config.horizon * len(config.seeds)),
        warnings=config.warnings(),
    )
    _write_outputs(config, trace, results)
    if not quiet:
        print(f"{config.label}: final mean regret {trace.final_mean:.3f} "
              f"(bound {trace.final_bound:.3f}), {violations} step violations, "
              f"{trace.wall_time_per_round * 1e6:.1f} us/round")
        for note in trace.warnings:
            print(f"  warning: {note}")
    return trace


def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_outputs(config: ExperimentConfig, trace: RegretTrace, results) -> None:
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["t,mean_regret,se,bound"]
    for i in range(config.horizon):
        lines.append(f"{i + 1}," + _format_row((trace.mean_regret[i], trace.se[i], trace.bound[i])))
    (out_dir / f"{config.label}.csv").write_text("\n".join(lines) + "\n")

    if config.write_per_seed:
        for seed, curve, _, _ in results:
            rows = ["t,regret"]
            rows.extend(f"{i + 1},{float(curve[i])!r}" for i in range(config.horizon))
            (out_dir / f"{config.label}_seed{seed}.csv").write_text("\n".join(rows) + "\n")

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
        "adversary": config.adversary.kind if config.adversary else FIXED_VECTOR,
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

def cmd_verify(options: VerifyOptions | None = None, out_dir: str | Path | None = None,
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

def _bench_one(set_kind: str, d: int, rounds: int, repeats: int, seed: int) -> float:
    """Median per-round seconds for the perturbed-leader loop at dimension d.

    One untimed warmup run precedes the timed repeats so that lazily
    extended caches (the K grid) are paid for outside the measurement.
    """
    aset = ActionSetModel(dimension=d, kind=set_kind)
    spec = AlgorithmSpec(variant=SCFTPL, action_set=aset, learning_rate="auto")
    adv = AdversarySpec(kind=FIXED_VECTOR, geometry=set_kind)
    losses = generate(adv, d, rounds)
    sampler = PerturbationSampler.for_set(aset)
    k_cache = KFunctionCache(d) if set_kind == BALL and d >= 2 else None
    run(spec, losses, make_rng(seed), sampler=sampler, k_cache=k_cache)
    timings = []
    for rep in range(repeats):
        rng = make_rng(seed + rep)
        start = time.perf_counter()
        run(spec, losses, rng, sampler=sampler, k_cache=k_cache)
        timings.append((time.perf_counter() - start) / rounds)
    return float(np.median(timings))


def cmd_bench(dims: tuple[int, ...] = (16, 64, 256, 1024, 4096), rounds: int = 256,
              repeats: int = 3, seed: int = 7, kinds: tuple[str, ...] = (HYPERCUBE, BALL),
              quiet: bool = False) -> list[dict]:
    """Per-round timing across dimensions; the scaling table for the O(d) claim."""
    rows = []
    for kind in kinds:
        per_round = {}
        for d in dims:
            per_round[d] = _bench_one(kind, d, rounds, repeats, seed)
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
    return rows


# ---------------------------------------------------------------------------
# Sample command
# ---------------------------------------------------------------------------

def cmd_sample(set_kind: str, dimension: int, count: int, seed: int,
               out_path: str | Path) -> Path:
    """Dump ``count`` perturbation draws to CSV for external analysis."""
    aset = ActionSetModel(dimension=dimension, kind=set_kind)
    sampler = PerturbationSampler.for_set(aset)
    draws = sampler.draw(make_rng(seed), size=count)
    path = Path(out_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"xi_{i + 1}" for i in range(dimension))
    lines = [header]
    lines.extend(_format_row(row) for row in np.atleast_2d(draws))
    path.write_text("\n".join(lines) + "\n")
    return path
