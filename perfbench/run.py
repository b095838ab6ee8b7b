"""scbandits benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each operation (one experiment config, or
one verify suite) runs in a fresh ``perfbench/probe.py`` process that calls
the real CLI entry point; processes run one at a time with BLAS and OpenMP
pinned to one thread, and every output is checked (``check_regret``,
``check_verify``).

``--trace 0`` runs the operations round-robin for ``--seconds`` and prints
the end-to-end metrics: per operation the median over its processes, summed
over operations. ``--trace 1`` alternates untraced and traced passes (one
process per operation each) and prints the per-layer metrics, derived from
the spans the probe records, plus the tracing overhead. The last stdout line
is the JSON result; the line before it records provenance. Every process,
and the spans of a traced run, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = BENCH_DIR / "digests.json"
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "seed_rounds_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}

VERIFY_GROUPS = (
    "check_hypercube_normalization", "check_hypercube_inverse_cdf", "check_heavy_tail",
    "check_ball_density", "check_radial_sampling", "check_replication", "check_k_function",
    "check_qinv_dense", "check_unbiasedness", "check_variance_bounds", "check_geometry",
    "check_conjugate_value", "check_engine",
)

PER_LAYER = {
    "cli.import_s": "s",
    "environments.generate_s": "s",
    "perturbations.sampler_setup_s": "s",
    "perturbations.draw_calls": "count",
    "perturbations.draw_us": "us/round",
    "perturbations.bulk_draw_ns": "ns/sample",
    "action_sets.conjugate_gradient_us": "us/call",
    "action_sets.barrier_hessian_us": "us/call",
    "action_sets.dikin_pole_us": "us/call",
    "action_sets.grad_support_ns": "ns/row",
    "estimation.kgrid_build_s": "s",
    "estimation.k_quad_evals": "count",
    "estimation.k_extensions_in_run": "count",
    "estimation.k_lookup_us": "us/call",
    "estimation.scribble_estimate_us": "us/call",
    "estimation.local_norm_us": "us/call",
    "engine.rounds": "count",
    "engine.run_s": "s",
    "engine.self_us_per_round": "us/round",
    "engine.regret_us_per_round": "us/round",
    "engine.step_violations": "count",
    "engine.aborted_runs": "count",
    "engine.trace_bytes_per_round": "computed_B/round",
    "harness.self_s": "s",
    "harness.output_bytes": "B",
    **{f"verify.{group}_s": "s" for group in VERIFY_GROUPS},
    "verify.checks_failed": "count",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    """One finished child process, as seen from run.py."""

    label: str
    returncode: int
    wall_s: float
    setup_s: float | None
    cpu_s: float
    maxrss_mb: float
    probe: dict | None
    log_tail: str   # the end of the process's stdout and stderr


# Interpreter settings that change how fast the child runs. Without them the
# program's bytecode is cached in the checkout, as for an installed package.
_DROPPED_ENV = ("PYTHONDONTWRITEBYTECODE", "PYTHONDEVMODE", "PYTHONMALLOC",
                "PYTHONPROFILEIMPORTTIME", "PYTHONTRACEMALLOC")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(label: str, cli_args: list[str], work: Path, trace: bool, verify: bool) -> Proc:
    probe_path = work / f"{label}.probe.json"
    log_path = work / f"{label}.log"
    cmd = [sys.executable, str(BENCH_DIR / "probe.py"), str(probe_path),
           "1" if trace else "0", *cli_args]
    probe_path.unlink(missing_ok=True)
    with open(log_path, "wb") as log:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    try:
        probe = json.loads(probe_path.read_text())
    except (OSError, ValueError):   # the process died before writing it
        probe = None
    mark = None if probe is None else probe["first_check_ns" if verify else "first_engine_ns"]
    return Proc(label=label, returncode=proc.returncode, wall_s=(end - spawn) / 1e9,
                setup_s=None if mark is None else (mark - spawn) / 1e9,
                cpu_s=usage.ru_utime + usage.ru_stime, maxrss_mb=usage.ru_maxrss / 1024.0,
                probe=probe, log_tail=log_path.read_text(errors="replace")[-2000:])


# ---------------------------------------------------------------------------
# Operations and their correctness checks
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_digest(text: str) -> str:
    """Digest of a summary JSON without its timing field."""
    summary = json.loads(text)
    summary.pop("wall_time_per_round_seconds", None)
    return sha256(json.dumps(summary, sort_keys=True).encode())


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


@dataclass
class Operation:
    label: str
    cli_args: list[str]
    config: dict | None = None   # the experiment config of a regret run


@dataclass
class Outcome:
    """One operation's process and the verdict on its outputs."""

    proc: Proc
    attempted: int
    failed: int
    rounds: int          # seed-rounds the process played
    output_bytes: int
    problems: list[str] = field(default_factory=list)


def operations(workload: str, seed: int, work: Path) -> list[Operation]:
    """The CLI invocations of the workload, with their config files written to ``work``."""
    out_dir = work / "out"
    if workload in workloads.VERIFY_WORKLOADS:
        return [Operation("verify", ["verify", "--out", str(out_dir),
                                     "--scale", repr(workloads.VERIFY_SCALE), "--quiet"])]
    ops = []
    for config in workloads.regret_configs(workload, seed):
        path = work / f"{config['label']}.json"
        path.write_text(json.dumps({**config, "out_dir": str(out_dir)}))
        ops.append(Operation(config["label"], ["run", "--config", str(path), "--quiet"], config))
    return ops


def outputs(op: Operation, out_dir: Path) -> list[Path]:
    if op.config is None:
        return [out_dir / "verify_report.json"]
    return [out_dir / f"{op.label}.csv", out_dir / f"{op.label}_summary.json"]


def check_regret(op: Operation, proc: Proc, out_dir: Path, workload: str, seed: int,
                 digests: dict | None) -> list[str]:
    """Problems with one regret run's outputs (empty when correct).

    Invariants hold for every seed; at the default seed the CSV and the
    summary (minus its timing field) must also match the recorded digests
    (skipped when ``digests`` is None, i.e. while recording them).
    """
    label, config = op.label, op.config
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}"]
    csv_path, summary_path = outputs(op, out_dir)
    if not csv_path.exists() or not summary_path.exists():
        return [f"{label}: missing output"]
    if proc.setup_s is None:
        return [f"{label}: the engine was never called"]
    csv_bytes = csv_path.read_bytes()
    summary_text = summary_path.read_text()
    problems = []
    try:
        summary = json.loads(summary_text)
        rows = csv_bytes.decode().splitlines()
        if len(rows) != config["horizon"] + 1:
            problems.append(f"{label}: {len(rows) - 1} CSV rows, expected {config['horizon']}")
        if float(rows[-1].split(",")[1]) != summary["final_mean_regret"]:
            problems.append(f"{label}: last CSV row differs from final_mean_regret")
        # The bound column is the scftpl theorem's; scribble is not held to it
        # (acceptance criterion 8 compares the two algorithms only softly).
        if config["algorithm"] == "scftpl" and summary["under_bound"] is not True:
            problems.append(f"{label}: final mean regret above the bound")
        # Outside the horizon the guarantee covers (the summary then carries
        # a warning), the step condition is not promised.
        if summary["step_violations"] and not summary["warnings"]:
            problems.append(f"{label}: {summary['step_violations']} step violations")
    except (ValueError, KeyError, IndexError) as exc:
        problems.append(f"{label}: unreadable output ({exc!r})")
    if digests is not None and seed == workloads.DEFAULT_SEED:
        expected = digests.get(workload, {}).get(label, {})
        if sha256(csv_bytes) != expected.get("csv"):
            problems.append(f"{label}: CSV digest differs from the recorded one")
        if summary_digest(summary_text) != expected.get("summary"):
            problems.append(f"{label}: summary digest differs from the recorded one")
    return problems


def check_verify(proc: Proc, report_path: Path, digests: dict | None) -> Outcome:
    """Every check is one operation; a bad exit or digest fails all of them."""
    rounds = proc.probe["rounds"] if proc.probe else 0
    if not report_path.exists() or proc.setup_s is None:
        return Outcome(proc, 1, 1, rounds, 0, [f"verify: exit code {proc.returncode}, no report"])
    data = report_path.read_bytes()
    try:
        rows = json.loads(data)["checks"]
        failing = [r["name"] for r in rows if r["passed"] is not True]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(proc, 1, 1, rounds, len(data), [f"verify: unreadable report ({exc!r})"])
    problems = [f"verify: {name} failed" for name in failing]
    attempted = max(len(rows), 1)
    failed = len(failing)
    expected = digests.get("verify_full", {}).get("verify_report.json") if digests else None
    if digests is not None and sha256(data) != expected:
        problems.append("verify: report digest differs from the recorded one")
        failed = attempted
    if not failing and proc.returncode != 0:
        problems.append(f"verify: exit code {proc.returncode}")
        failed = attempted
    return Outcome(proc, attempted, failed, rounds, len(data), problems)


def run_op(op: Operation, work: Path, workload: str, seed: int, trace: bool,
           digests: dict | None) -> Outcome:
    """Run one operation in a fresh process and check what it wrote."""
    out_dir = work / "out"
    for path in outputs(op, out_dir):
        path.unlink(missing_ok=True)
    proc = run_child(op.label, op.cli_args, work, trace, verify=op.config is None)
    if op.config is None:
        return check_verify(proc, outputs(op, out_dir)[0], digests)
    problems = check_regret(op, proc, out_dir, workload, seed, digests)
    written = sum(p.stat().st_size for p in outputs(op, out_dir) if p.exists())
    return Outcome(proc, 1, int(bool(problems)), workloads.seed_rounds(op.config), written,
                   problems)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(outcomes: list[Outcome]) -> dict:
    """The end-to-end metrics: per config the median over its processes,
    summed over configs."""
    by_label: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_label.setdefault(o.proc.label, []).append(o)

    def summed_median(value) -> float:
        return sum(statistics.median(value(o) for o in group) for group in by_label.values())

    wall = summed_median(lambda o: o.proc.wall_s)
    setup = summed_median(lambda o: o.proc.wall_s if o.proc.setup_s is None else o.proc.setup_s)
    rounds = summed_median(lambda o: o.rounds)
    attempted = sum(o.attempted for o in outcomes)
    return {
        "seed_rounds_per_s": rounds / (wall - setup) if wall > setup else 0.0,
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": max(o.proc.maxrss_mb for o in outcomes),
        "ok_frac": (attempted - sum(o.failed for o in outcomes)) / attempted,
    }


def _self_ns(spans: list[dict], aggregates: list[dict]) -> dict[int, int]:
    """Each span's duration minus its child spans and counted calls."""
    out = {s["id"]: s["end"] - s["start"] for s in spans if s["end"] is not None}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    for a in aggregates:
        out[a["parent"]] -= a["ns"]
    return out


def per_layer(outcomes: list[Outcome]) -> dict:
    """Per-layer numbers from one traced pass, summed over its processes."""
    span_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, list[float]] = {}   # name -> [count, ns, items]
    engine = {"rounds": 0, "step_violations": 0, "aborted": 0, "trace_bytes": 0}
    import_s, k_quad, k_ext = 0.0, 0, 0
    for proc in (o.proc for o in outcomes):
        probe = proc.probe
        if probe is None:
            continue
        import_s += probe["import_ns"] / 1e9
        if probe["k_misses_end"] is not None:
            k_quad += probe["k_misses_end"]
            if probe["k_misses_at_engine"] is not None:
                k_ext += probe["k_misses_end"] - probe["k_misses_at_engine"]
        selfs = _self_ns(probe["spans"], probe["aggregates"])
        for s in probe["spans"]:
            if s["end"] is None:
                continue
            span_s[s["name"]] = span_s.get(s["name"], 0.0) + (s["end"] - s["start"]) / 1e9
            self_s[s["name"]] = self_s.get(s["name"], 0.0) + selfs[s["id"]] / 1e9
            if s["name"] == "engine.run":
                engine["rounds"] += s.get("rounds", 0)
                engine["step_violations"] += s.get("step_violations", 0)
                engine["aborted"] += int(s.get("aborted", False))
                engine["trace_bytes"] += s.get("trace_bytes_per_round", 0) * s.get("rounds", 0)
        for a in probe["aggregates"]:
            entry = calls.setdefault(a["name"], [0, 0, 0])
            entry[0] += a["count"]
            entry[1] += a["ns"]
            entry[2] += a["items"]

    def per_call_us(name: str) -> float:
        count, ns, _ = calls.get(name, (0, 0, 0))
        return ns / count / 1e3 if count else 0.0

    def per_item_ns(name: str) -> float:
        _, ns, items = calls.get(name, (0, 0, 0))
        return ns / items if items else 0.0

    rounds = engine["rounds"]
    draws = [calls.get(n, (0, 0, 0)) for n in ("perturbations.gaussians",
                                                "perturbations.inverse_scalar")]
    metrics = {
        "cli.import_s": import_s,
        "environments.generate_s": (span_s.get("environments.generate", 0.0)
                                    + span_s.get("environments.best_in_hindsight", 0.0)),
        "perturbations.sampler_setup_s": span_s.get("perturbations.sampler_setup", 0.0),
        "perturbations.draw_calls": sum(c for c, _, _ in draws),
        "perturbations.draw_us": sum(ns for _, ns, _ in draws) / rounds / 1e3 if rounds else 0.0,
        "perturbations.bulk_draw_ns": per_item_ns("perturbations.bulk_draw"),
        "action_sets.conjugate_gradient_us": per_call_us("action_sets.conjugate_gradient"),
        "action_sets.barrier_hessian_us": per_call_us("action_sets.barrier_hessian"),
        "action_sets.dikin_pole_us": per_call_us("action_sets.dikin_pole"),
        "action_sets.grad_support_ns": per_item_ns("action_sets.grad_support"),
        "estimation.kgrid_build_s": span_s.get("estimation.kgrid_build", 0.0),
        "estimation.k_quad_evals": k_quad,
        "estimation.k_extensions_in_run": k_ext,
        "estimation.k_lookup_us": per_call_us("estimation.k_lookup"),
        "estimation.scribble_estimate_us": per_call_us("estimation.scribble_estimate"),
        "estimation.local_norm_us": per_call_us("estimation.local_norm_sq"),
        "engine.rounds": rounds,
        "engine.run_s": span_s.get("engine.run", 0.0),
        "engine.self_us_per_round": self_s.get("engine.run", 0.0) / rounds * 1e6 if rounds else 0.0,
        "engine.regret_us_per_round": (span_s.get("engine.cumulative_regret", 0.0) / rounds * 1e6
                                       if rounds else 0.0),
        "engine.step_violations": engine["step_violations"],
        "engine.aborted_runs": engine["aborted"],
        "engine.trace_bytes_per_round": engine["trace_bytes"] / rounds if rounds else 0.0,
        "harness.self_s": self_s.get("harness.cmd_run", 0.0),
        "harness.output_bytes": sum(o.output_bytes for o in outcomes),
        **{f"verify.{g}_s": span_s.get(f"verify.{g}", 0.0) for g in VERIFY_GROUPS},
        "verify.checks_failed": sum(o.failed for o in outcomes if o.proc.label == "verify"),
    }
    return metrics


# ---------------------------------------------------------------------------
# Provenance and the run loop
# ---------------------------------------------------------------------------

def provenance(workload: str, seed: int, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "workload_seed": seed,
        "trace": trace,
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
    }


def warm_up() -> None:
    """Compile the program's bytecode and fill the page cache before timing;
    users pay neither on every run."""
    subprocess.run([sys.executable, "-c", "import scbandits.cli"], cwd=ROOT, env=child_env(),
                   capture_output=True, timeout=CHILD_TIMEOUT_S)


def cycle(ops: list[Operation], seconds: float, work: Path, workload: str, seed: int,
          digests: dict) -> list[Outcome]:
    """Untraced: run the operations round-robin, one process at a time, while
    the next one is predicted (by its previous wall time) to end within
    ``seconds``. Every operation runs at least once."""
    outcomes: list[Outcome] = []
    last_wall: dict[str, float] = {}
    start = time.monotonic()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if op.label in last_wall and time.monotonic() - start + last_wall[op.label] > seconds:
            return outcomes
        outcomes.append(run_op(op, work, workload, seed, False, digests))
        last_wall[op.label] = outcomes[-1].proc.wall_s


def traced_pairs(ops: list[Operation], seconds: float, work: Path, workload: str, seed: int,
                 digests: dict) -> list[tuple[bool, list[Outcome]]]:
    """Traced: pairs of an untraced and a traced pass, swapping which goes
    first, while another pair is predicted to end within ``seconds``."""
    passes: list[tuple[bool, list[Outcome]]] = []
    start = time.monotonic()
    while True:
        traced_first = (len(passes) // 2) % 2 == 1
        for traced in (traced_first, not traced_first):
            passes.append((traced, [run_op(op, work, workload, seed, traced, digests)
                                    for op in ops]))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / (len(passes) // 2) > seconds:
            return passes


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, details)."""
    WORK.mkdir(exist_ok=True)
    digests = load_digests()
    warm_up()
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        ops = operations(workload, seed, work)
        if trace:
            passes = traced_pairs(ops, seconds, work, workload, seed, digests)
        else:
            passes = [(False, cycle(ops, seconds, work, workload, seed, digests))]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for _, outs in passes for o in outs]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    if trace:
        walls = {flag: [end_to_end(outs)["wall_s"] for traced, outs in passes if traced == flag]
                 for flag in (False, True)}
        layers = [per_layer(outs) for traced, outs in passes if traced]
        values = {name: statistics.median(row[name] for row in layers) for name in layers[0]}
        values["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        units = PER_LAYER
    else:
        values, units = end_to_end(outcomes), END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    details = {
        "processes": [{"label": o.proc.label, "traced": traced, "returncode": o.proc.returncode,
                       "wall_s": o.proc.wall_s, "setup_s": o.proc.setup_s,
                       "cpu_s": o.proc.cpu_s, "maxrss_mb": o.proc.maxrss_mb,
                       "problems": o.problems, "log_tail": o.proc.log_tail if o.problems else "",
                       **({"spans": o.proc.probe["spans"],
                           "aggregates": o.proc.probe["aggregates"]}
                          if traced and o.proc.probe else {})}
                      for traced, outs in passes for o in outs],
    }
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated from outside: unwind, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "scbandits" / "cli.py").is_file():
        print(f"error: no scbandits sources under {SRC}", file=sys.stderr)
        return 2
    info = provenance(args.workload, args.seed, bool(args.trace))
    result, details = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    for proc in details["processes"]:
        for problem in proc["problems"]:
            print(f"incorrect: {problem}", file=sys.stderr)
        if proc["log_tail"].strip():
            print(proc["log_tail"], file=sys.stderr)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps({"provenance": info, "result": result,
                                                 **details}, indent=1) + "\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
