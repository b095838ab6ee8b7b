"""Self-tests of the benchmark.

    python3 -m pytest -q -p no:cacheprovider perfbench/test_perfbench.py

They start real scbandits processes (about 20 s in all) and write only
under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import workloads


@pytest.fixture
def work():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_metric_and_workload_names_match_benchmark_json():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_verify_groups_match_the_suite():
    sys.path.insert(0, str(run.SRC))
    try:
        from scbandits.verify import CHECK_GROUPS
    finally:
        sys.path.remove(str(run.SRC))
    assert tuple(g.__name__ for g in CHECK_GROUPS) == run.VERIFY_GROUPS


def test_config_generation_is_deterministic_in_the_seed():
    for workload in workloads.REGRET_WORKLOADS:
        first = workloads.regret_configs(workload, 5)
        assert first == workloads.regret_configs(workload, 5)
        assert first != workloads.regret_configs(workload, 6)
        assert len({c["label"] for c in first}) == len(first)
    # Independent of the interpreter's string-hash randomization.
    code = "import json, workloads; print(json.dumps(workloads.regret_configs('cube_d5', 5)))"
    outputs = {
        subprocess.run([sys.executable, "-c", code], cwd=run.BENCH_DIR, capture_output=True,
                       text=True, check=True, env={**os.environ, "PYTHONHASHSEED": h}).stdout
        for h in ("1", "2")
    }
    assert outputs == {json.dumps(workloads.regret_configs("cube_d5", 5)) + "\n"}


def test_traced_regret_run_is_correct_and_a_flipped_byte_fails(work):
    (op,) = [op for op in run.operations("cube_d5", workloads.DEFAULT_SEED, work)
             if op.label == "hypercube_d5_scftpl_fixed_vector"]
    digests = run.load_digests()
    outcome = run.run_op(op, work, "cube_d5", workloads.DEFAULT_SEED, True, digests)
    assert outcome.failed == 0, outcome.problems
    assert set(run.end_to_end([outcome])) == set(run.END_TO_END)
    layers = run.per_layer([outcome])
    assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER)
    assert layers["engine.rounds"] == 10_000 and layers["perturbations.draw_calls"] == 0

    csv_path = work / "out" / f"{op.label}.csv"
    data = bytearray(csv_path.read_bytes())
    middle = len(data) // 2
    offset = next(i for i in range(middle, len(data)) if chr(data[i]).isdigit())
    data[offset] = ord("1") if data[offset] != ord("1") else ord("2")
    csv_path.write_bytes(bytes(data))
    problems = run.check_regret(op, outcome.proc, work / "out", "cube_d5",
                                workloads.DEFAULT_SEED, digests)
    assert any("CSV digest" in p for p in problems)


def test_verify_fault_injection_lowers_ok_frac(work):
    (op,) = run.operations("verify_full", workloads.DEFAULT_SEED, work)
    config = work / "fault.json"
    config.write_text(json.dumps({"xi_scale": 1.25}))
    op.cli_args += ["--config", str(config)]
    outcome = run.run_op(op, work, "verify_full", workloads.DEFAULT_SEED, False,
                         run.load_digests())
    assert outcome.proc.returncode == 2
    assert outcome.failed > 0
    assert run.end_to_end([outcome])["ok_frac"] < 1.0


def test_fails_without_the_program(work):
    (work / "perfbench").mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, work / "perfbench")
    shutil.copy(run.DIGESTS, work / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", work)
    proc = subprocess.run([sys.executable, *_benchmark_json()["command"][1:], "--workload",
                           "cube_d5", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=work, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
