import functools
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbandits import action_sets as geom
from scbandits import cli, engine, harness, verify
from scbandits import perturbations as pert
from scbandits.cli import main as cli_main
from scbandits.environments import AdversarySpec, best_in_hindsight, generate
from scbandits.rng import make_rng
from scbandits.verify import VerifyOptions


def base_config(**overrides):
    raw = {
        "set": "hypercube",
        "dimension": 2,
        "horizon": 300,
        "algorithm": "scftpl",
        "learning_rate": "auto",
        "adversary": {"kind": "seeded_random", "seed": 3},
        "seeds": [1, 2, 3, 4],
        "label": "t",
    }
    raw.update(overrides)
    return raw


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    cfg = harness.config_from_dict(base_config())
    assert cfg.spec.action_set.dimension == 2 and cfg.horizon == 300
    assert cfg.adversary.kind == "seeded_random"


def test_readme_experiment_config_is_valid():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Experiment config", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    cfg = harness.config_from_dict(json.loads(block))
    assert cfg.label == "cube_d5" and cfg.seeds == tuple(range(1, 9))


BAD_ENTRIES = [
    ({"set": "simplex"}, "$.set"),
    ({"dimension": 0}, "$.dimension"),
    ({"dimension": 2.5}, "$.dimension"),
    ({"horizon": 0}, "$.horizon"),
    ({"algorithm": "exp2"}, "$.algorithm"),
    ({"learning_rate": -1.0}, "$.learning_rate"),
    ({"learning_rate": "fast"}, "$.learning_rate"),
    ({"seeds": []}, "$.seeds"),
    ({"seeds": [1, 1]}, "$.seeds"),
    ({"seeds": [1, "x"]}, "$.seeds[1]"),
    ({"adversary": {"kind": "mean"}}, "$.adversary.kind"),
    ({"adversary": {"kind": "fixed_vector", "base": [1.0]}}, "$.adversary.base"),
    ({"workers": 0}, "$.workers"),
    # a config from before the radial table's geometry was fixed
    ({"radial_table": {}}, "$.radial_table"),
    ({"bogus_key": 1}, "$.bogus_key"),
    ({"write_per_seed": 1}, "$.write_per_seed"),
    ({"adversary": "fixed_vector"}, "$.adversary"),
    ({"learning_rate": float("nan")}, "$.learning_rate"),
    # typed errors for values that used to crash or slip through as ints
    ({"adversary": {"kind": "piecewise_switching", "period": True}}, "$.adversary.period"),
    ({"adversary": {"kind": "seeded_random", "seed": True}}, "$.adversary.seed"),
    ({"adversary": {"kind": "rotating_direction", "angle": True}}, "$.adversary.angle"),
    ({"adversary": {"kind": "fixed_vector", "base": [1.0, None]}}, "$.adversary.base"),
    ({"workers": True}, "$.workers"),
    # the label names output files, so it is checked before any seed runs
    ({"label": ""}, "$.label"),
    ({"label": "."}, "$.label"),
    ({"label": ".."}, "$.label"),
    ({"label": "runs/a"}, "$.label"),
    ({"label": "runs\\a"}, "$.label"),
    # each of these used to fail only once loss generation or table building had started
    ({"horizon": 1}, "$.horizon"),
    ({"dimension": 1, "adversary": {"kind": "rotating_direction"}}, "$.adversary.kind"),
    ({"adversary": {"kind": "fixed_vector", "base": [0.0, 0.0]}}, "$.adversary.base"),
    ({"adversary": {"kind": "seeded_random", "seed": 2**64}}, "$.adversary.seed"),
    ({"set": "ball", "dimension": 10**400}, "$.dimension"),
    # label names the file system cannot take: too long beside "_summary.json", or not encodable
    ({"label": "a" * 250}, "$.label"),
    ({"label": "x\ud800"}, "$.label"),
]


@pytest.mark.parametrize("patch,fragment", BAD_ENTRIES)
def test_config_rejects_bad_entries(patch, fragment):
    with pytest.raises(harness.ConfigError, match=__import__("re").escape(fragment)):
        harness.config_from_dict(base_config(**patch))


@pytest.mark.parametrize("patch,fragment", BAD_ENTRIES)
def test_cli_run_bad_entry_exits_1_naming_path(tmp_path, capsys, patch, fragment):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(out_dir=str(tmp_path), **patch)))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 1
    assert f"{fragment}:" in capsys.readouterr().err


def test_cli_bad_label_rejected_before_any_compute(tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("engine ran before the label was validated")

    monkeypatch.setattr(harness, "run_seeds", forbidden)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(out_dir=str(tmp_path), label="sub/dir")))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 1
    assert "$.label:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=8)
_CONFIG_KEYS = ("set", "dimension", "horizon", "algorithm", "learning_rate", "adversary",
                "seeds", "out_dir", "label", "workers", "write_per_seed", "radial_table",
                "adversary.kind", "adversary.base", "adversary.period", "adversary.angle",
                "adversary.seed", "extra")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(base=st.sampled_from([base_config(), base_config(set="ball", algorithm="scribble")]),
       key=st.sampled_from(_CONFIG_KEYS), value=_JSON_VALUES)
def test_config_any_json_value_is_accepted_or_typed_error(base, key, value):
    raw = json.loads(json.dumps(base))
    outer, _, inner = key.partition(".")
    if inner:
        raw.setdefault(outer, {})[inner] = value
    else:
        raw[outer] = value
    try:
        cfg = harness.config_from_dict(raw)
    except harness.ConfigError as exc:
        assert str(exc).startswith("$")
    else:
        assert isinstance(cfg, harness.ExperimentConfig)


def test_config_json_syntax_error_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "set": "hypercube",\n  "dimension": }\n')
    with pytest.raises(harness.ConfigError, match=r":3:"):
        harness.load_config(path)


def test_auto_rate_precondition_warnings():
    cfg = harness.config_from_dict(base_config(horizon=100, dimension=2))
    assert any("24 d" in w for w in cfg.warnings())
    ball_cfg = harness.config_from_dict(base_config(set="ball", horizon=200))
    assert any("2 d^2" in w for w in ball_cfg.warnings())
    fine = harness.config_from_dict(base_config(horizon=10_000))
    assert fine.warnings() == []


# ---------------------------------------------------------------------------
# run command outputs
# ---------------------------------------------------------------------------

def test_cmd_run_outputs_and_determinism(tmp_path):
    raw = base_config(out_dir=str(tmp_path / "a"), write_per_seed=True)
    summary = harness.cmd_run(harness.config_from_dict(raw), quiet=True)
    assert len((tmp_path / "a" / "t.csv").read_text().splitlines()) == 1 + 300

    csv_a = (tmp_path / "a" / "t.csv").read_bytes()
    raw_b = base_config(out_dir=str(tmp_path / "b"), write_per_seed=True)
    harness.cmd_run(harness.config_from_dict(raw_b), quiet=True)
    csv_b = (tmp_path / "b" / "t.csv").read_bytes()
    assert csv_a == csv_b  # byte-identical reruns

    assert json.loads((tmp_path / "a" / "t_summary.json").read_text()) == summary
    assert summary["under_bound"] in (True, False)


def test_cmd_run_prints_its_summary_and_warnings(tmp_path, capsys):
    # n = 100 < 24 d ln n: the auto rate's hypercube guarantee does not cover it
    raw = base_config(out_dir=str(tmp_path), horizon=100)
    harness.cmd_run(harness.config_from_dict(raw), quiet=False)
    summary = json.loads((tmp_path / "t_summary.json").read_text())
    assert summary["warnings"]
    assert capsys.readouterr().out.splitlines() == [
        f"t: final mean regret {summary['final_mean_regret']:.3f} "
        f"(bound {summary['final_bound']:.3f}), {summary['step_violations']} step violations, "
        f"{summary['wall_time_per_round_seconds'] * 1e6:.1f} us/round",
    ] + [f"  warning: {note}" for note in summary["warnings"]]


def test_cli_run_out_overrides_the_config_out_dir(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(out_dir=str(tmp_path / "from_config"), seeds=[1])))
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "from_flag"),
                     "--quiet"]) == 0
    written = sorted(p.name for p in (tmp_path / "from_flag").iterdir())
    assert written == ["t.csv", "t_summary.json"]
    assert not (tmp_path / "from_config").exists()


def test_config_adversary_angle_sets_the_rotation():
    raw = base_config(adversary={"kind": "rotating_direction", "angle": 0.3})
    cfg = harness.config_from_dict(raw)
    rows = generate(cfg.adversary, cfg.spec.action_set.dimension, cfg.horizon)
    spec = AdversarySpec(kind="rotating_direction", geometry="hypercube", angle=0.3)
    assert np.array_equal(rows, generate(spec, 2, 300))
    default = AdversarySpec(kind="rotating_direction", geometry="hypercube")
    assert not np.array_equal(rows, generate(default, 2, 300))


def test_cmd_run_aggregation_matches_per_seed_files(tmp_path):
    # 9 seeds: numpy sums 8 or more contiguous values pairwise, so the seed-wise
    # mean and SE match only if the harness reduces one C-ordered row per seed
    seeds = list(range(5, 14))
    raw = base_config(out_dir=str(tmp_path), write_per_seed=True, seeds=seeds)
    cfg = harness.config_from_dict(raw)
    harness.cmd_run(cfg, quiet=True)
    curves = []
    for seed in seeds:
        lines = (tmp_path / f"t_seed{seed}.csv").read_text().splitlines()[1:]
        curves.append([float(line.split(",")[1]) for line in lines])
    curves = np.array(curves)
    main_rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    mean_col = np.array([float(r.split(",")[1]) for r in main_rows])
    se_col = np.array([float(r.split(",")[2]) for r in main_rows])
    assert np.array_equal(curves.mean(axis=0), mean_col)
    assert np.allclose(curves.std(axis=0, ddof=1) / math.sqrt(len(seeds)), se_col, rtol=0, atol=0)


def test_bound_column_is_analytic(tmp_path):
    n, d = 120, 2
    raw = base_config(out_dir=str(tmp_path), horizon=n, seeds=[1])
    harness.cmd_run(harness.config_from_dict(raw), quiet=True)
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    bound_col = np.array([float(r.split(",")[3]) for r in rows])
    t = np.arange(1, n + 1, dtype=float)
    expected = d * np.sqrt(2.0 * t * math.log(n)) + 2.0
    assert np.max(np.abs(bound_col - expected)) <= 1e-9

    ball_raw = base_config(set="ball", out_dir=str(tmp_path), horizon=n,
                           seeds=[1], label="tb")
    harness.cmd_run(harness.config_from_dict(ball_raw), quiet=True)
    rows = (tmp_path / "tb.csv").read_text().splitlines()[1:]
    bound_col = np.array([float(r.split(",")[3]) for r in rows])
    expected = (d * np.sqrt(6.0 * t * math.log(n)) + 2.0
                + 64.0 * math.e / d**2 * math.log(n) ** 3)
    assert np.max(np.abs(bound_col - expected)) <= 1e-9


def test_cmd_run_builds_one_k_grid_before_the_first_run(tmp_path, monkeypatch, empty_k_grids):
    # the grid is set-up: built once in the harness, then shared by every seed
    calls = []
    real_grid, real_run_seeds = engine.KFunctionCache, harness.run_seeds

    def build(*args, **kwargs):
        calls.append("grid")
        return real_grid(*args, **kwargs)

    def spy(spec, losses, rngs, competitor):
        calls.append(("run_seeds", len(rngs)))
        return real_run_seeds(spec, losses, rngs, competitor)

    monkeypatch.setattr(engine, "KFunctionCache", build)
    monkeypatch.setattr(harness, "run_seeds", spy)
    raw = base_config(set="ball", out_dir=str(tmp_path), seeds=[1, 2])
    harness.cmd_run(harness.config_from_dict(raw), quiet=True)
    assert calls == ["grid", ("run_seeds", 2)] and len(empty_k_grids) == 1


def _timeless(summary: Path) -> list[str]:
    return [line for line in summary.read_text().splitlines()
            if '"wall_time_per_round_seconds"' not in line]


def test_cmd_run_parallel_workers_match_serial(tmp_path):
    # workers is accepted and has no effect: every value runs the 5 seeds in
    # one batch in this process and gives the same bytes on both bodies
    seeds = [1, 2, 3, 4, 5]
    for kind in ("hypercube", "ball"):
        for workers in (1, 2, 3):
            raw = base_config(set=kind, out_dir=str(tmp_path / kind / str(workers)), seeds=seeds,
                              workers=workers, write_per_seed=True)
            harness.cmd_run(harness.config_from_dict(raw), quiet=True)
        serial = tmp_path / kind / "1"
        for workers in (2, 3):
            chunked = tmp_path / kind / str(workers)
            for name in ["t.csv"] + [f"t_seed{s}.csv" for s in seeds]:
                assert (serial / name).read_bytes() == (chunked / name).read_bytes(), name
            assert _timeless(serial / "t_summary.json") == _timeless(chunked / "t_summary.json")


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def _recording(group, emitted):
    @functools.wraps(group)
    def wrapper(opts):
        rows = group(opts)
        emitted[group.__name__] = [r.name for r in rows]
        return rows
    return wrapper


def test_verify_suite_passes_at_reduced_scale(tmp_path, monkeypatch):
    emitted = {}
    monkeypatch.setattr(verify, "CHECK_GROUPS",
                        tuple(_recording(g, emitted) for g in verify.CHECK_GROUPS))
    ok, results = harness.cmd_verify(VerifyOptions(scale=0.02), out_dir=tmp_path, quiet=True)
    assert ok, [r.name for r in results if not r.passed]
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["passed"] is True
    assert {"name", "measured", "threshold", "passed"} <= set(report["checks"][0])
    # every row starts with a prefix its group declares, through a wrapper as
    # the benchmark probe installs, so selecting groups first drops no row
    for group in verify.CHECK_GROUPS:
        names = emitted[group.__name__]
        assert names and all(n.startswith(verify.ROW_PREFIXES[group.__name__]) for n in names)


def _suite_rows(opts):
    """The rows of every check group that ``opts`` selects, in suite order."""
    return [row for _, rows, _ in verify.verify_groups(opts) for row in rows]


def _scaled_draws(monkeypatch, factor):
    """A draw-scale fault: every perturbation draw comes out ``factor`` times too large."""
    draw = pert.draw
    monkeypatch.setattr(pert, "draw", lambda aset, rng, size: factor * draw(aset, rng, size))


def test_verify_replication_fault_injection(monkeypatch):
    # a 10% draw-scale fault must trip the replication checks
    _scaled_draws(monkeypatch, 1.10)
    results = _suite_rows(VerifyOptions(scale=0.1, checks=("replication",)))
    assert results, "replication checks must run"
    assert not all(r.passed for r in results)


def _raising(group):
    @functools.wraps(group)
    def stand_in(opts):
        raise AssertionError(f"{group.__name__} ran, but the filter cannot select it")
    return stand_in


def test_verify_runs_only_the_groups_a_filter_selects(monkeypatch):
    opts = VerifyOptions(scale=0.15, checks=("k_function",))
    expected = [r for r in verify.check_k_function(opts) if r.name.startswith("k_function")]
    monkeypatch.setattr(verify, "CHECK_GROUPS", tuple(
        g if g is verify.check_k_function else _raising(g) for g in verify.CHECK_GROUPS))
    results = _suite_rows(opts)
    assert results == expected and len(results) == 2 * len(verify.BALL_DIMENSIONS)


def test_ks_statistic_equals_scipy_kstest():
    from scipy import stats

    d = 3
    opts = VerifyOptions()
    rng = verify.spawn_rngs(opts.seed + 9, 1)[0]  # the draws of check_radial_sampling
    speeds = np.linalg.norm(pert.draw(geom.ball(d), rng, size=10**5), axis=1)

    def cdf(s):
        return pert.radial_cdf_ball(s, d)

    samples = [(speeds, cdf),
               (np.array([0.5]), cdf),
               (np.array([2.0, 0.1, 0.1, 7.0, 0.3]), cdf),  # unsorted, with a tie
               (np.linspace(0.0, 1.0, 11), lambda x: np.clip(x, 0.0, 1.0)),  # D at both ends
               (np.array([0.25, 0.5, 0.75]), lambda x: x)]
    for sample, law in samples:
        assert verify.ks_statistic(sample, law) == stats.kstest(sample, law).statistic


def test_verify_leaves_scipy_stats_unloaded(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"checks": ["ball_radial"]}))
    code = ("import sys; from scbandits.cli import main; status = main(sys.argv[1:]); "
            "print(status, 'scipy.stats' in sys.modules)")
    src = str(Path(harness.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, "verify", "--config", str(cfg),
                             "--quiet"], capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.split() == ["0", "False"]


def test_verify_prints_each_group_time_after_its_rows(tmp_path, capsys):
    opts = VerifyOptions(scale=0.1, checks=("hypercube_", "k_function_at_zero"))
    harness.cmd_verify(opts, out_dir=tmp_path / "quiet", quiet=True)
    assert capsys.readouterr().out == ""
    harness.cmd_verify(opts, out_dir=tmp_path / "loud", quiet=False)
    lines = capsys.readouterr().out.splitlines()
    rows = [r["name"] for r in json.loads((tmp_path / "loud" / "verify_report.json")
                                          .read_text())["checks"]]
    expected = []  # each selected group's rows, then its time line
    for group in verify.select_groups(opts.checks):
        expected += [r for r in rows if r.startswith(verify.ROW_PREFIXES[group.__name__])]
        expected.append(f"[time] {group.__name__}")
    assert len(expected) == len(rows) + 3
    assert [" ".join(line.split()[:2]) if line.startswith("[time] ") else line.split()[1]
            for line in lines[:-1]] == expected
    assert all(line.endswith(" s") for line in lines if line.startswith("[time] "))
    assert lines[-1] == f"verify: {len(rows)}/{len(rows)} checks passed"
    assert ((tmp_path / "quiet" / "verify_report.json").read_bytes()
            == (tmp_path / "loud" / "verify_report.json").read_bytes())


def test_select_groups_by_row_prefix():
    assert verify.select_groups(None) == verify.CHECK_GROUPS
    assert verify.select_groups(("ball_radial",)) == (verify.check_ball_density,
                                                      verify.check_radial_sampling)
    assert verify.select_groups(("k_function_bounds_d3", "unbiased_")) == (
        verify.check_k_function, verify.check_unbiasedness)
    assert verify.select_groups(("",)) == verify.CHECK_GROUPS
    assert verify.select_groups(("no_such_check",)) == ()


def test_probe_entry_points():
    # the benchmark probe wraps every engine function named run* as the end
    # of set-up, reading losses as its second positional argument, and every
    # entry of verify.CHECK_GROUPS as a one-argument check group
    runs = {name: fn for name, fn in vars(engine).items()
            if name.startswith("run") and inspect.isfunction(fn)
            and fn.__module__ == engine.__name__}
    assert set(runs) == {"run", "run_seeds"}
    for fn in runs.values():
        second = list(inspect.signature(fn).parameters.values())[1]
        assert second.name == "losses" and second.kind is second.POSITIONAL_OR_KEYWORD
    assert isinstance(verify.CHECK_GROUPS, tuple)
    for group in verify.CHECK_GROUPS:
        assert inspect.isfunction(group) and len(inspect.signature(group).parameters) == 1


# ---------------------------------------------------------------------------
# bench and sample commands
# ---------------------------------------------------------------------------

def test_cmd_bench_rows_shape():
    rows = harness.cmd_bench(dims=(4, 16), rounds=64, repeats=2, seed=3,
                             kinds=("hypercube",), quiet=True)
    assert len(rows) == 2
    assert rows[0]["per_round_us"] > 0.0
    assert rows[0]["rounds_per_sec"] > 0.0
    assert rows[0]["ratio_4d"] is not None and rows[1]["ratio_4d"] is None


def test_cmd_bench_prints_one_line_per_row(capsys):
    rows = harness.cmd_bench(dims=(4, 16), rounds=8, repeats=1, seed=3,
                             kinds=("hypercube", "ball"), quiet=False)
    assert [(r["set"], r["dimension"]) for r in rows] == [
        ("hypercube", 4), ("hypercube", 16), ("ball", 4), ("ball", 16)]
    assert capsys.readouterr().out.splitlines() == [
        f"{r['set']:>9} d={r['dimension']:<5} {r['per_round_us']:9.1f} us/round "
        f"{r['rounds_per_sec']:10.0f} rounds/s  time(4d)/time(d)="
        + (f"{r['ratio_4d']:.2f}" if r["dimension"] == 4 else "-")
        for r in rows]


@pytest.mark.parametrize("name,digest", [
    ("hypercube.csv", "edb49924b170d7766f4a1629505c5d38e4b30cb59c227db07db340b5429da1fb"),
    ("hypercube_seed1.csv", "f5b34e5c3829c0fd3b917fd0ea666e82f8e1a9189db7a498bc67002161b39d50"),
    ("hypercube_seed2.csv", "c3ed718e0b34cd72bdfbdb11499b832e7412a39a18bda908f18054879d6e8efc"),
])
def test_cli_run_csv_bytes_pinned(tmp_path, name, digest):
    # the main and per-seed CSV formats, frozen until they are changed on purpose
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"set": "hypercube", "dimension": 3, "horizon": 300,
                               "adversary": {"kind": "seeded_random", "seed": 3},
                               "seeds": [1, 2], "label": "hypercube", "write_per_seed": True,
                               "out_dir": str(tmp_path / "out")}))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 0
    assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def test_label_bound_fits_the_longest_output_name(tmp_path):
    # 226 bytes plus "_seed" and the 20 digits of the largest seed plus ".csv" is 255
    label = "\u00e9" * 113
    raw = base_config(out_dir=str(tmp_path), label=label, write_per_seed=True, horizon=20,
                      seeds=[2**64 - 1])
    harness.cmd_run(harness.config_from_dict(raw), quiet=True)
    assert max(len(os.fsencode(p.name)) for p in tmp_path.iterdir()) == 255
    with pytest.raises(harness.ConfigError, match=r"\$\.label: must encode in at most 226"):
        harness.config_from_dict(dict(raw, label=label + "x"))
    assert harness.config_from_dict(dict(raw, label=label + "x" * 16, write_per_seed=False))


def test_cmd_sample_csv(tmp_path):
    path = harness.cmd_sample("hypercube", 3, 10, 5, tmp_path / "draws.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "xi_1,xi_2,xi_3"
    assert len(lines) == 11
    again = harness.cmd_sample("hypercube", 3, 10, 5, tmp_path / "again.csv")
    assert path.read_bytes() == again.read_bytes()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(horizon=50, out_dir=str(tmp_path))))
    assert cli_main(["run", "--config", str(cfg_path), "--quiet"]) == 0
    assert (tmp_path / "t.csv").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(base_config(dimension=-1)))
    assert cli_main(["run", "--config", str(bad), "--quiet"]) == 1


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(base_config(horizon=50, out_dir=str(tmp_path))))
    assert cli_main(["run", "--config", str(cfg_path), "--seeds", "9,10", "--quiet"]) == 0
    summary = json.loads((tmp_path / "t_summary.json").read_text())
    assert summary["seeds"] == [9, 10]


@pytest.mark.parametrize("seeds,fragment", [
    ("-1", "--seeds[0]: must be a 64-bit unsigned integer"),
    ("18446744073709551616", "--seeds[0]: must be a 64-bit unsigned integer"),
    (",", "--seeds: must be a nonempty array"),
    ("3,3", "--seeds: seeds must be distinct"),
    ("3,,4", "--seeds[1]: must be a 64-bit unsigned integer"),
    ("1_0", "--seeds[0]: must be a 64-bit unsigned integer"),
    ("+5", "--seeds[0]: must be a 64-bit unsigned integer"),
])
def test_cli_bad_seed_override_exits_1_before_any_compute(tmp_path, capsys, monkeypatch,
                                                          seeds, fragment):
    def forbidden(*args, **kwargs):
        raise AssertionError("the experiment started before --seeds was validated")

    monkeypatch.setattr(cli, "cmd_run", forbidden)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(set="ball", out_dir=str(tmp_path))))
    assert cli_main(["run", "--config", str(cfg), f"--seeds={seeds}", "--quiet"]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("arg,fragment", [
    ("--dims=2,,1_0", "--dims[1]: must be a positive integer, got ''"),
    ("--dims=16,0", "--dims[1]: must be a positive integer, got '0'"),
    ("--dims=4,4", "--dims: must be a nonempty list of distinct entries"),
    ("--rounds=1", "--rounds: must be an integer >= 2, got '1'"),
    ("--repeats=0", "--repeats: must be a positive integer, got '0'"),
    ("--repeats=+3", "--repeats: must be a positive integer, got '+3'"),
    ("--sets=hypercube,cube", "--sets[1]: must be 'hypercube' or 'ball', got 'cube'"),
    ("--json=no_such_dir/bench.json",
     "--json: must be a file in an existing directory, got 'no_such_dir/bench.json'"),
    ("--json=.", "--json: must be a file in an existing directory, got '.'"),
])
def test_cli_bad_bench_argument_exits_1_before_any_timing(capsys, monkeypatch, arg, fragment):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"timing started before {arg} was validated")

    monkeypatch.setattr(cli, "cmd_bench", forbidden)
    assert cli_main(["bench", arg, "--quiet"]) == 1
    assert fragment in capsys.readouterr().err


def test_cli_bench_arguments(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "cmd_bench", lambda **kwargs: calls.append(kwargs))
    assert cli_main(["bench", "--dims", " 4, 16", "--rounds", "64", "--repeats", "2",
                     "--sets", "ball", "--quiet"]) == 0
    assert calls == [{"dims": (4, 16), "kinds": ("ball",), "rounds": 64, "repeats": 2,
                      "json_path": None, "quiet": True}]


def test_cli_bench_json_writes_rows(tmp_path):
    path = tmp_path / "bench.json"
    assert cli_main(["bench", "--dims", "4,16", "--rounds", "8", "--repeats", "1",
                     "--sets", "hypercube", "--json", str(path), "--quiet"]) == 0
    report = json.loads(path.read_text())
    assert (report["rounds"], report["repeats"]) == (8, 1)
    rows = report["rows"]
    assert [(r["set"], r["dimension"]) for r in rows] == [("hypercube", 4), ("hypercube", 16)]
    assert rows[0]["ratio_4d"] == rows[1]["per_round_us"] / rows[0]["per_round_us"]
    assert rows[1]["ratio_4d"] is None


@pytest.mark.parametrize("argv,fragment", [
    (["run"], "scbandits run: the following arguments are required: --config"),
    (["sample", "--set", "cube", "--dimension", "2", "--out", "x.csv"],
     "scbandits sample: argument --set: invalid choice: 'cube'"),
    (["frobnicate"], "scbandits: argument command: invalid choice: 'frobnicate'"),
])
def test_cli_usage_error_exits_1(capsys, argv, fragment):
    # exit 2 means a failed verification check, so a usage error must not use it
    assert cli_main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {fragment}")


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_cli_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli_main(argv)
    assert info.value.code == 0
    assert "usage: scbandits" in capsys.readouterr().out


def test_cli_sample(tmp_path):
    out = tmp_path / "xi.csv"
    assert cli_main(["sample", "--set", "ball", "--dimension", "2", "--count", "5",
                     "--seed", "1", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 6


@pytest.mark.parametrize("kind,d,digest", [
    ("ball", 3, "b44d6e329b337a7ce58a88545fea0139cf4b9d3c9556b8868db9d0d90b732e4e"),
    ("hypercube", 4, "3a02ee585304ebb8f2f54c8de96122d3489dfcd9418ffb1f7f64ba961a5f2f2c"),
])
def test_cli_sample_bytes_pinned(tmp_path, kind, d, digest):
    # the bulk stream layout of perturbations.draw, frozen until it is changed on purpose
    out = tmp_path / "xi.csv"
    assert cli_main(["sample", "--set", kind, "--dimension", str(d), "--count", "2000",
                     "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("arg,fragment", [
    ("--count=0", "--count: must be a positive integer, got '0'"),
    ("--count=-5", "--count: must be a positive integer, got '-5'"),
    ("--count=1_0", "--count: must be a positive integer, got '1_0'"),
    ("--dimension=0", "--dimension: must be a positive integer, got '0'"),
    ("--dimension=2.0", "--dimension: must be a positive integer, got '2.0'"),
    ("--seed=-1", "--seed: must be a 64-bit unsigned integer, got '-1'"),
    ("--seed=18446744073709551616", "--seed: must be a 64-bit unsigned integer"),
])
def test_cli_bad_sample_argument_exits_1_before_any_draw(tmp_path, capsys, monkeypatch,
                                                         arg, fragment):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"draws started before {arg} was validated")

    monkeypatch.setattr(cli, "cmd_sample", forbidden)
    out = tmp_path / "xi.csv"
    assert cli_main(["sample", "--set", "ball", "--dimension", "2", arg,
                     "--out", str(out)]) == 1
    assert fragment in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1", "x"])
def test_cli_bad_verify_scale_exits_1_before_any_check(capsys, monkeypatch, scale):
    monkeypatch.setattr(verify, "CHECK_GROUPS", tuple(map(_raising, verify.CHECK_GROUPS)))
    assert cli_main(["verify", f"--scale={scale}", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert f"--scale: must be a positive finite number, got '{scale}'" in err
    assert "$.scale" not in err


def test_cli_numeric_error_exit_code(tmp_path):
    # an aborted run (covariance driven singular) maps to exit code 3
    cfg = tmp_path / "abort.json"
    cfg.write_text(json.dumps(base_config(
        dimension=1, horizon=100, learning_rate=1e9, out_dir=str(tmp_path),
        adversary={"kind": "fixed_vector", "base": [1.0]}, seeds=[1])))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 3


def test_cli_k_quadrature_failure_exit_code(tmp_path, capsys, monkeypatch, empty_k_grids):
    # a K node whose radial integral cannot converge maps to exit code 3
    from scbandits import estimation

    monkeypatch.setattr(estimation, "_K_LIMIT", 4)
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps(base_config(set="ball", dimension=5, horizon=100,
                                          seeds=[1], out_dir=str(tmp_path))))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric error: radial integral failed for K(0.04001066752003251, d=5): ")


def test_cli_k_quadrature_failure_mid_run_exit_code(tmp_path, capsys, monkeypatch,
                                                    empty_k_grids):
    # the grid is built whole during set-up; the run's drift then leaves it
    # inside the round loop, and that extension's failing node still exits 3
    from scbandits import estimation

    raw = base_config(set="ball", dimension=5, horizon=8, learning_rate=0.8, seeds=[1],
                      adversary={"kind": "fixed_vector"}, out_dir=str(tmp_path))
    config = harness.config_from_dict(raw)
    assert len(engine.k_cache_for(config.spec, 8)._values) == 142
    monkeypatch.setattr(estimation, "_K_LIMIT", 4)
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps(raw))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(
        "numeric error: radial integral failed for K(8.528669935590687, d=5): ")
    losses = generate(config.adversary, 5, 8)
    competitor = best_in_hindsight(config.spec.action_set, losses)
    with pytest.raises(estimation.QuadratureError) as failure:
        engine.run_seeds(config.spec, losses, [make_rng(1)], competitor)
    assert not isinstance(failure.value, engine.AbortedRunError)


# numpy refuses each of these arrays when it is requested, before any memory
# is touched: every size is past 128 PiB, the largest user address space a
# 64-bit host maps (57 bits), so no overcommit setting can grant it
@pytest.mark.parametrize("command", ["run", "sample", "verify"])
def test_cli_unallocatable_size_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    if command == "run":
        cfg.write_text(json.dumps(base_config(dimension=10**17, horizon=10, seeds=[1],
                                              adversary={"kind": "fixed_vector"},
                                              out_dir=str(tmp_path / "out"))))
        argv = ["run", "--config", str(cfg), "--quiet"]
    elif command == "sample":
        argv = ["sample", "--set", "hypercube", "--dimension", str(10**17), "--count", "2",
                "--out", str(tmp_path / "out" / "s.csv")]
    else:
        cfg.write_text(json.dumps({"checks": ["ball_radial_ks"], "scale": 1e11}))
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_run_bad_out_dir_exits_1_before_any_compute(tmp_path, capsys, monkeypatch, out):
    def forbidden(*args, **kwargs):
        raise AssertionError("the engine ran before the output directory was checked")

    monkeypatch.setattr(harness, "run_seeds", forbidden)
    (tmp_path / "file").write_text("")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(out_dir=str(tmp_path / out))))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: $.out_dir: must be a directory")
    assert cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: --out: must be a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_cli_verify_bad_out_exits_1_before_any_check(tmp_path, capsys, monkeypatch, out):
    monkeypatch.setattr(verify, "CHECK_GROUPS", tuple(map(_raising, verify.CHECK_GROUPS)))
    (tmp_path / "file").write_text("")
    assert cli_main(["verify", "--out", str(tmp_path / out), "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: --out: must be a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("out", [".", "file/xi.csv"])
def test_cli_sample_bad_out_exits_1_before_any_draw(tmp_path, capsys, monkeypatch, out):
    def forbidden(*args, **kwargs):
        raise AssertionError("draws started before --out was checked")

    monkeypatch.setattr(pert, "draw", forbidden)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("")
    assert cli_main(["sample", "--set", "ball", "--dimension", "2", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: --out: must be a file")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("name,seeds", [("t.csv", None), ("t_summary.json", None),
                                        ("t_seed7.csv", "5,7")])
def test_cli_run_output_name_held_by_a_directory_exits_1_before_any_compute(
        tmp_path, capsys, monkeypatch, name, seeds):
    # the config's own seeds write t_seed1.csv and t_seed2.csv; t_seed7.csv
    # is a name only the --seeds override writes
    def forbidden(*args, **kwargs):
        raise AssertionError("the engine ran before the output names were checked")

    monkeypatch.setattr(harness, "run_seeds", forbidden)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(seeds=[1, 2], write_per_seed=True, out_dir=str(out))))
    argv = ["run", "--config", str(cfg), "--quiet"] + ([f"--seeds={seeds}"] if seeds else [])
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == ("error: $.out_dir: must be a file or a new path under "
                                       f"a directory, got {str(out / name)!r}\n")
    assert [p.name for p in out.iterdir()] == [name]


def test_cli_verify_report_name_held_by_a_directory_exits_1_before_any_check(
        tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a check ran before the report name was checked")

    monkeypatch.setattr(harness, "verify_groups", forbidden)
    report = tmp_path / "verify_report.json"
    report.mkdir()
    assert cli_main(["verify", "--out", str(tmp_path), "--scale", "0.01", "--quiet"]) == 1
    assert capsys.readouterr().err == ("error: --out: must be a file or a new path under a "
                                       f"directory, got {str(report)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["verify_report.json"]


def _failing_after_writing(write, calls_to_fail):
    """``write``, whose call number ``calls_to_fail`` (from 1) writes its file and
    then fails as a full disk would."""
    calls = []

    def failing(path, *args):
        calls.append(path)
        write(path, *args)
        if len(calls) == calls_to_fail:
            raise OSError(28, "No space left on device")
    return failing


def test_cli_run_failed_write_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    # the third of four files fails; the old t.csv is kept as it was
    out = tmp_path / "out"
    out.mkdir()
    (out / "t.csv").write_text("old\n")
    monkeypatch.setattr(harness, "_write_csv", _failing_after_writing(harness._write_csv, 3))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(seeds=[1, 2], write_per_seed=True, out_dir=str(out))))
    assert cli_main(["run", "--config", str(cfg), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert [p.name for p in out.iterdir()] == ["t.csv"]
    assert (out / "t.csv").read_text() == "old\n"


def test_cli_verify_failed_write_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "checks.json"
    cfg.write_text(json.dumps({"checks": ["hypercube_inverse"], "scale": 0.01}))
    monkeypatch.setattr(Path, "write_text", _failing_after_writing(Path.write_text, 1))
    assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert [p.name for p in tmp_path.iterdir()] == ["checks.json"]


def test_cli_sample_failed_write_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "_write_csv", _failing_after_writing(harness._write_csv, 1))
    argv = ["sample", "--set", "ball", "--dimension", "3", "--out", str(tmp_path / "xi.csv")]
    assert cli_main(argv) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rate", [1e5, 1e3, 1e12, 1e160])
def test_cli_ball_run_at_extreme_drift_never_fails_quadrature(tmp_path, capsys, rate):
    # a fixed direction drives ||theta|| far past any prebuilt K grid; the run
    # finishes or aborts at the singularity floor, never on a K quadrature
    cfg = tmp_path / "drift.json"
    cfg.write_text(json.dumps(base_config(
        set="ball", dimension=3, horizon=200, learning_rate=rate, seeds=[1],
        adversary={"kind": "fixed_vector"}, out_dir=str(tmp_path))))
    code = cli_main(["run", "--config", str(cfg), "--quiet"])
    err = capsys.readouterr().err
    if rate < 1e12:
        assert code == 0 or (code == 3 and err.startswith("numeric error: round ")), err
    else:
        # round 2's drift is past 2e10 (at 1e160, past where its square
        # overflows): the round aborts before it looks K up
        assert (code, err) == (3, "numeric error: round 2: expected action within 1e-10 "
                                  "of the sphere; local geometry numerically singular\n")


def test_cli_verify_failure_exit_code(tmp_path, monkeypatch):
    good = tmp_path / "ok.json"
    good.write_text(json.dumps({"scale": 0.05, "checks": ["hypercube_", "k_function"]}))
    assert cli_main(["verify", "--config", str(good), "--quiet"]) == 0
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scale": 0.1, "checks": ["replication"]}))
    _scaled_draws(monkeypatch, 1.10)
    assert cli_main(["verify", "--config", str(cfg), "--quiet"]) == 2


@pytest.mark.parametrize("text,fragment", [
    ('{\n  "scale": 0.1,\n  "checks": [}\n', "bad.json:3:"),
    ('[1, 2]', "$: "),
    ('{"scale": 0.1, "check": ["replication"]}', "$.check:"),
    ('{"seed": "5"}', "$.seed:"),
    ('{"seed": true}', "$.seed:"),
    ('{"scale": "x"}', "$.scale:"),
    ('{"scale": 0}', "$.scale:"),
    ('{"xi_scale": null}', "$.xi_scale:"),
    ('{"include_regret": "no"}', "$.include_regret:"),
    ('{"checks": "replication"}', "$.checks:"),
    ('{"checks": [1]}', "$.checks:"),
])
def test_cli_verify_config_rejects_bad_files(tmp_path, capsys, text, fragment):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert cli_main(["verify", "--config", str(cfg), "--quiet"]) == 1
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("removed", [{"xi_scale": 1.1}, {"include_regret": False}])
def test_cli_verify_config_rejects_removed_options(tmp_path, capsys, removed):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"scale": 0.02, **removed}))
    assert cli_main(["verify", "--config", str(cfg), "--quiet"]) == 1
    assert f"$.{next(iter(removed))}: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("quiet", [["--quiet"], []])
def test_cli_verify_checks_selecting_nothing_exits_1(tmp_path, capsys, monkeypatch, quiet):
    # the filter is matched against the groups' row prefixes before any group runs
    monkeypatch.setattr(verify, "CHECK_GROUPS", tuple(map(_raising, verify.CHECK_GROUPS)))
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"checks": ["no_such_check"], "scale": 0.02}))
    assert cli_main(["verify", "--config", str(cfg), "--out", str(tmp_path), *quiet]) == 1
    assert "$.checks:" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, scbandits.cli; print('scipy.stats' in sys.modules)"
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("case,scipy_loaded", [
    ("run_scftpl", False), ("run_scribble", False), ("sample", False), ("bench", False),
    ("sample_ball", True),
])
def test_hypercube_commands_leave_scipy_unloaded(tmp_path, case, scipy_loaded):
    # hypercube laws are closed-form: only the ball's radial law and verify load scipy
    algorithm = "scribble" if case == "run_scribble" else "scftpl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(horizon=50, seeds=[1, 2], out_dir=str(tmp_path),
                                          algorithm=algorithm)))
    out = str(tmp_path / "draws.csv")
    argv = {
        "run_scftpl": ["run", "--config", str(cfg), "--quiet"],
        "run_scribble": ["run", "--config", str(cfg), "--quiet"],
        "sample": ["sample", "--set", "hypercube", "--dimension", "3", "--out", out],
        "bench": ["bench", "--sets", "hypercube", "--dims", "4", "--rounds", "8",
                  "--repeats", "1", "--quiet"],
        "sample_ball": ["sample", "--set", "ball", "--dimension", "3", "--out", out],
    }[case]
    code = ("import sys; from scbandits.cli import main; status = main(sys.argv[1:]); "
            "print(status, 'scipy' in sys.modules, 'concurrent.futures.process' in sys.modules)")
    src = str(Path(harness.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": src})
    # a run starts no process pool, so it never imports one either
    assert result.stdout.split() == ["0", str(scipy_loaded), "False"]


def test_ball_run_leaves_scipy_integrate_unloaded(tmp_path):
    # a ball run's K grid comes from the quadrature port and its radial law
    # from the betainc ufunc: scipy.special loads, scipy.integrate does not
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(base_config(set="ball", dimension=3, horizon=50, seeds=[1, 2],
                                          out_dir=str(tmp_path))))
    code = ("import sys; from scbandits.cli import main; status = main(sys.argv[1:]); "
            "print(status, *(m in sys.modules for m in ('scipy.special', 'scipy.integrate', "
            "'scipy.special.cython_special')))")
    src = str(Path(harness.__file__).resolve().parents[1])
    result = subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg), "--quiet"],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.stdout.split() == ["0", "True", "False", "False"]


def test_cli_missing_config_file_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert cli_main(["verify", "--config", str(missing), "--quiet"]) == 1
    assert cli_main(["run", "--config", str(missing), "--quiet"]) == 1
    assert str(missing) in capsys.readouterr().err


def test_verify_options_from_dict_defaults_and_values():
    assert harness.verify_options_from_dict({}, scale=0.3) == VerifyOptions(scale=0.3)
    opts = harness.verify_options_from_dict({"seed": 5, "scale": 2, "checks": ["k_function"]},
                                            scale=1.0)
    assert opts == VerifyOptions(seed=5, scale=2.0, checks=("k_function",))
