import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scbandits import action_sets as geom
from scbandits import engine
from scbandits import estimation as est
from scbandits import perturbations as pert
from scbandits import rng as streams
from scbandits.environments import AdversarySpec, best_in_hindsight, generate
from scbandits.rng import gaussians, make_rng


def cube_losses(d, n, kind="seeded_random", **kw):
    return generate(AdversarySpec(kind=kind, geometry=geom.HYPERCUBE, **kw), d, n)


def ball_losses(d, n, kind="seeded_random", **kw):
    return generate(AdversarySpec(kind=kind, geometry=geom.BALL, **kw), d, n)


# ---------------------------------------------------------------------------
# learning-rate schedules
# ---------------------------------------------------------------------------

def test_auto_learning_rates():
    n = 10_000
    cube = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(5))
    assert math.isclose(engine.resolve_learning_rate(cube, n),
                        math.sqrt(2.0 * math.log(n) / n), rel_tol=1e-15)
    ball = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.ball(5))
    assert math.isclose(engine.resolve_learning_rate(ball, n),
                        math.sqrt(2.0 * math.log(n) / (3.0 * n)) / 5.0, rel_tol=1e-15)
    explicit = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.ball(5),
                                    learning_rate=0.125)
    assert engine.resolve_learning_rate(explicit, n) == 0.125


def test_spec_validation():
    with pytest.raises(ValueError):
        engine.AlgorithmSpec(variant="exp3", action_set=geom.hypercube(2))
    # a bool would run at eta = 1.0; the others are no finite positive float
    for rate in (-0.1, math.inf, True, False, [0.5], None, 1 + 0j, 10**400, -10**400):
        with pytest.raises(ValueError):
            engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(2),
                                 learning_rate=rate)
    with pytest.raises(ValueError):
        engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(2),
                             learning_rate="fast")


# ---------------------------------------------------------------------------
# first-round behaviour
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_set,loss_fn", [
    (geom.hypercube, cube_losses), (geom.ball, ball_losses)])
def test_first_round_expected_action_is_center(make_set, loss_fn):
    aset = make_set(3)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.1)
    trace = engine.run(spec, loss_fn(3, 1, seed=5), make_rng(1))
    assert np.array_equal(trace.x[0], np.zeros(3))
    assert np.array_equal(trace.y_hat_cum[0], np.zeros(3))


def test_first_round_scribble_plays_a_center_pole():
    aset = geom.hypercube(2)
    spec = engine.AlgorithmSpec(variant=engine.SCRIBBLE, action_set=aset, learning_rate=0.1)
    trace = engine.run(spec, cube_losses(2, 1, seed=5), make_rng(3))
    poles = [geom.dikin_pole(aset, np.zeros(2), i, s) for i in range(2) for s in (1, -1)]
    assert any(np.allclose(trace.action[0], p) for p in poles)


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,variant", [
    (geom.HYPERCUBE, engine.SCFTPL), (geom.HYPERCUBE, engine.SCRIBBLE),
    (geom.BALL, engine.SCFTPL), (geom.BALL, engine.SCRIBBLE)])
def test_trace_invariants(kind, variant):
    d, n = 3, 400
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=8), d, n)
    spec = engine.AlgorithmSpec(variant=variant, action_set=aset)
    trace = engine.run(spec, losses, make_rng(21))
    assert len(trace) == n
    assert trace.x.shape == trace.action.shape == trace.y_hat.shape == (n, d)
    assert trace.scalar_loss.shape == trace.local_norm_sq.shape == trace.step_violation.shape == (n,)
    center = np.zeros(d)
    y_cum = np.zeros(d)
    for t in range(n):
        assert np.array_equal(trace.y_hat_cum[t], y_cum)
        # expected action strictly interior, played action in the body
        assert geom.minkowski_gauge(aset, center, trace.x[t]) < 1.0
        assert geom.minkowski_gauge(aset, center, trace.action[t]) <= 1.0 + 1e-9
        y_cum = y_cum + trace.y_hat[t]
    assert np.all(np.abs(trace.scalar_loss) <= 1.0 + 1e-9)
    assert np.all(trace.local_norm_sq >= 0.0)
    assert np.any(trace.y_hat)


def test_scribble_actions_are_dikin_poles_of_reached_states():
    d, n = 3, 200
    aset = geom.ball(d)
    spec = engine.AlgorithmSpec(variant=engine.SCRIBBLE, action_set=aset)
    trace = engine.run(spec, ball_losses(d, n, seed=9), make_rng(13))
    for x, action in zip(trace.x, trace.action):
        ctx = geom.barrier_hessian(aset, x)
        assert geom.interior_gap(aset, action) > 0.0
        assert math.isclose(est.local_norm_sq(ctx, action - x), 1.0, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# engine rounds match the module-level operations
# ---------------------------------------------------------------------------

def test_scftpl_hypercube_matches_module_replay():
    d, n = 3, 60
    aset = geom.hypercube(d)
    losses = cube_losses(d, n, seed=10)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.2)
    trace = engine.run(spec, losses, make_rng(55))

    rng = make_rng(55)  # identical stream, replayed through the public ops
    y_cum = np.zeros(d)
    for t in range(1, n + 1):
        theta = -0.2 * y_cum
        xi = pert.draw(aset, rng, 1)[0]
        action = geom.linear_minimizer(aset, -theta - xi)
        x = geom.conjugate_gradient(aset, theta)
        scalar = float(losses[t - 1] @ action)
        model = est.covariance_hypercube(x)
        y_hat = est.estimate_loss(model, action, scalar)
        ctx = geom.barrier_hessian(aset, x)
        assert np.array_equal(trace.action[t - 1], action)
        assert np.array_equal(trace.x[t - 1], x)
        assert trace.scalar_loss[t - 1] == scalar
        assert np.allclose(trace.y_hat[t - 1], y_hat, rtol=1e-12, atol=1e-14)
        assert math.isclose(trace.local_norm_sq[t - 1],
                            float(y_hat @ geom.hessian_inv_matvec(ctx, y_hat)),
                            rel_tol=1e-9, abs_tol=1e-12)
        y_cum = y_cum + trace.y_hat[t - 1]


def test_scftpl_ball_matches_module_replay():
    d, n = 3, 60
    aset = geom.ball(d)
    losses = ball_losses(d, n, seed=11)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.05)
    trace = engine.run(spec, losses, make_rng(56))

    rng = make_rng(56)
    y_cum = np.zeros(d)
    for t in range(1, n + 1):
        theta = -0.05 * y_cum
        xi = pert.draw(aset, rng, 1)[0]
        action = geom.linear_minimizer(aset, -theta - xi)
        x = geom.conjugate_gradient(aset, theta)
        scalar = float(losses[t - 1] @ action)
        model = est.covariance_ball(theta, d)
        y_hat = est.estimate_loss(model, action, scalar)
        assert np.allclose(trace.action[t - 1], action, rtol=1e-12, atol=1e-15)
        assert np.allclose(trace.x[t - 1], x, rtol=1e-12, atol=1e-15)
        # k comes from the interpolation cache inside the engine, so the
        # estimate matches to the cache tolerance rather than exactly
        assert np.allclose(trace.y_hat[t - 1], y_hat, rtol=1e-4, atol=1e-8)
        y_cum = y_cum + trace.y_hat[t - 1]


def test_scribble_matches_module_replay():
    for kind in (geom.HYPERCUBE, geom.BALL):
        for d in (1, 2, 5):
            _assert_scribble_replays_module_ops(kind, d)


def _assert_scribble_replays_module_ops(kind, d):
    n = 50
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=12), d, n)
    spec = engine.AlgorithmSpec(variant=engine.SCRIBBLE, action_set=aset, learning_rate=0.1)
    trace = engine.run(spec, losses, make_rng(57))

    rng = make_rng(57)  # identical stream, replayed through the checked public ops
    y_cum = np.zeros(d)
    for t in range(1, n + 1):
        theta = -0.1 * y_cum
        x = geom.conjugate_gradient(aset, theta)
        draw = int(rng.integers(0, 2 * d))
        index, sign = draw % d, (1 if draw < d else -1)
        action = geom.dikin_pole(aset, x, index, sign)
        scalar = float(losses[t - 1] @ action)
        ctx = geom.barrier_hessian(aset, x)
        y_hat = est.scribble_estimate(aset, x, action, scalar)
        assert np.array_equal(trace.x[t - 1], x)
        assert np.array_equal(trace.action[t - 1], action)
        assert trace.scalar_loss[t - 1] == scalar
        assert np.array_equal(trace.y_hat[t - 1], y_hat)
        assert trace.local_norm_sq[t - 1] == float(y_hat @ geom.hessian_inv_matvec(ctx, y_hat))
        y_cum = y_cum + y_hat


def _cube_scribble_replay(losses, eta, seed):
    """A hypercube Dikin-pole run replayed through the dense kernels, every
    coordinate re-mapped each round, and the checked pole and estimate: its
    (x, action, y_hat) rows before any abort, and the abort message or None.
    The map is the unchecked kernel, which takes an overflowing theta."""
    d = losses.shape[1]
    aset = geom.hypercube(d)
    rng = make_rng(seed)
    y_cum = np.zeros(d)
    rows = []
    for t, loss in enumerate(losses, 1):
        with np.errstate(over="ignore"):
            x = geom._conjugate_gradient(aset, -eta * y_cum)
        draw = int(rng.integers(0, 2 * d))
        try:
            action = geom.dikin_pole(aset, x, draw % d, 1 if draw < d else -1)
        except geom.BoundaryError as exc:
            return rows, f"round {t}: {exc}"
        y_hat = est.scribble_estimate(aset, x, action, float(loss @ action))
        rows.append((x, action, y_hat))
        y_cum = y_cum + y_hat
    return rows, None


def _assert_cube_scribble_replays(d, losses, rate, seed):
    spec = engine.AlgorithmSpec(variant=engine.SCRIBBLE, action_set=geom.hypercube(d),
                                learning_rate=rate)
    rows, message = _cube_scribble_replay(losses, engine.resolve_learning_rate(
        spec, len(losses)), seed)
    try:
        trace = engine.run(spec, losses, make_rng(seed))
        assert message is None
    except engine.AbortedRunError as info:
        assert str(info) == message
        trace = info.trace
    assert len(trace) == len(rows)
    for t, fields in enumerate(rows):
        for got, want in zip((trace.x[t], trace.action[t], trace.y_hat[t]), fields):
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got),
                                                                np.signbit(want))
    return message


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 2, 5, 33]), n=st.integers(2, 160),
       adversary=st.sampled_from(["fixed_vector", "seeded_random", "piecewise_switching"]),
       rate=st.sampled_from(["auto", 0.05, 0.5]), seed=st.integers(0, 2**64 - 1),
       chunk=st.sampled_from([7, 64]))
def test_cube_scribble_rounds_match_the_dense_kernels(d, n, adversary, rate, seed, chunk):
    # the sparse hypercube pole round keeps x between rounds and re-maps one
    # coordinate; its rows, signs of zeros included, are those of the full
    # map, pole and estimate, across blocks of 7 or 64 uniforms
    period = {"period": 10} if adversary == "piecewise_switching" else {}
    losses = cube_losses(d, n, kind=adversary, seed=seed % 1000, **period)
    with mock.patch.object(streams, "CHUNK_UNIFORMS", chunk):
        _assert_cube_scribble_replays(d, losses, rate, seed)


@pytest.mark.parametrize("d,rate,seed,abort_round,gap", [
    (1, 10.0, 66, 14, "1.543e-13"), (2, 10.0, 1, 22, "1.125e-13"), (5, 1e3, 4, 16, "1.110e-15"),
    # x at the clip, 1 - 2^-53, from a finite theta, from one past the 1e150
    # asymptote, and from one overflowed to -inf
    (33, 1e4, 9, 38, "1.110e-16"), (5, 1e300, 4, 3, "1.110e-16"), (2, 1.7e308, 1, 4, "1.110e-16")])
def test_cube_scribble_aborts_where_the_dense_kernels_do(d, rate, seed, abort_round, gap):
    # the same round, partial trace and message of the whole x's interior check
    losses = cube_losses(d, 100, kind="fixed_vector", seed=3)
    message = _assert_cube_scribble_replays(d, losses, rate, seed)
    assert message == (f"round {abort_round}: x is within 1e-12 of the boundary of the "
                       f"hypercube (gap={gap}); barrier operations need a strictly interior point")


@pytest.mark.parametrize("kind", [geom.HYPERCUBE, geom.BALL])
def test_scribble_rounds_skip_the_argument_checks(kind):
    # a round checks its expected action once and calls the unchecked
    # kernels, so the checked entry points' vector validation never runs
    # per round
    aset = geom.ActionSetModel(dimension=3, kind=kind)
    spec = engine.AlgorithmSpec(variant=engine.SCRIBBLE, action_set=aset)

    def checks_in_run(n):
        losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=4), 3, n)
        with mock.patch.object(geom, "_as_vector", wraps=geom._as_vector) as counted:
            engine.run(spec, losses, make_rng(71))
        return counted.call_count

    assert checks_in_run(10) == checks_in_run(200)


# ---------------------------------------------------------------------------
# noise drawn in blocks equals noise drawn round by round
# ---------------------------------------------------------------------------

def _hypercube_noise_per_round(aset, rng, n):
    for _ in range(n):
        u = np.maximum(rng.random(aset.dimension), 2.0**-54)
        yield (1.0 - 2.0 * u) / (2.0 * u * (u - 1.0))


def _ball_noise_per_round(d, rng, n):
    radial_table = pert.RadialTable.build(d)
    for _ in range(n):
        normal = gaussians(rng, 2 * ((d + 1) // 2))[:d]
        normal_norm = math.sqrt(float(normal @ normal))
        direction = normal / (normal_norm if normal_norm > 0.0 else 1.0)
        u = rng.random()
        yield direction * radial_table.inverse(np.array([max(u, 2.0**-54)]))[0]


def _noise_blocks_per_round(aset, rngs, n):
    (rng,) = rngs
    if aset.kind == geom.HYPERCUBE:
        rows = _hypercube_noise_per_round(aset, rng, n)
    else:
        rows = _ball_noise_per_round(aset.dimension, rng, n)
    for row in rows:
        yield row[None, None]


def _pole_blocks_per_round(aset, rngs, n):
    (rng,) = rngs
    for _ in range(n):
        yield np.array([[int(rng.integers(0, 2 * aset.dimension))]])


def _assert_blocks_match_per_round(kind, variant, d, n, seed, chunk):
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=seed % 1000),
                      d, n)
    spec = engine.AlgorithmSpec(variant=variant, action_set=aset, learning_rate=0.05)
    with mock.patch.object(streams, "CHUNK_UNIFORMS", chunk):
        rng = make_rng(seed)
        blocks = engine.run(spec, losses, rng)
        blocks_next = rng.random()
    with mock.patch.multiple(engine, round_noise_blocks=_noise_blocks_per_round,
                             pole_draw_blocks=_pole_blocks_per_round):
        rng = make_rng(seed)
        replay = engine.run(spec, losses, rng)
        replay_next = rng.random()
    assert (blocks.action == replay.action).all()
    assert (blocks.y_hat == replay.y_hat).all()
    assert blocks_next == replay_next  # both runs consumed exactly n rounds of the stream


_SMALL_CHUNK = 64  # uniforms per block: several blocks within a short horizon


@pytest.mark.parametrize("kind,variant", [
    (geom.HYPERCUBE, engine.SCFTPL), (geom.BALL, engine.SCFTPL),
    (geom.HYPERCUBE, engine.SCRIBBLE), (geom.BALL, engine.SCRIBBLE)])
@pytest.mark.parametrize("d,chunk", [
    (1, _SMALL_CHUNK), (2, _SMALL_CHUNK), (5, _SMALL_CHUNK), (5, streams.CHUNK_UNIFORMS),
    (1024, streams.CHUNK_UNIFORMS)])
def test_block_noise_matches_per_round_draws(kind, variant, d, chunk):
    # n = 150 ends inside a block, and spans several wherever a block holds
    # fewer rounds: with the small blocks, and with the module's own for
    # scftpl at d = 1024 (31 ball or 32 hypercube rounds per block)
    _assert_blocks_match_per_round(kind, variant, d, 150, 70 + d, chunk)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from([geom.HYPERCUBE, geom.BALL]),
       variant=st.sampled_from([engine.SCFTPL, engine.SCRIBBLE]),
       d=st.integers(1, 6), n=st.integers(1, 120), seed=st.integers(0, 2**64 - 1),
       chunk=st.sampled_from([1, 7, _SMALL_CHUNK, streams.CHUNK_UNIFORMS]))
def test_block_noise_matches_per_round_draws_random(kind, variant, d, n, seed, chunk):
    _assert_blocks_match_per_round(kind, variant, d, n, seed, chunk)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from([geom.HYPERCUBE, geom.BALL]),
       variant=st.sampled_from([engine.SCFTPL, engine.SCRIBBLE]), d=st.sampled_from([1, 2, 5, 33]),
       n=st.integers(1, 90), rate=st.sampled_from([0.05, 0.5]),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6, unique=True),
       chunk=st.sampled_from([7, _SMALL_CHUNK, streams.CHUNK_UNIFORMS]))
# a batched ball run on the line, which none of the generated examples draws
@example(kind=geom.BALL, variant=engine.SCFTPL, d=1, n=60, rate=0.5, seeds=[3, 8, 21],
         chunk=_SMALL_CHUNK)
def test_run_seeds_matches_per_seed_runs(kind, variant, d, n, rate, seeds, chunk):
    # the batched recurrence, and the blocks of seeds run alone, against one
    # run per seed, with blocks that end mid-run wherever a block holds fewer
    # than n rounds
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=seeds[0] % 1000),
                      d, n)
    competitor = best_in_hindsight(aset, losses)
    spec = engine.AlgorithmSpec(variant=variant, action_set=aset, learning_rate=rate)
    with mock.patch.object(streams, "CHUNK_UNIFORMS", chunk):
        increments, violations = engine.run_seeds(spec, losses, [make_rng(s) for s in seeds],
                                                  competitor)
        traces = [engine.run(spec, losses, make_rng(s)) for s in seeds]
    assert increments.shape == (n, len(seeds)) and violations.shape == (len(seeds),)
    for j, trace in enumerate(traces):
        assert (np.cumsum(increments[:, j])
                == engine.cumulative_regret(trace, losses, competitor)).all()
        assert violations[j] == trace.step_violation.sum()


@pytest.mark.parametrize("kind,d,rate,adversary,seeds,decider,variant", [
    # seed 1 aborts in round 93, seed 2 in round 41
    (geom.HYPERCUBE, 2, 1e9, "rotating_direction", [1, 2], 1, engine.SCFTPL),
    # seed 1 finishes, seed 2 aborts in round 52, seed 3 in round 19
    (geom.BALL, 2, 1e8, "seeded_random", [1, 2, 3], 2, engine.SCFTPL),
    # seeds run alone: seed 1 aborts in round 22, seed 5 in round 14
    (geom.HYPERCUBE, 2, 10.0, "fixed_vector", [1, 5], 1, engine.SCRIBBLE),
])
def test_run_seeds_first_aborting_seed_in_order_decides(kind, d, rate, adversary, seeds,
                                                        decider, variant):
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    losses = generate(AdversarySpec(kind=adversary, geometry=kind, seed=3), d, 200)
    spec = engine.AlgorithmSpec(variant=variant, action_set=aset, learning_rate=rate)
    with pytest.raises(engine.AbortedRunError) as alone:
        engine.run(spec, losses, make_rng(decider))
    with pytest.raises(engine.AbortedRunError) as earlier:
        engine.run(spec, losses, make_rng(seeds[-1]))
    assert len(earlier.value.trace) < len(alone.value.trace)
    with pytest.raises(engine.AbortedRunError) as batched:
        engine.run_seeds(spec, losses, [make_rng(s) for s in seeds],
                         best_in_hindsight(aset, losses))
    assert str(batched.value) == str(alone.value)
    for field in dataclasses.fields(engine.Trace):
        assert np.array_equal(getattr(batched.value.trace, field.name),
                              getattr(alone.value.trace, field.name)), field.name


@pytest.mark.parametrize("d", [2, 5])
def test_run_seeds_matches_per_seed_runs_at_32_seeds(d):
    # 32 ball seeds look K up in one array call per round
    aset = geom.ball(d)
    losses = generate(AdversarySpec(kind="rotating_direction", geometry=geom.BALL, seed=d),
                      d, 300)
    competitor = best_in_hindsight(aset, losses)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.2)
    seeds = range(500, 532)
    increments, violations = engine.run_seeds(spec, losses, [make_rng(s) for s in seeds],
                                              competitor)
    for j, seed in enumerate(seeds):
        trace = engine.run(spec, losses, make_rng(seed))
        assert (np.cumsum(increments[:, j])
                == engine.cumulative_regret(trace, losses, competitor)).all()
        assert violations[j] == trace.step_violation.sum()


def _assert_ball_x_rows_exact(eta, xs, y_hats):
    """Each row of ``xs`` is x = theta / (1 + sqrt(1 + ||theta||^2)) at theta =
    -eta * (the estimates before it), bit for bit, and fails the abort test
    1 - x @ x < 1e-10 (or an overflowing ||theta||^2); return whether the
    round after the rows passes it, and the largest drift norm of the rows."""
    thetas = -eta * np.cumsum(np.vstack([np.zeros_like(y_hats[:1]), y_hats]), axis=0)
    norms = []
    for row, theta in itertools.zip_longest(xs, thetas):
        norm = math.sqrt(float(theta @ theta))
        x = theta / (1.0 + math.sqrt(1.0 + norm * norm))
        singular = 1.0 - float(x @ x) < 1e-10 or norm * norm == math.inf
        if row is None:
            return singular, max(norms, default=0.0)
        assert np.array_equal(row, x) and not singular
        norms.append(norm)


@pytest.mark.parametrize("d", [2, 5, 1024])
@pytest.mark.parametrize("rate,case", [(1e2, "below"), (1e5, "across"), (1e9, "aborts")])
def test_ball_x_rows_exact_across_the_guard_bound(d, rate, case):
    # a ball round tests for its abort only past a drift norm of 1e6, and the
    # x rows are mapped per block; both must keep the per-round map's bits
    aset = geom.ball(d)
    losses = ball_losses(d, 40, seed=3)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=rate)
    seeds = [4, 9]
    ends = []  # each seed's abort round, or 41
    for seed in seeds:
        try:
            trace = engine.run(spec, losses, make_rng(seed))
        except engine.AbortedRunError as info:
            trace = info.trace
            assert str(info).startswith(f"round {len(trace) + 1}: ")
        ends.append(len(trace) + 1)
        singular_next, largest = _assert_ball_x_rows_exact(rate, trace.x, trace.y_hat)
        assert singular_next == (len(trace) < 40)
        assert (largest <= 1e6) == (case == "below") and (len(trace) < 40) == (case == "aborts")
    # run_seeds plays both seeds together on (S, d) rows
    blocks = []
    local_norms = engine._local_norms

    def recording(aset, variant, eta, xs, y_hats):
        if xs.shape[1:] == (2, d):  # the batch, not the replay of its aborting seed
            blocks.append((xs.copy(), y_hats.copy()))
        return local_norms(aset, variant, eta, xs, y_hats)

    with mock.patch.object(engine, "_local_norms", recording):
        try:
            engine.run_seeds(spec, losses, [make_rng(s) for s in seeds],
                             best_in_hindsight(aset, losses))
        except engine.AbortedRunError as info:
            # the batch stops at the earliest abort; the first aborting seed raises
            assert str(info).startswith(f"round {ends[0]}: ")
    xs, y_hats = (np.concatenate(parts) for parts in zip(*blocks))
    assert len(xs) == min(ends) - 1
    singular_next = [_assert_ball_x_rows_exact(rate, xs[:, j], y_hats[:, j])[0]
                     for j in range(2)]
    assert any(singular_next) == (case == "aborts")


@pytest.mark.parametrize("kind,message", [
    (geom.HYPERCUBE, "round 2: expected action within 1e-10 of a vertex; "
                     "covariance numerically singular"),
    (geom.BALL, "round 2: expected action within 1e-10 of the sphere; "
                "local geometry numerically singular"),
])
def test_overflowing_drift_aborts_in_its_round(kind, message):
    # at eta = 1e160 round 2's theta^2 overflows, which would round x to 0
    aset = geom.ActionSetModel(dimension=2, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=3), 2, 50)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=1e160)
    with pytest.raises(engine.AbortedRunError) as alone:
        engine.run(spec, losses, make_rng(1))
    assert str(alone.value) == message and len(alone.value.trace) == 1
    with pytest.raises(engine.AbortedRunError) as batched:
        engine.run_seeds(spec, losses, [make_rng(1), make_rng(2)],
                         best_in_hindsight(aset, losses))
    assert str(batched.value) == message


# ---------------------------------------------------------------------------
# unbiasedness along trajectories
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("variant", [engine.SCFTPL, engine.SCRIBBLE])
def test_sampling_unbiased_at_fixed_state(variant):
    # round 1 has the fixed state Yhat = 0: the mean action over seeds must
    # match the expected action x_1 = center
    d = 2
    aset = geom.hypercube(d)
    losses = cube_losses(d, 1, seed=14)
    spec = engine.AlgorithmSpec(variant=variant, action_set=aset, learning_rate=0.1)
    actions = np.stack([
        engine.run(spec, losses, make_rng(1000 + s)).action[0]
        for s in range(1000)
    ])
    se = actions.std(axis=0) / math.sqrt(actions.shape[0])
    assert np.all(np.abs(actions.mean(axis=0)) <= 4.0 * np.maximum(se, 1e-6))


def test_hypercube_d1_drifts_against_fixed_loss():
    # constant +1 losses push the played action toward -1, tracking the
    # conjugate-gradient trajectory
    d, n, seeds = 1, 300, 200
    aset = geom.hypercube(d)
    losses = cube_losses(d, n, kind="fixed_vector", base=(1.0,))
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate="auto")
    final_actions = []
    final_expected = []
    for s in range(seeds):
        trace = engine.run(spec, losses, make_rng(4000 + s))
        final_actions.append(trace.action[-1, 0])
        final_expected.append(trace.x[-1, 0])
    mean_action = float(np.mean(final_actions))
    mean_x = float(np.mean(final_expected))
    assert mean_action < -0.3
    se = float(np.std(final_actions) / math.sqrt(seeds))
    assert abs(mean_action - mean_x) <= 4.0 * se


# ---------------------------------------------------------------------------
# step condition and violations
# ---------------------------------------------------------------------------

def test_step_condition_holds_for_auto_rate_hypercube():
    # n / ln n >= 24 d makes 2 eta ||yhat||_t <= 1 a theorem; every round must satisfy it
    d, n = 2, 2000
    losses = cube_losses(d, n, seed=15)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d))
    trace = engine.run(spec, losses, make_rng(58))
    assert not trace.step_violation.any()


def test_violation_flag_matches_local_norm():
    d, n = 2, 50
    losses = cube_losses(d, n, seed=16)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d),
                                learning_rate=5.0)  # absurd rate forces violations
    trace = engine.run(spec, losses, make_rng(59))
    eta = 5.0
    flags = [2.0 * eta * math.sqrt(v) > 1.0 for v in trace.local_norm_sq]
    assert flags == trace.step_violation.tolist()
    assert any(flags)


# ---------------------------------------------------------------------------
# determinism and fixtures
# ---------------------------------------------------------------------------

def test_runs_are_bit_reproducible():
    d, n = 2, 150
    losses = cube_losses(d, n, seed=17)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d))
    a = engine.run(spec, losses, make_rng(60))
    b = engine.run(spec, losses, make_rng(60))
    assert np.array_equal(a.action, b.action)
    assert np.array_equal(a.y_hat, b.y_hat)
    assert np.array_equal(a.scalar_loss, b.scalar_loss)


def test_pinned_cumulative_losses():
    # frozen fixtures: seed 99, d = 2, n = 100, seeded_random adversary 314
    cases = [
        (geom.hypercube(2), engine.SCFTPL, cube_losses(2, 100, seed=314),
         11.069428816408774),
        (geom.ball(2), engine.SCFTPL, ball_losses(2, 100, seed=314),
         -8.48976908676702),
        (geom.hypercube(2), engine.SCRIBBLE, cube_losses(2, 100, seed=314),
         -2.482665409764248),
        (geom.ball(2), engine.SCRIBBLE, ball_losses(2, 100, seed=314),
         -1.697783281196116),
    ]
    for aset, variant, losses, pinned in cases:
        spec = engine.AlgorithmSpec(variant=variant, action_set=aset)
        trace = engine.run(spec, losses, make_rng(99))
        assert math.isclose(sum(trace.scalar_loss.tolist()), pinned,
                            rel_tol=0, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# regret
# ---------------------------------------------------------------------------

def test_regret_against_played_competitor_is_zero():
    d = 2
    losses = cube_losses(d, 1, seed=18)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d),
                                learning_rate=0.1)
    trace = engine.run(spec, losses, make_rng(61))
    assert engine.regret(trace, losses, trace.action[0]) == 0.0


def test_regret_zero_losses():
    d, n = 2, 20
    losses = np.zeros((n, d))
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d),
                                learning_rate=0.1)
    trace = engine.run(spec, losses, make_rng(62))
    assert engine.regret(trace, losses, np.array([1.0, -1.0])) == 0.0


def test_best_in_hindsight_matches_vertex_enumeration():
    rng = make_rng(63)
    for d in (1, 2, 3):
        aset = geom.hypercube(d)
        losses = rng.standard_normal((30, d))
        u_star = best_in_hindsight(aset, losses)
        total = losses.sum(axis=0)
        vertices = np.array(np.meshgrid(*[[-1.0, 1.0]] * d)).T.reshape(-1, d)
        brute = vertices[np.argmin(vertices @ total)]
        assert math.isclose(float(u_star @ total), float(brute @ total), rel_tol=1e-12)


def test_cumulative_regret_consistent_with_total():
    d, n = 2, 80
    losses = cube_losses(d, n, seed=19)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d))
    trace = engine.run(spec, losses, make_rng(64))
    u = best_in_hindsight(geom.hypercube(d), losses)
    curve = engine.cumulative_regret(trace, losses, u)
    assert curve.shape == (n,)
    assert math.isclose(curve[-1], engine.regret(trace, losses, u), rel_tol=1e-12)
    # the array forms reproduce the per-round Python sums bit for bit
    per_round = [float(losses[i] @ (trace.action[i] - u)) for i in range(n)]
    assert np.array_equal(curve, np.cumsum(per_round))
    played = sum(float(losses[i] @ trace.action[i]) for i in range(n))
    assert engine.regret(trace, losses, u) == played - float(losses.sum(axis=0) @ u)


# ---------------------------------------------------------------------------
# Bregman diagnostic
# ---------------------------------------------------------------------------

def test_bregman_diagnostic_zero_estimate():
    aset = geom.hypercube(2)
    trace = engine.Trace(x=np.zeros((1, 2)), action=np.ones((1, 2)), y_hat=np.zeros((1, 2)),
                         scalar_loss=np.zeros(1), local_norm_sq=np.zeros(1),
                         step_violation=np.zeros(1, dtype=bool))
    out = engine.bregman_diagnostic(aset, 0.3, trace)
    assert out[0] == 0.0


@pytest.mark.parametrize("kind", [geom.HYPERCUBE, geom.BALL])
def test_bregman_diagnostic_bounds(kind):
    d, n = 2, 500
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=20), d, n)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset)
    trace = engine.run(spec, losses, make_rng(65))
    eta = engine.resolve_learning_rate(spec, n)
    divergences = engine.bregman_diagnostic(aset, eta, trace)
    assert np.all(divergences >= -1e-12)
    for norm_sq, div in zip(trace.local_norm_sq, divergences):
        if eta * math.sqrt(norm_sq) <= 0.5:
            assert div <= eta * eta * norm_sq + 1e-12


def _bregman_round_loop(aset, eta, trace):
    """The Bregman diagnostic round by round through the checked public operations."""
    out = []
    for y_hat_cum, y_hat in zip(trace.y_hat_cum, trace.y_hat):
        prev = -eta * y_hat_cum
        curr = prev - eta * y_hat
        out.append(geom.conjugate_value(aset, curr) - geom.conjugate_value(aset, prev)
                   + eta * float(y_hat @ geom.conjugate_gradient(aset, prev)))
    return np.array(out)


@pytest.mark.parametrize("kind", [geom.HYPERCUBE, geom.BALL])
@pytest.mark.parametrize("d", [1, 2, 5, 33, 300])
def test_bregman_diagnostic_equals_the_round_loop(kind, d):
    # estimates from 1e-3 to 1e160 put drifts past the 1e150 asymptote and
    # the conjugate gradient's clip; d = 300 sums its terms pairwise
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    n = 80
    y_hat = np.random.default_rng(d).standard_normal((n, d)) * np.logspace(-3, 160, n)[:, None]
    y_hat[[0, 7]] = 0.0
    traces = [engine.Trace(x=np.zeros((n, d)), action=np.zeros((n, d)), y_hat=y_hat,
                           scalar_loss=np.zeros(n), local_norm_sq=np.zeros(n),
                           step_violation=np.zeros(n, dtype=bool))]
    if d <= 33:
        losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=d), d, 300)
        spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.3)
        traces.append(engine.run(spec, losses, make_rng(d)))
    for trace in traces:
        for eta in (0.3, 1e-3):
            assert (engine.bregman_diagnostic(aset, eta, trace)
                    == _bregman_round_loop(aset, eta, trace)).all()
    assert engine.bregman_diagnostic(aset, 0.3, traces[0].head(0)).shape == (0,)


# ---------------------------------------------------------------------------
# aborted runs
# ---------------------------------------------------------------------------

_ABORTING_RUNS = [
    # an absurd learning rate drives the expected action into a vertex
    # (residual 1 - x^2 ~ 2/(eta * t) for the constant loss, so eta = 1e9
    # crosses the 1e-10 singularity floor within ~20 rounds)
    (geom.HYPERCUBE, engine.SCFTPL, 1, {"kind": "fixed_vector", "base": (1.0,)}, 1e9, 66,
     None),
    (geom.BALL, engine.SCFTPL, 2, {"kind": "seeded_random", "seed": 3}, 1e8, 2,
     "round 52: expected action within 1e-10 of the sphere; "
     "local geometry numerically singular"),
    # the Dikin-pole run keeps the message of the interior check it shares
    # with the module-level barrier operations
    (geom.HYPERCUBE, engine.SCRIBBLE, 1, {"kind": "fixed_vector", "base": (1.0,)}, 10.0, 66,
     "round 14: x is within 1e-12 of the boundary of the hypercube (gap=1.543e-13); "
     "barrier operations need a strictly interior point"),
]


def test_aborted_run_carries_partial_trace():
    for case in _ABORTING_RUNS:
        _assert_abort_keeps_cut_run(*case)


def _assert_abort_keeps_cut_run(kind, variant, d, adversary, rate, seed, message):
    losses = generate(AdversarySpec(geometry=kind, **adversary), d, 100)
    spec = engine.AlgorithmSpec(variant=variant, learning_rate=rate,
                                action_set=geom.ActionSetModel(dimension=d, kind=kind))
    with pytest.raises(engine.AbortedRunError) as info:
        engine.run(spec, losses, make_rng(seed))
    trace = info.value.trace
    assert 1 <= len(trace) < 100
    assert trace.x.shape == (len(trace), d)
    if message is not None:
        assert str(info.value) == message
    # the rows kept are the rounds played before the abort, every field
    # filled, identical to a run cut to that horizon at a learning rate
    # fixed to the same value
    cut = engine.run(spec, losses[:len(trace)], make_rng(seed))
    for field in dataclasses.fields(engine.Trace):
        assert np.array_equal(getattr(trace, field.name), getattr(cut, field.name)), field.name


def test_loss_normalization_is_enforced():
    d = 2
    losses = np.full((5, d), 0.9)  # l1 norm 1.8 > 1 on the hypercube
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.hypercube(d),
                                learning_rate=0.1)
    with pytest.raises(ValueError, match="normalization"):
        engine.run(spec, losses, make_rng(67))


_ALL_PAIRS = [(geom.HYPERCUBE, engine.SCFTPL), (geom.BALL, engine.SCFTPL),
              (geom.HYPERCUBE, engine.SCRIBBLE), (geom.BALL, engine.SCRIBBLE)]


@pytest.mark.parametrize("kind,variant", _ALL_PAIRS)
@pytest.mark.parametrize("bad_row", [[np.nan, 0.0], [0.9, 0.9]], ids=["nan", "l1_1.8"])
def test_bad_losses_raise_before_any_draw(kind, variant, bad_row):
    # round 3 of 5 breaks the normalization on both bodies: a NaN, or
    # l1 norm 1.8 (l2 norm 1.27), whatever action the learner would play
    losses = np.full((5, 2), 0.25)
    losses[2] = bad_row
    spec = engine.AlgorithmSpec(variant=variant, learning_rate=0.1,
                                action_set=geom.ActionSetModel(dimension=2, kind=kind))
    rng = make_rng(68)
    with pytest.raises(ValueError, match="normalization"):
        engine.run(spec, losses, rng)
    assert rng.random() == make_rng(68).random()


@pytest.mark.parametrize("kind,variant", _ALL_PAIRS)
def test_empty_losses_give_an_empty_trace(kind, variant):
    spec = engine.AlgorithmSpec(variant=variant, learning_rate=0.1,
                                action_set=geom.ActionSetModel(dimension=2, kind=kind))
    trace = engine.run(spec, np.empty((0, 2)), make_rng(69))
    assert len(trace) == 0 and trace.action.shape == (0, 2)


@pytest.mark.parametrize("kind,variant", _ALL_PAIRS)
@pytest.mark.parametrize("seeds", [1, 3])
def test_completing_run_seeds_builds_no_trace(kind, variant, seeds):
    # every block is reduced as it comes: no run, no (n, d) trace, also for
    # one seed and for the Dikin-pole seeds that run one at a time
    aset = geom.ActionSetModel(dimension=3, kind=kind)
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=5), 3, 200)
    spec = engine.AlgorithmSpec(variant=variant, action_set=aset)
    refuse = mock.Mock(side_effect=AssertionError("a Trace was built"))
    with mock.patch.object(engine, "run", refuse), \
            mock.patch.object(engine.Trace, "empty", refuse):
        increments, violations = engine.run_seeds(spec, losses,
                                                  [make_rng(s) for s in range(seeds)],
                                                  best_in_hindsight(aset, losses))
    assert increments.shape == (200, seeds) and violations.shape == (seeds,)


def test_k_cache_for_prebuilds_the_reach_of_a_ball_run(empty_k_grids):
    # one grid per d for the process, extended to the reach of a longer run;
    # the runs that read no K get none
    ball5 = geom.ball(5)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=ball5)
    cache = engine.k_cache_for(spec, 2)
    assert cache.d == 5 and len(cache._values) == 142  # the default reach, x up to 8
    assert engine.k_cache_for(spec, 20_000) is cache
    assert len(cache._values) == 264  # x up to 90.8, past 1.25 eta n
    reach = 1.25 * engine.resolve_learning_rate(spec, 20_000) * 20_000
    assert cache._values == est.KFunctionCache(5, x_max=reach)._values
    assert empty_k_grids == {5: cache}
    for variant, aset in ((engine.SCRIBBLE, ball5), (engine.SCFTPL, geom.hypercube(5)),
                          (engine.SCFTPL, geom.ball(1))):
        assert engine.k_cache_for(engine.AlgorithmSpec(variant=variant, action_set=aset),
                                  20_000) is None


def test_run_seeds_at_one_d_build_one_k_grid(empty_k_grids):
    # two horizons at d = 3: the second call extends the first call's grid
    aset = geom.ball(3)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.5)
    builds = mock.Mock(wraps=est.KFunctionCache)
    with mock.patch.object(engine, "KFunctionCache", builds):
        for n in (50, 400):
            losses = ball_losses(3, n, seed=n)
            engine.run_seeds(spec, losses, [make_rng(1), make_rng(2)],
                             best_in_hindsight(aset, losses))
    assert builds.call_count == 1


@pytest.mark.parametrize("d", [2, 5])
def test_ball_run_on_a_far_extended_grid_matches_a_fresh_grid(d, empty_k_grids):
    # node i is K(sinh(i h)) at any grid length, and a lookup reads four nodes
    aset = geom.ball(d)
    losses = ball_losses(d, 400, kind="rotating_direction", seed=d)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=0.5)
    fresh = engine.run(spec, losses, make_rng(17))
    far = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=aset, learning_rate=1e12)
    grid = engine.k_cache_for(far, 400)
    assert math.sinh((len(grid._values) - 3) * est.K_GRID_SPACING) >= 2.0 / est.SINGULARITY_FLOOR
    extended = engine.run(spec, losses, make_rng(17))
    for field in dataclasses.fields(engine.Trace):
        assert np.array_equal(getattr(extended, field.name), getattr(fresh, field.name)), field.name


def test_runs_start_no_thread():
    # bulk draws may split over threads; a run's noise blocks never do, so a
    # run process neither loads the thread pool nor starts a thread (scipy,
    # which a ball run loads, imports the concurrent.futures package itself;
    # its ThreadPoolExecutor lives in concurrent.futures.thread)
    code = """
import sys, threading
import scbandits.cli
from scbandits import action_sets as geom, engine
from scbandits.environments import AdversarySpec, generate
from scbandits.rng import make_rng
for kind in (geom.HYPERCUBE, geom.BALL):
    losses = generate(AdversarySpec(kind="seeded_random", geometry=kind, seed=3), 3, 400)
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL,
                                action_set=geom.ActionSetModel(dimension=3, kind=kind))
    engine.run(spec, losses, make_rng(5))
    print("concurrent.futures" in sys.modules, "concurrent.futures.thread" in sys.modules,
          threading.active_count())
"""
    src = str(Path(engine.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False", "1", "True", "False", "1"]
