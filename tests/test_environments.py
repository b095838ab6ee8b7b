import math
import warnings

import numpy as np
import pytest

from scbandits import action_sets as geom
from scbandits import environments as env
from scbandits.rng import make_rng


def test_fixed_vector_hypercube():
    spec = env.AdversarySpec(kind=env.FIXED_VECTOR, geometry=geom.HYPERCUBE,
                             base=(1.0, 0.0, 0.0))
    losses = env.generate(spec, 3, 10)
    assert losses.shape == (10, 3)
    assert np.array_equal(losses, np.tile([1.0, 0.0, 0.0], (10, 1)))
    assert np.allclose(np.sum(np.abs(losses), axis=1), 1.0)


def test_fixed_vector_normalization_divides_out():
    spec = env.AdversarySpec(kind=env.FIXED_VECTOR, geometry=geom.BALL, base=(3.0, 4.0))
    losses = env.generate(spec, 2, 4)
    assert np.allclose(losses, np.tile([0.6, 0.8], (4, 1)))


def test_switching_flips_at_period():
    spec = env.AdversarySpec(kind=env.PIECEWISE_SWITCHING, geometry=geom.HYPERCUBE, period=5)
    losses = env.generate(spec, 2, 20)
    assert np.array_equal(losses[0], losses[4])
    assert np.array_equal(losses[5], -losses[0])
    assert np.array_equal(losses[10], losses[0])


def test_switching_default_period_is_half_horizon():
    spec = env.AdversarySpec(kind=env.PIECEWISE_SWITCHING, geometry=geom.HYPERCUBE)
    losses = env.generate(spec, 2, 10)
    assert np.array_equal(losses[4], losses[0])
    assert np.array_equal(losses[5], -losses[0])


def test_rotating_direction_turns():
    spec = env.AdversarySpec(kind=env.ROTATING_DIRECTION, geometry=geom.BALL,
                             angle=math.pi / 2)
    losses = env.generate(spec, 2, 4)
    assert np.allclose(losses[0], [1.0, 0.0], atol=1e-15)
    assert np.allclose(losses[1], [0.0, 1.0], atol=1e-12)
    assert np.allclose(losses[2], [-1.0, 0.0], atol=1e-12)
    with pytest.raises(ValueError):
        env.generate(env.AdversarySpec(kind=env.ROTATING_DIRECTION, geometry=geom.BALL), 1, 5)


def test_seeded_random_is_deterministic_and_oblivious_by_shape():
    spec = env.AdversarySpec(kind=env.SEEDED_RANDOM, geometry=geom.BALL, seed=5)
    a = env.generate(spec, 4, 50)
    b = env.generate(spec, 4, 50)
    assert np.array_equal(a, b)
    c = env.generate(env.AdversarySpec(kind=env.SEEDED_RANDOM, geometry=geom.BALL, seed=6), 4, 50)
    assert not np.array_equal(a, c)


def test_boundedness_property_many_random_specs():
    rng = make_rng(70)
    kinds = (env.FIXED_VECTOR, env.PIECEWISE_SWITCHING, env.ROTATING_DIRECTION,
             env.SEEDED_RANDOM)
    checked = 0
    for i in range(1000):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        geometry = geom.HYPERCUBE if rng.random() < 0.5 else geom.BALL
        d = int(rng.integers(2, 6))
        base = tuple(rng.standard_normal(d))
        spec = env.AdversarySpec(
            kind=kind, geometry=geometry, base=base,
            period=int(rng.integers(1, 10)), angle=float(rng.uniform(0, 1)),
            seed=int(rng.integers(0, 2**32)))
        losses = env.generate(spec, d, 16)
        aset = geom.ActionSetModel(dimension=d, kind=geometry)
        assert env.boundedness_violation(aset, losses) <= 1e-12
        checked += 1
    assert checked == 1000


def test_zero_base_rejected():
    spec = env.AdversarySpec(kind=env.FIXED_VECTOR, geometry=geom.HYPERCUBE,
                             base=(0.0, 0.0))
    with pytest.raises(ValueError):
        env.generate(spec, 2, 5)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        env.AdversarySpec(kind="adaptive", geometry=geom.HYPERCUBE)


def test_best_in_hindsight_examples():
    aset = geom.hypercube(3)
    losses = np.tile([1.0, 0.0, 0.0], (7, 1))
    u = env.best_in_hindsight(aset, losses)
    assert u[0] == -1.0
    assert set(np.abs(u)) == {1.0}

    bset = geom.ball(2)
    losses = np.tile([0.6, 0.8], (5, 1))
    u = env.best_in_hindsight(bset, losses)
    assert np.allclose(u, [-0.6, -0.8], rtol=1e-12)


def test_best_in_hindsight_zero_sum_tie():
    aset = geom.hypercube(2)
    losses = np.array([[1.0, 0.0], [-1.0, 0.0]])
    u = env.best_in_hindsight(aset, losses)
    # any point is optimal; tie-break returns a vertex with zero regret gap
    assert float(losses.sum(axis=0) @ u) == 0.0


@pytest.mark.parametrize("geometry,kind,base", [
    (geom.HYPERCUBE, env.FIXED_VECTOR, (1e308, 1e308)),
    (geom.BALL, env.FIXED_VECTOR, (1e308, 1e308)),
    # a finite l1 norm that |cos| + |sin| > 1 pushes past the largest double
    (geom.HYPERCUBE, env.ROTATING_DIRECTION, (1.7e308, 0.0)),
])
def test_losses_with_an_infinite_support_norm_are_rejected(geometry, kind, base):
    # dividing by an infinite norm would give all-zero losses
    spec = env.AdversarySpec(kind=kind, geometry=geometry, base=base, angle=0.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="support norm is 0 or not finite"):
            env.generate(spec, 2, 4)


@pytest.mark.parametrize("geometry", [geom.HYPERCUBE, geom.BALL])
@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_support_norms_in_blocks_equal_whole_array_reductions(monkeypatch, geometry, block):
    # blocks of any size give each row the bits of one whole-array reduction,
    # and generate divides by them in place
    monkeypatch.setattr(env, "_NORM_BLOCK", block)
    rng = make_rng(71)
    for d in (1, 3, 9, 130, 1024):
        rows = rng.standard_normal((50, d)) * rng.uniform(0.1, 10.0, (50, 1))
        whole = (np.sum(np.abs(rows), axis=1) if geometry == geom.HYPERCUBE
                 else np.linalg.norm(rows, axis=1))
        aset = geom.ActionSetModel(dimension=d, kind=geometry)
        assert np.array_equal(env.support_norms(aset, rows), whole)
        spec = env.AdversarySpec(kind=env.SEEDED_RANDOM, geometry=geometry, seed=d)
        drawn = make_rng(d).standard_normal((50, d))
        scale = (np.sum(np.abs(drawn), axis=1) if geometry == geom.HYPERCUBE
                 else np.linalg.norm(drawn, axis=1))
        assert np.array_equal(env.generate(spec, d, 50), drawn / scale[:, None])
