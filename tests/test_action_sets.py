import math

import numpy as np
import pytest

from scbandits import action_sets as geom
from scbandits.estimation import local_norm_sq
from scbandits.rng import make_rng


def random_interior(aset, rng, scale=3.0):
    # conjugate gradient maps all of R^d strictly inside the body
    return geom.conjugate_gradient(aset, rng.standard_normal(aset.dimension) * scale)


def all_sets(dims=(1, 2, 3, 8)):
    for d in dims:
        yield geom.hypercube(d)
        yield geom.ball(d)


# ---------------------------------------------------------------------------
# linear minimizer
# ---------------------------------------------------------------------------

def test_linear_minimizer_hypercube_signs():
    out = geom.linear_minimizer(geom.hypercube(2), [3.0, -1.0])
    assert np.array_equal(out, [-1.0, 1.0])


def test_linear_minimizer_ball_antipodal():
    out = geom.linear_minimizer(geom.ball(2), [0.0, 2.0])
    assert np.allclose(out, [0.0, -1.0])
    assert math.isclose(np.linalg.norm(out), 1.0, rel_tol=1e-15)


def test_linear_minimizer_tie_breaks():
    assert np.array_equal(geom.linear_minimizer(geom.hypercube(3), [0.0, 0.0, 0.0]),
                          [1.0, 1.0, 1.0])
    assert np.array_equal(geom.linear_minimizer(geom.ball(2), [0.0, 0.0]), [1.0, 0.0])


def test_linear_minimizer_rejects_non_finite():
    with pytest.raises(ValueError):
        geom.linear_minimizer(geom.hypercube(2), [np.nan, 0.0])
    with pytest.raises(ValueError):
        geom.linear_minimizer(geom.ball(2), [np.inf, 0.0])


def test_linear_minimizer_is_support_minimizer():
    rng = make_rng(7)
    for aset in all_sets((2, 3)):
        for _ in range(50):
            direction = rng.standard_normal(aset.dimension)
            a = geom.linear_minimizer(aset, direction)
            # no interior point does better than the returned extreme point
            for _ in range(20):
                other = random_interior(aset, rng)
                assert a @ direction <= other @ direction + 1e-12


def test_grad_support_matches_minimizer_of_negated():
    rng = make_rng(8)
    for aset in all_sets((1, 2, 5)):
        pts = rng.standard_normal((40, aset.dimension))
        grads = geom.grad_support(aset, pts)
        for p, g in zip(pts, grads):
            assert np.allclose(g, geom.linear_minimizer(aset, -p), atol=1e-15)


# ---------------------------------------------------------------------------
# barrier values and derivatives
# ---------------------------------------------------------------------------

def test_barrier_value_examples():
    assert geom.barrier_value(geom.hypercube(2), [0.0, 0.0]) == 0.0
    assert geom.barrier_value(geom.ball(3), [0.0, 0.0, 0.0]) == 0.0
    assert math.isclose(geom.barrier_value(geom.hypercube(1), [0.5]),
                        -math.log(0.75), rel_tol=1e-15)


def test_barrier_rejects_boundary():
    with pytest.raises(geom.BoundaryError):
        geom.barrier_value(geom.hypercube(2), [1.0, 0.0])
    with pytest.raises(geom.BoundaryError):
        geom.barrier_value(geom.ball(2), [0.8, 0.6])
    with pytest.raises(geom.BoundaryError):
        geom.barrier_hessian(geom.hypercube(1), [1.0 - 1e-13])


def test_barrier_hessian_examples():
    ctx = geom.barrier_hessian(geom.hypercube(1), [0.0])
    assert np.allclose(ctx.diag, [2.0])
    ctx = geom.barrier_hessian(geom.hypercube(1), [0.5])
    assert np.allclose(ctx.diag, [2.0 * 1.25 / 0.5625])
    ctx = geom.barrier_hessian(geom.ball(3), [0.0, 0.0, 0.0])
    assert ctx.coeff_identity == 2.0
    v = np.array([1.0, -2.0, 0.5])
    assert np.allclose(geom.hessian_matvec(ctx, v), 2.0 * v)


def test_barrier_gradient_matches_finite_differences():
    rng = make_rng(11)
    h = 1e-6
    for aset in all_sets((1, 2, 4)):
        for _ in range(10):
            x = random_interior(aset, rng, scale=1.5)
            grad = geom.barrier_gradient(aset, x)
            for i in range(aset.dimension):
                e = np.zeros(aset.dimension)
                e[i] = h
                num = (geom.barrier_value(aset, x + e) - geom.barrier_value(aset, x - e)) / (2 * h)
                assert math.isclose(grad[i], num, rel_tol=1e-5, abs_tol=1e-5)


def test_barrier_hessian_matches_finite_differences():
    rng = make_rng(12)
    h = 1e-5
    for aset in all_sets((2, 3)):
        x = random_interior(aset, rng, scale=1.0)
        ctx = geom.barrier_hessian(aset, x)
        for i in range(aset.dimension):
            e = np.zeros(aset.dimension)
            e[i] = h
            col = (geom.barrier_gradient(aset, x + e) - geom.barrier_gradient(aset, x - e)) / (2 * h)
            basis = np.zeros(aset.dimension)
            basis[i] = 1.0
            assert np.allclose(geom.hessian_matvec(ctx, basis), col, rtol=1e-5, atol=1e-5)


def test_hessian_inverse_roundtrip():
    rng = make_rng(13)
    for aset in all_sets((1, 3, 8)):
        x = random_interior(aset, rng)
        ctx = geom.barrier_hessian(aset, x)
        v = rng.standard_normal(aset.dimension)
        assert np.allclose(geom.hessian_inv_matvec(ctx, geom.hessian_matvec(ctx, v)), v,
                           rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# conjugate gradient / value
# ---------------------------------------------------------------------------

def test_conjugate_gradient_examples():
    assert np.array_equal(geom.conjugate_gradient(geom.hypercube(3), np.zeros(3)), np.zeros(3))
    out = geom.conjugate_gradient(geom.hypercube(1), [1.0])
    assert math.isclose(out[0], math.sqrt(2.0) - 1.0, rel_tol=1e-15)
    out = geom.conjugate_gradient(geom.ball(2), [1.0, 0.0])
    assert np.allclose(out, [math.sqrt(2.0) - 1.0, 0.0], atol=1e-15)


def test_conjugate_gradient_is_interior():
    rng = make_rng(14)
    for aset in all_sets():
        for scale in (0.1, 1.0, 100.0, 1e8):
            x = random_interior(aset, rng, scale=scale)
            assert geom.interior_gap(aset, x) > 0.0


_COORDINATE_CASES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 0.5, -3.0,
                     1e150, -1e150, math.nextafter(1e150, 0.0), math.nextafter(1e150, math.inf),
                     -math.nextafter(1e150, math.inf), 1.34e154, -1.34e154, 1e300, -1e300,
                     4.5e15, 1e16, math.inf, -math.inf, math.nan]


def test_cube_coordinate_map_equals_the_dense_map():
    # the hypercube's Dikin-pole round maps one coordinate at a time: signed
    # zeros, subnormals, both sides of the 1e150 asymptote, past where t * t
    # overflows (1.34e154), infinities and NaN round as the kernel's do
    aset = geom.hypercube(len(_COORDINATE_CASES))
    dense = geom._conjugate_gradient(aset, np.array(_COORDINATE_CASES))
    sparse = np.array([geom._cube_coordinate(t) for t in _COORDINATE_CASES])
    assert dense.tobytes() == sparse.tobytes()


def test_conjugacy_roundtrip_tight():
    rng = make_rng(15)
    for aset in all_sets():
        for _ in range(50):
            theta = rng.standard_normal(aset.dimension) * rng.uniform(0.1, 10.0)
            back = geom.barrier_gradient(aset, geom.conjugate_gradient(aset, theta))
            assert np.allclose(back, theta, rtol=1e-10, atol=1e-10)


def test_conjugate_value_examples():
    assert geom.conjugate_value(geom.hypercube(2), np.zeros(2)) == 0.0
    assert geom.conjugate_value(geom.ball(3), np.zeros(3)) == 0.0
    expected = (math.sqrt(2) - 1.0) + math.log(2.0 * (math.sqrt(2) - 1.0))
    assert math.isclose(geom.conjugate_value(geom.hypercube(1), [1.0]), expected, rel_tol=1e-12)


def test_conjugate_value_against_grid_maximization():
    # independent oracle: brute-force the sup of <x, theta> - R(x) on a grid
    grid = np.linspace(-1.0 + 1e-7, 1.0 - 1e-7, 400001)
    barrier = -np.log1p(-grid * grid)
    rng = make_rng(16)
    for _ in range(10):
        theta = float(rng.standard_normal() * rng.uniform(0.2, 3.0))
        oracle = float(np.max(grid * theta - barrier))
        assert math.isclose(geom.conjugate_value(geom.hypercube(1), [theta]), oracle,
                            rel_tol=0, abs_tol=1e-6)
        d = int(rng.integers(2, 5))
        tvec = rng.standard_normal(d)
        tvec *= abs(theta) / np.linalg.norm(tvec)
        oracle_radial = float(np.max(grid * abs(theta) - barrier))
        assert math.isclose(geom.conjugate_value(geom.ball(d), tvec), oracle_radial,
                            rel_tol=0, abs_tol=1e-6)


def test_conjugate_maps_handle_extreme_arguments():
    # any finite theta must map strictly inside the body and to a finite value
    for aset in (geom.hypercube(2), geom.ball(2)):
        for scale in (1e10, 1e16, 1e140, 1e300):
            theta = np.array([scale, -scale / 2.0])
            image = geom.conjugate_gradient(aset, theta)
            assert np.all(np.isfinite(image))
            assert geom.interior_gap(aset, image) > 0.0
            value = geom.conjugate_value(aset, theta)
            assert np.isfinite(value) and value > 0.0


def test_conjugate_value_envelope_identity():
    rng = make_rng(17)
    for aset in all_sets((1, 2, 6)):
        theta = rng.standard_normal(aset.dimension) * 2.0
        x = geom.conjugate_gradient(aset, theta)
        direct = float(x @ theta) - geom.barrier_value(aset, x)
        assert math.isclose(geom.conjugate_value(aset, theta), direct, rel_tol=1e-12, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Minkowski gauge
# ---------------------------------------------------------------------------

def test_gauge_examples():
    for aset in (geom.hypercube(2), geom.ball(2)):
        center = np.array([0.1, -0.2])
        assert geom.minkowski_gauge(aset, center, center) == 0.0
    assert math.isclose(geom.minkowski_gauge(geom.hypercube(1), [0.0], [0.5]), 0.5, rel_tol=1e-15)
    assert math.isclose(geom.minkowski_gauge(geom.ball(2), [0.0, 0.0], [0.6, 0.8]),
                        1.0, rel_tol=1e-12)


def test_gauge_boundary_scaling():
    # center + (y - center)/gauge must land on the boundary
    rng = make_rng(18)
    for aset in all_sets((2, 3)):
        for _ in range(30):
            x = random_interior(aset, rng, scale=1.0)
            y = random_interior(aset, rng, scale=2.0)
            g = geom.minkowski_gauge(aset, x, y)
            if g == 0.0:
                continue
            boundary = x + (y - x) / g
            assert abs(geom.interior_gap(aset, boundary)) < 1e-9


def test_gauge_requires_interior_center():
    with pytest.raises(geom.BoundaryError):
        geom.minkowski_gauge(geom.ball(2), [1.0, 0.0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# Dikin ellipsoid and barrier growth properties
# ---------------------------------------------------------------------------

def test_dikin_containment_property():
    # for ||v||_x = 1 - 1e-6 the point x + v stays interior
    rng = make_rng(19)
    count = 0
    for aset in all_sets():
        for _ in range(150):
            x = random_interior(aset, rng)
            v = rng.standard_normal(aset.dimension)
            ctx = geom.barrier_hessian(aset, x)
            norm = math.sqrt(local_norm_sq(ctx, v))
            v *= (1.0 - 1e-6) / norm
            assert geom.interior_gap(aset, x + v) > 0.0
            count += 1
    assert count >= 1000


def test_bregman_local_smoothness():
    # B(y, x) <= rho(t) with rho(t) = -ln(1-t) - t, and B(y, x) <= t^2 for t <= 1/2
    rng = make_rng(20)
    for aset in all_sets((1, 2, 3, 8)):
        for _ in range(100):
            x = random_interior(aset, rng)
            w = rng.standard_normal(aset.dimension)
            ctx = geom.barrier_hessian(aset, x)
            t = rng.uniform(0.01, 0.5)
            w *= t / math.sqrt(local_norm_sq(ctx, w))
            breg = (geom.barrier_value(aset, x + w) - geom.barrier_value(aset, x)
                    - float(geom.barrier_gradient(aset, x) @ w))
            assert breg <= -math.log1p(-t) - t + 1e-10
            assert breg <= t * t + 1e-10
            assert breg >= -1e-12


def test_barrier_growth_lemma():
    rng = make_rng(21)
    for aset in all_sets((1, 2, 3, 8)):
        theta = aset.barrier_parameter
        for _ in range(100):
            x = random_interior(aset, rng)
            y = random_interior(aset, rng)
            gauge = geom.minkowski_gauge(aset, x, y)
            assert gauge < 1.0
            lhs = geom.barrier_value(aset, y) - geom.barrier_value(aset, x)
            assert lhs <= -theta * math.log1p(-gauge) + 1e-9


# ---------------------------------------------------------------------------
# Dikin poles
# ---------------------------------------------------------------------------

def test_dikin_pole_unit_local_norm_and_interior():
    rng = make_rng(22)
    for aset in all_sets((2, 3, 8)):
        for _ in range(25):
            x = random_interior(aset, rng)
            ctx = geom.barrier_hessian(aset, x)
            for index in range(aset.dimension):
                for sign in (1, -1):
                    pole = geom.dikin_pole(aset, x, index, sign)
                    assert geom.interior_gap(aset, pole) > 0.0
                    assert math.isclose(local_norm_sq(ctx, pole - x), 1.0, rel_tol=1e-9)


def test_dikin_poles_are_orthogonal_eigendirections():
    rng = make_rng(23)
    aset = geom.ball(4)
    x = random_interior(aset, rng)
    ctx = geom.barrier_hessian(aset, x)
    offsets = [geom.dikin_pole(aset, x, i, 1) - x for i in range(4)]
    for i in range(4):
        hv = geom.hessian_matvec(ctx, offsets[i])
        # H offset is collinear with offset: offsets are eigenvectors
        cosine = float(hv @ offsets[i]) / (np.linalg.norm(hv) * np.linalg.norm(offsets[i]))
        assert math.isclose(cosine, 1.0, rel_tol=1e-12)
        for j in range(i + 1, 4):
            assert abs(offsets[i] @ offsets[j]) < 1e-12


def test_model_validation():
    for dimension in (0, True, 2.0):  # a bool would be accepted as d = 1
        with pytest.raises(ValueError):
            geom.ActionSetModel(dimension=dimension, kind=geom.BALL)
    with pytest.raises(ValueError):
        geom.ActionSetModel(dimension=0, kind=geom.HYPERCUBE)
    with pytest.raises(ValueError):
        geom.ActionSetModel(dimension=3, kind="simplex")
    assert geom.hypercube(4).barrier_parameter == 4.0
    assert geom.ball(4).barrier_parameter == 1.0
