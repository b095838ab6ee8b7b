import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from scbandits import action_sets as geom
from scbandits import perturbations as pert
from scbandits.rng import gaussians, make_rng

# ---------------------------------------------------------------------------
# hypercube marginal law
# ---------------------------------------------------------------------------

def test_marginal_density_values():
    assert pert.density_hypercube_marginal(0.0) == 0.25
    assert math.isclose(pert.density_hypercube_marginal(1.0),
                        (math.sqrt(2) - 1) / (2 * math.sqrt(2)), rel_tol=1e-15)
    # raw formula agreement away from zero
    for t in (0.3, -2.0, 17.0):
        raw = (math.sqrt(1 + t * t) - 1) / (2 * t * t * math.sqrt(1 + t * t))
        assert math.isclose(pert.density_hypercube_marginal(t), raw, rel_tol=1e-14)


def test_marginal_density_tail_power():
    # f(t) * t^2 -> 1/2 in the tails
    for t in (1e3, 1e6, -1e6):
        assert math.isclose(pert.density_hypercube_marginal(t) * t * t, 0.5, rel_tol=1e-3)


def test_marginal_density_is_even():
    ts = np.linspace(0.0, 50.0, 1001)
    assert np.array_equal(pert.density_hypercube_marginal(ts),
                          pert.density_hypercube_marginal(-ts))


def test_marginal_normalization_quadrature():
    total, err = integrate.quad(pert.density_hypercube_marginal, -np.inf, np.inf, limit=200)
    assert abs(total - 1.0) <= 1e-8
    assert err < 1e-8


def test_cdf_is_antiderivative_of_density():
    for t in (-5.0, -0.7, 0.0, 0.4, 3.0):
        num, _ = integrate.quad(pert.density_hypercube_marginal, -np.inf, t, limit=200)
        assert math.isclose(pert.cdf_hypercube_marginal(t), num, abs_tol=1e-9, rel_tol=0)


def test_inverse_cdf_examples():
    assert pert.inverse_cdf_hypercube(0.5) == 0.0
    assert math.isclose(pert.inverse_cdf_hypercube(0.25), -4.0 / 3.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(pert.inverse_cdf_hypercube(0.75), 4.0 / 3.0, rel_tol=0, abs_tol=1e-12)


def test_inverse_cdf_roundtrip():
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    back = pert.cdf_hypercube_marginal(pert.inverse_cdf_hypercube(grid))
    assert np.max(np.abs(back - grid)) <= 1e-12


def test_inverse_cdf_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            pert.inverse_cdf_hypercube(bad)


def test_heavy_tail_truncated_moment_growth():
    # the truncated first moment grows like ln M: no finite first moment
    values = {}
    for m_cut in (1e2, 1e4, 1e6):
        val, _ = integrate.quad(lambda t: 2.0 * t * pert.density_hypercube_marginal(t),
                                0.0, m_cut, limit=400)
        values[m_cut] = val
        assert val >= 0.5 * math.log(m_cut)
    growth = values[1e6] - values[1e2]
    assert math.isclose(growth, math.log(1e6 / 1e2), rel_tol=0.12)


# ---------------------------------------------------------------------------
# hypercube sampling
# ---------------------------------------------------------------------------

def test_sample_hypercube_pinned_fixture():
    draw = pert.draw(geom.hypercube(2), make_rng(2024), 1)[0]
    assert np.allclose(draw, [1.3689629576361675, 0.678707262094362], rtol=0, atol=1e-15)


def test_sample_hypercube_statistics():
    rng = make_rng(31)
    draws = pert.draw(geom.hypercube(2), rng, size=10**5)
    assert draws.shape == (10**5, 2)
    # symmetric median
    med = np.median(draws, axis=0)
    assert np.all(np.abs(med) < 0.02)
    # tail probability against the quadrature of the density
    tail_oracle, _ = integrate.quad(pert.density_hypercube_marginal, 10.0, np.inf, limit=200)
    emp = np.mean(np.abs(draws) > 10.0)
    assert abs(emp - 2.0 * tail_oracle) < 0.002


# ---------------------------------------------------------------------------
# ball density
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_ball_density_normalizes(d):
    surface = math.exp(pert.log_sphere_surface(d - 1))

    def radial_mass(r):
        return surface * pert.radial_profile_ball(r, d) * r ** (d - 1)

    head, _ = integrate.quad(radial_mass, 0.0, 30.0, limit=300)
    tail, _ = integrate.quad(radial_mass, 30.0, np.inf, limit=300)
    assert abs(head + tail - 1.0) <= 1e-6


def test_ball_density_rotation_invariant():
    rng = make_rng(32)
    d = 3
    x = rng.standard_normal(d)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    assert math.isclose(pert.density_ball(x), pert.density_ball(q @ x), rel_tol=1e-9)


def test_ball_density_d1_matches_hypercube_marginal():
    # in one dimension the ball is the segment [-1, 1]: same perturbation law
    for t in (0.2, 1.0, 7.0):
        assert math.isclose(pert.density_ball(np.array([t])),
                            pert.density_hypercube_marginal(t), rel_tol=1e-10)


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_radial_closed_forms_match_quadrature(d):
    # the incomplete-beta radial density/CDF used by the sampler against the
    # direct quadrature route
    surface = math.exp(pert.log_sphere_surface(d - 1))
    for r in (0.05, 0.4, 1.3, 6.0, 40.0):
        by_quad = surface * pert.radial_profile_ball(r, d) * r ** (d - 1)
        assert math.isclose(pert.radial_density_ball(r, d), by_quad, rel_tol=1e-9)
    for r in (0.3, 2.0, 12.0):
        mass, _ = integrate.quad(
            lambda s: surface * pert.radial_profile_ball(s, d) * s ** (d - 1),
            0.0, r, limit=300)
        assert math.isclose(pert.radial_cdf_ball(r, d), mass, abs_tol=1e-8)


# ---------------------------------------------------------------------------
# radial table
# ---------------------------------------------------------------------------

def test_radial_table_invariants():
    table = pert.RadialTable.build(3)
    assert table.nodes.size == pert.RADIAL_TABLE_NODES
    assert np.all(np.diff(table.cdf) > 0.0)
    assert table.cdf[-1] >= 1.0 - 1e-6
    assert table.nodes[0] == 0.0 and table.cdf[0] == 0.0


def test_radial_table_coverage_guard():
    with pytest.raises(ValueError):  # tail mass ~1e-2 at s = 100, far above budget
        pert.require_tail_budget(pert.radial_cdf_ball(100.0, 3))


def test_radial_table_inverse_accuracy():
    table = pert.RadialTable.build(3)
    us = np.linspace(1e-6, 1.0 - 2e-6, 2001)
    ss = table.inverse(us)
    assert np.all(np.diff(ss) >= 0.0)
    back = pert.radial_cdf_ball(ss, 3)
    assert np.max(np.abs(back - us)) < 1e-9


def test_radial_table_inverse_alone_matches_batch():
    # the engine pushes a block of speed uniforms through inverse at once;
    # each element must come out as it does on its own
    table = pert.RadialTable.build(2)
    rng = make_rng(33)
    us = np.concatenate([[2.0**-54, 1.0 - 2.0**-53], rng.random(200) * (1 - 2e-9) + 1e-9])
    batch = table.inverse(us)
    for u, s in zip(us, batch):
        assert table.inverse(np.array([u]))[0] == s


def _two_call_law(s, d):
    """The speed density and CDF as separate formulas, each with its own betainc
    call, as the Newton polish once evaluated them."""
    from scipy.special import betainc

    ssq = np.where(s > 0.0, s * s, 1.0)
    density = np.where(s > 0.0, betainc((d + 1) / 2.0, d / 2.0, ssq / (1.0 + ssq)) / ssq,
                       0.5 if d == 1 else 0.0)
    w = s * s / (1.0 + s * s)
    cdf = np.where(s > 0.0, betainc(d / 2.0, (d + 1) / 2.0, w)
                   - betainc((d + 1) / 2.0, d / 2.0, w) / np.where(s > 0.0, s, 1.0), 0.0)
    return density, cdf


def _two_call_inverse(table, u):
    idx = np.clip(np.searchsorted(table.cdf, u, side="right"), 1, table.nodes.size - 1)
    lo, hi = table.nodes[idx - 1], table.nodes[idx]
    clo, chi = table.cdf[idx - 1], table.cdf[idx]
    s = lo + np.clip((u - clo) / (chi - clo), 0.0, 1.0) * (hi - lo)
    density, cdf = _two_call_law(s, table.d)
    return np.clip(s - (cdf - u) / np.maximum(density, 1e-300), lo, hi)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 64, 1024])
def test_radial_inverse_shares_one_betainc_bit_for_bit(d):
    # one betainc((d+1)/2, d/2, w) serves both the density and the CDF of the
    # Newton polish; the speeds equal those of the two-call step
    us = np.concatenate([[2.0**-54, 1.0 - 2.0**-53],
                         np.maximum(make_rng(90 + d).random(500_000 - 2), 2.0**-54)])
    table = pert.RadialTable.build(d)
    assert np.array_equal(table.inverse(us), _two_call_inverse(table, us))


@pytest.mark.parametrize("d", [1, 2, 5, 1024])
def test_radial_cdf_keeps_the_two_call_bits(d):
    # the speeds whose densities test_estimation pins bit for bit
    speeds = np.array([0.0] + [float(f"{m}e{k}") for k in range(-6, 6) for m in (1, 3)] + [1e6])
    _, cdf = _two_call_law(speeds, d)
    assert pert.radial_cdf_ball(speeds, d).tolist() == cdf.tolist()
    assert [pert.radial_cdf_ball(s, d) for s in speeds.tolist()] == cdf.tolist()


# ---------------------------------------------------------------------------
# ball sampling
# ---------------------------------------------------------------------------

def test_sample_ball_pinned_fixture():
    draw = pert.draw(geom.ball(3), make_rng(2024), 1)[0]
    assert np.allclose(draw, [0.8692093440869205, 0.7354293450870318, -1.5691266782732827],
                       rtol=0, atol=1e-15)


def test_sample_ball_radial_ks():
    d = 3
    draws = pert.draw(geom.ball(d), make_rng(34), size=10**5)
    speeds = np.linalg.norm(draws, axis=1)
    # reference CDF from quadrature of the radial profile (independent of the
    # incomplete-beta route used by the sampler)
    surface = math.exp(pert.log_sphere_surface(d - 1))
    grid = np.geomspace(1e-3, speeds.max() * 1.01, 600)
    masses = np.empty_like(grid)
    acc, lo = 0.0, 0.0
    for i, hi in enumerate(grid):
        chunk, _ = integrate.quad(
            lambda s: surface * pert.radial_profile_ball(s, d) * s ** (d - 1),
            lo, hi, limit=200)
        acc += chunk
        masses[i] = acc
        lo = hi
    ks = stats.kstest(speeds, lambda s: np.interp(s, grid, masses)).statistic
    assert ks <= 0.01


def test_sample_ball_direction_symmetry():
    draws = pert.draw(geom.ball(3), make_rng(35), size=10**5)
    directions = draws / np.linalg.norm(draws, axis=1, keepdims=True)
    se = directions.std(axis=0) / math.sqrt(draws.shape[0])
    assert np.all(np.abs(directions.mean(axis=0)) <= 3.0 * se)


# ---------------------------------------------------------------------------
# replication identity
# ---------------------------------------------------------------------------

def test_replication_hypercube_symmetric():
    aset = geom.hypercube(3)
    report = pert.verify_replication(aset, np.zeros(3), 10**5, make_rng(36))
    assert np.all(np.abs(report.mc_mean) <= 3.0 * report.stderr)
    assert np.array_equal(report.target, np.zeros(3))


def test_replication_hypercube_closed_form():
    aset = geom.hypercube(2)
    theta = np.array([1.0, -2.0])
    report = pert.verify_replication(aset, theta, 4 * 10**5, make_rng(37))
    expected = np.array([math.sqrt(2.0) - 1.0, -(math.sqrt(5.0) - 1.0) / 2.0])
    assert np.allclose(report.target, expected, atol=1e-12)
    assert report.max_sigma <= 4.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 4096), seed=st.integers(0, 2**32 - 1),
       top=st.integers(0, 300), pinned=st.sampled_from(
           [0.0, 1.0, 2e10, 1e150, 1.0000000000000002e150, 1.35e154, 1e300]))
def test_replication_hypercube_identity_at_extreme_drift(d, seed, top, pinned):
    # conjugate_gradient(theta) = E[grad_support(theta + xi)] = 1 - 2 F(-theta)
    # per coordinate, for |theta_i| log-uniform up to 10^top: through the
    # asymptotic branch above 1e150 (t^2 overflows from 1.34e154), and
    # around 2e10, where 1 - x_i^2 nears the engine's 1e-10 abort floor. Both sides evaluate t / (1 + sqrt(1 + t^2))
    # with the same roundings, so they differ only by the roundings of
    # 1/2 - g/2 and 1 - 2F and by conjugate_gradient's one-ulp saturation
    # below 1: at most 2^-54 + 2^-53 + 2^-53 < 2 eps.
    rng = make_rng(seed)
    theta = rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(-top, top, d)
    theta[0] = pinned
    theta[-1] = -pinned
    x = geom.conjugate_gradient(geom.hypercube(d), theta)
    replicated = 1.0 - 2.0 * pert.cdf_hypercube_marginal(-theta)
    assert np.max(np.abs(x - replicated)) <= 2.0 * np.finfo(float).eps
    assert np.all(np.abs(x) < 1.0)


def test_replication_ball_closed_form():
    aset = geom.ball(3)
    theta = np.array([1.0, 0.0, 0.0])
    report = pert.verify_replication(aset, theta, 4 * 10**5, make_rng(38))
    assert np.allclose(report.target, [math.sqrt(2.0) - 1.0, 0.0, 0.0], atol=1e-12)
    assert report.max_sigma <= 4.0


def test_replication_detects_perturbed_distribution(monkeypatch):
    # scaling the draws by 1% is a different distribution; the check must fail
    aset = geom.hypercube(1)
    draw = pert.draw
    monkeypatch.setattr(pert, "draw", lambda aset, rng, size: 1.01 * draw(aset, rng, size))
    report = pert.verify_replication(aset, np.array([1.3]), 6 * 10**6, make_rng(39))
    assert report.max_sigma > 4.0


def test_replication_sample_floor():
    with pytest.raises(ValueError):
        pert.verify_replication(geom.hypercube(1), np.zeros(1), 10, make_rng(0))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_draws_are_reproducible():
    for aset, seed in ((geom.ball(4), 77), (geom.hypercube(4), 78)):
        a = pert.draw(aset, make_rng(seed), size=50)
        b = pert.draw(aset, make_rng(seed), size=50)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# bulk draws split over threads
# ---------------------------------------------------------------------------

def _serial_ball_draw(d, rng, size):
    """The ball's bulk draw written out on whole arrays, as one thread computes it."""
    pairs = (d + 1) // 2
    normal = gaussians(rng, size * 2 * pairs).reshape(size, 2 * pairs)[:, :d]
    norms = np.linalg.norm(normal, axis=1, keepdims=True)
    speeds = pert.RadialTable.build(d).inverse(np.maximum(rng.random(size), 2.0**-54))
    return normal / np.where(norms > 0.0, norms, 1.0) * speeds[:, None]


_PART = pert._MIN_SHARE_ROWS
_SPLIT_SIZES = [1, 7, _PART - 1, _PART + 1, 2 * _PART - 1, 2 * _PART, 3 * _PART + 5]


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("d,sizes", [(1, _SPLIT_SIZES + [(1 << 17) + 1]),
                                     (2, _SPLIT_SIZES), (3, _SPLIT_SIZES + [(1 << 17) + 1]),
                                     (8, _SPLIT_SIZES + [(1 << 17) + 1]), (64, _SPLIT_SIZES)])
def test_ball_draws_are_bit_for_bit_at_any_part_count(monkeypatch, parts, d, sizes):
    monkeypatch.setattr(pert, "_usable_cpus", lambda: parts)
    for size in sizes:
        rng, ref_rng = make_rng(700 + d), make_rng(700 + d)
        got = pert.draw(geom.ball(d), rng, size=size)
        assert np.array_equal(got, _serial_ball_draw(d, ref_rng, size)), (d, size)
        assert np.array_equal(rng.random(3), ref_rng.random(3)), (d, size)


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_ball_draws_split_into_one_share_per_usable_cpu(monkeypatch, parts):
    shares = []
    block_rows = pert.block_rows

    def recording(n, width):
        shares.append(n)  # each share walks its rows in blocks
        return block_rows(n, width)

    monkeypatch.setattr(pert, "block_rows", recording)
    monkeypatch.setattr(pert, "_usable_cpus", lambda: parts)
    pert.draw(geom.ball(3), make_rng(1), size=3 * _PART + 2)
    assert sorted(shares) == sorted(2 * [(3 * _PART + 2) * (i + 1) // parts
                                         - (3 * _PART + 2) * i // parts for i in range(parts)])
    shares.clear()
    pert.draw(geom.ball(3), make_rng(1), size=2 * _PART - 1)  # too few rows for two shares
    assert shares == [2 * _PART - 1] * 2


def _serial_replication(aset, theta, n_samples, rng):
    """verify_replication's mean and standard error written out on whole batches."""
    total = total_sq = np.zeros(aset.dimension)
    for start in range(0, n_samples, 1 << 17):
        xi = pert.draw(aset, rng, size=min(1 << 17, n_samples - start))
        grads = geom.grad_support(aset, theta + xi)
        total = total + grads.sum(axis=0)
        total_sq = total_sq + (grads * grads).sum(axis=0)
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    return mean, np.maximum(np.sqrt(var / n_samples), 1.0 / n_samples)


@pytest.mark.parametrize("kind", [geom.HYPERCUBE, geom.BALL])
def test_replication_reports_equal_at_any_part_count(monkeypatch, kind):
    aset = geom.ActionSetModel(dimension=3, kind=kind)
    theta = np.array([0.4, -1.5, 2.0])
    n_samples = (1 << 17) + 3 * _PART + 1
    ref_rng = make_rng(41)
    mean, stderr = _serial_replication(aset, theta, n_samples, ref_rng)
    after = ref_rng.random(3)
    for parts in (1, 2, 3):
        monkeypatch.setattr(pert, "_usable_cpus", lambda: parts)
        rng = make_rng(41)
        report = pert.verify_replication(aset, theta, n_samples, rng)
        assert np.array_equal(report.mc_mean, mean) and np.array_equal(report.stderr, stderr)
        assert np.array_equal(rng.random(3), after)


@pytest.mark.parametrize("kind,d,shares", [(geom.HYPERCUBE, 1, 1), (geom.HYPERCUBE, 2, 2),
                                           (geom.BALL, 1, 1), (geom.BALL, 3, 2)])
def test_replication_splits_only_work_that_outweighs_a_thread(monkeypatch, kind, d, shares):
    # a batch of 2^17 rows: the support kernel's work per share decides the
    # split, so one np.where per value at d = 1 stays on the calling thread
    walked = []
    block_rows = pert.block_rows

    def recording(n, width):
        walked.append(n)
        return block_rows(n, width)

    aset = geom.ActionSetModel(dimension=d, kind=kind)
    xi = pert.draw(aset, make_rng(3), size=1 << 17)
    monkeypatch.setattr(pert, "draw", lambda aset, rng, size: xi.copy())
    monkeypatch.setattr(pert, "block_rows", recording)
    monkeypatch.setattr(pert, "_usable_cpus", lambda: 2)
    pert.verify_replication(aset, np.linspace(-1.0, 1.0, d), 1 << 17, make_rng(4))
    assert walked == [(1 << 17) // shares] * shares


class _ShareFailure(Exception):
    pass


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("on_worker", [True, False])
def test_a_failing_share_raises_out_of_draw(monkeypatch, parts, on_worker):
    import threading

    inverse = pert.RadialTable.inverse

    def failing(self, u):
        if (threading.current_thread() is threading.main_thread()) != on_worker:
            raise _ShareFailure(f"slice of {u.size} speeds")
        return inverse(self, u)

    monkeypatch.setattr(pert, "_usable_cpus", lambda: parts)
    monkeypatch.setattr(pert.RadialTable, "inverse", failing)
    threads = threading.active_count()
    with pytest.raises(_ShareFailure, match="slice of"):
        pert.draw(geom.ball(5), make_rng(42), size=4 * _PART)
    assert threading.active_count() == threads  # every share has ended
