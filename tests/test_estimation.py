import copy
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scbandits import action_sets as geom
from scbandits import engine
from scbandits import estimation as est
from scbandits import perturbations as pert
from scbandits.rng import make_rng


def dense_solve(model, a):
    return np.linalg.solve(est.dense_covariance(model), a)


# ---------------------------------------------------------------------------
# hypercube covariance
# ---------------------------------------------------------------------------

def test_covariance_hypercube_center():
    model = est.covariance_hypercube(np.zeros(3))
    assert model.alpha == 0.0
    assert np.array_equal(est.dense_covariance(model), np.eye(3))
    a = np.array([1.0, -1.0, 1.0])
    assert np.array_equal(est.apply_qinv_hypercube(model, a), a)


def test_covariance_hypercube_example():
    model = est.covariance_hypercube(np.array([0.5, 0.0]))
    assert math.isclose(model.alpha, 1.0 / 3.0, rel_tol=1e-15)
    assert np.allclose(est.dense_covariance(model), [[1.0, 0.0], [0.0, 1.0]])
    # hand-evaluated closed form
    out = est.apply_qinv_hypercube(model, np.array([1.0, 1.0]))
    assert np.allclose(out, [1.0, 1.0], rtol=1e-14)


def test_covariance_hypercube_singularity_guard():
    with pytest.raises(geom.BoundaryError):
        est.covariance_hypercube(np.array([1.0 - 1e-12, 0.0]))


def test_qinv_hypercube_against_dense_solve():
    rng = make_rng(41)
    worst = 0.0
    for _ in range(300):
        d = int(rng.integers(1, 9))
        x = rng.uniform(-0.95, 0.95, d)
        model = est.covariance_hypercube(x)
        a = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        closed = est.apply_qinv_hypercube(model, a)
        ref = dense_solve(model, a)
        worst = max(worst, float(np.max(np.abs(closed - ref)) / np.max(np.abs(ref))))
    assert worst <= 1e-9


def test_covariance_hypercube_monte_carlo():
    # empirical second moment of perturbed-leader actions matches the model
    rng = make_rng(42)
    d = 2
    aset = geom.hypercube(d)
    theta = np.array([0.8, -0.4])
    xi = pert.draw(aset, rng, size=10**6)
    actions = geom.grad_support(aset, theta + xi)
    empirical = actions.T @ actions / actions.shape[0]
    model = est.covariance_hypercube(geom.conjugate_gradient(aset, theta))
    assert np.linalg.norm(empirical - est.dense_covariance(model)) <= 0.01


def test_q_positive_definite_random_states():
    rng = make_rng(43)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        model = est.covariance_hypercube(rng.uniform(-0.9, 0.9, d))
        assert np.linalg.eigvalsh(est.dense_covariance(model)).min() > 0.0
        if d >= 2:
            theta = rng.standard_normal(d) * rng.uniform(0.1, 4.0)
            model = est.covariance_ball(theta, d)
            assert np.linalg.eigvalsh(est.dense_covariance(model)).min() > 0.0


# ---------------------------------------------------------------------------
# K function
# ---------------------------------------------------------------------------

# The reference for the angular integral: adaptive bisected Gauss-Legendre
_GL_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (24, 48)}


def _gl_segment(u: float, d: int, order: int, lo: float, hi: float) -> float:
    nodes, weights = _GL_RULES[order]
    half = 0.5 * (hi - lo)
    phi = 0.5 * (hi + lo) + half * nodes
    vals = np.sin(phi) ** d / (1.0 + u * u + 2.0 * u * np.cos(phi))
    return half * float(weights @ vals)


def angular_integral_quadrature(u: float, d: int, lo: float = 0.0, hi: float = np.pi,
                                depth: int = 0) -> float:
    """integral_0^pi sin^d(phi) / (1 + u^2 + 2u cos(phi)) dphi, by adaptive
    bisected Gauss-Legendre (24- vs 48-node comparison, absolute floor
    1e-12 per segment), against which est._angular_integral is checked.
    """
    if u * u == np.inf:
        return 0.0
    coarse = _gl_segment(u, d, 24, lo, hi)
    fine = _gl_segment(u, d, 48, lo, hi)
    if abs(fine - coarse) <= max(1e-10 * abs(fine), 1e-12):
        return fine
    if depth >= 16:
        raise est.QuadratureError(
            f"angular integral did not converge (u={u!r}, d={d}, "
            f"estimate gap {abs(fine - coarse):.3e})"
        )
    mid = 0.5 * (lo + hi)
    return (angular_integral_quadrature(u, d, lo, mid, depth + 1)
            + angular_integral_quadrature(u, d, mid, hi, depth + 1))


@pytest.mark.parametrize("d", [2, 3, 8])
def test_k_at_zero(d):
    assert abs(est.k_function_ball(0.0, d) - (d - 1) / d) <= 1e-5


@pytest.mark.parametrize("d", [2, 3, 8])
def test_k_bounds(d):
    for x in (0.0, 0.5, 1.0, 5.0, 50.0):
        k = est.k_function_ball(x, d)
        assert (d - 1) / (d * (x + 2.0)) - 1e-9 <= k <= (d - 1) / d + 1e-9


def test_k_validation():
    with pytest.raises(ValueError):
        est.k_function_ball(1.0, 1)
    with pytest.raises(ValueError):
        est.k_function_ball(-0.5, 3)
    with pytest.raises(ValueError):
        est.k_function_ball(float("nan"), 3)


def test_angular_closed_form_matches_adaptive_rule():
    worst = 0.0
    for d in (2, 3, 5, 8, 16, 33, 64, 200):
        for u in (0.0, 0.01, 0.2, 0.65, 0.9, 0.9999, 1.0, 1.0001, 1.7, 20.0, 3000.0):
            fast = est._angular_integral(u, d)
            oracle = angular_integral_quadrature(u, d)
            worst = max(worst, abs(fast - oracle) / max(abs(oracle), 1e-300))
    assert worst <= 1e-8


def test_k_against_full_double_quadrature():
    # oracle route: both integration levels adaptive, density by quadrature
    from scipy import integrate

    d = 3
    surface_ratio = math.exp(pert.log_sphere_surface(d - 2) - pert.log_sphere_surface(d - 1))
    for x in (0.3, 1.0, 4.0):
        def integrand(r):
            u = x / r
            profile = pert.radial_profile_ball(r, d)
            surface = math.exp(pert.log_sphere_surface(d - 1))
            return (angular_integral_quadrature(u, d)
                    * surface * profile * r ** (d - 1))

        head, _ = integrate.quad(integrand, 0.0, 4.0 * max(x, 1.0), limit=200)
        tail, _ = integrate.quad(integrand, 4.0 * max(x, 1.0), np.inf, limit=200)
        oracle = surface_ratio * (head + tail)
        assert math.isclose(est.k_function_ball(x, d), oracle, rel_tol=1e-6)


def test_k_monte_carlo_transverse_mass():
    # E[||P_perp A||^2] = K(||theta||) for perturbed-leader actions
    rng = make_rng(44)
    d = 3
    aset = geom.ball(d)
    theta = np.array([0.5, -1.0, 0.25])
    xi = pert.draw(aset, rng, size=10**6)
    actions = geom.grad_support(aset, theta + xi)
    unit = theta / np.linalg.norm(theta)
    transverse = actions - np.outer(actions @ unit, unit)
    mass = (transverse * transverse).sum(axis=1)
    se = mass.std() / math.sqrt(mass.size)
    k = est.k_function_ball(float(np.linalg.norm(theta)), d)
    assert abs(mass.mean() - k) <= 3.0 * se


def test_k_cache_matches_direct_and_extends():
    cache = est.KFunctionCache(3, x_max=4.0)
    rng = make_rng(45)
    for x in rng.uniform(0.0, 3.9, 10):
        assert abs(cache(float(x)) - est.k_function_ball(float(x), 3)) <= 1e-5
    # beyond the initial range the cache extends itself
    far = 37.5
    assert abs(cache(far) - est.k_function_ball(far, 3)) <= 1e-5


_NODE_DRIFTS = [float(np.sinh(i * est.K_GRID_SPACING)) for i in (0, 1, 2, 7, 100, 103)]


@functools.cache
def _default_d3_grid():
    return est.KFunctionCache(3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(drifts=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1e-14),
                                 st.sampled_from(_NODE_DRIFTS), st.floats(0.0, 8.0),
                                 st.floats(8.0, 60.0)), min_size=1, max_size=40))
def test_k_cache_array_lookup_equals_float_calls(drifts):
    # drift 0, drifts below 1e-14, exact node positions, and drifts past the
    # covered range, which extend both grids to the same length
    by_array, by_float = copy.deepcopy(_default_d3_grid()), copy.deepcopy(_default_d3_grid())
    assert by_array(np.array(drifts)).tolist() == [by_float(x) for x in drifts]
    assert len(by_array._values) == len(by_float._values)


@pytest.mark.parametrize("bad", [-1e-300, -2.0, math.inf, -math.inf, math.nan])
def test_k_cache_array_lookup_rejects_what_a_float_call_rejects(bad):
    cache = est.KFunctionCache(3)
    with pytest.raises(ValueError) as by_float:
        cache(bad)
    with pytest.raises(ValueError) as by_array:
        cache(np.array([0.5, bad, 2.0]))
    assert str(by_array.value) == str(by_float.value)


# K grid and speed density pinned bit for bit. float.hex of every 8th node of
# the grid a ball run builds, engine.k_cache_for with the auto eta, at the n
# of acceptance criterion 7 (d <= 33) and of the d=1024 benchmark runs; and
# p_V on a decimal log grid of speeds. Recorded before the quadrature
# integrand gained its scalar route and tabled angular windows.

_KGRID_EVERY_8TH_HEX = {
    2: ("0x1.0000000000007p-1", "0x1.fcbcb49530b3ap-2", "0x1.f31d00d3ac40ep-2",
        "0x1.e39af9fca6c3dp-2", "0x1.cef4038767bebp-2", "0x1.b6164976baa89p-2",
        "0x1.9a0b3139322f8p-2", "0x1.7be20a629afa4p-2", "0x1.5c9d6ab629b57p-2",
        "0x1.3d24fffb11ee6p-2", "0x1.1e3c7a9c23bacp-2", "0x1.007f5e4f6b965p-2",
        "0x1.c8c1d74b63309p-3", "0x1.945e15c40350bp-3", "0x1.642e303ea3a93p-3",
        "0x1.3857297158f38p-3", "0x1.10d3f78700c32p-3", "0x1.db00d66ae788fp-4",
        "0x1.9c45777fad34bp-4", "0x1.64e6eaee78765p-4", "0x1.34478a1e6a989p-4",
        "0x1.09c47f9433f7cp-4", "0x1.c979709618ff2p-5", "0x1.892b567398806p-5",
        "0x1.517cd3b751aabp-5", "0x1.2162c262e051fp-5", "0x1.efd48cfb4a572p-6",
        "0x1.a87202f211b14p-6", "0x1.6b18adb986137p-6", "0x1.367030bad8aa7p-6",
        "0x1.0949b276f1b5bp-6", "0x1.c5385ba1461f8p-7", "0x1.83015c024f125p-7",
        "0x1.4a5d40549124dp-7", "0x1.19f0ab8afe24dp-7", "0x1.e11f1f37da728p-8",
        "0x1.9a6e89dfc2a2bp-8", "0x1.5e126f06f8d19p-8", "0x1.2a8c4e08a4511p-8"),
    5: ("0x1.99999999999a7p-1", "0x1.969e8cfe8b42ap-1", "0x1.8ddb7b4defc8cp-1",
        "0x1.7fd49e783bfacp-1", "0x1.6d53a58e4be79p-1", "0x1.574fe7cacb8a8p-1",
        "0x1.3ed426382f876p-1", "0x1.24e64b2077142p-1", "0x1.0a7454a498998p-1",
        "0x1.e08fcd899c6bbp-2", "0x1.ae00e6d9cc3b0p-2", "0x1.7e25ae8267d86p-2",
        "0x1.51999cc006290p-2", "0x1.28b5440134347p-2", "0x1.039b6e33e8b00p-2",
        "0x1.c48c2713ceb03p-3", "0x1.892405d36896ap-3", "0x1.54915d6e93571p-3",
        "0x1.264ff80319ceap-3", "0x1.fba0cca05f8d6p-4", "0x1.b501476adb83bp-4",
        "0x1.77a426084c3dfp-4", "0x1.427acdbfb538ep-4", "0x1.1489efbc01434p-4",
        "0x1.d9d7d3f39f1cdp-5", "0x1.95a3147bf3b49p-5", "0x1.5b037191fdbabp-5",
        "0x1.28b0dded9c9c8p-5", "0x1.fb150b9be36e8p-6", "0x1.b126f087638a3p-6",
        "0x1.71de545b1139ap-6", "0x1.3bbc05572d165p-6", "0x1.0d741eb5d5cc1p-6"),
    33: ("0x1.f07c1f07c1414p-1", "0x1.ec653c14aca1dp-1", "0x1.e06f27a99a98cp-1",
         "0x1.cd779e58a956ep-1", "0x1.b4c6182c51e30p-1", "0x1.97da5846c1ed2p-1",
         "0x1.783bd870167e9p-1", "0x1.5753839c18579p-1", "0x1.3653bb459a02cp-1",
         "0x1.162df5ea0818ep-1", "0x1.ef25647b52749p-2", "0x1.b5efbd809ac16p-2",
         "0x1.8144cad73527ep-2", "0x1.51610a24dac1cp-2", "0x1.264720d2b9d37p-2",
         "0x1.ffa17d84ec4c2p-3", "0x1.bb78d833bed9fp-3", "0x1.7f70a4af9b902p-3",
         "0x1.4ad4ac4a9dfc4p-3", "0x1.1cebe3d3d8235p-3", "0x1.ea010dc0f4565p-4",
         "0x1.a4cad32ec69fcp-4"),
    1024: ("0x1.ff7fffffff5edp-1", "0x1.fb2b40628ab5ap-1", "0x1.ee852a444b23fp-1",
           "0x1.da84f608ffbf9p-1", "0x1.c0938e4bf9bcbp-1", "0x1.a251827726fc6p-1",
           "0x1.8160846978de9p-1", "0x1.5f3af30aa9aebp-1", "0x1.3d1c8f0724fabp-1",
           "0x1.1bfa2499b1deap-1", "0x1.f9076769d2675p-2", "0x1.be5939a29ebbfp-2",
           "0x1.886cbc41ea5b4p-2", "0x1.5777420b84e56p-2", "0x1.2b74abe44313fp-2",
           "0x1.04389aa3726d2p-2", "0x1.c2f8a2ee5f7f5p-3", "0x1.85d2edbea03ffp-3"),
}

_RADIAL_DENSITY_HEX = {
    1: ("0x1.0000000000000p-1", "0x1.fffffffffe59cp-2", "0x1.fffffffff1282p-2",
        "0x1.ffffffff5b12bp-2", "0x1.fffffffa33a8cp-2", "0x1.ffffffbf93536p-2",
        "0x1.fffffdbc2df11p-2", "0x1.ffffe6d58deeep-2", "0x1.ffff1d826059ap-2",
        "0x1.fff62ba09686cp-2", "0x1.ffa797bb620bfp-2", "0x1.fc3114b9bf017p-2",
        "0x1.dfd7d8fe7d00ep-2", "0x1.2bec333018867p-2", "0x1.37313d451a6a4p-4",
        "0x1.27131a6286fbcp-7", "0x1.199145499721ap-10", "0x1.9f3c7e87c3179p-14",
        "0x1.739592e004391p-17", "0x1.0c2ac1ddfeabfp-20", "0x1.dd0f3c69eaa7ep-24",
        "0x1.57902256489f7p-27", "0x1.3168e324d8957p-30", "0x1.b7ccdd6281252p-34",
        "0x1.86efa87a82a02p-37", "0x1.197985a08e2e7p-40"),
    2: ("0x0.0p+0", "0x1.0c6f7a0b5d1e2p-20", "0x1.92a73710f6ecap-19",
        "0x1.4f8b588d5e62dp-17", "0x1.f75104c9eb815p-16", "0x1.a36e2e483699ep-14",
        "0x1.3a92a03cd7627p-12", "0x1.0624c36a0adffp-10", "0x1.8935efe337506p-9",
        "0x1.47a17fa839f2bp-7", "0x1.eadb710c138d4p-6", "0x1.93882b8392c2bp-4",
        "0x1.0df2e7219f6dap-2", "0x1.6a09e667f3bcdp-2", "0x1.8494a75f057acp-4",
        "0x1.42d35602dbcefp-7", "0x1.22c94d184c3dap-10", "0x1.a35e140a879d0p-14",
        "0x1.74d22081ea613p-17", "0x1.0c6f5fa7fac07p-20", "0x1.dd37f03325d92p-24",
        "0x1.5798edcc90abep-27", "0x1.316b7e4f7d828p-30", "0x1.b7cdfd9c60842p-34",
        "0x1.86effde135aadp-37", "0x1.19799812dcd0ep-40"),
    5: ("0x0.0p+0", "0x1.fbbfb4417fa20p-78", "0x1.414f5011453a6p-71",
        "0x1.35e7c1c2da971p-64", "0x1.88395124e5827p-58", "0x1.7a4d67032b375p-51",
        "0x1.dec9ec05348adp-45", "0x1.cdcb00a80e979p-38", "0x1.2437fe6e32b33p-31",
        "0x1.19bdb1b634d61p-24", "0x1.63678083f1237p-18", "0x1.4a3b9a0181dfcp-11",
        "0x1.318a15bdc47ffp-5", "0x1.a2b772ca3480ap-2", "0x1.bd5568c128a07p-4",
        "0x1.47a7ba20f58f4p-7", "0x1.23456160e7e35p-10", "0x1.a36e2eac3a1f3p-14",
        "0x1.74d3b7ba70521p-17", "0x1.0c6f7a0b5ed68p-20", "0x1.dd37f5698c2c2p-24",
        "0x1.5798ee2308c3ap-27", "0x1.316b7e5807ca5p-30", "0x1.b7cdfd9d7bdbbp-34",
        "0x1.86effde151a6dp-37", "0x1.19799812dea11p-40"),
    1024: ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
           "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
           "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
           "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
           "0x1.1a8b3e6a3beefp-886", "0x1.f99dbbab4900bp-2", "0x1.c71c71c71c71cp-4",
           "0x1.47ae147ae147bp-7", "0x1.23456789abcdfp-10", "0x1.a36e2eb1c432dp-14",
           "0x1.74d3b7ba75828p-17", "0x1.0c6f7a0b5ed8dp-20", "0x1.dd37f5698c2c2p-24",
           "0x1.5798ee2308c3ap-27", "0x1.316b7e5807ca5p-30", "0x1.b7cdfd9d7bdbbp-34",
           "0x1.86effde151a6dp-37", "0x1.19799812dea11p-40"),
}

_KGRID_HORIZONS = {2: 20_000, 5: 20_000, 33: 20_000, 1024: 2048}
_DENSITY_SPEEDS = [0.0] + [float(f"{m}e{k}") for k in range(-6, 6) for m in (1, 3)] + [1e6]


def _ball_grid(d, n):
    spec = engine.AlgorithmSpec(variant=engine.SCFTPL, action_set=geom.ball(d))
    return engine.k_cache_for(spec, n)


@pytest.mark.parametrize("d", sorted(_KGRID_EVERY_8TH_HEX))
def test_k_grid_bit_identical_to_pinned_values(d, empty_k_grids):
    cache = _ball_grid(d, _KGRID_HORIZONS[d])
    assert [v.hex() for v in cache._values[::8]] == list(_KGRID_EVERY_8TH_HEX[d])


@pytest.mark.parametrize("d", sorted(_RADIAL_DENSITY_HEX))
def test_radial_density_bit_identical_to_pinned_values(d):
    pinned = [float.fromhex(h) for h in _RADIAL_DENSITY_HEX[d]]
    scalar = [pert.radial_density_ball(s, d) for s in _DENSITY_SPEEDS]
    assert all(type(v) is float for v in scalar)
    assert scalar == pinned
    # the array route performs the same operations as the scalar one
    assert pert.radial_density_ball(np.array(_DENSITY_SPEEDS), d).tolist() == pinned
    assert pert.radial_density_ball(np.array(_DENSITY_SPEEDS[5]), d) == pinned[5]


# The reference for the K evaluator: the route k_function_ball took before
# its radial integrals were ported, scipy.integrate.quad on each piece with
# one float call of the integrand per abscissa. The port must equal it bit
# for bit, errors included.

def _k_by_quad(x, d, limit=300):
    from scipy import integrate

    ratio = np.exp(pert.log_sphere_surface(d - 2) - pert.log_sphere_surface(d - 1))

    def integrand(r):
        if r == 0.0:
            return 0.0
        return est._angular_integral(x / r, d) * pert.radial_density_ball(r, d)

    if x > (16.0 if d > 32 else 240.0):
        def inverted(v):
            return est._angular_integral(x * v, d) * float(pert.radial_beta(1.0 / (1.0 + v * v), d))

        pieces = ((integrand, 0.0, 4.0), (integrand, 4.0, 0.5 * x),
                  (integrand, 0.5 * x, 2.0 * x), (inverted, 0.0, 0.5 / x))
    else:
        split = max(4.0, 4.0 * x)
        pieces = ((integrand, 0.0, split), (integrand, split, np.inf))
    total = 0.0
    for f, lo, hi in pieces:
        val, abserr, info, *rest = integrate.quad(
            f, lo, hi, epsabs=0.0, epsrel=1e-9, limit=limit, full_output=1)
        if rest:
            raise est.QuadratureError(f"radial integral failed for K({x}, d={d}): {rest[0]}")
        total += val
    k = ratio * total
    if not np.isfinite(k):
        raise est.QuadratureError(f"K({x}, d={d}) evaluated to {k!r}")
    return float(k)


def _outcome(f):
    try:
        return f()
    except est.QuadratureError as exc:
        return str(exc)


@pytest.mark.parametrize("d", sorted(_KGRID_EVERY_8TH_HEX))
def test_k_grid_nodes_equal_quad_reference(d, empty_k_grids):
    cache = _ball_grid(d, _KGRID_HORIZONS[d])
    xs = [float(np.sinh(i * est.K_GRID_SPACING)) for i in range(len(cache._values))]
    assert cache._values == [_k_by_quad(x, d) for x in xs]


@pytest.mark.parametrize("d,xs", [(2, (0.0, 300.0, 1e3, 1e5, 1e8, 2e10)),
                                  (5, (0.0, 300.0, 1e3, 1e5, 1e8, 2e10)),
                                  (64, (0.0, 20.0, 1e4, 1e8))])
def test_k_far_drifts_equal_quad_reference(d, xs):
    # drift 0 and drifts past the four-piece switch, in one batch and one by one
    reference = [_k_by_quad(x, d) for x in xs]
    assert est._k_values(list(xs), d) == reference
    assert [est.k_function_ball(x, d) for x in xs] == reference


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 2048), x=st.one_of(st.floats(0.0, 2e10), st.floats(0.0, 300.0)))
def test_k_values_equal_quad_reference(d, x):
    assert _outcome(lambda: est._k_values([x], d)[0]) == _outcome(lambda: _k_by_quad(x, d))


def test_k_cache_raises_the_first_failing_nodes_quad_error(monkeypatch):
    # with 4 subintervals per piece, node 2 is the first node quad cannot
    # integrate; the port fails there too, with quad's message
    monkeypatch.setattr(est, "_K_LIMIT", 4)
    with pytest.raises(est.QuadratureError) as by_port:
        est.KFunctionCache(5)
    xs = [float(np.sinh(i * est.K_GRID_SPACING)) for i in range(3)]
    assert [_k_by_quad(x, 5, limit=4) for x in xs[:2]] == est._k_values(xs[:2], 5)
    with pytest.raises(est.QuadratureError) as by_quad:
        _k_by_quad(xs[2], 5, limit=4)
    assert str(by_port.value) == str(by_quad.value)
    assert str(by_port.value).startswith(f"radial integral failed for K({xs[2]}, d=5): "
                                         "The maximum number of subdivisions (4)")


@pytest.mark.parametrize("d", [2, 8, 33, 256, 4096])
def test_k_cache_budget_and_bounds_across_reach(d, empty_k_grids):
    # every branch of the angular evaluator (recursion, small-u rule, the
    # d > 32 window) over the drift range an n = 2e4 run prebuilds
    cache = _ball_grid(d, 20_000)
    reach = math.sinh((len(cache._values) - 3) * est.K_GRID_SPACING)  # the range the grid covers
    xs = np.concatenate([make_rng(53 + d).uniform(0.0, reach, 16), [1e-3, 0.5, reach]])
    for x in xs:
        k = est.k_function_ball(float(x), d)
        assert abs(cache(float(x)) - k) <= 1e-5
        assert (d - 1) / (d * (x + 2.0)) - 1e-9 <= k <= (d - 1) / d + 1e-9


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(2, 4096), log_x=st.floats(3.0, 11.0))
def test_k_bounds_at_extreme_drift(d, log_x):
    # far beyond any prebuilt grid, up to where a ball run aborts (||theta||
    # about 2e10); the lower bound decays like 1/x, so its slack is relative
    x = 10.0**log_x
    k = est.k_function_ball(x, d)
    assert (d - 1) / (d * (x + 2.0)) * (1.0 - 1e-9) <= k <= (d - 1) / d + 1e-9


def test_k_far_drift_against_adaptive_reference():
    # at d = 1024, x = 300 the two-piece radial split used to stop early and
    # return 0.0052334, 1.1e-5 off; the reference integrates J by the
    # adaptive angular rule over fine radial pieces, the tail r > 64x by r = 1/v
    from scipy import integrate
    from scipy.special import betainc

    d, x = 1024, 300.0
    ratio = math.exp(pert.log_sphere_surface(d - 2) - pert.log_sphere_surface(d - 1))

    def integrand(r):
        return angular_integral_quadrature(x / r, d) * pert.radial_density_ball(r, d)

    edges = np.concatenate([np.linspace(1e-3, 4.0, 40)[:-1], np.geomspace(4.0, 64.0 * x, 200)])
    head = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))
    tail, _ = integrate.quad(
        lambda v: angular_integral_quadrature(x * v, d) * betainc((d + 1) / 2, d / 2,
                                                                  1.0 / (1.0 + v * v)),
        0.0, 1.0 / (64.0 * x), epsabs=0.0, epsrel=1e-11)
    assert abs(est.k_function_ball(x, d) - ratio * (head + tail)) <= 1e-9


# ---------------------------------------------------------------------------
# ball covariance
# ---------------------------------------------------------------------------

def test_covariance_ball_degenerate_center():
    model = est.covariance_ball(np.zeros(3), 3)
    assert np.allclose(est.dense_covariance(model), np.eye(3) / 3.0)
    a = np.array([0.0, 1.0, 0.0])
    assert np.allclose(est.apply_qinv_ball(model, a), 3.0 * a)


def test_covariance_ball_d1():
    model = est.covariance_ball(np.array([0.7]), 1)
    assert np.allclose(est.apply_qinv_ball(model, np.array([1.0])), [1.0])


def test_qinv_ball_orthogonal_action():
    d = 3
    theta = np.array([2.0, 0.0, 0.0])
    model = est.covariance_ball(theta, d)
    a = np.array([0.0, 1.0, 0.0])
    out = est.apply_qinv_ball(model, a)
    assert np.allclose(out, (d - 1) / model.k * a, rtol=1e-12)


def test_qinv_ball_against_dense_solve():
    rng = make_rng(46)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        theta = rng.standard_normal(d) * rng.uniform(0.05, 5.0)
        model = est.covariance_ball(theta, d)
        a = rng.standard_normal(d)
        a /= np.linalg.norm(a)
        closed = est.apply_qinv_ball(model, a)
        ref = dense_solve(model, a)
        worst = max(worst, float(np.linalg.norm(closed - ref) / np.linalg.norm(ref)))
    assert worst <= 1e-6


def test_qinv_ball_unit_norm_check():
    model = est.covariance_ball(np.array([1.0, 0.0]), 2)
    with pytest.raises(ValueError):
        est.apply_qinv_ball(model, np.array([0.5, 0.0]))


def test_covariance_ball_k_range_guard(monkeypatch):
    monkeypatch.setattr(est, "k_function_ball", lambda x, d: 1.5)
    with pytest.raises(RuntimeError):
        est.covariance_ball(np.array([1.0, 0.0]), 2)


def test_covariance_balls_equal_covariance_ball():
    # the per-dimension K batches give each state's covariance_ball model,
    # the degenerate drifts included
    rng = make_rng(47)
    thetas = [rng.standard_normal(d) * rng.uniform(0.1, 5.0)
              for d in rng.integers(2, 9, size=40).tolist()]
    thetas += [np.zeros(3), np.array([0.7]), np.array([1e-15, 0.0])]
    for theta, model in zip(thetas, est.covariance_balls(thetas)):
        one = est.covariance_ball(theta, theta.size)
        assert (model.dimension, model.theta_norm, model.k) == (one.dimension, one.theta_norm,
                                                                one.k)
        assert np.array_equal(model.theta, one.theta)
    with pytest.raises(ValueError, match="finite"):
        est.covariance_balls([np.array([1.0, 2.0]), np.array([math.inf, 0.0])])


# ---------------------------------------------------------------------------
# Q^{-1} closed forms at extreme drift
# ---------------------------------------------------------------------------

# Gate: ||Q z - A|| <= QINV_C * eps * ||Q||_2 * ||t||, with z the closed-form
# Q^{-1} A, Q from dense_covariance and t the entrywise size of the two terms
# the closed form subtracts. An action aligned with the drift makes those
# terms cancel, so ||z|| << ||t|| there and the plain backward-error gate
# (||t|| replaced by ||z||) does not hold: over these examples its ratio
# ||Q z - A|| / (eps ||Q|| ||z||) reaches 3.1e7 on the hypercube and 3.5e7 on
# the ball, against at most 0.97 and 1.22 with ||t||.
QINV_C = 4.0


def _qinv_gate(model, a, terms):
    z = est.estimate_loss(model, a, 1.0)
    q = est.dense_covariance(model)
    eps = np.finfo(float).eps
    assert np.all(np.isfinite(z))
    assert (np.linalg.norm(q @ z - a)
            <= QINV_C * eps * np.linalg.norm(q, 2) * np.linalg.norm(terms))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(1, 512), log_gap=st.floats(0.0, 9.0), aligned=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_qinv_hypercube_backward_error_near_the_abort_floor(d, log_gap, aligned, seed):
    # 1 - x_i^2 spread over [10^-log_gap, 1], down to 1e-9 (the abort floor
    # is 1e-10); vertex actions match sign(x_i) with probability ``aligned``
    rng = make_rng(seed)
    gap = 10.0 ** -rng.uniform(0.0, log_gap, d)
    gap[0] = 10.0**-log_gap
    sign = np.where(rng.random(d) < 0.5, -1.0, 1.0)
    x = sign * np.sqrt(1.0 - gap)
    a = np.where(rng.random(d) < aligned, sign, -sign)
    model = est.covariance_hypercube(x)
    weighted = model.x / model.residual
    terms = (np.abs(a) / model.residual
             + np.abs(weighted) * abs(float(a @ weighted)) / (1.0 + model.alpha))
    _qinv_gate(model, a, terms)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(d=st.integers(2, 512), log_drift=st.floats(-2.0, 9.3), log_spread=st.floats(0.0, 12.0),
       seed=st.integers(0, 2**32 - 1))
def test_qinv_ball_backward_error_at_extreme_drift(d, log_drift, log_spread, seed):
    # 1 - ||x||^2 is about 2 / ||theta|| at the expected action, so drift 2e9
    # puts it at 1e-9; the action is -theta/||theta|| tilted by 10^-log_spread
    rng = make_rng(seed)
    theta = rng.standard_normal(d)
    theta *= 10.0**log_drift / np.linalg.norm(theta)
    a = -theta / np.linalg.norm(theta) + 10.0**-log_spread * rng.standard_normal(d)
    a /= np.linalg.norm(a)
    model = est.covariance_ball(theta, d)
    coeff = 1.0 / (1.0 - model.k) - (d - 1.0) / model.k
    proj = float(a @ model.theta) / model.theta_norm**2
    terms = (d - 1.0) / model.k * np.abs(a) + abs(coeff * proj) * np.abs(model.theta)
    _qinv_gate(model, a, terms)


# ---------------------------------------------------------------------------
# loss estimation
# ---------------------------------------------------------------------------

def test_estimate_loss_zero():
    model = est.covariance_hypercube(np.zeros(2))
    assert np.array_equal(est.estimate_loss(model, np.array([1.0, 1.0]), 0.0), np.zeros(2))


def test_estimate_loss_identity_case():
    model = est.covariance_hypercube(np.zeros(4))
    a = np.ones(4)
    assert np.array_equal(est.estimate_loss(model, a, 1.0), a)


def test_estimate_loss_bound_check():
    model = est.covariance_hypercube(np.zeros(2))
    with pytest.raises(ValueError):
        est.estimate_loss(model, np.ones(2), 1.5)


def test_estimator_unbiased_hypercube():
    rng = make_rng(47)
    d = 3
    aset = geom.hypercube(d)
    theta = rng.standard_normal(d)
    y = rng.standard_normal(d)
    y /= np.sum(np.abs(y))
    xi = pert.draw(aset, rng, size=4 * 10**5)
    actions = geom.grad_support(aset, theta + xi)
    model = est.covariance_hypercube(geom.conjugate_gradient(aset, theta))
    estimates = est.estimate_loss(model, actions, actions @ y)
    se = estimates.std(axis=0) / math.sqrt(estimates.shape[0])
    assert np.all(np.abs(estimates.mean(axis=0) - y) <= 4.0 * se)


def test_estimator_unbiased_ball():
    rng = make_rng(48)
    d = 3
    aset = geom.ball(d)
    theta = rng.standard_normal(d)
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    xi = pert.draw(aset, rng, size=4 * 10**5)
    actions = geom.grad_support(aset, theta + xi)
    model = est.covariance_ball(theta, d)
    estimates = est.estimate_loss(model, actions, actions @ y)
    se = estimates.std(axis=0) / math.sqrt(estimates.shape[0])
    assert np.all(np.abs(estimates.mean(axis=0) - y) <= 4.0 * se)


# ---------------------------------------------------------------------------
# pole estimator
# ---------------------------------------------------------------------------

def test_scribble_estimate_zero_loss():
    aset = geom.hypercube(2)
    x = np.zeros(2)
    pole = geom.dikin_pole(aset, x, 0, 1)
    assert np.array_equal(est.scribble_estimate(aset, x, pole, 0.0), np.zeros(2))


def test_scribble_estimate_center_pole():
    # at x = 0 the Hessian is 2I and the pole offset is e_1/sqrt(2):
    # estimate = d * 2 * (e_1/sqrt(2)) * loss
    d = 3
    aset = geom.hypercube(d)
    x = np.zeros(d)
    pole = geom.dikin_pole(aset, x, 0, 1)
    out = est.scribble_estimate(aset, x, pole, 0.5)
    expected = np.zeros(d)
    expected[0] = d * math.sqrt(2.0) * 0.5
    assert np.allclose(out, expected, rtol=1e-12)


@pytest.mark.parametrize("kind", [geom.HYPERCUBE, geom.BALL])
def test_scribble_estimate_batched_equals_per_pole(kind):
    rng = make_rng(48)
    d = 5
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    x = geom.conjugate_gradient(aset, rng.standard_normal(d) * 0.9)
    poles = np.stack([geom.dikin_pole(aset, x, i, s) for s in (1, -1) for i in range(d)])
    losses = rng.uniform(-1.0, 1.0, 2 * d)
    batched = est.scribble_estimate(aset, x, poles, losses)
    for pole, loss, row in zip(poles, losses, batched):
        assert np.all(row == est.scribble_estimate(aset, x, pole, float(loss)))
    with pytest.raises(ValueError, match="observed loss"):
        est.scribble_estimate(aset, x, poles, np.append(losses[1:], 1.5))


@pytest.mark.parametrize("kind", [geom.HYPERCUBE, geom.BALL])
def test_scribble_estimator_unbiased(kind):
    rng = make_rng(49)
    d = 4
    aset = geom.ActionSetModel(dimension=d, kind=kind)
    x = geom.conjugate_gradient(aset, rng.standard_normal(d) * 0.7)
    y = rng.standard_normal(d)
    y /= np.sum(np.abs(y)) if kind == geom.HYPERCUBE else np.linalg.norm(y)
    poles = np.stack([geom.dikin_pole(aset, x, i, s) for s in (1, -1) for i in range(d)])
    n = 4 * 10**5
    idx = rng.integers(0, 2 * d, size=n)
    actions = poles[idx]
    estimates = np.stack([
        est.scribble_estimate(aset, x, poles[j], float(poles[j] @ y))
        for j in range(2 * d)
    ])[idx]
    se = estimates.std(axis=0) / math.sqrt(n)
    assert np.all(np.abs(estimates.mean(axis=0) - y) <= 4.0 * se)
    assert np.all(np.abs(actions.mean(axis=0) - x) <= 4.0 * actions.std(axis=0) / math.sqrt(n))


# ---------------------------------------------------------------------------
# local norms
# ---------------------------------------------------------------------------

def test_local_norm_zero_vector():
    ctx = geom.barrier_hessian(geom.hypercube(2), np.zeros(2))
    assert est.local_norm_sq(ctx, np.zeros(2)) == 0.0


def test_local_norm_center_inverse():
    ctx = geom.barrier_hessian(geom.hypercube(3), np.zeros(3))
    e1 = np.array([1.0, 0.0, 0.0])
    assert math.isclose(float(e1 @ geom.hessian_inv_matvec(ctx, e1)), 0.5, rel_tol=1e-15)


def test_local_norm_against_dense_matrix():
    rng = make_rng(50)
    for kind in (geom.HYPERCUBE, geom.BALL):
        for _ in range(40):
            d = int(rng.integers(1, 9))
            aset = geom.ActionSetModel(dimension=d, kind=kind)
            x = geom.conjugate_gradient(aset, rng.standard_normal(d) * 2.0)
            ctx = geom.barrier_hessian(aset, x)
            if kind == geom.HYPERCUBE:
                dense = np.diag(ctx.diag)
            else:
                dense = ctx.coeff_identity * np.eye(d) + ctx.coeff_outer * np.outer(x, x)
            v = rng.standard_normal(d)
            assert math.isclose(est.local_norm_sq(ctx, v), float(v @ dense @ v),
                                rel_tol=1e-10)
            assert math.isclose(float(v @ geom.hessian_inv_matvec(ctx, v)),
                                float(v @ np.linalg.solve(dense, v)), rel_tol=1e-10)


# ---------------------------------------------------------------------------
# variance bounds
# ---------------------------------------------------------------------------

def test_variance_bounds_hypercube():
    rng = make_rng(51)
    d = 4
    aset = geom.hypercube(d)
    y = np.zeros(d)
    y[0] = 1.0  # 1-sparse loss makes the d/2 bound essentially tight
    for scale in (0.0, 1.0, 3.0):
        theta = rng.standard_normal(d) * scale
        x = geom.conjugate_gradient(aset, theta)
        xi = pert.draw(aset, rng, size=10**5)
        actions = geom.grad_support(aset, theta + xi)
        model = est.covariance_hypercube(x)
        estimates = est.estimate_loss(model, actions, actions @ y)
        ctx = geom.barrier_hessian(aset, x)
        norms_sq = np.einsum("ij,j,ij->i", estimates, 1.0 / ctx.diag, estimates)
        se = norms_sq.std() / math.sqrt(norms_sq.size)
        assert norms_sq.mean() <= d / 2.0 + 3.0 * se
        assert norms_sq.max() <= 3.0 * d


def test_variance_bounds_ball():
    rng = make_rng(52)
    d = 3
    aset = geom.ball(d)
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    for scale in (0.0, 1.0, 4.0):
        theta = rng.standard_normal(d) * scale
        theta_norm = float(np.linalg.norm(theta))
        x = geom.conjugate_gradient(aset, theta)
        xi = pert.draw(aset, rng, size=10**5)
        actions = geom.grad_support(aset, theta + xi)
        model = est.covariance_ball(theta, d)
        estimates = est.estimate_loss(model, actions, actions @ y)
        ctx = geom.barrier_hessian(aset, x)
        a, b = ctx.coeff_identity, ctx.coeff_outer
        corr = b / (a * (a + b * float(x @ x)))
        norms_sq = (estimates * estimates).sum(axis=1) / a - corr * (estimates @ x) ** 2
        se = norms_sq.std() / math.sqrt(norms_sq.size)
        assert norms_sq.mean() <= 1.5 * d * d + 3.0 * se
        assert norms_sq.max() <= d * d * theta_norm + 4.0 * d * d
        euclid_sq = (estimates * estimates).sum(axis=1)
        se_e = euclid_sq.std() / math.sqrt(euclid_sq.size)
        assert euclid_sq.mean() <= d * d * theta_norm + 2.0 * d * d + 3.0 * se_e
