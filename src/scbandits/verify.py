"""Numerical verification suite.

Each check measures one testable identity or bound of the implemented
machinery and reports a (measured, threshold, verdict) row. The suite is
deterministic given its seed. ``scale`` shrinks Monte-Carlo sample counts
for quick runs; thresholds never move.

The checks deliberately go through independent routes where one exists:
densities are re-integrated by adaptive quadrature, closed-form inverse
applications are compared against dense solves, conjugate values against
grid maximization, and sampling laws against Monte-Carlo estimates of the
identities that define them.

The quadratures run on :func:`.quadpack.quad`, the port of the QUADPACK
routines behind ``scipy.integrate.quad``, which returns quad's values bit
for bit; no check loads ``scipy.integrate``. ``scipy.special`` is imported
by the code that uses it, not with this module: the harness imports
``verify`` in every process, hypercube runs included. :func:`verify_groups`
loads it before its first check group, so the import counts as the suite's
set-up and never as a check's time. No check needs ``scipy.stats``: the KS
distance is computed here (:func:`ks_statistic`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import action_sets as geom
from . import perturbations as pert
from .engine import (
    SCFTPL,
    AlgorithmSpec,
    bregman_diagnostic,
    regret,
    resolve_learning_rate,
    run,
    theoretical_bound,
)
from .environments import FIXED_VECTOR, AdversarySpec, best_in_hindsight, generate
from .estimation import (
    KFunctionCache,
    covariance_ball,
    covariance_balls,
    covariance_hypercube,
    dense_covariance,
    estimate_loss,
    k_function_ball,
    local_norm_sq,
    scribble_estimate,
)
from .rng import spawn_rngs

# Dimensions the density, replication and K-function checks cover.
DIMENSIONS = (1, 2, 3, 8)
BALL_DIMENSIONS = (2, 3, 8)


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float
    passed: bool
    comparison: str = "<="
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "passed": bool(self.passed),
            "detail": self.detail,
        }


@dataclass
class VerifyOptions:
    """Knobs for the suite: random seed, MC scale, and a row-name prefix filter."""

    seed: int = 20240612
    scale: float = 1.0
    checks: tuple[str, ...] | None = None  # subset filter by name prefix

    def samples(self, base: int, floor: int = 2000) -> int:
        return max(int(base * self.scale), floor)


def _upper(name: str, measured: float, threshold: float, detail: str = "") -> CheckResult:
    return CheckResult(name, float(measured), float(threshold),
                       bool(measured <= threshold), "<=", detail)


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_hypercube_normalization(opts: VerifyOptions) -> list[CheckResult]:
    from . import quadpack

    total = quadpack.quad(pert.density_hypercube_marginal, -np.inf, np.inf, limit=200).value
    return [_upper("hypercube_marginal_normalization", abs(total - 1.0), 1e-8)]


def check_hypercube_inverse_cdf(opts: VerifyOptions) -> list[CheckResult]:
    grid = np.linspace(1e-6, 1.0 - 1e-6, 1000)
    roundtrip = pert.cdf_hypercube_marginal(pert.inverse_cdf_hypercube(grid))
    err = float(np.max(np.abs(roundtrip - grid)))
    pin = abs(pert.inverse_cdf_hypercube(0.25) + 4.0 / 3.0)
    return [
        _upper("hypercube_inverse_cdf_roundtrip", err, 1e-12),
        _upper("hypercube_inverse_cdf_quartile", pin, 1e-12),
    ]


def check_heavy_tail(opts: VerifyOptions) -> list[CheckResult]:
    from . import quadpack

    # Truncated first moment of the marginal must keep growing like ln M.
    results = []
    for m_cut in (1e2, 1e4, 1e6):
        val = quadpack.quad(lambda t: 2.0 * t * pert.density_hypercube_marginal(t),
                            0.0, m_cut, limit=400).value
        results.append((m_cut, val))
    worst = min(val / math.log(m) for m, val in results)
    growth = results[-1][1] - results[0][1]
    expected_growth = math.log(results[-1][0] / results[0][0])
    return [
        CheckResult("heavy_tail_moment_growth", worst, 0.5, worst >= 0.5, ">=",
                    "truncated first moment / ln M over M in {1e2,1e4,1e6}"),
        _upper("heavy_tail_log_increment", abs(growth / expected_growth - 1.0), 0.15,
               "increment of truncated moment vs ln-ratio"),
    ]


def check_ball_density(opts: VerifyOptions) -> list[CheckResult]:
    from . import quadpack

    out = []
    for d in DIMENSIONS:
        surface = math.exp(pert.log_sphere_surface(d - 1))

        def radial_mass(r: float) -> float:
            return surface * pert.radial_profile_ball(r, d) * r ** (d - 1)

        inner = quadpack.quad(radial_mass, 0.0, 30.0, limit=300).value
        tail = quadpack.quad(radial_mass, 30.0, np.inf, limit=300).value
        out.append(_upper(f"ball_density_normalization_d{d}", abs(inner + tail - 1.0), 1e-6))
        # The closed-form radial law used by the sampler must agree with the
        # quadrature route on density and CDF.
        grid = np.array([0.05, 0.3, 1.0, 4.0, 25.0])
        dens_err = max(
            abs(pert.radial_density_ball(r, d) - surface * pert.radial_profile_ball(r, d) * r ** (d - 1))
            for r in grid
        )
        out.append(_upper(f"ball_radial_density_agreement_d{d}", dens_err, 1e-10))
        cdf_err = 0.0
        for r in (0.4, 2.0, 10.0):
            by_quad = quadpack.quad(radial_mass, 0.0, r, limit=300).value
            cdf_err = max(cdf_err, abs(pert.radial_cdf_ball(r, d) - by_quad))
        out.append(_upper(f"ball_radial_cdf_agreement_d{d}", cdf_err, 1e-8))
    return out


def ks_statistic(sample: np.ndarray, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance between ``sample`` and ``cdf``.

    The statistic of ``scipy.stats.kstest(sample, cdf)``, in its rounding:
    the larger of D+ and D- at the sorted sample.
    """
    values = cdf(np.sort(sample))
    n = values.size
    return float(max((np.arange(1.0, n + 1) / n - values).max(),
                     (values - np.arange(0.0, n) / n).max()))


def check_radial_sampling(opts: VerifyOptions) -> list[CheckResult]:
    d = 3
    rng = spawn_rngs(opts.seed + 9, 1)[0]
    # The 0.01 KS threshold presumes 1e5 draws (null KS ~ 0.87/sqrt(n)), so
    # this check does not scale down.
    n = opts.samples(10**5, floor=10**5)
    draws = pert.draw(geom.ball(d), rng, size=n)
    speeds = np.linalg.norm(draws, axis=1)
    ks = ks_statistic(speeds, lambda s: pert.radial_cdf_ball(s, d))
    directions = draws / speeds[:, None]
    dir_dev = np.abs(directions.mean(axis=0)) / (directions.std(axis=0) / math.sqrt(n))
    return [
        _upper("ball_radial_ks", float(ks), 0.01,
               f"KS distance of ||xi|| against the radial CDF, {n} draws"),
        _upper("ball_direction_symmetry", float(dir_dev.max()), 4.0,
               "componentwise mean of xi/||xi|| in SE units"),
    ]


def check_replication(opts: VerifyOptions) -> list[CheckResult]:
    out = []
    n_samples = opts.samples(10**6)
    rngs = iter(spawn_rngs(opts.seed, 2 * len(DIMENSIONS) * 6))
    for kind in (geom.HYPERCUBE, geom.BALL):
        worst = 0.0
        for d in DIMENSIONS:
            aset = geom.ActionSetModel(dimension=d, kind=kind)
            n_thetas = max(int(round(20 / len(DIMENSIONS))), 1)
            for _ in range(n_thetas):
                rng = next(rngs)
                theta = rng.standard_normal(d) * rng.uniform(0.2, 4.0)
                report = pert.verify_replication(aset, theta, n_samples, rng)
                worst = max(worst, report.max_sigma)
        out.append(_upper(f"replication_identity_{kind}", worst, 4.0,
                          f"max componentwise deviation in SE units, {n_samples} draws"))
    return out


def check_k_function(opts: VerifyOptions) -> list[CheckResult]:
    out = []
    for d in BALL_DIMENSIONS:
        out.append(_upper(f"k_function_at_zero_d{d}",
                          abs(k_function_ball(0.0, d) - (d - 1) / d), 1e-5))
        margin = 0.0
        for x in (0.0, 0.5, 1.0, 5.0, 50.0):
            k = k_function_ball(x, d)
            lo, hi = (d - 1) / (d * (x + 2.0)), (d - 1) / d
            margin = max(margin, lo - k, k - hi)
        # the upper bound is an equality at x = 0, so leave float headroom
        out.append(_upper(f"k_function_bounds_d{d}", margin, 1e-9,
                          "max violation of the two-sided K bound"))
    cache = KFunctionCache(3)
    rng = spawn_rngs(opts.seed + 1, 1)[0]
    interp_err = max(abs(cache(x) - k_function_ball(float(x), 3))
                     for x in rng.uniform(0.0, 30.0, 12))
    out.append(_upper("k_cache_interpolation", interp_err, 1e-5))
    return out


def check_qinv_dense(opts: VerifyOptions) -> list[CheckResult]:
    rng = spawn_rngs(opts.seed + 2, 1)[0]
    n_states = max(int(1000 * opts.scale), 50)
    cube_states, ball_states = [], []
    for _ in range(n_states):
        d = int(rng.integers(1, 9))
        x = rng.uniform(-0.95, 0.95, d)
        cube_states.append((x, np.where(rng.random(d) < 0.5, -1.0, 1.0)))

        d = int(rng.integers(2, 9))
        theta = rng.standard_normal(d) * rng.uniform(0.1, 5.0)
        a = rng.standard_normal(d)
        a /= np.linalg.norm(a)
        ball_states.append((theta, a))
    ball_models = covariance_balls([theta for theta, _ in ball_states])
    worst_cube = 0.0
    worst_ball = 0.0
    for x, a in cube_states:
        worst_cube = max(worst_cube, _recovery_error(covariance_hypercube(x), a))
    for (_, a), model in zip(ball_states, ball_models):
        worst_ball = max(worst_ball, _recovery_error(model, a))
    return [
        _upper("qinv_closed_form_hypercube", worst_cube, 1e-8,
               f"Q (Q^-1 A) vs A over {n_states} random states"),
        _upper("qinv_closed_form_ball", worst_ball, 1e-8),
    ]


def _recovery_error(model, a: np.ndarray) -> float:
    """|Q (Q^-1 A) - A| / |A|, with Q^-1 A in closed form and Q dense."""
    recovered = dense_covariance(model) @ estimate_loss(model, a, 1.0)
    return float(np.linalg.norm(recovered - a) / np.linalg.norm(a))


def _mc_estimates_scftpl(aset, theta, y, n, rng):
    """Vectorized draws of (A, yhat) for the perturbed-leader scheme at drift theta."""
    xi = pert.draw(aset, rng, size=n)
    actions = geom.grad_support(aset, theta + xi)
    x = geom.conjugate_gradient(aset, theta)
    if aset.kind == geom.HYPERCUBE:
        model = covariance_hypercube(x)
    else:
        model = covariance_ball(theta, aset.dimension)
    scalar = actions @ y
    estimates = estimate_loss(model, actions, scalar)
    return actions, estimates, x


def _mc_estimates_scribble(aset, x, y, n, rng):
    """Vectorized draws of (A, yhat) for uniform Dikin-pole sampling at x."""
    d = aset.dimension
    poles = np.stack([geom.dikin_pole(aset, x, i, s) for s in (1, -1) for i in range(d)])
    actions = poles[rng.integers(0, 2 * d, size=n)]
    return actions, scribble_estimate(aset, x, actions, actions @ y)


def _se_deviation(samples: np.ndarray, target) -> float:
    """Largest componentwise |mean - target| in standard errors, floored at 1/n."""
    n = samples.shape[0]
    se = np.maximum(samples.std(axis=0) / math.sqrt(n), 1.0 / n)
    return float((np.abs(samples.mean(axis=0) - target) / se).max())


def check_unbiasedness(opts: VerifyOptions) -> list[CheckResult]:
    out = []
    n = opts.samples(10**6)
    rngs = iter(spawn_rngs(opts.seed + 3, 8))
    for kind in (geom.HYPERCUBE, geom.BALL):
        d = 3
        aset = geom.ActionSetModel(dimension=d, kind=kind)
        rng = next(rngs)
        theta = rng.standard_normal(d)
        y = rng.standard_normal(d)
        y /= np.sum(np.abs(y)) if kind == geom.HYPERCUBE else np.linalg.norm(y)

        actions, estimates, x = _mc_estimates_scftpl(aset, theta, y, n, rng)
        out.append(_upper(f"unbiased_sampling_scftpl_{kind}", _se_deviation(actions, x), 4.0))
        out.append(_upper(f"unbiased_estimation_scftpl_{kind}", _se_deviation(estimates, y), 4.0))

        rng = next(rngs)
        x0 = geom.conjugate_gradient(aset, rng.standard_normal(d) * 0.8)
        actions, estimates = _mc_estimates_scribble(aset, x0, y, n, rng)
        out.append(_upper(f"unbiased_sampling_scribble_{kind}", _se_deviation(actions, x0), 4.0))
        out.append(_upper(f"unbiased_estimation_scribble_{kind}", _se_deviation(estimates, y), 4.0))
    return out


def check_variance_bounds(opts: VerifyOptions) -> list[CheckResult]:
    out = []
    n = opts.samples(10**5)
    rngs = iter(spawn_rngs(opts.seed + 4, 4))

    d = 4
    aset = geom.hypercube(d)
    rng = next(rngs)
    theta = rng.standard_normal(d) * 1.5
    y = rng.standard_normal(d)
    y /= np.sum(np.abs(y))
    _, estimates, x = _mc_estimates_scftpl(aset, theta, y, n, rng)
    ctx = geom.barrier_hessian(aset, x)
    inv_diag = 1.0 / ctx.diag
    norms_sq = np.einsum("ij,j,ij->i", estimates, inv_diag, estimates)
    se = norms_sq.std() / math.sqrt(n)
    out.append(_upper("variance_mean_hypercube", float(norms_sq.mean()), d / 2 + 3 * se,
                      f"E||yhat||_t^2 vs d/2 + 3SE at d={d}"))
    out.append(_upper("variance_max_hypercube", float(norms_sq.max()), 3.0 * d,
                      "almost-sure 3d bound over all draws"))

    d = 3
    aset = geom.ball(d)
    rng = next(rngs)
    theta = rng.standard_normal(d) * 2.0
    y = rng.standard_normal(d)
    y /= np.linalg.norm(y)
    _, estimates, x = _mc_estimates_scftpl(aset, theta, y, n, rng)
    ctx = geom.barrier_hessian(aset, x)
    a, b, c = ctx.coeff_identity, ctx.coeff_outer, ctx.center
    corr = b / (a * (a + b * (c @ c)))
    norms_sq = (estimates * estimates).sum(axis=1) / a - corr * (estimates @ c) ** 2
    se = norms_sq.std() / math.sqrt(n)
    theta_norm = float(np.linalg.norm(theta))
    out.append(_upper("variance_mean_ball", float(norms_sq.mean()), 1.5 * d * d + 3 * se,
                      f"E||yhat||_t^2 vs 1.5 d^2 + 3SE at d={d}"))
    out.append(_upper("variance_max_ball", float(norms_sq.max()),
                      d * d * theta_norm + 4.0 * d * d,
                      "per-draw bound d^2 ||theta|| + 4 d^2"))
    euclid_sq = (estimates * estimates).sum(axis=1)
    se_euclid = euclid_sq.std() / math.sqrt(n)
    out.append(_upper("variance_euclidean_ball", float(euclid_sq.mean()),
                      d * d * theta_norm + 2.0 * d * d + 3 * se_euclid,
                      "E||yhat||^2 vs d^2 ||theta|| + 2 d^2 + 3SE"))
    return out


def check_geometry(opts: VerifyOptions) -> list[CheckResult]:
    out = []
    rng = spawn_rngs(opts.seed + 5, 1)[0]
    n_pairs = max(int(1000 * opts.scale), 100)
    dikin_gap = 1.0
    smooth_margin = 0.0
    square_margin = 0.0
    growth_margin = 0.0
    conj_err = 0.0
    for kind in (geom.HYPERCUBE, geom.BALL):
        for d in (1, 2, 3, 8):
            aset = geom.ActionSetModel(dimension=d, kind=kind)
            for _ in range(n_pairs // 4):
                x = geom.conjugate_gradient(aset, rng.standard_normal(d) * 3.0)
                v = rng.standard_normal(d)
                ctx = geom.barrier_hessian(aset, x)
                v *= (1.0 - 1e-6) / math.sqrt(local_norm_sq(ctx, v))
                dikin_gap = min(dikin_gap, geom.interior_gap(aset, x + v))

                w = rng.standard_normal(d)
                w *= rng.uniform(0.05, 0.5) / math.sqrt(local_norm_sq(ctx, w))
                y_pt = x + w
                t = math.sqrt(local_norm_sq(ctx, w))
                breg = (geom.barrier_value(aset, y_pt) - geom.barrier_value(aset, x)
                        - float(geom.barrier_gradient(aset, x) @ w))
                rho = -math.log1p(-t) - t
                smooth_margin = max(smooth_margin, breg - rho)
                square_margin = max(square_margin, breg - t * t)

                z = geom.conjugate_gradient(aset, rng.standard_normal(d) * 3.0)
                gauge = geom.minkowski_gauge(aset, x, z)
                growth = (geom.barrier_value(aset, z) - geom.barrier_value(aset, x)
                          + aset.barrier_parameter * math.log1p(-min(gauge, 1.0 - 1e-15)))
                growth_margin = max(growth_margin, growth)

                theta = rng.standard_normal(d) * 5.0
                back = geom.barrier_gradient(aset, geom.conjugate_gradient(aset, theta))
                conj_err = max(conj_err, float(np.max(np.abs(back - theta)))
                               / max(float(np.max(np.abs(theta))), 1.0))
    out.append(CheckResult("dikin_containment", dikin_gap, 0.0, dikin_gap > 0.0, ">",
                           "interior gap of x + v with ||v||_x = 1 - 1e-6"))
    out.append(_upper("bregman_local_smoothness", smooth_margin, 1e-10,
                      "B(y, x) - rho(||y-x||_x) over random pairs"))
    out.append(_upper("bregman_quadratic_bound", square_margin, 1e-10,
                      "B(y, x) - ||y-x||_x^2 for ||y-x||_x <= 1/2"))
    out.append(_upper("barrier_growth", growth_margin, 1e-9,
                      "R(y) - R(x) + parameter * ln(1 - gauge_x(y))"))
    out.append(_upper("conjugacy_roundtrip", conj_err, 1e-10,
                      "grad R(grad R*(theta)) vs theta, relative"))
    return out


def check_conjugate_value(opts: VerifyOptions) -> list[CheckResult]:
    rng = spawn_rngs(opts.seed + 6, 1)[0]
    worst = 0.0
    grid = np.linspace(-1.0 + 1e-7, 1.0 - 1e-7, 200001)
    cube_barrier = -np.log1p(-grid * grid)
    for _ in range(20):
        theta = float(rng.standard_normal() * rng.uniform(0.1, 4.0))
        by_grid = float(np.max(grid * theta - cube_barrier))
        exact = geom.conjugate_value(geom.hypercube(1), np.array([theta]))
        worst = max(worst, abs(by_grid - exact))
        d = int(rng.integers(2, 6))
        tvec = rng.standard_normal(d)
        tvec *= theta / np.linalg.norm(tvec)
        radial = float(np.max(grid * abs(theta) - cube_barrier))  # same 1-d problem along tvec
        exact = geom.conjugate_value(geom.ball(d), tvec)
        worst = max(worst, abs(radial - exact))
    return [_upper("conjugate_value_grid_oracle", worst, 1e-6,
                   "envelope identity vs 2e5-point grid maximization")]


def check_engine(opts: VerifyOptions) -> list[CheckResult]:
    out = []
    d, n = 2, 2000
    adv = AdversarySpec(kind=FIXED_VECTOR, geometry=geom.HYPERCUBE)
    losses = generate(adv, d, n)
    aset = geom.hypercube(d)
    spec = AlgorithmSpec(variant=SCFTPL, action_set=aset, learning_rate="auto")
    trace = run(spec, losses, spawn_rngs(opts.seed + 7, 1)[0])

    out.append(_upper("step_condition_hypercube", float(trace.step_violation.sum()), 0.0,
                      f"rounds violating 2 eta ||yhat||_t <= 1 out of {n}"))

    interior = geom.interior_gap(aset, trace.x)  # the least gap of any round
    out.append(CheckResult("expected_action_interior", interior, 0.0, interior > 0.0, ">"))

    eta = resolve_learning_rate(spec, n)
    divergences = bregman_diagnostic(aset, eta, trace)
    out.append(CheckResult("bregman_nonnegative", float(divergences.min()), -1e-12,
                           bool(divergences.min() >= -1e-12), ">="))
    norm_sq = trace.local_norm_sq
    within = eta * np.sqrt(np.maximum(norm_sq, 0.0)) <= 0.5
    bound_margin = float(np.max(divergences - eta * eta * norm_sq, where=within, initial=0.0))
    out.append(_upper("bregman_quadratic_per_round", bound_margin, 1e-12,
                      "B <= ||eta yhat||_t^2 whenever the step condition holds"))

    rerun = run(spec, losses, spawn_rngs(opts.seed + 7, 1)[0])
    identical = bool(np.array_equal(trace.action, rerun.action)
                     and np.array_equal(trace.scalar_loss, rerun.scalar_loss))
    out.append(CheckResult("engine_determinism", float(identical), 1.0, identical, ">="))

    u_star = best_in_hindsight(aset, losses)
    regrets = [regret(run(spec, losses, child), losses, u_star)
               for child in spawn_rngs(opts.seed + 8, 8)]
    bound = theoretical_bound(geom.HYPERCUBE, d, n)[-1]
    out.append(_upper("regret_under_bound_small", float(np.mean(regrets)), bound,
                      f"mean realized regret over 8 seeds, d={d}, n={n}"))
    return out


# Each check group in suite order, with the prefixes its row names start with.
_GROUPS_AND_ROW_PREFIXES = (
    (check_hypercube_normalization, ("hypercube_marginal_normalization",)),
    (check_hypercube_inverse_cdf, ("hypercube_inverse_cdf_",)),
    (check_heavy_tail, ("heavy_tail_",)),
    (check_ball_density, ("ball_density_normalization_d", "ball_radial_density_agreement_d",
                          "ball_radial_cdf_agreement_d")),
    (check_radial_sampling, ("ball_radial_ks", "ball_direction_symmetry")),
    (check_replication, ("replication_identity_",)),
    (check_k_function, ("k_function_at_zero_d", "k_function_bounds_d", "k_cache_interpolation")),
    (check_qinv_dense, ("qinv_closed_form_",)),
    (check_unbiasedness, ("unbiased_",)),
    (check_variance_bounds, ("variance_",)),
    (check_geometry, ("dikin_containment", "bregman_local_smoothness", "bregman_quadratic_bound",
                      "barrier_growth", "conjugacy_roundtrip")),
    (check_conjugate_value, ("conjugate_value_grid_oracle",)),
    (check_engine, ("step_condition_hypercube", "expected_action_interior", "bregman_nonnegative",
                    "bregman_quadratic_per_round", "engine_determinism",
                    "regret_under_bound_small")),
)
CHECK_GROUPS = tuple(group for group, _ in _GROUPS_AND_ROW_PREFIXES)
# keyed by __name__, which functools.wraps carries to a wrapped group
ROW_PREFIXES = {group.__name__: prefixes for group, prefixes in _GROUPS_AND_ROW_PREFIXES}


def select_groups(checks: tuple[str, ...] | None) -> tuple:
    """The check groups, in suite order, that can emit a row starting with a ``checks`` prefix."""
    return tuple(group for group in CHECK_GROUPS
                 if checks is None or any(p.startswith(c) or c.startswith(p)
                                          for p in ROW_PREFIXES[group.__name__] for c in checks))


def verify_groups(opts: VerifyOptions):
    """Run every check group the filter can select, in suite order.

    Yields each group's name, the rows the filter selects from it and the
    group's wall seconds.
    """
    # the checks' laws need scipy.special: load it before the first group
    import scipy.special  # noqa: F401

    for group in select_groups(opts.checks):
        start = time.perf_counter()
        rows = group(opts)
        seconds = time.perf_counter() - start
        if opts.checks is not None:
            rows = [r for r in rows if any(r.name.startswith(p) for p in opts.checks)]
        yield group.__name__, rows, seconds
