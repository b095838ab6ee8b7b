"""Heavy-tailed perturbation distributions that replicate the log barriers.

Hypercube: coordinates are i.i.d. with density

    f(t) = (sqrt(1+t^2) - 1) / (2 t^2 sqrt(1+t^2))
         = 1 / (2 s (1 + s)),   s = sqrt(1 + t^2),

whose CDF and inverse CDF are closed-form, so sampling is d independent
inverse-transform draws. The rationalized form above is exact at t = 0
(value 1/4) and cancellation-free; the tail is f(t) ~ t^-2 / 2, so the
distribution has no first moment.

Ball: the density is spherical with radial profile

    f~(r) = c_d * integral_0^1 t^{(d-1)/2} (1 + t r^2)^{-d-1/2} dt ,
    c_d   = Gamma(d + 1/2) / (2 pi^{d/2} Gamma((d+1)/2)),

evaluated here by adaptive quadrature after the substitution t = s^2 that
removes the endpoint singularity. A draw factorizes as (direction on the
sphere) x (speed V): the speed density p_V(s) = S_{d-1} f~(s) s^{d-1} and
its CDF reduce exactly to regularized incomplete beta functions,

    p_V(s) = I_w((d+1)/2, d/2) / s^2,                w = s^2/(1+s^2),
    F_V(s) = I_w(d/2, (d+1)/2) - I_w((d+1)/2, d/2)/s,

(integration by parts plus w-substitution), which the tests cross-check
against direct quadrature of f~. Speeds are drawn by inverse transform on a
precomputed log-spaced CDF table refined by one Newton step with the exact
CDF/density pair, which share one I_w((d+1)/2, d/2) per speed. The table
truncates the s^-2 tail at s_max = 2e6, losing at most
1 - F_V(s_max) <= 1e-6 of total-variation mass.

The law is fixed by the body and d, so drawing needs no sampler object.
Every stream layout is written here: :func:`draw` (bulk draws for
verification and ``scbandits sample``), and the per-round randomness of one
or more runs in blocks, :func:`round_noise_blocks` (the perturbations, in
another order than :func:`draw`) and :func:`pole_draw_blocks` (the
Dikin-pole indices).

A bulk draw of many rows may run part of its work on other threads, one
per usable CPU (:func:`_split_rows`): the ball's Box-Muller, direction
normalization and radial-table inverse, and :func:`verify_replication`'s
``grad_support`` and squaring. Each thread applies the same element-wise
kernels to its own contiguous range of rows and writes only those rows;
the generator reads and every reduction stay on the calling thread, over
the whole batch, in stream order. So the arrays, the reports and the
generator's state afterwards are bit for bit the same at any core count.
A kernel splits only when each share's estimated work outweighs starting
its thread, so the hypercube's one-``np.where`` support kernel stays on
the calling thread at d = 1. Small draws and a run's per-round noise
blocks stay on the calling thread, and the thread pool is imported by the
first split, so a run starts no thread.

Only the ball's radial law uses scipy (``gammaln``, ``betainc``, and the
quadrature of :func:`radial_profile_ball`, which only verification reads),
so this module imports it inside the functions that call it: a hypercube
run, ``sample`` or ``bench`` loads numpy alone, and a ball one loads
``scipy.special`` when it builds its radial table or K grid.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .action_sets import (_CONJUGATE_OVERFLOW, ActionSetModel, HYPERCUBE, conjugate_gradient,
                          grad_support)
from .rng import block_rows, box_muller

# Radial table geometry: 4096 log-spaced nodes reaching far enough into the
# s^-2 tail that the truncated mass is below 1e-6 (1 - F_V(2e6) = 5e-7 at
# every d from 1 to 1e8).
RADIAL_TABLE_NODES = 4096
RADIAL_TABLE_S_MAX = 2.0e6
_RADIAL_TABLE_S_MIN = 1e-6
_TAIL_MASS_BUDGET = 1e-6

_U_FLOOR = 2.0**-54  # uniform draws are nudged off 0 before inverse CDFs


# ---------------------------------------------------------------------------
# Hypercube marginal
# ---------------------------------------------------------------------------

def density_hypercube_marginal(t):
    """Marginal density f(t) = 1 / (2 s (1 + s)), s = sqrt(1 + t^2)."""
    t = np.asarray(t, dtype=float)
    s = np.sqrt(1.0 + t * t)
    out = 1.0 / (2.0 * s * (1.0 + s))
    return float(out) if out.ndim == 0 else out

def cdf_hypercube_marginal(t):
    """Marginal CDF F(t) = 1/2 + t / (2 (1 + sqrt(1 + t^2))).

    Beyond |t| = 1e150, where conjugate_gradient also switches to its
    asymptote (t^2 overflows from 1.34e154), F is taken as its limit 0 or
    1, which is within 1/(2|t|) of the exact value.
    """
    t = np.asarray(t, dtype=float)
    big = np.abs(t) > _CONJUGATE_OVERFLOW
    tame = np.where(big, 0.0, t)
    out = np.where(big, 0.5 + 0.5 * np.sign(t),
                   0.5 + tame / (2.0 * (1.0 + np.sqrt(1.0 + tame * tame))))
    return float(out) if out.ndim == 0 else out

def inverse_cdf_hypercube(u):
    """Generalized inverse CDF, (1 - 2u) / (2 u (u - 1)) on (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("inverse CDF argument must lie strictly in (0, 1)")
    out = (1.0 - 2.0 * u) / (2.0 * u * (u - 1.0))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Ball density
# ---------------------------------------------------------------------------

def radial_profile_ball(r: float, d: int) -> float:
    """Radial profile f~(r) of the ball density, by adaptive quadrature.

    Substituting t = s^2 turns the inner integral into
    2 * integral_0^1 s^d (1 + s^2 r^2)^{-d-1/2} ds with a smooth integrand.
    Relative tolerance 1e-10; the Gamma prefactor is evaluated in the log
    domain.
    """
    from scipy import integrate
    from scipy.special import gammaln

    r = float(r)
    d = int(d)
    logc = gammaln(d + 0.5) - np.log(2.0) - (d / 2.0) * np.log(np.pi) - gammaln((d + 1) / 2.0)
    if r <= 1.0:
        def integrand(s: float) -> float:
            return 2.0 * s**d * (1.0 + (s * r) ** 2) ** (-d - 0.5)

        val, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)
        return float(np.exp(logc) * val)
    # rescaling w = s r turns the sharpening integrand into a fixed bump at
    # w ~ 1; the far tail (w > 50) inverts to the same smooth family via
    # v = 1/w, keeping every quadrature interval short and feature-free
    def integrand(w: float) -> float:
        return 2.0 * w**d * (1.0 + w * w) ** (-d - 0.5)

    head, _ = integrate.quad(integrand, 0.0, min(r, 50.0), epsabs=0.0, epsrel=1e-10,
                             limit=200, points=[1.0] if r > 1.0 else None)
    val = head
    if r > 50.0:
        def inverted(v: float) -> float:
            return 2.0 * v ** (d - 1) * (1.0 + v * v) ** (-d - 0.5)

        tail, _ = integrate.quad(inverted, 1.0 / r, 1.0 / 50.0, epsabs=0.0,
                                 epsrel=1e-10, limit=200)
        val += tail
    return float(np.exp(logc) * val / r ** (d + 1))


def density_ball(x) -> float:
    """Density of the ball perturbation at a point (spherical in ||x||)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("density_ball expects a d-vector with d >= 1")
    return radial_profile_ball(float(np.linalg.norm(x)), x.size)


def log_sphere_surface(n: int) -> float:
    """log of the surface area of the unit n-sphere embedded in R^{n+1}."""
    from scipy.special import gammaln

    return float(np.log(2.0) + ((n + 1) / 2.0) * np.log(np.pi) - gammaln((n + 1) / 2.0))


def radial_beta(w, d: int):
    """I_w((d+1)/2, d/2), the regularized incomplete beta that the speed law
    reads, element by element."""
    from scipy.special import betainc

    return betainc((d + 1) / 2.0, d / 2.0, w)


def radial_density_ball(s, d: int):
    """Speed density p_V(s) = S_{d-1} f~(s) s^{d-1}, in incomplete-beta form,
    at a float (giving a float) or at each entry of an array."""
    out = _radial_law(np.asarray(s, dtype=float), d, cdf=False)[0]
    return float(out) if out.ndim == 0 else out


def radial_cdf_ball(s, d: int):
    """Speed CDF F_V(s) = I_w(d/2, (d+1)/2) - I_w((d+1)/2, d/2) / s."""
    out = _radial_law(np.asarray(s, dtype=float), d)[1]
    return float(out) if out.ndim == 0 else out


def _radial_law(s: np.ndarray, d: int, cdf: bool = True):
    """The speed density p_V and, with ``cdf``, the CDF F_V at every entry of ``s``.

    Both read I_w((d+1)/2, d/2) at w = s^2/(1+s^2), computed once here;
    each is rounded as its own formula alone rounds it.
    """
    from scipy.special import betainc

    positive = s > 0.0
    ssq = np.where(positive, s * s, 1.0)
    w = ssq / (1.0 + ssq)
    upper = radial_beta(w, d)
    # lim_{s->0} p_V(s): positive only in dimension one, where the speed is
    # |xi| for a scalar xi with the hypercube marginal density.
    density = np.where(positive, upper / ssq, 0.5 if d == 1 else 0.0)
    if not cdf:
        return density, None
    return density, np.where(positive, betainc(d / 2.0, (d + 1) / 2.0, w)
                             - upper / np.where(positive, s, 1.0), 0.0)


# ---------------------------------------------------------------------------
# Radial table
# ---------------------------------------------------------------------------

def require_tail_budget(cdf_at_s_max: float) -> None:
    """Reject a radial table whose last node leaves more tail mass than the budget."""
    if cdf_at_s_max < 1.0 - _TAIL_MASS_BUDGET:
        raise ValueError(
            f"radial table covers only CDF {cdf_at_s_max:.9f}; "
            f"raise RADIAL_TABLE_S_MAX so the truncated tail is below {_TAIL_MASS_BUDGET:g}"
        )


@dataclass(frozen=True)
class RadialTable:
    """Monotone (s, CDF) grid for inverse-transform speed sampling."""

    d: int
    nodes: np.ndarray
    cdf: np.ndarray

    @classmethod
    @functools.lru_cache(maxsize=64)
    def build(cls, d: int) -> "RadialTable":
        """Log-spaced grid of up to RADIAL_TABLE_NODES nodes on (0, RADIAL_TABLE_S_MAX].

        The CDF scales like s^d near zero, so for large d the leading grid
        nodes carry mass that underflows or sits in the subnormal range
        where float cancellation breaks monotonicity. Nodes below a 1e-30
        mass floor are trimmed (a uniform draw resolves nothing below
        2^-54, so they are unreachable anyway); node 0 is always (0, 0).
        A table depends on d alone and a build costs as much as dozens of
        ball rounds, so a process builds one per d and every draw shares it.
        """
        grid = np.geomspace(_RADIAL_TABLE_S_MIN, RADIAL_TABLE_S_MAX, RADIAL_TABLE_NODES - 1)
        cdf_grid = radial_cdf_ball(grid, d)
        first = int(np.argmax(cdf_grid > 1e-30))
        nodes = np.concatenate([[0.0], grid[first:]])
        cdf = np.concatenate([[0.0], cdf_grid[first:]])
        table = cls(d=int(d), nodes=nodes, cdf=cdf)
        table.validate()
        return table

    def validate(self) -> None:
        if not np.all(np.diff(self.cdf) > 0.0):
            raise ValueError("radial table CDF must be strictly increasing")
        require_tail_budget(self.cdf[-1])

    def inverse(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF by table bracket + one Newton step with the exact law.

        Draws beyond the tabulated mass (probability <= 1e-6) clamp to the
        final cell, i.e. the tail is truncated at s_max.
        """
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.cdf, u, side="right"), 1, self.nodes.size - 1)
        lo, hi = self.nodes[idx - 1], self.nodes[idx]
        clo, chi = self.cdf[idx - 1], self.cdf[idx]
        frac = np.clip((u - clo) / (chi - clo), 0.0, 1.0)
        s = lo + frac * (hi - lo)
        dens, cdf = _radial_law(s, self.d)
        s = s - (cdf - u) / np.maximum(dens, 1e-300)
        return np.clip(s, lo, hi)


# ---------------------------------------------------------------------------
# Drawing perturbations: the only place that knows how the stream is laid out
# ---------------------------------------------------------------------------

# A share holds at least this many rows, and at least this much work: starting
# and joining a share's thread cost 0.24-0.36 ms on a 2-core x86_64 host, and
# a split gained nothing until each share carried more than that.
_MIN_SHARE_ROWS = 1 << 12
_MIN_SHARE_NS = 500_000

# Estimated cost of one row of each split kernel, in ns, on that host:
# Box-Muller about 40 ns per normal; the radial-table inverse with its Newton
# polish 0.8-1.3 us per speed; grad_support and squaring about 6 ns per value.
_BOX_MULLER_NS = 40
_SPEED_NS = 1000
_SUPPORT_NS = 6


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split_rows(n: int, width: int, work, row_ns: float) -> None:
    """Call ``work(start, stop)`` on consecutive row ranges that cover range(n).

    A range holds at most the rows :func:`block_rows` gives a block of
    ``width`` values per row, so the temporaries of a call stay small at any
    n. ``row_ns`` is the estimated cost of ``work`` per row. With more than
    one usable CPU, and enough rows for two shares of at least
    _MIN_SHARE_ROWS rows and _MIN_SHARE_NS of work each, the rows are cut
    into one contiguous share per CPU (fewer if the work does not fill
    them); the calling thread walks the last share and a new thread each
    other one. ``work`` must write only the rows it is given. An exception
    from any share is raised here, after every share has ended.
    """
    def walk(start: int, stop: int) -> None:
        for m in block_rows(stop - start, width):
            work(start, start + m)
            start += m

    shares = min(_usable_cpus(), n // max(_MIN_SHARE_ROWS, math.ceil(_MIN_SHARE_NS / row_ns)))
    if shares <= 1:
        walk(0, n)
        return
    from concurrent.futures import ThreadPoolExecutor

    bounds = [n * i // shares for i in range(shares + 1)]
    with ThreadPoolExecutor(max_workers=shares - 1) as pool:
        futures = [pool.submit(walk, a, b) for a, b in zip(bounds[:-2], bounds[1:-1])]
        walk(bounds[-2], bounds[-1])
    for future in futures:
        future.result()


def draw(aset: ActionSetModel, rng: np.random.Generator, size: int):
    """``size`` draws, shape (size, d), from the body's perturbation.

    A hypercube draw is d i.i.d. inverse-CDF coordinates; the draws consume
    exactly size*d uniforms of ``rng``. A ball draw is direction x speed.
    Direction: d Box-Muller gaussians normalized to the sphere. Speed: one
    uniform pushed through the radial table inverse. All draws' gaussians
    come first, 2*ceil(d/2) uniforms per draw, then one speed uniform per
    draw.
    """
    d, n = aset.dimension, int(size)
    if aset.kind == HYPERCUBE:
        return inverse_cdf_hypercube(np.maximum(rng.random((n, d)), _U_FLOOR))
    pairs = (d + 1) // 2
    # the stream and the normals of gaussians(rng, 2 * n * pairs): the u1
    # block, then the u2 block; Box-Muller's cosine block, then its sine
    # block, read in rows of 2 * pairs normals, one row per draw
    u = rng.random((2, n, pairs))
    speed_u = np.maximum(rng.random(n), _U_FLOOR)
    normal = np.empty((2, n, pairs))

    def box_muller_rows(a: int, b: int) -> None:
        normal[:, a:b] = box_muller(u[0, a:b].ravel(), u[1, a:b].ravel()).reshape(2, b - a, pairs)

    _split_rows(n, 2 * pairs, box_muller_rows, _BOX_MULLER_NS * 2 * pairs)
    del u  # free the uniforms before the second pass
    rows = normal.reshape(n, 2 * pairs)[:, :d]
    table = RadialTable.build(d)
    out = np.empty((n, d))

    def direction_times_speed(a: int, b: int) -> None:
        norms = np.linalg.norm(rows[a:b], axis=1, keepdims=True)
        speeds = table.inverse(speed_u[a:b])
        out[a:b] = rows[a:b] / np.where(norms > 0.0, norms, 1.0) * speeds[:, None]

    _split_rows(n, 2 * pairs, direction_times_speed, _SPEED_NS)
    return out


def round_noise_blocks(aset: ActionSetModel, rngs, n: int):
    """The perturbations of n rounds of runs on seeds ``rngs``, as (m, S, d) blocks.

    Row i of a block holds round t0 + i of every seed, in the order of
    ``rngs``. The draws are taken ahead of the rounds: each seed fills its
    own (m, w) uniform block from its own stream, so its rows are bit for
    bit the draws its rounds would take alone, however many seeds share a
    block. A hypercube round consumes d uniforms. A ball round consumes
    2 ceil(d/2) uniforms for Box-Muller, whose first d normals give the
    direction, then one for the speed; its norm is the sqrt of a ``vecdot``,
    like ``math.sqrt(normal @ normal)``, and the table inverse works element
    by element.
    """
    d = aset.dimension
    hypercube = aset.kind == HYPERCUBE
    pairs = (d + 1) // 2
    width = d if hypercube else 2 * pairs + 1
    table = None if hypercube else RadialTable.build(d)
    for m in block_rows(n, len(rngs) * width):
        u = np.stack([rng.random((m, width)) for rng in rngs], axis=1)
        if hypercube:
            yield inverse_cdf_hypercube(np.maximum(u, _U_FLOOR))
            continue
        normal = box_muller(u[..., :pairs], u[..., pairs:-1])[..., :d]
        norms = np.sqrt(np.vecdot(normal, normal))
        speeds = table.inverse(np.maximum(u[..., -1], _U_FLOOR))
        yield normal / np.where(norms > 0.0, norms, 1.0)[..., None] * speeds[..., None]


def pole_draw_blocks(aset: ActionSetModel, rngs, n: int):
    """The Dikin-pole indices of n rounds of runs on seeds ``rngs``, as (m, S) blocks
    of as many rounds as the hypercube's noise blocks: one draw uniform on [0, 2d)
    per round, bit for bit ``rng.integers(0, 2 * d)`` round by round."""
    d = aset.dimension
    for m in block_rows(n, len(rngs) * d):
        yield np.stack([rng.integers(0, 2 * d, size=m) for rng in rngs], axis=1)


# ---------------------------------------------------------------------------
# Replication verifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicationReport:
    """Monte-Carlo check of the defining identity

    grad R*(theta) = E[grad support(theta + xi)].
    """

    mc_mean: np.ndarray
    target: np.ndarray
    stderr: np.ndarray

    @property
    def max_sigma(self) -> float:
        """Largest componentwise deviation in standard-error units."""
        return float(np.max(np.abs(self.mc_mean - self.target) / self.stderr))


def verify_replication(aset: ActionSetModel, theta, n_samples: int,
                       rng: np.random.Generator) -> ReplicationReport:
    """Compare the MC mean of grad support(theta + xi) to grad R*(theta)."""
    n_samples = int(n_samples)
    if n_samples < 1000:
        raise ValueError("replication check needs at least 1e3 samples")
    theta = np.asarray(theta, dtype=float)
    batch = 1 << 17
    total = np.zeros(aset.dimension)
    total_sq = np.zeros(aset.dimension)
    remaining = n_samples
    while remaining > 0:
        m = min(batch, remaining)
        xi = draw(aset, rng, size=m)
        grads = np.empty_like(xi)

        def support_rows(a: int, b: int) -> None:
            grads[a:b] = grad_support(aset, theta + xi[a:b])
            # the squares overwrite xi's rows, which are spent
            np.multiply(grads[a:b], grads[a:b], out=xi[a:b])

        _split_rows(m, aset.dimension, support_rows, _SUPPORT_NS * aset.dimension)
        total += grads.sum(axis=0)
        total_sq += xi.sum(axis=0)
        remaining -= m
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    stderr = np.sqrt(var / n_samples)
    # A coordinate of grad support can be (nearly) deterministic; keep the
    # z-statistic meaningful by flooring the standard error at the MC
    # resolution scale.
    stderr = np.maximum(stderr, 1.0 / n_samples)
    return ReplicationReport(mc_mean=mean, target=conjugate_gradient(aset, theta), stderr=stderr)
