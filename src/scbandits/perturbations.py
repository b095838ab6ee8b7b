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
CDF/density pair. The table truncates the s^-2 tail at s_max, losing at
most 1 - F_V(s_max) <= 1e-6 of total-variation mass.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import betainc, gammaln

from .action_sets import (
    ActionSetModel,
    BALL,
    HYPERCUBE,
    conjugate_gradient,
    grad_support,
)
from .rng import gaussians

# Radial table defaults: 4096 log-spaced nodes reaching far enough into the
# s^-2 tail that the truncated mass is below 1e-6 (1 - F_V(2e6) = 5e-7).
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
    """Marginal CDF F(t) = 1/2 + t / (2 (1 + sqrt(1 + t^2)))."""
    t = np.asarray(t, dtype=float)
    out = 0.5 + t / (2.0 * (1.0 + np.sqrt(1.0 + t * t)))
    return float(out) if out.ndim == 0 else out

def inverse_cdf_hypercube(u):
    """Generalized inverse CDF, (1 - 2u) / (2 u (u - 1)) on (0, 1)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("inverse CDF argument must lie strictly in (0, 1)")
    out = (1.0 - 2.0 * u) / (2.0 * u * (u - 1.0))
    return float(out) if out.ndim == 0 else out


def sample_hypercube(aset: ActionSetModel, rng: np.random.Generator, size: int | None = None):
    """Draw from the hypercube perturbation: d i.i.d. inverse-CDF coordinates.

    Returns shape (d,) for ``size=None`` and (size, d) otherwise. Consumes
    exactly d (resp. size*d) uniforms from ``rng``.
    """
    if aset.kind != HYPERCUBE:
        raise ValueError("sample_hypercube needs a hypercube action set")
    shape = (aset.dimension,) if size is None else (int(size), aset.dimension)
    u = np.maximum(rng.random(shape), _U_FLOOR)
    return inverse_cdf_hypercube(u)


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
    return float(np.log(2.0) + ((n + 1) / 2.0) * np.log(np.pi) - gammaln((n + 1) / 2.0))


def radial_density_ball(s, d: int):
    """Speed density p_V(s) = S_{d-1} f~(s) s^{d-1}, in incomplete-beta form.

    A Python float skips the array wrapping: the K quadrature calls this
    about 1e5 times per grid as its scalar integrand. Both routes perform
    the same IEEE operations, so they return bit-identical values.
    """
    scalar = isinstance(s, float)
    if scalar:
        if not s > 0.0:
            return _radial_density_at_zero(d)
        ssq = s * s
    else:
        s = np.asarray(s, dtype=float)
        ssq = np.where(s > 0.0, s * s, 1.0)
    out = betainc((d + 1) / 2.0, d / 2.0, ssq / (1.0 + ssq)) / ssq
    if scalar:
        return float(out)
    out = np.where(s > 0.0, out, _radial_density_at_zero(d))
    return float(out) if out.ndim == 0 else out


def _radial_density_at_zero(d: int) -> float:
    # lim_{s->0} p_V(s): positive only in dimension one, where the speed is
    # |xi| for a scalar xi with the hypercube marginal density.
    return 0.5 if d == 1 else 0.0


def radial_cdf_ball(s, d: int):
    """Speed CDF F_V(s) = I_w(d/2, (d+1)/2) - I_w((d+1)/2, d/2) / s."""
    s = np.asarray(s, dtype=float)
    w = s * s / (1.0 + s * s)
    safe = np.where(s > 0.0, s, 1.0)
    out = np.where(
        s > 0.0,
        betainc(d / 2.0, (d + 1) / 2.0, w) - betainc((d + 1) / 2.0, d / 2.0, w) / safe,
        0.0,
    )
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Radial table and sampler
# ---------------------------------------------------------------------------

_TABLE_MAGIC = b"SCBRTBL1"


def require_tail_budget(cdf_at_s_max: float) -> None:
    """Reject a radial table whose last node leaves more tail mass than the budget."""
    if cdf_at_s_max < 1.0 - _TAIL_MASS_BUDGET:
        raise ValueError(
            f"radial table covers only CDF {cdf_at_s_max:.9f}; "
            f"raise s_max so the truncated tail is below {_TAIL_MASS_BUDGET:g}"
        )


@dataclass(frozen=True)
class RadialTable:
    """Monotone (s, CDF) grid for inverse-transform speed sampling."""

    d: int
    s_max: float
    node_count: int
    nodes: np.ndarray
    cdf: np.ndarray

    @classmethod
    def build(cls, d: int, s_max: float = RADIAL_TABLE_S_MAX,
              node_count: int = RADIAL_TABLE_NODES) -> "RadialTable":
        """Log-spaced grid of up to ``node_count`` nodes on (0, s_max].

        The CDF scales like s^d near zero, so for large d the leading grid
        nodes carry mass that underflows or sits in the subnormal range
        where float cancellation breaks monotonicity. Nodes below a 1e-30
        mass floor are trimmed (a uniform draw resolves nothing below
        2^-54, so they are unreachable anyway); node 0 is always (0, 0).
        """
        if node_count < 16:
            raise ValueError("radial table needs at least 16 nodes")
        grid = np.geomspace(_RADIAL_TABLE_S_MIN, float(s_max), node_count - 1)
        cdf_grid = radial_cdf_ball(grid, d)
        first = int(np.argmax(cdf_grid > 1e-30))
        nodes = np.concatenate([[0.0], grid[first:]])
        cdf = np.concatenate([[0.0], cdf_grid[first:]])
        table = cls(d=int(d), s_max=float(s_max), node_count=int(nodes.size),
                    nodes=nodes, cdf=cdf)
        table.validate()
        return table

    def matches_grid(self, d: int, s_max: float, requested_nodes: int) -> bool:
        """Whether this table came from build(d, s_max, requested_nodes).

        The stored node count may be smaller than requested (zero-mass nodes
        are trimmed for large d), so the comparison checks the grid geometry:
        endpoint and the geometric step of the requested grid.
        """
        if self.d != d or self.s_max != s_max or self.node_count > requested_nodes:
            return False
        if self.nodes[-1] != s_max or self.node_count < 3:
            return False
        expected_step = (s_max / _RADIAL_TABLE_S_MIN) ** (1.0 / (requested_nodes - 2))
        actual_step = self.nodes[2] / self.nodes[1]
        return bool(abs(actual_step - expected_step) <= 1e-9 * expected_step)

    def validate(self) -> None:
        if self.nodes.shape != (self.node_count,) or self.cdf.shape != (self.node_count,):
            raise ValueError("radial table arrays do not match node_count")
        if not np.all(np.diff(self.cdf) > 0.0):
            raise ValueError("radial table CDF must be strictly increasing")
        require_tail_budget(self.cdf[-1])

    def save(self, path: str | Path) -> None:
        """Binary cache: magic, then little-endian header {d, s_max, node_count}
        as (int64, float64, int64), then node_count (s, cdf) float64 pairs."""
        payload = np.empty((self.node_count, 2), dtype="<f8")
        payload[:, 0] = self.nodes
        payload[:, 1] = self.cdf
        with open(path, "wb") as fh:
            fh.write(_TABLE_MAGIC)
            fh.write(struct.pack("<qdq", self.d, self.s_max, self.node_count))
            fh.write(payload.tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "RadialTable":
        with open(path, "rb") as fh:
            magic = fh.read(len(_TABLE_MAGIC))
            if magic != _TABLE_MAGIC:
                raise ValueError(f"{path}: not a radial table cache")
            d, s_max, node_count = struct.unpack("<qdq", fh.read(24))
            payload = np.frombuffer(fh.read(int(node_count) * 16), dtype="<f8").reshape(-1, 2)
        table = cls(d=int(d), s_max=float(s_max), node_count=int(node_count),
                    nodes=payload[:, 0].copy(), cdf=payload[:, 1].copy())
        table.validate()
        return table

    def inverse(self, u: np.ndarray) -> np.ndarray:
        """Inverse CDF by table bracket + one Newton step with the exact law.

        Draws beyond the tabulated mass (probability <= 1e-6) clamp to the
        final cell, i.e. the tail is truncated at s_max.
        """
        u = np.asarray(u, dtype=float)
        idx = np.clip(np.searchsorted(self.cdf, u, side="right"), 1, self.node_count - 1)
        lo, hi = self.nodes[idx - 1], self.nodes[idx]
        clo, chi = self.cdf[idx - 1], self.cdf[idx]
        frac = np.clip((u - clo) / (chi - clo), 0.0, 1.0)
        s = lo + frac * (hi - lo)
        dens = radial_density_ball(s, self.d)
        s = s - (radial_cdf_ball(s, self.d) - u) / np.maximum(dens, 1e-300)
        return np.clip(s, lo, hi)

    def inverse_scalar(self, u: float) -> float:
        """Single-draw inverse, float arithmetic throughout (engine hot path).

        Same bracket + one-Newton-step scheme as :meth:`inverse`, bit-equal
        to it for the same input.
        """
        idx = int(np.searchsorted(self.cdf, u, side="right"))
        idx = 1 if idx < 1 else (self.node_count - 1 if idx > self.node_count - 1 else idx)
        lo = float(self.nodes[idx - 1])
        hi = float(self.nodes[idx])
        clo = float(self.cdf[idx - 1])
        chi = float(self.cdf[idx])
        frac = (u - clo) / (chi - clo)
        frac = 0.0 if frac < 0.0 else (1.0 if frac > 1.0 else frac)
        s = lo + frac * (hi - lo)
        w = s * s / (1.0 + s * s)
        half = (self.d + 1) / 2.0
        if s > 0.0:
            upper = float(betainc(half, self.d / 2.0, w))
            dens = upper / (s * s)
            cdf = float(betainc(self.d / 2.0, half, w)) - upper / s
        else:
            dens = _radial_density_at_zero(self.d)
            cdf = 0.0
        s = s - (cdf - u) / (dens if dens > 1e-300 else 1e-300)
        return lo if s < lo else (hi if s > hi else s)


@dataclass(frozen=True)
class PerturbationSampler:
    """A body's perturbation distribution plus its sampling state.

    The hypercube needs no auxiliary state. The ball carries the radial CDF
    table. Construction verifies the distribution-level invariants: the
    hypercube marginal integrates to one (adaptive quadrature, 1e-8) and the
    radial table is strictly monotone with tail coverage >= 1 - 1e-6.
    """

    action_set: ActionSetModel
    radial_table: RadialTable | None = None

    @classmethod
    def for_set(cls, aset: ActionSetModel, s_max: float = RADIAL_TABLE_S_MAX,
                nodes: int = RADIAL_TABLE_NODES,
                cache_path: str | Path | None = None) -> "PerturbationSampler":
        if aset.kind == HYPERCUBE:
            total, _ = integrate.quad(density_hypercube_marginal, -np.inf, np.inf, limit=200)
            if abs(total - 1.0) > 1e-8:
                raise ValueError(f"hypercube marginal integrates to {total!r}, not 1")
            return cls(action_set=aset)
        table: RadialTable | None = None
        if cache_path is not None and Path(cache_path).exists():
            cached = RadialTable.load(cache_path)
            if cached.matches_grid(aset.dimension, float(s_max), int(nodes)):
                table = cached
        if table is None:
            table = RadialTable.build(aset.dimension, s_max=s_max, node_count=nodes)
            if cache_path is not None:
                table.save(cache_path)
        return cls(action_set=aset, radial_table=table)

    def draw(self, rng: np.random.Generator, size: int | None = None):
        if self.action_set.kind == HYPERCUBE:
            return sample_hypercube(self.action_set, rng, size)
        return sample_ball(self, rng, size)


def sample_ball(sampler: PerturbationSampler, rng: np.random.Generator, size: int | None = None):
    """Draw from the ball perturbation as direction x speed.

    Direction: d Box-Muller gaussians normalized to the sphere. Speed: one
    uniform pushed through the radial table inverse. Per draw this consumes
    exactly 2*ceil(d/2) + 1 uniforms, in that order.
    """
    aset = sampler.action_set
    if aset.kind != BALL:
        raise ValueError("sample_ball needs a ball action set")
    if sampler.radial_table is None:
        raise ValueError("sampler has no radial table; construct via PerturbationSampler.for_set")
    d = aset.dimension
    n = 1 if size is None else int(size)
    normal = gaussians(rng, n * 2 * ((d + 1) // 2)).reshape(n, -1)[:, :d]
    norms = np.linalg.norm(normal, axis=1, keepdims=True)
    directions = normal / np.where(norms > 0.0, norms, 1.0)
    u = np.maximum(rng.random(n), _U_FLOOR)
    speeds = sampler.radial_table.inverse(u)
    out = directions * speeds[:, None]
    return out[0] if size is None else out


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


def verify_replication(aset: ActionSetModel, sampler: PerturbationSampler, theta,
                       n_samples: int, rng: np.random.Generator,
                       xi_scale: float = 1.0) -> ReplicationReport:
    """Compare the MC mean of grad support(theta + xi) to grad R*(theta).

    ``xi_scale`` rescales the draws and exists for fault-injection tests: any
    value other than 1 samples from a perturbed distribution and must make
    the check fail.
    """
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
        xi = sampler.draw(rng, size=m)
        if xi_scale != 1.0:
            xi = xi * xi_scale
        grads = grad_support(aset, theta + xi)
        total += grads.sum(axis=0)
        total_sq += (grads * grads).sum(axis=0)
        remaining -= m
    mean = total / n_samples
    var = np.maximum(total_sq / n_samples - mean * mean, 0.0)
    stderr = np.sqrt(var / n_samples)
    # A coordinate of grad support can be (nearly) deterministic; keep the
    # z-statistic meaningful by flooring the standard error at the MC
    # resolution scale.
    stderr = np.maximum(stderr, 1.0 / n_samples)
    return ReplicationReport(mc_mean=mean, target=conjugate_gradient(aset, theta), stderr=stderr)
