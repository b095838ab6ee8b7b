"""Loss-vector estimation from bandit feedback.

The one-point estimator is yhat = Q^{-1} A <y, A> with Q the conditional
second moment of the played action. Both supported bodies admit O(d) closed
forms for Q^{-1} A:

* hypercube: Q = x x^T + diag(1 - x_i^2), inverted by Sherman-Morrison;
* ball: Q = (k/(d-1)) P_perp + (1 - k) P_par, where P_par projects onto the
  drift direction theta and k = K(||theta||) is a scalar computed by a
  double quadrature over (radius, angle), bounded in
  [(d-1)/(d(x+2)), (d-1)/d].

K evaluations are memoized, and the engine path goes through a cubic
interpolation cache on an asinh-spaced grid (interpolation error budget
1e-5, inside the slack of the K bounds) that extends itself when the drift
norm leaves the covered range.

The K quadrature is the only part that uses scipy, and it imports it on
first use: the hypercube forms are closed, so a hypercube run never loads
scipy, and a ball run loads it when it builds its K grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .action_sets import (
    ActionSetModel,
    BALL,
    BoundaryError,
    HYPERCUBE,
    LocalNormContext,
    barrier_hessian,
    hessian_inv_matvec,
    hessian_matvec,
)
from .perturbations import log_sphere_surface, radial_density_ball

# Hypercube covariance is declared singular below this residual; the engine
# aborts the run rather than emit unbounded estimates.
SINGULARITY_FLOOR = 1e-10

# Float slack on the [-1, 1] bound of an observed scalar loss.
LOSS_SLACK = 1e-9

# Node spacing of the K interpolation grid in t = asinh(x).
K_GRID_SPACING = 0.02


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


# ---------------------------------------------------------------------------
# Covariance models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceModel:
    """Closed-form second-moment model of the played action.

    kind=hypercube: stores the expected action x, the diagonal residuals
    1 - x_i^2 and alpha = sum x_i^2/(1 - x_i^2).
    kind=ball: stores the drift theta = -eta * cumulative estimate and the
    scalar k = K(||theta||); theta = 0 degenerates to Q = I/d.
    """

    kind: str
    dimension: int
    x: np.ndarray | None = None
    residual: np.ndarray | None = None
    alpha: float = 0.0
    theta: np.ndarray | None = None
    theta_norm: float = 0.0
    k: float = 0.0


def covariance_hypercube(x) -> CovarianceModel:
    """Model Q = x x^T + diag(1 - x_i^2) for an interior expected action."""
    x = np.asarray(x, dtype=float)
    residual = 1.0 - x * x
    if np.any(residual < SINGULARITY_FLOOR):
        raise BoundaryError(
            f"expected action too close to a vertex (min residual "
            f"{residual.min():.3e}); covariance is numerically singular"
        )
    alpha = float(np.sum(x * x / residual))
    return CovarianceModel(kind=HYPERCUBE, dimension=x.size, x=x, residual=residual, alpha=alpha)


def covariance_ball(theta, dimension: int) -> CovarianceModel:
    """Model Q = (k/(d-1)) P_perp + (1-k) P_par for drift theta.

    k = :func:`k_function_ball` at ||theta||. theta = 0 (and the d = 1
    line, where the transverse space is empty) short-circuit to the exact
    degenerate forms.
    """
    theta = np.asarray(theta, dtype=float)
    d = int(dimension)
    norm = float(np.linalg.norm(theta))
    if d == 1 or norm < 1e-14:
        return CovarianceModel(kind=BALL, dimension=d, theta=theta, theta_norm=norm,
                               k=(d - 1.0) / d)
    k = k_function_ball(norm, d)
    if not 0.0 < k < 1.0:
        raise RuntimeError(f"covariance factor k={k!r} outside (0, 1): invariant violation")
    return CovarianceModel(kind=BALL, dimension=d, theta=theta, theta_norm=norm, k=k)


def apply_qinv_hypercube(model: CovarianceModel, action) -> np.ndarray:
    """Q^{-1} A in O(d), vectorized over leading axes of ``action``.

    Coordinates: A_i/(1-x_i^2) - x_i/(1-x_i^2) * (sum_j x_j A_j/(1-x_j^2)) / (1+alpha).
    """
    a = np.asarray(action, dtype=float)
    weighted = model.x / model.residual
    cross = (a * weighted).sum(axis=-1, keepdims=True)
    return a / model.residual - weighted * cross / (1.0 + model.alpha)


def apply_qinv_ball(model: CovarianceModel, action) -> np.ndarray:
    """Q^{-1} A in O(d) via the projection form.

    ((d-1)/k) A + (1/(1-k) - (d-1)/k) (<theta, A>/||theta||^2) theta, with
    the theta = 0 limit Q^{-1} A = d A.
    """
    a = np.asarray(action, dtype=float)
    norms = np.linalg.norm(a, axis=-1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValueError("ball actions must be unit vectors")
    d = model.dimension
    if d == 1:
        return a.copy()
    if model.theta_norm < 1e-14:
        return d * a
    k = model.k
    coeff = 1.0 / (1.0 - k) - (d - 1.0) / k
    proj = (a * model.theta).sum(axis=-1, keepdims=True) / (model.theta_norm**2)
    return (d - 1.0) / k * a + coeff * proj * model.theta


def estimate_loss(model: CovarianceModel, action, observed_loss) -> np.ndarray:
    """One-point loss estimate yhat = Q^{-1} A * observed scalar loss."""
    loss = np.asarray(observed_loss, dtype=float)
    if np.any(np.abs(loss) > 1.0 + LOSS_SLACK):
        raise ValueError(f"observed loss must lie in [-1, 1], got {observed_loss!r}")
    if model.kind == HYPERCUBE:
        qinv = apply_qinv_hypercube(model, action)
    else:
        qinv = apply_qinv_ball(model, action)
    return qinv * loss[..., None] if loss.ndim else qinv * float(loss)


def dense_covariance(model: CovarianceModel) -> np.ndarray:
    """Materialized d x d Q, for small-d verification against the O(d) path."""
    d = model.dimension
    if model.kind == HYPERCUBE:
        return np.outer(model.x, model.x) + np.diag(model.residual)
    if d == 1 or model.theta_norm < 1e-14:
        if model.theta_norm < 1e-14:
            return np.eye(d) / d
        return np.ones((1, 1))
    p = np.outer(model.theta, model.theta) / model.theta_norm**2
    return model.k / (d - 1.0) * (np.eye(d) - p) + (1.0 - model.k) * p


# ---------------------------------------------------------------------------
# The K function (ball covariance factor)
# ---------------------------------------------------------------------------

_GL_NODES = {n: np.polynomial.legendre.leggauss(n) for n in (24, 48, 64)}

def _gl_segment(u: float, d: int, order: int, lo: float, hi: float) -> float:
    nodes, weights = _GL_NODES[order]
    half = 0.5 * (hi - lo)
    phi = 0.5 * (hi + lo) + half * nodes
    vals = np.sin(phi) ** d / (1.0 + u * u + 2.0 * u * np.cos(phi))
    return half * float(weights @ vals)


def angular_integral_quadrature(u: float, d: int, lo: float = 0.0, hi: float = np.pi,
                                depth: int = 0) -> float:
    """integral_0^pi sin^d(phi) / (1 + u^2 + 2u cos(phi)) dphi, by adaptive
    bisected Gauss-Legendre (24- vs 48-node comparison, absolute floor
    1e-12 per segment). Reference route; the production evaluator below is
    checked against it.
    """
    if u * u == np.inf:
        return 0.0
    coarse = _gl_segment(u, d, 24, lo, hi)
    fine = _gl_segment(u, d, 48, lo, hi)
    if abs(fine - coarse) <= max(1e-10 * abs(fine), 1e-12):
        return fine
    if depth >= 16:
        raise QuadratureError(
            f"angular integral did not converge (u={u!r}, d={d}, "
            f"estimate gap {abs(fine - coarse):.3e})"
        )
    mid = 0.5 * (lo + hi)
    return (angular_integral_quadrature(u, d, lo, mid, depth + 1)
            + angular_integral_quadrature(u, d, mid, hi, depth + 1))


class _AngularRule(NamedTuple):
    """Per-dimension constants of :func:`_angular_integral`.

    ``half``, ``weights``, ``sin_pow`` = sin^d(phi) and ``cos`` = cos(phi)
    describe its fixed 64-node Gauss-Legendre window. ``u_cut``, ``at_one``
    = J_d(1) and ``w_terms`` = (W_{d mod 2}, W_{d mod 2 + 2}, ..., W_{d-2})
    serve the recursion, with W_m = integral_0^pi sin^m(phi) dphi; for
    d > 32 the window covers every u <= 1 and these are unused.
    """

    half: float
    weights: np.ndarray
    sin_pow: np.ndarray
    cos: np.ndarray
    u_cut: float
    at_one: float
    w_terms: tuple[float, ...]


@functools.lru_cache(maxsize=64)
def _angular_rule(d: int) -> _AngularRule:
    from scipy.special import betaln

    if d > 32:
        w = min(1.1, math.sqrt(92.0 / d))
        lo, hi = np.pi / 2 - w, np.pi / 2 + w
    else:
        lo, hi = 0.0, np.pi
    nodes, weights = _GL_NODES[64]
    half = 0.5 * (hi - lo)
    phi = 0.5 * (hi + lo) + half * nodes
    if d > 32:
        return _AngularRule(half, weights, np.sin(phi) ** d, np.cos(phi), math.inf, math.nan, ())
    # W_m by the two-term recurrence W_m = (m-1)/m W_{m-2}, W_0 = pi, W_1 = 2
    w_terms = []
    w_m = float(np.pi) if d % 2 == 0 else 2.0
    for m in range(d % 2, d - 1, 2):
        if m >= 2:
            w_m = (m - 1) / m * w_m
        w_terms.append(w_m)
    return _AngularRule(
        half, weights, np.sin(phi) ** d, np.cos(phi),
        u_cut=max(0.05, 10.0 ** (-6.0 / d)),
        at_one=float(2.0 ** (d - 2) * np.exp(betaln((d + 1) / 2.0, (d - 1) / 2.0))),
        w_terms=tuple(w_terms),
    )


def _angular_integral(u: float, d: int) -> float:
    """Fast evaluator for the angular integral above.

    Splitting sin^d = sin^{d-2} (1 - cos^2) and eliminating cos(phi) through
    the denominator yields the exact two-term recursion

        J_d(u) = -((1-u^2)^2 / 4u^2) J_{d-2}(u) + (1+u^2) W_{d-2} / (4u^2),

    grounded at the Poisson integral J_0 = pi/(1-u^2) and
    J_1 = ln((1+u)/(1-u))/u, plus the exact symmetry J(u) = J(1/u)/u^2.
    The recursion cancels catastrophically for small u (the two O(1/u^2)
    terms nearly agree), so below u_cut(d) = max(0.05, 10^{-6/d}) a single
    64-node Gauss-Legendre rule takes over (the integrand's pole is then
    far from the path). Above d = 32 the recursion depth is impractical
    and sin^d concentrates the mass near pi/2, so a 64-node rule on the
    window |phi - pi/2| <= min(1.1, sqrt(92/d)) is used: the truncated
    tails carry relative mass below e^{-26} and the u = 1 spike at
    phi = pi never enters the window. Everything that depends on d alone
    comes from :func:`_angular_rule`, so a call costs one 64-term dot
    product or at most d/2 recursion steps.
    """
    if u > 1.0:
        if u * u == math.inf:
            return 0.0
        return _angular_integral(1.0 / u, d) / (u * u)
    rule = _angular_rule(d)
    if d > 32 or u < rule.u_cut:
        return rule.half * float(rule.weights @ (rule.sin_pow / (1.0 + u * u + 2.0 * u * rule.cos)))
    if u == 1.0:
        return rule.at_one
    gap = 1.0 - u                       # exact for u near 1
    one_minus_usq = gap * (2.0 - gap)
    usq = u * u
    if d % 2 == 0:
        j = np.pi / one_minus_usq
    else:
        j = math.log((1.0 + u) / gap) / u
    a, b, c = -(one_minus_usq * one_minus_usq), 1.0 + usq, 4.0 * usq
    for w_m in rule.w_terms:
        j = (a * j + b * w_m) / c
    return j


@functools.lru_cache(maxsize=65536)
def k_function_ball(x: float, d: int) -> float:
    """Transverse covariance mass K(x) for the ball at drift norm x.

    Evaluates the (radius, angle) double integral with the radius weighted
    by the speed density p_V (the angular factor absorbs 1/r^2):

        K(x) = (S_{d-2}/S_{d-1}) * integral_0^inf J(x/r) p_V(r) dr,

    J(u) = integral_0^pi sin^d(phi)/(1 + u^2 + 2u cos(phi)) dphi. The
    radial level is adaptive quadrature; the angular level uses the exact
    reduction in :func:`_angular_integral` (checked against the adaptive
    rule in tests). Satisfies K(0) = (d-1)/d and
    (d-1)/(d(x+2)) <= K(x) <= (d-1)/d. Memoized per (x, d); raises
    QuadratureError on non-convergence.

    Up to x = 240 (16 for d > 32) the radial integral is split once, at
    max(4, 4x). Further out that head stops early with a tiny error
    estimate (it samples too few nodes in the narrow bulk of p_V near
    r = 1), so far drifts split at 4, x/2 and 2x, around the bulk and the
    kink of J(x/r) at r = x, and map the tail [2x, inf) onto (0, 1/(2x)] by
    r = 1/v, where p_V(r) dr = I_{1/(1+v^2)}((d+1)/2, d/2) dv. The switch
    lies above every node a prebuilt grid, verify or a benchmark run
    evaluates (236.7 at d=2, 8.4 at d=1024), so those values keep their
    pinned rounding, and below every drift where the two-piece route was
    seen to fail (601 at d=32, 236 at d=65536).

    Cost: about 400 integrand evaluations per value, each one scalar
    incomplete beta for p_V plus one 64-node dot product or a short
    recursion for J; roughly 1.4 ms per value at d=5 on one core of a
    shared 2-core x86_64 host. Contract: speed work on the integrand must
    leave every value bit-identical; tests pin float.hex of grid nodes.
    """
    x = float(x)
    d = int(d)
    if d < 2:
        raise ValueError("the covariance factor is defined for d >= 2")
    if x < 0.0 or not np.isfinite(x):
        raise ValueError(f"drift norm must be finite and nonnegative, got {x!r}")
    from scipy import integrate
    from scipy.special import betainc

    ratio = np.exp(log_sphere_surface(d - 2) - log_sphere_surface(d - 1))

    def integrand(r: float) -> float:
        if r == 0.0:
            return 0.0
        return _angular_integral(x / r, d) * radial_density_ball(r, d)

    if x > (16.0 if d > 32 else 240.0):
        def inverted(v: float) -> float:
            return _angular_integral(x * v, d) * float(betainc((d + 1) / 2.0, d / 2.0,
                                                               1.0 / (1.0 + v * v)))

        pieces = ((integrand, 0.0, 4.0), (integrand, 4.0, 0.5 * x),
                  (integrand, 0.5 * x, 2.0 * x), (inverted, 0.0, 0.5 / x))
    else:
        split = max(4.0, 4.0 * x)
        pieces = ((integrand, 0.0, split), (integrand, split, np.inf))
    total = 0.0
    for f, lo, hi in pieces:
        val, abserr, info, *rest = integrate.quad(
            f, lo, hi, epsabs=0.0, epsrel=1e-9, limit=300, full_output=1)
        if rest:
            raise QuadratureError(f"radial integral failed for K({x}, d={d}): {rest[0]}")
        total += val
    k = ratio * total
    if not np.isfinite(k):
        raise QuadratureError(f"K({x}, d={d}) evaluated to {k!r}")
    return float(k)


class KFunctionCache:
    """Self-extending interpolation table for K(., d) along a run.

    Nodes are uniform in t = asinh(x) (K is smooth and even in x, and decays
    like 1/x, so asinh spacing keeps the curvature resolved at both ends).
    Queries use a Catmull-Rom cubic through four neighbouring nodes; with
    K_GRID_SPACING the interpolation error stays well under the 1e-5
    budget. A query beyond the covered range appends nodes instead of
    rebuilding.

    Building costs one :func:`k_function_ball` value per node: a ball run at
    d=5, n=2e4 prebuilds 264 nodes (x up to 90.8) in about 0.35-0.4 s on
    one core of a 2-core x86_64 host. Node values are bit-identical for every
    build at the same d; tests pin them.
    """

    def __init__(self, d: int, x_max: float = 8.0):
        if d < 2:
            raise ValueError("K cache requires d >= 2")
        self.d = int(d)
        self._values: list[float] = [k_function_ball(0.0, self.d)]
        self._extend_to(np.arcsinh(float(x_max)))

    def _extend_to(self, t_needed: float) -> None:
        hi = int(np.ceil(t_needed / K_GRID_SPACING)) + 2
        while len(self._values) <= hi:
            t = len(self._values) * K_GRID_SPACING
            self._values.append(k_function_ball(float(np.sinh(t)), self.d))

    def __call__(self, x: float) -> float:
        x = float(x)
        if x < 0.0 or not math.isfinite(x):
            raise ValueError(f"drift norm must be finite and nonnegative, got {x!r}")
        t = float(np.arcsinh(x))
        h = K_GRID_SPACING
        if t > (len(self._values) - 3) * h:
            self._extend_to(t + 1.0)
        i = int(t / h)
        frac = t / h - i
        v = self._values
        if i == 0:
            # K is even in x, so the phantom node mirrors index 1.
            p0, p1, p2, p3 = v[1], v[0], v[1], v[2]
        else:
            p0, p1, p2, p3 = v[i - 1], v[i], v[i + 1], v[i + 2]
        return float(
            p1
            + 0.5 * frac * (p2 - p0
                            + frac * (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
                                      + frac * (3.0 * (p1 - p2) + p3 - p0)))
        )


# ---------------------------------------------------------------------------
# Dikin-pole estimator and local norms
# ---------------------------------------------------------------------------

def scribble_estimate(aset: ActionSetModel, x, action, observed_loss,
                      ctx: LocalNormContext | None = None) -> np.ndarray:
    """Pole-sampling estimator d * H(x) (A - x) * observed scalar loss,
    vectorized over leading axes of ``action`` and ``observed_loss``."""
    loss = np.asarray(observed_loss, dtype=float)
    if np.any(np.abs(loss) > 1.0 + LOSS_SLACK):
        raise ValueError(f"observed loss must lie in [-1, 1], got {observed_loss!r}")
    if ctx is None:
        ctx = barrier_hessian(aset, x)
    return _scribble_estimate(aset.dimension, ctx, np.asarray(x, dtype=float),
                              np.asarray(action, dtype=float), loss[..., None])


def _scribble_estimate(d: int, ctx: LocalNormContext, x: np.ndarray, action: np.ndarray,
                       loss) -> np.ndarray:
    """:func:`scribble_estimate` without the checks; ``loss`` is a float, or an
    array broadcasting against ``action``."""
    return d * loss * hessian_matvec(ctx, action - x)


def local_norm_sq(ctx: LocalNormContext, v, inverse: bool = False) -> float:
    """v^T M v with M the barrier Hessian at the context point or its inverse."""
    v = np.asarray(v, dtype=float)
    mv = hessian_inv_matvec(ctx, v) if inverse else hessian_matvec(ctx, v)
    return float(v @ mv)
