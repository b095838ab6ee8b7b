"""Loss-vector estimation from bandit feedback.

The one-point estimator is yhat = Q^{-1} A <y, A> with Q the conditional
second moment of the played action. Both supported bodies admit O(d) closed
forms for Q^{-1} A:

* hypercube: Q = x x^T + diag(1 - x_i^2), inverted by Sherman-Morrison;
* ball: Q = (k/(d-1)) P_perp + (1 - k) P_par, where P_par projects onto the
  drift direction theta and k = K(||theta||) is a scalar computed by a
  double quadrature over (radius, angle), bounded in
  [(d-1)/(d(x+2)), (d-1)/d].

Runs read K through a cubic interpolation cache on an asinh-spaced grid
(interpolation error budget 1e-5, inside the slack of the K bounds) that
extends itself when the drift norm leaves the covered range; one such grid
per d serves every run of a process. The cache is looked up at one drift
norm, or at the (S,) drift norms of a batch of seeds in one call, bit for
bit the same values. :func:`k_function_ball` evaluates one value afresh on
each call, for ``verify`` and the tests.

The K quadrature is QUADPACK's adaptive Gauss-Kronrod scheme, ported in
:mod:`.quadpack` so that a grid's nodes advance together through vectorized
integrand calls, with the values ``scipy.integrate.quad`` gives. Only the
integrand's incomplete beta and log-gamma come from ``scipy.special``,
imported on first use: the hypercube forms are closed, so a hypercube run
never loads scipy, and a ball run loads ``scipy.special`` alone.
"""

from __future__ import annotations

import functools
import itertools
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
    hessian_matvec,
)
from .perturbations import log_sphere_surface, radial_beta, radial_density_ball

# Hypercube covariance is declared singular below this residual; the engine
# aborts the run rather than emit unbounded estimates.
SINGULARITY_FLOOR = 1e-10

# Ball drift norms below this take the theta = 0 forms: Q = I/d, Q^{-1} A = d A.
FLAT_DRIFT = 1e-14

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
    if d == 1 or norm < FLAT_DRIFT:
        return CovarianceModel(kind=BALL, dimension=d, theta=theta, theta_norm=norm,
                               k=(d - 1.0) / d)
    return _ball_model(theta, d, norm, k_function_ball(norm, d))


def covariance_balls(thetas) -> list[CovarianceModel]:
    """:func:`covariance_ball` of each drift in ``thetas``, at the dimension
    its length gives: the same models, with the K values of each dimension
    evaluated in one :func:`_k_values` batch."""
    thetas = [np.asarray(theta, dtype=float) for theta in thetas]
    norms = [float(np.linalg.norm(theta)) for theta in thetas]
    # the degenerate drifts, and the non-finite ones that k_function_ball
    # rejects, go through covariance_ball
    models = [covariance_ball(theta, theta.size)
              if theta.size == 1 or not FLAT_DRIFT <= norm < math.inf else None
              for theta, norm in zip(thetas, norms)]
    for d in sorted({theta.size for theta, model in zip(thetas, models) if model is None}):
        batch = [i for i, model in enumerate(models) if model is None and thetas[i].size == d]
        for i, k in zip(batch, _k_values([norms[i] for i in batch], d)):
            models[i] = _ball_model(thetas[i], d, norms[i], k)
    return models


def _ball_model(theta: np.ndarray, d: int, norm: float, k: float) -> CovarianceModel:
    """The ball model at drift ``theta`` of norm ``norm`` with K value ``k``."""
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
    if model.theta_norm < FLAT_DRIFT:
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
    if d == 1 or model.theta_norm < FLAT_DRIFT:
        if model.theta_norm < FLAT_DRIFT:
            return np.eye(d) / d
        return np.ones((1, 1))
    p = np.outer(model.theta, model.theta) / model.theta_norm**2
    return model.k / (d - 1.0) * (np.eye(d) - p) + (1.0 - model.k) * p


# ---------------------------------------------------------------------------
# The K function (ball covariance factor)
# ---------------------------------------------------------------------------

# The 64-node Gauss-Legendre rule on [-1, 1] of the angular window
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


class _AngularRule(NamedTuple):
    """Per-dimension constants of :func:`_angular_integral`.

    ``half``, ``sin_pow`` = sin^d(phi) and ``cos`` = cos(phi) describe its
    fixed 64-node Gauss-Legendre window, whose weights are ``_GL_WEIGHTS``
    at every d. ``u_cut``, ``at_one`` = J_d(1) and ``w_terms`` =
    (W_{d mod 2}, W_{d mod 2 + 2}, ..., W_{d-2}) serve the recursion, with
    W_m = integral_0^pi sin^m(phi) dphi; for d > 32 the window covers every
    u <= 1 and these are unused.
    """

    half: float
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
    half = 0.5 * (hi - lo)
    phi = 0.5 * (hi + lo) + half * _GL_NODES
    if d > 32:
        return _AngularRule(half, np.sin(phi) ** d, np.cos(phi), math.inf, math.nan, ())
    # W_m by the two-term recurrence W_m = (m-1)/m W_{m-2}, W_0 = pi, W_1 = 2
    w_terms = []
    w_m = float(np.pi) if d % 2 == 0 else 2.0
    for m in range(d % 2, d - 1, 2):
        if m >= 2:
            w_m = (m - 1) / m * w_m
        w_terms.append(w_m)
    return _AngularRule(
        half, np.sin(phi) ** d, np.cos(phi),
        u_cut=max(0.05, 10.0 ** (-6.0 / d)),
        at_one=float(2.0 ** (d - 2) * np.exp(betaln((d + 1) / 2.0, (d - 1) / 2.0))),
        w_terms=tuple(w_terms),
    )


def _angular_integral(u, d: int):
    """J(u) = integral_0^pi sin^d(phi)/(1 + u^2 + 2u cos(phi)) dphi, at a float
    or at each entry of an array; a float gives a float.

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
    comes from :func:`_angular_rule`, so an entry costs one 64-term dot
    product or at most d/2 recursion steps.

    An entry's bits do not depend on the other entries, so an array gives
    what float calls give: the rule is one ``vecdot`` per row, which sums as
    ``_GL_WEIGHTS @ row`` does (a matrix product rounds differently), and the
    odd-d logarithm is ``math.log`` per entry (``np.log`` can differ in the
    last bit).
    """
    rule = _angular_rule(d)
    arg = np.asarray(u, dtype=float)
    u = arg.reshape(-1)
    big = u > 1.0
    v = np.where(big, 1.0 / np.where(big, u, 1.0), u)
    out = np.empty_like(v)
    window = np.flatnonzero(v < rule.u_cut)
    for start in range(0, window.size, _WINDOW_ROWS):
        rows = window[start:start + _WINDOW_ROWS]
        w = v[rows, None]
        out[rows] = rule.half * np.vecdot(rule.sin_pow / (1.0 + w * w + 2.0 * w * rule.cos),
                                          _GL_WEIGHTS)
    if window.size < v.size:
        rest = np.flatnonzero(v >= rule.u_cut)
        r = v[rest]
        one = r == 1.0
        out[rest[one]] = rule.at_one
        rest, r = rest[~one], r[~one]
        gap = 1.0 - r                   # exact for r near 1
        one_minus_usq = gap * (2.0 - gap)
        usq = r * r
        if d % 2 == 0:
            j = np.pi / one_minus_usq
        else:
            j = np.array([math.log(q) for q in ((1.0 + r) / gap).tolist()]) / r
        a, b, c = -(one_minus_usq * one_minus_usq), 1.0 + usq, 4.0 * usq
        for w_m in rule.w_terms:
            j = (a * j + b * w_m) / c
        out[rest] = j
    if big.any():
        with np.errstate(over="ignore"):  # J(1/u)/u^2 is 0 once u^2 overflows
            out[big] /= u[big] * u[big]
    return float(out[0]) if arg.ndim == 0 else out.reshape(arg.shape)


# Rows of the angular window rule evaluated at once: 256 KiB of temporaries
_WINDOW_ROWS = 512

# Subdivision limit of each radial integral of K
_K_LIMIT = 300


def _radial_pieces(x: float, d: int) -> tuple[tuple[float, float, bool], ...]:
    """The ranges (lo, hi) whose integrals sum to integral_0^inf J(x/r) p_V(r) dr,
    in summation order, each with whether it runs in v = 1/r."""
    if x > (16.0 if d > 32 else 240.0):
        return ((0.0, 4.0, False), (4.0, 0.5 * x, False), (0.5 * x, 2.0 * x, False),
                (0.0, 0.5 / x, True))
    split = max(4.0, 4.0 * x)
    return (0.0, split, False), (split, math.inf, False)


def _k_values(xs: list[float], d: int) -> list[float]:
    """K(x, d) at each drift norm of ``xs``: the value of
    :func:`k_function_ball`, bit for bit, with every radial integral of the
    batch advanced in lockstep (one integrand call per step for all).

    Raises QuadratureError for the first node, in order, whose integral
    fails or whose value is not finite.
    """
    from . import quadpack  # only the ball reads K: a hypercube run never loads it

    pieces = [_radial_pieces(x, d) for x in xs]
    drift = np.array([x for x, node in zip(xs, pieces) for _ in node])
    inverted = np.array([inv for node in pieces for *_, inv in node], dtype=bool)
    tol = dict(epsabs=0.0, epsrel=1e-9, limit=_K_LIMIT)
    integrals = [quadpack.qagi(lo, **tol) if hi == math.inf else quadpack.qags(lo, hi, **tol)
                 for node in pieces for lo, hi, _ in node]

    def integrand(owner: np.ndarray, r: np.ndarray) -> np.ndarray:
        x = drift[owner]
        v = inverted[owner]
        radial = ~v & (r != 0.0)
        u = np.where(v, x * r, x / np.where(radial, r, 1.0))
        factor = np.zeros_like(r)
        factor[radial] = radial_density_ball(r[radial], d)
        if v.any():  # p_V(r) dr = I_{1/(1+v^2)}((d+1)/2, d/2) dv
            t = r[v]
            factor[v] = radial_beta(1.0 / (1.0 + t * t), d)
        return _angular_integral(u, d) * factor

    results = iter(quadpack.lockstep(integrals, integrand))
    ratio = np.exp(log_sphere_surface(d - 2) - log_sphere_surface(d - 1))
    values = []
    for x, node in zip(xs, pieces):
        total = 0.0
        for result in itertools.islice(results, len(node)):
            if result.ier:
                raise QuadratureError(
                    f"radial integral failed for K({x}, d={d}): {result.message}")
            total += result.value
        k = ratio * total
        if not np.isfinite(k):
            raise QuadratureError(f"K({x}, d={d}) evaluated to {k!r}")
        values.append(float(k))
    return values


def k_function_ball(x: float, d: int) -> float:
    """Transverse covariance mass K(x) for the ball at drift norm x.

    Evaluates the (radius, angle) double integral with the radius weighted
    by the speed density p_V (the angular factor absorbs 1/r^2):

        K(x) = (S_{d-2}/S_{d-1}) * integral_0^inf J(x/r) p_V(r) dr,

    J(u) = integral_0^pi sin^d(phi)/(1 + u^2 + 2u cos(phi)) dphi. The
    radial level is QUADPACK's adaptive Gauss-Kronrod quadrature, ported in
    :mod:`.quadpack` (relative tolerance 1e-9, at most 300 subintervals per
    piece), which returns what ``scipy.integrate.quad`` returns, bit for
    bit; the angular level uses the exact reduction in
    :func:`_angular_integral` (checked against the adaptive rule in tests).
    Satisfies K(0) = (d-1)/d and (d-1)/(d(x+2)) <= K(x) <= (d-1)/d.
    Raises QuadratureError on non-convergence.

    Up to x = 240 (16 for d > 32) the radial integral is split once, at
    max(4, 4x), and the piece [4x, inf) is mapped onto (0, 1]. Further out
    that head stops early with a tiny error estimate (it samples too few
    nodes in the narrow bulk of p_V near r = 1), so far drifts split at 4,
    x/2 and 2x, around the bulk and the kink of J(x/r) at r = x, and map
    the tail [2x, inf) onto (0, 1/(2x)] by r = 1/v, where
    p_V(r) dr = I_{1/(1+v^2)}((d+1)/2, d/2) dv. The switch lies above every
    node a prebuilt grid, verify or a benchmark run evaluates (236.7 at
    d=2, 8.4 at d=1024), so those values keep their pinned rounding, and
    below every drift where the two-piece route was seen to fail (601 at
    d=32, 236 at d=65536).

    Cost: one value is :func:`_k_values` on one node, one vectorized
    integrand call per bisection step: 0.7-2 ms at d=5 and about 1.1 ms at
    d=1024 on one core of a shared 2-core x86_64 host. A grid costs far less
    per node, because :class:`KFunctionCache` evaluates all its nodes in one
    batch. Contract: speed work on the integrand must leave every value
    bit-identical; tests pin float.hex of grid nodes and compare every node
    with ``quad``.
    """
    x = float(x)
    d = int(d)
    if d < 2:
        raise ValueError("the covariance factor is defined for d >= 2")
    if x < 0.0 or not np.isfinite(x):
        raise ValueError(f"drift norm must be finite and nonnegative, got {x!r}")
    return _k_values([x], d)[0]


class KFunctionCache:
    """Self-extending interpolation table for K(., d) along a run.

    Nodes are uniform in t = asinh(x) (K is smooth and even in x, and decays
    like 1/x, so asinh spacing keeps the curvature resolved at both ends).
    Queries use a Catmull-Rom cubic through four neighbouring nodes; with
    K_GRID_SPACING the interpolation error stays well under the 1e-5
    budget. A query beyond the covered range appends nodes instead of
    rebuilding, as does :meth:`reach`.

    Node i is K(sinh(i h)), the :func:`k_function_ball` value bit for bit
    (tests pin them), and a lookup reads nodes i - 1 .. i + 2 only, so a grid
    of any length gives the same values. The nodes of a build, or of an
    extension, are evaluated in one :func:`_k_values` batch: a ball run at
    d=5, n=2e4 prebuilds 264 nodes (x up to 90.8) in 0.12-0.2 s on one core
    of a shared 2-core x86_64 host, against 0.3-0.4 s node by node through
    ``scipy.integrate.quad``, and every integral of the batch ends within 10
    lockstep steps.
    """

    def __init__(self, d: int, x_max: float = 8.0):
        if d < 2:
            raise ValueError("K cache requires d >= 2")
        self.d = int(d)
        self._values: list[float] = []
        self.reach(x_max)

    def reach(self, x_max: float) -> None:
        """Extend the grid to the nodes a build up to ``x_max`` has, unless it has them."""
        self._extend_to(np.arcsinh(float(x_max)))

    def _extend_to(self, t_needed: float) -> None:
        hi = int(np.ceil(t_needed / K_GRID_SPACING)) + 2
        if hi < len(self._values):
            return
        xs = [float(np.sinh(i * K_GRID_SPACING)) for i in range(len(self._values), hi + 1)]
        self._values.extend(_k_values(xs, self.d))
        # The Catmull-Rom cubic through nodes i - 1 .. i + 2 at frac past node i
        # is p1 + 0.5 frac (A + frac (B + frac C)), and its node-only terms A, B
        # and C are stored per cell i, rounded as the whole expression rounds
        # them. K is even in x, so node -1 mirrors node 1.
        v = np.array(self._values)
        p0, p1, p2, p3 = v[abs(np.arange(-1, len(v) - 3))], v[:-2], v[1:-1], v[2:]
        self._cells = np.stack([p1, p2 - p0, 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3,
                                3.0 * (p1 - p2) + p3 - p0])  # (4, cells), for array lookups
        self._cell_rows = self._cells.T.tolist()  # the same, a list per cell, for float ones
        self._t_max = (len(self._values) - 3) * K_GRID_SPACING  # the last t a lookup covers

    def __call__(self, x):
        """K at drift norm ``x``, a float, or at each entry of an (S,) array.

        An array gives, entry by entry, the floats that calls in its order
        give, and leaves the grid as long as they leave it.
        """
        if type(x) is not float:  # a Python float, a one-seed round's, goes straight on
            if isinstance(x, np.ndarray) and x.ndim == 1:
                t = np.arcsinh(x.astype(float, copy=False))
                if not (t.min() >= 0.0 and t.max() <= self._t_max):
                    for x_i in x.tolist():  # extend, or raise, as float calls do
                        self(x_i)
                q = t / K_GRID_SPACING
                i = q.astype(np.intp)
                frac = q - i
                p1, a, b, c = self._cells[:, i]
                return p1 + 0.5 * frac * (a + frac * (b + frac * c))
            x = float(x)
        if not 0.0 <= x < math.inf:
            raise ValueError(f"drift norm must be finite and nonnegative, got {x!r}")
        t = float(np.arcsinh(x))
        if t > self._t_max:
            self._extend_to(t + 1.0)
        q = t / K_GRID_SPACING
        i = int(q)
        frac = q - i
        p1, a, b, c = self._cell_rows[i]
        return p1 + 0.5 * frac * (a + frac * (b + frac * c))


# ---------------------------------------------------------------------------
# Dikin-pole estimator and local norms
# ---------------------------------------------------------------------------

def scribble_estimate(aset: ActionSetModel, x, action, observed_loss) -> np.ndarray:
    """Pole-sampling estimator d * H(x) (A - x) * observed scalar loss,
    vectorized over leading axes of ``action`` and ``observed_loss``."""
    loss = np.asarray(observed_loss, dtype=float)
    if np.any(np.abs(loss) > 1.0 + LOSS_SLACK):
        raise ValueError(f"observed loss must lie in [-1, 1], got {observed_loss!r}")
    return _scribble_estimate(aset.dimension, barrier_hessian(aset, x),
                              np.asarray(x, dtype=float), np.asarray(action, dtype=float),
                              loss[..., None])


def _scribble_estimate(d: int, ctx: LocalNormContext, x: np.ndarray, action: np.ndarray,
                       loss) -> np.ndarray:
    """:func:`scribble_estimate` without the checks; ``loss`` is a float, or an
    array broadcasting against ``action``."""
    return d * loss * hessian_matvec(ctx, action - x)


def local_norm_sq(ctx: LocalNormContext, v) -> float:
    """v^T H v with H the barrier Hessian at the context point."""
    v = np.asarray(v, dtype=float)
    return float(v @ hessian_matvec(ctx, v))
