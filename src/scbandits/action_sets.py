"""Geometry of the two supported action sets.

Each body bundles a linear-minimization oracle over the set, a logarithmic
barrier with gradient and Hessian, the gradient of the barrier's Fenchel
conjugate, and Minkowski-gauge evaluation:

* hypercube [-1, 1]^d: barrier -sum_i ln(1 - x_i^2), parameter d;
* unit Euclidean ball:  barrier -ln(1 - ||x||^2),    parameter 1.

Hessians are never materialized as d x d matrices. The hypercube Hessian is
diagonal; the ball Hessian has the rank-one form a*I + b*x x^T and its
inverse is applied through Sherman-Morrison, so every operation here is
O(d). All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HYPERCUBE = "hypercube"
BALL = "ball"

# Distance to the boundary below which a point no longer counts as interior:
# barrier operations raise instead of returning huge or infinite values.
INTERIOR_MARGIN = 1e-12


class BoundaryError(ValueError):
    """A barrier operation was evaluated at a non-interior point."""


@dataclass(frozen=True)
class ActionSetModel:
    """A supported convex body: its dimension and kind."""

    dimension: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in (HYPERCUBE, BALL):
            raise ValueError(f"unknown action-set kind {self.kind!r}")
        if (isinstance(self.dimension, bool) or not isinstance(self.dimension, (int, np.integer))
                or self.dimension < 1):
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")

    @property
    def barrier_parameter(self) -> float:
        """d for the hypercube, 1 for the ball."""
        return float(self.dimension) if self.kind == HYPERCUBE else 1.0


def hypercube(dimension: int) -> ActionSetModel:
    return ActionSetModel(dimension=int(dimension), kind=HYPERCUBE)


def ball(dimension: int) -> ActionSetModel:
    return ActionSetModel(dimension=int(dimension), kind=BALL)


@dataclass(frozen=True)
class LocalNormContext:
    """Barrier Hessian at an interior point, in applicable form.

    For the hypercube, ``diag`` holds the Hessian diagonal. For the ball,
    the Hessian is ``coeff_identity * I + coeff_outer * center center^T``.
    Positive definiteness is guaranteed by construction (diag > 0, resp.
    coeff_identity > 0). A context built at points with leading axes holds
    one Hessian per point: the ball coefficients then carry those axes.
    """

    kind: str
    center: np.ndarray
    diag: np.ndarray | None = None
    coeff_identity: float | np.ndarray = 0.0
    coeff_outer: float | np.ndarray = 0.0


def _as_vector(aset: ActionSetModel, x, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (aset.dimension,):
        raise ValueError(f"{name} must have shape ({aset.dimension},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def interior_gap(aset: ActionSetModel, x: np.ndarray) -> float:
    """1 - max_i |x_i| (hypercube) or 1 - ||x|| (ball); positive iff interior."""
    if aset.kind == HYPERCUBE:
        return 1.0 - float(np.abs(x).max())
    return 1.0 - math.sqrt(float(x @ x))  # rounds as np.linalg.norm does


def _require_interior(aset: ActionSetModel, x: np.ndarray, name: str = "x") -> None:
    gap = interior_gap(aset, x)
    if gap < INTERIOR_MARGIN:
        raise BoundaryError(
            f"{name} is within {INTERIOR_MARGIN:g} of the boundary of the "
            f"{aset.kind} (gap={gap:.3e}); barrier operations need a strictly "
            f"interior point"
        )


# ---------------------------------------------------------------------------
# Support oracle
# ---------------------------------------------------------------------------

def linear_minimizer(aset: ActionSetModel, direction) -> np.ndarray:
    """argmin over the body of <a, direction>.

    Hypercube: -sign(direction) per coordinate, with the zero-coordinate tie
    broken to +1. Ball: -direction/||direction||, with direction = 0 broken
    to e_1. Both tie-breaks are arbitrary-but-fixed so that seeded runs are
    reproducible; under the absolutely continuous perturbations used here the
    tie event has probability zero.
    """
    direction = _as_vector(aset, direction, "direction")
    if aset.kind == HYPERCUBE:
        return np.where(direction > 0.0, -1.0, 1.0)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        out = np.zeros(aset.dimension)
        out[0] = 1.0
        return out
    return -direction / norm


def grad_support(aset: ActionSetModel, points: np.ndarray) -> np.ndarray:
    """Gradient of the support function, argmax over the body of <x, theta>.

    Vectorized over leading axes: ``points`` has shape (..., d). Ties follow
    the same fixed conventions as :func:`linear_minimizer`.
    """
    points = np.asarray(points, dtype=float)
    if aset.kind == HYPERCUBE:
        return np.where(points >= 0.0, 1.0, -1.0)
    flat = points.reshape(-1, points.shape[-1])
    norms = np.linalg.norm(flat, axis=1)
    safe = np.where(norms > 0.0, norms, 1.0)
    out = flat / safe[:, None]
    zero = norms == 0.0
    if np.any(zero):
        out[zero] = 0.0
        out[zero, 0] = 1.0
    return out.reshape(points.shape)


# ---------------------------------------------------------------------------
# Barrier, gradient, Hessian
# ---------------------------------------------------------------------------

def barrier_value(aset: ActionSetModel, x) -> float:
    x = _as_vector(aset, x)
    _require_interior(aset, x)
    if aset.kind == HYPERCUBE:
        return float(-np.sum(np.log1p(-x * x)))
    return float(-np.log1p(-(x @ x)))


def barrier_gradient(aset: ActionSetModel, x) -> np.ndarray:
    x = _as_vector(aset, x)
    _require_interior(aset, x)
    if aset.kind == HYPERCUBE:
        return 2.0 * x / (1.0 - x * x)
    return 2.0 * x / (1.0 - x @ x)


def barrier_hessian(aset: ActionSetModel, x) -> LocalNormContext:
    """Hessian of the barrier at x, in O(d)-applicable form."""
    x = _as_vector(aset, x)
    _require_interior(aset, x)
    return _barrier_hessian(aset, x)


def _barrier_hessian(aset: ActionSetModel, x: np.ndarray) -> LocalNormContext:
    """:func:`barrier_hessian` without the checks, vectorized over leading axes of x."""
    if aset.kind == HYPERCUBE:
        resid = 1.0 - x * x
        diag = 2.0 * (1.0 + x * x) / (resid * resid)
        return LocalNormContext(kind=HYPERCUBE, center=x, diag=diag)
    resid = 1.0 - np.vecdot(x, x)
    return LocalNormContext(
        kind=BALL,
        center=x,
        coeff_identity=2.0 / resid,
        coeff_outer=4.0 / (resid * resid),
    )


def hessian_matvec(ctx: LocalNormContext, v: np.ndarray) -> np.ndarray:
    """Apply the Hessian to v in O(d), vectorized over leading axes of v."""
    if ctx.kind == HYPERCUBE:
        return ctx.diag * v
    # vecdot rounds each row as a 1-d dot does; a matrix-vector @ sums in another order
    return ctx.coeff_identity * v + ctx.coeff_outer * np.vecdot(v, ctx.center)[..., None] * ctx.center


def hessian_inv_matvec(ctx: LocalNormContext, v: np.ndarray) -> np.ndarray:
    """Apply the inverse Hessian to v in O(d) (Sherman-Morrison for the ball),
    vectorized over leading axes shared by v and the context point."""
    if ctx.kind == HYPERCUBE:
        return v / ctx.diag
    a, b, x = np.asarray(ctx.coeff_identity), ctx.coeff_outer, ctx.center
    correction = b / (a * (a + b * np.vecdot(x, x)))
    return v / a[..., None] - (correction * np.vecdot(x, v))[..., None] * x


def dikin_pole(aset: ActionSetModel, x, index: int, sign: int) -> np.ndarray:
    """Pole x + sign * lambda_index^{-1/2} v_index of the Dikin ellipsoid at x.

    Eigenpairs of the Hessian: for the hypercube these are the coordinate
    axes; for the ball, v_0 = x/||x|| (eigenvalue a + b ||x||^2) and an
    orthonormal completion of it with eigenvalue a, realized without any
    eigendecomposition as the Householder reflection mapping e_1 to x/||x||.
    """
    x = _as_vector(aset, x)
    _require_interior(aset, x)
    d = aset.dimension
    if not 0 <= index < d:
        raise ValueError(f"pole index must be in [0, {d}), got {index}")
    if sign not in (-1, 1):
        raise ValueError(f"pole sign must be +-1, got {sign}")
    return _dikin_pole(aset, x, index, sign)


def _dikin_pole(aset: ActionSetModel, x: np.ndarray, index: int, sign: int) -> np.ndarray:
    """:func:`dikin_pole` without the checks."""
    if aset.kind == HYPERCUBE:
        # Python floats round each operation as the numpy scalars would
        x_i = float(x[index])
        resid = 1.0 - x_i * x_i
        pole = x.copy()
        pole[index] += sign * (resid / math.sqrt(2.0 * (1.0 + x_i * x_i)))
        return pole
    d = aset.dimension
    norm_x = math.sqrt(float(x @ x))
    resid = 1.0 - norm_x * norm_x
    a = 2.0 / resid
    if norm_x == 0.0:
        basis_vec = np.zeros(d)
        basis_vec[index] = 1.0
        eigval = a
    else:
        u = x / norm_x
        w = -u.copy()
        w[0] += 1.0  # w = e_1 - u
        wsq = w @ w
        basis_vec = np.zeros(d)
        basis_vec[index] = 1.0
        if wsq > 1e-30:
            basis_vec -= (2.0 * w[index] / wsq) * w
        eigval = a + (4.0 / (resid * resid)) * norm_x * norm_x if index == 0 else a
    return x + sign * basis_vec / np.sqrt(eigval)


# ---------------------------------------------------------------------------
# Fenchel conjugate
# ---------------------------------------------------------------------------

# Above this magnitude t*t overflows; the map switches to its asymptote
# sgn(t) (1 - 1/|t|), whose error O(1/t^2) is far below one ulp there.
_CONJUGATE_OVERFLOW = 1e150

# Largest double strictly below 1: the conjugate-gradient image saturates
# here so that "strictly interior" survives float rounding for any finite
# argument (for |t| beyond ~4.5e15 the exact value is closer to 1 than one
# ulp anyway).
_INTERIOR_LIMIT = float(np.nextafter(1.0, 0.0))


def conjugate_gradient(aset: ActionSetModel, theta) -> np.ndarray:
    """Gradient of the barrier's Fenchel conjugate; maps R^d into int K.

    Hypercube, per coordinate: (sqrt(1 + t^2) - 1)/t, written in the
    rationalized form t / (1 + sqrt(1 + t^2)) which is exact at t = 0 and
    free of cancellation. Ball: the same map applied to ||theta|| along
    theta. Finite arguments of any magnitude are honored: overflow-prone
    ones go through the asymptotic branch, and the image is kept off the
    boundary by one float ulp.
    """
    return _conjugate_gradient(aset, _as_vector(aset, theta, "theta"))


def _conjugate_gradient(aset: ActionSetModel, theta: np.ndarray) -> np.ndarray:
    """:func:`conjugate_gradient` without the checks, vectorized over leading axes
    of theta; each row rounds as it would alone."""
    if aset.kind == HYPERCUBE:
        big = np.abs(theta) > _CONJUGATE_OVERFLOW
        if big.any():
            out = theta / (1.0 + np.sqrt(1.0 + np.where(big, 0.0, theta) ** 2))
            out[big] = np.sign(theta[big])
        else:
            out = theta / (1.0 + np.sqrt(1.0 + theta * theta))
        return np.minimum(np.maximum(out, -_INTERIOR_LIMIT), _INTERIOR_LIMIT)
    # each row's scalars, as 1-d code would compute them: vecdot rounds each
    # row as a 1-d dot does
    scale = np.abs(theta).max(axis=-1, initial=0.0)
    if scale.max(initial=0.0) > _CONJUGATE_OVERFLOW:
        big = (scale > _CONJUGATE_OVERFLOW)[..., None]
        w = theta / np.where(big, scale[..., None], 1.0)
        small = np.where(big, 0.0, theta)  # so that no row's theta @ theta overflows
        with np.errstate(invalid="ignore"):  # 0 / 0 in a zero row, which reads small
            out = np.where(big, w / np.sqrt(np.vecdot(w, w))[..., None],
                           theta / (1.0 + np.sqrt(1.0 + np.vecdot(small, small)))[..., None])
    else:
        out = theta / (1.0 + np.sqrt(1.0 + np.vecdot(theta, theta)))[..., None]
    norm = np.sqrt(np.vecdot(out, out))
    if norm.max(initial=0.0) >= _INTERIOR_LIMIT:
        out = np.where((norm >= _INTERIOR_LIMIT)[..., None],
                       out * (_INTERIOR_LIMIT / np.maximum(norm, _INTERIOR_LIMIT))[..., None], out)
    return out


def _cube_coordinate(t: float) -> float:
    """:func:`_conjugate_gradient`'s hypercube map of one coordinate theta_i = t,
    in Python floats, which round each operation as numpy's float64 does."""
    if abs(t) > _CONJUGATE_OVERFLOW:
        x = 1.0 if t > 0.0 else -1.0
    else:
        x = t / (1.0 + math.sqrt(1.0 + t * t))
    # np.minimum(np.maximum(x, -limit), limit): NaN and -0.0 pass unchanged
    return -_INTERIOR_LIMIT if x < -_INTERIOR_LIMIT else (
        _INTERIOR_LIMIT if x > _INTERIOR_LIMIT else x)


def conjugate_value(aset: ActionSetModel, theta) -> float:
    """Fenchel conjugate of the barrier, via the envelope identity.

    R*(theta) = <grad R*(theta), theta> - R(grad R*(theta)), which collapses
    per coordinate (resp. radially) to t^2/(1+s) - log1p(t^2 / (2(1+s))) with
    s = sqrt(1 + t^2). Exact and O(d); no numeric optimization involved.
    """
    return float(_conjugate_value(aset, _as_vector(aset, theta, "theta")))


def _conjugate_value(aset: ActionSetModel, theta: np.ndarray) -> np.ndarray:
    """:func:`conjugate_value` without the checks, vectorized over leading axes
    of theta; each row rounds as it would alone."""
    if aset.kind == HYPERCUBE:
        mags = np.abs(theta)
    else:
        scale = np.max(np.abs(theta), axis=-1, initial=0.0, keepdims=True)
        w = theta / np.where(scale > 0.0, scale, 1.0)
        mags = scale * np.sqrt(np.vecdot(w, w))[..., None]  # 0.0 * 0.0 at theta = 0
    big = mags > _CONJUGATE_OVERFLOW
    tsq = np.where(big, 0.0, mags) ** 2
    onep = 1.0 + np.sqrt(1.0 + tsq)
    terms = tsq / onep - np.log1p(tsq / (2.0 * onep))
    if np.any(big):
        # asymptote |t| - 1 + ln 2 - ln |t|, error O(1/t)
        terms = np.where(big, mags - 1.0 + np.log(2.0) - np.log(np.where(big, mags, 1.0)),
                         terms)
    return np.sum(terms, axis=-1)


# ---------------------------------------------------------------------------
# Minkowski gauge
# ---------------------------------------------------------------------------

def minkowski_gauge(aset: ActionSetModel, center, y) -> float:
    """Gauge of y seen from an interior center.

    inf{t > 0 : center + (y - center)/t in K}; 0 at y = center, 1 on the
    boundary, > 1 outside. Closed form per body: a per-coordinate ratio
    maximum for the hypercube, the positive root of a quadratic for the
    ball.
    """
    center = _as_vector(aset, center, "center")
    y = _as_vector(aset, y, "y")
    _require_interior(aset, center, "center")
    u = y - center
    if aset.kind == HYPERCUBE:
        ratios = np.maximum(u / (1.0 - center), -u / (1.0 + center))
        return float(max(np.max(ratios), 0.0))
    xu = center @ u
    usq = u @ u
    if usq == 0.0:
        return 0.0
    resid = 1.0 - center @ center
    return float((xu + np.sqrt(xu * xu + resid * usq)) / resid)
