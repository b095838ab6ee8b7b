"""Round-by-round simulation of the two bandit algorithms.

Both algorithms are instances of the same loop: maintain a cumulative loss
estimate, map it through the conjugate-gradient potential to an expected
action, randomize around that action, observe one scalar loss, and feed an
unbiased loss-vector estimate back into the accumulator.

* perturbed-leader variant ("scftpl"): the played action is the linear
  minimizer over the body of eta * cumulative_estimate - perturbation, and
  the estimate is Q^{-1} A times the scalar loss;
* Dikin-pole variant ("scribble"): the played action is one of the 2d poles
  of the Dikin ellipsoid at the expected action, chosen uniformly, and the
  estimate is d * H(x) (A - x) times the scalar loss.

The learner's randomness does not depend on its state, so each run draws
it ahead of the rounds, in blocks whose rows follow the per-round stream
order: a block is bit for bit the draws of its rounds taken one at a time,
and the round loop itself is only the O(d) recurrence.
A run is strictly sequential; independent seeds parallelize at the harness
level. Given (seed, config, losses) a run is bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .action_sets import (
    ActionSetModel,
    BALL,
    BoundaryError,
    HYPERCUBE,
    barrier_hessian,
    conjugate_gradient,
    conjugate_value,
    dikin_pole,
)
from .environments import boundedness_violation
from .estimation import (LOSS_SLACK, SINGULARITY_FLOOR, KFunctionCache, local_norm_sq,
                         scribble_estimate)
from .perturbations import round_noise
from .rng import block_rows

SCFTPL = "scftpl"
SCRIBBLE = "scribble"


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which algorithm to run, on which body, at which learning rate.

    ``learning_rate`` is either a positive float or the string "auto", which
    resolves from (d, n) when the run starts: sqrt(2 ln n / n) for the
    perturbed-leader variant on the hypercube and (1/d) sqrt(2 ln n / (3n))
    on the ball; the Dikin-pole variant balances its d^2 estimator variance
    with (1/d) sqrt(parameter * ln n / n).
    """

    variant: str
    action_set: ActionSetModel
    learning_rate: float | str = "auto"

    def __post_init__(self) -> None:
        if self.variant not in (SCFTPL, SCRIBBLE):
            raise ValueError(f"unknown algorithm variant {self.variant!r}")
        if isinstance(self.learning_rate, str):
            if self.learning_rate != "auto":
                raise ValueError(f"learning_rate must be positive or 'auto', got {self.learning_rate!r}")
        elif not (float(self.learning_rate) > 0.0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate!r}")


def resolve_learning_rate(spec: AlgorithmSpec, horizon: int) -> float:
    """Concrete eta for a horizon, resolving the "auto" schedules."""
    if not isinstance(spec.learning_rate, str):
        return float(spec.learning_rate)
    n = int(horizon)
    if n < 2:
        raise ValueError("auto learning rate needs a horizon of at least 2")
    log_n = math.log(n)
    if spec.variant == SCFTPL:
        if spec.action_set.kind == HYPERCUBE:
            return math.sqrt(2.0 * log_n / n)
        return math.sqrt(2.0 * log_n / (3.0 * n)) / spec.action_set.dimension
    theta = spec.action_set.barrier_parameter
    return math.sqrt(theta * log_n / n) / spec.action_set.dimension


def k_cache_for(spec: AlgorithmSpec, horizon: int) -> KFunctionCache | None:
    """The K grid a perturbed-leader ball run over ``horizon`` rounds reads, or None.

    It is prebuilt past the drift norm an aligned adversary can reach
    (eta * n), so a run rarely extends it; other runs read no K.
    """
    aset = spec.action_set
    if spec.variant != SCFTPL or aset.kind != BALL or aset.dimension < 2:
        return None
    reach = max(8.0, 1.25 * resolve_learning_rate(spec, horizon) * horizon)
    return KFunctionCache(aset.dimension, x_max=reach)


def theoretical_bound(set_kind: str, d: int, horizon: int) -> np.ndarray:
    """Worst-case regret bound evaluated per round t = 1..n.

    Hypercube: d sqrt(2 t ln n) + 2. Ball: d sqrt(6 t ln n) + 2
    + (64 e / d^2) ln^3 n.
    """
    t = np.arange(1, horizon + 1, dtype=float)
    log_n = math.log(horizon) if horizon >= 2 else 0.0
    if set_kind == HYPERCUBE:
        return d * np.sqrt(2.0 * t * log_n) + 2.0
    return d * np.sqrt(6.0 * t * log_n) + 2.0 + (64.0 * math.e / d**2) * log_n**3


@dataclass(frozen=True, eq=False)  # == on array fields has no single truth value
class Trace:
    """Per-round arrays of a run, row t - 1 for round t, for auditing it afterwards."""

    x: np.ndarray               # (n, d) expected actions
    action: np.ndarray          # (n, d) played actions
    y_hat: np.ndarray           # (n, d) loss-vector estimates
    scalar_loss: np.ndarray     # (n,) observed scalar losses
    local_norm_sq: np.ndarray   # (n,) ||y_hat||^2 in the inverse-Hessian norm at x
    step_violation: np.ndarray  # (n,) bool, 2 eta ||y_hat||_x > 1

    @classmethod
    def empty(cls, n: int, d: int) -> Trace:
        """Unfilled arrays for n rounds in dimension d; a loop writes row t - 1 in round t."""
        return cls(x=np.empty((n, d)), action=np.empty((n, d)), y_hat=np.empty((n, d)),
                   scalar_loss=np.empty(n), local_norm_sq=np.empty(n),
                   step_violation=np.empty(n, dtype=bool))

    def __len__(self) -> int:
        return self.scalar_loss.shape[0]

    def head(self, rows: int) -> Trace:
        """The first ``rows`` rounds."""
        return Trace(*(getattr(self, f.name)[:rows] for f in fields(self)))

    @property
    def y_hat_cum(self) -> np.ndarray:
        """Cumulative estimates entering each round, summed in round order as the loop does."""
        return np.cumsum(np.vstack([np.zeros_like(self.y_hat[:1]), self.y_hat]), axis=0)[:-1]


class AbortedRunError(RuntimeError):
    """Run stopped on a numerically singular covariance; carries the trace before the abort."""

    def __init__(self, message: str, trace: Trace):
        super().__init__(message)
        self.trace = trace


def _record(trace: Trace, i: int, eta: float, x, action, scalar_loss: float, y_hat,
            norm_sq: float) -> None:
    trace.x[i] = x
    trace.action[i] = action
    trace.y_hat[i] = y_hat
    trace.scalar_loss[i] = scalar_loss
    trace.local_norm_sq[i] = norm_sq
    trace.step_violation[i] = 2.0 * eta * math.sqrt(max(norm_sq, 0.0)) > 1.0


def _pole_draws(d: int, rng: np.random.Generator, n: int):
    """The Dikin-pole indices of n scribble rounds, uniform on [0, 2d)."""
    for m in block_rows(n, 1):
        yield from rng.integers(0, 2 * d, size=m).tolist()


def _check_losses(aset: ActionSetModel, losses) -> np.ndarray:
    """The losses as an (n, d) float array, checked whole before any draw.

    Every row must satisfy sup_a |<y, a>| <= 1 (up to float slack), so every
    scalar loss the learner can observe lies in [-1, 1]; a NaN row fails too.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or losses.shape[1] != aset.dimension:
        raise ValueError(f"losses must have shape (n, {aset.dimension})")
    excess = boundedness_violation(aset, losses)
    if not excess <= LOSS_SLACK:
        raise ValueError(
            f"losses break the [-1, 1] normalization: max_t sup_a |<y_t, a>| - 1 "
            f"is {excess!r}, not <= {LOSS_SLACK:g}")
    return losses


def run_scftpl(spec: AlgorithmSpec, losses, rng: np.random.Generator,
               k_cache: KFunctionCache | None = None) -> Trace:
    """Run the perturbed-leader algorithm against an oblivious loss sequence.

    ``losses`` is an (n, d) array fixed before the run. ``k_cache`` may be
    shared across runs (read-only here apart from extension); omitted, a
    ball run builds ``k_cache_for(spec, n)``.

    The perturbations do not depend on the learner's state, so
    :func:`perturbations.round_noise` draws them ahead of the rounds, in
    blocks whose rows follow the per-round stream order. The round body is
    written inline so each round costs a handful of O(d) vector operations;
    the expressions mirror the module-level operations (linear_minimizer,
    conjugate_gradient, covariance/apply, local norms) and the test suite
    pins the agreement.
    """
    if spec.variant != SCFTPL:
        raise ValueError("run_scftpl requires a perturbed-leader spec")
    aset = spec.action_set
    losses = _check_losses(aset, losses)
    n = losses.shape[0]
    d = aset.dimension
    eta = resolve_learning_rate(spec, n)
    if aset.kind == BALL:
        if k_cache is None:
            k_cache = k_cache_for(spec, n)
        elif k_cache.d != d:
            raise ValueError(f"K cache was built for d={k_cache.d}, run targets d={d}")
        return _run_scftpl_ball(aset, losses, eta, rng, k_cache)
    return _run_scftpl_hypercube(aset, losses, eta, rng)


def _run_scftpl_hypercube(aset, losses, eta, rng) -> Trace:
    n, d = losses.shape
    y_hat_cum = np.zeros(d)
    trace = Trace.empty(n, d)
    for t, xi in zip(range(1, n + 1), round_noise(aset, rng, n)):
        theta = -eta * y_hat_cum
        # argmin_a <a, eta Yhat - xi> = sign(theta + xi) coordinatewise (+1 at ties)
        action = np.where(theta + xi >= 0.0, 1.0, -1.0)
        x = theta / (1.0 + np.sqrt(1.0 + theta * theta))
        scalar_loss = float(losses[t - 1] @ action)
        residual = 1.0 - x * x
        if residual.min() < SINGULARITY_FLOOR:
            raise AbortedRunError(
                f"round {t}: expected action within {SINGULARITY_FLOOR:g} of a vertex; "
                f"covariance numerically singular", trace.head(t - 1))
        weighted = x / residual
        alpha = float(x @ weighted)
        cross = float(action @ weighted)
        y_hat = (action / residual - weighted * (cross / (1.0 + alpha))) * scalar_loss
        hess_diag = 2.0 * (1.0 + x * x) / (residual * residual)
        norm_sq = float(y_hat @ (y_hat / hess_diag))
        _record(trace, t - 1, eta, x, action, scalar_loss, y_hat, norm_sq)
        y_hat_cum = y_hat_cum + y_hat
    return trace


def _run_scftpl_ball(aset, losses, eta, rng, k_cache) -> Trace:
    n, d = losses.shape
    y_hat_cum = np.zeros(d)
    trace = Trace.empty(n, d)
    for t, xi in zip(range(1, n + 1), round_noise(aset, rng, n)):
        theta = -eta * y_hat_cum
        theta_norm = math.sqrt(float(theta @ theta))
        drifted = theta + xi
        drift_norm = math.sqrt(float(drifted @ drifted))
        if drift_norm > 0.0:
            action = drifted / drift_norm
        else:
            action = np.zeros(d)
            action[0] = 1.0
        x = theta / (1.0 + math.sqrt(1.0 + theta_norm * theta_norm))
        scalar_loss = float(losses[t - 1] @ action)
        if d == 1:
            y_hat = action * scalar_loss
        elif theta_norm < 1e-14:
            y_hat = (d * scalar_loss) * action
        else:
            k = k_cache(theta_norm)
            coeff = 1.0 / (1.0 - k) - (d - 1.0) / k
            proj = float(action @ theta) / (theta_norm * theta_norm)
            y_hat = ((d - 1.0) / k * action + (coeff * proj) * theta) * scalar_loss
        x_sq = float(x @ x)
        if 1.0 - x_sq < SINGULARITY_FLOOR:
            raise AbortedRunError(
                f"round {t}: expected action within {SINGULARITY_FLOOR:g} of the sphere; "
                f"local geometry numerically singular", trace.head(t - 1))
        hess_a = 2.0 / (1.0 - x_sq)
        hess_b = 4.0 / ((1.0 - x_sq) * (1.0 - x_sq))
        correction = hess_b / (hess_a * (hess_a + hess_b * x_sq))
        norm_sq = float(y_hat @ y_hat) / hess_a - correction * float(x @ y_hat) ** 2
        _record(trace, t - 1, eta, x, action, scalar_loss, y_hat, norm_sq)
        y_hat_cum = y_hat_cum + y_hat
    return trace


def run_scribble(spec: AlgorithmSpec, losses, rng: np.random.Generator) -> Trace:
    """Run the Dikin-pole algorithm against an oblivious loss sequence.

    Per round this consumes one integer draw selecting among the 2d poles
    (index i = draw % d, sign +1 iff draw < d); the draws are taken ahead of
    the rounds, in blocks, in the same stream order.
    """
    if spec.variant != SCRIBBLE:
        raise ValueError("run_scribble requires a Dikin-pole spec")
    aset = spec.action_set
    losses = _check_losses(aset, losses)
    n = losses.shape[0]
    eta = resolve_learning_rate(spec, n)
    d = aset.dimension

    y_hat_cum = np.zeros(d)
    trace = Trace.empty(n, d)
    for t, draw in zip(range(1, n + 1), _pole_draws(d, rng, n)):
        theta = -eta * y_hat_cum
        x = conjugate_gradient(aset, theta)
        index, sign = draw % d, (1 if draw < d else -1)
        try:
            action = dikin_pole(aset, x, index, sign)
            ctx = barrier_hessian(aset, x)
        except BoundaryError as exc:
            raise AbortedRunError(f"round {t}: {exc}", trace.head(t - 1)) from exc
        scalar_loss = float(losses[t - 1] @ action)
        y_hat = scribble_estimate(aset, x, action, scalar_loss, ctx=ctx)
        norm_sq = local_norm_sq(ctx, y_hat, inverse=True)
        _record(trace, t - 1, eta, x, action, scalar_loss, y_hat, norm_sq)
        y_hat_cum = y_hat_cum + y_hat
    return trace


def run(spec: AlgorithmSpec, losses, rng: np.random.Generator,
        k_cache: KFunctionCache | None = None) -> Trace:
    """Dispatch on the spec's variant; only a perturbed-leader ball run reads ``k_cache``."""
    if spec.variant == SCFTPL:
        return run_scftpl(spec, losses, rng, k_cache)
    return run_scribble(spec, losses, rng)


def regret(trace: Trace, losses, competitor) -> float:
    """Realized regret of a trace against a fixed competitor point.

    sum_t <y_t, A_t> - sum_t <y_t, u>, the first sum taken in round order.
    Expectations over the learner's randomness are taken by averaging this
    quantity over seeds at the harness level.
    """
    losses = np.asarray(losses, dtype=float)
    if len(trace) != losses.shape[0]:
        raise ValueError("trace and losses must have matching length")
    competitor = np.asarray(competitor, dtype=float)
    played = sum(np.vecdot(losses, trace.action).tolist())
    return played - float(losses.sum(axis=0) @ competitor)


def cumulative_regret(trace: Trace, losses, competitor) -> np.ndarray:
    """Per-round running sum of <y_t, A_t - u>, as an (n,) array."""
    losses = np.asarray(losses, dtype=float)
    competitor = np.asarray(competitor, dtype=float)
    return np.cumsum(np.vecdot(losses, trace.action - competitor))


def bregman_diagnostic(aset: ActionSetModel, eta: float, trace: Trace) -> np.ndarray:
    """Per-round conjugate Bregman divergence along the trace.

    B(-eta Yhat_t, -eta Yhat_{t-1}) computed through the closed-form
    conjugate value and gradient; each term is nonnegative by convexity, and
    whenever the round satisfied the step condition it is bounded by
    eta^2 * ||y_hat||^2 in the round's local norm.
    """
    eta = float(eta)
    out = np.empty(len(trace))
    for i, (y_hat_cum, y_hat) in enumerate(zip(trace.y_hat_cum, trace.y_hat)):
        prev = -eta * y_hat_cum
        curr = prev - eta * y_hat
        grad_prev = conjugate_gradient(aset, prev)
        out[i] = (conjugate_value(aset, curr) - conjugate_value(aset, prev)
                  + eta * float(y_hat @ grad_prev))
    return out
