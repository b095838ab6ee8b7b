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

The engine has two entries: :func:`run` plays one seed into a
:class:`Trace`, and :func:`run_seeds` plays many, keeping only what the
regret outputs read. The learner's randomness does not depend on its
state, so each run draws it ahead of the rounds, in blocks whose rows
follow the per-round stream order: a block is bit for bit the draws of its
rounds taken one at a time, and the round loop itself is only the O(d)
recurrence. The Dikin-pole rounds call the geometry and estimator kernels
shared with the module API, without its argument checks; the local norms
and step violations of every run are computed after the loop, vectorized
over rounds. The rounds of one seed are strictly sequential, but seeds are independent:
:func:`run_seeds` runs the perturbed-leader recurrence for many seeds at
once on (S, d) arrays and the Dikin-pole seeds one by one. Given (seed,
config, losses) a run is bit-reproducible, however seeds are batched.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from .action_sets import (
    ActionSetModel,
    BALL,
    BoundaryError,
    HYPERCUBE,
    _barrier_hessian,
    _conjugate_gradient,
    _dikin_pole,
    _require_interior,
    conjugate_gradient,
    conjugate_value,
    hessian_inv_matvec,
)
from .environments import boundedness_violation
from .estimation import LOSS_SLACK, SINGULARITY_FLOOR, KFunctionCache, _scribble_estimate
from .perturbations import round_noise, round_noise_blocks
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
    (eta * n), so a run rarely extends it, but not past 2 / SINGULARITY_FLOOR:
    1 - ||x||^2 = 2 / (1 + sqrt(1 + ||theta||^2)), so a round at a larger
    drift aborts before it looks K up. Other runs read no K.
    """
    aset = spec.action_set
    if spec.variant != SCFTPL or aset.kind != BALL or aset.dimension < 2:
        return None
    reach = max(8.0, 1.25 * resolve_learning_rate(spec, horizon) * horizon)
    return KFunctionCache(aset.dimension, x_max=min(reach, 2.0 / SINGULARITY_FLOOR))


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


# Elements per pass of the norm helper: bounds its temporaries to 32 KiB
# each, so the pass after a run adds nothing to its peak memory at any d.
_NORM_ELEMENTS = 1 << 12


def _local_norms(aset: ActionSetModel, variant: str, eta: float, xs, y_hats):
    """Local norms ||y_hat||_x^2 in the inverse-Hessian norm and step violations
    2 eta ||y_hat||_x > 1 of rounds with expected actions ``xs`` and estimates
    ``y_hats``, vectorized over their leading axes.

    A perturbed-leader ball run keeps its own expansion of the norm,
    ||y||^2 / a - c <x, y>^2; every other run applies the barrier Hessian's
    inverse, as :func:`estimation.local_norm_sq` does.
    """
    if variant == SCFTPL and aset.kind == BALL:
        x_sq = np.vecdot(xs, xs)
        hess_a = 2.0 / (1.0 - x_sq)
        hess_b = 4.0 / ((1.0 - x_sq) * (1.0 - x_sq))
        correction = hess_b / (hess_a * (hess_a + hess_b * x_sq))
        norm_sq = np.vecdot(y_hats, y_hats) / hess_a - correction * np.vecdot(xs, y_hats) ** 2
    else:
        norm_sq = np.vecdot(y_hats, hessian_inv_matvec(_barrier_hessian(aset, xs), y_hats))
    return norm_sq, 2.0 * eta * np.sqrt(np.maximum(norm_sq, 0.0)) > 1.0


def _with_norms(trace: Trace, aset: ActionSetModel, variant: str, eta: float) -> Trace:
    """Fill ``local_norm_sq`` and ``step_violation`` of a trace whose other rows are written."""
    step = max(1, _NORM_ELEMENTS // aset.dimension)
    for lo in range(0, len(trace), step):
        rows = slice(lo, lo + step)
        trace.local_norm_sq[rows], trace.step_violation[rows] = _local_norms(
            aset, variant, eta, trace.x[rows], trace.y_hat[rows])
    return trace


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


def run(spec: AlgorithmSpec, losses, rng: np.random.Generator,
        k_cache: KFunctionCache | None = None) -> Trace:
    """Run the spec's algorithm against an oblivious loss sequence.

    ``losses`` is an (n, d) array fixed before the run. ``k_cache`` is read
    only by a perturbed-leader ball run and may be shared across runs
    (read-only here apart from extension); omitted, that run builds
    ``k_cache_for(spec, n)``.

    This is the one prologue (loss check, learning rate, K grid) and the one
    place that fills the local norms and step violations, after the loop and
    vectorized over rounds, or turns an abort into an ``AbortedRunError``
    carrying the rounds before it. The perturbations
    (:func:`perturbations.round_noise`) and Dikin-pole indices
    (:func:`_pole_draws`: index draw % d, sign +1 iff draw < d) are drawn
    ahead of the rounds in per-round stream order. A round writes x,
    action, y_hat and scalar_loss by O(d) vector operations, or by the
    unchecked kernels that the module-level operations (conjugate_gradient,
    dikin_pole, barrier_hessian, scribble_estimate) wrap; the tests pin the
    rounds against those operations.
    """
    aset = spec.action_set
    losses, eta, k_cache = _prologue(spec, losses, k_cache)
    trace = Trace.empty(*losses.shape)
    with np.errstate(over="ignore"):  # an overflowing theta^2 aborts its round
        if spec.variant == SCRIBBLE:
            abort = _scribble_rounds(aset, losses, eta, rng, trace)
        elif aset.kind == BALL:
            abort = _scftpl_ball_rounds(aset, losses, eta, rng, trace, k_cache)
        else:
            abort = _scftpl_hypercube_rounds(aset, losses, eta, rng, trace)
    if abort is not None:
        t, reason = abort
        raise AbortedRunError(f"round {t}: {reason}",
                              _with_norms(trace.head(t - 1), aset, spec.variant, eta))
    return _with_norms(trace, aset, spec.variant, eta)


def _prologue(spec: AlgorithmSpec, losses, k_cache: KFunctionCache | None):
    """The checked (n, d) losses, the learning rate and the K grid (or None) of a run."""
    aset = spec.action_set
    losses = _check_losses(aset, losses)
    n = losses.shape[0]
    if k_cache is None:
        k_cache = k_cache_for(spec, n)
    elif k_cache.d != aset.dimension:
        raise ValueError(f"K cache was built for d={k_cache.d}, run targets d={aset.dimension}")
    return losses, resolve_learning_rate(spec, n), k_cache


# Each *_rounds loop writes one run's rounds into ``trace`` and returns None,
# or the round t and the reason of an abort. Where theta^2 would overflow
# (|theta| > 1.34e154) x would round to 0, so a perturbed-leader round caps
# it at the largest double on the hypercube, which puts |x_i| at or past 1,
# and aborts on an infinite ||theta||^2 on the ball.
_FLOAT_MAX = np.finfo(float).max


def _scftpl_hypercube_rounds(aset, losses, eta, rng, trace):
    n, d = losses.shape
    y_hat_cum = np.zeros(d)
    for t, xi in zip(range(1, n + 1), round_noise(aset, rng, n)):
        theta = -eta * y_hat_cum
        x = theta / (1.0 + np.sqrt(1.0 + np.minimum(theta * theta, _FLOAT_MAX)))
        residual = 1.0 - x * x
        if residual.min() < SINGULARITY_FLOOR:
            return t, (f"expected action within {SINGULARITY_FLOOR:g} of a vertex; "
                       f"covariance numerically singular")
        # argmin_a <a, eta Yhat - xi> = sign(theta + xi) coordinatewise (+1 at ties)
        action = np.where(theta + xi >= 0.0, 1.0, -1.0)
        scalar_loss = float(losses[t - 1] @ action)
        weighted = x / residual
        alpha = float(x @ weighted)
        cross = float(action @ weighted)
        y_hat = (action / residual - weighted * (cross / (1.0 + alpha))) * scalar_loss
        trace.x[t - 1], trace.action[t - 1], trace.y_hat[t - 1] = x, action, y_hat
        trace.scalar_loss[t - 1] = scalar_loss
        y_hat_cum = y_hat_cum + y_hat
    return None


def _scftpl_ball_rounds(aset, losses, eta, rng, trace, k_cache):
    n, d = losses.shape
    y_hat_cum = np.zeros(d)
    for t, xi in zip(range(1, n + 1), round_noise(aset, rng, n)):
        theta = -eta * y_hat_cum
        theta_norm = math.sqrt(float(theta @ theta))
        norm_sq = theta_norm * theta_norm
        x = theta / (1.0 + math.sqrt(1.0 + norm_sq))
        if 1.0 - float(x @ x) < SINGULARITY_FLOOR or norm_sq == math.inf:
            return t, (f"expected action within {SINGULARITY_FLOOR:g} of the sphere; "
                       f"local geometry numerically singular")
        drifted = theta + xi
        drift_norm = math.sqrt(float(drifted @ drifted))
        if drift_norm > 0.0:
            action = drifted / drift_norm
        else:
            action = np.zeros(d)
            action[0] = 1.0
        scalar_loss = float(losses[t - 1] @ action)
        if d == 1:
            y_hat = action * scalar_loss
        elif theta_norm < 1e-14:
            y_hat = (d * scalar_loss) * action
        else:
            k = k_cache(theta_norm)
            coeff = 1.0 / (1.0 - k) - (d - 1.0) / k
            proj = float(action @ theta) / norm_sq
            y_hat = ((d - 1.0) / k * action + (coeff * proj) * theta) * scalar_loss
        trace.x[t - 1], trace.action[t - 1], trace.y_hat[t - 1] = x, action, y_hat
        trace.scalar_loss[t - 1] = scalar_loss
        y_hat_cum = y_hat_cum + y_hat
    return None


def _scribble_rounds(aset, losses, eta, rng, trace):
    n, d = losses.shape
    y_hat_cum = np.zeros(d)
    for t, draw in zip(range(1, n + 1), _pole_draws(d, rng, n)):
        x = _conjugate_gradient(aset, -eta * y_hat_cum)
        try:
            _require_interior(aset, x)
        except BoundaryError as exc:
            return t, str(exc)
        action = _dikin_pole(aset, x, draw % d, 1 if draw < d else -1)
        scalar_loss = float(losses[t - 1] @ action)
        y_hat = _scribble_estimate(d, _barrier_hessian(aset, x), x, action, scalar_loss)
        trace.x[t - 1], trace.action[t - 1], trace.y_hat[t - 1] = x, action, y_hat
        trace.scalar_loss[t - 1] = scalar_loss
        y_hat_cum = y_hat_cum + y_hat
    return None


def run_seeds(spec: AlgorithmSpec, losses, rngs, competitor,
              k_cache: KFunctionCache | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Run one seed per generator in ``rngs``, keeping only what regret outputs read.

    Returns the (n, S) per-round regret increments <y_t, A_t - u> of the S
    seeds against ``competitor`` u, whose ``cumsum`` along rounds is each
    seed's :func:`cumulative_regret`, and the (S,) step-violation counts;
    both equal the per-seed runs' values bit for bit. Two or more
    perturbed-leader seeds run their recurrences together on (S, d) arrays
    and keep no (n, d) array. One seed, which runs faster alone, and the
    Dikin-pole variant run seed by seed through :func:`run`, each trace
    reduced as it finishes. An abort raises the per-seed run's
    ``AbortedRunError`` of the first aborting seed in the order of ``rngs``.
    """
    aset = spec.action_set
    losses, eta, k_cache = _prologue(spec, losses, k_cache)
    competitor = np.asarray(competitor, dtype=float)
    rngs = list(rngs)
    if spec.variant == SCFTPL and len(rngs) > 1:
        snapshots = copy.deepcopy(rngs)  # to replay an aborting seed alone
        with np.errstate(over="ignore"):
            if aset.kind == BALL:
                batch = _seeds_scftpl_ball(aset, losses, eta, rngs, competitor, k_cache)
            else:
                batch = _seeds_scftpl_hypercube(aset, losses, eta, rngs, competitor)
        if isinstance(batch, int):
            _raise_first_abort(spec, losses, snapshots, competitor, k_cache, batch)
        return batch
    increments = np.empty((losses.shape[0], len(rngs)))
    violations = np.empty(len(rngs), dtype=np.int64)
    for s, rng in enumerate(rngs):
        trace = run(spec, losses, rng, k_cache)
        increments[:, s] = np.vecdot(losses, trace.action - competitor)
        violations[s] = trace.step_violation.sum()
    return increments, violations


def _raise_first_abort(spec, losses, snapshots, competitor, k_cache, first: int) -> None:
    """Raise the abort of the first seed in order that aborts; seed ``first`` does.

    Seeds before it may abort in a later round than it did, so they run
    again first; then seed ``first`` replays alone and raises its own error.
    """
    run_seeds(spec, losses, snapshots[:first], competitor, k_cache)
    run(spec, losses, snapshots[first], k_cache)
    raise RuntimeError(f"seed {first} aborted in a batch but not alone")


def _block_outputs(aset, eta, losses_block, competitor, xs, actions, y_hats):
    """Regret increments (m, S) and step violations (S,) of a block of batched rounds."""
    increments = np.vecdot(losses_block[:, None, :], actions - competitor)
    _, violated = _local_norms(aset, SCFTPL, eta, xs, y_hats)
    return increments, violated.sum(axis=0)


def _seeds_scftpl_hypercube(aset, losses, eta, rngs, competitor):
    """:func:`_scftpl_hypercube_rounds` over S seeds; the index of the first
    aborting seed, or the (n, S) increments and (S,) violations."""
    n, d = losses.shape
    increments = np.empty((n, len(rngs)))
    violations = np.zeros(len(rngs), dtype=np.int64)
    y_hat_cum = np.zeros((len(rngs), d))
    t0 = 0
    for xi_block in round_noise_blocks(aset, rngs, n):
        xs, actions, y_hats = (np.empty_like(xi_block) for _ in range(3))
        for i, xi in enumerate(xi_block):
            theta = -eta * y_hat_cum
            x = theta / (1.0 + np.sqrt(1.0 + np.minimum(theta * theta, _FLOAT_MAX)))
            residual = 1.0 - x * x
            aborted = residual.min(axis=1) < SINGULARITY_FLOOR
            if aborted.any():
                return int(np.argmax(aborted))
            action = np.where(theta + xi >= 0.0, 1.0, -1.0)
            scalar_loss = np.vecdot(losses[t0 + i], action)
            weighted = x / residual
            alpha = np.vecdot(x, weighted)
            cross = np.vecdot(action, weighted)
            y_hat = ((action / residual - weighted * (cross / (1.0 + alpha))[:, None])
                     * scalar_loss[:, None])
            xs[i], actions[i], y_hats[i] = x, action, y_hat
            y_hat_cum = y_hat_cum + y_hat
        m = len(xi_block)
        increments[t0:t0 + m], counts = _block_outputs(
            aset, eta, losses[t0:t0 + m], competitor, xs, actions, y_hats)
        violations += counts
        t0 += m
    return increments, violations


def _seeds_scftpl_ball(aset, losses, eta, rngs, competitor, k_cache):
    """:func:`_scftpl_ball_rounds` over S seeds; the index of the first aborting
    seed, or the (n, S) increments and (S,) violations."""
    n, d = losses.shape
    increments = np.empty((n, len(rngs)))
    violations = np.zeros(len(rngs), dtype=np.int64)
    y_hat_cum = np.zeros((len(rngs), d))
    t0 = 0
    for xi_block in round_noise_blocks(aset, rngs, n):
        xs, actions, y_hats = (np.empty_like(xi_block) for _ in range(3))
        for i, xi in enumerate(xi_block):
            theta = -eta * y_hat_cum
            theta_norm = np.sqrt(np.vecdot(theta, theta))
            norm_sq = theta_norm * theta_norm
            x = theta / (1.0 + np.sqrt(1.0 + norm_sq))[:, None]
            aborted = (1.0 - np.vecdot(x, x) < SINGULARITY_FLOOR) | (norm_sq == math.inf)
            if aborted.any():
                return int(np.argmax(aborted))
            drifted = theta + xi
            drift_norm = np.sqrt(np.vecdot(drifted, drifted))
            still = ~(drift_norm > 0.0)
            action = drifted / np.where(still, 1.0, drift_norm)[:, None]
            if still.any():
                action[still] = np.eye(1, d)
            scalar_loss = np.vecdot(losses[t0 + i], action)
            if d == 1:
                y_hat = action * scalar_loss[:, None]
            else:
                y_hat = _ball_estimates(d, k_cache, theta, theta_norm, norm_sq, action,
                                        scalar_loss)
            xs[i], actions[i], y_hats[i] = x, action, y_hat
            y_hat_cum = y_hat_cum + y_hat
        m = len(xi_block)
        increments[t0:t0 + m], counts = _block_outputs(
            aset, eta, losses[t0:t0 + m], competitor, xs, actions, y_hats)
        violations += counts
        t0 += m
    return increments, violations


def _ball_estimates(d, k_cache, theta, theta_norm, norm_sq, action, scalar_loss):
    """The ball's loss estimates of one batched round, d >= 2, rounded as a single run's;
    K is looked up once for the (S,) drift norms."""
    flat = theta_norm < 1e-14
    k = np.where(flat, 0.5, k_cache(theta_norm))
    coeff = 1.0 / (1.0 - k) - (d - 1.0) / k
    proj = np.vecdot(action, theta) / np.where(flat, 1.0, norm_sq)
    y_hat = ((d - 1.0) / k)[:, None] * action + (coeff * proj)[:, None] * theta
    y_hat *= scalar_loss[:, None]
    if flat.any():
        y_hat[flat] = (d * scalar_loss[flat])[:, None] * action[flat]
    return y_hat


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
