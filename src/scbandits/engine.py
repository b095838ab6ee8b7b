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

That loop is written once, in :func:`_blocks`, which plays each round by
one of seven per-round functions (one seed or S seeds on each body, the
Dikin pole on each body, and one seed on a hypercube wider than
``_CUBE_FLOAT_DIMS``) and yields blocks of rounds. Each call fills its
round's rows of the block in place; a perturbed-leader ball round leaves
theta in its expected-action row, and the loop maps the block's rows to x
at once. A one-seed hypercube perturbed-leader round is coordinatewise but
for three dot products, so up to d = ``_CUBE_FLOAT_DIMS`` it runs in Python
floats and leaves only those dot products to numpy. The ball's Dikin pole
calls the unchecked geometry and estimator kernels. On the hypercube a
pole's estimate is nonzero in one coordinate only, so that round keeps x
from the round before and re-maps the one coordinate the last estimate
moved, in Python floats. A round whose
expected action is too close to the boundary raises
:class:`~scbandits.action_sets.BoundaryError`, and :func:`_blocks`, which
alone knows the round's number, turns it into an abort. The learner's
randomness does not depend on its state, so it comes from
:mod:`perturbations` ahead of the rounds, bit for bit the draws taken
round by round. :func:`run` copies the blocks into one
seed's :class:`Trace`; :func:`run_seeds` reduces them to regret increments
and step-violation counts, running two or more perturbed-leader seeds
together on (S, d) arrays. Given (seed, config, losses) a run is
bit-reproducible, however seeds are batched.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .action_sets import (
    INTERIOR_MARGIN,
    ActionSetModel,
    BALL,
    BoundaryError,
    HYPERCUBE,
    _barrier_hessian,
    _conjugate_gradient,
    _cube_coordinate,
    _dikin_pole,
    _require_interior,
    _conjugate_value,
    hessian_inv_matvec,
    interior_gap,
)
from .environments import boundedness_violation
from .estimation import (FLAT_DRIFT, LOSS_SLACK, SINGULARITY_FLOOR, KFunctionCache,
                         _scribble_estimate)
from .perturbations import pole_draw_blocks, round_noise_blocks

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
        rate = self.learning_rate
        if isinstance(rate, str):
            if rate != "auto":
                raise ValueError(f"learning_rate must be positive or 'auto', got {rate!r}")
        # a bool is an int, and would run at eta = 1.0; an int past the float
        # range compares exactly, so it fails here and not in float()
        elif (isinstance(rate, bool) or not isinstance(rate, (int, float, np.integer, np.floating))
              or not 0.0 < rate <= sys.float_info.max):
            raise ValueError(f"learning_rate must be finite and positive, got {rate!r}")


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


_K_GRIDS: dict[int, KFunctionCache] = {}  # the process's K grid for each d


def k_cache_for(spec: AlgorithmSpec, horizon: int) -> KFunctionCache | None:
    """The K grid a perturbed-leader ball run over ``horizon`` rounds reads, or None.

    K depends on the drift norm and d alone, so a process keeps one grid per
    d, built or extended past the drift norm an aligned adversary can reach
    (eta * n), so a run rarely extends it, but not past 2 / SINGULARITY_FLOOR:
    1 - ||x||^2 = 2 / (1 + sqrt(1 + ||theta||^2)), so a round at a larger
    drift aborts before it looks K up. Other runs read no K.
    """
    aset = spec.action_set
    if spec.variant != SCFTPL or aset.kind != BALL or aset.dimension < 2:
        return None
    x_max = min(max(8.0, 1.25 * resolve_learning_rate(spec, horizon) * horizon),
                2.0 / SINGULARITY_FLOOR)
    if aset.dimension not in _K_GRIDS:
        _K_GRIDS[aset.dimension] = KFunctionCache(aset.dimension, x_max=x_max)
    _K_GRIDS[aset.dimension].reach(x_max)  # one length comparison after a build
    return _K_GRIDS[aset.dimension]


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
        """Unfilled arrays for n rounds in dimension d."""
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


class _Abort(Exception):
    """A run stops in round ``t``: the round's ``BoundaryError``, numbered by :func:`_blocks`."""

    def __init__(self, t: int, reason: str):
        self.t, self.reason = t, reason


def _local_norms(aset: ActionSetModel, variant: str, eta: float, xs, y_hats):
    """Local norms ||y_hat||_x^2 in the inverse-Hessian norm and step violations
    2 eta ||y_hat||_x > 1 of rounds with expected actions ``xs`` and estimates
    ``y_hats``, vectorized over their leading axes.

    A perturbed-leader ball run expands the norm in the barrier Hessian's
    coefficients, ||y||^2 / a - c <x, y>^2 with c = b / (a (a + b ||x||^2));
    every other run applies its inverse, as :func:`estimation.local_norm_sq` does.
    """
    hessian = _barrier_hessian(aset, xs)
    if variant == SCFTPL and aset.kind == BALL:
        a, b = hessian.coeff_identity, hessian.coeff_outer
        correction = b / (a * (a + b * np.vecdot(xs, xs)))
        norm_sq = np.vecdot(y_hats, y_hats) / a - correction * np.vecdot(xs, y_hats) ** 2
    else:
        norm_sq = np.vecdot(y_hats, hessian_inv_matvec(hessian, y_hats))
    # the halved test, which is exact, since 2 eta overflows near the largest double
    with np.errstate(over="ignore"):
        return norm_sq, eta * np.sqrt(np.maximum(norm_sq, 0.0)) > 0.5


def run(spec: AlgorithmSpec, losses, rng: np.random.Generator) -> Trace:
    """Run the spec's algorithm against an oblivious loss sequence.

    ``losses`` is an (n, d) array fixed before the run. A perturbed-leader
    ball run reads the process's K grid, ``k_cache_for(spec, n)``.

    Each block of rounds from :func:`_blocks` is copied into the trace,
    whose scalar losses, local norms and step violations are computed per
    block. An abort raises an ``AbortedRunError`` carrying the rounds before
    it. The tests pin the rounds against the module-level operations.
    """
    aset = spec.action_set
    losses, eta = _prologue(spec, losses)
    trace = Trace.empty(*losses.shape)
    try:
        for rows, (xs, actions, y_hats) in _blocks(spec, losses, eta, [rng]):
            xs, actions, y_hats = xs[:, 0], actions[:, 0], y_hats[:, 0]
            trace.x[rows], trace.action[rows], trace.y_hat[rows] = xs, actions, y_hats
            trace.scalar_loss[rows] = np.vecdot(losses[rows], actions)
            trace.local_norm_sq[rows], trace.step_violation[rows] = _local_norms(
                aset, spec.variant, eta, xs, y_hats)
    except _Abort as abort:
        raise AbortedRunError(f"round {abort.t}: {abort.reason}",
                              trace.head(abort.t - 1)) from None
    return trace


def _prologue(spec: AlgorithmSpec, losses):
    """The checked (n, d) losses and the learning rate of a run.

    The losses are checked whole before any draw: every row must satisfy
    sup_a |<y, a>| <= 1 (up to float slack), so every scalar loss the learner
    can observe lies in [-1, 1]; a NaN row fails too.
    """
    aset = spec.action_set
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or losses.shape[1] != aset.dimension:
        raise ValueError(f"losses must have shape (n, {aset.dimension})")
    excess = boundedness_violation(aset, losses)
    if not excess <= LOSS_SLACK:
        raise ValueError(
            f"losses break the [-1, 1] normalization: max_t sup_a |<y_t, a>| - 1 "
            f"is {excess!r}, not <= {LOSS_SLACK:g}")
    return losses, resolve_learning_rate(spec, losses.shape[0])


def run_seeds(spec: AlgorithmSpec, losses, rngs, competitor) -> tuple[np.ndarray, np.ndarray]:
    """Run one seed per generator in ``rngs``, keeping only what regret outputs read.

    Returns the (n, S) per-round regret increments <y_t, A_t - u> of the S
    seeds against ``competitor`` u, column j being ``np.vecdot(losses,
    trace.action - u)`` of seed j's :func:`run`, and the (S,) step-violation
    counts; both equal the per-seed runs' values bit for bit. Two or more
    perturbed-leader seeds run their recurrences together on (S, d) arrays;
    one seed, and each Dikin-pole seed, runs alone. Every block of rounds is
    reduced as it comes, so no (n, d) array is kept. An abort raises the
    per-seed run's ``AbortedRunError`` of the first aborting seed in the
    order of ``rngs``: runs give the same bits however seeds are batched, so
    an aborted batch replays its seeds alone, in order, from their saved
    states, and the first of them to abort raises.
    """
    aset = spec.action_set
    losses, eta = _prologue(spec, losses)
    competitor = np.asarray(competitor, dtype=float)
    rngs = list(rngs)
    states = [rng.bit_generator.state for rng in rngs]  # to replay an aborted batch through run
    increments = np.empty((losses.shape[0], len(rngs)))
    violations = np.zeros(len(rngs), dtype=np.int64)
    together = spec.variant == SCFTPL and len(rngs) > 1
    batches = [slice(0, len(rngs))] if together else [slice(s, s + 1) for s in range(len(rngs))]
    for seeds in batches:
        try:
            for rows, (xs, actions, y_hats) in _blocks(spec, losses, eta, rngs[seeds]):
                increments[rows, seeds] = np.vecdot(losses[rows, None, :], actions - competitor)
                _, violated = _local_norms(aset, spec.variant, eta, xs, y_hats)
                violations[seeds] += violated.sum(axis=0)
        except _Abort:
            for rng, state in zip(rngs[seeds], states[seeds]):
                replay = np.random.Generator(type(rng.bit_generator)())
                replay.bit_generator.state = state
                run(spec, losses, replay)
            # falling through would return rows the batch never filled
            raise RuntimeError("a batch aborted but none of its seeds alone") from None
    return increments, violations


def _blocks(spec: AlgorithmSpec, losses, eta: float, rngs):
    """The rounds of runs on the seeds ``rngs``: per block, its slice of rounds
    and a (3, m, S, d) array of expected actions, played actions and estimates.

    The one round loop. It keeps each seed's cumulative estimate, takes the
    learner's randomness from :mod:`perturbations` in blocks of at most 2^15
    values (the noise, or the Dikin-pole indices: index draw % d, sign +1
    iff draw < d), and plays each round of all seeds by one per-round call,
    which fills the round's rows of the block. A perturbed-leader ball round
    leaves theta in its x row, and :func:`_ball_x` maps a block's rows to x
    at once. A round that cannot be played raises ``BoundaryError``; the
    loop alone knows its round t, so the rounds before it come as a last,
    shorter block, then :class:`_Abort` is raised with t. A Dikin-pole run
    plays one seed.
    """
    aset = spec.action_set
    n, d = losses.shape
    single = len(rngs) == 1
    ball = spec.variant == SCFTPL and aset.kind == BALL
    if spec.variant == SCRIBBLE:
        if aset.kind == HYPERCUBE:
            step, state = _cube_pole_round, _CubePole(aset)
        else:
            step, state = _pole_round, aset
        draws = (block[:, 0].tolist() for block in pole_draw_blocks(aset, rngs, n))
    else:
        if ball:
            step = _ball_round if single else _ball_rounds
        elif single:
            step = _cube_round if d <= _CUBE_FLOAT_DIMS else _cube_round_array
        else:
            step = _cube_rounds
        state = k_cache_for(spec, n)
        draws = round_noise_blocks(aset, rngs, n)
        if single:
            draws = (block[:, 0] for block in draws)
    y_hat_cum = np.zeros(d if single else (len(rngs), d))
    t0 = 0
    for block in draws:
        out = np.empty((3, len(block), len(rngs), d))
        xs, actions, y_hats = out[:, :, 0] if single else out
        played, boundary = len(block), None
        try:
            with np.errstate(over="ignore"):  # an overflowing theta^2 aborts its round
                for i, (x, action, y_hat, draw, loss) in enumerate(
                        zip(xs, actions, y_hats, block, losses[t0:t0 + len(block)])):
                    step(np.multiply(y_hat_cum, -eta, out=x), action, y_hat, draw, loss, state)
                    y_hat_cum += y_hat
        except BoundaryError as exc:
            played, boundary = i, exc
        if ball:
            _ball_x(xs[:played], xs[:played])
        yield slice(t0, t0 + played), out[:, :played]
        if boundary is not None:
            raise _Abort(t0 + played + 1, str(boundary))
        t0 += played


# The per-round functions play one round of one seed on (d,) rows, or of S
# seeds on (S, d) rows, of the block: they get theta = -eta * (cumulative
# estimate) in the x row, the action and estimate rows, the round's draw and
# loss row and the run's K grid, its body or, for the hypercube's Dikin
# pole, the _CubePole it keeps between rounds, and fill the three rows in
# place or raise BoundaryError, which _blocks numbers with the round; an
# S-seed round raises it when any seed's expected action is too close to
# the boundary. A ball round leaves theta in the x row for _blocks to map.
# The one-seed twins keep Python floats: at S = 1 and d = 5 the (S, d) code
# took 2.5x (hypercube, against the float round) and 4.2x (ball) as long per
# round on a 2-core x86_64 host.
# Where theta^2 would overflow (|theta| > 1.34e154) x would round to 0, so a
# hypercube round caps it at the largest double, which puts |x_i| at or
# past 1, and a ball round aborts on an infinite ||theta||^2.
_FLOAT_MAX = sys.float_info.max
# The widest one-seed hypercube run whose rounds _cube_round plays in Python
# floats; wider rows go to _cube_round_array. The float round costs about
# 0.5 us more per coordinate, the array round about the same at any d up to
# 64. On the same host, interleaved one-seed run_seeds timings had the float
# round faster in 9 of 9 pairs up to d = 8 (0.58x as long at d = 5), in 8 of 9
# at d = 12, 6 of 9 at d = 16 (a tie, 0.95x), and slower from d = 20 on
# (2.3x as long at d = 64).
_CUBE_FLOAT_DIMS = 12
_CUBE_ABORT = (f"expected action within {SINGULARITY_FLOOR:g} of a vertex; "
               f"covariance numerically singular")
_BALL_ABORT = (f"expected action within {SINGULARITY_FLOOR:g} of the sphere; "
               f"local geometry numerically singular")
# A ball round runs its abort test only past this drift norm, or at a NaN
# one. 1 - ||x||^2 = 2 / (1 + sqrt(1 + ||theta||^2)), so at ||theta|| <= 1e6
# it is at least 2e-6: 2e4 times SINGULARITY_FLOOR, and more than the d * 2^-53
# by which x @ x can round for any d below 1e10, so the test cannot hold.
_BALL_GUARD = 1e6


def _ball_x(theta, out):
    """Write x = theta / (1 + sqrt(1 + ||theta||^2)) of each row theta to ``out``,
    which may be ``theta``, and return where the ball's abort test holds:
    1 - ||x||^2 < SINGULARITY_FLOOR, or ||theta||^2 overflows. Rows lie along
    the last axis, and each row's values are those of the row alone."""
    theta_norm = np.sqrt(np.vecdot(theta, theta))
    norm_sq = theta_norm * theta_norm
    x = np.divide(theta, (1.0 + np.sqrt(1.0 + norm_sq))[..., None], out=out)
    return (1.0 - np.vecdot(x, x) < SINGULARITY_FLOOR) | (norm_sq == math.inf)


def _cube_x(x, residual):
    """Map theta in ``x`` to x = theta / (1 + sqrt(1 + theta^2)) in place, theta^2
    capped at the largest double, and write 1 - x^2 to ``residual``."""
    np.multiply(x, x, out=residual)
    np.minimum(residual, _FLOAT_MAX, out=residual)
    residual += 1.0
    np.sqrt(residual, out=residual)
    residual += 1.0
    x /= residual
    np.multiply(x, x, out=residual)
    np.subtract(1.0, residual, out=residual)


def _cube_round(x, action, y_hat, xi, loss, _):
    # argmin_a <a, eta Yhat - xi> = sign(theta + xi) coordinatewise (+1 at
    # ties, and at theta + xi = -0.0). Each coordinate's operations are those
    # of _cube_round_array in Python floats, which round as numpy's float64
    # does. The three dot products stay numpy's: their BLAS summation order,
    # with fused multiply-adds, sets their bits.
    # theta = -eta * (cumulative estimate) is never NaN, since eta is at most
    # the largest double and every estimate is finite, so min() of the
    # residuals aborts where ndarray.min() does.
    xs, signs, residuals, weighted = [], [], [], []
    try:
        for t, e in zip(x.tolist(), xi.tolist()):
            signs.append(1.0 if t + e >= 0.0 else -1.0)
            sq = t * t
            x_i = t / (math.sqrt((_FLOAT_MAX if sq > _FLOAT_MAX else sq) + 1.0) + 1.0)
            resid = 1.0 - x_i * x_i
            xs.append(x_i)
            residuals.append(resid)
            weighted.append(x_i / resid)
    except ZeroDivisionError:  # a residual of 0, which the test below rejects
        raise BoundaryError(_CUBE_ABORT) from None
    if min(residuals) < SINGULARITY_FLOOR:
        raise BoundaryError(_CUBE_ABORT)
    x[...], action[...], y_hat[...] = xs, signs, weighted
    scalar_loss = float(loss.dot(action))
    shrink = float(action.dot(y_hat)) / (1.0 + float(x.dot(y_hat)))
    y_hat[...] = [(a / r - w * shrink) * scalar_loss
                  for a, r, w in zip(signs, residuals, weighted)]


def _cube_round_array(x, action, y_hat, xi, loss, _):
    action[...] = np.where(np.add(x, xi, out=action) >= 0.0, 1.0, -1.0)
    residual = y_hat  # the estimate's row holds 1 - x^2 until the estimate is written
    _cube_x(x, residual)
    if residual.min() < SINGULARITY_FLOOR:
        raise BoundaryError(_CUBE_ABORT)
    scalar_loss = float(loss.dot(action))
    weighted = x / residual
    alpha = float(x.dot(weighted))
    cross = float(action.dot(weighted))
    weighted *= cross / (1.0 + alpha)
    np.divide(action, residual, out=y_hat)
    y_hat -= weighted
    y_hat *= scalar_loss


def _cube_rounds(x, action, y_hat, xi, loss, _):
    action[...] = np.where(np.add(x, xi, out=action) >= 0.0, 1.0, -1.0)
    residual = y_hat
    _cube_x(x, residual)
    if residual.min() < SINGULARITY_FLOOR:
        raise BoundaryError(_CUBE_ABORT)
    scalar_loss = np.vecdot(loss, action)
    weighted = x / residual
    alpha = np.vecdot(x, weighted)
    cross = np.vecdot(action, weighted)
    weighted *= (cross / (1.0 + alpha))[:, None]
    np.divide(action, residual, out=y_hat)
    y_hat -= weighted
    y_hat *= scalar_loss[:, None]


def _ball_round(theta, action, y_hat, xi, loss, k_cache):
    theta_norm = math.sqrt(float(theta.dot(theta)))
    if not theta_norm <= _BALL_GUARD and _ball_x(theta, np.empty_like(theta)):
        raise BoundaryError(_BALL_ABORT)
    norm_sq = theta_norm * theta_norm
    drifted = np.add(theta, xi, out=action)
    drift_norm = math.sqrt(float(drifted.dot(drifted)))
    d = len(theta)
    if drift_norm > 0.0:
        action /= drift_norm
    else:
        action[...] = np.eye(1, d)[0]
    scalar_loss = float(loss.dot(action))
    if d == 1 or theta_norm < FLAT_DRIFT:  # at d = 1, d * scalar_loss is scalar_loss
        np.multiply(action, d * scalar_loss, out=y_hat)
        return
    k = k_cache(theta_norm)
    coeff = 1.0 / (1.0 - k) - (d - 1.0) / k
    proj = float(action.dot(theta)) / norm_sq
    np.multiply(action, (d - 1.0) / k, out=y_hat)
    y_hat += (coeff * proj) * theta
    y_hat *= scalar_loss


def _ball_rounds(theta, action, y_hat, xi, loss, k_cache):
    d = theta.shape[1]
    theta_norm = np.sqrt(np.vecdot(theta, theta))
    if not theta_norm.max() <= _BALL_GUARD and _ball_x(theta, np.empty_like(theta)).any():
        raise BoundaryError(_BALL_ABORT)
    norm_sq = theta_norm * theta_norm
    drifted = np.add(theta, xi, out=action)
    drift_norm = np.sqrt(np.vecdot(drifted, drifted))
    if drift_norm.min() > 0.0:
        action /= drift_norm[:, None]
    else:  # some seed, or a NaN norm, takes the still-drift action e_1
        still = ~(drift_norm > 0.0)
        action /= np.where(still, 1.0, drift_norm)[:, None]
        action[still] = np.eye(1, d)
    scalar_loss = np.vecdot(loss, action)
    if d == 1:
        np.multiply(action, scalar_loss[:, None], out=y_hat)
        return
    # K is looked up once for the (S,) drift norms; each row rounds as
    # _ball_round's. Only a round with a flat seed (every seed in round 1) masks.
    k = k_cache(theta_norm)
    flat = theta_norm < FLAT_DRIFT if theta_norm.min() < FLAT_DRIFT else None
    if flat is not None:
        k[flat], norm_sq[flat] = 0.5, 1.0
    coeff = 1.0 / (1.0 - k) - (d - 1.0) / k
    proj = np.vecdot(action, theta) / norm_sq
    np.multiply(((d - 1.0) / k)[:, None], action, out=y_hat)
    y_hat += (coeff * proj)[:, None] * theta
    y_hat *= scalar_loss[:, None]
    if flat is not None:
        y_hat[flat] = (d * scalar_loss[flat])[:, None] * action[flat]


def _pole_round(x, action, y_hat, draw, loss, aset):
    x[...] = _conjugate_gradient(aset, x)
    _require_interior(aset, x)
    d = aset.dimension
    action[...] = _dikin_pole(aset, x, draw % d, 1 if draw < d else -1)
    scalar_loss = float(loss.dot(action))
    y_hat[...] = _scribble_estimate(d, _barrier_hessian(aset, x), x, action, scalar_loss)


class _CubePole:
    """What a hypercube Dikin-pole round keeps for the next one: the expected
    action x (None before round 1) and the coordinate its estimate moved."""

    def __init__(self, aset: ActionSetModel):
        self.aset, self.x, self.moved = aset, None, 0


def _cube_pole_round(x, action, y_hat, draw, loss, pole):
    # The hypercube's Hessian is diagonal and a pole leaves x in one axis,
    # so an estimate d H(x) (A - x) l has one nonzero coordinate, the pole's
    # index; the others are (d l) * 0.0, which leave the cumulative estimate
    # and so theta and x as they were. The round re-maps only the coordinate
    # the last estimate moved, and computes the pole and estimate in Python
    # floats as _dikin_pole and _scribble_estimate(_barrier_hessian) round.
    aset = pole.aset
    if pole.x is None:  # round 1 maps every coordinate
        pole.x = _conjugate_gradient(aset, x)
        gap = interior_gap(aset, pole.x)
    else:
        x_i = pole.x[pole.moved] = _cube_coordinate(float(x[pole.moved]))
        gap = 1.0 - abs(x_i)  # the other coordinates passed in their rounds
    x[...] = pole.x
    if gap < INTERIOR_MARGIN:
        _require_interior(aset, x)
    d = aset.dimension
    i = pole.moved = draw % d
    x_i = float(pole.x[i])
    resid = 1.0 - x_i * x_i
    offset = resid / math.sqrt(2.0 * (1.0 + x_i * x_i))
    a_i = x_i + offset if draw < d else x_i - offset
    action[...] = pole.x
    action[i] = a_i
    scaled = d * float(loss.dot(action))
    y_hat.fill(scaled * 0.0)
    y_hat[i] = scaled * (2.0 * (1.0 + x_i * x_i) / (resid * resid) * (a_i - x_i))


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


def bregman_diagnostic(aset: ActionSetModel, eta: float, trace: Trace) -> np.ndarray:
    """Per-round conjugate Bregman divergence along the trace.

    B(-eta Yhat_t, -eta Yhat_{t-1}) computed through the closed-form
    conjugate value and gradient, for all rounds at once, each rounded as
    it would be alone; each term is nonnegative by convexity, and whenever
    the round satisfied the step condition it is bounded by
    eta^2 * ||y_hat||^2 in the round's local norm.
    """
    eta = float(eta)
    prev = -eta * trace.y_hat_cum
    curr = prev - eta * trace.y_hat
    if prev.shape[1:] != (aset.dimension,) or not (np.isfinite(prev).all()
                                                   and np.isfinite(curr).all()):
        raise ValueError(f"the drifts must be finite rows of length {aset.dimension}")
    return (_conjugate_value(aset, curr) - _conjugate_value(aset, prev)
            + eta * np.vecdot(trace.y_hat, _conjugate_gradient(aset, prev)))
