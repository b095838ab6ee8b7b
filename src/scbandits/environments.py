"""Oblivious loss-sequence generators.

Every generator materializes the whole sequence y_1..y_n before the learner
moves and never sees learner output, so obliviousness is enforced by shape.
Each emitted vector is normalized so that sup over the body of |<y, a>|
equals one: division by the support-function value, which is the l1 norm on
the hypercube and the l2 norm on the ball.

Four canonical families cover the regimes regret experiments need:
stationary (fixed vector), abruptly switching, slowly rotating, and seeded
random directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action_sets import ActionSetModel, HYPERCUBE, linear_minimizer
from .rng import make_rng

FIXED_VECTOR = "fixed_vector"
PIECEWISE_SWITCHING = "piecewise_switching"
ROTATING_DIRECTION = "rotating_direction"
SEEDED_RANDOM = "seeded_random"

ADVERSARY_KINDS = (FIXED_VECTOR, PIECEWISE_SWITCHING, ROTATING_DIRECTION, SEEDED_RANDOM)


@dataclass(frozen=True)
class AdversarySpec:
    """A rule for producing the oblivious loss sequence.

    ``geometry`` selects the normalization (the body the learner plays on).
    ``base`` seeds the direction for the fixed, switching and rotating
    kinds; ``period`` is the switching half-period; ``angle`` the per-round
    rotation in the (e1, e2) plane; ``seed`` drives the random kind.
    """

    kind: str
    geometry: str
    base: tuple[float, ...] | None = None
    period: int | None = None
    angle: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ADVERSARY_KINDS:
            raise ValueError(
                f"unknown adversary kind {self.kind!r}; expected one of {ADVERSARY_KINDS}")


def _support_norms(aset: ActionSetModel, rows: np.ndarray) -> np.ndarray:
    """sup_a |<y, a>| over the body for each row y: the l1 norm on the hypercube, l2 on the ball."""
    if aset.kind == HYPERCUBE:
        return np.sum(np.abs(rows), axis=1)
    return np.linalg.norm(rows, axis=1)


def _normalize_rows(aset: ActionSetModel, rows: np.ndarray) -> np.ndarray:
    scale = _support_norms(aset, rows)
    if np.any(scale == 0.0):
        raise ValueError("adversary produced a zero loss vector; cannot normalize")
    return rows / scale[:, None]


def _base_vector(spec: AdversarySpec, d: int) -> np.ndarray:
    if spec.base is None:
        base = np.zeros(d)
        base[0] = 1.0
        return base
    base = np.asarray(spec.base, dtype=float)
    if base.shape != (d,):
        raise ValueError(f"adversary base vector must have shape ({d},), got {base.shape}")
    if not np.any(base):
        raise ValueError("adversary base vector must be nonzero")
    return base


def generate(spec: AdversarySpec, d: int, n: int) -> np.ndarray:
    """Materialize the full (n, d) loss sequence for the spec.

    Deterministic given the spec; the seeded-random kind draws from its own
    generator keyed by ``spec.seed`` and is still oblivious.
    """
    d, n = int(d), int(n)
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    aset = ActionSetModel(dimension=d, kind=spec.geometry)

    if spec.kind == FIXED_VECTOR:
        rows = np.tile(_base_vector(spec, d), (n, 1))
    elif spec.kind == PIECEWISE_SWITCHING:
        period = int(spec.period) if spec.period is not None else max(n // 2, 1)
        if period < 1:
            raise ValueError("switching period must be >= 1")
        base = _base_vector(spec, d)
        signs = np.where((np.arange(n) // period) % 2 == 0, 1.0, -1.0)
        rows = signs[:, None] * base
    elif spec.kind == ROTATING_DIRECTION:
        if d < 2:
            raise ValueError("rotating adversary needs d >= 2")
        angle = float(spec.angle) if spec.angle is not None else 2.0 * np.pi / n
        base = _base_vector(spec, d)
        angles = angle * np.arange(n)
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        rows = np.tile(base, (n, 1))
        rows[:, 0] = cos_a * base[0] - sin_a * base[1]
        rows[:, 1] = sin_a * base[0] + cos_a * base[1]
    else:  # SEEDED_RANDOM
        seed = int(spec.seed) if spec.seed is not None else 0
        rows = make_rng(seed).standard_normal((n, d))
        zero = ~np.any(rows, axis=1)
        rows[zero, 0] = 1.0  # astronomically unlikely, but keeps rows nonzero
    return _normalize_rows(aset, rows)


def best_in_hindsight(aset: ActionSetModel, losses) -> np.ndarray:
    """Best fixed action for a full sequence: the support minimizer of sum y_t.

    Exact for the linear regret functional; when sum y_t = 0 every point is
    optimal and the fixed tie-break of the linear minimizer applies.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 2 or losses.shape[0] < 1:
        raise ValueError("losses must be a nonempty (n, d) array")
    return linear_minimizer(aset, losses.sum(axis=0))


def boundedness_violation(aset: ActionSetModel, losses) -> float:
    """max_t sup_a |<y_t, a>| - 1 over an (n, d) array; nonpositive means the
    sequence is valid, NaN that some row has a NaN. An empty sequence gives -1."""
    losses = np.asarray(losses, dtype=float)
    return float(np.max(_support_norms(aset, losses), initial=0.0) - 1.0)
