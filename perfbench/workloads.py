"""Workload definitions: the configs each workload hands to the scbandits CLI.

Every input is a pure function of (workload name, workload seed). The
program only ever sees the generated config files and command lines; the
seed itself is never passed to it.
"""

from __future__ import annotations

import random

# The seed at which output digests were recorded (see digests.json).
DEFAULT_SEED = 0

# Verify runs at a fixed Monte-Carlo scale and at the suite's own seed: its
# gates are 4-sigma statistical checks calibrated at that seed, so a random
# verify seed would turn a chance excursion into a benchmark failure.
VERIFY_SCALE = 0.15

ADVERSARIES = ("fixed_vector", "piecewise_switching", "rotating_direction", "seeded_random")

# (set, dimension, horizon, algorithm, adversaries, learner seeds per config)
REGRET_WORKLOADS = {
    "cube_d5": [
        ("hypercube", 5, 10_000, "scftpl", ADVERSARIES, 1),
        ("hypercube", 5, 10_000, "scribble", ("fixed_vector", "seeded_random"), 1),
    ],
    "ball_d5": [
        ("ball", 5, 20_000, "scftpl", ADVERSARIES, 1),
    ],
    "wide_d1024": [
        ("hypercube", 1024, 2048, "scftpl", ("seeded_random", "rotating_direction"), 3),
        ("ball", 1024, 2048, "scftpl", ("seeded_random", "rotating_direction"), 3),
    ],
}

VERIFY_WORKLOADS = ("verify_full",)

WORKLOADS = tuple(REGRET_WORKLOADS) + VERIFY_WORKLOADS


def _adversary(kind: str, dimension: int, horizon: int, rng: random.Random) -> dict:
    if kind == "seeded_random":
        return {"kind": kind, "seed": rng.randrange(2**32)}
    spec = {"kind": kind, "base": [rng.gauss(0.0, 1.0) for _ in range(dimension)]}
    if kind == "piecewise_switching":
        spec["period"] = horizon // rng.choice((2, 4, 8))
    return spec


def regret_configs(workload: str, seed: int) -> list[dict]:
    """The experiment configs of a regret workload, without ``out_dir``.

    Learner seeds, loss directions, switching periods and random-adversary
    seeds are drawn from a generator keyed by (workload, seed).
    """
    rng = random.Random(f"{workload}/{seed}")
    configs = []
    for set_kind, d, n, algorithm, adversaries, n_seeds in REGRET_WORKLOADS[workload]:
        for kind in adversaries:
            configs.append({
                "set": set_kind,
                "dimension": d,
                "horizon": n,
                "algorithm": algorithm,
                "learning_rate": "auto",
                "adversary": _adversary(kind, d, n, rng),
                "seeds": rng.sample(range(2**62), n_seeds),
                "label": f"{set_kind}_d{d}_{algorithm}_{kind}",
                "workers": 1,
                "write_per_seed": False,
            })
    return configs


def seed_rounds(config: dict) -> int:
    return len(config["seeds"]) * config["horizon"]
