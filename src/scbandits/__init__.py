"""Adversarial linear bandit simulation on the hypercube and Euclidean ball.

Layers: action-set geometry (barriers, conjugates, linear oracles),
heavy-tailed perturbation samplers, closed-form loss estimation, the two
algorithm loops, oblivious adversaries, and an experiment/verification
harness with a CLI.
"""

from .action_sets import ActionSetModel, BALL, HYPERCUBE, ball, hypercube
from .engine import SCFTPL, SCRIBBLE, AlgorithmSpec, Trace, run, run_seeds
from .environments import AdversarySpec, best_in_hindsight, generate
from .rng import make_rng

__all__ = [
    "ActionSetModel",
    "AdversarySpec",
    "AlgorithmSpec",
    "BALL",
    "HYPERCUBE",
    "SCFTPL",
    "SCRIBBLE",
    "Trace",
    "ball",
    "best_in_hindsight",
    "generate",
    "hypercube",
    "make_rng",
    "run",
    "run_seeds",
]

__version__ = "0.1.0"
