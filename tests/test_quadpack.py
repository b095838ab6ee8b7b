import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from scbandits import quadpack

# Integrands that take QUADPACK down each of its paths: plain convergence,
# endpoint singularities that need the epsilon extrapolation, kinks, jumps,
# oscillation, divergence, and a zero integrand.
_CASES = [
    (lambda x: math.exp(-x * x), 0.0, 3.0),
    (lambda x: math.exp(-x * x), 0.0, math.inf),
    (lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0),
    (lambda x: math.log(x) if x > 0.0 else 0.0, 0.0, 1.0),
    (lambda x: x**-0.9, 0.0, 1.0),
    (lambda x: x**-0.999, 0.0, 1.0),
    (lambda x: math.sin(50.0 * x) ** 2, 0.0, 10.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf),
    (lambda x: 1.0 / x, 1.0, math.inf),
    (lambda x: math.sin(x) / x, 1.0, math.inf),
    (lambda x: math.exp(-x) / math.sqrt(x), 0.0, math.inf),
    (lambda x: abs(x - 0.3), 0.0, 1.0),
    (lambda x: 1.0 if x > 0.37 else 0.0, 0.0, 1.0),
    (lambda x: math.cos(100.0 * x), 0.0, 1.0),
    (lambda x: math.log(x) * x**-0.5, 0.0, 1.0),
    (lambda x: 1.0 / (x * x + 1e-8), -1.0, 1.0),
    (lambda x: math.sin(1.0 / x) if x else 0.0, 0.0, 1.0),
    (lambda x: 0.0, 0.0, 1.0),
]


def _by_quad(f, a, b, epsrel, limit):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = integrate.quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=limit, full_output=1)
    return out[0], out[1], out[2]["last"], out[3] if len(out) > 3 else None


@pytest.mark.parametrize("limit", [1, 2, 5, 50, 300])
@pytest.mark.parametrize("epsrel", [1e-3, 1e-9, 1.2e-14])
def test_port_equals_quad_bit_for_bit(limit, epsrel):
    # all integrals of a row run in one lockstep batch
    integrals = [quadpack.qagi(a, 0.0, epsrel, limit) if b == math.inf
                 else quadpack.qags(a, b, 0.0, epsrel, limit) for _, a, b in _CASES]

    def integrand(owner, x):
        return np.array([_CASES[i][0](p) for i, p in zip(owner.tolist(), x.tolist())])

    results = quadpack.lockstep(integrals, integrand)
    for (f, a, b), got in zip(_CASES, results):
        value, abserr, last, message = _by_quad(f, a, b, epsrel, limit)
        assert (got.value, got.abserr, got.last) == (value, abserr, last), (a, b)
        assert (got.message if got.ier else None) == message, (a, b)
