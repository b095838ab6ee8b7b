import math
import random
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


def _outcome(call):
    # quad's return and message, or that it raised ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            out = call()
        except ValueError:
            return ValueError
    if isinstance(out, quadpack.Quadrature):
        return out.value, out.abserr, out.last, out.message if out.ier else None
    return out[0], out[1], out[2]["last"], out[3] if len(out) > 3 else None


def _both(f, a, b, **kw):
    port = _outcome(lambda: quadpack.quad(f, a, b, **kw))
    return port, _outcome(lambda: integrate.quad(f, a, b, full_output=1, **kw))


# Integrands with their difficulty at break points: kinks, jumps, log and
# inverse-square-root singularities, a narrow peak, and a smooth control.
_BREAK_CASES = [
    (lambda x: abs(x - 0.3), 0.0, 1.0, [0.3]),
    (lambda x: 1.0 if x > 0.37 else 0.0, 0.0, 1.0, [0.37]),
    (lambda x: math.log(abs(x - 0.5)) if x != 0.5 else 0.0, 0.0, 1.0, [0.5]),
    (lambda x: 1.0 / math.sqrt(abs(x - 0.2)) if x != 0.2 else 0.0, 0.0, 1.0, [0.2]),
    (lambda x: abs(x - 0.2) ** -0.9 if x != 0.2 else 0.0, -1.0, 1.0, [0.2]),
    (lambda x: math.log(abs(x * x - 0.25)) if x * x != 0.25 else 0.0, -1.0, 1.0, [-0.5, 0.5]),
    (lambda x: abs(x - 0.2) + (x > 0.5) + abs(x - 0.7) ** -0.5 if x != 0.7 else 0.0,
     0.0, 1.0, [0.7, 0.2, 0.5, 0.2]),
    (lambda x: 1.0 / (1e-6 + (x - 2.0) ** 2), 0.0, 10.0, [2.0]),
    (lambda x: math.sin(30.0 * x) * (x > 1.0), 0.0, 3.0, [1.0, 2.0]),
    (lambda x: math.exp(-x), 0.0, 2.0, [1.0]),
    (lambda x: 0.0, 0.0, 1.0, [0.5]),
]


@pytest.mark.parametrize("limit", [2, 3, 5, 50, 300])
@pytest.mark.parametrize("epsrel", [1e-3, 1e-9, 1.2e-14])
def test_break_points_equal_quad_bit_for_bit(limit, epsrel):
    # the generators in one lockstep batch, then each through the driver
    ok = [case for case in _BREAK_CASES if limit > len(set(case[3]))]
    integrals = [quadpack.qagp(a, b, pts, 0.0, epsrel, limit) for _, a, b, pts in ok]

    def integrand(owner, x):
        return np.array([ok[i][0](p) for i, p in zip(owner.tolist(), x.tolist())])

    for (f, a, b, pts), got in zip(ok, quadpack.lockstep(integrals, integrand)):
        want = _outcome(lambda: integrate.quad(f, a, b, epsabs=0.0, epsrel=epsrel, limit=limit,
                                               points=pts, full_output=1))
        assert _outcome(lambda: got) == want, pts
    for f, a, b, pts in _BREAK_CASES:
        port, scipy_quad = _both(f, a, b, epsabs=0.0, epsrel=epsrel, limit=limit, points=pts)
        assert port == scipy_quad, pts


@pytest.mark.parametrize("f, a, b, pts", [
    (lambda x: abs(x - 0.3), 1.0, 0.0, [0.3]),                      # reversed limits
    (lambda x: math.log(x) if x > 0.0 else 0.0, 2.0, -1.0, [0.0, 1.0]),
    (lambda x: x * x, 0.0, 1.0, [-1.0, 0.0, 1.0, 3.0]),             # none inside
    (lambda x: x * x, 0.0, 1.0, []),
    (lambda x: 1.0 / math.sqrt(x) if x > 0.0 else 0.0, 0.0, 1.0, []),
    (lambda x: x, 0.0, 1.0, [0.1, 0.2, 0.3]),                        # too many for limit 3
    (lambda x: x, 0.0, math.inf, [1.0]),                             # infinite with points
])
@pytest.mark.parametrize("limit", [1, 3, 50])
def test_break_point_edges_equal_quad(f, a, b, pts, limit):
    port, scipy_quad = _both(f, a, b, limit=limit, points=pts)
    # the port has no form for reversed limits, which quad flips
    assert port == (ValueError if b < a else scipy_quad)


# Integrands over the whole line: symmetric, lopsided, heavy-tailed
# (the hypercube marginal), singular at 0, divergent, and zero.
_LINE_CASES = [
    lambda x: math.exp(-x * x),
    lambda x: math.exp(-(x - 1.0) ** 2) * (2.0 + math.sin(x)),
    lambda x: 1.0 / (1.0 + x * x),
    lambda x: 1.0 / (2.0 * math.hypot(1.0, x) * (1.0 + math.hypot(1.0, x))),
    lambda x: math.exp(-abs(x)) / math.sqrt(abs(x)) if x else 0.0,
    lambda x: 1.0 / (1.0 + abs(x)),
    lambda x: math.sin(x) / x if x else 1.0,
    lambda x: x * math.exp(-x * x) + (math.exp(-x) if x > 0.0 else 0.0),
    lambda x: 0.0,
]


@pytest.mark.parametrize("limit", [1, 2, 5, 50, 200])
@pytest.mark.parametrize("epsrel", [1e-3, 1.49e-8, 1.2e-14])
def test_whole_line_equals_quad_bit_for_bit(limit, epsrel):
    integrals = [quadpack.qagi(0.0, 0.0, epsrel, limit, inf=2) for _ in _LINE_CASES]

    def integrand(owner, x):
        return np.array([_LINE_CASES[i](p) for i, p in zip(owner.tolist(), x.tolist())])

    for f, got in zip(_LINE_CASES, quadpack.lockstep(integrals, integrand)):
        want = _outcome(lambda: integrate.quad(f, -math.inf, math.inf, epsabs=0.0,
                                               epsrel=epsrel, limit=limit, full_output=1))
        assert _outcome(lambda: got) == want
        port, scipy_quad = _both(f, -math.inf, math.inf, epsabs=0.0, epsrel=epsrel, limit=limit)
        assert port == scipy_quad


@pytest.mark.parametrize("d", [1, 2, 3, 8])
@pytest.mark.parametrize("limit", [3, 200])
def test_radial_profile_integrands_equal_quad(d, limit):
    # the three quadratures of perturbations.radial_profile_ball, and at
    # limit 3 (too few subintervals at large r) with ier = 1
    tol = dict(epsabs=0.0, epsrel=1e-10, limit=limit)
    for r in (0.0, 0.3, 1.0, 1.7, 12.0, 49.5, 50.0, 400.0, 3e4):
        def inner(s):
            return 2.0 * s**d * (1.0 + (s * r) ** 2) ** (-d - 0.5)

        def bump(w):
            return 2.0 * w**d * (1.0 + w * w) ** (-d - 0.5)

        def inverted(v):
            return 2.0 * v ** (d - 1) * (1.0 + v * v) ** (-d - 0.5)

        port, scipy_quad = _both(inner, 0.0, 1.0, **tol)
        assert port == scipy_quad, r
        if r > 1.0:
            port, scipy_quad = _both(bump, 0.0, min(r, 50.0), points=[1.0], **tol)
            assert port == scipy_quad, r
        if r > 50.0:
            port, scipy_quad = _both(inverted, 1.0 / r, 1.0 / 50.0, **tol)
            assert port == scipy_quad, r
    if limit == 3:
        assert _both(bump, 0.0, 50.0, points=[1.0], **tol)[0][3] is not None


def _random_integral(rng):
    """An integrand with a kink, a jump, a log or power singularity or a
    narrow peak at a point c of its range, or oscillation, times a decay on
    an infinite range, and the range, tolerances, limit and break points to
    integrate it with. Half the draws have break points: dqagpe is the
    routine whose first pass and extrapolation start differ most."""
    form = rng.choice([0, 1, 1, 2, 3])  # [a, b], [a, b] with break points, [a, inf), (-inf, inf)
    a = rng.uniform(-2.0, 1.0)
    b = a + 10.0 ** rng.uniform(-2.0, 1.3) if form < 2 else math.inf
    c = rng.uniform(a, b if form < 2 else a + 3.0)
    p = rng.uniform(0.05, 0.95)
    k = rng.choice([1.0, 7.0, 60.0])
    w = 10.0 ** rng.uniform(-9.0, -1.0)
    f = rng.choice([
        lambda x: abs(x - c),
        lambda x: float(x > c),
        lambda x: math.log(abs(x - c)) if x != c else 0.0,
        lambda x: abs(x - c) ** -p if x != c else 0.0,
        lambda x: w / (w * w + (x - c) * (x - c)),
        lambda x: math.sin(k * x),
        lambda x: 1.0,
    ])
    kw = dict(epsabs=rng.choice([0.0, 1e-12, 1.49e-8]), epsrel=10.0 ** rng.uniform(-13.0, -3.0),
              limit=rng.randrange(1, 61))
    if form == 1:
        kw["points"] = [rng.uniform(a - 1.0, b + 1.0) for _ in range(rng.randrange(4))]
        if rng.random() < 0.5:
            kw["points"].append(c)
    if form < 2:
        return f, a, b, kw
    decay = rng.choice([lambda x: math.exp(-x * x), lambda x: (1.0 + abs(x)) ** (-1.0 - p),
                        lambda x: 1.0 / (1.0 + abs(x))])
    return lambda x: f(x) * decay(x), -math.inf if form == 3 else a, b, kw


def test_random_integrals_equal_quad():
    # qags, qagp and both forms of qagi through their one bisection loop, on
    # integrals drawn at random, against scipy's quad
    rng = random.Random(2025)
    failed = []
    for case in range(1000):
        f, a, b, kw = _random_integral(rng)
        port, scipy_quad = _both(f, a, b, **kw)
        if port != scipy_quad:
            failed.append((case, a, b, kw, port, scipy_quad))
    assert not failed, (len(failed), failed[:3])


def test_quad_warns_with_quads_message():
    with pytest.warns(quadpack.IntegrationWarning, match="maximum number of subdivisions"):
        result = quadpack.quad(lambda x: x**-0.9, 0.0, 1.0, limit=2)
    assert result.ier == 1
    for a, b in ((2.0, 2.0), (1.0, 0.0), (-math.inf, 0.5), (math.inf, -math.inf)):
        with pytest.raises(ValueError, match="a < b"):
            quadpack.quad(math.exp, a, b)
    with pytest.raises(ValueError, match="epsrel"):
        quadpack.quad(math.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-20)


def test_every_verify_quadrature_equals_quad(monkeypatch):
    # each call the three quadrature checks make, nested ones included,
    # against scipy's quad on the same integrand at the time of the call
    from scbandits import verify

    port_quad = quadpack.quad
    calls = []

    def compared(f, a, b, **kw):
        got = port_quad(f, a, b, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # every one of them converges in quad
            value, abserr, info = integrate.quad(f, a, b, full_output=1, **kw)
        assert (got.value, got.abserr, got.last, got.ier) == (value, abserr, info["last"], 0)
        calls.append(kw.get("points") is not None)
        return got

    monkeypatch.setattr(quadpack, "quad", compared)
    opts = verify.VerifyOptions(scale=0.01)
    for check in (verify.check_hypercube_normalization, verify.check_heavy_tail,
                  verify.check_ball_density):
        assert all(row.passed for row in check(opts))
    assert any(calls) and not all(calls)
