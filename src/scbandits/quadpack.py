"""Adaptive Gauss-Kronrod quadrature, many integrals advanced in lockstep.

A port of the QUADPACK routines that ``scipy.integrate.quad`` runs without
a weight function (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner,
*QUADPACK*, Springer 1983):

* dqagse with the 21-point Gauss-Kronrod rule dqk21, for [a, b];
* dqagie with the 15-point rule dqk15i on the map x = bound + (1 - t)/t of
  t in (0, 1], for [bound, inf), and x = (1 - t)/t with f(x) + f(-x) summed
  at each abscissa for the whole line;
* dqagpe with dqk21, for [a, b] with break points;
* dqpsrt, which keeps the subintervals ordered by error estimate, dqelg,
  Wynn's epsilon algorithm, which extrapolates the sequence of area
  estimates, and the final choice of result.

The three routines differ in their first pass: one rule over the whole
range in dqagse and dqagie, one per interval between break points in
dqagpe. They share one bisection loop, :func:`_adaptive`, which calls a
subinterval small by its length in dqagse and dqagie and by its bisection
level in dqagpe.

The arithmetic is the Fortran's, operation by operation, and the rules'
nodes and weights are the doubles that scipy compiles, so an integral
returns quad's value, error estimate, error code and subinterval count bit
for bit. Indices are 1-based, as in the Fortran, with slot 0 unused, and
an integral's lists grow by one entry per bisection.

Each integral is a generator: it yields the abscissae where it needs its
integrand, receives the values in the same order through ``send``, and
returns a :class:`Quadrature`. :func:`lockstep` moves a batch of integrals
forward together, one bisection each per step, and calls one vectorized
integrand per step for all of them. :func:`quad` runs one integral of a
scalar integrand, with quad's signature.
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min       # d1mach(1)
_OFLOW = sys.float_info.max       # d1mach(2)
_ABSERR_FLOOR = _UFLOW / (50.0 * _EPMACH)

# dqk21: Kronrod abscissae (the 10-point Gauss abscissae at odd 0-based
# index, the centre last), Kronrod weights, Gauss weights of those abscissae
_XGK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
          0.0)
_WGK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077600067629720, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG10 = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)

# dqk15i: Kronrod abscissae (the centre last), Kronrod weights, and the
# 7-point Gauss weights, zero where an abscissa is not a Gauss node
_XGK15 = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245, 0.0)
_WGK15 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG7 = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
        0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)

# quad's explanation of each error code these routines return
MESSAGES = {
    1: ("The maximum number of subdivisions ({limit}) has been achieved.\n  "
        "If increasing the limit yields no improvement it is advised to "
        "analyze \n  the integrand in order to determine the difficulties.  "
        "If the position of a \n  local difficulty can be determined "
        "(singularity, discontinuity) one will \n  probably gain from "
        "splitting up the interval and calling the integrator \n  on the "
        "subranges.  Perhaps a special-purpose integrator should be used."),
    2: ("The occurrence of roundoff error is detected, which prevents \n  "
        "the requested tolerance from being achieved.  "
        "The error may be \n  underestimated."),
    3: ("Extremely bad integrand behavior occurs at some points of the\n  "
        "integration interval."),
    4: ("The algorithm does not converge.  Roundoff error is detected\n  "
        "in the extrapolation table.  It is assumed that the requested "
        "tolerance\n  cannot be achieved, and that the returned result "
        "(if full_output = 1) is \n  the best which can be obtained."),
    5: "The integral is probably divergent, or slowly convergent.",
}


class Quadrature(NamedTuple):
    """What quad returns for one integral: ``value``, ``abserr``, ``ier``
    (0 on success), ``last``, the number of subintervals, and the
    subdivision ``limit`` it ran with."""

    value: float
    abserr: float
    ier: int
    last: int
    limit: int

    @property
    def message(self) -> str:
        """quad's message for a nonzero ``ier``."""
        return MESSAGES[self.ier].format(limit=self.limit)


def _rule_tail(resk: float, resg: float, resabs: float, resasc: float,
               hlgth: float, dhlgth: float) -> tuple[float, float, float, float]:
    # the common end of dqk21 and dqk15i: scale by the half-length and turn
    # the Gauss-Kronrod difference into the error estimate
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _ABSERR_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


class _Kronrod21:
    """dqk21 on [a, b]. It asks for f at the centre, then at centre - h x_j
    and at centre + h x_j for the ten nonzero Kronrod abscissae x_j."""

    size = 21

    @staticmethod
    def points(a: float, b: float) -> list[float]:
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, _ = _XGK21
        t0, t1, t2, t3, t4 = h * x0, h * x1, h * x2, h * x3, h * x4
        t5, t6, t7, t8, t9 = h * x5, h * x6, h * x7, h * x8, h * x9
        return [c, c - t0, c - t1, c - t2, c - t3, c - t4, c - t5, c - t6, c - t7, c - t8, c - t9,
                c + t0, c + t1, c + t2, c + t3, c + t4, c + t5, c + t6, c + t7, c + t8, c + t9]

    @staticmethod
    def apply(f: Sequence[float], a: float, b: float):
        # the Fortran's loops unrolled, each sum in their order: the Gauss
        # abscissae (odd j) first, then the others
        hlgth = 0.5 * (b - a)
        fc, l0, l1, l2, l3, l4, l5, l6, l7, l8, l9, r0, r1, r2, r3, r4, r5, r6, r7, r8, r9 = f
        k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10 = _WGK21
        g1, g3, g5, g7, g9 = _WG10
        s0, s1, s2, s3, s4 = l0 + r0, l1 + r1, l2 + r2, l3 + r3, l4 + r4
        s5, s6, s7, s8, s9 = l5 + r5, l6 + r6, l7 + r7, l8 + r8, l9 + r9
        resg = 0.0 + g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
        resk = k10 * fc
        resabs = (abs(resk) + k1 * (abs(l1) + abs(r1)) + k3 * (abs(l3) + abs(r3))
                  + k5 * (abs(l5) + abs(r5)) + k7 * (abs(l7) + abs(r7)) + k9 * (abs(l9) + abs(r9))
                  + k0 * (abs(l0) + abs(r0)) + k2 * (abs(l2) + abs(r2)) + k4 * (abs(l4) + abs(r4))
                  + k6 * (abs(l6) + abs(r6)) + k8 * (abs(l8) + abs(r8)))
        resk = (resk + k1 * s1 + k3 * s3 + k5 * s5 + k7 * s7 + k9 * s9
                + k0 * s0 + k2 * s2 + k4 * s4 + k6 * s6 + k8 * s8)
        h = resk * 0.5
        resasc = (k10 * abs(fc - h) + k0 * (abs(l0 - h) + abs(r0 - h)) + k1 * (abs(l1 - h) + abs(r1 - h))
                  + k2 * (abs(l2 - h) + abs(r2 - h)) + k3 * (abs(l3 - h) + abs(r3 - h))
                  + k4 * (abs(l4 - h) + abs(r4 - h)) + k5 * (abs(l5 - h) + abs(r5 - h))
                  + k6 * (abs(l6 - h) + abs(r6 - h)) + k7 * (abs(l7 - h) + abs(r7 - h))
                  + k8 * (abs(l8 - h) + abs(r8 - h)) + k9 * (abs(l9 - h) + abs(r9 - h)))
        return _rule_tail(resk, resg, resabs, resasc, hlgth, abs(hlgth))


class _Kronrod15Infinite:
    """dqk15i for an infinite range mapped onto t in (0, 1]: [bound, inf) by
    x = bound + (1 - t)/t (``inf`` = 1), and the whole line by x = (1 - t)/t
    and its mirror -x, whose values it sums (``inf`` = 2). A subinterval
    [a, b] of (0, 1] asks for f at the images of t = centre, centre - h x_j
    and centre + h x_j for the seven nonzero Kronrod abscissae x_j, then, for
    the whole line, at their mirrors in the same order."""

    def __init__(self, bound: float, inf: int):
        self.bound = 0.0 if inf == 2 else bound
        self.two_sided = inf == 2
        self.size = 30 if self.two_sided else 15

    @staticmethod
    def _abscissae(a: float, b: float) -> list[float]:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        absc = [hlgth * x for x in _XGK15[:7]]
        return [centr] + [centr - t for t in absc] + [centr + t for t in absc]

    def points(self, a: float, b: float) -> list[float]:
        boun = self.bound
        x = [boun + (1.0 - t) / t for t in self._abscissae(a, b)]
        return x + [-v for v in x] if self.two_sided else x

    def apply(self, f: Sequence[float], a: float, b: float):
        hlgth = 0.5 * (b - a)
        t = self._abscissae(a, b)
        if self.two_sided:
            f = [v + w for v, w in zip(f[:15], f[15:])]
        # the Fortran's loops unrolled, each sum in their order; the Gauss
        # sum keeps its zero-weight terms, which are NaN at an infinite value
        fc, l0, l1, l2, l3, l4, l5, l6, r0, r1, r2, r3, r4, r5, r6 = [
            (v / s) / s for v, s in zip(f, t)]
        k0, k1, k2, k3, k4, k5, k6, k7 = _WGK15
        g0, g1, g2, g3, g4, g5, g6, g7 = _WG7
        s0, s1, s2, s3 = l0 + r0, l1 + r1, l2 + r2, l3 + r3
        s4, s5, s6 = l4 + r4, l5 + r5, l6 + r6
        resg = g7 * fc + g0 * s0 + g1 * s1 + g2 * s2 + g3 * s3 + g4 * s4 + g5 * s5 + g6 * s6
        resk = k7 * fc
        resabs = (abs(resk) + k0 * (abs(l0) + abs(r0)) + k1 * (abs(l1) + abs(r1))
                  + k2 * (abs(l2) + abs(r2)) + k3 * (abs(l3) + abs(r3))
                  + k4 * (abs(l4) + abs(r4)) + k5 * (abs(l5) + abs(r5))
                  + k6 * (abs(l6) + abs(r6)))
        resk = resk + k0 * s0 + k1 * s1 + k2 * s2 + k3 * s3 + k4 * s4 + k5 * s5 + k6 * s6
        h = resk * 0.5
        resasc = (k7 * abs(fc - h) + k0 * (abs(l0 - h) + abs(r0 - h)) + k1 * (abs(l1 - h) + abs(r1 - h))
                  + k2 * (abs(l2 - h) + abs(r2 - h)) + k3 * (abs(l3 - h) + abs(r3 - h))
                  + k4 * (abs(l4 - h) + abs(r4 - h)) + k5 * (abs(l5 - h) + abs(r5 - h))
                  + k6 * (abs(l6 - h) + abs(r6 - h)))
        return _rule_tail(resk, resg, resabs, resasc, hlgth, hlgth)


def _qpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
           nrmax: int) -> tuple[int, float, int]:
    """dqpsrt: insert the two newest subintervals into ``iord``, the indices
    ordered by decreasing error, and pick the one to bisect next. Returns
    (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = last
        if last > limit // 2 + 2:
            jupbn = limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


_LIMEXP = 50


def _qelg(n: int, epstab: list, res3la: list, nres: int) -> tuple[int, float, float, int]:
    """dqelg: one step of the epsilon algorithm on ``epstab[1..n]``.
    Returns (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: converged
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == _LIMEXP:
        n = 2 * (_LIMEXP // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        epstab[ib] = epstab[ib + 2]
        ib += 2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _divide(x: float, y: float) -> float:
    # x / y with IEEE results at y = 0, as the compiled routine divides
    if y != 0.0:
        return x / y
    if x == 0.0 or x != x:
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


Integral = Generator[list, list, Quadrature]


def _final(result: float, abserr: float, area: float, errsum: float, ier: int, ierro: int,
           correc: float, ksgn: int, resabs: float, rlist: list, last: int,
           summed: bool) -> tuple[float, float, int]:
    """The common end of dqagse, dqagie and dqagpe: the extrapolated
    ``result`` unless ``summed`` (the jump out of the loop when the error sum
    met the bound) or the tests below prefer the sum of the subintervals'
    areas, the divergence test, and quad's numbering of ``ier``. Returns
    (result, abserr, ier)."""
    if not summed:
        if abserr == _OFLOW:
            summed = True
        else:
            divergence_test = True
            if ier + ierro != 0:
                if ierro == 3:
                    abserr = abserr + correc
                if ier == 0:
                    ier = 3
                if result != 0.0 and area != 0.0:
                    summed = abserr / abs(result) > errsum / abs(area)
                elif abserr > errsum:
                    summed = True
                elif area == 0.0:
                    divergence_test = False
            if not summed and divergence_test:
                if not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
                    ratio = _divide(result, area)
                    if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                        ier = 6
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def _large(k: int, alist: list, blist: list, small: float, level: list | None,
           levmax: int) -> bool:
    # is subinterval k above the smallest size: longer than ``small`` in
    # dqagse and dqagie, of a level below ``levmax`` in dqagpe?
    return abs(blist[k] - alist[k]) > small if level is None else level[k] < levmax


def _adaptive(rule, ends: list[float], first_pass, epsabs: float, epsrel: float,
              limit: int) -> Integral:
    """One integral: ``first_pass`` on ``rule``'s values over the intervals
    between ``ends``, then bisection of the subinterval with the largest
    error, with the sequence of areas extrapolated by the epsilon algorithm
    once the subinterval to bisect is of the smallest size.

    ``first_pass`` is :func:`_whole_range` (dqagse and dqagie) or
    :func:`_break_points` (dqagpe). The first sizes a subinterval by its
    length against ``small``, set to 0.375 of the range and halved after
    each extrapolation, the second by its bisection level (``level``)
    against ``levmax``, raised by one after each extrapolation."""
    f = yield [x for i in range(len(ends) - 1) for x in rule.points(ends[i], ends[i + 1])]
    first = first_pass(rule, f, ends, epsabs, epsrel, limit)
    if isinstance(first, Quadrature):
        return first
    alist, blist, rlist, elist, iord, level, result, errsum, resabs = first
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    maxerr = iord[1]
    errmax = elist[maxerr]
    area = result
    dres = abs(result)
    erlarg = errsum
    ertest = max(epsabs, epsrel * dres)
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 1
    ktmin = 0
    extrap = noext = False
    ier = ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1
    small = abs(blist[1] - alist[1]) * 0.375
    levmax = 1
    correc = 0.0
    size = rule.size
    summed = False  # the Fortran's jump out of the loop: sum the subintervals
    last = len(alist) - 1  # dqagpe with no break point and limit 1 skips the loop
    for last in range(last + 1, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        f = yield rule.points(a1, b1) + rule.points(a2, b2)
        area1, error1, _, defab1 = rule.apply(f[:size], a1, b1)
        area2, error2, _, defab2 = rule.apply(f[size:], a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        if level is not None:
            level[maxerr] += 1
            level.append(level[maxerr])
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        # the bisected subinterval keeps slot maxerr for the half with the
        # larger error and appends the other half
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist.append(area1)
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            rlist[maxerr] = area1
            rlist.append(area2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if level is None and last == 2:
            # dqagse and dqagie start the extrapolation table here; dqagpe
            # stores its second entry at its first pass through the table
            erlarg = errsum
            ertest = errbnd
            numrl2 = 2
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if (abs(b1 - a1) > small) if level is None else (level[last] < levmax):
            erlarg = erlarg + erro12
        if not extrap:
            # is the subinterval to bisect next of the smallest size?
            if _large(maxerr, alist, blist, small, level, levmax):
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest subinterval has the largest error: bisect the
            # larger ones first while their error sum exceeds the test
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if _large(maxerr, alist, blist, small, level, levmax):
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        if numrl2 > 2:
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
            ktmin += 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if abseps < abserr:
                ktmin = 0
                abserr = abseps
                result = reseps
                correc = erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                # dqagse and dqagie stop at the test too, dqagpe only below it
                if abserr < ertest or abserr == ertest and level is None:
                    break
            if numrl2 == 1:
                noext = True
            if ier == 5:
                break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        levmax += 1
        erlarg = errsum
    result, abserr, ier = _final(result, abserr, area, errsum, ier, ierro, correc, ksgn,
                                 resabs, rlist, last, summed)
    return Quadrature(result, abserr, ier, last, limit)


def _whole_range(rule, f: list, ends: list[float], epsabs: float, epsrel: float,
                 limit: int):
    """The first pass of dqagse and dqagie: one rule over the whole range,
    [a, b] or, for dqagie, [0, 1]. Returns the :class:`Quadrature` if it ends
    the routine, else what :func:`_adaptive` bisects."""
    a, b = ends
    ier = 0
    result, abserr, defabs, resabs = rule.apply(f, a, b)
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return Quadrature(result, abserr, ier, 1, limit)
    return [0.0, a], [0.0, b], [0.0, result], [0.0, abserr], [0, 1], None, result, abserr, defabs


def _break_points(rule, f: list, ends: list[float], epsabs: float, epsrel: float,
                  limit: int):
    """The first pass of dqagpe: the rule over each interval between the
    ascending ``ends``, the range's ends with the break points inside it,
    and the intervals ordered by decreasing error. Returns the
    :class:`Quadrature` if it ends the routine, else what :func:`_adaptive`
    bisects."""
    nint = len(ends) - 1
    npts = nint - 1
    size = rule.size
    alist, blist, rlist, elist = [0.0], [0.0], [0.0], [0.0]
    iord, ndin = list(range(nint + 1)), [False]
    result = abserr = resabs = 0.0
    for i in range(nint):
        a1, b1 = ends[i], ends[i + 1]
        area1, error1, defabs, resa = rule.apply(f[size * i:size * i + size], a1, b1)
        abserr = abserr + error1
        result = result + area1
        ndin.append(error1 == resa and error1 != 0.0)
        resabs = resabs + defabs
        alist.append(a1)
        blist.append(b1)
        rlist.append(area1)
        elist.append(error1)
    errsum = 0.0
    for i in range(1, nint + 1):
        if ndin[i]:
            elist[i] = abserr
        errsum = errsum + elist[i]
    ier = 0
    errbnd = max(epsabs, epsrel * abs(result))
    if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd:
        ier = 2
    if nint > 1:
        # order the first intervals by decreasing error, a selection sort
        for i in range(1, npts + 1):
            ind1 = iord[i]
            for j in range(i + 1, nint + 1):
                ind2 = iord[j]
                if elist[ind1] > elist[ind2]:
                    continue
                ind1 = ind2
                k = j
            if ind1 == iord[i]:
                continue
            iord[k] = iord[i]
            iord[i] = ind1
        if limit < npts + 2:
            ier = 1
    if ier != 0 or abserr <= errbnd:
        return Quadrature(result, abserr, ier, nint, limit)
    return alist, blist, rlist, elist, iord, [0] * (nint + 1), result, errsum, resabs


def qags(a: float, b: float, epsabs: float, epsrel: float, limit: int) -> Integral:
    """The integral over [a, b], as ``quad(f, a, b, epsabs, epsrel, limit)``."""
    return _adaptive(_Kronrod21, [float(a), float(b)], _whole_range, epsabs, epsrel, limit)


def qagi(bound: float, epsabs: float, epsrel: float, limit: int, inf: int = 1) -> Integral:
    """The integral over [bound, inf) (``inf`` = 1), as ``quad(f, bound, inf,
    ...)``, or over the whole line (``inf`` = 2, ``bound`` ignored), as
    ``quad(f, -inf, inf, ...)``."""
    return _adaptive(_Kronrod15Infinite(float(bound), inf), [0.0, 1.0], _whole_range, epsabs,
                     epsrel, limit)


def qagp(a: float, b: float, points: Sequence[float], epsabs: float, epsrel: float,
         limit: int) -> Integral:
    """The integral over [a, b], a < b, with the break points ``points``, as
    ``quad(f, a, b, epsabs, epsrel, limit, points=points)``: the distinct
    points strictly inside (a, b) split it. Raises ValueError, as quad does,
    unless ``limit`` exceeds their number."""
    a, b = float(a), float(b)
    inside = sorted({float(p) for p in points if a < p < b})
    if limit <= len(inside):
        raise ValueError(f"Number of break points ({len(points):d}) "
                         f"must be less than subinterval limit ({limit:d})")
    return _adaptive(_Kronrod21, [a, *inside, b], _break_points, epsabs, epsrel, limit)


def lockstep(integrals: Sequence[Integral],
             integrand: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> list[Quadrature]:
    """Run the generators ``integrals`` to the end, together.

    Each step collects the abscissae every unfinished integral asks for,
    calls ``integrand(owner, x)`` once on all of them (``owner[i]`` is the
    index in ``integrals`` of the integral that asked for ``x[i]``), and
    hands each integral its values. Returns the integrals' results in order.
    """
    results: list[Quadrature | None] = [None] * len(integrals)
    pending = {i: next(gen) for i, gen in enumerate(integrals)}
    while pending:
        counts = [len(points) for points in pending.values()]
        owner = np.repeat(np.fromiter(pending, dtype=np.intp, count=len(pending)), counts)
        x = np.array([p for points in pending.values() for p in points])
        values = integrand(owner, x).tolist()
        asked, pending, start = pending, {}, 0
        for i, count in zip(asked, counts):
            try:
                pending[i] = integrals[i].send(values[start:start + count])
            except StopIteration as done:
                results[i] = done.value
            start += count
    return results


class IntegrationWarning(UserWarning):
    """A nonzero ``ier`` from :func:`quad`, as ``scipy.integrate.quad`` warns."""


def quad(f: Callable[[float], float], a: float, b: float, epsabs: float = 1.49e-8,
         epsrel: float = 1.49e-8, limit: int = 50,
         points: Sequence[float] | None = None) -> Quadrature:
    """``scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel,
    limit=limit, points=points)`` for a scalar integrand ``f`` over [a, b],
    [a, inf) or the whole line, a < b.

    Picks the routine quad picks, dqagse, dqagie or dqagpe, calls ``f`` at
    one float at a time, and returns the whole :class:`Quadrature`: quad's
    value and error estimate bit for bit, with ``ier`` and ``last``. A
    nonzero ``ier`` warns with quad's message. Raises ValueError where quad
    does for invalid input, and for a range of none of the three forms.
    """
    if not (a < b and (a > -math.inf or b == math.inf)):
        raise ValueError(f"quad integrates over [a, b], [a, inf) or (-inf, inf) with a < b, "
                         f"not from {a!r} to {b!r}")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        raise ValueError("If 'epsabs'<=0, 'epsrel' must be greater than both"
                         " 5e-29 and 50*(machine epsilon).")
    if limit < 1:
        raise ValueError("Invalid 'limit' argument. There must be at least one subinterval")
    if points is not None:
        if b == math.inf:
            raise ValueError("Infinity inputs cannot be used with break points.")
        integral = qagp(a, b, points, epsabs, epsrel, limit)
    elif b == math.inf:
        integral = qagi(a, epsabs, epsrel, limit, inf=2 if a == -math.inf else 1)
    else:
        integral = qags(a, b, epsabs, epsrel, limit)
    x = next(integral)
    try:
        while True:
            x = integral.send([float(f(p)) for p in x])
    except StopIteration as done:
        result = done.value
    if result.ier:
        warnings.warn(result.message, IntegrationWarning, stacklevel=2)
    return result
