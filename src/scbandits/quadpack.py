"""Adaptive Gauss-Kronrod quadrature, many integrals advanced in lockstep.

A port of the QUADPACK routines that ``scipy.integrate.quad`` runs for a
finite range and for a range [a, inf) (Piessens, de Doncker-Kapenga,
Ueberhuber and Kahaner, *QUADPACK*, Springer 1983):

* dqagse with the 21-point Gauss-Kronrod rule dqk21, for [a, b];
* dqagie with the 15-point rule dqk15i on the map x = a + (1 - t)/t of
  t in (0, 1], for [a, inf);
* dqpsrt, which keeps the subintervals ordered by error estimate, and
  dqelg, Wynn's epsilon algorithm, which extrapolates the sequence of
  area estimates.

The arithmetic is the Fortran's, operation by operation, and the rules'
nodes and weights are the doubles that scipy compiles, so an integral
returns quad's value, error estimate, error code and subinterval count bit
for bit. Indices are 1-based, as in the Fortran, with slot 0 unused, and
an integral's lists grow by one entry per bisection.

Each integral is a generator: it yields the abscissae where it needs its
integrand, receives the values in the same order through ``send``, and
returns a :class:`Quadrature`. :func:`lockstep` moves a batch of integrals
forward together, one bisection each per step, and calls one vectorized
integrand per step for all of them.
"""

from __future__ import annotations

import math
import sys
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


def _abscissae(xgk: Sequence[float], a: float, b: float) -> list[float]:
    # a rule's abscissae on [a, b]: the centre, then centre - h x_j and
    # centre + h x_j for the nonzero x_j
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = [hlgth * x for x in xgk]
    return [centr] + [centr - t for t in absc] + [centr + t for t in absc]


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
    """dqk21 on [a, b], at :func:`_abscissae`."""

    size = 21

    @staticmethod
    def points(a: float, b: float) -> list[float]:
        return _abscissae(_XGK21[:10], a, b)

    @staticmethod
    def apply(f: Sequence[float], a: float, b: float):
        hlgth = 0.5 * (b - a)
        fc = f[0]
        fv1, fv2 = f[1:11], f[11:21]
        resg = 0.0
        resk = _WGK21[10] * fc
        resabs = abs(resk)
        for j in (1, 3, 5, 7, 9):
            fval1, fval2 = fv1[j], fv2[j]
            fsum = fval1 + fval2
            resg = resg + _WG10[j >> 1] * fsum
            resk = resk + _WGK21[j] * fsum
            resabs = resabs + _WGK21[j] * (abs(fval1) + abs(fval2))
        for j in (0, 2, 4, 6, 8):
            fval1, fval2 = fv1[j], fv2[j]
            fsum = fval1 + fval2
            resk = resk + _WGK21[j] * fsum
            resabs = resabs + _WGK21[j] * (abs(fval1) + abs(fval2))
        reskh = resk * 0.5
        resasc = _WGK21[10] * abs(fc - reskh)
        for j in range(10):
            resasc = resasc + _WGK21[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
        return _rule_tail(resk, resg, resabs, resasc, hlgth, abs(hlgth))


class _Kronrod15Infinite:
    """dqk15i for [bound, inf), mapped onto t in (0, 1] by x = bound + (1 - t)/t:
    a subinterval [a, b] of (0, 1] asks for the images of its
    :func:`_abscissae`."""

    size = 15

    def __init__(self, bound: float):
        self.bound = bound

    def points(self, a: float, b: float) -> list[float]:
        boun = self.bound
        return [boun + (1.0 - t) / t for t in _abscissae(_XGK15[:7], a, b)]

    def apply(self, f: Sequence[float], a: float, b: float):
        hlgth = 0.5 * (b - a)
        t = _abscissae(_XGK15[:7], a, b)
        fv = [(v / s) / s for v, s in zip(f, t)]
        fc = fv[0]
        fv1, fv2 = fv[1:8], fv[8:15]
        resg = _WG7[7] * fc
        resk = _WGK15[7] * fc
        resabs = abs(resk)
        for j in range(7):
            fval1, fval2 = fv1[j], fv2[j]
            fsum = fval1 + fval2
            resg = resg + _WG7[j] * fsum
            resk = resk + _WGK15[j] * fsum
            resabs = resabs + _WGK15[j] * (abs(fval1) + abs(fval2))
        reskh = resk * 0.5
        resasc = _WGK15[7] * abs(fc - reskh)
        for j in range(7):
            resasc = resasc + _WGK15[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
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


def _adaptive(rule, a: float, b: float, epsabs: float, epsrel: float,
              limit: int) -> Integral:
    """The common body of dqagse and dqagie: bisection of the subinterval
    with the largest error, with epsilon extrapolation once the smallest
    subinterval carries it. ``rule`` is :class:`_Kronrod21` on [a, b], or
    :class:`_Kronrod15Infinite` on [0, 1]."""
    ier = 0
    f = yield rule.points(a, b)
    result, abserr, defabs, resabs = rule.apply(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return Quadrature(result, abserr, ier, 1, limit)

    alist, blist, rlist, elist, iord = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr], [0, 1]
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = noext = False
    ierro = iroff1 = iroff2 = iroff3 = 0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    small = erlarg = ertest = correc = 0.0
    size = rule.size
    summed = False  # the Fortran's jump to label 115: sum the subintervals
    for last in range(2, limit + 1):
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
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the subinterval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
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
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
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
            if abserr <= ertest:
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
        erlarg = errsum

    if not summed:
        # set the final result and error estimate
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
                if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
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
    return Quadrature(result, abserr, ier, last, limit)


def qags(a: float, b: float, epsabs: float, epsrel: float, limit: int) -> Integral:
    """The integral over [a, b], as ``quad(f, a, b, epsabs, epsrel, limit)``."""
    return _adaptive(_Kronrod21, float(a), float(b), epsabs, epsrel, limit)


def qagi(bound: float, epsabs: float, epsrel: float, limit: int) -> Integral:
    """The integral over [bound, inf), as ``quad(f, bound, inf, ...)``."""
    return _adaptive(_Kronrod15Infinite(float(bound)), 0.0, 1.0, epsabs, epsrel, limit)


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
