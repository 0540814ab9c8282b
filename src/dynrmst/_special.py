"""The normal and t distribution functions and the root finder dynrmst
needs, in Python floats, so that it runs on numpy alone.  Each matches
scipy's to a few ulps (tests/test_special.py measures how many).

- ``ndtri``: Wichura's AS241 (Applied Statistics 37:477-484, 1988), as
  ``statistics.NormalDist.inv_cdf`` implements it.
- ``stdtrit``: Hill's Algorithm 396 (CACM 13:619-620, 1970), then Newton
  steps on the t tail: a continued fraction, or for df >= 30 the BGRAT
  expansion of DiDonato and Morris (ACM TOMS 18:360-373, 1992); O(1) a call.
- ``brentq``: Brent's method (*Algorithms for Minimization without
  Derivatives*, 1973, ch. 4) with the iterates of scipy's ``brentq``.
"""

import math
from statistics import NormalDist

_EPS = 2.0**-52
_NORMAL = NormalDist()


def ndtr(x):
    """Standard normal CDF."""
    return 0.5 * math.erfc(-x * math.sqrt(0.5))


def ndtri(p):
    """Standard normal quantile, for 0 < p <= 1."""
    return math.inf if p == 1.0 else _NORMAL.inv_cdf(p)


def stdtrit(df, p):
    """Quantile of Student's t on integer ``df`` >= 1, for 1/2 <= p <= 1."""
    q = 1.0 - p  # exact for p >= 1/2
    if q == 0.0:
        return math.inf
    a = 0.5 * df
    ratio = _gamma_ratio(a)
    beta = math.sqrt(math.pi / (a - 0.25)) / ratio  # B(a, 1/2)
    t = _hill(2.0 * q, df)
    for _ in range(10):
        # P(|T| < t) = I_y(1/2, a) and P(T > t) = I_x(a, 1/2) / 2 with
        # x = 1 / (1 + u), y = 1 - x; x^a by its form of least rounding
        u = t * t / df
        x, y = 1.0 / (1.0 + u), u / (1.0 + u)
        xa = (1.0 + u) ** -a if u > 1.0 else math.exp(-a * math.log1p(u))
        w = xa * math.sqrt(y) / beta  # x^a y^(1/2) / B(a, 1/2)
        if u < 1.0 / (df + 2.0):  # near 0, from the exact 1 - 2q
            excess = 0.5 * (1.0 - 2.0 * q) - w * _beta_cf(0.5, a, y)
        elif a < 15 or u > math.e - 1.0:
            excess = 0.5 * w / a * _beta_cf(a, 0.5, x) - q
        else:
            excess = 0.5 * _bgrat(a, u, ratio) - q
        # a Newton step on P(T > t) - q, with the density's second-order term
        h = excess * math.sqrt(df * (1.0 + u)) * beta / xa
        h *= 1.0 + h * t * (df + 1.0) / (2.0 * (t * t + df))
        t += h
        if abs(h) <= 1e-6 * t:  # the error left is O(h^3)
            return t
    return t


def _hill(two_q, df):
    """Hill's t quantile for the two-sided tail ``two_q`` (relative error
    about 1e-6 or less)."""
    if df == 1:
        return 1.0 / math.tan(0.5 * math.pi * two_q)
    if df == 2:
        return math.sqrt(2.0 / (two_q * (2.0 - two_q)) - 2.0)
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2) * df
    y = (d * two_q) ** (2.0 / df)
    if y > 0.05 + a:  # asymptotic inverse expansion about the normal
        x = _NORMAL.inv_cdf(0.5 * two_q)
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c += (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b
             + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        y = ((1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822)
                     * (df + 2.0) * 3.0) + 0.5 / (df + 4.0)) * y
             - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)


# S_m = (2^(1 - 2m) - 2) B_2m / (2m (2m - 1)), m = 7, ..., 1: the Stirling
# series ln(Gamma(a + 1/2) / Gamma(a)) = ln(a) / 2 + sum_m S_m a^(1 - 2m)
_STIRLING = (-5461 / 425984, 691 / 180224, -31 / 18432, 17 / 14336,
             -1 / 640, 1 / 192, -1 / 8)


def _gamma_ratio(a):
    """Gamma(a + 1/2) / (Gamma(a) sqrt(a - 1/4)); for a >= 15 by the
    Stirling series, which keeps the digits a difference of lgammas loses."""
    if a < 15:
        return math.gamma(a + 0.5) / math.gamma(a) / math.sqrt(a - 0.25)
    s = 0.0
    for coef in _STIRLING:
        s = s / (a * a) + coef
    return math.exp(s / a - 0.5 * math.log1p(-0.25 / a))


def _beta_cf(a, b, x):
    """I_x(a, b) a B(a, b) / (x^a (1 - x)^b) by its continued fraction
    (modified Lentz), fast for x < (a + 1) / (a + b + 2)."""
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            break
    return h


# d_n in (sinh(v) / v)^(-1/2) = sum_n d_n v^2n, by the power rule for series
# from c_n = 1 / (2n + 1)!, the coefficients of sinh(v) / v
_C, _D = [1.0], [1.0]
for _n in range(1, 16):
    _C.append(_C[-1] / (2 * _n * (2 * _n + 1)))
    _D.append(sum((0.5 * i - _n) * _C[i] * _D[_n - i]
                  for i in range(1, _n + 1)) / _n)


def _bgrat(a, u, ratio):
    """I_x(a, 1/2) at x = 1 / (1 + u), for a >= 15 and u <= e - 1: with
    nu = a - 1/4 and z = nu ln(1 + u), it is ratio (erfc(sqrt z) +
    sqrt(z / pi) e^-z sum_n d_n J_n), ratio = _gamma_ratio(a) and
    J_n = Gamma(1/2 + 2n, z) / (z^(1/2) e^-z (2 nu)^2n) by recurrence."""
    log_x = -math.log1p(u)
    nu = a - 0.25
    z = -nu * log_x
    rz, erfc = math.sqrt(z), math.erfc(math.sqrt(z))
    j = math.sqrt(math.pi) * erfc * math.exp(z) / rz
    s, power, k = 0.0, 1.0, 0.5
    for dn in _D[1:]:
        j = (k * (k + 1.0) * j + (z + k + 1.0) * power) / (4.0 * nu * nu)
        k += 2.0
        power *= 0.25 * log_x * log_x
        s += dn * j
        if abs(dn * j) <= _EPS * abs(s):
            break
    s *= rz * math.exp(-z) / math.sqrt(math.pi)
    return ratio * (erfc + s)


def brentq(f, xa, xb, xtol):
    """A zero of ``f`` in [xa, xb], where f changes sign: the steps and the
    stopping rule of scipy's ``optimize.brentq`` at its default rtol and
    maxiter, so the same ``f`` gives the same root."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(xa) and f(xb) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * _EPS * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # a short interpolation step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("brentq: no convergence in 100 iterations")
