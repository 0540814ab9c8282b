"""The normal and t distribution functions and Brent's root finder of
``dynrmst._special`` against scipy, their oracle.

scipy ships these as compiled code, so its operations cannot be copied and
the results differ in the last bits.  Each test bounds the ulp distance by
the largest one measured on its grid (glibc's ``erfc``, scipy 1.17.1; the
bits are the same on CPython 3.10 to 3.13); a change that moves any value
further fails here.
"""

import math

import numpy as np
import pytest
from scipy import optimize, special

from dynrmst import _special, sim


def ulps(a, b):
    """Elementwise distance in units in the last place (finite, same sign)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a.view(np.int64) - b.view(np.int64))


# z range -> largest ulp distance of ndtr(z) from scipy's.  Both round the
# argument z / sqrt(2), whose error the lower tail magnifies by about z^2.
NDTR_ULPS = {(-37.5, -20.0): 508, (-20.0, -10.0): 129, (-10.0, -5.0): 33,
             (-5.0, -1.0): 10, (-1.0, 1.0): 3, (1.0, 37.5): 2}


def test_ndtr_is_scipy_within_measured_ulps():
    z = np.linspace(-37.5, 37.5, 75001)
    got = np.array([_special.ndtr(v) for v in z.tolist()])
    distance = ulps(got, special.ndtr(z))
    for (lo, hi), most in NDTR_ULPS.items():
        assert distance[(lo <= z) & (z <= hi)].max() <= most
    assert _special.ndtr(0.0) == 0.5 and _special.ndtr(math.inf) == 1.0
    assert _special.ndtr(-math.inf) == 0.0


def test_ndtr_below_the_normal_range_underflows_with_scipy():
    # scipy returns 0 below z = -37.5 where math.erfc keeps a subnormal
    z = np.linspace(-40.0, -37.5, 1001)
    got = np.array([_special.ndtr(v) for v in z.tolist()])
    assert np.abs(got - special.ndtr(z)).max() < np.finfo(float).tiny


def test_ndtri_is_scipy_within_measured_ulps():
    tail = np.logspace(-300, math.log10(0.5), 30001)
    p = np.concatenate([tail, np.linspace(0.0, 1.0, 100001)[1:-1],
                        1.0 - tail[tail > 1e-16]])
    got = np.array([_special.ndtri(v) for v in p.tolist()])
    assert ulps(got, special.ndtri(p)).max() <= 7
    # AS241 at the default alpha: 1.9599639845400536, scipy ...054
    assert ulps(_special.ndtri(0.975), special.ndtri(0.975)) <= 2
    assert _special.ndtri(1.0) == math.inf


T_DF = (*range(1, 31), 118, 976, 1000, 10**6)
# alpha -> largest ulp distance of stdtrit(df, 1 - alpha / 2) from scipy's
# over T_DF.  Near p = 1/2 scipy's stdtrit, which inverts its CDF by a
# search, is itself far from the quantile (83282 ulps at df = 4, against a
# 40-digit reference); the closed forms below check that region.
T_ULPS = {1e-6: 2, 0.001: 7, 0.05: 21, 0.1: 8, 0.5: 7, 0.9: 10, 0.999: 83283}


@pytest.mark.parametrize("alpha", sorted(T_ULPS))
def test_t_quantile_is_scipy_within_measured_ulps(alpha):
    p = 1.0 - alpha / 2.0
    distance = [ulps(_special.stdtrit(df, p), special.stdtrit(df, p))
                for df in T_DF]
    assert max(distance) <= T_ULPS[alpha]


def test_t_quantile_is_the_closed_form_for_one_and_two_df():
    """df = 1: t = tan(pi (p - 1/2)); df = 2: t = (2p - 1) / sqrt(2p(1 - p)),
    with p - 1/2 and 1 - p exact, over upper tails from 1e-300 to 1/2."""
    most = {1: 0, 2: 0}
    for q in np.logspace(-300, math.log10(0.5), 3001).tolist():
        p = 1.0 - q
        q = 1.0 - p
        if q == 0.0:
            continue
        half = p - 0.5
        cauchy = (math.tan(math.pi * half) if half < 0.25
                  else 1.0 / math.tan(math.pi * q))
        closed = {1: cauchy, 2: (2.0 * p - 1.0) / math.sqrt(2.0 * p * q)}
        for df, want in closed.items():
            most[df] = max(most[df], int(ulps(_special.stdtrit(df, p), want)))
    assert most[1] <= 15 and most[2] <= 7


def test_t_quantile_at_one_is_infinite_and_at_one_half_zero():
    for df in (1, 5, 976):
        assert _special.stdtrit(df, 1.0) == math.inf
        assert _special.stdtrit(df, 0.5) == 0.0


def test_brentq_is_scipy_brentq_on_both_censoring_calibrations(monkeypatch):
    """Every root of the scenario and joint-model censoring calibrations is
    scipy's, bit for bit."""
    roots = []

    def both(f, lo, hi, xtol):
        got = _special.brentq(f, lo, hi, xtol=xtol)
        assert got == optimize.brentq(f, lo, hi, xtol=xtol)
        roots.append(got)
        return got

    monkeypatch.setattr(sim, "brentq", both)
    for number in (1, 2, 3, 4):
        for target in (0.05, 0.3, 0.7, 0.99):
            sim.scenario_spec(number, 10, censor_target=target)
    for trajectory in ("linear", "quadratic"):
        for target in (0.4, 0.8):
            sim.calibrate_joint_censoring(sim.joint_spec(trajectory), target,
                                          pilot_n=2000, seed=1)
    assert len(roots) == 36


def test_brentq_is_scipy_brentq_on_smooth_roots():
    rng = np.random.default_rng(0)
    for _ in range(300):
        root, c1, c3 = rng.uniform(-2, 2), rng.normal(), abs(rng.normal())
        xtol = 10.0 ** rng.uniform(-14, -2)

        def f(x):
            return (x - root) * (1.0 + c1 * c1) + c3 * (x - root) ** 3

        lo, hi = -3.0 - rng.uniform(), 3.0 + rng.uniform()
        assert (_special.brentq(f, lo, hi, xtol=xtol)
                == optimize.brentq(f, lo, hi, xtol=xtol))


def test_brentq_refuses_a_bracket_without_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        _special.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12)
