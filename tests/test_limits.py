import math
from fractions import Fraction

import numpy as np
import pytest

from covlab import limits as lim
from covlab.limits import LimitLaw, Regime


def test_unit_ball_volume():
    assert lim.unit_ball_volume(0) == 1.0
    assert lim.unit_ball_volume(1) == pytest.approx(2.0, rel=1e-14)
    assert lim.unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-14)
    assert lim.unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)
    assert lim.unit_ball_volume(50) > 0.0


def test_interior_coefficient_small_dims():
    assert lim.interior_coefficient(1) == pytest.approx(1.0, rel=1e-13)
    assert lim.interior_coefficient(2) == pytest.approx(1.0, rel=1e-13)
    assert lim.interior_coefficient(3) == pytest.approx(3 * math.pi ** 2 / 32,
                                                        rel=1e-13)


def test_interior_coefficient_d5_exact_rational():
    # Gamma(7/2) = 15 sqrt(pi)/8 and Gamma(3) = 2 give
    # c_5 = (1/5!) * (15 pi/16)^4 exactly
    want = float(Fraction(15 ** 4, 120 * 16 ** 4)) * math.pi ** 4
    assert lim.interior_coefficient(5) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("k", range(1, 9))
def test_boundary_coefficient_closed_forms(k):
    want2 = 2.0 ** (1 - k) * math.pi ** -0.5 / math.factorial(k - 1)
    want3 = 2.0 ** (k - 5) * 3.0 ** (1 - k) * math.pi ** (5 / 3) / math.factorial(k - 1)
    assert lim.boundary_coefficient(2, k) == pytest.approx(want2, rel=1e-12)
    assert lim.boundary_coefficient(3, k) == pytest.approx(want3, rel=1e-12)


def test_rate_function_values():
    assert lim.rate_function(1.0) == 0.0
    assert lim.rate_function(0.0) == 1.0
    assert lim.rate_function(math.e) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(lim.LimitsError):
        lim.rate_function(-0.5)
    # strict convexity on a sample of midpoints
    ts = np.linspace(0.05, 4.0, 40)
    vals = lim.rate_function(ts)
    mid = lim.rate_function((ts[:-1] + ts[1:]) / 2)
    assert np.all(mid < (vals[:-1] + vals[1:]) / 2)


def test_rate_inverse_identities():
    assert lim.rate_inverse(0.0, 7.5) == 7.5
    assert lim.rate_inverse(3.0, 0.0) == 3.0
    # independent oracle: for a=1, x=1 the root solves y - log(y) = 2
    lo, hi = 1.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid - math.log(mid) < 2.0:
            lo = mid
        else:
            hi = mid
    assert lim.rate_inverse(1.0, 1.0) == pytest.approx((lo + hi) / 2, abs=1e-10)


def test_rate_inverse_lattice_identity_and_monotone():
    avals = np.linspace(0.0, 5.0, 100)
    xvals = np.linspace(0.0, 10.0, 100)
    for a in avals:
        prev = -math.inf
        for x in xvals:
            y = lim.rate_inverse(float(a), float(x))
            assert y >= a - 1e-12
            if a == 0.0:
                assert y == x
            else:
                assert y * lim.rate_function(a / y) == pytest.approx(x, abs=1e-10)
            assert y >= prev
            prev = y


def test_boundary_centering_r0():
    d, k, f0, n = 3, 2, 0.5, 100.0
    want = (-(d - 1) / d * math.log(n * f0)
            - (d + k - 3 + 1 / d) * math.log(math.log(n)))
    assert lim.boundary_centering(0.0, n, d, k, f0) == pytest.approx(want)


def test_centering_guard():
    with pytest.raises(lim.LimitsError):
        lim.boundary_centering(0.1, 2.0, 2, 1, 1.0)
    with pytest.raises(lim.LimitsError):
        lim.interior_centering(0.1, math.e, 2, 1, 1.0)


def test_abstract_statistic_identities():
    # d=3, k=1, f0=1: 1.5x the generic statistic is n pi R^3 - log n - 2 loglog n
    rng = np.random.default_rng(12)
    n = rng.integers(20, 10 ** 6, size=1000).astype(float)
    r = rng.random(1000) * 1.5
    lhs3 = 1.5 * np.array([lim.boundary_centering(ri, ni, 3, 1, 1.0)
                           for ri, ni in zip(r, n)])
    rhs3 = n * math.pi * r ** 3 - np.log(n) - 2 * np.log(np.log(n))
    assert np.all(np.abs(lhs3 - rhs3) <= 1e-12 * np.maximum(1.0, np.abs(rhs3)))
    lhs2 = 2.0 * np.array([lim.boundary_centering(ri, ni, 2, 1, 1.0)
                           for ri, ni in zip(r, n)])
    rhs2 = n * math.pi * r ** 2 - np.log(n) - np.log(np.log(n))
    assert np.all(np.abs(lhs2 - rhs2) <= 1e-12 * np.maximum(1.0, np.abs(rhs2)))


def test_abstract_limit_identities():
    rng = np.random.default_rng(5)
    for _ in range(200):
        s = float(rng.random() * 10)        # boundary area of a volume-1 shape
        x = float(rng.random() * 20 - 8)
        law3 = LimitLaw(regime=Regime.WEAK_BOUNDARY, d=3, k=1, f0=1.0,
                        volume=1.0, boundary_area=s)
        want3 = math.exp(-(2 ** -4) * math.pi ** (5 / 3) * s * math.exp(-2 * x / 3))
        assert lim.boundary_law_cdf(law3, 2 * x / 3) == pytest.approx(want3, rel=1e-12)
        law2 = LimitLaw(regime=Regime.WEAK_BOUNDARY, d=2, k=1, f0=1.0,
                        volume=1.0, boundary_area=s)
        want2 = math.exp(-math.exp(-x) - s * math.pi ** -0.5 * math.exp(-x / 2))
        assert lim.boundary_law_cdf(law2, x / 2) == pytest.approx(want2, rel=1e-12)


def test_boundary_cdf_degenerate_and_limits():
    law = LimitLaw(regime=Regime.WEAK_BOUNDARY, d=3, k=1, f0=1.0, volume=2.0,
                   boundary_area=0.0)
    z = np.linspace(-20, 20, 41)
    assert np.all(lim.boundary_law_cdf(law, z) == 1.0)
    law2 = LimitLaw(regime=Regime.WEAK_BOUNDARY, d=2, k=1, f0=1.0,
                    volume=math.pi, boundary_area=2 * math.pi)
    assert lim.boundary_law_cdf(law2, 60.0) == pytest.approx(1.0, abs=1e-12)
    assert lim.boundary_law_cdf(law2, -40.0) == pytest.approx(0.0, abs=1e-12)


def test_cdf_monotone_on_lattice():
    z = np.linspace(-10, 15, 1000)
    law = LimitLaw(regime=Regime.WEAK_BOUNDARY, d=2, k=1, f0=1.0,
                   volume=math.pi, boundary_area=2 * math.pi)
    v = lim.boundary_law_cdf(law, z)
    assert np.all(np.diff(v) >= 0.0) and v.min() >= 0.0 and v.max() <= 1.0
    law_i = LimitLaw(regime=Regime.WEAK_INTERIOR, d=3, k=2, f0=1.0, volume=2.0)
    w = lim.interior_law_cdf(law_i, z)
    assert np.all(np.diff(w) >= 0.0) and w.min() >= 0.0 and w.max() <= 1.0


def test_interior_cdf_values():
    law = LimitLaw(regime=Regime.WEAK_INTERIOR, d=2, k=1, f0=1.0, volume=1.0)
    assert lim.interior_law_cdf(law, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert lim.interior_law_cdf(law, 50.0) == pytest.approx(1.0, abs=1e-12)
    law32 = LimitLaw(regime=Regime.WEAK_INTERIOR, d=3, k=2, f0=1.0, volume=2.0)
    c3 = 3 * math.pi ** 2 / 32
    want = math.exp(-c3 * 2.0 * math.exp(-1.0))
    assert lim.interior_law_cdf(law32, 1.0) == pytest.approx(want, rel=1e-12)


def test_regime_mismatch_raises():
    law = LimitLaw(regime=Regime.WEAK_INTERIOR, d=2, k=1, f0=1.0, volume=1.0)
    with pytest.raises(lim.LimitsError):
        lim.boundary_law_cdf(law, 0.0)


def test_strong_law_limits():
    # super-logarithmic regime
    assert lim.strong_law_limit(3, None, 1.0, 1.0) == pytest.approx(2.0)
    assert lim.strong_law_limit(3, None, 1.0, 4.0) == 1.0
    # constant k: beta = 0
    assert lim.strong_law_limit(3, 0.0, 1.0, 1.0) == pytest.approx(4 / 3)
    assert lim.strong_law_limit(2, 0.0, 1.0, 1.0) == 1.0
    # f1=None: B never meets the boundary
    assert lim.strong_law_limit(2, 0.0, 1.0) == 1.0
    assert lim.strong_law_limit(2, None, 0.5) == 2.0
    # growing k uses the rate inverse
    b = 1.0
    want = max(lim.rate_inverse(b, 1.0), 2 * lim.rate_inverse(b, 0.5))
    assert lim.strong_law_limit(2, b, 1.0, 1.0) == pytest.approx(want)
    with pytest.raises(lim.LimitsError):
        lim.strong_law_limit(2, math.inf, 1.0, 1.0)


def test_strong_law_continuity_at_zero():
    for d in (2, 3, 5):
        a = lim.strong_law_limit(d, 1e-12, 1.0, 1.0)
        b = lim.strong_law_limit(d, 0.0, 1.0, 1.0)
        assert a == pytest.approx(b, abs=1e-8)


def test_limit_law_validation():
    with pytest.raises(lim.LimitsError):
        LimitLaw(regime=Regime.WEAK_BOUNDARY, d=1, k=1, f0=1.0, volume=1.0)
    with pytest.raises(lim.LimitsError):
        LimitLaw(regime=Regime.WEAK_BOUNDARY, d=2, k=1, f0=0.0, volume=1.0)
    with pytest.raises(lim.LimitsError):
        LimitLaw(regime=Regime.SLLN, d=2, k=1, f0=1.0, volume=1.0,
                 beta=math.inf)
