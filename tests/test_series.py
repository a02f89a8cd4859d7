import math

from hypothesis import assume, given, settings, strategies as st
import mpmath
import numpy as np
import pytest

from thermoform.series import (CertifiedSum, iv_add, iv_div_pos, iv_scale,
                               tail_log_power_exp, tail_power_exp, upper_gamma,
                               upper_gamma_rel_err)

mpmath.mp.dps = 40


def brute_tail(a, rho, m_from, chunk=5_000_000, cap=300_000_000):
    """Float64 chunked reference sum plus a bound on the neglected remainder.

    Returns (value, remainder_bound); stops once the integral bound on what
    is left is negligible relative to the accumulated sum.
    """
    total = 0.0
    start = m_from
    while start < cap:
        end = min(start + chunk, cap)
        n = np.arange(start, end, dtype=np.float64)
        total += float(np.sum(n ** a * np.exp(rho * n)))
        # remaining <= f(end) + integral_end^inf, integral bounded two ways
        f_end = end ** a * math.exp(rho * end)
        if rho < 0:
            int_bound = f_end / (-rho)
        else:
            int_bound = f_end * end / max(-a - 1.0, 1e-9)
        if a < -1.0:
            int_bound = min(int_bound, end ** (a + 1) / (-a - 1.0))
        rem = f_end + int_bound
        if rem < 1e-13 * max(total, 1e-30):
            return total, rem
        start = end
    return total, rem


@pytest.mark.parametrize("s", [-3.3, -2.0, -1.5, -0.4985, 0.0, 0.7, 2.5])
@pytest.mark.parametrize("x", [1e-11, 1e-4, 0.5, 3.0, 40.0])
def test_upper_gamma_matches_mpmath(s, x):
    mine = upper_gamma(s, x)
    ref = float(mpmath.gammainc(s, x, mpmath.inf))
    assert mine == pytest.approx(ref, rel=1e-7)


def check_upper_gamma(s, x):
    v = upper_gamma(s, x)
    ref = mpmath.gammainc(s, x, mpmath.inf)
    assert v > 0
    assert abs(v - ref) <= upper_gamma_rel_err(s, x) * ref


@settings(max_examples=400, deadline=None)
@given(s=st.floats(-20.0, 3.0), x=st.floats(1e-10, 700.0))
def test_upper_gamma_within_its_bound(s, x):
    # below 1e-280 the value may leave the normal float range, where it is an
    # upper bound only
    assume(mpmath.gammainc(s, x, mpmath.inf) > mpmath.mpf("1e-280"))
    check_upper_gamma(s, x)


@pytest.mark.parametrize("s,x", [
    (-15.2556, 512.5),  # the downward recurrence gave -5.0e-250 here; truth 2.3e-267
    (-3.3, 40.0), (-1e-300, 1.0), (-0.5, 1.999), (1.0, 2.0), (3.0, 1.5), (-20.0, 1e-10),
])
def test_upper_gamma_regressions(s, x):
    check_upper_gamma(s, x)


def test_upper_gamma_bound_covers_integer_shifts():
    for x in (1e-6, 0.3, 1.9, 2.0, 35.0, 650.0):
        shifts = [upper_gamma_rel_err(-4.3 + j, x) for j in range(5)]
        assert upper_gamma_rel_err(-4.3, x, steps=4) >= max(shifts)


def test_upper_gamma_continued_fraction_converges_from_x_2():
    # x = 2 is the slowest point of the continued fraction's range
    for s in np.linspace(-60.0, 1.0, 6101):
        assert upper_gamma(float(s), 2.0) > 0


@pytest.mark.parametrize("a,rho,m", [
    (-4.2, -0.5, 16), (-4.2, -1e-8, 1024), (-3.0, -1e-5, 64),
    (-1.5, -1e-3, 128), (-1.4, -1e-6, 1024),
    (0.0, -0.7, 8), (1.3, -0.05, 32),
])
def test_tail_encloses_brute_force(a, rho, m):
    lo, hi = tail_power_exp(a, rho, m)
    ref, rem = brute_tail(a, rho, m)
    assert lo <= ref + rem + 1e-300
    assert hi >= ref * (1 - 1e-12)
    assert hi - lo <= max(1e-3 * (ref + rem), 1e-10)


def test_tail_zeta_cross_check():
    # pure power tails against Hurwitz zeta at high precision
    for q, m in [(1.5, 512), (3.0, 64), (2.0, 2048)]:
        lo, hi = tail_power_exp(-q, 0.0, m)
        ref = float(mpmath.zeta(q, m))
        assert lo <= ref <= hi


def test_tail_divergent_flags():
    assert tail_power_exp(-1.0, 0.0, 16)[1] == math.inf
    assert tail_power_exp(-0.5, 0.0, 16)[1] == math.inf
    assert tail_power_exp(2.0, 1e-3, 16)[1] == math.inf


def test_log_tail_encloses_brute_force():
    # at rho = 0 a sum cut at 5e7 falls short by more than the enclosure's
    # width, so the oracle is -d/ds zeta(s, m) at s = -a
    for a, m in [(-3.0, 64), (-2.5, 1024)]:
        lo, hi = tail_log_power_exp(a, 0.0, m)
        assert lo <= -mpmath.zeta(-a, m, derivative=1) <= hi
    # at rho = -1e-4 the cut leaves about e^-5000; summed in chunks of 1e6
    lo, hi = tail_log_power_exp(-1.5, -1e-4, 256)
    total = 0.0
    for start in range(256, 50_000_000, 1_000_000):
        n = np.arange(start, min(start + 1_000_000, 50_000_000), dtype=np.float64)
        total += float(np.sum(np.log(n) * n ** -1.5 * np.exp(-1e-4 * n)))
    assert lo <= total <= hi


@settings(max_examples=200, deadline=None)
@given(a=st.floats(-4.5, -1.02), m=st.integers(2, 1 << 21))
def test_log_tail_at_zero_rho_matches_hurwitz_derivative(a, m):
    lo, hi = tail_log_power_exp(a, 0.0, m)
    ref = -mpmath.zeta(-a, m, derivative=1)
    assert lo <= ref <= hi
    if m >= 1024:
        assert hi - lo <= 1e-12 * float(ref)


def test_certified_sum_properties():
    cs = CertifiedSum(1.0, 1.5, 100, "euler-maclaurin")
    assert cs.width == 0.5 and cs.midpoint == 1.25
    assert cs.contains(1.2) and not cs.contains(1.6)
    assert not cs.divergent
    assert CertifiedSum(3.0, math.inf, 10, "divergent").divergent


def test_interval_helpers():
    assert iv_add((1, 2), (3, 5)) == (4, 7)
    assert iv_scale(-2.0, (1.0, 3.0)) == (-6.0, -2.0)
    lo, hi = iv_div_pos((-1.0, 2.0), (2.0, 4.0))
    assert lo == -0.5 and hi == 1.0
    with pytest.raises(ValueError):
        iv_div_pos((1.0, 2.0), (-1.0, 1.0))
