"""Certified enclosures for series sum(n^a * e^(rho*n)) and relatives.

The workhorse is an order-2 Euler-Maclaurin tail:

    sum_{n>=M} f(n) = int_M^inf f + f(M)/2 - f'(M)/12 + f'''(M)/720 + R,
    |R| <= (1/720) * int_M^inf |f''''|,

applied to f(y) = y^a e^(rho*y) with rho <= 0.  All integrals reduce to
upper incomplete gamma functions, so the enclosure width decays like
M^(a-3) e^(rho*M) and tight tails never require astronomically many explicit
terms, even arbitrarily close to the critical exponent rho = 0.

The log-weighted tail sum(log(n) n^a) at rho = 0, which the s-weighted series
needs at the onset of transience, gets the same enclosure carried one
Bernoulli term further, with elementary integrals.  For rho < 0 it still
rests on log n <= 2 n^(1/2), which is certified but loose.

Floating-point rounding is not tracked rigorously; partial sums add a
16-ulp-style slack per term, far below every tolerance used by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import special

INF = float("inf")

def _gamma_rel_slack(s_min: float, x: float) -> float:
    """Relative accuracy budget for the incomplete-gamma evaluations.

    Each downward recurrence step subtracts nearly equal quantities once x is
    large; the amplification is bounded by powers of (1 + x) per step.
    """
    steps = int(math.ceil(max(0.0, -s_min))) + 1
    return 1e-14 * (1.0 + x) ** min(steps, 8)


@dataclass(frozen=True)
class CertifiedSum:
    """Enclosure [lower, upper] of a series; upper - lower is the certified width."""

    lower: float
    upper: float
    n_terms: int
    # euler-maclaurin: width within the requested tol; capped: the series
    # stopped at its term cap wider than tol; divergent: upper is inf
    tail_method: str

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    @property
    def divergent(self) -> bool:
        return math.isinf(self.upper)

    def contains(self, x: float) -> bool:
        return self.lower <= x <= self.upper

    def __repr__(self) -> str:  # compact, useful in reports
        if self.divergent:
            return f"CertifiedSum(>= {self.lower:.6g}, divergent)"
        return f"CertifiedSum({self.midpoint:.12g} +/- {0.5 * self.width:.2g})"


def iv_add(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float]:
    return (a[0] + b[0], a[1] + b[1])


def iv_scale(c: float, a: tuple[float, float]) -> tuple[float, float]:
    lo, hi = c * a[0], c * a[1]
    return (lo, hi) if lo <= hi else (hi, lo)


def iv_div_pos(num: tuple[float, float], den: tuple[float, float]) -> tuple[float, float]:
    """num / den for an interval den with den.lower > 0."""
    nl, nh = num
    dl, dh = den
    if dl <= 0:
        raise ValueError("denominator interval must be strictly positive")
    lo = nl / dl if nl < 0 else nl / dh
    hi = nh / dh if nh < 0 else nh / dl
    return (lo, hi)


def upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for real s and x > 0.

    Negative s is reduced by Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if x > 700.0:
        # Laurent bound Gamma(s, x) <= 2 x^(s-1) e^-x, valid for x >= 2|s-1|;
        # an upper bound is all callers need this deep below underflow.
        if abs(s - 1.0) > 0.5 * x:
            raise ValueError("upper_gamma outside its large-x validity range")
        bound_log = (s - 1.0) * math.log(x) - x + math.log(2.0)
        return math.exp(bound_log) if bound_log > -745.0 else 5e-324
    if s > 0:
        return float(special.gammaincc(s, x) * special.gamma(s))
    if s == 0.0:
        return float(special.exp1(x))
    k = int(math.ceil(-s))
    s_top = s + k
    if s_top == 0.0:
        g = float(special.exp1(x))
    else:
        g = float(special.gammaincc(s_top, x) * special.gamma(s_top))
    for j in range(k):
        s_cur = s_top - 1 - j  # Gamma(s, x) = (Gamma(s+1, x) - x^s e^-x) / s
        g = (g - x ** s_cur * math.exp(-x)) / s_cur
    return g


def integral_power_exp(a: float, rho: float, m: float) -> float:
    """int_m^inf y^a e^(rho*y) dy for rho < 0, or rho == 0 with a < -1."""
    if rho < 0:
        u = -rho
        x0 = u * m
        return upper_gamma(a + 1.0, x0) * u ** (-(a + 1.0))
    if rho == 0.0:
        if a >= -1.0:
            return INF
        return m ** (a + 1.0) / (-(a + 1.0))
    raise ValueError("rho must be <= 0")


def _falling(a: float, j: int) -> float:
    out = 1.0
    for i in range(j):
        out *= a - i
    return out


def tail_power_exp(a: float, rho: float, m_from: int) -> tuple[float, float]:
    """Enclosure of sum_{n >= m_from} n^a e^(rho*n) with rho <= 0.

    Divergent cases (rho > 0, or rho == 0 with a >= -1) return (lower, inf)
    with a crude finite lower bound.
    """
    if m_from < 2:
        raise ValueError("m_from must be >= 2")
    if rho > 0 or (rho == 0.0 and a >= -1.0):
        return (m_from ** a * math.exp(rho * m_from), INF)
    M = float(m_from)
    log_f = a * math.log(M) + rho * M
    log_ratio = rho + max(a, 0.0) / M  # term ratio bound: e^rho (1+1/n)^a
    if log_f < -600.0 and log_ratio < -0.25 / M:
        # far below every working tolerance: coarse geometric upper bound
        if log_f > -744.0:
            upper = math.exp(log_f) / (1.0 - math.exp(log_ratio)) * (1.0 + 1e-9)
            return (0.0, upper)
        return (0.0, 1e-290)
    fM = M ** a * math.exp(rho * M)
    integral = integral_power_exp(a, rho, M)
    d1 = math.exp(rho * M) * (rho * M ** a + a * M ** (a - 1.0))
    d3 = math.exp(rho * M) * (
        rho ** 3 * M ** a
        + 3.0 * rho ** 2 * a * M ** (a - 1.0)
        + 3.0 * rho * a * (a - 1.0) * M ** (a - 2.0)
        + a * (a - 1.0) * (a - 2.0) * M ** (a - 3.0)
    )
    core = integral + 0.5 * fM - d1 / 12.0 + d3 / 720.0
    # |f''''| <= sum_k C(4,k) |rho|^k |falling(a, 4-k)| y^(a-4+k) e^(rho y)
    rem = 0.0
    for k in range(5):
        coeff = math.comb(4, k) * abs(rho) ** k * abs(_falling(a, 4 - k))
        if coeff:
            rem += coeff * integral_power_exp(a - (4 - k), rho, M)
    fp_rel = _gamma_rel_slack(a - 3.0, -rho * M) if rho < 0 else 1e-14
    rem = rem / 720.0 + fp_rel * (abs(integral) + fM + rem)
    lo = max(core - rem, 0.0)
    hi = core + rem
    if -rho * M > 690.0:
        lo = 0.0  # gamma evaluations switch to coarse upper bounds here
    if hi < lo:  # numerical noise at underflow scale
        lo, hi = 0.0, max(hi, lo)
    return (lo, hi)


def tail_log_power_exp(a: float, rho: float, m_from: int) -> tuple[float, float]:
    """Enclosure of sum_{n >= m_from} log(n) n^a e^(rho*n), rho <= 0.

    At rho == 0 (a < -1) this is tail_power_exp's Euler-Maclaurin enclosure,
    carried one Bernoulli term further, for f(y) = y^a log y:

        sum_{n>=M} f(n) = int_M^inf f + f(M)/2 - f'(M)/12 + f'''(M)/720
                          - f^(5)(M)/30240 + R,  |R| <= int_M^inf |f^(6)| / 30240.

    The derivatives are f^(k)(y) = y^(a-k) (P_k log y + Q_k) with
    P_k = a(a-1)...(a-k+1), Q_0 = 0 and Q_k = (a-k+1) Q_(k-1) + P_(k-1), and
    every integral is elementary: int_M^inf y^c log y dy =
    M^(c+1) (log M/(-(c+1)) + 1/(c+1)^2) for c < -1.  Since log y > 0 on the
    tail, |f^(6)| <= y^(a-6) (|P_6| log y + |Q_6|).  The extra term keeps the
    relative width at the float slack from M = 1024 on for a down to -4.5;
    stopping at f''' would leave up to 1.5e-12 there.

    For rho < 0 the bounds are log n >= log m (lower) and log n <= 2 n^(1/2)
    (upper): certified but loose.
    """
    if m_from < 2:
        raise ValueError("m_from must be >= 2")
    if rho > 0 or (rho == 0.0 and a >= -1.0):
        return (math.log(m_from) * m_from ** a * math.exp(rho * m_from), INF)
    if rho < 0:
        lo = math.log(m_from) * tail_power_exp(a, rho, m_from)[0]
        return (lo, 2.0 * tail_power_exp(a + 0.5, rho, m_from)[1])
    M = float(m_from)
    log_m = math.log(M)
    p_k, q_k = [1.0], [0.0]
    for k in range(1, 7):
        p_k.append((a - k + 1.0) * p_k[-1])
        q_k.append((a - k + 1.0) * q_k[-1] + p_k[-2])
    d = [M ** (a - k) * (p_k[k] * log_m + q_k[k]) for k in range(6)]  # f^(k)(M)
    integral = M ** (a + 1.0) * (log_m / (-(a + 1.0)) + 1.0 / (a + 1.0) ** 2)
    core = integral + 0.5 * d[0] - d[1] / 12.0 + d[3] / 720.0 - d[5] / 30240.0
    c1 = a - 5.0  # c + 1 for the exponent c = a - 6 of |f^(6)|
    rem = M ** c1 * (abs(p_k[6]) * (log_m / -c1 + 1.0 / c1 ** 2) + abs(q_k[6]) / -c1)
    rem = rem / 30240.0 + 1e-14 * (integral + d[0] + rem)
    return (max(core - rem, 0.0), core + rem)
