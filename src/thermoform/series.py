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

The incomplete gamma function is evaluated in pure Python, with a proven
relative error bound (upper_gamma_rel_err): the Legendre continued fraction
(DLMF 8.9.2) for x >= 2, a Temme-style power series (DLMF 8.7) for x < 2,
and recurrences in s whose every step is well conditioned.  The bound
assumes a faithful C library (exp, expm1, log and pow within one ulp).  The
rest of the Euler-Maclaurin arithmetic, and the partial sums of callers,
carry a 1e-14 relative float slack, far below every tolerance they use.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .errors import ConvergenceError

INF = float("inf")


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


_U = 2.0 ** -53  # unit roundoff of a float64
_CF_FROM = 2.0  # continued fraction for x >= _CF_FROM, power series below
_CF_PAIRS = 80  # cap on continued-fraction pairs; x >= 2 needs at most 54
_CF_STOP = 2.0 ** -50  # stop once two successive convergents agree this well
_MIN_NORMAL = 2.2250738585072014e-308

# q(z) = (1/Gamma(1+z) - 1)/z = sum_i _RGAM_Q[i] z^i, from the Maclaurin series
# of 1/Gamma (DLMF 5.7.1) at 50 digits; the dropped terms sum to < 2e-20 for
# |z| <= 1.
_RGAM_Q = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16, 1.1866922547516004e-18, 1.4123806553180319e-18,
    -2.29874568443537e-19,
)
_RGAM_Q_REVERSED = _RGAM_Q[::-1]
_RGAM_ABS_REVERSED = tuple(abs(c) for c in _RGAM_Q_REVERSED)
_RGAM_TAIL = 2e-20


def _cf_rel_err() -> float:
    """Relative error bound of the continued-fraction branch for s <= 1.

    F = 1/(x+ (1-s)/(1+ 1/(x+ (2-s)/(1+ 2/(x+ ...))))) has positive elements
    a_1 = 1, a_2k = k - s, a_2k+1 = k and b_odd = x, b_even = 1, so
    Gamma(s, x) = x^s e^-x F lies between any two successive convergents
    f_(n-1), f_n.  Modified Lentz rounds like the exact recursion run on
    elements perturbed by at most delta = (1+u)^3/(1-u) - 1 each (one set for
    its C, one for its D); the numerator and denominator of f_n are sums of
    positive monomials of at most n elements, so each moves by a factor within
    (1 +- delta)^n, and the 2n products add (1+u)^(2n): the computed f_n is
    within E_n = ((1+delta)/(1-delta))^n (1+u)^(2n) - 1 of the exact one.
    The loop stops at |f_n/f_(n-1) - 1| <= stop, so both f_n and f_(n-1) lie
    within E_n + stop + u of the computed f_n, and so does F between them.
    The prefactor x**s * exp(-x) and the last product add 6u.  The sum is
    taken to first order and widened by 1.01, which covers the cross terms.
    """
    n = 2 * _CF_PAIRS + 1
    delta = 4.0001 * _U  # (1+u)^3/(1-u) - 1; in logs, since 1 + u rounds to 1
    e_n = math.expm1(n * (math.log1p(delta) - math.log1p(-delta)) + 2 * n * math.log1p(_U))
    return 1.01 * (e_n + _CF_STOP + _U + 6.0 * _U)


_CF_REL_ERR = _cf_rel_err()


def _cf_upper_gamma(s: float, x: float) -> float:
    """Gamma(s, x) for s <= 1 and x >= _CF_FROM by Lentz's method on the
    Legendre continued fraction (see _cf_rel_err).  Its elements are
    positive, so no denominator can vanish and C starts at infinity.

    Where x^s e^-x falls so low that Gamma(s, x) could leave the normal float
    range, this returns the upper bound 2 x^(s-1) e^-x instead (the first
    convergent is an upper bound), widened by two subnormal ulps.
    """
    p = _prefactor(s, x)
    if not p:
        return 2.0 * x ** s * math.exp(-x) / x + 1e-323
    f = d = 1.0 / x
    c = INF
    for k in range(1, _CF_PAIRS + 1):
        a = k - s
        d = 1.0 / (1.0 + a * d)
        c = 1.0 + a / c
        f *= c * d
        d = 1.0 / (x + k * d)
        c = x + k / c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= _CF_STOP:
            return p * f
    raise ConvergenceError(f"upper_gamma({s}, {x}): continued fraction did not converge")


def _small_x_base(sigma: float, x: float) -> tuple[float, float]:
    """Gamma(sigma, x) for -1/2 <= sigma <= 1 and 0 < x < _CF_FROM, with a
    bound on its absolute error.

    Gamma(sigma, x) = Gamma(sigma) - gamma(sigma, x), with the lower function
    as x^sigma sum (-x)^n / (n! (sigma+n)) (DLMF 8.7.1 with 8.5.1), is
    regrouped so that nothing blows up at sigma = 0:

        Gamma(sigma, x) = g1 + (1 - x^sigma)/sigma - x^sigma S,
        g1 = (Gamma(1+sigma) - 1)/sigma = -q/(1 + sigma q),
        S = sum_(n>=1) (-x)^n / (n! (sigma+n)),

    which is E1's series at sigma = 0.  The error bound adds the truncation
    and rounding of each part; S alternates with decreasing terms (x < 2), so
    its remainder is below the last term kept.
    """
    u = _U
    log_x = math.log(x)
    y = sigma * log_x
    xs = math.exp(y)
    q = 0.0
    for coef in _RGAM_Q_REVERSED:
        q = q * sigma + coef
    r = 1.0 + sigma * q
    g1 = -q / r
    if abs(y) <= 1e-20:  # (1 - x^sigma)/sigma = -log(x) (1 + y/2 + ...)
        b = -log_x
        b_err = abs(log_x) * (2.0 * u + abs(y))
    else:
        b = -math.expm1(y) / sigma
        b_err = (3.01 * u * abs(log_x) * math.exp(max(y, 0.0) * (1.0 + 4.0 * u))
                 + 3.0 * u * abs(b))
    term, n, s_sum, s_abs = 1.0, 0, 0.0, 0.0
    while abs(term) >= 1e-20:
        n += 1
        term *= -x / n
        t = term / (sigma + n)
        s_sum += t
        s_abs += abs(t)
    value = g1 + b - xs * s_sum
    # g1: Horner on 28 coefficients (each rounded) plus the dropped tail
    q_abs = 0.0
    for coef in _RGAM_ABS_REVERSED:
        q_abs = q_abs * abs(sigma) + coef
    q_err = _RGAM_TAIL + 2.0 * len(_RGAM_Q) * u * q_abs
    r_err = abs(sigma) * q_err + 2.0 * u * (abs(sigma * q) + abs(r))
    g1_err = (q_err + abs(g1) * r_err) / (abs(r) - r_err) + u * abs(g1)
    # x^sigma S: the n-th term carries (2n + 2) roundings, the sum n more
    s_err = (3 * n + 2) * u * s_abs + 1e-20
    xs_rel = (3.01 * abs(y) + 3.0) * u
    t3 = abs(xs * s_sum)
    t3_err = xs * s_err + t3 * xs_rel
    err = g1_err + b_err + t3_err + 2.0 * u * (abs(g1) + abs(b) + t3)
    return value, 1.01 * err


def _small_x_upper_gamma(s: float, x: float) -> tuple[float, float]:
    """Gamma(s, x) for s <= 1 and 0 < x < _CF_FROM, and its relative error
    bound.

    The base sigma = s + k lies in (1/2, 1] or in [-1/2, 1/2].  A downward
    step Gamma(s) = (x^s e^-x - Gamma(s+1))/|s| has Gamma(s+1) <=
    x^s e^-x (x+1)/(x+1+|s|) (third convergent of the continued fraction), so
    it amplifies the error of Gamma(s+1) by at most rho = (x+1)/|s| <= 6 and
    that of x^s e^-x (5u) by 1 + rho.
    """
    u = _U
    k = max(0, math.ceil(-0.5 - s)) if s <= 0.5 else 0
    sigma = s + k  # exact: a multiple of ulp(s) no larger than |s|
    g, abs_err = _small_x_base(sigma, x)
    # Gamma(sigma, x) >= x^sigma e^-x / (x + 1 - sigma) (second convergent)
    # and decreases in x, so the bound at x and at _CF_FROM both hold
    lower = 0.99 * max(x ** sigma * math.exp(-x) / (x + 1.0 - sigma),
                       _CF_FROM ** sigma * math.exp(-_CF_FROM) / (_CF_FROM + 1.0 - sigma))
    rel = abs_err / lower
    ex = math.exp(-x)
    for j in range(1, k + 1):
        sj = sigma - j
        g = (g - x ** sj * ex) / sj
        rho = (x + 1.0) / -sj
        rel = 1.01 * (rho * rel + (1.0 + rho) * 5.0 * u + 2.0 * u)
    return g, rel


def _prefactor(s: float, x: float) -> float:
    """x^s e^-x, or 0 where it is so low that Gamma(s, x) could leave the
    normal float range (Gamma(s, x) >= x^s e^-x / (x + 1 - s) for s <= 1)."""
    p = x ** s * math.exp(-x)
    return p if p >= _MIN_NORMAL * (x + 2.0 - s) else 0.0


def _upward_steps(s: float) -> int:
    """Steps Gamma(s+1) = s Gamma(s) + x^s e^-x from s - m in (0, 1] up to s."""
    return math.ceil(s - 1.0) if s > 1.0 else 0


def upper_gamma(s: float, x: float) -> float:
    """Upper incomplete gamma Gamma(s, x) for real s and x > 0.

    upper_gamma_rel_err(s, x) bounds its relative error.  For x > 700, and
    where Gamma(s, x) could leave the normal float range, the value is an
    upper bound instead: callers only need that deep below underflow.
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
    m = _upward_steps(s)
    sigma = s - m  # exact, as in _small_x_upper_gamma
    if x < _CF_FROM:
        g = _small_x_upper_gamma(sigma, x)[0]
    else:
        g = _cf_upper_gamma(sigma, x)
    # every term of the upward recurrence is positive, so nothing cancels
    for j in range(m):
        sj = sigma + j
        g = sj * g + x ** sj * math.exp(-x)
    return g


def upper_gamma_rel_err(s: float, x: float, steps: int = 0) -> float:
    """Bound e on the relative error of upper_gamma(s + j, x), j = 0..steps.

    |v - Gamma| <= e * min(v, Gamma) for the value v.  Where v is an upper
    bound (x > 700, or Gamma(s, x) near the bottom of the float range) the
    bound is 1 or 2, which still encloses Gamma in [v - e v, v].  Each upward
    step adds at most 2.01u: it rounds a product and a sum of positive terms,
    and x^s e^-x carries 5u.
    """
    if x > 700.0:
        return 2.0  # Gamma <= v <= 3 Gamma for |s - 1| <= x/2
    # for x >= _CF_FROM the bound grows with the upward steps (largest s) and
    # jumps to 1 where the value turns into an upper bound (smallest s), so
    # the two ends suffice
    ends = (s, s + steps) if x >= _CF_FROM else [s + j for j in range(steps + 1)]
    err = 0.0
    for end in ends:
        m = _upward_steps(end)
        if x < _CF_FROM:
            e = _small_x_upper_gamma(end - m, x)[1]
        elif not _prefactor(end - m, x):
            e = 1.0
        else:
            e = _CF_REL_ERR
        err = max(err, max(e, 5.0 * _U) + 2.01 * _U * m)
    return err


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
    # every Gamma(s, x) above has s in a - 3, ..., a + 1
    fp_rel = 1e-14 + (upper_gamma_rel_err(a - 3.0, -rho * M, steps=4) if rho < 0 else 0.0)
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
