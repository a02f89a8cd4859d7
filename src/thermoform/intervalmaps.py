"""Concrete interval maps: Chebyshev, Manneville-Pomeau, coded doubling map.

Periodic orbits are found per itinerary: the coding cell is pulled back
through inverse branches and the fixed point of the n-fold composition is
bisected inside it (vectorized across all 2^n itineraries); the samples are
kept as arrays in code order.  On the coded doubling map the period-n point
of itinerary w is w/(2^n - 1).  Those points increase with w, so a half-open
base interval is a range of codes, and Z_n sums that range by dyadic prefix
blocks through the renewal recursion of the first-return model, with a
certified relative error bound and no array of 2^n orbit sums.

The Manneville-Pomeau first-return model on [1/2, 1) is read off the
preimage ladder xi_k alone: level n's value log(xi_{n-2} - xi_{n-1}) is
-log|DF^n| at a mean-value point of its cylinder, the computed levels' weights
telescope to 1 - xi_{L-1}, and the fitted tail carries the rest, so the
pressure vanishes at t = 1 as Lebesgue measure's conformality demands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import math

import numpy as np

from .renewal import (FIRST_ORDER, NON_UNIQUE, POSITIVE_RECURRENT, TRANSIENT,
                      PressureCurve, RenewalModel, TailEnvelope, check_curve,
                      renewal_zn)
from .sequences import RealizedSequence, realize_model, HOFBAUER
from .series import _U, tail_power_exp

LOG2 = math.log(2.0)

CHEBYSHEV = "chebyshev"
MANNEVILLE_POMEAU = "manneville_pomeau"
DOUBLING_GRID = "doubling_grid"

_BISECT_STEPS = 60
MP_MAX_LEVELS = 2000  # the config schema's `levels` maximum
WHOLE_DOMAIN = (0.0, 1.0 + 1e-12)  # zn_sum's default base: [0, 1], x = 1 included
MAX_PERIOD = 22  # periodic points hold arrays of 2^n itineraries (the doubling-grid
                 # Z_n holds none but keeps the same cap)


def _bisect(up, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Midpoints after _BISECT_STEPS elementwise halvings of [lo, hi],
    keeping the upper half wherever up(mid) holds."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        go_up = up(mid)
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class IntervalMapModel:
    """A two-branch interval map with monotone branches onto the domain.

    The domain is [0, 1) except for Chebyshev, where x = 1 is kept (it is
    pre-fixed, never periodic).  The weight of a periodic sample at
    parameter t is exp(-t log|Df^n|) for the smooth kinds and
    exp(t * S_n(level potential)) for the coded doubling map.
    """

    kind: str
    alpha: float | None = None
    seq: RealizedSequence | None = None

    def __post_init__(self):
        if self.kind not in (CHEBYSHEV, MANNEVILLE_POMEAU, DOUBLING_GRID):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == MANNEVILLE_POMEAU:
            if not (self.alpha and self.alpha > 0):
                raise ValueError(f"manneville_pomeau needs alpha > 0, got {self.alpha}")
            try:  # the left branch's |f'| is 1 + 2^alpha (1 + alpha) x^alpha
                scale = math.pow(2.0, float(self.alpha)) * (1.0 + float(self.alpha))
            except OverflowError:
                scale = math.inf
            if not math.isfinite(scale):
                raise ValueError(f"manneville_pomeau needs a finite alpha with 2**alpha * "
                                 f"(1 + alpha) in the float range, got {self.alpha}")
        if self.kind == DOUBLING_GRID and self.seq is None:
            raise ValueError("doubling_grid needs a realized sequence")

    # -- dynamics ----------------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == CHEBYSHEV:
            return 4.0 * x * (1.0 - x)
        if self.kind == MANNEVILLE_POMEAU:
            a = self.alpha
            left = x * (1.0 + (2.0 ** a) * x ** a)
            return np.where(x < 0.5, left, 2.0 * x - 1.0)
        return np.where(x < 0.5, 2.0 * x, 2.0 * x - 1.0)

    def deriv_abs(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == CHEBYSHEV:
            return np.abs(4.0 - 8.0 * x)
        if self.kind == MANNEVILLE_POMEAU:
            a = self.alpha
            left = 1.0 + (2.0 ** a) * (1.0 + a) * x ** a
            return np.where(x < 0.5, left, 2.0)
        return np.full_like(x, 2.0)

    def inverse(self, branch: int, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if self.kind == CHEBYSHEV:
            root = np.sqrt(np.maximum(1.0 - y, 0.0))
            return 0.5 * (1.0 - root) if branch == 0 else 0.5 * (1.0 + root)
        if self.kind == DOUBLING_GRID:
            return 0.5 * (y + branch)
        if branch == 1:
            return 0.5 * (y + 1.0)
        # x(1 + u) - y, u = (2x)^alpha <= 1, is convex and increasing on [0, 1/2]:
        # Newton from min(y, 1/2) decreases to the root and stops when no element
        # decreases (a NaN never does).  np.power, not **: a scalar's ** is libm's pow,
        # which can differ in the last bit, and a root must not depend on its batch.
        a = self.alpha
        x = np.minimum(y, 0.5)
        while True:
            u = np.power(2.0 * x, a)
            nxt = x - (x * (1.0 + u) - y) / (1.0 + (1.0 + a) * u)
            down = nxt < x
            if not down.any():
                return x
            x = np.where(down, nxt, x)

    @property
    def right_closed(self) -> bool:
        return self.kind == CHEBYSHEV

    def first_return(self, levels: int) -> RenewalModel:
        """First-return renewal model on [1/2, 1): Manneville-Pomeau's fitted
        `levels`-level model, or the doubling map's Hofbauer realization."""
        if self.kind == CHEBYSHEV:
            raise ValueError("chebyshev has no first-return renewal model")
        if self.kind == MANNEVILLE_POMEAU:
            return mp_induced_model(self.alpha, levels)
        return hofbauer_doubling_model(self.seq)


def chebyshev_model() -> IntervalMapModel:
    return IntervalMapModel(CHEBYSHEV)


def manneville_pomeau_model(alpha: float) -> IntervalMapModel:
    return IntervalMapModel(MANNEVILLE_POMEAU, alpha=alpha)


def doubling_grid_model(seq: RealizedSequence) -> IntervalMapModel:
    return IntervalMapModel(DOUBLING_GRID, seq=seq)


def chebyshev_pressure_exact(t: float) -> float:
    """max(-t log 4, (1-t) log 2): flat fixed-point branch vs acim branch."""
    return max(-t * math.log(4.0), (1.0 - t) * LOG2)


def chebyshev_pressure_curve(t_grid) -> PressureCurve:
    """The exact Chebyshev pressure across a grid, classified, with its kink.

    Below t = -1 the fixed-point branch -t log 4 dominates and the acim
    branch is transient; above it the acim branch (1-t) log 2 is positive
    recurrent.  At t = -1 both carry equilibrium states: a first-order kink.
    """
    ts = np.asarray(list(t_grid), dtype=float)
    ps = np.array([chebyshev_pressure_exact(float(t)) for t in ts])
    check_curve(ts, ps)
    at_kink, below = np.abs(ts + 1.0) < 1e-12, ts < -1.0
    classes = [NON_UNIQUE if k else TRANSIENT if b else POSITIVE_RECURRENT
               for k, b in zip(at_kink, below)]
    ders = np.where(at_kink, math.nan, np.where(below, -math.log(4.0), -LOG2))
    return PressureCurve(ts, ps, classes, ders, ["kink" if k else "analytic" for k in at_kink],
                         np.full(len(ts), math.nan), np.zeros(len(ts)),
                         [{"t": -1.0, "kind": "kink", "smoothness": FIRST_ORDER}], [])


@dataclass(frozen=True, eq=False)
class PeriodicPointSet:
    """The admissible period-n samples in code order, as read-only arrays.

    Bit n - 1 - i of codes[j] is the i-th symbol of sample j's itinerary;
    points[j] is its periodic point and log_derivs[j] log |Df^n| there.
    """

    n: int
    codes: np.ndarray
    points: np.ndarray
    log_derivs: np.ndarray
    skipped: int

    def __post_init__(self):
        for a in (self.codes, self.points, self.log_derivs):
            a.flags.writeable = False


_BELOW_ONE = math.nextafter(1.0, 0.0)


def _dyadic_codes_below(x: float, n: int) -> int:
    """How many period-n dyadic points lie below x.

    Code c's point is c / (2^n - 1), except that the all-ones word, the
    supremum of [1/2, 1), is put just below 1 so half-open base membership
    matches the shift picture.  The points increase with the code, so this
    is the first code whose point is >= x.
    """
    top = (1 << n) - 1
    if not x > 0.0:
        return 0
    if x > _BELOW_ONE:
        return top + 1

    def point(c):
        return c / top if c < top else _BELOW_ONE

    c = math.ceil(x * top)  # x * top rounds, so step to the exact first code
    while c > 0 and point(c - 1) >= x:
        c -= 1
    while c <= top and point(c) < x:
        c += 1
    return c


def _bits(codes: np.ndarray, n: int, i: int) -> np.ndarray:
    return (codes >> (n - 1 - i)) & 1


@lru_cache(maxsize=128)
def periodic_points(model: IntervalMapModel, n: int) -> PeriodicPointSet:
    """One sample per length-n itinerary, in code order.

    Each itinerary's cell maps monotonically onto the domain under f^n, so
    its fixed point is bisected by the cell's orientation, never by the
    float sign of f^n - x at the cell's ends (which are preimages of a
    branch break or critical point, where that sign can come out wrong).
    `skipped` counts the itineraries whose point is left out: x = 1 on the
    half-open domain [0, 1) (Manneville-Pomeau and the doubling map), and a
    point where |f'| vanishes along the orbit.  Results are cached per
    (model, n); the points do not depend on the parameter t.
    """
    if not 1 <= n <= MAX_PERIOD:
        raise ValueError(f"n must be in [1, {MAX_PERIOD}]")
    codes = np.arange(1 << n, dtype=np.int64)
    lo = np.zeros(len(codes))
    hi = np.ones(len(codes))
    rising = np.ones(len(codes), dtype=bool)  # f^n increases on the cell
    for i in range(n - 1, -1, -1):
        b = _bits(codes, n, i)
        new_a = np.where(b == 0, model.inverse(0, lo), model.inverse(1, lo))
        new_b = np.where(b == 0, model.inverse(0, hi), model.inverse(1, hi))
        rising ^= new_a > new_b
        lo = np.minimum(new_a, new_b)
        hi = np.maximum(new_a, new_b)

    def f_n(x):
        for _ in range(n):
            x = model.apply(x)
        return x

    def root_above(mid):
        f_mid = f_n(mid)
        return rising & (f_mid < mid) | ~rising & (f_mid > mid)

    roots = _bisect(root_above, lo, hi)
    # endpoint roots (fixed point at 0 sits on its cell boundary)
    roots = np.where(np.abs(f_n(lo) - lo) <= 1e-12, lo, roots)
    roots = np.where(np.abs(f_n(hi) - hi) <= 1e-12, hi, roots)
    roots = np.where(np.abs(roots) <= 1e-15, 0.0, roots)

    ok = np.ones(len(roots), dtype=bool) if model.right_closed else roots < 1.0 - 1e-12
    x = roots.copy()
    log_deriv = np.zeros(len(roots))
    degenerate = np.zeros(len(roots), dtype=bool)
    for _ in range(n):
        d = model.deriv_abs(x)
        degenerate |= d < 1e-300
        log_deriv += np.log(np.maximum(d, 1e-300))
        x = model.apply(x)
    ok &= ~degenerate
    return PeriodicPointSet(n, codes[ok], roots[ok], log_deriv[ok],
                            int(len(codes) - np.count_nonzero(ok)))


def _dyadic_blocks(c0: int, c1: int, n: int):
    """Split the n-bit code range [c0, c1) into its largest aligned blocks.

    Yields (prefix, m, f): the block is every code whose top m = n - f bits
    are prefix, with the low f bits free.  There are at most 2n blocks.
    """
    c = c0
    while c < c1:
        f = (c & -c).bit_length() - 1 if c else n
        while c + (1 << f) > c1:
            f -= 1
        yield c >> f, n - f, f
        c += 1 << f


_EXP_LOG_ERR = 8.0 * _U  # np.exp and np.log are taken to be within 4 ulp
_LOWEST_LOG = -700.0  # log of a bound safely above the smallest normal float


def _doubling_zn(seq: RealizedSequence, t: float, n: int, c0: int, c1: int):
    """Z_n over the codes [c0, c1) and a certified bound on its relative error.

    Cut a cyclic word into blocks 0^k 1: a block of length l carries
    w_l = exp(t s_l), and the all-zero word carries 1.  R_0 = 1 and
    R_j = sum_l w_l R_(j-l) (renewal_zn of the Hofbauer first-return model)
    sum the linear words of length j that end in a 1.  Each dyadic block of
    the range, a prefix P of m bits and f = n - m free bits, sums in closed
    form:

    * P all zeros (m = 0 is the whole domain): the suffix is zero (weight 1)
      or the word is one wrap-around block of length m + L, with L ways to
      split its L - 1 zeros between the suffix's two ends, around a
      composition: 1 + sum_L L w_(m+L) R_(f-L);
    * P holding a 1, with p leading zeros, z zeros after its last 1 and C
      the product of w over its complete blocks after the first 1: a zero
      suffix leaves the wrap-around block w_(p+z+f+1); otherwise the
      suffix's first 1 closes a block w_(z+u+1), its last 1 opens the wrap
      w_(p+v+1), and a composition R_j sits between (u + j + v = f - 1).
      Where p = z = 0 the words rotate to P's blocks followed by any
      composition of f + 1, so the sum is C R_(f+1); P = 1 gives R_n.

    Every term is positive, so the bound counts log-relative errors: the
    weights carry the error of s (RealizedSequence.s_abs_err), the rounding
    of t s and that of exp; a value built from k weights carries k times
    theirs plus one u per rounded product or sum, at most
    n(n+1)/2 + 4n of them on any path.  The bound is infinite where a term
    could fall below the normal float range; an overflow raises
    FloatingPointError.
    """
    with np.errstate(over="raise"):
        r = np.concatenate(([1.0], renewal_zn(hofbauer_doubling_model(seq), t, n)))
        log_w = t * seq.s_values(np.arange(1, n + 1, dtype=np.int64))
        w = np.concatenate(([0.0], np.exp(log_w)))  # w[l] = w_l
        total = 0.0
        for prefix, m, f in _dyadic_blocks(c0, c1, n):
            if prefix == 0:
                total += 1.0 + float((np.arange(1, f + 1) * w[m + 1:m + f + 1]) @ r[:f][::-1])
                continue
            p = m - prefix.bit_length()
            z = (prefix & -prefix).bit_length() - 1
            core = prefix >> z  # P from its first 1 to its last 1
            c, run = 1.0, 0
            for i in range(core.bit_length() - 2, -1, -1):
                run += 1
                if core >> i & 1:
                    c, run = c * w[run], 0
            if p == z == 0:
                total += c * r[f + 1]
                continue
            d = w[p + z + f + 1]
            if f:
                inner = np.convolve(w[z + 1:z + f + 1], w[p + 1:p + f + 1])[:f]
                d += float(inner[::-1] @ r[:f])
            total += c * d
    # every term is a product of weights whose block lengths sum to at most n
    if n * min(0.0, float(np.min(log_w / np.arange(1, n + 1)))) < _LOWEST_LOG:
        return float(total), math.inf
    lam_w = (abs(t) * seq.s_abs_err(n) + 1.01 * _U * float(np.max(np.abs(log_w)))
             + 1.01 * _EXP_LOG_ERR)
    return float(total), math.expm1(n * lam_w + (n * (n + 1) / 2 + 4 * n) * 1.01 * _U)


@dataclass(frozen=True)
class ZnResult:
    """Z_n over the base; rel_err, on the doubling map only, certifies
    |value - Z_n| <= rel_err * value (infinite where a term may underflow)."""

    n: int
    value: float
    in_base: int
    skipped: int
    rel_err: float | None = None


def zn_sum(model: IntervalMapModel, t: float, n: int,
           base: tuple[float, float] = WHOLE_DOMAIN) -> ZnResult:
    """Periodic-orbit partition sum over points in the base interval.

    Weights are |Df^n|^(-t) for the smooth kinds and exp(t * S_n phi) for
    the coded doubling map, where the result carries a certified relative
    error bound (see _doubling_zn).  The base is half-open [lo, hi); the
    default takes in the whole domain, x = 1 included.
    """
    if not 1 <= n <= MAX_PERIOD:
        raise ValueError(f"n must be in [1, {MAX_PERIOD}]")
    lo, hi = float(base[0]), float(base[1])
    if model.kind == DOUBLING_GRID:
        # the points increase with the code, so the base is a code range
        c0, c1 = ((_dyadic_codes_below(lo, n), _dyadic_codes_below(hi, n)) if lo < hi
                  else (0, 0))
        value, rel_err = _doubling_zn(model.seq, t, n, c0, c1)
        return ZnResult(n, value, c1 - c0, 0, rel_err)
    pset = periodic_points(model, n)
    keep = (pset.points >= lo) & (pset.points < hi)
    total = 0.0  # math.exp summed in code order, as sample by sample
    for x in np.multiply(-t, pset.log_derivs[keep]).tolist():
        total += math.exp(x)
    return ZnResult(n, total, int(np.count_nonzero(keep)), pset.skipped)


@dataclass(frozen=True)
class GurevichEstimate:
    ns: np.ndarray
    raw: np.ndarray        # (1/n) log Z_n
    extrapolated: float    # Aitken delta-squared of the last triple
    spread: float          # max oscillation over the last three raw terms
    skipped: int


def gurevich_estimate(model: IntervalMapModel, t: float, n_max: int) -> GurevichEstimate:
    """Pressure estimate from whole-domain periodic sums up to n_max."""
    if n_max < 4:
        raise ValueError("n_max must be >= 4")
    ns = np.arange(1, n_max + 1)
    raw = np.empty(n_max)
    skipped = 0
    for i, n in enumerate(ns):
        z = zn_sum(model, t, int(n))
        skipped += z.skipped
        if z.value > 0:
            raw[i] = math.log(z.value) / n
        elif n > n_max - 3:  # the last three feed the Aitken step and the spread
            raise FloatingPointError(f"Z_n underflowed to 0 at t = {t}, n = {n}; "
                                     "no Gurevich estimate")
        else:
            raw[i] = -math.inf
    x0, x1, x2 = raw[-3], raw[-2], raw[-1]
    d1, d2 = x1 - x0, x2 - x1
    extrap = x2 if abs(d2 - d1) < 1e-15 else x2 - d2 * d2 / (d2 - d1)
    spread = float(max(raw[-3:]) - min(raw[-3:]))
    return GurevichEstimate(ns, raw, float(extrap), spread, skipped)


def two_slope_kink(ts, ps):
    """Intersection of the lines fitted to the points at the three smallest
    and at the three largest t of a curve, in whatever order they are given.

    Returns (t_star, left_slope, right_slope); the input should sample the
    asymptotic linear branches on both sides of a suspected kink.
    """
    ts = np.asarray(ts, dtype=float)
    order = np.argsort(ts, kind="stable")
    ts, ps = ts[order], np.asarray(ps, dtype=float)[order]
    if len(ts) < 6:
        raise ValueError("not enough points for the two-slope fit")
    if np.ptp(ts[:3]) == 0.0 or np.ptp(ts[-3:]) == 0.0:
        raise ArithmeticError("an end of the t grid holds a single t value; no slope to fit")
    s1, c1 = np.polyfit(ts[:3], ps[:3], 1)
    s2, c2 = np.polyfit(ts[-3:], ps[-3:], 1)
    if abs(s1 - s2) < 1e-12:
        raise ArithmeticError("slopes too close; no kink resolved")
    return (c2 - c1) / (s1 - s2), float(s1), float(s2)


def mp_preimage_ladder(alpha: float, n_levels: int) -> np.ndarray:
    """xi_0 = 1/2 and xi_{k+1} = `IntervalMapModel.inverse(0, xi_k)` down the
    left branch (decreasing to 0), each rung to a few ulps relative."""
    model = manneville_pomeau_model(alpha)  # checks alpha
    ladder = np.empty(n_levels + 1)
    ladder[0] = 0.5
    for k in range(n_levels):
        ladder[k + 1] = model.inverse(0, ladder[k])
    return ladder


def mp_induced_model(alpha: float, n_levels: int) -> RenewalModel:
    """First-return model of the Manneville-Pomeau map on [1/2, 1).

    Level n returns after n steps through the parabolic side.  Its cylinder
    has length (xi_{n-2} - xi_{n-1})/2 (xi from mp_preimage_ladder, with
    xi_{-1} = 1) and F^n maps it onto [1/2, 1), so by the mean value theorem
    -log|DF^n| takes the value s_n = log(xi_{n-2} - xi_{n-1}) somewhere on it
    (a stand-in for a potential that is not locally constant; no distortion
    constant is claimed).  These values telescope, sum_{n<=L} e^(s_n) =
    1 - xi_{L-1}, so Lebesgue measure's conformality, G(1, 0) = 1, holds
    through the computed levels.  The tail exponent is fitted on the upper
    half of the levels; the tail's offset is then pinned so the levels past
    L carry the remaining mass xi_{L-1}.  The envelope starts past the
    computed levels, where `s` is that shape exactly, so its eps is 0.  The
    build costs about the ladder (linear in the level count, 0.05-0.09 s at
    2000 levels on a 2-vCPU Xeon host); the level count stays capped at
    MP_MAX_LEVELS, the schema's `levels` maximum.  Small alpha's rungs fall
    as n^(-1/alpha): a ladder that stalls at the float range's bottom (alpha
    = 0.001 from level 1444) or a tail that underflows (alpha = 0.01 at 2000
    levels) is refused.
    """
    if n_levels < 8:
        raise ValueError("need at least 8 levels")
    if n_levels > MP_MAX_LEVELS:
        raise ValueError(f"at most {MP_MAX_LEVELS} levels, got {n_levels}")
    ladder = mp_preimage_ladder(alpha, n_levels - 1)  # checks alpha
    gaps = np.concatenate(([1.0], ladder[:-1])) - ladder  # level n at index n - 1
    if not gaps.min() > 0.0:
        raise ValueError(f"the preimage ladder of alpha={alpha} stalls at level "
                         f"{int(np.argmin(gaps > 0.0)) + 1}; use fewer levels")
    table = np.log(gaps)

    fit_from = max(n_levels // 2, 2)
    ns_fit = np.arange(fit_from, n_levels + 1, dtype=float)
    x_fit = np.column_stack([np.ones(len(ns_fit)), -np.log(ns_fit)])
    coef, *_ = np.linalg.lstsq(x_fit, table[fit_from - 1:], rcond=None)
    log_coeff = float(coef[1])
    # the fit stays above 1 (alpha 1e-4 to 1012, 8 to 2000 levels): the tail converges
    tail = 0.5 * sum(tail_power_exp(-log_coeff, 0.0, n_levels + 1))
    if not tail >= np.finfo(float).tiny:
        raise ValueError(f"the fitted tail of alpha={alpha} past {n_levels} levels "
                         f"underflows the float range; use fewer levels")
    offset = math.log(ladder[-1]) - math.log(tail)
    envelope = TailEnvelope(0.0, log_coeff, offset, 0.0, n_levels + 1)

    def s_fn(n: np.ndarray) -> np.ndarray:
        n = np.asarray(n, dtype=np.int64)
        if np.any(n < 1):
            raise ValueError("s_n is defined for n >= 1")
        return np.where(n <= n_levels, table[np.minimum(n, n_levels) - 1],
                        offset - log_coeff * np.log(n))

    return RenewalModel(s_fn, envelope, mult_slope=0.0, mult_offset=0.0,
                        bad_entropy=0.0, bad_value=0.0,
                        label=f"mp(alpha={alpha}, levels={n_levels})")


def hofbauer_doubling_model(seq: RealizedSequence) -> RenewalModel:
    """First-return model of the doubling map on [1/2, 1) with level values seq.

    Identical to the hofbauer realization of the sequence; named here as the
    interval-map construction.
    """
    return realize_model(seq, HOFBAUER)
